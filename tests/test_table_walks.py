"""The per-cube walks that table products replaced, kept here as oracles.

Each oracle walks the lattice one cube object (or Haar-function object) at
a time, as the package did before its Haar sums, martingale blocks and
expansion test vectors were read off the lattice tables; the table versions
must agree within 1e-12 relative at L = 2..4, on the zero shift and on a
random shift."""

import numpy as np
import pytest

from dyadlab import commutators as com
from dyadlab import measures as ms
from dyadlab.core import (
    AxisShift,
    DiscreteFunction,
    DyadicCube,
    GridShift,
    HaarFunction,
    ResolutionError,
    TorusGrid,
    axis_average,
    enumerate_axis_shifts,
    enumerate_shifts,
    haar_evaluate,
    martingale_block,
    sample_axis_shift,
    sample_shift,
)
from dyadlab.representation import BRANCHES, axis_decomposition

from haar_oracle import all_axis_cubes, axis_cubes, axis_haar_vector, haar_functions, ops_cubes

LEVELS = (2, 3, 4)
CASES = [(level, shifted) for level in LEVELS for shifted in (False, True)]
IDS = [f"L{level}-{'random' if shifted else 'zero'}" for level, shifted in CASES]


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _case(level, shifted, seed):
    grid = TorusGrid.make(level)
    rng = np.random.default_rng(seed)
    om = sample_shift(grid, rng) if shifted else GridShift.zero(grid)
    return grid, om, rng


# -- the object walks ---------------------------------------------------------------

def walk_profiles(f, axis_idx, om):
    """(Haar row h, its cube, coefficient profile <f, h>_axis) of every
    cancellative Haar function of one factor, one object at a time."""
    axis, shift = f.grid.axes[axis_idx], om[axis_idx]
    for h in haar_functions(axis, shift)[1:]:
        vec = axis_haar_vector(h)
        yield vec, h.cube, f.pair_axis(vec, axis_idx)


def _outer(row, prof, axis_idx):
    return np.outer(row, prof) if axis_idx == 0 else np.outer(prof, row)


def walk_phi_function(f, axis_idx, om):
    other = f.grid.axes[1 - axis_idx]
    out = np.zeros(f.grid.shape)
    for h, _, coeff in walk_profiles(f, axis_idx, om):
        out += _outer(h, ms.axis_profile_strong_max(coeff, other), axis_idx)
    return out


def walk_sf_phi(f, axis_idx, om):
    other = f.grid.axes[1 - axis_idx]
    acc = np.zeros(f.grid.shape)
    for h, _, coeff in walk_profiles(f, axis_idx, om):
        acc += _outer(h**2, ms.axis_profile_strong_max(coeff, other) ** 2, axis_idx)
    return np.sqrt(acc)


def walk_sf_block(f, kind, depths, shift_samples, seed):
    grid = f.grid
    if shift_samples is None:
        shifts = list(enumerate_shifts(grid))
    else:
        rng = np.random.default_rng(seed)
        shifts = [sample_shift(grid, rng) for _ in range(shift_samples)]
    wt = 1.0 / len(shifts)
    acc = np.zeros(grid.shape)
    i, j = depths
    for om in shifts:
        if kind == "block":
            for l1 in range(grid.axes[0].levels - i):
                for c1 in axis_cubes(grid.axes[0], l1, om.shift1):
                    g1 = martingale_block(f, c1, i, 0)
                    for l2 in range(grid.axes[1].levels - j):
                        for c2 in axis_cubes(grid.axes[1], l2, om.shift2):
                            blk = martingale_block(g1, c2, j, 1)
                            acc += wt * ms.maximal_function(blk, "strong").values ** 2
        else:
            axis_idx = 0 if kind == "block1" else 1
            for l in range(grid.axes[axis_idx].levels - i):
                for c in axis_cubes(grid.axes[axis_idx], l, om[axis_idx]):
                    blk = martingale_block(f, c, i, axis_idx)
                    acc += wt * ms.maximal_function(blk, "strong").values ** 2
    return np.sqrt(acc)


def walk_adapted_phi(b, f, axis_idx, om):
    other = f.grid.axes[1 - axis_idx]
    out = np.zeros(f.grid.shape)
    for h, cube, coeff in walk_profiles(f, axis_idx, om):
        m = com.profile_adapted_max(axis_average(b, cube, axis_idx), coeff, other)
        out += _outer(h, m, axis_idx)
    return out


def _axis_shifts(axis, samples, seed):
    if samples is None:
        return list(enumerate_axis_shifts(axis))
    rng = np.random.default_rng(seed)
    return [sample_axis_shift(axis, rng) for _ in range(samples)]


def walk_aux_phi1(b, f, samples, seed):
    grid = f.grid
    axis2 = grid.axes[1]
    shifts = _axis_shifts(axis2, samples, seed)
    acc = np.zeros(grid.shape)
    for sh2 in shifts:
        om = GridShift(AxisShift.zero(grid.axes[0]), sh2)
        phi = DiscreteFunction(grid, walk_adapted_phi(b, f, 1, om))
        sq = np.zeros(grid.shape)
        for _, cube, coeff in walk_profiles(phi, 1, om):
            ind = np.zeros(axis2.n_cells)
            ind[DyadicCube(axis2, cube.level, cube.pos, AxisShift.zero(axis2)).cells()] = 1.0
            sq += np.outer(coeff**2, ind / cube.measure)
        acc += ms.maximal_function(DiscreteFunction(grid, np.sqrt(sq)), "axis1").values
    return acc / len(shifts)


def walk_aux_phi2(f, depth, samples, seed):
    grid = f.grid
    axis1 = grid.axes[0]
    shifts = _axis_shifts(axis1, samples, seed)
    acc = {}
    for sh1 in shifts:
        om = GridShift(sh1, AxisShift.zero(grid.axes[1]))
        phi = DiscreteFunction(grid, walk_phi_function(f, 0, om))
        for lvl in range(axis1.levels - depth):
            for base_pos in range(1 << lvl):
                blk = martingale_block(phi, DyadicCube(axis1, lvl, (base_pos,), sh1), depth, 0)
                m = ms.maximal_function(blk, "axis1")
                acc[lvl, base_pos] = acc.get((lvl, base_pos), 0.0) + m.values**2 / len(shifts)
    return np.sqrt(sum(acc.values()) if acc else np.zeros(grid.shape))


# -- the table versions against them ---------------------------------------------------

@pytest.mark.parametrize("level, shifted", CASES, ids=IDS)
def test_haar_sums_match_object_walk(level, shifted):
    grid, om, rng = _case(level, shifted, 10 + level)
    b, f = grid.random(rng), grid.random(rng)
    for axis_idx in (0, 1):
        _close(ms.phi_function(f, axis_idx, om).values, walk_phi_function(f, axis_idx, om))
        _close(ms.square_function(f, f"phi{axis_idx + 1}", om).values, walk_sf_phi(f, axis_idx, om))
        _close(com.adapted_phi(b, f, axis_idx, om).values, walk_adapted_phi(b, f, axis_idx, om))


@pytest.mark.parametrize("level", LEVELS)
def test_block_square_functions_match_object_walk(level):
    # the block kinds average over their own shifts: two drawn ones
    grid = TorusGrid.make(level)
    rng = np.random.default_rng(20 + level)
    f = grid.random(rng)
    seed = int(rng.integers(0, 1000))
    for kind, depths in (("block", (1, 0)), ("block", (0, 1)), ("block1", (0, 0)), ("block2", (1, 0))):
        got = ms.square_function(f, kind, depths=depths, shift_samples=2, seed=seed).values
        _close(got, walk_sf_block(f, kind, depths, 2, seed))


def test_block_square_function_full_enumeration_matches_object_walk():
    grid = TorusGrid.make(2)
    f = grid.random(np.random.default_rng(3))
    for kind in ("block", "block1", "block2"):
        _close(ms.square_function(f, kind, depths=(0, 0)).values, walk_sf_block(f, kind, (0, 0), None, 0))
    with pytest.raises(ResolutionError):
        ms.square_function(f, "block1", depths=(-1, 0), shift_samples=1)


@pytest.mark.parametrize("level", LEVELS)
def test_aux_square_functions_match_object_walk(level):
    # both average over shifts of one factor: all of them at L=2
    grid = TorusGrid.make(level)
    rng = np.random.default_rng(30 + level)
    b, f = grid.random(rng), grid.random(rng)
    samples = None if level == 2 else 3
    _close(com.aux_phi1(b, f, samples=samples, seed=5).values, walk_aux_phi1(b, f, samples, 5))
    for depth in (0, 1):
        _close(com.aux_phi2(f, depth, samples=samples, seed=5).values, walk_aux_phi2(f, depth, samples, 5))


@pytest.mark.parametrize("level, shifted", CASES, ids=IDS)
def test_expansions_match_object_test_vectors(level, shifted, monkeypatch):
    # the expansions read their Haar test vectors off `haar_rows`: bit for
    # bit the Haar-function objects' vectors, so the outputs agree exactly
    grid, om, rng = _case(level, shifted, 40 + level)
    b, f = grid.random(rng), grid.random(rng)
    pairs = [(c1, c2) for c1 in all_axis_cubes(grid.axes[0], om.shift1, level - 1)
             for c2 in all_axis_cubes(grid.axes[1], om.shift2, level - 1)]
    pairs = [pairs[i] for i in rng.choice(len(pairs), 6, replace=False)]
    for c in {c for pair in pairs for c in pair}:
        assert com._haar_row(c).tobytes() == axis_haar_vector(HaarFunction(c, (1,))).tobytes()
    runs = {}
    for oracle in (False, True):
        if oracle:
            monkeypatch.setattr(com, "_haar_row", lambda c: axis_haar_vector(HaarFunction(c, (1,))))
        runs[oracle] = [(com.expand_bipar(b, f, c1, c2, om), com.expand_onepar(b, f, c1, c2, 0, om),
                         com.expand_onepar(b, f, c1, c2, 1, om), com.expand_none(b, f, c1, c2))
                        for c1, c2 in pairs]
    assert runs[False] == runs[True]
    for got in runs[False]:
        for out in got:
            assert abs(out["lhs"] - out["rhs"]) <= 1e-10 * max(1.0, abs(out["lhs"]))
    leaf = DyadicCube(grid.axes[0], level, (0,), om.shift1)
    with pytest.raises(ResolutionError):
        com.expand_bipar(b, f, leaf, pairs[0][1], om)


@pytest.mark.parametrize("dims", [(1, 1), (2, 1)])
def test_haar_evaluate_matches_object_vectors(dims):
    grid = TorusGrid.make(3 if dims[0] == 1 else 2, dims)
    for om in (GridShift.zero(grid), sample_shift(grid, np.random.default_rng(7))):
        axis = grid.axes[0]
        for h in haar_functions(axis, om.shift1) + [HaarFunction(c, (0,) * axis.dim)
                                                    for c in all_axis_cubes(axis, om.shift1)]:
            want = axis_haar_vector(h)
            assert haar_evaluate(h, grid, 0).values[:, 0].tobytes() == want.tobytes()
            assert haar_evaluate(h, TorusGrid((grid.axes[1], axis)), 1).values[0].tobytes() == want.tobytes()
        leaf = DyadicCube(axis, axis.levels, (0,) * axis.dim, om.shift1)
        with pytest.raises(ResolutionError):
            haar_evaluate(HaarFunction(leaf, (1,) * axis.dim), grid, 0)


@pytest.mark.parametrize("level, shifted", CASES, ids=IDS)
def test_averaging_read_cubes_match_objects(level, shifted):
    grid, om, _ = _case(level, shifted, 50 + level)
    ad = axis_decomposition(grid.axes[0], om.shift1)
    cubes = ops_cubes(ad.ops)
    for branch in BRANCHES:
        _, places, index, _ = ad.averaging_reads(branch)
        assert places == [(cubes[i].level, cubes[i].pos[0]) for i in index]
        assert all(type(x) is int for place in places for x in place)
