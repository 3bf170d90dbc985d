"""Exact-identity tests for the lattice/Haar/martingale layer."""

import numpy as np
import pytest

from dyadlab.core import (
    Axis,
    AxisShift,
    DiscreteFunction,
    DyadicCube,
    DyadicRectangle,
    GridShift,
    HaarFunction,
    ResolutionError,
    TorusGrid,
    axis_project,
    classify_goodness,
    cube_goodness,
    cube_masks,
    enumerate_axis_shifts,
    enumerate_shifts,
    expectation_over_shifts,
    goodness_fraction,
    haar_coefficients,
    haar_evaluate,
    haar_rows,
    level_rows,
    martingale_block,
    martingale_difference,
    sample_axis_shift,
    sample_shift,
    truncated_projection,
)

from haar_oracle import (
    all_axis_cubes,
    all_rectangles,
    axis_cube_indicator,
    axis_cubes,
    axis_haar_vector,
    enumerated_goodness_fraction,
    object_goodness,
    object_rows,
)

TOL = 1e-12


def _grid(levels=3):
    return TorusGrid.make(levels)


def _rand_f(grid, seed=0):
    return grid.random(np.random.default_rng(seed))


# -- Haar functions ---------------------------------------------------------

def test_haar_top_interval_values():
    # I=[0,1), signature 1, d=1: +1 on [0,1/2), -1 on [1/2,1)
    grid = _grid(2)
    cube = DyadicCube(grid.axes[0], 0, (0,), AxisShift.zero(grid.axes[0]))
    vec = axis_haar_vector(HaarFunction(cube, (1,)))
    assert np.allclose(vec, [1.0, 1.0, -1.0, -1.0])


def test_haar_noncancellative_value():
    # I=[0,1/2): |I|^{-1/2} = sqrt(2) on the cube, 0 elsewhere
    grid = _grid(2)
    cube = DyadicCube(grid.axes[0], 1, (0,), AxisShift.zero(grid.axes[0]))
    vec = axis_haar_vector(HaarFunction(cube, (0,)))
    assert np.allclose(vec, [np.sqrt(2), np.sqrt(2), 0.0, 0.0])


def test_haar_normalised_and_mean_zero_on_random_cubes():
    # direct summation oracle over every cube of a shifted lattice
    axis = Axis(1, 4)
    rng = np.random.default_rng(7)
    for shift in [AxisShift.zero(axis)] + [
        s for _, s in zip(range(3), _shift_stream(axis, rng))
    ]:
        for level in range(axis.levels):
            for cube in axis_cubes(axis, level, shift):
                vec = axis_haar_vector(HaarFunction(cube, (1,)))
                assert abs((vec**2).sum() * axis.cell_volume - 1.0) < TOL
                assert abs(vec.sum() * axis.cell_volume) < TOL


def _shift_stream(axis, rng):
    from dyadlab.core import sample_axis_shift

    while True:
        yield sample_axis_shift(axis, rng)


def test_haar_resolution_error():
    axis = Axis(1, 2)
    cube = DyadicCube(axis, 2, (0,), AxisShift.zero(axis))
    with pytest.raises(ResolutionError):
        axis_haar_vector(HaarFunction(cube, (1,)))


@pytest.mark.parametrize("dims", [(1, 1), (2, 1)])
@pytest.mark.parametrize("levels", [1, 2, 3, 4, 5])
def test_mask_tables_match_object_rows(levels, dims):
    # bit for bit, on the zero shift and on random shifts of both factors
    grid = TorusGrid.make(levels, dims)
    rng = np.random.default_rng(10 * levels + dims[0])
    for om in [GridShift.zero(grid)] + [sample_shift(grid, rng) for _ in range(3)]:
        for axis, shift in zip(grid.axes, (om.shift1, om.shift2)):
            rows, want = haar_rows(axis, shift), object_rows(axis, shift)
            assert rows.shape == want.shape and rows.tobytes() == want.tobytes()
            masks = cube_masks(axis, shift)
            cubes = list(all_axis_cubes(axis, shift))
            assert masks.shape == (len(cubes), axis.n_cells)
            for mask, c in zip(masks, cubes):
                assert np.array_equal(np.flatnonzero(mask), np.sort(c.cells()))
            assert not rows.flags.writeable and not masks.flags.writeable


def _refuse_cube_objects(monkeypatch):
    """Make building a cube or Haar-function object, or reading a cube's
    cells, raise; and empty the package's caches, so that nothing built
    earlier hides a walk."""
    from dyadlab import commutators, core, measures, model_ops, representation

    def refuse(*args, **kwargs):
        raise AssertionError("a lattice was walked as cube objects")

    monkeypatch.setattr(core.DyadicCube, "__post_init__", refuse)
    monkeypatch.setattr(core.DyadicCube, "cells", refuse)
    monkeypatch.setattr(core.HaarFunction, "__post_init__", refuse)
    for module in (core, measures, model_ops, commutators, representation):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def test_row_tables_build_no_cube_objects(monkeypatch):
    from dyadlab.model_ops import AxisOps

    grids = [TorusGrid.make(3), TorusGrid.make(2, (2, 1))]
    shifts = [sample_shift(g, np.random.default_rng(31)) for g in grids]
    _refuse_cube_objects(monkeypatch)
    for grid, om in zip(grids, shifts):
        for axis, shift in zip(grid.axes, (om.shift1, om.shift2)):
            haar_rows(axis, shift)
            if axis.dim == 1:
                ops = AxisOps(axis, shift)
                ops.descendant_rows(np.array([0, 1, 1]), np.array([0, 0, 1]), 1)
        haar_coefficients(grid.random(np.random.default_rng(0)), om)


@pytest.mark.parametrize("suite", ["weighted", "commutator", "duality", "mixednorm", "representation",
                                   "coefficients", "identity", "lowerbound"])
def test_suites_walk_no_cube_objects(monkeypatch, suite):
    # the identity and lowerbound suites build cubes for the public API that
    # takes them (two per draw for the expansions, a witness rectangle for
    # the median chain); every other suite walks its lattices by the tables
    from dyadlab.harness import ExperimentConfig, run_suite

    _refuse_cube_objects(monkeypatch)
    config = ExperimentConfig(suite=suite, level=2, seed=7)
    if suite in ("identity", "lowerbound"):
        with pytest.raises(AssertionError, match="cube objects"):
            run_suite(config)
    else:
        run_suite(config)


def test_decompose_export_walks_no_cube_objects(monkeypatch, tmp_path):
    from dyadlab import cli

    _refuse_cube_objects(monkeypatch)
    argv = ["--grid-level", "2", "--seed", "3", "--out", str(tmp_path), "decompose", "--random-shift",
            "--export-families"]
    assert cli.main(argv) == 0


def _rotated(table, axis, shift, per_cube, levels):
    """A per-cube table of the unshifted lattice (per_cube rows per cube of
    levels 0..levels-1, in cube index order) as the shifted lattice's: the
    cells rolled by offset_cells(0), then the cubes of each level k rotated
    by ((offset_cells(k) - offset_cells(0)) mod n) >> (L - k), per
    coordinate."""
    d, n, L = axis.dim, axis.n_side, axis.levels
    o0 = np.array(shift.offset_cells(0))
    # flat cells run with the first coordinate fastest: it is the last array axis
    cells = np.roll(table.reshape((len(table),) + (n,) * d), tuple(o0), axis=tuple(range(d, 0, -1)))
    out = []
    for k in range(levels):
        rows = level_rows(axis, k)
        block = cells[per_cube * rows.start:per_cube * rows.stop].reshape((1 << k,) * d + (per_cube,) + (n,) * d)
        delta = ((np.array(shift.offset_cells(k)) - o0) % n) >> (L - k)
        out.append(np.roll(block, tuple(-delta), axis=tuple(range(d))).reshape(-1, n**d))
    return np.concatenate(out)


@pytest.mark.parametrize("dim, levels", [(1, L) for L in range(1, 6)] + [(2, L) for L in range(1, 4)])
def test_shifted_lattice_is_the_unshifted_one_rotated(dim, levels):
    # the identity behind goodness_fraction: no sign flip is needed
    axis = Axis(dim, levels)
    zero = AxisShift.zero(axis)
    masks0, haar0 = cube_masks(axis, zero), haar_rows(axis, zero)
    for shift in enumerate_axis_shifts(axis):
        assert np.array_equal(cube_masks(axis, shift), _rotated(masks0, axis, shift, 1, levels + 1))
        haar = haar_rows(axis, shift)
        assert np.array_equal(haar[0], haar0[0])
        assert np.array_equal(haar[1:], _rotated(haar0[1:], axis, shift, (1 << dim) - 1, levels))


def test_haar_orthogonality_within_grid():
    axis = Axis(1, 3)
    basis = haar_rows(axis, AxisShift.zero(axis))
    gram = basis @ basis.T * axis.cell_volume
    assert np.abs(gram - np.eye(len(basis))).max() < TOL


def test_haar_evaluate_support_on_product_grid():
    grid = _grid(3)
    cube = DyadicCube(grid.axes[0], 1, (1,), AxisShift.zero(grid.axes[0]))
    h = haar_evaluate(HaarFunction(cube, (1,)), grid, axis=0)
    outside = np.setdiff1d(np.arange(grid.shape[0]), cube.cells())
    assert np.all(h.values[outside, :] == 0)


# -- martingale differences ---------------------------------------------------

def test_martingale_difference_constant_is_zero():
    grid = _grid(3)
    f = grid.constant(3.7)
    cube = DyadicCube(grid.axes[0], 1, (0,), AxisShift.zero(grid.axes[0]))
    d = martingale_difference(f, cube, 0)
    assert np.abs(d.values).max() < TOL


def test_martingale_difference_haar_eigenfunction():
    grid = _grid(3)
    cube = DyadicCube(grid.axes[0], 1, (1,), AxisShift.zero(grid.axes[0]))
    h = haar_evaluate(HaarFunction(cube, (1,)), grid, axis=0)
    d = martingale_difference(h, cube, 0)
    assert np.abs(d.values - h.values).max() < TOL


def test_martingale_difference_brute_force_formula():
    # children-average formula evaluated independently
    grid = _grid(3)
    f = _rand_f(grid, 3)
    shift = sample_shift(grid, np.random.default_rng(5))
    cube = DyadicCube(grid.axes[0], 1, (0,), shift.shift1)
    d = martingale_difference(f, cube, 0)
    expect = np.zeros_like(f.values)
    parent_avg = f.values[cube.cells(), :].mean(axis=0)
    for child in cube.children():
        expect[child.cells(), :] = f.values[child.cells(), :].mean(axis=0) - parent_avg
    assert np.abs(d.values - expect).max() < TOL
    # zero integral over the cube
    assert np.abs(d.values[cube.cells(), :].sum(axis=0)).max() < TOL


def test_martingale_difference_equals_haar_expansion():
    grid = _grid(3)
    f = _rand_f(grid, 11)
    cube = DyadicCube(grid.axes[0], 2, (3,), AxisShift.zero(grid.axes[0]))
    d = martingale_difference(f, cube, 0)
    vec = axis_haar_vector(HaarFunction(cube, (1,)))
    coeff = f.pair_axis(vec, 0)
    assert np.abs(d.values - np.outer(vec, coeff)).max() < TOL


def test_martingale_difference_no_children_error():
    grid = _grid(2)
    cube = DyadicCube(grid.axes[0], 2, (0,), AxisShift.zero(grid.axes[0]))
    with pytest.raises(ResolutionError):
        martingale_difference(_rand_f(grid), cube, 0)


def test_martingale_block_depth_zero():
    grid = _grid(3)
    f = _rand_f(grid, 4)
    cube = DyadicCube(grid.axes[1], 1, (0,), AxisShift.zero(grid.axes[1]))
    b = martingale_block(f, cube, 0, 1)
    d = martingale_difference(f, cube, 1)
    assert np.abs(b.values - d.values).max() < TOL


def test_martingale_block_telescoping():
    # sum of blocks plus the average reproduces f on the cube
    grid = _grid(3)
    f = _rand_f(grid, 9)
    cube = DyadicCube(grid.axes[0], 1, (1,), AxisShift.zero(grid.axes[0]))
    total = np.zeros_like(f.values)
    for i in range(grid.axes[0].levels - cube.level):
        total += martingale_block(f, cube, i, 0).values
    cells = cube.cells()
    total[cells, :] += f.values[cells, :].mean(axis=0)[None, :]
    expect = np.zeros_like(f.values)
    expect[cells, :] = f.values[cells, :]
    assert np.abs(total - expect).max() < TOL


def test_martingale_block_haar_eigenfunction():
    grid = _grid(3)
    shift = AxisShift.zero(grid.axes[0])
    leaf = DyadicCube(grid.axes[0], 2, (2,), shift)
    h = haar_evaluate(HaarFunction(leaf, (1,)), grid, axis=0)
    K = leaf.ancestor(2)
    b = martingale_block(h, K, 2, 0)
    assert np.abs(b.values - h.values).max() < TOL


def test_martingale_block_depth_overflow():
    grid = _grid(2)
    cube = DyadicCube(grid.axes[0], 1, (0,), AxisShift.zero(grid.axes[0]))
    with pytest.raises(ResolutionError):
        martingale_block(_rand_f(grid), cube, 1, 0)


# -- truncated projection and the collapse identity ---------------------------

def test_truncated_projection_identity_and_global_average():
    grid = _grid(3)
    f = _rand_f(grid, 2)
    om = GridShift.zero(grid)
    assert np.abs(truncated_projection(f, (3, 3), om).values - f.values).max() < TOL
    flat = truncated_projection(f, (0, 0), om)
    assert np.abs(flat.values - f.integral()).max() < TOL


def test_collapse_identity_random_shift():
    # projection at scale (j1, j2) equals the double sum of rectangle
    # differences over coarser scales, with the top level carrying both the
    # difference and the average
    grid = _grid(3)
    f = _rand_f(grid, 21)
    rng = np.random.default_rng(8)
    for _ in range(3):
        om = sample_shift(grid, rng)
        for j1, j2 in [(3, 3), (2, 3), (3, 1), (2, 2)]:
            proj = truncated_projection(f, (j1, j2), om)
            acc = np.zeros_like(f.values)
            for l1 in range(j1):
                g = martingale_difference_level(f, l1, 0, om.shift1)
                for l2 in range(j2):
                    acc += martingale_difference_level(g, l2, 1, om.shift2).values
                acc += axis_project(g, 0, 1, om.shift2).values
            g = axis_project(f, 0, 0, om.shift1)
            for l2 in range(j2):
                acc += martingale_difference_level(g, l2, 1, om.shift2).values
            acc += axis_project(g, 0, 1, om.shift2).values
            assert np.abs(acc - proj.values).max() < 1e-12


def martingale_difference_level(f, level, axis, shift):
    out = np.zeros_like(f.values)
    for cube in axis_cubes(f.grid.axes[axis], level, shift):
        out += martingale_difference(f, cube, axis).values
    return DiscreteFunction(f.grid, out)


def test_biparameter_parseval_every_shift():
    grid = _grid(2)
    f = _rand_f(grid, 13)
    for om in enumerate_shifts(grid):
        C = haar_coefficients(f, om)
        assert abs((C**2).sum() - f.pair(f)) < 1e-10 * max(1.0, f.pair(f))


# -- goodness -----------------------------------------------------------------

def test_goodness_gamma_value():
    # default exponent for one dimension and Hoelder exponent 1 is 1/6
    assert abs(1.0 / (2 * (2 * 1 + 1)) - 1 / 6) < 1e-15


def test_goodness_top_cube_good():
    axis = Axis(1, 3)
    cube = DyadicCube(axis, 0, (0,), AxisShift.zero(axis))
    assert classify_goodness(cube, r=2)


def test_goodness_brute_force_scan():
    # exhaustive agreement with a direct distance scan, L=4, r=2
    axis = Axis(1, 4)
    rng = np.random.default_rng(3)
    from dyadlab.core import sample_axis_shift

    for _ in range(4):
        shift = sample_axis_shift(axis, rng)
        for level in range(axis.levels + 1):
            for cube in axis_cubes(axis, level, shift):
                got = classify_goodness(cube, r=2, gamma=0.6)
                expect = _brute_good(cube, 2, 0.6)
                assert got == expect


def _brute_good(cube, r, gamma):
    axis = cube.axis
    n = axis.n_side
    lo = cube.start_cells()[0]
    hi = lo + cube.width_cells  # may wrap
    pts = [(lo + k) % n for k in range(cube.width_cells + 1)]
    for coarse in range(1, cube.level - r + 1):
        spacing = 1 << (axis.levels - coarse)
        off = cube.shift.offset_cells(coarse)[0]
        planes = [(off + p * spacing) % n for p in range(1 << coarse)]
        dmin = min(
            min((pt - pl) % n, (pl - pt) % n) for pt in pts for pl in planes
        )
        # interior crossing makes the distance zero
        for pl in planes:
            if (pl - lo) % n < cube.width_cells:
                dmin = 0
        if dmin / n <= cube.side ** gamma * (2.0 ** -coarse) ** (1 - gamma):
            return False
    return True


def test_goodness_fraction_matches_enumeration_and_position_invariant():
    axis = Axis(1, 5)
    fractions = [enumerated_goodness_fraction(axis, 4, (p,), r=3, gamma=0.6) for p in range(16)]
    assert all(abs(fr - 0.25) < 1e-12 for fr in fractions)
    assert goodness_fraction(axis, 4, r=3, gamma=0.6) == 0.25


GAMMAS = (None, 0.25, 0.6)


@pytest.mark.parametrize("dim, levels", [(1, L) for L in range(1, 8)] + [(2, L) for L in range(1, 4)])
def test_goodness_fraction_is_level_mean_of_enumeration(dim, levels):
    # the level mean of the unshifted lattice's goodness equals, bit for bit,
    # the enumeration over all shifts of the cube at the origin
    axis = Axis(dim, levels)
    for level in range(levels + 1):
        for r in (1, 2, 3):
            for gamma in GAMMAS:
                want = enumerated_goodness_fraction(axis, level, r=r, gamma=gamma)
                assert goodness_fraction(axis, level, r=r, gamma=gamma) == want, (level, r, gamma)
    for level in (-1, levels + 1):
        with pytest.raises(ResolutionError):
            goodness_fraction(axis, level)


@pytest.mark.parametrize("dim, levels", [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3)])
def test_goodness_table_matches_object_scan(dim, levels):
    # cube_goodness and classify_goodness against the per-cube distance scan,
    # on every shift (a sample of them at L=5)
    axis = Axis(dim, levels)
    shifts = list(enumerate_axis_shifts(axis))
    if len(shifts) > 16:
        shifts = [shifts[i] for i in np.random.default_rng(levels).choice(len(shifts), 16, replace=False)]
    for shift in shifts:
        cubes = list(all_axis_cubes(axis, shift))
        for r in (1, 2, 3):
            for gamma in GAMMAS:
                good = cube_goodness(axis, shift, r, gamma)
                want = [object_goodness(c, r, gamma) for c in cubes]
                assert good.dtype == bool and good.tolist() == want
                assert [classify_goodness(c, r, gamma) for c in cubes] == want
                assert not good.flags.writeable
    with pytest.raises(ValueError):
        cube_goodness(axis, shifts[0], 0)


def test_goodness_all_good_at_desk_scale_defaults():
    # with the physical exponent 1/6 and r=2 nothing at L<=4 has a qualifying
    # coarser cube close enough; enumeration confirms probability one
    axis = Axis(1, 3)
    assert goodness_fraction(axis, 2, r=2) == 1.0


# -- random shifts -------------------------------------------------------------

def test_expectation_constant_estimator():
    grid = _grid(2)
    mean, err = expectation_over_shifts(grid, lambda om: 1.0, 16, seed=1)
    assert mean == 1.0 and err == 0.0


def test_expectation_reproducible():
    grid = _grid(3)
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    s1 = [sample_shift(grid, rng1) for _ in range(5)]
    s2 = [sample_shift(grid, rng2) for _ in range(5)]
    assert s1 == s2


@pytest.mark.parametrize("levels, dim", [(3, 1), (4, 1), (5, 2), (2, 2), (7, 1)])
def test_sample_axis_shift_matches_per_level_draws(levels, dim):
    # one draw for all levels takes the same bits from the stream as one
    # draw per level, and leaves the generator in the same state
    axis = Axis(dim, levels)
    for seed in range(200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        want = tuple(tuple(int(b) for b in ref.integers(0, 2, size=dim)) for _ in range(levels))
        assert sample_axis_shift(axis, rng).bits == want
        assert rng.bit_generator.state == ref.bit_generator.state


def test_zero_shift_built_once_per_grid():
    for grid in (_grid(2), _grid(3), TorusGrid.make(3, (2, 1))):
        zero = GridShift.zero(grid)
        assert zero == GridShift(AxisShift.zero(grid.axes[0]), AxisShift.zero(grid.axes[1]))
        assert GridShift.zero(TorusGrid(grid.axes)) is zero  # an equal grid shares it
    assert GridShift.zero(_grid(2)) != GridShift.zero(_grid(3))


def test_goodness_indicator_expectation_matches_enumeration():
    axis = Axis(1, 3)
    grid = TorusGrid((axis, Axis(1, 1)))
    exact = goodness_fraction(axis, 2, r=1, gamma=0.9)

    def estimator(om):
        cube = DyadicCube(axis, 2, (0,), om.shift1)
        return float(classify_goodness(cube, r=1, gamma=0.9))

    # full enumeration through the estimator interface
    vals = [estimator(om) for om in enumerate_shifts(grid)]
    assert abs(np.mean(vals) - exact) < 1e-12


# -- cubes, rectangles, serialization ------------------------------------------

def test_ancestor_chain_and_measure():
    axis = Axis(1, 4)
    from dyadlab.core import sample_axis_shift

    shift = sample_axis_shift(axis, np.random.default_rng(0))
    cube = DyadicCube(axis, 3, (5,), shift)
    for k in range(4):
        anc = cube.ancestor(k)
        assert anc.side == cube.side * 2**k
        assert anc.contains(cube)
    kids = cube.ancestor(1).children()
    assert cube in kids
    assert abs(sum(c.measure for c in kids) - cube.ancestor(1).measure) < TOL


def test_rectangle_measure_and_membership():
    grid = _grid(2)
    om = GridShift.zero(grid)
    r = DyadicRectangle(
        DyadicCube(grid.axes[0], 1, (0,), om.shift1),
        DyadicCube(grid.axes[1], 2, (3,), om.shift2),
    )
    assert abs(r.measure - 0.5 * 0.25) < TOL
    idx = r.index()
    assert idx[0][0, 0] in r.cube1.cells() and idx[1][0, 0] in r.cube2.cells()


def test_cube_cells_come_from_one_read_only_table():
    from dyadlab.core import _cube_table

    axis = Axis(2, 3)
    bits = ((1, 0), (0, 1), (1, 1))
    a = DyadicCube(axis, 2, (1, 3), AxisShift(axis, bits))
    b = DyadicCube(axis, 2, (2, 0), AxisShift(axis, bits))
    with pytest.raises(ValueError):
        a.cells()[0] = 0
    assert _cube_table(axis, 2, a.shift) is _cube_table(axis, 2, b.shift)
    assert a.cells().base is b.cells().base


@pytest.mark.parametrize("levels, dims", [(2, (1, 1)), (3, (1, 1)), (2, (2, 1))])
def test_rectangle_ids_follow_all_rectangles(levels, dims):
    # id k is the k-th rectangle of all_rectangles: same cells, same measure,
    # and a shifted copy keeps its id
    from dyadlab.core import rect_table

    grid = TorusGrid.make(levels, dims)
    rng = np.random.default_rng(levels)
    for om in (GridShift.zero(grid), sample_shift(grid, rng)):
        table = rect_table(grid, om)
        rects = list(all_rectangles(grid, om))
        assert len(table.masks1) * len(table.masks2) == len(rects)
        masks = table.masks(np.arange(len(rects)))
        for mask, rect in zip(masks, rects):
            want = np.zeros(grid.shape, dtype=bool)
            want[rect.index()] = True
            assert np.array_equal(mask.reshape(grid.shape), want)
            assert mask.sum() * grid.cell_volume == rect.measure
        cubes1 = list(all_axis_cubes(grid.axes[0], om.shift1))
        cubes2 = list(all_axis_cubes(grid.axes[1], om.shift2))
        i1, i2 = np.array([0, 2, 3]), np.array([1, len(cubes2) - 1])
        want = [DyadicRectangle(cubes1[a], cubes2[b]) for a in i1 for b in i2]
        assert [rects[k] for k in table.ids(i1, i2)] == want
    with pytest.raises(ValueError):
        table.masks1[0, 0] = False


@pytest.mark.parametrize("dim, levels", [(1, 3), (2, 2)])
def test_window_tables_are_the_cubes_of_all_shifts(dim, levels):
    from dyadlab.core import cell_tables

    axis = Axis(dim, levels)
    for level, windows in enumerate(cell_tables(axis, None)):
        cubes = {tuple(sorted(c.cells())) for s in enumerate_axis_shifts(axis)
                 for c in axis_cubes(axis, level, s)}
        assert {tuple(sorted(row)) for row in windows} == cubes


def test_shifted_cube_indicator_exactly_representable():
    axis = Axis(1, 3)
    from dyadlab.core import sample_axis_shift

    shift = sample_axis_shift(axis, np.random.default_rng(10))
    cube = DyadicCube(axis, 1, (1,), shift)
    ind = axis_cube_indicator(cube)
    assert set(np.unique(ind)) <= {0.0, 1.0}
    assert abs(ind.sum() * axis.cell_volume - cube.measure) < TOL


def test_field_serialization_roundtrip(tmp_path):
    grid = _grid(3)
    f = _rand_f(grid, 77)
    p = tmp_path / "f.dyf"
    with open(p, "wb") as fp:
        f.dump(fp)
    with open(p, "rb") as fp:
        g = DiscreteFunction.load(fp)
    assert np.array_equal(f.values, g.values)
    assert g.grid.axes[0].levels == 3


def test_goodness_position_invariance_all_levels_L3():
    axis = Axis(1, 3)
    for level in (1, 2):
        for r, g in ((1, 0.5), (2, 0.9)):
            fractions = {enumerated_goodness_fraction(axis, level, (p,), r=r, gamma=g)
                         for p in range(1 << level)}
            assert fractions == {goodness_fraction(axis, level, r=r, gamma=g)}
