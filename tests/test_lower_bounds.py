"""Median-method lower bounds and the testing-constant search."""

import math

import numpy as np
import pytest

from dyadlab import lower_bounds
from dyadlab.core import (
    DiscreteFunction,
    DyadicCube,
    DyadicRectangle,
    GridShift,
    TorusGrid,
    all_rectangles,
)
from dyadlab.kernels import cell_centers, get_kernel, sign_kernel, tensor_riesz
from dyadlab.lower_bounds import (
    BilinearKernel,
    bmo_lower_bound,
    find_nondegenerate_partner,
    gamma_constant,
    pointwise_chain_check,
    weak_lr_norm,
    weighted_median,
)
from dyadlab.measures import bmo_norm

GRID = TorusGrid.make(3)
ZERO = GridShift.zero(GRID)


def rect(l1, p1, l2, p2):
    return DyadicRectangle(
        DyadicCube(GRID.axes[0], l1, (p1,), ZERO.shift1),
        DyadicCube(GRID.axes[1], l2, (p2,), ZERO.shift2),
    )


def step_symbol(grid=GRID):
    vals = np.ones(grid.shape)
    vals[: grid.shape[0] // 2, :] = -1.0
    return DiscreteFunction(grid, vals)


def log_symbol(grid):
    n1, n2 = grid.shape
    x = (np.arange(n1) + 0.5) / n1
    y = (np.arange(n2) + 0.5) / n2
    d = (np.minimum(np.abs(x - 0.5), 1 - np.abs(x - 0.5))[:, None]
         + np.minimum(np.abs(y - 0.5), 1 - np.abs(y - 0.5))[None, :])
    return DiscreteFunction(grid, np.log(1.0 / (d + 1e-9)))


RIEZ = BilinearKernel(GRID, tensor_riesz(1, 1))


# -- kernels and partners --------------------------------------------------------

def test_kernel_registry():
    k = get_kernel("riesz", i=2, j=1)
    assert k.alpha == 1.0
    assert get_kernel("sign").name == "sign"
    with pytest.raises(KeyError):
        get_kernel("nope")
    for name, opts in (("riesz", {"alpah": 2.0}), ("sign", {"i": 1})):
        with pytest.raises(TypeError):  # an option the kernel does not take
            get_kernel(name, **opts)


def test_size_bound_sampled():
    assert RIEZ.size_bound_ratio() < 8.0


def test_partner_found_at_fine_scale():
    out = find_nondegenerate_partner(RIEZ, rect(3, 1, 3, 0), C0=1.0)
    assert out["min_value"] > 0  # single-signed on the whole triple product
    assert abs(out["sigma"]) == 1.0


def test_partner_no_room_at_top_scale():
    with pytest.raises(ValueError):
        find_nondegenerate_partner(RIEZ, rect(1, 0, 1, 0), C0=2.0)


def test_partner_search_rejects_higher_dim_factors():
    # candidates are runs of cells along one coordinate, which on a 2-d
    # factor are neither cubes nor separated from the rectangle
    grid = TorusGrid.make(3, (2, 1))
    om = GridShift.zero(grid)
    r = DyadicRectangle(DyadicCube(grid.axes[0], 2, (0, 1), om.shift1),
                        DyadicCube(grid.axes[1], 2, (1,), om.shift2))
    K = BilinearKernel(grid, tensor_riesz(1, 1))
    with pytest.raises(NotImplementedError):
        find_nondegenerate_partner(K, r)


def _direct(kernel, x, y, z):
    """The spec evaluated at the cell centres of flat cell triples."""
    c1, c2 = cell_centers(kernel.grid)
    n2 = kernel.grid.shape[1]
    x, y, z = np.broadcast_arrays(x, y, z)
    return kernel.spec(c1[x // n2], c2[x % n2], c1[y // n2], c2[y % n2], c1[z // n2], c2[z % n2])


def _partner_scan(kernel, rect, C0, stride):
    """Reference partner search: a Python scan over candidate starts, one
    kernel point at a time for the scores, candidates by descending
    (|c|, c, o1, o2), the best of the first eight, or of all of them when
    none of those is single-signed."""
    c1, c2 = rect.cube1, rect.cube2
    n1s, n2s = c1.axis.n_side, c2.axis.n_side
    w1, w2 = c1.width_cells, c2.width_cells
    need1, need2 = math.ceil(C0 * w1), math.ceil(C0 * w2)
    if 2 * need1 + 2 * w1 > n1s or 2 * need2 + 2 * w2 > n2s:
        return None
    n2 = kernel.n2
    s1, s2 = c1.start_cells()[0], c2.start_cells()[0]
    y = np.add.outer(c1.cells() * n2, c2.cells()).ravel()
    ymid = y[len(y) // 2]
    candidates = []
    for o1 in range(0, n1s, stride[0]):
        if min((o1 - (s1 + w1)) % n1s, (s1 - (o1 + w1)) % n1s) < need1:
            continue
        for o2 in range(0, n2s, stride[1]):
            if min((o2 - (s2 + w2)) % n2s, (s2 - (o2 + w2)) % n2s) < need2:
                continue
            mid = ((o1 + w1 // 2) % n1s) * n2 + (o2 + w2 // 2) % n2s
            cval = float(_direct(kernel, np.array([mid]), ymid, ymid)[0])
            candidates.append((abs(cval), cval, o1, o2))
    if not candidates:
        return None
    candidates.sort(reverse=True)

    def full_eval(pool):
        best = None
        for _, cval, o1, o2 in pool:
            cells1 = (o1 + np.arange(w1)) % n1s
            cells2 = (o2 + np.arange(w2)) % n2s
            x = np.add.outer(cells1 * n2, cells2).ravel()
            sigma = 1.0 if cval >= 0 else -1.0
            lo = float((sigma * _direct(kernel, x[:, None], y[None, :], y[None, :])).min())
            if best is None or lo > best["min_value"]:
                best = {"cells1": cells1, "cells2": cells2, "sigma": sigma, "min_value": lo}
        return best

    best = full_eval(candidates[:8])
    if best["min_value"] <= 0 and len(candidates) > 8:
        best = full_eval(candidates)
    best["lower_bound_constant"] = best["min_value"] * rect.measure**2
    return best


@pytest.mark.parametrize("L, every, specs, pool_points",
                         [(3, 1, ((1, 1), (2, 1)), 16), (4, 9, ((1, 2),), None)])
def test_partner_search_matches_scan(L, every, specs, pool_points, monkeypatch):
    if pool_points is not None:  # split every candidate pool into several batches
        monkeypatch.setattr(lower_bounds, "_POOL_POINTS", pool_points)
    grid = TorusGrid.make(L)
    rects = [r for r in all_rectangles(grid, GridShift.zero(grid))
             if r.cube1.level and r.cube2.level][::every]
    outcomes = set()
    for spec in (tensor_riesz(i, j) for i, j in specs):
        K = BilinearKernel(grid, spec)
        for C0 in (1.0, 2.0):
            for stride in ((1, 1), (2, 2)):
                for r in rects:
                    want = _partner_scan(K, r, C0, stride)
                    outcomes.add(want is None)
                    if want is None:
                        with pytest.raises(ValueError):
                            find_nondegenerate_partner(K, r, C0, stride)
                        continue
                    got = find_nondegenerate_partner(K, r, C0, stride)
                    assert got.keys() == want.keys()
                    for key, val in want.items():
                        assert np.array_equal(got[key], val), (r, C0, stride, key)
    assert outcomes == {True, False}  # both found and missing partners were checked


def test_partner_memo_returns_fresh_read_only_copies():
    K = BilinearKernel(GRID, tensor_riesz(1, 1))
    r = rect(3, 1, 3, 0)
    first = find_nondegenerate_partner(K, r, 1.0)
    first["sigma"] = 0.0  # the caller's dict is its own
    second = find_nondegenerate_partner(K, r, 1.0, (1, 1))
    assert second is not first and second["sigma"] != 0.0
    assert second.keys() == first.keys()
    assert all(np.array_equal(second[k], v) for k, v in first.items() if k != "sigma")
    with pytest.raises(ValueError):
        second["cells1"][0] = 0
    assert len(K._partners) == 1  # stride None and (1, 1) share one entry
    for _ in range(2):  # a missing partner is remembered and raised again
        with pytest.raises(ValueError):
            find_nondegenerate_partner(K, rect(1, 0, 1, 0), C0=2.0)
    assert len(K._partners) == 2


def _reference_sets(b_cells, rng, extra):
    """Index subsets of a rectangle's cells, drawn one set at a time: the
    sublevel sets at the cell quantiles, then nonempty random subsets."""
    order = np.argsort(b_cells)
    n = len(b_cells)
    sets = [order[:q] for q in (max(1, n // 4), max(1, n // 2), max(1, (3 * n) // 4), n)]
    for _ in range(extra):
        mask = rng.integers(0, 2, n).astype(bool)
        if mask.any():
            sets.append(np.nonzero(mask)[0])
    return sets


def _set_value(kernel, bflat, xcells, Ac, gamma1, gamma2, r):
    """Weak-L^r norm of one set's integrand, summed over that set alone."""
    vol = kernel.grid.cell_volume
    bx = bflat[xcells][:, None, None]
    kv = _direct(kernel, xcells[:, None, None], Ac[None, :, None], Ac[None, None, :])
    g = ((bx - bflat[Ac][None, :, None]) ** gamma1 * (bx - bflat[Ac][None, None, :]) ** gamma2
         * kv).sum(axis=(1, 2)) * vol**2
    return weak_lr_norm(g, vol, r)


def _rect_cells(c1, c2, n2):
    return np.add.outer(np.asarray(c1) * n2, c2).ravel()


@pytest.mark.parametrize("k, g1, g2, r", [(1, 1, 0, 1.0), (1, 0, 1, 0.5), (2, 1, 1, 2.0)])
def test_set_values_match_per_set_sums(k, g1, g2, r):
    b = GRID.random(np.random.default_rng(k))
    bflat = b.values.ravel()
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    checked = 0
    for r_ in all_rectangles(GRID, ZERO):
        if not (r_.cube1.level and r_.cube2.level):
            continue
        try:
            partner = find_nondegenerate_partner(RIEZ, r_, 1.0)
        except ValueError:
            continue
        ycells = _rect_cells(r_.cube1.cells(), r_.cube2.cells(), RIEZ.n2)
        xcells = _rect_cells(partner["cells1"], partner["cells2"], RIEZ.n2)
        masks = lower_bounds._sublevel_sets(bflat[ycells], rng, 6)
        sets = _reference_sets(bflat[ycells], ref_rng, 6)
        assert len(masks) == len(sets)
        got = lower_bounds._set_values(RIEZ, bflat, xcells, ycells, masks, g1, g2, r)
        for mask, A, val in zip(masks, sets, got):
            assert np.array_equal(np.nonzero(mask)[0], np.sort(A))
            want = _set_value(RIEZ, bflat, xcells, ycells[A], g1, g2, r)
            assert abs(val - want) <= 1e-12 * abs(want)
            checked += 1
    assert checked > 100


def _gamma_per_set(kernel, b, k, r, gamma1, gamma2, C0, max_rect_cells, random_subsets, seed):
    """Reference testing-constant search: every set's integrand is built and
    normed on its own."""
    grid = kernel.grid
    rng = np.random.default_rng(seed)
    bflat = b.values.ravel()
    value, searched, witness = 0.0, 0, None
    for rect_ in all_rectangles(grid, GridShift.zero(grid)):
        c1, c2 = rect_.cube1, rect_.cube2
        if c1.level == 0 or c2.level == 0 or c1.width_cells * c2.width_cells > max_rect_cells:
            continue
        partner = _partner_scan(kernel, rect_, C0, (1, 1))
        if partner is None:
            continue
        ycells = _rect_cells(c1.cells(), c2.cells(), kernel.n2)
        xcells = _rect_cells(partner["cells1"], partner["cells2"], kernel.n2)
        for A in _reference_sets(bflat[ycells], rng, random_subsets):
            val = _set_value(kernel, bflat, xcells, ycells[A], gamma1, gamma2, r) \
                / rect_.measure ** (1.0 / r)
            searched += 1
            if val > value:
                value, witness = val, (rect_, len(A))
    return value, searched, witness


@pytest.mark.parametrize("k, g1, g2, r", [(1, 1, 0, 1.0), (1, 0, 1, 0.5), (2, 1, 1, 2.0)])
def test_gamma_batched_matches_per_set(k, g1, g2, r):
    b = log_symbol(GRID)
    got = gamma_constant(RIEZ, b, k, r, g1, g2, 1.0, random_subsets=6, seed=4)
    value, searched, (wrect, size) = _gamma_per_set(RIEZ, b, k, r, g1, g2, 1.0, 64, 6, 4)
    assert abs(got.value - value) <= 1e-12 * value
    assert got.searched == searched
    assert got.witness["rect"] == ((wrect.cube1.level, wrect.cube1.pos[0]),
                                   (wrect.cube2.level, wrect.cube2.pos[0]))
    assert got.witness["set_size"] == size


def test_sign_kernel_trivial_sigma():
    K = BilinearKernel(GRID, sign_kernel(1.0))
    out = find_nondegenerate_partner(K, rect(2, 1, 2, 0), C0=1.0)
    assert out["sigma"] == 1.0
    assert out["min_value"] == 1.0


# -- medians and weak norms ---------------------------------------------------------

def test_weighted_median_small_sets():
    assert weighted_median(np.array([1.0, 2.0, 3.0])) == 2.0
    assert weighted_median(np.array([1.0, 2.0, 3.0, 4.0])) == 2.0  # lower median
    assert weighted_median(np.array([5.0])) == 5.0


def test_median_halves_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(16)
        m = weighted_median(v)
        assert (v >= m).mean() >= 0.5
        assert (v <= m).mean() >= 0.5


def test_weak_lr_norm_indicator():
    # indicator of measure m has weak norm m^{1/r}
    vals = np.zeros(64)
    vals[:16] = 1.0
    m = 16 / 64
    for r in (0.5, 1.0, 2.0):
        assert abs(weak_lr_norm(vals, 1 / 64, r) - m ** (1 / r)) < 1e-12


def test_weak_lr_below_strong_l1():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(64)
    assert weak_lr_norm(v, 1 / 64, 1.0) <= np.abs(v).mean() + 1e-12


# -- the testing constant --------------------------------------------------------------

def test_gamma_zero_for_constant_symbol():
    rep = gamma_constant(RIEZ, GRID.constant(3.0), 1, 1.0, 1, 0, 1.0, random_subsets=4)
    assert rep.value == 0.0


def test_gamma_positive_for_step_symbol():
    rep = gamma_constant(RIEZ, step_symbol(), 1, 1.0, 1, 0, 1.0, random_subsets=4)
    assert rep.value > 0.0
    assert rep.witness["set_size"] >= 1


def test_gamma_monotone_in_budget():
    b = step_symbol()
    small = gamma_constant(RIEZ, b, 1, 1.0, 1, 0, 1.0, random_subsets=2, seed=5)
    # a larger budget re-runs the same deterministic sets plus more
    big = gamma_constant(RIEZ, b, 1, 1.0, 1, 0, 1.0, random_subsets=16, seed=5)
    assert big.value >= small.value - 1e-15
    assert big.searched > small.searched


def test_gamma_exponent_validation():
    with pytest.raises(ValueError):
        gamma_constant(RIEZ, step_symbol(), 2, 1.0, 1, 0, 1.0)
    with pytest.raises(ValueError):
        gamma_constant(RIEZ, DiscreteFunction(GRID, (1 + 1j) * np.ones(GRID.shape)), 1, 1.0, 1, 0)


# -- chain and certified bound ------------------------------------------------------------

def test_pointwise_chain_on_witnesses():
    b = step_symbol()
    for (k, g1, g2) in ((1, 1, 0), (1, 0, 1), (2, 1, 1)):
        out = pointwise_chain_check(RIEZ, b, rect(3, 5, 3, 2), 1.0, k, g1, g2)
        assert out["cells_ok"] == out["cells_checked"]
        assert out["half_high"] >= 0.5 and out["half_low"] >= 0.5


def test_bmo_lower_bound_zero_symbol():
    out = bmo_lower_bound(RIEZ, GRID.constant(1.0), 1, 1.0, 1, 0, 1.0,
                          max_rect_cells=8)
    assert out["oscillation"] == 0.0
    assert out["ratio"] == 0.0


def test_bmo_lower_bound_ratio_band_under_refinement():
    ratios = {}
    for L in (3, 4):
        grid = TorusGrid.make(L)
        K = BilinearKernel(grid, tensor_riesz(1, 1))
        b = log_symbol(grid)
        out = bmo_lower_bound(K, b, 1, 1.0, 1, 0, 1.0, max_rect_cells=8,
                              seed=1)
        ratios[L] = out["ratio"]
        assert out["positive_partners"] > 0
    # frozen band: the certified ratio stays within a factor of four
    assert 0.02 < ratios[3] < 50.0
    assert 0.25 < ratios[4] / ratios[3] < 4.0


def test_oscillation_matches_independent_norm():
    b = log_symbol(GRID)
    out = bmo_lower_bound(RIEZ, b, 1, 1.0, 1, 0, 1.0, max_rect_cells=8)
    assert abs(out["oscillation"] - bmo_norm(b, "little")) < 1e-12


def test_riesz_nondegeneracy_constant_stable_across_scales():
    # the normalised lower constant |K| |R|^2 is scale invariant wherever a
    # single-signed partner fits (the finest scales of each resolution)
    consts = []
    for L, lvl in ((3, 3), (4, 3), (4, 4)):
        grid = TorusGrid.make(L)
        om = GridShift.zero(grid)
        r = DyadicRectangle(
            DyadicCube(grid.axes[0], lvl, (1,), om.shift1),
            DyadicCube(grid.axes[1], lvl, (0,), om.shift2),
        )
        out = find_nondegenerate_partner(BilinearKernel(grid, tensor_riesz(1, 1)), r, C0=1.0)
        assert out["min_value"] > 0
        consts.append(out["min_value"] * r.measure ** 2)
    assert max(consts) / min(consts) < 8.0
