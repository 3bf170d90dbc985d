"""Weights, norms, BMO scales, maximal and square functions."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.core import (
    AxisShift,
    DiscreteFunction,
    DyadicCube,
    DyadicRectangle,
    GridShift,
    HaarFunction,
    TorusGrid,
    all_rectangles,
    axis_cubes,
    axis_haar_vector,
    enumerate_axis_shifts,
    enumerate_shifts,
    outer,
    rect_table,
    sample_shift,
)
from dyadlab.measures import (
    Weight,
    _bit_containment,
    _bit_rows,
    _lower_levels,
    ainfty_characteristic,
    ap_characteristic,
    bmo_norm,
    lower_sf_check,
    lp_norm,
    maximal_function,
    mixed_norm,
    phi_function,
    sequence_product_bmo,
    square_function,
)

from haar_oracle import haar_functions, object_rows

GRID = TorusGrid.make(3)
RNG = np.random.default_rng(1234)


def rand_f(seed=0, grid=GRID):
    return grid.random(np.random.default_rng(seed))


def step_weight(t, grid=GRID, axis=0):
    vals = np.ones(grid.shape)
    half = grid.shape[axis] // 2
    if axis == 0:
        vals[:half, :] = t
    else:
        vals[:, :half] = t
    return Weight(DiscreteFunction(grid, vals))


# -- A_p ------------------------------------------------------------------------

def test_ap_constant_weight_is_one():
    w = Weight.ones(GRID)
    for p in (4 / 3, 2.0, 4.0):
        assert abs(ap_characteristic(w, p) - 1.0) < 1e-12


def test_ap_step_weight_enumeration_oracle():
    w = step_weight(2.0)
    # enumerate every rectangle directly
    dual = w.dual(2.0).values
    best = 0.0
    for rect in all_rectangles(GRID, GridShift.zero(GRID)):
        idx = rect.index()
        best = max(best, w.values[idx].mean() * dual[idx].mean())
    assert abs(ap_characteristic(w, 2.0) - best) < 1e-12
    assert abs(best - (2 + 1) ** 2 / (4 * 2)) < 1e-12


def test_ap_dominates_slice_characteristics():
    w = step_weight(7.0, axis=0)
    full = ap_characteristic(w, 2.0)
    assert full + 1e-12 >= ap_characteristic(w, 2.0, scope="axis1")
    assert full + 1e-12 >= ap_characteristic(w, 2.0, scope="axis2")


def test_ap_rejects_bad_input():
    with pytest.raises(ValueError):
        Weight(GRID.constant(0.0))
    with pytest.raises(ValueError):
        ap_characteristic(Weight.ones(GRID), 1.0)


def test_ap_is_one_iff_constant_small_grid():
    grid = TorusGrid.make(2)
    assert ap_characteristic(Weight.ones(grid), 2.0) == 1.0
    vals = np.ones(grid.shape)
    vals[0, 0] = 1.5
    assert ap_characteristic(Weight(DiscreteFunction(grid, vals)), 2.0) > 1.0 + 1e-9


# -- A_infty ---------------------------------------------------------------------

def test_ainfty_constant():
    assert abs(ainfty_characteristic(Weight.ones(GRID)) - 1.0) < 1e-12


def test_ainfty_below_ap():
    for t in (2.0, 5.0, 20.0):
        w = step_weight(t)
        assert ainfty_characteristic(w) <= ap_characteristic(w, 2.0) + 1e-12


def test_ainfty_monotone_in_lacunary_parameter():
    vals = [ainfty_characteristic(step_weight(t)) for t in (2.0, 4.0, 8.0, 16.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# -- norms ------------------------------------------------------------------------

def test_lp_norm_of_one_is_one():
    f = GRID.constant(1.0)
    for p in (0.5, 1.0, 2.0, 7.3, math.inf):
        assert abs(lp_norm(f, p) - 1.0) < 1e-12


def test_mixed_norm_equal_exponents_matches_plain():
    f = rand_f(5)
    for p in (2 / 3, 1.0, 2.0, 4.0):
        assert abs(mixed_norm(f, (p, p)) - lp_norm(f, p)) < 1e-12


def test_mixed_norm_slice_oracle():
    f = rand_f(6)
    p1, p2 = 3.0, 1.5
    vol1 = GRID.axes[0].cell_volume
    vol2 = GRID.axes[1].cell_volume
    inner = ((np.abs(f.values) ** p2).sum(axis=1) * vol2) ** (1 / p2)
    expect = ((inner**p1).sum() * vol1) ** (1 / p1)
    assert abs(mixed_norm(f, (p1, p2)) - expect) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    lam=st.floats(-4, 4, allow_nan=False),
    seed=st.integers(0, 10_000),
    p=st.sampled_from([0.5, 2 / 3, 1.0, 2.0, 4.0]),
)
def test_norm_homogeneity(lam, seed, p):
    f = rand_f(seed)
    assert abs(lp_norm(lam * f, p) - abs(lam) * lp_norm(f, p)) < 1e-9 * (1 + abs(lam))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.sampled_from([1.0, 2.0, 4.0]))
def test_triangle_inequality_banach_range(seed, p):
    f, g = rand_f(seed), rand_f(seed + 1)
    assert lp_norm(f + g, p) <= lp_norm(f, p) + lp_norm(g, p) + 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), r=st.sampled_from([0.5, 2 / 3, 0.9]))
def test_r_triangle_inequality_quasi_range(seed, r):
    f, g = rand_f(seed), rand_f(seed + 1)
    assert lp_norm(f + g, r) ** r <= lp_norm(f, r) ** r + lp_norm(g, r) ** r + 1e-10


# -- BMO family -------------------------------------------------------------------

def test_bmo_zero_for_constants():
    b = GRID.constant(2.5)
    assert bmo_norm(b, "little") == 0.0
    assert bmo_norm(b, "axis1") == 0.0
    assert bmo_norm(b, "product").value == 0.0


def test_product_bmo_single_haar_pair():
    c1 = DyadicCube(GRID.axes[0], 1, (0,), AxisShift.zero(GRID.axes[0]))
    c2 = DyadicCube(GRID.axes[1], 1, (1,), AxisShift.zero(GRID.axes[1]))
    b = outer(GRID, axis_haar_vector(HaarFunction(c1, (1,))), axis_haar_vector(HaarFunction(c2, (1,))))
    rep = bmo_norm(b, "product")
    expect = (c1.measure * c2.measure) ** -0.5  # one unit coefficient on R
    assert abs(rep.single_rectangle - expect) < 1e-10
    assert rep.family_value + 1e-12 >= rep.single_rectangle


def test_little_bmo_comparable_to_slice_max():
    b = rand_f(9)
    little = bmo_norm(b, "little")
    slice_max = max(bmo_norm(b, "axis1"), bmo_norm(b, "axis2"))
    # two-sided comparability with desk-scale constants
    assert little <= 4.0 * slice_max + 1e-12
    assert slice_max <= 4.0 * little + 1e-12


def test_little_bmo_dominates_product_lower_bound():
    for seed in range(5):
        b = rand_f(seed)
        little = bmo_norm(b, "little")
        rep = bmo_norm(b, "product")
        assert rep.family_value <= 8.0 * little + 1e-12


def _product_search_reference(grid, pairs, pool=24, union=3, seed=0):
    """Per-set product search: a set scores sqrt(sum |c_R|^2 over the
    rectangles R inside it / |set|), containment tested one set at a time."""
    masks = []
    sq = np.zeros(grid.shape)
    for rect, c in pairs:
        m = np.zeros(grid.shape, dtype=bool)
        m[rect.index()] = True
        masks.append(m)
        sq += (abs(c) ** 2 / rect.measure) * m

    def value(s):
        inside = sum(abs(c) ** 2 for m, (_, c) in zip(masks, pairs) if s[m].all())
        return math.sqrt(inside / (s.sum() * grid.cell_volume))

    sets = list(masks)
    if masks:
        pool_idx = np.random.default_rng(seed).choice(len(masks), size=min(pool, len(masks)), replace=False)
        sets += [np.logical_or.reduce([masks[i] for i in combo]) for k in range(2, union + 1)
                 for combo in itertools.combinations(pool_idx.tolist(), k)]
    sets += [sq > lam for lam in np.unique(sq)[:-1]]
    single = max((value(m) for m in masks), default=0.0)
    return max((value(s) for s in sets), default=0.0), single, len(sets)


@pytest.mark.parametrize("grid", [GRID, TorusGrid.make(2, (2, 1))], ids=["L3", "L2-dims21"])
def test_product_search_matches_per_set_containment(grid):
    rng = np.random.default_rng(17)
    for trial in range(3):
        om = sample_shift(grid, rng)
        rects = list(all_rectangles(grid, om))
        pick = rng.choice(len(rects), size=min(30, len(rects)), replace=False)
        coeffs = rng.standard_normal(len(pick))
        reps = [(sequence_product_bmo(grid, pick, coeffs, om), [(rects[i], c) for i, c in zip(pick, coeffs)])]
        # the function version: every cancellative Haar pair, rectangles repeat when dim >= 2
        b = rand_f(trial, grid)
        (t1, hs1), (t2, hs2) = ((object_rows(ax, sh) * ax.cell_volume, haar_functions(ax, sh))
                                for ax, sh in zip(grid.axes, (om.shift1, om.shift2)))
        C = t1 @ b.values @ t2.T
        pairs = [(DyadicRectangle(h1.cube, h2.cube), C[i, j])
                 for i, h1 in enumerate(hs1) if h1.cancellative
                 for j, h2 in enumerate(hs2) if h2.cancellative]
        reps.append((bmo_norm(b, "product", om), pairs))
        for rep, pairs in reps:
            family, single, n_sets = _product_search_reference(grid, pairs)
            assert rep.n_sets == n_sets
            assert abs(rep.family_value - family) <= 1e-12 * family
            assert abs(rep.single_rectangle - single) <= 1e-12 * single


def test_product_search_empty_family():
    rep = sequence_product_bmo(GRID, np.array([], dtype=int), np.array([]), GridShift.zero(GRID))
    assert (rep.family_value, rep.single_rectangle, rep.n_sets) == (0.0, 0.0, 0)


BIT_GRIDS = [TorusGrid.make(2), GRID, TorusGrid.make(4), TorusGrid.make(2, (2, 1))]


@pytest.mark.parametrize("grid", BIT_GRIDS, ids=["L2", "L3", "L4", "L2-dims21"])
def test_bit_containment_matches_boolean_product(grid):
    # every rectangle of a shifted lattice against rectangles, unions and
    # random sets: (S & R) == R on packed rows is the boolean product
    rng = np.random.default_rng(23)
    table = rect_table(grid, sample_shift(grid, rng))
    masks = table.masks(np.arange(len(table.masks1) * len(table.masks2)))
    pairs = rng.choice(len(masks), size=(40, 2))
    sets = np.vstack([masks, masks[pairs[:, 0]] | masks[pairs[:, 1]], rng.random((40, masks.shape[1])) < 0.9])
    for rects in (masks, masks[:0]):
        for family in (sets, sets[:0]):
            want = ~((~family) @ rects.T)
            assert np.array_equal(_bit_containment(_bit_rows(family), _bit_rows(rects)), want.T)
    assert np.array_equal(np.bitwise_count(_bit_rows(sets)).sum(axis=1), sets.sum(axis=1))


@pytest.mark.parametrize("width", [1, 8, 63, 64, 65, 100, 200])
def test_bit_rows_pad_to_whole_words(width):
    rng = np.random.default_rng(width)
    sets = rng.random((30, width)) < 0.8
    rects = rng.random((20, width)) < 0.1
    rows = _bit_rows(sets)
    assert rows.dtype == np.uint64 and rows.shape == (30, -(-width // 64))
    assert np.array_equal(np.bitwise_count(rows).sum(axis=1), sets.sum(axis=1))
    assert np.array_equal(_bit_containment(rows, _bit_rows(rects)), ~((~sets) @ rects.T).T)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
def test_level_values_match_unique(n):
    # the upper-level sets of the product search: ties collapse, the largest goes
    rng = np.random.default_rng(n)
    for values in (rng.integers(0, 4, n) / 3.0, rng.standard_normal(n), np.full(n, 0.25)):
        want = np.unique(values)[:-1]
        got = _lower_levels(values)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# -- sups over every shift: the window tables against shift enumeration -------------

GRID2 = TorusGrid.make(2)


def _slice_sup_over_shifts(values, axis_idx, stat, grid=GRID2, shifts=None):
    """Brute-force sup of a slice statistic over the cubes of every shift of
    one factor (or of the given shifts); blocks are passed with the cube's
    cells along axis 0."""
    axis = grid.axes[axis_idx]
    best = 0.0
    for s in enumerate_axis_shifts(axis) if shifts is None else shifts:
        for level in range(axis.levels + 1):
            for cube in axis_cubes(axis, level, s):
                cells = cube.cells()
                blocks = [v[cells, :] if axis_idx == 0 else v[:, cells].T for v in values]
                best = max(best, float(stat(*blocks).max()))
    return best


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(abs(b), 1.0)


def test_ap_over_all_shifts_oracle():
    w = Weight(DiscreteFunction(GRID2, np.exp(rand_f(31, GRID2).values)))
    p = 3.0
    bi = max(ap_characteristic(w, p, shift=om) for om in enumerate_shifts(GRID2))
    assert _close(ap_characteristic(w, p, over_all_shifts=True), bi)
    for axis_idx, scope in enumerate(("axis1", "axis2")):
        ref = _slice_sup_over_shifts((w.values, w.dual(p).values), axis_idx,
                                     lambda a, d: a.mean(axis=0) * d.mean(axis=0) ** (p - 1.0))
        assert _close(ap_characteristic(w, p, scope, over_all_shifts=True), ref)


def test_ainfty_over_all_shifts_oracle():
    w = Weight(DiscreteFunction(GRID2, np.exp(rand_f(32, GRID2).values)))
    bi = max(ainfty_characteristic(w, shift=om) for om in enumerate_shifts(GRID2))
    assert _close(ainfty_characteristic(w, over_all_shifts=True), bi)
    for axis_idx, scope in enumerate(("axis1", "axis2")):
        ref = _slice_sup_over_shifts((w.values, np.log(w.values)), axis_idx,
                                     lambda a, l: a.mean(axis=0) * np.exp(-l.mean(axis=0)))
        assert _close(ainfty_characteristic(w, scope, over_all_shifts=True), ref)


def test_bmo_over_all_shifts_oracle():
    b = rand_f(33, GRID2)
    bi = max(bmo_norm(b, "little", shift=om) for om in enumerate_shifts(GRID2))
    assert _close(bmo_norm(b, "little", over_all_shifts=True), bi)
    ref = _slice_sup_over_shifts((b.values,), 0, lambda blk: np.abs(blk - blk.mean(axis=0)).mean(axis=0))
    assert _close(bmo_norm(b, "axis1", over_all_shifts=True), ref)


def test_slice_scopes_honour_shift():
    om = sample_shift(GRID, np.random.default_rng(2))
    assert om.shift1.bits != AxisShift.zero(GRID.axes[0]).bits
    assert om.shift2.bits != AxisShift.zero(GRID.axes[1]).bits
    w = Weight(DiscreteFunction(GRID, np.exp(rand_f(34).values)))
    b = rand_f(35)
    p = 3.0
    for axis_idx, scope in enumerate(("axis1", "axis2")):
        def ref(values, stat):
            return _slice_sup_over_shifts(values, axis_idx, stat, GRID, [om[axis_idx]])

        want = ref((w.values, w.dual(p).values),
                   lambda a, d: a.mean(axis=0) * d.mean(axis=0) ** (p - 1.0))
        assert _close(ap_characteristic(w, p, scope, shift=om), want)
        want = ref((w.values, np.log(w.values)), lambda a, l: a.mean(axis=0) * np.exp(-l.mean(axis=0)))
        assert _close(ainfty_characteristic(w, scope, shift=om), want)
        want = ref((b.values,), lambda blk: np.abs(blk - blk.mean(axis=0)).mean(axis=0))
        assert _close(bmo_norm(b, scope, shift=om), want)


# -- maximal functions --------------------------------------------------------------

def test_maximal_constant():
    f = GRID.constant(3.0)
    for kind in ("dyadic", "strong", "axis1", "axis2"):
        assert np.abs(maximal_function(f, kind).values - 3.0).max() < 1e-12


def test_maximal_dominates_function():
    f = rand_f(3)
    for kind in ("dyadic", "strong"):
        m = maximal_function(f, kind)
        assert (m.values >= np.abs(f.values) - 1e-12).all()


def test_maximal_indicator_brute_force():
    # M of a rectangle indicator: per-cell sup of |R cap R'|/|R'|
    vals = np.zeros(GRID.shape)
    c1 = DyadicCube(GRID.axes[0], 2, (1,), AxisShift.zero(GRID.axes[0]))
    c2 = DyadicCube(GRID.axes[1], 1, (0,), AxisShift.zero(GRID.axes[1]))
    rect = DyadicRectangle(c1, c2)
    vals[rect.index()] = 1.0
    f = DiscreteFunction(GRID, vals)
    m = maximal_function(f, "dyadic")
    brute = np.zeros(GRID.shape)
    for r in all_rectangles(GRID, GridShift.zero(GRID)):
        idx = r.index()
        brute[idx] = np.maximum(brute[idx], vals[idx].mean())
    assert np.abs(m.values - brute).max() < 1e-12
    assert np.abs(m.values[rect.index()] - 1.0).max() < 1e-12


def test_strong_maximal_matches_shift_enumeration():
    f = rand_f(8)
    m = maximal_function(f, "strong")
    brute = np.zeros(GRID.shape)
    for om in enumerate_shifts(GRID):
        brute = np.maximum(brute, maximal_function(f, "dyadic", om).values)
    assert np.abs(m.values - brute).max() < 1e-12


def test_maximal_idempotent_monotone_and_ms_ordering():
    f = rand_f(10)
    m = maximal_function(f, "strong")
    mm = maximal_function(m, "strong")
    assert (mm.values >= m.values - 1e-12).all()
    m2 = maximal_function(f, "strong", s=2.0)
    assert (m2.values >= m.values - 1e-12).all()


def test_fefferman_stein_vector_ratio_bounded():
    # empirical vector-valued bound for the strong maximal operator
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        fs = [GRID.random(rng) for _ in range(4)]
        num = DiscreteFunction(GRID, np.sqrt(sum(maximal_function(f, "strong").values ** 2 for f in fs)))
        den = DiscreteFunction(GRID, np.sqrt(sum(np.abs(f.values) ** 2 for f in fs)))
        worst = max(worst, lp_norm(num, 2.0) / lp_norm(den, 2.0))
    assert worst < 8.0


# -- square functions ---------------------------------------------------------------

def test_square_function_single_haar():
    c1 = DyadicCube(GRID.axes[0], 1, (0,), AxisShift.zero(GRID.axes[0]))
    c2 = DyadicCube(GRID.axes[1], 2, (2,), AxisShift.zero(GRID.axes[1]))
    h = outer(GRID, axis_haar_vector(HaarFunction(c1, (1,))), axis_haar_vector(HaarFunction(c2, (1,))))
    sf = square_function(h, "rect")
    expect = np.zeros(GRID.shape)
    expect[DyadicRectangle(c1, c2).index()] = (c1.measure * c2.measure) ** -0.5
    assert np.abs(sf.values - expect).max() < 1e-12


def test_square_function_parseval_random():
    for seed in range(5):
        f = rand_f(seed)
        om = sample_shift(GRID, np.random.default_rng(seed))
        for kind in ("rect", "axis1", "axis2"):
            sf = square_function(f, kind, om)
            assert abs(lp_norm(sf, 2.0) ** 2 - lp_norm(f, 2.0) ** 2) < 1e-10


def test_square_function_weighted_comparability_tracks_characteristic():
    # two-sided constants recorded over a weight sweep stay bounded and the
    # upper one grows with the characteristic
    f = rand_f(12)
    sf = square_function(f, "rect")
    uppers = []
    for t in (1.0, 4.0, 16.0):
        w = step_weight(t)
        ratio = lp_norm(sf, 2.0, w) / lp_norm(f, 2.0, w)
        uppers.append(max(ratio, 1.0 / ratio))
    assert uppers[0] < uppers[-1] + 5.0  # bounded sweep, no blow-up
    assert all(u < 10.0 for u in uppers)


def test_phi_function_dominates_plain_coefficients():
    # the smoothed sum controls the plain one-variable coefficient profiles
    f = rand_f(2)
    om = GridShift.zero(GRID)
    phi = phi_function(f, 1, om)
    rows = object_rows(GRID.axes[1], om.shift2)
    for k, h in enumerate(haar_functions(GRID.axes[1], om.shift2)):
        if not h.cancellative:
            continue
        coeff = f.pair_axis(rows[k], 1)
        got = phi.values @ (rows[k] * GRID.axes[1].cell_volume)
        assert (got >= np.abs(coeff) - 1e-10).all()


def test_block_square_function_runs_and_positive():
    grid = TorusGrid.make(2)
    f = grid.random(np.random.default_rng(3))
    sf = square_function(f, "block", depths=(1, 0), shift_samples=4, seed=0)
    assert (sf.values >= -1e-15).all()


# -- lower square function bounds -----------------------------------------------------

def test_lower_sf_unweighted_p2_is_one():
    f = rand_f(4)
    out = lower_sf_check(f, Weight.ones(GRID), 2.0)
    for v in out.values():
        assert abs(v - 1.0) < 1e-10


def test_lower_sf_single_haar_closed_form():
    c1 = DyadicCube(GRID.axes[0], 1, (1,), AxisShift.zero(GRID.axes[0]))
    c2 = DyadicCube(GRID.axes[1], 1, (0,), AxisShift.zero(GRID.axes[1]))
    h = outer(GRID, axis_haar_vector(HaarFunction(c1, (1,))), axis_haar_vector(HaarFunction(c2, (1,))))
    w = step_weight(3.0)
    out = lower_sf_check(h, w, 2.0)
    # for a single Haar function S_D f = |f| pointwise, so the ratio is 1
    assert abs(out["rect"] - 1.0) < 1e-10


def test_lower_sf_ratio_bounded_over_lacunary_sweep():
    f = rand_f(15)
    ratios = []
    for t in (2.0, 8.0, 32.0, 128.0):
        w = step_weight(t)
        out = lower_sf_check(f, w, 2.0)
        ratios.append(max(out.values()))
    assert all(r < 4.0 for r in ratios)


def test_little_bmo_john_nirenberg_p_sweep():
    # p-oscillation norms stay within fixed factors of the p=1 norm
    b = rand_f(21)
    from dyadlab.core import all_rectangles

    def p_osc(p):
        best = 0.0
        for rect in all_rectangles(GRID, GridShift.zero(GRID)):
            blk = b.values[rect.index()]
            best = max(best, float((np.abs(blk - blk.mean()) ** p).mean() ** (1 / p)))
        return best

    base = p_osc(1.0)
    for p in (2.0, 4.0):
        ratio = p_osc(p) / base
        assert 1.0 - 1e-12 <= ratio < 6.0
