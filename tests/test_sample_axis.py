"""A leading sample axis through the weighted sweeps.

Every function that takes a stack of functions (or rows of profiles) must
agree with its calls on one sample at a time, and with the per-sample code
it replaced, kept here as oracles: the per-level-pair loops of the little
oscillation and the scatter form of the adapted maximal function (which the
statistics plans replaced), the stopping-time walk of the sparse
domination, and the per-seed loops of the weighted suite.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dyadlab import commutators as com
from dyadlab import measures as ms
from dyadlab.core import (
    STATS_CHUNK,
    AxisShift,
    DiscreteFunction,
    DyadicCube,
    GridShift,
    TorusGrid,
    cell_tables,
    sample_axis_shift,
    sample_shift,
    stats_plan,
)
from dyadlab.harness import (
    ExperimentConfig,
    _draws,
    _exp_triple,
    _rng,
    weight_catalog,
    weighted_suite,
)
from dyadlab.model_ops import (
    FullParaproduct,
    axis_ops,
    axis_profile_bmo,
    one_param_paraproduct_form,
    random_full_paraproduct,
    random_partial_paraproduct,
    random_shift_operator,
    sparse_dominate_paraproduct,
)

from haar_oracle import all_axis_cubes

S = 5  # samples per stack
LATTICES = [(level, shifted) for level in (3, 4) for shifted in (False, True)]
IDS = [f"L{level}-{'random' if shifted else 'zero'}" for level, shifted in LATTICES]


def _lattice(level, shifted, seed):
    grid = TorusGrid.make(level)
    rng = np.random.default_rng(seed)
    om = sample_shift(grid, rng) if shifted else GridShift.zero(grid)
    return grid, om, rng


def _stack(grid, rng):
    return DiscreteFunction(grid, rng.standard_normal((S,) + grid.shape))


def _one(F, s):
    return DiscreteFunction(F.grid, F.values[s])


def _close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _per_sample(fn, *stacks):
    """fn on one sample of each stack at a time, stacked back."""
    outs = [fn(*(_one(F, s) for F in stacks)) for s in range(S)]
    return np.array([o.values if isinstance(o, DiscreteFunction) else o for o in outs])


# -- norms and oscillations ------------------------------------------------------

@pytest.mark.parametrize("level, shifted", LATTICES, ids=IDS)
def test_norms_on_stacks(level, shifted):
    grid, om, rng = _lattice(level, shifted, 10 + level)
    F = _stack(grid, rng)
    for w in (None, weight_catalog(grid)["power"]):
        for p in (4 / 3, 2.0, np.inf):
            _close(ms.lp_norm(F, p, w), _per_sample(lambda f: ms.lp_norm(f, p, w), F))
    for over_all in (False, True):
        _close(ms.bmo_norm(F, "little", om, over_all_shifts=over_all),
               _per_sample(lambda f: ms.bmo_norm(f, "little", om, over_all_shifts=over_all), F))
    v = weight_catalog(grid)["step4"]
    got = ms.lower_sf_check(F, v, 2.0, om)
    want = _per_sample(lambda f: np.array(list(ms.lower_sf_check(f, v, 2.0, om).values())), F)
    _close(np.array(list(got.values())).T, want)
    assert isinstance(ms.lp_norm(_one(F, 0), 2.0), float)


def test_discrete_function_takes_one_sample_axis():
    grid = TorusGrid.make(2)
    assert DiscreteFunction(grid, np.zeros((3,) + grid.shape)).values.shape == (3, 4, 4)
    for shape in ((2, 3) + grid.shape, (4,), (3, 4, 5)):
        with pytest.raises(ValueError):
            DiscreteFunction(grid, np.zeros(shape))


# -- the statistics plans ------------------------------------------------------------------

def block_index(tab1, tab2):
    """Fancy index gathering the blocks cut out by one cell table per factor:
    values[block_index(t1, t2)] has shape (m1, m2, k1, k2), one rectangle
    block per pair of rows; a None table keeps that factor whole, giving the
    slice blocks (m1, k1, n2) or (n1, m2, k2).  The index acts on the last
    two axes, so a stack of functions keeps its leading sample axis."""
    if tab2 is None:
        return (Ellipsis, tab1, slice(None))
    if tab1 is None:
        return (Ellipsis, slice(None), tab2)
    return (Ellipsis, tab1[:, None, :, None], tab2[None, :, None, :])


def rect_blocks(grid, shift):
    """block_index of every level pair: the rectangles of the shifted
    lattice, or with shift None of every shift.  Cells lie on axes (-2, -1)."""
    for t1 in cell_tables(grid.axes[0], None if shift is None else shift.shift1):
        for t2 in cell_tables(grid.axes[1], None if shift is None else shift.shift2):
            yield block_index(t1, t2)


def slice_blocks(grid, axis_idx, shift):
    """block_index of every level of one factor, the other kept whole (shift
    None: every shift).  Cells lie on axis axis_idx - 2."""
    for tab in cell_tables(grid.axes[axis_idx], None if shift is None else shift[axis_idx]):
        yield block_index(tab, None) if axis_idx == 0 else block_index(None, tab)


def _little_bmo_loop(b, lattice):
    """The little oscillation one level pair at a time (lattice None: the
    windows of every shift)."""
    best = 0.0
    for idx in rect_blocks(b.grid, lattice):
        blk = b.values[idx]
        blk -= blk.mean(axis=(-2, -1), keepdims=True)
        osc = np.abs(blk, out=blk).mean(axis=(-2, -1))
        best = np.maximum(best, osc.max(axis=(-2, -1)))
    return best


@settings(max_examples=40, deadline=None)
@given(level=st.integers(1, 4), dims=st.sampled_from([(1, 1), (2, 1)]),
       lattice=st.sampled_from(["zero", "random", "all"]), stacked=st.booleans(),
       seed=st.integers(0, 2**16), const=st.floats(-1e6, 1e6, allow_nan=False))
def test_stats_plan_matches_level_pair_loops(level, dims, lattice, stacked, seed, const):
    # the windows of a 2-d factor at level 4 make the loops too slow for a test
    assume(dims == (1, 1) or level < 4 or lattice != "all")
    grid = TorusGrid.make(level, dims)
    rng = np.random.default_rng(seed)
    om = {"zero": GridShift.zero(grid), "random": sample_shift(grid, rng), "all": None}[lattice]
    shape = ((3,) if stacked else ()) + grid.shape
    b, f = (DiscreteFunction(grid, rng.standard_normal(shape)) for _ in range(2))
    got = ms.bmo_norm(b, "little", om, over_all_shifts=om is None)
    _close(got, _little_bmo_loop(b, om))
    # a constant has no oscillation, in every rectangle and window
    c = DiscreteFunction(grid, np.full(shape, const))
    assert np.all(ms.bmo_norm(c, "little", om, over_all_shifts=om is None) == 0.0)
    if om is None:
        for kind in ("rect", "axis1", "axis2"):
            got = com.AdaptedMaximal(b, kind).apply(f).values
            want = [_adapted_max_scatter(_one(b, s), _one(f, s), kind) for s in range(3)] if stacked \
                else _adapted_max_scatter(b, f, kind)
            _close(got, want)
            assert np.all(com.AdaptedMaximal(c, kind).apply(f).values == 0.0)


def _box_max_loop(a, tabs1, tabs2):
    """Per-cell sup of the rectangle means of `a`, one level pair at a time,
    separably in the factors, with the maxima scattered back."""
    out = np.zeros(a.shape)
    for t1 in tabs1:
        means1 = a[t1].mean(axis=1)
        for t2 in tabs2:
            means = means1.T[t2].mean(axis=1)
            cover = np.zeros((a.shape[1], len(t1)))
            np.maximum.at(cover, t2, means[:, None, :])
            np.maximum.at(out, t1, cover.T[:, None, :])
    return out


def _profile_bmo_loop(vec, axis, shift):
    best = 0.0
    for tab in cell_tables(axis, shift):
        blk = np.take(vec, tab, axis=-1)
        best = np.maximum(best, np.abs(blk - blk.mean(axis=-1, keepdims=True)).mean(axis=-1).max(axis=-1))
    return best


@pytest.mark.parametrize("dims", [(1, 1), (2, 1)])
@pytest.mark.parametrize("level", (1, 2, 3))
def test_maximal_and_profile_statistics_match_level_pair_loops(level, dims):
    grid = TorusGrid.make(level, dims)
    rng = np.random.default_rng(70 + level)
    f, om = grid.random(rng), sample_shift(grid, rng)
    a = np.abs(f.values)
    win1, win2 = (cell_tables(ax, None) for ax in grid.axes)
    lat1, lat2 = (cell_tables(ax, sh) for ax, sh in zip(grid.axes, (om.shift1, om.shift2)))
    for kind, tabs in (("dyadic", (lat1, lat2)), ("strong", (win1, win2)),
                       ("axis1", (win1, win2[-1:])), ("axis2", (win1[-1:], win2))):
        _close(ms.maximal_function(f, kind, om).values, _box_max_loop(a, *tabs))
    axis = grid.axes[0]
    rows = rng.standard_normal((S, axis.n_cells))
    for over_all in (True, False):
        _close(axis_profile_bmo(rows, axis, over_all),
               _profile_bmo_loop(rows, axis, None if over_all else AxisShift.zero(axis)))
    single = [np.zeros((1, 1), dtype=np.intp)]
    _close(ms.axis_profile_strong_max(rows[0], axis), _box_max_loop(np.abs(rows[0])[:, None], win1, single)[:, 0])


def _pointwise_domination_loop(b, f, om):
    """pointwise_domination_check one level pair of the lattice at a time."""
    grid = f.grid
    phi2 = com.adapted_phi(b, f, 1, om)
    Mb = com.AdaptedMaximal(b, "rect").apply(f)
    o2 = axis_ops(grid.axes[1], om.shift2)
    vol2 = grid.axes[1].cell_volume
    worst_gap = worst_osc = 0.0
    for l2, t2 in enumerate(cell_tables(grid.axes[1], om.shift2)):
        cancellative = l2 < grid.axes[1].levels
        if cancellative:
            h2 = o2.haar[o2.canc_offset[l2]:o2.canc_offset[l2 + 1]]
            b_slice = b.values[:, t2].mean(axis=2).T
            coeff = (f.values @ h2.T * vol2).T
        for t1 in cell_tables(grid.axes[0], om.shift1):
            idx = block_index(t1, t2)
            blk = b.values[idx]
            avg = blk.mean(axis=(2, 3), keepdims=True)
            osc = np.abs(((blk - avg) * f.values[idx]).mean(axis=(2, 3)))
            dom = Mb.values[idx].mean(axis=(2, 3))
            worst_osc = max(worst_osc, float((osc[dom > 0] / dom[dom > 0]).max(initial=0.0)))
            if cancellative:
                gap = np.abs(((b_slice[:, t1] - avg[:, :, 0, 0].T[:, :, None]) * coeff[:, t1]).mean(axis=2))
                smooth = (phi2.values[t1].mean(axis=1) @ (h2 * vol2).T).T
                excess = (gap - smooth)[gap > smooth + 1e-10]
                worst_gap = max(worst_gap, float(excess.max(initial=0.0)))
    return {"gap_violation": worst_gap, "oscillation_ratio": worst_osc}


@pytest.mark.parametrize("level, shifted", [(2, False), (2, True), (3, True)])
def test_pointwise_domination_matches_level_pair_loop(level, shifted):
    grid, om, rng = _lattice(level, shifted, 80 + level)
    b, f = grid.random(rng), grid.random(rng)
    got, want = com.pointwise_domination_check(b, f, om), _pointwise_domination_loop(b, f, om)
    assert got["gap_violation"] == want["gap_violation"] == 0.0
    assert abs(got["oscillation_ratio"] - want["oscillation_ratio"]) <= 1e-12


def _largest_gather(plan, samples):
    """The most cells one gather of a walk or of cover_max holds, read from
    the plan's tables: a run of rectangles, or a chunk of rows through one
    factor's cover.  (The per-rectangle results, one value per rectangle
    and sample, are not gathers.)"""
    runs = max(samples * int(plan.bounds[b] - plan.bounds[a]) for a, b in plan._runs(samples))
    r1 = sum(map(len, plan.tabs[0]))
    c1, c2 = plan._covers
    # cover_max takes c2 on samples * r1 rows, then c1 on samples * n2 rows
    return max(runs, *(min(rows * c.size, max(STATS_CHUNK // c.size, 1) * c.size)
                       for rows, c in ((samples * r1, c2), (samples * len(c2), c1))))


@pytest.mark.parametrize("level", range(2, 8))
def test_stats_plan_temporaries_bounded(level):
    grid = TorusGrid.make(level)
    for shift in (None, GridShift.zero(grid)):
        for scope in ("rect", "axis1", "axis2"):
            tracemalloc.start()
            try:
                plan = stats_plan.__wrapped__(grid, shift, scope)  # not kept in the cache
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # a plan holds per-rectangle offsets, not its flat index (2 GiB
            # for the windows at level 7)
            assert peak <= 32 * plan.rects[-1] + (1 << 20)
            # the largest block of one level pair, which the level-pair loops
            # gathered at once, and the largest rectangle
            old = max(t1.size * t2.size for t1, t2 in plan.pairs)
            rect = max(t1.shape[1] * t2.shape[1] for t1, t2 in plan.pairs)
            for samples in (1, 8, 64):
                got = _largest_gather(plan, samples)
                assert got <= max(samples * rect, STATS_CHUNK) <= max(samples * old, STATS_CHUNK)


# -- the adapted maximal function ---------------------------------------------------------

def _adapted_max_scatter(b, f, kind):
    """The scatter of every window's value onto its cells that the sliding
    window max replaced, one function at a time."""
    grid = f.grid
    af = np.abs(f.values)
    if kind == "rect":
        indices, cell_axes = rect_blocks(grid, None), (2, 3)
    else:
        ax = 0 if kind == "axis1" else 1
        indices, cell_axes = slice_blocks(grid, ax, None), ax + 1
    out = np.zeros(grid.shape)
    for idx in indices:
        blk_b = b.values[idx]
        osc = np.abs(blk_b - blk_b.mean(axis=cell_axes, keepdims=True)) * af[idx]
        np.maximum.at(out, idx, osc.mean(axis=cell_axes, keepdims=True))
    return out


@pytest.mark.parametrize("level", (2, 3, 4))
def test_adapted_maximal_on_stacks(level):
    grid = TorusGrid.make(level)
    rng = np.random.default_rng(30 + level)
    B, F = _stack(grid, rng), _stack(grid, rng)
    for kind in ("rect", "axis1", "axis2"):
        got = com.AdaptedMaximal(B, kind).apply(F).values
        want = np.array([_adapted_max_scatter(_one(B, s), _one(F, s), kind) for s in range(S)])
        _close(got, want)
        _close(got, _per_sample(lambda b, f: com.AdaptedMaximal(b, kind).apply(f), B, F))
        # one symbol against a stack of inputs
        _close(com.AdaptedMaximal(_one(B, 0), kind).apply(F).values,
               [_adapted_max_scatter(_one(B, 0), _one(F, s), kind) for s in range(S)])
    ax = grid.axes[0]
    prof_b, prof_g = rng.standard_normal((2, ax.n_cells))
    profile = com.profile_adapted_max(prof_b, prof_g, ax)
    b_grid = DiscreteFunction(grid, np.repeat(prof_b[:, None], grid.shape[1], 1))
    g_grid = DiscreteFunction(grid, np.repeat(prof_g[:, None], grid.shape[1], 1))
    _close(profile, _adapted_max_scatter(b_grid, g_grid, "axis1")[:, 0])


# -- model operators --------------------------------------------------------------------

@pytest.mark.parametrize("level, shifted", LATTICES, ids=IDS)
def test_operator_applies_on_stacks(level, shifted):
    grid, om, rng = _lattice(level, shifted, 40 + level)
    F1, F2 = _stack(grid, rng), _stack(grid, rng)
    ops = [random_shift_operator(grid, om, (0, 1, 0), (1, 0, 0), (2, 3), rng),
           random_shift_operator(grid, om, (1, 0, 1), (0, 1, 1), (3, 1), rng),
           random_partial_paraproduct(grid, om, (1, 0, 0), shift_axis=0, rng=rng),
           random_partial_paraproduct(grid, om, (0, 1, 0), shift_axis=1, h0_slot=2, ptype=1, rng=rng),
           random_full_paraproduct(grid, om, (3, 3), rng),
           random_full_paraproduct(grid, om, (1, 2), rng)]
    for U in ops:
        got = U.apply(F1, F2).values
        _close(got, _per_sample(U.apply, F1, F2))
        # the apply is the form with the third slot left free
        f3 = grid.random(rng)
        _close([(got[s] * f3.values).sum() * grid.cell_volume for s in range(S)],
               [U.form(_one(F1, s), _one(F2, s), f3) for s in range(S)])


@pytest.mark.parametrize("level, shifted", LATTICES, ids=IDS)
def test_profile_rows(level, shifted):
    grid, om, rng = _lattice(level, shifted, 50 + level)
    ax = grid.axes[0]
    ops = axis_ops(ax, om.shift1)
    rows = rng.standard_normal((4, S, ax.n_cells))
    for over_all in (True, False):
        _close(axis_profile_bmo(rows[0], ax, over_all),
               [axis_profile_bmo(r, ax, over_all) for r in rows[0]])
    for ptype in (1, 2, 3):
        _close(one_param_paraproduct_form(*rows, ops, ptype),
               [one_param_paraproduct_form(*rows[:, s], ops, ptype) for s in range(S)])
    assert isinstance(axis_profile_bmo(rows[0, 0], ax), float)


# -- sparse domination ----------------------------------------------------------------

def _sparse_walk(b, g1, g2, g3, axis, shift):
    """The stopping-time walk the level sweep replaced: a stack of selected
    cubes, each scanning its descendants until their budget more than
    doubles its own."""
    ops = axis_ops(axis, shift)
    lhs = abs(one_param_paraproduct_form(b, g1, g2, g3, ops))
    a1, a2, a3 = (np.abs(g) for g in (g1, g2, g3))

    def avg(vec, cube):
        return float(vec[cube.cells()].mean())

    def budget(cube):
        return avg(a1, cube) + avg(a2, cube) + avg(a3, cube)

    family, stack = [], [DyadicCube(axis, 0, (0,), shift)]
    while stack:
        q = stack.pop()
        family.append(q)
        base = budget(q)
        inner = list(q.children()) if q.level < axis.levels else []
        while inner:
            c = inner.pop()
            if base > 0 and budget(c) > 2.0 * base:
                stack.append(c)
            elif c.level < axis.levels:
                inner.extend(c.children())
    rhs = axis_profile_bmo(b, axis) * sum(avg(a1, q) * avg(a2, q) * avg(a3, q) * q.measure
                                          for q in family)
    return family, lhs, rhs


@pytest.mark.parametrize("level, shifted", LATTICES + [(2, False), (2, True)], ids=IDS + ["L2-zero", "L2-random"])
def test_sparse_family_matches_stopping_walk(level, shifted):
    rng = np.random.default_rng(60 + level + 7 * shifted)
    axis = TorusGrid.make(level).axes[0]
    shift = sample_axis_shift(axis, rng) if shifted else AxisShift.zero(axis)
    n_rows = 150
    rows = rng.standard_normal((4, n_rows, axis.n_cells))
    # spiky inputs half of the time, so that stopped cubes nest several deep
    rows[1:, ::2] *= np.exp(2.0 * rng.standard_normal((3, n_rows // 2, axis.n_cells)))
    out = sparse_dominate_paraproduct(*rows, axis, shift)
    cubes = list(all_axis_cubes(axis, shift))
    assert out["family"].shape == (n_rows, len(cubes)) and out["family"].dtype == bool
    depth = 0
    for s in range(n_rows):
        family, lhs, rhs = _sparse_walk(*rows[:, s], axis, shift)
        chosen = [c for c, keep in zip(cubes, out["family"][s]) if keep]
        assert set(chosen) == set(family)
        assert len(chosen) == len(family)
        depth = max(depth, max(q.level for q in family))
        assert abs(out["lhs"][s] - lhs) <= 1e-12 * lhs
        assert abs(out["rhs"][s] - rhs) <= 1e-12 * rhs
        assert abs(out["ratio"][s] - lhs / rhs) <= 1e-12 * (lhs / rhs)
        single = sparse_dominate_paraproduct(*rows[:, s], axis, shift)
        assert np.array_equal(single["family"], out["family"][s])
        assert single["ratio"] == pytest.approx(out["ratio"][s], rel=1e-12)
    assert depth >= 2


# -- the sweep inputs and the suite ------------------------------------------------------

@pytest.mark.parametrize("n_samples", (1, 7, 20, 100))
def test_chunked_draws_equal_per_seed_draws(n_samples):
    grid = TorusGrid.make(3)
    for shape, per_seed in (((2,) + grid.shape, (grid.shape, grid.shape)),
                            ((4, 8), ((8,),) * 4)):
        # per_sample picks chunks of 3 samples, so draws are cut mid-stream
        rng = np.random.default_rng(n_samples)
        got = np.concatenate(list(_draws(rng, n_samples, shape, (1 << 15) // 3)))
        ref = np.random.default_rng(n_samples)
        want = np.array([[ref.standard_normal(sh) for sh in per_seed] for _ in range(n_samples)])
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state
        once = np.random.default_rng(n_samples).standard_normal((n_samples,) + shape)
        assert np.array_equal(once, want)


def _weighted_per_seed(config, seeds_per_cell):
    """The per-seed loops of weighted_suite, one function at a time: the
    worst ratio of each sweep cell, in row order (without the A_infinity
    characteristic rows)."""
    grid = config.grid()
    weights = weight_catalog(grid)
    use = [w for w in config.weights if w in weights]
    om = GridShift.zero(grid)
    ops = {
        "shift": random_shift_operator(grid, om, (0, 1, 0), (1, 0, 0), (2, 3),
                                       _rng(config.seed, "op", "shift")),
        "partial": random_partial_paraproduct(grid, om, (1, 0, 0),
                                              rng=_rng(config.seed, "op", "partial")),
        "full": random_full_paraproduct(grid, om, (3, 3), _rng(config.seed, "op", "full")),
    }
    rows = []

    def bilinear(U, rng, n, p, q, r, w1, w2, v3):
        worst = 0.0
        for _ in range(n):
            f1, f2 = grid.random(rng), grid.random(rng)
            num = ms.lp_norm(U.apply(f1, f2), r, v3)
            den = ms.lp_norm(f1, p, w1) * ms.lp_norm(f2, q, w2)
            if den > 1e-12:
                worst = max(worst, num / den)
        return worst

    for fam, U in ops.items():
        for pair in config.exponents:
            p, q, r = _exp_triple(pair)
            for wname in use:
                if fam == "full" and wname != "unit":
                    continue
                w = weights[wname]
                v3 = ms.Weight(DiscreteFunction(grid, w.values ** (r / p) * w.values ** (r / q)))
                rng = _rng(config.seed, "sweep", fam, wname, p, q)
                rows.append(bilinear(U, rng, seeds_per_cell, p, q, r, w, w, v3))
    rngT = _rng(config.seed, "tensorfull")
    b1 = np.cumsum(rngT.standard_normal(grid.shape[0]))
    b2 = np.cumsum(rngT.standard_normal(grid.shape[1]))
    Ft = FullParaproduct.from_symbol(DiscreteFunction(grid, np.outer(b1, b2)), om, (3, 3))
    Ft = FullParaproduct(grid, om, (3, 3), Ft.lam / Ft.coefficient_report().family_value)
    for pair in config.exponents:
        p, q, r = _exp_triple(pair)
        for wname in use[:3]:
            w = weights[wname]
            v3 = ms.Weight(DiscreteFunction(grid, w.values ** (r / p) * w.values ** (r / q)))
            rng = _rng(config.seed, "sweeptf", wname, p, q)
            rows.append(bilinear(Ft, rng, seeds_per_cell // 4, p, q, r, w, w, v3))
    for wname in use[:3]:
        w = weights[wname]
        for p in (4 / 3, 2.0, 4.0):
            worstA = worstM = 0.0
            rng = _rng(config.seed, "lin", wname, p)
            for _ in range(max(seeds_per_cell // 10, 20)):
                b = grid.random(rng)
                b = b * (1.0 / max(ms.bmo_norm(b, "little"), 1e-12))
                f = grid.random(rng)
                den = ms.lp_norm(f, p, w)
                for kind in (1, 4, 6, 8):
                    worstA = max(worstA, ms.lp_norm(com.paraproduct_bifactor(kind, b, f, om), p, w) / den)
                for kind in (1, 2):
                    out = com.paraproduct_onefactor(kind, 0, b, f, om)
                    worstA = max(worstA, ms.lp_norm(out, p, w) / den)
                mb = _adapted_max_scatter(b, f, "rect")
                worstM = max(worstM, ms.lp_norm(DiscreteFunction(grid, mb), p, w) / den)
            rows += [worstA, worstM]
    for wname in use:
        rng = _rng(config.seed, "lsf", wname)
        worst = 0.0
        for _ in range(max(seeds_per_cell // 10, 20)):
            worst = max(worst, max(ms.lower_sf_check(grid.random(rng), weights[wname], 2.0).values()))
        rows.append(worst)
    rng = _rng(config.seed, "sparse")
    axis = grid.axes[0]
    worst = 0.0
    for _ in range(seeds_per_cell):
        b, g1, g2, g3 = (rng.standard_normal(axis.n_cells) for _ in range(4))
        _, lhs, rhs = _sparse_walk(b, g1, g2, g3, axis, AxisShift.zero(axis))
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    rows.append(worst)
    return rows


def test_weighted_suite_matches_per_seed_loops():
    config = ExperimentConfig(seed=5, level=3, weights=["unit", "step4", "power"],
                              exponents=[[4 / 3, 2.0], [4.0, 4.0]])
    rep = weighted_suite(config, seeds_per_cell=36)
    got = [r.value for r in rep.rows if r.experiment != "lower-sf-char"]
    want = _weighted_per_seed(config, 36)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * w


def test_weighted_suite_memory_peak():
    # the benchmark's sweep config; the sample chunks keep every temporary
    # under SAMPLE_CHUNK elements, and the peak at the unchunked per-seed
    # loops was 0.99 MiB
    config = ExperimentConfig(seed=3, level=3, weights=["unit"],
                              exponents=[[4 / 3, 2.0], [4.0, 4.0]])
    tracemalloc.start()
    try:
        rep = weighted_suite(config, seeds_per_cell=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.all_passed
    assert peak <= 1 << 20
