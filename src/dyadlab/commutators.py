"""Commutator calculus: product expansions, adapted maximal functions,
first-order and iterated commutators of model operators, the coefficient
duality estimate and the weak-type set machinery."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Axis,
    AxisShift,
    DiscreteFunction,
    DyadicCube,
    GridShift,
    HaarFunction,
    TorusGrid,
    axis_average,
    axis_haar_vector,
    cell_tables,
    enumerate_axis_shifts,
    martingale_block,
    profile_plan,
    rect_table,
    sample_axis_shift,
    stats_plan,
)
from .measures import (
    _chunks,
    _square_density,
    bmo_norm,
    haar_outer,
    haar_profiles,
    maximal_function,
    phi_function,
    sequence_product_bmo,
)
from .model_ops import axis_ops, pairing_table, row_pair, slot_tables

__all__ = [
    "paraproduct_bifactor",
    "paraproduct_onefactor",
    "expand_bipar",
    "expand_onepar",
    "expand_none",
    "AdaptedMaximal",
    "adapted_phi",
    "pointwise_domination_check",
    "average_oscillation_bound",
    "commutator_form_direct",
    "commutator_form_decomposed",
    "iterated_form_direct",
    "iterated_form_decomposed",
    "coefficient_duality_check",
    "weak_type_sets",
    "aux_phi1",
    "aux_phi2",
]


# ---------------------------------------------------------------------------
# the eight bi-parameter and four one-parameter paraproduct operators
# ---------------------------------------------------------------------------

# per kind, the rows the symbol and the input pair with on (axis 1, axis 2):
# 'h' the cancellative Haar rows, 'a' the averaging rows of the same cubes
_BIFACTOR_ROWS = {1: ("hh", "hh"), 2: ("hh", "ah"), 3: ("hh", "ha"), 4: ("hh", "aa"),
                  5: ("ah", "hh"), 6: ("ah", "ha"), 7: ("ha", "hh"), 8: ("ha", "ah")}
_KIND = {"h": "haar", "a": "canc_avg"}


def paraproduct_bifactor(kind: int, b: DiscreteFunction, f: DiscreteFunction,
                         shift: GridShift | None = None) -> DiscreteFunction:
    """The eight bi-parameter product-expansion operators (kind 1..8).

    Kinds 1-4 place the full rectangle difference on the symbol; 5-8 mix one
    averaged variable in, matching the product expansion term by term.
    Evaluated through coefficient tables.  b and f may be stacks of
    functions, giving one output per sample."""
    if kind not in _BIFACTOR_ROWS:
        raise ValueError("kind must be 1..8")
    om = shift if shift is not None else GridShift.zero(b.grid)
    o1, o2 = map(axis_ops, b.grid.axes, (om.shift1, om.shift2))
    tab = lambda g, k: pairing_table(g, (o1.paired[_KIND[k[0]]], o2.paired[_KIND[k[1]]]))
    kb, kf = _BIFACTOR_ROWS[kind]
    # per axis exactly one of symbol, input and output takes the averages
    out1, out2 = (_KIND["a" if kb[i] == kf[i] == "h" else "h"] for i in (0, 1))
    return DiscreteFunction(b.grid, o1.rows(out1).T @ (tab(b, kb) * tab(f, kf)) @ o2.rows(out2))


def paraproduct_onefactor(kind: int, axis_idx: int, b: DiscreteFunction,
                          f: DiscreteFunction, shift: GridShift | None = None) -> DiscreteFunction:
    """One-variable expansion operators: kind 1 pairs differences with
    differences, kind 2 differences with averages.  b and f may be stacks
    of functions, giving one output per sample."""
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    if axis_idx not in (0, 1):
        raise ValueError("axis_idx must be 0 or 1")
    om = shift if shift is not None else GridShift.zero(b.grid)
    o = axis_ops(b.grid.axes[axis_idx], om[axis_idx])
    f_kind, out_kind = ("haar", "canc_avg") if kind == 1 else ("canc_avg", "haar")
    h, g = o.paired["haar"], o.paired[f_kind]
    if axis_idx == 0:
        return DiscreteFunction(b.grid, o.rows(out_kind).T @ ((h @ b.values) * (g @ f.values)))
    return DiscreteFunction(b.grid, ((b.values @ h.T) * (f.values @ g.T)) @ o.rows(out_kind))


# ---------------------------------------------------------------------------
# product expansions against Haar pairs
# ---------------------------------------------------------------------------

def _rect_avg(f: DiscreteFunction, c1: DyadicCube, c2: DyadicCube) -> float:
    return float(f.values[np.ix_(c1.cells(), c2.cells())].mean())


def expand_bipar(b: DiscreteFunction, f: DiscreteFunction, c1: DyadicCube,
                 c2: DyadicCube, shift: GridShift | None = None) -> dict:
    """Both Haar functions cancellative: the eight expansion terms plus the
    rectangle-average remainder reproduce <bf, h x h> exactly."""
    grid = b.grid
    om = shift if shift is not None else GridShift.zero(grid)
    h1 = axis_haar_vector(HaarFunction(c1, (1,)))
    h2 = axis_haar_vector(HaarFunction(c2, (1,)))
    test = DiscreteFunction(grid, np.outer(h1, h2))
    lhs = (b * f).pair(test)
    terms = {}
    for kind in range(1, 9):
        terms[f"A{kind}"] = paraproduct_bifactor(kind, b, f, om).pair(test)
    avg_coef = _rect_avg(b, c1, c2)
    base = f.pair(test)
    return {"lhs": lhs, "terms": terms, "avg_coef": avg_coef, "base": base,
            "rhs": sum(terms.values()) + avg_coef * base}


def expand_onepar(b: DiscreteFunction, f: DiscreteFunction, c1: DyadicCube,
                  c2: DyadicCube, haar_axis: int = 0,
                  shift: GridShift | None = None) -> dict:
    """Cancellative Haar on one factor, a normalised average on the other:
    two one-variable terms plus a boundary average and the remainder."""
    if haar_axis not in (0, 1):
        raise ValueError("haar_axis must be 0 or 1")
    grid = b.grid
    om = shift if shift is not None else GridShift.zero(grid)
    if haar_axis == 0:
        h = axis_haar_vector(HaarFunction(c1, (1,)))
        ind = np.zeros(grid.shape[1])
        ind[c2.cells()] = 1.0 / (len(c2.cells()) * grid.axes[1].cell_volume)
        test = DiscreteFunction(grid, np.outer(h, ind))
    else:
        h = axis_haar_vector(HaarFunction(c2, (1,)))
        ind = np.zeros(grid.shape[0])
        ind[c1.cells()] = 1.0 / (len(c1.cells()) * grid.axes[0].cell_volume)
        test = DiscreteFunction(grid, np.outer(ind, h))
    lhs = (b * f).pair(test)
    terms = {}
    for kind in (1, 2):
        terms[f"a{kind}"] = paraproduct_onefactor(kind, haar_axis, b, f, om).pair(test)
    # boundary term: the gap between the one-variable and rectangle averages
    # of the symbol, paired with the one-variable Haar coefficient of f
    if haar_axis == 0:
        bav = axis_average(b, c1, 0)  # profile in x2
        coeff = f.pair_axis(h, 0)  # profile in x2
        cells2 = c2.cells()
        gap = (bav[cells2] - _rect_avg(b, c1, c2)) * coeff[cells2]
        boundary = float(gap.mean())
    else:
        bav = axis_average(b, c2, 1)
        coeff = f.pair_axis(h, 1)
        cells1 = c1.cells()
        gap = (bav[cells1] - _rect_avg(b, c1, c2)) * coeff[cells1]
        boundary = float(gap.mean())
    terms["boundary"] = boundary
    avg_coef = _rect_avg(b, c1, c2)
    base = f.pair(test)
    return {"lhs": lhs, "terms": terms, "avg_coef": avg_coef, "base": base,
            "rhs": sum(terms.values()) + avg_coef * base}


def expand_none(b: DiscreteFunction, f: DiscreteFunction, c1: DyadicCube,
                c2: DyadicCube) -> dict:
    """Fully averaged pairing: only the oscillation term remains."""
    lhs = _rect_avg(b * f, c1, c2)
    avg_coef = _rect_avg(b, c1, c2)
    osc = _rect_avg((b - avg_coef) * f, c1, c2)
    base = _rect_avg(f, c1, c2)
    return {"lhs": lhs, "terms": {"osc": osc}, "avg_coef": avg_coef, "base": base,
            "rhs": osc + avg_coef * base}


# ---------------------------------------------------------------------------
# adapted maximal functions
# ---------------------------------------------------------------------------

@dataclass
class AdaptedMaximal:
    """Oscillation-weighted maximal operator sup_R <|b - <b>_R| |f|>_R.

    kind 'rect' runs over all wrapped rectangles of dyadic side lengths (the
    rectangles of every shift), 'axis1'/'axis2' over one-variable windows
    only; the windows come from their cached statistics plan.  b and f may be
    stacks of functions, giving one maximal function per sample."""

    b: DiscreteFunction
    kind: str = "rect"

    def apply(self, f: DiscreteFunction) -> DiscreteFunction:
        plan = stats_plan(f.grid, None, self.kind)  # refuses an unknown kind
        return DiscreteFunction(f.grid, plan.cover_max(plan.oscillations(self.b.values, f.values)))


def profile_adapted_max(b_prof: np.ndarray, g_prof: np.ndarray, axis: Axis) -> np.ndarray:
    """One-factor adapted maximal of a profile over all wrapped windows."""
    plan = profile_plan(axis)
    return plan.cover_max(plan.oscillations(np.asarray(b_prof)[:, None], np.asarray(g_prof)[:, None]))[:, 0]


def adapted_phi(b: DiscreteFunction, f: DiscreteFunction, axis_idx: int,
                shift: GridShift | None = None) -> DiscreteFunction:
    """Haar sum of adapted maximal coefficient profiles: for each cube of one
    factor the slice-averaged symbol drives the one-variable adapted maximal
    in the other variable."""
    grid = f.grid
    om = shift if shift is not None else GridShift.zero(grid)
    other = grid.axes[1 - axis_idx]
    out = np.zeros(grid.shape)
    for h, cube, coeff in haar_profiles(f, axis_idx, om):
        m = profile_adapted_max(axis_average(b, cube, axis_idx), coeff, other)
        out += haar_outer(h, m, axis_idx)
    return DiscreteFunction(grid, out)


def pointwise_domination_check(b: DiscreteFunction, f: DiscreteFunction,
                               shift: GridShift | None = None) -> dict:
    """The two pointwise bounds behind the mixed commutator cases: the
    smoothed Haar sum controls the slice-average gaps, and the adapted
    maximal controls rectangle oscillations (constant recorded)."""
    grid = f.grid
    om = shift if shift is not None else GridShift.zero(grid)
    phi2 = adapted_phi(b, f, 1, om)
    Mb = AdaptedMaximal(b, "rect").apply(f)
    plan = stats_plan(grid, om)
    # <b>_R, <b f>_R, <f>_R and <Mb>_R on every rectangle R, by id
    avg, bf, fm, dom = plan.by_id(plan.means(np.stack([b.values, b.values * f.values, f.values, Mb.values])))
    osc = np.abs(bf - avg * fm)
    # per cancellative cube J of factor 2, profiles in x1: the slice average
    # of b over J and the Haar coefficients of f and of phi2 on J; then
    # their means over every cube I of factor 1
    o2 = axis_ops(grid.axes[1], om.shift2)
    profiles = [(g @ (rows * grid.axes[1].cell_volume).T).T for g, rows in
                ((b.values, o2.canc_avg), (f.values, o2.haar), (phi2.values, o2.haar))]
    b_coeff, coeff, smooth = profile_plan(grid.axes[0], om.shift1).means(
        np.stack([profiles[0] * profiles[1], *profiles[1:]])[..., None])
    gap = np.abs(b_coeff - avg[:, :len(o2.haar)].T * coeff)
    return {"gap_violation": float((gap - smooth)[gap > smooth + 1e-10].max(initial=0.0)),
            "oscillation_ratio": float((osc[dom > 0] / dom[dom > 0]).max(initial=0.0))}


def _nested_cubes(axis: Axis, shift: AxisShift):
    """Per level lK of the lattice: for every level-lK cube K (one row each)
    the indices of the cubes inside K, counting cubes of all levels in
    level-major order, with their depths below K."""
    tabs = cell_tables(axis, shift)
    level = np.concatenate([np.full(len(t), j) for j, t in enumerate(tabs)])
    first = np.concatenate([t[:, 0] for t in tabs])
    for lK, tK in enumerate(tabs):
        # lattice cubes are nested or disjoint, so the first cell decides
        inside = (first[None, :, None] == tK[:, None, :]).any(axis=2) & (level >= lK)
        desc = np.nonzero(inside)[1].reshape(len(tK), -1)
        yield desc, level[desc[0]] - lK


def average_oscillation_bound(b: DiscreteFunction, shift: GridShift | None = None) -> float:
    """Largest |<b>_{QxR} - <b>_{IxJ}| / max(i, j, q, r) over nested pairs
    sharing their ancestors, for a unit little-oscillation symbol."""
    grid = b.grid
    om = shift if shift is not None else GridShift.zero(grid)
    norm = bmo_norm(b, "little", om)
    if norm == 0:
        return 0.0
    bb = b * (1.0 / norm)
    ax1, ax2 = grid.axes
    # <bb>_{Q x R} for every cube pair, cubes of each factor in level-major order
    plan = stats_plan(grid, om)
    avg = plan.by_id(plan.means(bb.values))
    worst = 0.0
    for desc1, q in _nested_cubes(ax1, om.shift1):
        for desc2, r in _nested_cubes(ax2, om.shift2):
            # rectangles nested in each K x V, flattened with their depth max(q, r)
            sub = avg[desc1[:, None, :, None], desc2[None, :, None, :]].reshape(len(desc1), len(desc2), -1)
            depth = np.maximum.outer(q, r).ravel()
            depth = np.maximum.outer(depth, depth)
            gap = np.abs(sub[..., :, None] - sub[..., None, :])
            nested = depth > 0
            worst = max(worst, float((gap[..., nested] / depth[nested]).max(initial=0.0)))
    return worst


# ---------------------------------------------------------------------------
# commutators of model operators
# ---------------------------------------------------------------------------

def _stack(grid: TorusGrid, *values: np.ndarray) -> DiscreteFunction:
    """The value arrays, in order, as one stack of functions."""
    return DiscreteFunction(grid, np.array(values))


def _moved_inputs(b: DiscreteFunction, slot: int, f1: DiscreteFunction, f2: DiscreteFunction):
    """The stacks (f1, f2) and the inputs with b moved onto slot `slot`."""
    if slot not in (1, 2):
        raise ValueError("slot is 1 or 2")
    a1, a2 = f1.values, f2.values
    moved = (b.values * a1, a2) if slot == 1 else (a1, b.values * a2)
    return _stack(b.grid, a1, moved[0]), _stack(b.grid, a2, moved[1])


def commutator_apply(b: DiscreteFunction, U, slot: int,
                     f1: DiscreteFunction, f2: DiscreteFunction) -> DiscreteFunction:
    """[b,U]_slot(f1,f2) = b U(f1,f2) - U(... b f_slot ...), as one stacked apply."""
    out = U.apply(*_moved_inputs(b, slot, f1, f2)).values
    return DiscreteFunction(b.grid, b.values * out[0] - out[1])


def _iterated_inputs(b2: DiscreteFunction, b1: DiscreteFunction, f1: DiscreteFunction,
                     f2: DiscreteFunction) -> tuple[DiscreteFunction, DiscreteFunction]:
    """Slots 1 and 2 of the four terms of [b2, [b1, U]_1]_2, as stacks:
    (f1, f2), (b1 f1, f2), (f1, b2 f2), (b1 f1, b2 f2)."""
    a1, a2 = f1.values, f2.values
    g1, g2 = b1.values * a1, b2.values * a2
    return _stack(f1.grid, a1, g1, a1, g1), _stack(f1.grid, a2, a2, g2, g2)


def iterated_commutator_apply(b2: DiscreteFunction, b1: DiscreteFunction, U,
                              f1: DiscreteFunction, f2: DiscreteFunction) -> DiscreteFunction:
    """[b2, [b1, U]_1]_2 (f1, f2), as one stacked apply."""
    out = U.apply(*_iterated_inputs(b2, b1, f1, f2)).values
    return DiscreteFunction(b1.grid, b2.values * (b1.values * out[0] - out[1]) - (b1.values * out[2] - out[3]))


def commutator_form_direct(b: DiscreteFunction, U, slot: int,
                           f1: DiscreteFunction, f2: DiscreteFunction,
                           f3: DiscreteFunction) -> float:
    """<[b,U]_slot(f1,f2), f3> by definition, as one form on the stacked terms."""
    vals = U.form(*_moved_inputs(b, slot, f1, f2), _stack(b.grid, b.values * f3.values, f3.values))
    return float(vals[0] - vals[1])


def _expanded_table(b: DiscreteFunction, f: DiscreteFunction, shift: GridShift,
                    kinds: tuple[str, str]) -> np.ndarray:
    """<b f, phi1 x phi2> over the rows `kinds` (as in `pairing_table`),
    assembled through the product expansion of its case.  Haar rows on both
    axes take the eight bi-parameter terms plus the rectangle average of b
    times <f, h x h>.  Haar rows on one axis take the two one-variable terms
    plus the boundary term: the slice averages of b times the one-variable
    Haar coefficients of f, paired with the other axis's rows.  Averaging
    rows on both axes leave <b f> itself."""
    grid = f.grid
    (h1, h2), (a1, a2), (r1, r2) = (row_pair(grid, shift, k, paired=True)
                                    for k in (("haar", "haar"), ("canc_avg", "canc_avg"), kinds))
    pair = lambda g: pairing_table(g, (r1, r2))
    if kinds == ("haar", "haar"):
        terms = sum(paraproduct_bifactor(kind, b, f, shift).values for kind in range(1, 9))
        return pair(DiscreteFunction(grid, terms)) + pairing_table(b, (a1, a2)) * pair(f)
    if kinds[0] == "haar":
        terms = paraproduct_onefactor(1, 0, b, f, shift) + paraproduct_onefactor(2, 0, b, f, shift)
        return pair(terms) + ((a1 @ b.values) * (h1 @ f.values)) @ r2.T
    if kinds[1] == "haar":
        terms = paraproduct_onefactor(1, 1, b, f, shift) + paraproduct_onefactor(2, 1, b, f, shift)
        return pair(terms) + r1 @ ((b.values @ a2.T) * (f.values @ h2.T))
    return pair(b * f)


def commutator_form_decomposed(b: DiscreteFunction, U, slot: int,
                               f1: DiscreteFunction, f2: DiscreteFunction,
                               f3: DiscreteFunction) -> float:
    """Same value assembled through the product expansions.  With P_s the
    pairing table of f_s over U's slot-s rows and Q_s that of b f_s through
    the expansions, it is U contracted with (P1, P2, Q3) minus U contracted
    with Q_slot in place of P_slot; each contraction gathers the tables
    through U's plan."""
    if slot not in (1, 2):
        raise ValueError("slot is 1 or 2")
    fs = (f1, f2, f3)
    P = slot_tables(U, fs)
    Q = lambda s: _expanded_table(b, fs[s - 1], U.shift, U._slot_rows(s))
    moved = list(P)
    moved[slot - 1] = Q(slot)
    return U._contract([P[0], P[1], Q(3)], False) - U._contract(moved, False)


def iterated_form_direct(b2: DiscreteFunction, b1: DiscreteFunction, U,
                         f1: DiscreteFunction, f2: DiscreteFunction,
                         f3: DiscreteFunction) -> float:
    """<[b2, [b1, U]_1]_2 (f1, f2), f3> by definition, as one form on the stacked terms."""
    c1, c2, a3 = b1.values, b2.values, f3.values
    vals = U.form(*_iterated_inputs(b2, b1, f1, f2), _stack(f3.grid, c1 * c2 * a3, c2 * a3, c1 * a3, a3))
    return float(vals[0] - vals[1] - vals[2] + vals[3])


def iterated_form_decomposed(b2: DiscreteFunction, b1: DiscreteFunction, U,
                             f1: DiscreteFunction, f2: DiscreteFunction,
                             f3: DiscreteFunction) -> float:
    """Iterated commutator through nested product expansions: b1 expands
    against slots 1 and 3, b2 against slots 2 and 3, and b1 against b2 f3 in
    slot 3; the four defining pairings are four contractions of U, as in
    `commutator_form_decomposed`."""
    P1, P2, P3 = slot_tables(U, (f1, f2, f3))
    Q = lambda b, f, s: _expanded_table(b, f, U.shift, U._slot_rows(s))
    Q1, Q2 = Q(b1, f1, 1), Q(b2, f2, 2)
    form = lambda *tables: U._contract(tables, False)
    return (form(P1, P2, Q(b1, b2 * f3, 3)) - form(Q1, P2, Q(b2, f3, 3))
            - form(P1, Q2, Q(b1, f3, 3)) + form(Q1, Q2, P3))


# ---------------------------------------------------------------------------
# coefficient duality estimate
# ---------------------------------------------------------------------------

def coefficient_duality_check(
    F_mask: np.ndarray,
    ids: np.ndarray,
    a_coeffs: np.ndarray,
    b_coeffs: np.ndarray,
    om: GridShift | list[GridShift],
    grid: TorusGrid,
    density: float = 0.99,
) -> dict:
    """Coefficient-sum bound: sum |a_R b_R| against the oscillation report of
    the shifted coefficients times the square-sum mass of b inside F.

    The collection is given by distinct rectangle ids of the unshifted
    lattice (`RectTable`), with a_coeffs[k] and b_coeffs[k] on rectangle
    ids[k]; F_mask is a boolean mask of the grid cells.  Rectangles must
    own at least the stated fraction of their measure inside F; the
    oscillation side uses the certified lower-bound report, so a pass
    verifies a stronger inequality than the target.  Stacked instances
    (F_mask (S, n1, n2) or a list of S masks, the rest (S, R), a list of S
    shifts) give S values per key, from one product-oscillation search."""
    if isinstance(om, GridShift):
        out = coefficient_duality_check(F_mask[None], ids[None], a_coeffs[None], b_coeffs[None], [om],
                                        grid, density)
        return {k: float(v[0]) for k, v in out.items()}
    table = rect_table(grid, GridShift.zero(grid))
    n, n_rect = np.shape(ids)
    integral = np.zeros(n)
    for a, b, _, _ in _chunks(n, 1, n_rect * grid.shape[0] * grid.shape[1]):
        F = np.reshape(F_mask[a:b], (b - a, -1))
        masks = table.masks(ids[a:b])
        sizes = masks.sum(axis=-1)
        if np.any(np.count_nonzero(masks & F[:, None], axis=-1) / sizes < density - 1e-12):
            raise ValueError("collection violates the density precondition")
        # libm pow as in the report
        sq = _square_density(grid, masks, np.float_power(np.abs(b_coeffs[a:b]), 2))
        integral[a:b] = (np.sqrt(sq) * F).sum(axis=-1) * grid.cell_volume
    # left to right, as Python's sum adds
    lhs = np.cumsum(np.abs(a_coeffs * b_coeffs), axis=-1)[:, -1] if n_rect else np.zeros(n)
    # the shifted copies of the rectangles carry the a-coefficients; a copy
    # keeps its rectangle's id
    bmo = np.array([rep.family_value for rep in sequence_product_bmo(grid, ids, a_coeffs, om)])
    rhs = bmo * integral
    ratio = np.where(lhs > 0, math.inf, 0.0)
    np.divide(lhs, rhs, out=ratio, where=rhs > 0)
    return {"lhs": lhs, "rhs": rhs, "bmo_report": bmo, "integral": integral, "ratio": ratio}


# ---------------------------------------------------------------------------
# weak-type set machinery
# ---------------------------------------------------------------------------

def aux_phi1(b: DiscreteFunction, f: DiscreteFunction, samples: int | None = None,
             seed: int = 0) -> DiscreteFunction:
    """Shift-averaged smoothed square function of the adapted Haar sum."""
    grid = f.grid
    axis2 = grid.axes[1]
    shifts = list(enumerate_axis_shifts(axis2)) if samples is None else None
    if shifts is None:
        rng = np.random.default_rng(seed)
        shifts = [sample_axis_shift(axis2, rng) for _ in range(samples)]
    acc = np.zeros(grid.shape)
    for sh2 in shifts:
        om = GridShift(AxisShift.zero(grid.axes[0]), sh2)
        phi = adapted_phi(b, f, 1, om)
        sq = np.zeros(grid.shape)
        for _, cube, coeff in haar_profiles(phi, 1, om):
            ind = np.zeros(axis2.n_cells)
            ind[DyadicCube(axis2, cube.level, cube.pos, AxisShift.zero(axis2)).cells()] = 1.0
            sq += np.outer(coeff**2, ind / cube.measure)
        m = maximal_function(DiscreteFunction(grid, np.sqrt(sq)), "axis1")
        acc += m.values
    return DiscreteFunction(grid, acc / len(shifts))


def aux_phi2(f: DiscreteFunction, depth: int, samples: int | None = None,
             seed: int = 0) -> DiscreteFunction:
    """Square sum over base cubes of averaged maximal blocks of the smoothed
    coefficient sum."""
    grid = f.grid
    axis1 = grid.axes[0]
    if samples is None:
        shifts = list(enumerate_axis_shifts(axis1))
    else:
        rng = np.random.default_rng(seed)
        shifts = [sample_axis_shift(axis1, rng) for _ in range(samples)]
    acc = {}
    for sh1 in shifts:
        om = GridShift(sh1, AxisShift.zero(grid.axes[1]))
        phi = phi_function(f, 0, om)
        for lvl in range(axis1.levels - depth):
            for base_pos in range(1 << lvl):
                cube = DyadicCube(axis1, lvl, (base_pos,), sh1)
                blk = martingale_block(phi, cube, depth, 0)
                m = maximal_function(blk, "axis1")
                key = (lvl, base_pos)
                acc[key] = acc.get(key, 0.0) + m.values**2 / len(shifts)
    total = sum(acc.values()) if acc else np.zeros(grid.shape)
    return DiscreteFunction(grid, np.sqrt(total))


def weak_type_sets(
    level_fn: DiscreteFunction,
    E_measure: float,
    r: float,
    C: float = 4.0,
    c_small: float = 0.25,
    u_max: int = 6,
) -> dict:
    """Threshold sets, their maximal enlargements, and the rectangle
    collections owning a fixed fraction of each set, as ids of the unshifted
    lattice (`RectTable`)."""
    grid = level_fn.grid
    out = {"omega": [], "omega_tilde": [], "collections": []}
    prev = None
    table = rect_table(grid, GridShift.zero(grid))
    for u in range(u_max + 1):
        thr = C * 2.0**-u * E_measure ** (-1.0 / r)
        omega = level_fn.values > thr
        tilde = maximal_function(
            DiscreteFunction(grid, omega.astype(float)), "strong"
        ).values > c_small
        coll = np.flatnonzero(table.densities(omega) >= 1.0 / 100)
        out["omega"].append(omega)
        out["omega_tilde"].append(tilde)
        out["collections"].append(coll)
        if prev is not None and not (omega | ~prev).all():
            raise AssertionError("threshold sets must be nested")
        prev = omega
    return out
