"""Commutator calculus: product expansions, adapted maximal functions,
first-order and iterated commutators of model operators, the coefficient
duality estimate and the weak-type set machinery."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Axis,
    AxisBasis,
    AxisShift,
    DiscreteFunction,
    DyadicCube,
    DyadicRectangle,
    GridShift,
    HaarFunction,
    TorusGrid,
    all_rectangles,
    axis_average,
    axis_haar_vector,
    block_index,
    cell_tables,
    enumerate_axis_shifts,
    martingale_block,
    sample_axis_shift,
)
from .measures import (
    bmo_norm,
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


def _canc_rows(o) -> dict[str, np.ndarray]:
    """Haar and averaging rows of the cancellative cubes of one axis: the
    cubes of levels 0..L-1, which come first in the cube order."""
    return {"h": o.haar, "a": o.canc_avg}


def paraproduct_bifactor(kind: int, b: DiscreteFunction, f: DiscreteFunction,
                         shift: GridShift | None = None) -> DiscreteFunction:
    """The eight bi-parameter product-expansion operators (kind 1..8).

    Kinds 1-4 place the full rectangle difference on the symbol; 5-8 mix one
    averaged variable in, matching the product expansion term by term.
    Evaluated through coefficient tables.  b and f may be stacks of
    functions, giving one output per sample."""
    if kind not in _BIFACTOR_ROWS:
        raise ValueError("kind must be 1..8")
    grid = b.grid
    om = shift if shift is not None else GridShift.zero(grid)
    rows1 = _canc_rows(axis_ops(grid.axes[0], om.shift1))
    rows2 = _canc_rows(axis_ops(grid.axes[1], om.shift2))
    vol1, vol2 = grid.axes[0].cell_volume, grid.axes[1].cell_volume

    def tab(g, k):
        return (rows1[k[0]] * vol1) @ g.values @ (rows2[k[1]] * vol2).T

    kb, kf = _BIFACTOR_ROWS[kind]
    # per axis exactly one of symbol, input and output takes the averages
    out1, out2 = ("a" if kb[i] == kf[i] == "h" else "h" for i in (0, 1))
    return DiscreteFunction(grid, rows1[out1].T @ (tab(b, kb) * tab(f, kf)) @ rows2[out2])


def paraproduct_onefactor(kind: int, axis_idx: int, b: DiscreteFunction,
                          f: DiscreteFunction, shift: GridShift | None = None) -> DiscreteFunction:
    """One-variable expansion operators: kind 1 pairs differences with
    differences, kind 2 differences with averages.  b and f may be stacks
    of functions, giving one output per sample."""
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    if axis_idx not in (0, 1):
        raise ValueError("axis_idx must be 0 or 1")
    grid = b.grid
    om = shift if shift is not None else GridShift.zero(grid)
    sh = om.shift1 if axis_idx == 0 else om.shift2
    rows = _canc_rows(axis_ops(grid.axes[axis_idx], sh))
    vol = grid.axes[axis_idx].cell_volume
    f_rows, out_rows = (rows["h"], rows["a"]) if kind == 1 else (rows["a"], rows["h"])
    if axis_idx == 0:
        bprof = (rows["h"] * vol) @ b.values
        fprof = (f_rows * vol) @ f.values
        return DiscreteFunction(grid, out_rows.T @ (bprof * fprof))
    bprof = b.values @ (rows["h"] * vol).T
    fprof = f.values @ (f_rows * vol).T
    return DiscreteFunction(grid, (bprof * fprof) @ out_rows)


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
    only; the windows come from the cached window tables.  b and f may be
    stacks of functions, giving one maximal function per sample."""

    b: DiscreteFunction
    kind: str = "rect"

    def apply(self, f: DiscreteFunction) -> DiscreteFunction:
        grid = f.grid
        af = np.abs(f.values)
        ax1, ax2 = grid.axes
        if self.kind not in ("rect", "axis1", "axis2"):
            raise ValueError(f"unknown adapted maximal kind {self.kind!r}")
        # per factor the window levels, or None to keep the factor whole
        levels1 = [None] if self.kind == "axis2" else range(ax1.levels + 1)
        levels2 = [None] if self.kind == "axis1" else range(ax2.levels + 1)
        tabs1, tabs2 = cell_tables(ax1, None), cell_tables(ax2, None)
        out = np.zeros(np.broadcast_shapes(self.b.values.shape, af.shape))
        bv = np.broadcast_to(self.b.values, out.shape)
        for j1 in levels1:
            for j2 in levels2:
                idx = block_index(None if j1 is None else tabs1[j1], None if j2 is None else tabs2[j2])
                cells = tuple(ax for ax, j in ((-2, j1), (-1, j2)) if j is not None)
                blk = bv[idx]  # a gathered copy, changed in place
                blk -= blk.mean(axis=cells, keepdims=True)
                np.abs(blk, out=blk)
                blk *= af[idx]
                osc = blk.mean(axis=cells)
                # osc holds one value per window, indexed by its start cell
                if j1 is not None:
                    osc = _window_cover(osc, ax1, ax1.n_side >> j1, -2)
                if j2 is not None:
                    osc = _window_cover(osc, ax2, ax2.n_side >> j2, -1)
                np.maximum(out, osc, out=out)
        return DiscreteFunction(grid, out)


def _window_cover(vals: np.ndarray, axis: Axis, width: int, at: int) -> np.ndarray:
    """Per cell, the max of `vals` over the windows of side `width` cells
    that contain the cell, where array axis `at` (negative) of `vals` runs
    over the windows of one factor by start cell.  The window at s covers
    s..s+width-1 in each coordinate, so this is a sliding max per coordinate,
    taken by doubling; max is exact, so it equals a scatter of the maxima."""
    shape = vals.shape
    at = len(shape) + at
    v = vals.reshape(shape[:at] + (axis.n_side,) * axis.dim + shape[at + 1:])
    step = 1
    while step < width:
        for c in range(at, at + axis.dim):
            v = np.maximum(v, np.roll(v, step, axis=c))
        step *= 2
    return v.reshape(shape)


def profile_adapted_max(b_prof: np.ndarray, g_prof: np.ndarray, axis: Axis) -> np.ndarray:
    """One-factor adapted maximal of a profile over all wrapped windows."""
    out = np.zeros(axis.n_cells)
    ag = np.abs(np.asarray(g_prof))
    bb = np.asarray(b_prof)
    for j, tab in enumerate(cell_tables(axis, None)):
        blk = bb[tab]
        osc = (np.abs(blk - blk.mean(axis=1, keepdims=True)) * ag[tab]).mean(axis=1)
        out = np.maximum(out, _window_cover(osc, axis, axis.n_side >> j, -1))
    return out


def adapted_phi(b: DiscreteFunction, f: DiscreteFunction, axis_idx: int,
                shift: GridShift | None = None) -> DiscreteFunction:
    """Haar sum of adapted maximal coefficient profiles: for each cube of one
    factor the slice-averaged symbol drives the one-variable adapted maximal
    in the other variable."""
    grid = f.grid
    om = shift if shift is not None else GridShift.zero(grid)
    axis = grid.axes[axis_idx]
    other = grid.axes[1 - axis_idx]
    sh = om.shift1 if axis_idx == 0 else om.shift2
    basis = AxisBasis(axis, sh)
    out = np.zeros(grid.shape)
    for k, h in enumerate(basis.entries):
        if not h.cancellative:
            continue
        b_slice = axis_average(b, h.cube, axis_idx)
        m = profile_adapted_max(b_slice, f.pair_axis(basis.matrix[k], axis_idx), other)
        out += np.outer(m, basis.matrix[k]) if axis_idx == 1 else np.outer(basis.matrix[k], m)
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
    o2 = axis_ops(grid.axes[1], om.shift2)
    vol2 = grid.axes[1].cell_volume
    worst_gap = 0.0
    worst_osc = 0.0
    for l2, t2 in enumerate(cell_tables(grid.axes[1], om.shift2)):
        cancellative = l2 < grid.axes[1].levels
        if cancellative:
            # one row per cube c2 of this level: its Haar function, the slice
            # average of b over c2 and the Haar coefficient profile of f
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
    avg = np.block([[bb.values[block_index(t1, t2)].mean(axis=(2, 3))
                     for t2 in cell_tables(ax2, om.shift2)]
                    for t1 in cell_tables(ax1, om.shift1)])
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

def commutator_apply(b: DiscreteFunction, U, slot: int,
                     f1: DiscreteFunction, f2: DiscreteFunction) -> DiscreteFunction:
    """[b,U]_slot(f1,f2) = b U(f1,f2) - U(... b f_slot ...)."""
    if slot == 1:
        return b * U.apply(f1, f2) - U.apply(b * f1, f2)
    if slot == 2:
        return b * U.apply(f1, f2) - U.apply(f1, b * f2)
    raise ValueError("slot is 1 or 2")


def iterated_commutator_apply(b2: DiscreteFunction, b1: DiscreteFunction, U,
                              f1: DiscreteFunction, f2: DiscreteFunction) -> DiscreteFunction:
    """[b2, [b1, U]_1]_2 (f1, f2)."""
    inner = lambda g1, g2: b1 * U.apply(g1, g2) - U.apply(b1 * g1, g2)
    return b2 * inner(f1, f2) - inner(f1, b2 * f2)


def commutator_form_direct(b: DiscreteFunction, U, slot: int,
                           f1: DiscreteFunction, f2: DiscreteFunction,
                           f3: DiscreteFunction) -> float:
    """<[b,U]_slot(f1,f2), f3> by definition."""
    if slot == 1:
        return U.form(f1, f2, b * f3) - U.form(b * f1, f2, f3)
    if slot == 2:
        return U.form(f1, f2, b * f3) - U.form(f1, b * f2, f3)
    raise ValueError("slot is 1 or 2")


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
    vol1, vol2 = (ax.cell_volume for ax in grid.axes)
    (h1, h2), (a1, a2), (r1, r2) = (row_pair(grid, shift, k)
                                    for k in (("haar", "haar"), ("canc_avg", "canc_avg"), kinds))
    pair = lambda g: pairing_table(g, shift, kinds)
    if kinds == ("haar", "haar"):
        terms = sum(paraproduct_bifactor(kind, b, f, shift).values for kind in range(1, 9))
        rect_avg = (a1 * vol1) @ b.values @ (a2 * vol2).T
        return pair(DiscreteFunction(grid, terms)) + rect_avg * pair(f)
    if kinds[0] == "haar":
        terms = paraproduct_onefactor(1, 0, b, f, shift) + paraproduct_onefactor(2, 0, b, f, shift)
        return pair(terms) + (((a1 * vol1) @ b.values) * ((h1 * vol1) @ f.values)) @ (r2 * vol2).T
    if kinds[1] == "haar":
        terms = paraproduct_onefactor(1, 1, b, f, shift) + paraproduct_onefactor(2, 1, b, f, shift)
        return pair(terms) + (r1 * vol1) @ ((b.values @ (a2 * vol2).T) * (f.values @ (h2 * vol2).T))
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
    """<[b2, [b1, U]_1]_2 (f1, f2), f3> by definition."""
    return (
        U.form(f1, f2, b1 * b2 * f3)
        - U.form(b1 * f1, f2, b2 * f3)
        - U.form(f1, b2 * f2, b1 * f3)
        + U.form(b1 * f1, b2 * f2, f3)
    )


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
    collection: list[DyadicRectangle],
    a_coeffs: dict,
    b_coeffs: dict,
    om: GridShift,
    grid: TorusGrid,
    density: float = 0.99,
) -> dict:
    """Coefficient-sum bound: sum |a_R b_R| against the oscillation report of
    the shifted coefficients times the square-sum mass of b inside F.

    Rectangles must own at least the stated fraction of their measure inside
    F; the oscillation side uses the certified lower-bound report, so a pass
    verifies a stronger inequality than the target."""
    for rect in collection:
        idx = rect.index()
        frac = F_mask[idx].mean()
        if frac < density - 1e-12:
            raise ValueError("collection violates the density precondition")
    lhs = sum(abs(a_coeffs[r] * b_coeffs[r]) for r in collection)
    # shifted copies of the rectangles carry the a-coefficients
    shifted = {}
    for rect in collection:
        r1 = DyadicCube(rect.cube1.axis, rect.cube1.level, rect.cube1.pos, om.shift1)
        r2 = DyadicCube(rect.cube2.axis, rect.cube2.level, rect.cube2.pos, om.shift2)
        key = DyadicRectangle(r1, r2)
        shifted[key] = shifted.get(key, 0.0) + a_coeffs[rect]
    rep = sequence_product_bmo(grid, shifted, om)
    sq = np.zeros(grid.shape)
    for rect in collection:
        idx = rect.index()
        sq[idx] += abs(b_coeffs[rect]) ** 2 / rect.measure
    integrand = np.sqrt(sq) * F_mask
    integral = float(integrand.sum() * grid.cell_volume)
    rhs = rep.family_value * integral
    return {"lhs": lhs, "rhs": rhs, "bmo_report": rep.family_value,
            "integral": integral,
            "ratio": lhs / rhs if rhs > 0 else (math.inf if lhs > 0 else 0.0)}


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
        basis = AxisBasis(axis2, sh2)
        sq = np.zeros(grid.shape)
        for k, h in enumerate(basis.entries):
            if not h.cancellative:
                continue
            coeff = phi.pair_axis(basis.matrix[k], 1)
            base = h.cube
            ind = np.zeros(axis2.n_cells)
            ind[DyadicCube(axis2, base.level, base.pos, AxisShift.zero(axis2)).cells()] = 1.0
            sq += np.outer(coeff**2, ind / base.measure)
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
    collections owning a fixed fraction of each set."""
    grid = level_fn.grid
    out = {"omega": [], "omega_tilde": [], "collections": []}
    prev = None
    base = GridShift.zero(grid)
    rects = list(all_rectangles(grid, base))
    for u in range(u_max + 1):
        thr = C * 2.0**-u * E_measure ** (-1.0 / r)
        omega = level_fn.values > thr
        tilde = maximal_function(
            DiscreteFunction(grid, omega.astype(float)), "strong"
        ).values > c_small
        coll = [rect for rect in rects if omega[rect.index()].mean() >= 1.0 / 100]
        out["omega"].append(omega)
        out["omega_tilde"].append(tilde)
        out["collections"].append(coll)
        if prev is not None and not (omega | ~prev).all():
            raise AssertionError("threshold sets must be nested")
        prev = omega
    return out
