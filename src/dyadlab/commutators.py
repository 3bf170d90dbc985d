"""Commutator calculus: product expansions, adapted maximal functions,
first-order and iterated commutators of model operators, the coefficient
duality estimate and the weak-type set machinery."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .core import (
    Axis,
    AxisBasis,
    AxisShift,
    DiscreteFunction,
    DyadicCube,
    DyadicRectangle,
    GridShift,
    TorusGrid,
    all_rectangles,
    axis_average,
    block_index,
    cell_tables,
    enumerate_axis_shifts,
    martingale_block,
    sample_shift,
)
from .measures import (
    axis_profile_strong_max,
    maximal_function,
    phi_function,
    sequence_product_bmo,
)
from .model_ops import (
    FullParaproduct,
    PartialParaproduct,
    ShiftOperator,
    axis_ops,
)

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
    "atomic_terms",
    "coefficient_duality_check",
    "weak_type_sets",
    "aux_phi1",
    "aux_phi2",
]


# ---------------------------------------------------------------------------
# the eight bi-parameter and four one-parameter paraproduct operators
# ---------------------------------------------------------------------------

def _avg1(f: DiscreteFunction, cube: DyadicCube) -> DiscreteFunction:
    out = np.zeros_like(f.values)
    cells = cube.cells()
    out[cells, :] = f.values[cells, :].mean(axis=0)[None, :]
    return DiscreteFunction(f.grid, out)


def _avg2(f: DiscreteFunction, cube: DyadicCube) -> DiscreteFunction:
    out = np.zeros_like(f.values)
    cells = cube.cells()
    out[:, cells] = f.values[:, cells].mean(axis=1)[:, None]
    return DiscreteFunction(f.grid, out)


# per kind, the rows the symbol and the input pair with on (axis 1, axis 2):
# 'h' the cancellative Haar rows, 'a' the averaging rows of the same cubes
_BIFACTOR_ROWS = {1: ("hh", "hh"), 2: ("hh", "ah"), 3: ("hh", "ha"), 4: ("hh", "aa"),
                  5: ("ah", "hh"), 6: ("ah", "ha"), 7: ("ha", "hh"), 8: ("ha", "ah")}


def _canc_rows(o) -> dict[str, np.ndarray]:
    """Haar and averaging rows of the cancellative cubes of one axis: the
    cubes of levels 0..L-1, which come first in the cube order."""
    return {"h": o.haar, "a": o.avg[: o.cube_offset[o.axis.levels]]}


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
    from .core import HaarFunction, axis_haar_vector

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
    grid = b.grid
    om = shift if shift is not None else GridShift.zero(grid)
    from .core import HaarFunction, axis_haar_vector

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
        bav = _avg1(b, c1).values[c1.cells()[0], :]  # profile in x2
        coeff = f.pair_axis(h, 0)  # profile in x2
        cells2 = c2.cells()
        gap = (bav[cells2] - _rect_avg(b, c1, c2)) * coeff[cells2]
        boundary = float(gap.mean())
    else:
        bav = _avg2(b, c2).values[:, c2.cells()[0]]
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
    from .measures import bmo_norm

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

def atomic_terms(U) -> Iterable[tuple[float, list[tuple[DyadicCube, str, DyadicCube, str]]]]:
    """Flatten a model operator into scalar-weighted pairing atoms.

    Yields (coefficient, [(cube1, kind1, cube2, kind2)] per slot) where kind
    'h' pairs with the Haar function and 'a' with the averaging profile
    1_Q/|Q| (normalisation absorbed into the coefficient)."""
    grid = U.grid
    o1 = axis_ops(grid.axes[0], U.shift.shift1)
    o2 = axis_ops(grid.axes[1], U.shift.shift2)
    if isinstance(U, ShiftOperator):
        for (kk, vv), block in U.coeffs.items():
            qs1 = [o1.descendant_positions(kk[0], kk[1], d) for d in U.k]
            qs2 = [o2.descendant_positions(vv[0], vv[1], d) for d in U.v]
            it = np.ndindex(*block.shape)
            for idx in it:
                coef = block[idx]
                if coef == 0.0:
                    continue
                specs = []
                scale = 1.0
                for s in range(3):
                    lvl1 = kk[0] + U.k[s]
                    lvl2 = vv[0] + U.v[s]
                    c1 = DyadicCube(grid.axes[0], lvl1, (int(qs1[s][idx[s]]),), U.shift.shift1)
                    c2 = DyadicCube(grid.axes[1], lvl2, (int(qs2[s][idx[3 + s]]),), U.shift.shift2)
                    k1 = "a" if U.pattern[0] == s + 1 else "h"
                    k2 = "a" if U.pattern[1] == s + 1 else "h"
                    if k1 == "a":
                        scale *= c1.measure**0.5
                    if k2 == "a":
                        scale *= c2.measure**0.5
                    specs.append((c1, k1, c2, k2))
                yield coef * scale, specs
    elif isinstance(U, FullParaproduct):
        for i, cK in enumerate(o1.canc_cubes):
            for j, cV in enumerate(o2.canc_cubes):
                coef = U.lam[i, j]
                if coef == 0.0:
                    continue
                specs = []
                for s in (1, 2, 3):
                    k1 = "h" if U.pattern[0] == s else "a"
                    k2 = "h" if U.pattern[1] == s else "a"
                    specs.append((cK, k1, cV, k2))
                yield coef, specs
    elif isinstance(U, PartialParaproduct):
        sops = o1 if U.shift_axis == 0 else o2
        pops = o2 if U.shift_axis == 0 else o1
        paxis = grid.axes[U.para_axis]
        psh = U.shift.shift2 if U.shift_axis == 0 else U.shift.shift1
        vol = paxis.cell_volume
        for (kk, idx), prof in U.symbols.items():
            qs = [sops.descendant_positions(kk[0], kk[1], d) for d in U.k]
            shift_cubes = []
            scale0 = 1.0
            for s in range(3):
                lvl = kk[0] + U.k[s]
                c = DyadicCube(grid.axes[U.shift_axis], lvl, (int(qs[s][idx[s]]),),
                               U.shift.shift1 if U.shift_axis == 0 else U.shift.shift2)
                kind = "a" if U.h0_slot == s + 1 else "h"
                if kind == "a":
                    scale0 *= c.measure**0.5
                shift_cubes.append((c, kind))
            bb = (pops.haar * vol) @ prof
            for vi, cV in enumerate(pops.canc_cubes):
                coef = bb[vi]
                if coef == 0.0:
                    continue
                specs = []
                for s in (1, 2, 3):
                    kp = "h" if U.ptype == s else "a"
                    cs, ks = shift_cubes[s - 1]
                    if U.shift_axis == 0:
                        specs.append((cs, ks, cV, kp))
                    else:
                        specs.append((cV, kp, cs, ks))
                yield coef * scale0, specs
    else:
        raise TypeError(f"no atomic expansion for {type(U).__name__}")


def _pair_spec(f: DiscreteFunction, spec) -> float:
    c1, k1, c2, k2 = spec
    from .core import HaarFunction, axis_haar_vector

    v1 = axis_haar_vector(HaarFunction(c1, (1,))) if k1 == "h" else _norm_ind(c1)
    v2 = axis_haar_vector(HaarFunction(c2, (1,))) if k2 == "h" else _norm_ind(c2)
    return float(f.pair(DiscreteFunction(f.grid, np.outer(v1, v2))))


def _norm_ind(cube: DyadicCube) -> np.ndarray:
    v = np.zeros(cube.axis.n_cells)
    v[cube.cells()] = 1.0 / cube.measure
    return v


class ExpansionContext:
    """Precomputed pair tables for the product expansions of one (b, f) pair.

    After construction, the expansion of <b f, phi1 x phi2> for any cube pair
    and cancellative/averaged kind combination is a table lookup, which makes
    the decomposed commutator evaluation linear in the atom count."""

    def __init__(self, b: DiscreteFunction, f: DiscreteFunction, om: GridShift):
        grid = f.grid
        self.grid = grid
        self.om = om
        o1 = axis_ops(grid.axes[0], om.shift1)
        o2 = axis_ops(grid.axes[1], om.shift2)
        self.o1, self.o2 = o1, o2
        n1c = o1.haar.shape[0]
        n2c = o2.haar.shape[0]
        tables = lambda g: _PairOnly(g, om).t

        sumA = grid.zeros()
        for kind in range(1, 9):
            sumA = sumA + paraproduct_bifactor(kind, b, f, om)
        sum_a1 = paraproduct_onefactor(1, 0, b, f, om) + paraproduct_onefactor(2, 0, b, f, om)
        sum_a2 = paraproduct_onefactor(1, 1, b, f, om) + paraproduct_onefactor(2, 1, b, f, om)
        self.t_A = tables(sumA)
        self.t_a1 = tables(sum_a1)
        self.t_a2 = tables(sum_a2)
        self.t_b = tables(b)
        self.t_f = tables(f)
        self.t_bf = tables(b * f)
        # boundary matrices: slice-average gap of the symbol against the
        # one-variable Haar coefficients, averaged over the other cube
        vol1 = grid.axes[0].cell_volume
        vol2 = grid.axes[1].cell_volume
        self.bnd1 = np.zeros((n1c, o2.avg.shape[0]))
        for i, cube in enumerate(o1.canc_cubes):
            coeff = (o1.haar[i] * vol1) @ f.values
            self.bnd1[i] = (o2.avg * vol2) @ (axis_average(b, cube, 0) * coeff)
        self.bnd2 = np.zeros((o1.avg.shape[0], n2c))
        for j, cube in enumerate(o2.canc_cubes):
            coeff = f.values @ (o2.haar[j] * vol2)
            self.bnd2[:, j] = (o1.avg * vol1) @ (axis_average(b, cube, 1) * coeff)

    def _indices(self, spec):
        c1, k1, c2, k2 = spec
        i = self.o1.canc_index(c1.level, c1.pos[0]) if k1 == "h" else self.o1.cube_index(c1.level, c1.pos[0])
        j = self.o2.canc_index(c2.level, c2.pos[0]) if k2 == "h" else self.o2.cube_index(c2.level, c2.pos[0])
        return i, j

    def expand(self, spec) -> tuple[float, float, float]:
        """(structured terms sum, rectangle symbol average, plain pairing)."""
        c1, k1, c2, k2 = spec
        i, j = self._indices(spec)
        ia = self.o1.cube_index(c1.level, c1.pos[0])
        ja = self.o2.cube_index(c2.level, c2.pos[0])
        avg_coef = self.t_b[("a", "a")][ia, ja]
        base = self.t_f[(k1, k2)][i, j]
        if k1 == "h" and k2 == "h":
            terms = self.t_A[("h", "h")][i, j]
        elif k1 == "h" and k2 == "a":
            terms = self.t_a1[("h", "a")][i, j] + self.bnd1[i, ja] - avg_coef * base
            # the boundary matrix carries the raw slice pairing; subtracting
            # the rectangle average leaves the gap term of the expansion
        elif k1 == "a" and k2 == "h":
            terms = self.t_a2[("a", "h")][i, j] + self.bnd2[ia, j] - avg_coef * base
        else:
            terms = self.t_bf[("a", "a")][ia, ja] - avg_coef * base
        return float(terms), float(avg_coef), float(base)


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


def commutator_form_decomposed(b: DiscreteFunction, U, slot: int,
                               f1: DiscreteFunction, f2: DiscreteFunction,
                               f3: DiscreteFunction) -> float:
    """Same value assembled through the product expansions per pairing atom;
    the two remainder averages combine into an ancestor-gap factor."""
    om = U.shift
    fs = (f1, f2, f3)
    ctx3 = ExpansionContext(b, f3, om)
    ctxj = ExpansionContext(b, fs[slot - 1], om)
    other = 1 if slot == 1 else 0
    ctx_other = _PairOnly(fs[other], om)
    total = 0.0
    for coef, specs in atomic_terms(U):
        p = [0.0, 0.0, 0.0]
        p[other] = ctx_other.pair(specs[other])
        p[slot - 1] = ctxj.expand(specs[slot - 1])[2]
        p[2] = ctx3.expand(specs[2])[2]
        t3, c3, _ = ctx3.expand(specs[2])
        tj, cj, _ = ctxj.expand(specs[slot - 1])
        if slot == 1:
            total += coef * (p[0] * p[1] * t3 - tj * p[1] * p[2]
                             + (c3 - cj) * p[0] * p[1] * p[2])
        else:
            total += coef * (p[0] * p[1] * t3 - p[0] * tj * p[2]
                             + (c3 - cj) * p[0] * p[1] * p[2])
    return total


class _PairOnly:
    """Pairing tables of one function against every cube/kind pair."""

    def __init__(self, f: DiscreteFunction, om: GridShift):
        grid = f.grid
        self.o1 = axis_ops(grid.axes[0], om.shift1)
        self.o2 = axis_ops(grid.axes[1], om.shift2)
        rows1 = {"h": self.o1.haar, "a": self.o1.avg}
        rows2 = {"h": self.o2.haar, "a": self.o2.avg}
        self.t = {
            (k1, k2): (rows1[k1] * grid.axes[0].cell_volume) @ f.values
            @ (rows2[k2] * grid.axes[1].cell_volume).T
            for k1 in ("h", "a") for k2 in ("h", "a")
        }

    def pair(self, spec) -> float:
        c1, k1, c2, k2 = spec
        i = self.o1.canc_index(c1.level, c1.pos[0]) if k1 == "h" else self.o1.cube_index(c1.level, c1.pos[0])
        j = self.o2.canc_index(c2.level, c2.pos[0]) if k2 == "h" else self.o2.cube_index(c2.level, c2.pos[0])
        return float(self.t[(k1, k2)][i, j])


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
    """Iterated commutator through nested product expansions: the first
    symbol expands against slots 1/3, the second against slots 2/3, with the
    remainder averages recombined at each stage."""
    om = U.shift
    cx_11 = ExpansionContext(b1, f1, om)
    cx_13 = ExpansionContext(b1, f3, om)
    cx_22 = ExpansionContext(b2, f2, om)
    cx_23 = ExpansionContext(b2, f3, om)
    cx_123 = ExpansionContext(b1, b2 * f3, om)
    tb1 = _PairOnly(f1, om)
    tb2 = _PairOnly(f2, om)
    tb3 = _PairOnly(f3, om)
    total = 0.0
    for coef, specs in atomic_terms(U):
        p1 = tb1.pair(specs[0])
        p2 = tb2.pair(specs[1])
        p3 = tb3.pair(specs[2])
        # stage one: b1 against slot 1 and slot 3
        t1_b1, c1_b1, _ = cx_11.expand(specs[0])
        t3_b1, c3_b1, _ = cx_13.expand(specs[2])
        # stage two: b2 against slot 2 and slot 3, applied to each stage-one
        # piece; products of symbols expand through the inner function
        t2_b2, c2_b2, _ = cx_22.expand(specs[1])
        t3_b2, c3_b2, _ = cx_23.expand(specs[2])
        t3_b1b2, c3_b1b2, _ = cx_123.expand(specs[2])
        # direct assembly of the four defining pairings via expansions
        q3_b2 = t3_b2 + c3_b2 * p3                      # <b2 f3, phi3>
        q3_b1b2 = t3_b1b2 + c3_b1b2 * q3_b2             # <b1 b2 f3, phi3>
        q1_b1 = t1_b1 + c1_b1 * p1                      # <b1 f1, phi1>
        q2_b2 = t2_b2 + c2_b2 * p2                      # <b2 f2, phi2>
        total += coef * (
            p1 * p2 * q3_b1b2
            - q1_b1 * p2 * q3_b2
            - p1 * q2_b2 * (t3_b1 + c3_b1 * p3)
            + q1_b1 * q2_b2 * p3
        )
    return total


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
        from .core import sample_axis_shift

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
        from .core import sample_axis_shift

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
