"""Weight characteristics, norms, BMO scales, maximal and square functions."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (
    Axis,
    AxisBasis,
    AxisShift,
    DiscreteFunction,
    GridShift,
    TorusGrid,
    axis_cubes,
    axis_project,
    cell_tables,
    enumerate_shifts,
    martingale_block,
    per_sample,
    rect_blocks,
    sample_shift,
    slice_blocks,
)

__all__ = [
    "Weight",
    "NormReport",
    "ap_characteristic",
    "ainfty_characteristic",
    "lp_norm",
    "mixed_norm",
    "bmo_norm",
    "ProductBmoReport",
    "sequence_product_bmo",
    "maximal_function",
    "axis_profile_strong_max",
    "square_function",
    "phi_function",
    "lower_sf_check",
]


class Weight:
    """Strictly positive density on the grid; dual weights are exact cellwise."""

    __slots__ = ("fn",)

    def __init__(self, fn: DiscreteFunction):
        if np.iscomplexobj(fn.values):
            raise ValueError("weights are real")
        if fn.values.min() <= 0:
            raise ValueError("weight must be strictly positive")
        self.fn = fn

    @property
    def grid(self) -> TorusGrid:
        return self.fn.grid

    @property
    def values(self) -> np.ndarray:
        return self.fn.values

    def dual(self, p: float) -> "Weight":
        """w^(1-p') for the conjugate exponent p' of p."""
        pprime = p / (p - 1.0)
        return Weight(DiscreteFunction(self.grid, self.values ** (1.0 - pprime)))

    def power(self, a: float) -> "Weight":
        return Weight(DiscreteFunction(self.grid, self.values**a))

    @staticmethod
    def ones(grid: TorusGrid) -> "Weight":
        return Weight(grid.constant(1.0))


@dataclass(frozen=True)
class NormReport:
    kind: str
    exponents: tuple
    value: float
    grid_id: str = ""
    weight_id: str = ""
    seed: int | None = None
    quasi: bool = False


# ---------------------------------------------------------------------------
# weight characteristics
# ---------------------------------------------------------------------------

def ap_characteristic(
    w: Weight,
    p: float,
    scope: str = "biparameter",
    shift: GridShift | None = None,
    over_all_shifts: bool = False,
) -> float:
    """sup over rectangles of <w>_R <w^(1-p')>_R^(p-1).

    scope 'biparameter' runs over dyadic rectangles of the given (or zero)
    shift, or with over_all_shifts over the rectangles of every shift, which
    are exactly the wrapped boxes of dyadic side lengths; 'axis1'/'axis2' take
    the worst one-parameter characteristic over slices of the other variable.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    dual = w.dual(p).values
    wv = w.values
    grid = w.grid
    if scope in ("axis1", "axis2"):
        axis_idx = 0 if scope == "axis1" else 1
        return _slice_ap(wv, dual, grid, axis_idx, p, shift, over_all_shifts)
    if scope != "biparameter":
        raise ValueError(f"unknown scope {scope!r}")
    best = 0.0
    for idx in rect_blocks(grid, _lattice(grid, shift, over_all_shifts)):
        val = wv[idx].mean(axis=(2, 3)) * dual[idx].mean(axis=(2, 3)) ** (p - 1.0)
        best = max(best, float(val.max()))
    return best


def _lattice(grid: TorusGrid, shift: GridShift | None, over_all_shifts: bool) -> GridShift | None:
    """The shift whose cubes a sup runs over: None (every shift) or the given
    one, defaulting to zero."""
    if over_all_shifts:
        return None
    return shift if shift is not None else GridShift.zero(grid)


def _slice_ap(wv, dual, grid, axis_idx, p, shift, over_all_shifts):
    best = 0.0
    for idx in slice_blocks(grid, axis_idx, _lattice(grid, shift, over_all_shifts)):
        a = wv[idx].mean(axis=axis_idx + 1)
        b = dual[idx].mean(axis=axis_idx + 1)
        best = max(best, float((a * b ** (p - 1.0)).max()))
    return best


def ainfty_characteristic(
    w: Weight,
    scope: str = "biparameter",
    shift: GridShift | None = None,
    over_all_shifts: bool = False,
) -> float:
    """sup of <w>_Q exp(<log 1/w>_Q) over the requested cube/rectangle family."""
    wv = w.values
    logw = np.log(wv)
    grid = w.grid
    best = 0.0
    if scope in ("axis1", "axis2"):
        axis_idx = 0 if scope == "axis1" else 1
        for idx in slice_blocks(grid, axis_idx, _lattice(grid, shift, over_all_shifts)):
            a = wv[idx].mean(axis=axis_idx + 1)
            l = logw[idx].mean(axis=axis_idx + 1)
            best = max(best, float((a * np.exp(-l)).max()))
        return best
    for idx in rect_blocks(grid, _lattice(grid, shift, over_all_shifts)):
        val = wv[idx].mean(axis=(2, 3)) * np.exp(-logw[idx].mean(axis=(2, 3)))
        best = max(best, float(val.max()))
    return best


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def lp_norm(f: DiscreteFunction, p: float, w: Weight | None = None) -> float | np.ndarray:
    """Exact L^p(w) (quasi-)norm; p = inf takes the cell max.  A stack of
    functions gives one norm per sample."""
    dens = 1.0 if w is None else w.values
    a = np.abs(f.values)
    if math.isinf(p):
        return per_sample(a.max(axis=(-2, -1)))
    if p <= 0:
        raise ValueError("p must be positive")
    return per_sample(((a**p * dens).sum(axis=(-2, -1)) * f.grid.cell_volume) ** (1.0 / p))


def mixed_norm(
    f: DiscreteFunction,
    exponents: tuple[float, float],
    weights: tuple[Weight | None, Weight | None] = (None, None),
) -> float:
    """Outer L^{p1}(axis 1) norm of the inner L^{p2}(axis 2) slice norms.

    Per-axis weights must be tensor factors: each weight is read off as an
    axis profile (constant in the other variable).
    """
    p1, p2 = exponents
    vol1 = f.grid.axes[0].cell_volume
    vol2 = f.grid.axes[1].cell_volume
    a = np.abs(f.values)
    w2 = 1.0 if weights[1] is None else weights[1].values[0, :]
    if math.isinf(p2):
        inner = a.max(axis=1)
    else:
        inner = ((a**p2 * w2).sum(axis=1) * vol2) ** (1.0 / p2)
    w1 = 1.0 if weights[0] is None else weights[0].values[:, 0]
    if math.isinf(p1):
        return float(inner.max())
    return float(((inner**p1 * w1).sum() * vol1) ** (1.0 / p1))


# ---------------------------------------------------------------------------
# BMO family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductBmoReport:
    """Certified lower bound for the rectangle-square-sum oscillation norm.

    family_value is the sup over the generated open-set family; it never
    exceeds the true supremum.  single_rectangle is the sup over single
    rectangles, kept separately because several inequalities only need it.
    """

    family_value: float
    single_rectangle: float
    n_sets: int

    @property
    def value(self) -> float:
        return self.family_value


def bmo_norm(
    b: DiscreteFunction,
    kind: str = "little",
    shift: GridShift | None = None,
    over_all_shifts: bool = False,
    omega_pool: int = 24,
    omega_union: int = 3,
    seed: int = 0,
):
    """Oscillation norms.

    kind 'axis1'/'axis2': worst one-parameter dyadic BMO norm over slices.
    kind 'little': sup over dyadic rectangles of <|b - <b>_R|>_R; a stack
    of symbols gives one norm per sample.
    With over_all_shifts these sups run over the cubes/rectangles of every
    shift, i.e. over all wrapped windows of dyadic side lengths.
    kind 'product': lower-bound report for the square-sum norm over a
    structured family of open sets (single rectangles, bounded unions from a
    seeded pool, and upper-level sets of the coefficient Carleson density).
    """
    grid = b.grid
    om = shift if shift is not None else GridShift.zero(grid)
    if kind in ("axis1", "axis2"):
        axis_idx = 0 if kind == "axis1" else 1
        return _slice_bmo(b, axis_idx, om, over_all_shifts)
    if kind == "little":
        best = 0.0
        for idx in rect_blocks(grid, _lattice(grid, om, over_all_shifts)):
            blk = b.values[idx]  # a gathered copy, changed in place
            blk -= blk.mean(axis=(-2, -1), keepdims=True)
            osc = np.abs(blk, out=blk).mean(axis=(-2, -1))
            best = np.maximum(best, osc.max(axis=(-2, -1)))
        return per_sample(best)
    if kind == "product":
        b1 = AxisBasis(grid.axes[0], om.shift1)
        b2 = AxisBasis(grid.axes[1], om.shift2)
        C = b1.transform() @ b.values @ b2.transform().T
        canc1 = [i for i, h in enumerate(b1.entries) if h.cancellative]
        canc2 = [j for j, h in enumerate(b2.entries) if h.cancellative]
        # a cancellative Haar function is nonzero on every cell of its cube;
        # with dim >= 2 one cube carries several signatures, so rows repeat
        on1, on2 = b1.matrix[canc1] != 0, b2.matrix[canc2] != 0
        masks = (on1[:, None, :, None] & on2[None, :, None, :]).reshape(len(canc1) * len(canc2), -1)
        c2 = np.array([abs(c) ** 2 for c in C[np.ix_(canc1, canc2)].ravel()])
        return _product_bmo(grid, masks, c2, omega_pool, omega_union, seed)
    raise ValueError(f"unknown bmo kind {kind!r}")


def _slice_bmo(b: DiscreteFunction, axis_idx: int, shift: GridShift,
               over_all_shifts: bool) -> float:
    best = 0.0
    ax = axis_idx + 1
    for idx in slice_blocks(b.grid, axis_idx, _lattice(b.grid, shift, over_all_shifts)):
        blk = b.values[idx]
        osc = np.abs(blk - blk.mean(axis=ax, keepdims=True)).mean(axis=ax)
        best = max(best, float(osc.max()))
    return best


def _lower_levels(values: np.ndarray) -> np.ndarray:
    """The distinct values but the largest, ascending: np.unique(values)[:-1]
    without the numpy.ma import np.unique makes on its first call."""
    s = np.sort(values)
    return s[:-1][s[1:] != s[:-1]]


def _product_bmo(grid: TorusGrid, masks: np.ndarray, c2: np.ndarray,
                 pool: int, union: int, seed: int) -> ProductBmoReport:
    """The open-set search behind both product-oscillation reports.

    masks (R x cells) marks the cells of each rectangle and c2 holds its
    squared coefficient.  A candidate set S scores sqrt(sum of c2 over the
    rectangles inside S / |S|); the candidates are the single rectangles,
    unions of 2..`union` rectangles from a seeded pool of `pool`, and the
    upper-level sets of sum_R c2_R / |R| 1_R.  Containment of every
    rectangle in every candidate is one boolean matrix product.
    """
    n_rect = len(masks)
    # sequential sums over the rectangles, in order (the level sets depend
    # on exact ties in the density)
    sq = (c2 / (masks.sum(axis=1) * grid.cell_volume))[:, None] * masks
    sq = sq.sum(axis=0)
    rng = np.random.default_rng(seed)
    pool_idx = rng.choice(n_rect, size=min(pool, n_rect), replace=False).tolist()
    # one gather per union size, the unions in itertools.combinations order
    unions = [masks[np.fromiter(itertools.chain.from_iterable(itertools.combinations(pool_idx, k)),
                                dtype=np.intp).reshape(-1, k)].any(axis=1)
              for k in range(2, union + 1)]
    levels = _lower_levels(sq)
    sets = np.vstack([masks, *unions, sq[None, :] > levels[:, None]])
    inside = ~((~sets) @ masks.T)
    # one rectangle at a time: an (R x sets) float temporary would set the
    # peak memory of a whole suite
    total = np.zeros(len(sets))
    for r in range(n_rect):
        total += c2[r] * inside[:, r]
    values = np.sqrt(total / (sets.sum(axis=1) * grid.cell_volume))
    return ProductBmoReport(float(values.max(initial=0.0)), float(values[:n_rect].max(initial=0.0)),
                            len(sets))


def sequence_product_bmo(
    grid: TorusGrid,
    coeffs: dict,
    om: GridShift,
    omega_union: int = 3,
    pool: int = 24,
    seed: int = 0,
) -> ProductBmoReport:
    """Lower-bound oscillation norm for a scalar family keyed by rectangles.

    coeffs maps DyadicRectangle -> scalar; the same open-set family as the
    function version is used on the given coefficients.
    """
    masks = np.zeros((len(coeffs), grid.shape[0] * grid.shape[1]), dtype=bool)
    for m, rect in zip(masks, coeffs):
        m.reshape(grid.shape)[rect.index()] = True
    c2 = np.array([abs(c) ** 2 for c in coeffs.values()], dtype=float)
    return _product_bmo(grid, masks, c2, pool, omega_union, seed)


# ---------------------------------------------------------------------------
# maximal functions
# ---------------------------------------------------------------------------

def maximal_function(
    f: DiscreteFunction,
    kind: str = "dyadic",
    shift: GridShift | None = None,
    s: float = 1.0,
) -> DiscreteFunction:
    """Pointwise sup of rectangle averages of |f|.

    kind 'dyadic': rectangles of one shifted lattice.  kind 'strong': sup over
    the rectangles of every shifted lattice, which on the torus is exactly the
    sup over all wrapped boxes of dyadic side lengths (any start), so it is
    computed on the window tables.  kind 'axis1'/'axis2': the one-parameter
    strong operator in a single variable.  s > 1 applies the power trick
    M_s f = (M |f|^s)^(1/s).
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    grid = f.grid
    a = np.abs(f.values) ** s
    ax1, ax2 = grid.axes
    if kind == "dyadic":
        out = _dyadic_max(a, grid, shift if shift is not None else GridShift.zero(grid))
    elif kind in ("strong", "axis1", "axis2"):
        # a one-variable window is a rectangle whose other side is one cell
        tabs1, tabs2 = cell_tables(ax1, None), cell_tables(ax2, None)
        out = _box_max(a, tabs1 if kind != "axis2" else tabs1[-1:], tabs2 if kind != "axis1" else tabs2[-1:])
    else:
        raise ValueError(f"unknown maximal kind {kind!r}")
    return DiscreteFunction(grid, out ** (1.0 / s))


def _box_max(a: np.ndarray, tabs1: list[np.ndarray], tabs2: list[np.ndarray]) -> np.ndarray:
    """Per-cell sup of the means of `a` over the rectangles of every pair of
    rows of one cell table per factor.  Rectangle means and the sup over the
    rectangles holding a cell both separate by factor, so the work is linear
    in each factor's window size, not in the rectangle's area."""
    out = np.zeros(a.shape)
    for t1 in tabs1:
        means1 = a[t1].mean(axis=1)  # (m1, n2)
        for t2 in tabs2:
            means = means1.T[t2].mean(axis=1)  # (m2, m1)
            cover = np.zeros((a.shape[1], len(t1)))
            np.maximum.at(cover, t2, means[:, None, :])
            np.maximum.at(out, t1, cover.T[:, None, :])
    return out


def _dyadic_max(a: np.ndarray, grid: TorusGrid, om: GridShift) -> np.ndarray:
    return _box_max(a, cell_tables(grid.axes[0], om.shift1), cell_tables(grid.axes[1], om.shift2))


def axis_profile_strong_max(vec: np.ndarray, axis: Axis) -> np.ndarray:
    """Strong maximal function of a single-factor profile, taken as a grid
    whose second factor is one cell."""
    a = np.abs(np.asarray(vec, dtype=float))[:, None]
    return _box_max(a, cell_tables(axis, None), [np.zeros((1, 1), dtype=np.intp)])[:, 0]


# ---------------------------------------------------------------------------
# square functions
# ---------------------------------------------------------------------------

def square_function(
    f: DiscreteFunction,
    kind: str = "rect",
    shift: GridShift | None = None,
    depths: tuple[int, int] = (0, 0),
    shift_samples: int | None = None,
    seed: int = 0,
    family: Callable[[GridShift], Callable[[DiscreteFunction], DiscreteFunction]] | None = None,
) -> DiscreteFunction:
    """Square functions over the lattice decomposition of f.

    kinds: 'rect' (bi-parameter differences), 'axis1'/'axis2' (one-parameter
    differences in one variable), 'phi1'/'phi2' (maximal-smoothed versions),
    'block' (bi-parameter blocks at the given depths, averaged over shifts),
    'block1'/'block2' (one-parameter blocks at depths[0]).  The kinds 'rect',
    'axis1' and 'axis2' also take a stack of functions.

    For the block kinds the expectation over shifts is exact when
    shift_samples is None (full enumeration) and Monte-Carlo otherwise; an
    optional per-shift operator family is applied to f inside the square.
    """
    grid = f.grid
    om = shift if shift is not None else GridShift.zero(grid)
    if kind == "rect":
        return _sf_rect(f, om)
    if kind in ("axis1", "axis2"):
        return _sf_axis(f, om, 0 if kind == "axis1" else 1)
    if kind in ("phi1", "phi2"):
        return _sf_phi(f, om, 0 if kind == "phi1" else 1)
    if kind in ("block", "block1", "block2"):
        return _sf_block(f, kind, depths, shift_samples, seed, family)
    raise ValueError(f"unknown square function kind {kind!r}")


def _axis_groups(f: DiscreteFunction, axis_idx: int, shift: AxisShift):
    """Orthogonal one-variable decomposition, one piece per level, with the
    coarsest scale carrying difference plus average (so the pieces sum back
    to f exactly)."""
    coarse = axis_project(f, 1, axis_idx, shift)
    yield coarse  # top cube: Delta + E
    # the differences of one level have disjoint cube supports, so one
    # E_{l+1} f - E_l f carries the squares of all of them
    for level in range(2, f.grid.axes[axis_idx].levels + 1):
        fine = axis_project(f, level, axis_idx, shift)
        yield fine - coarse
        coarse = fine


def _sf_rect(f: DiscreteFunction, om: GridShift) -> DiscreteFunction:
    grid = f.grid
    acc = np.zeros(f.values.shape)
    for g1 in _axis_groups(f, 0, om.shift1):
        for g2 in _axis_groups(g1, 1, om.shift2):
            acc += np.abs(g2.values) ** 2
    return DiscreteFunction(grid, np.sqrt(acc))


def _sf_axis(f: DiscreteFunction, om: GridShift, axis_idx: int) -> DiscreteFunction:
    grid = f.grid
    shift = om.shift1 if axis_idx == 0 else om.shift2
    acc = np.zeros(f.values.shape)
    for g in _axis_groups(f, axis_idx, shift):
        acc += np.abs(g.values) ** 2
    return DiscreteFunction(grid, np.sqrt(acc))


def _sf_phi(f: DiscreteFunction, om: GridShift, axis_idx: int) -> DiscreteFunction:
    # smoothed version: Haar coefficient profiles run through the strong
    # one-dimensional maximal operator on the other axis
    grid = f.grid
    axis = grid.axes[axis_idx]
    other = grid.axes[1 - axis_idx]
    shift = om.shift1 if axis_idx == 0 else om.shift2
    basis = AxisBasis(axis, shift)
    acc = np.zeros(grid.shape)
    for i, h in enumerate(basis.entries):
        if not h.cancellative:
            continue
        coeff = f.pair_axis(basis.matrix[i], axis_idx)
        m = axis_profile_strong_max(coeff, other)
        prof = basis.matrix[i] ** 2
        if axis_idx == 0:
            acc += np.outer(prof, m**2)
        else:
            acc += np.outer(m**2, prof)
    return DiscreteFunction(grid, np.sqrt(acc))


def _sf_block(f, kind, depths, shift_samples, seed, family):
    # sum over base rectangles of the averaged squared maximal function of
    # the shifted martingale blocks at the given depth offsets
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
        g = family(om)(f) if family is not None else f
        if kind == "block":
            for l1 in range(grid.axes[0].levels - i):
                for c1 in axis_cubes(grid.axes[0], l1, om.shift1):
                    g1 = martingale_block(g, c1, i, 0)
                    for l2 in range(grid.axes[1].levels - j):
                        for c2 in axis_cubes(grid.axes[1], l2, om.shift2):
                            blk = martingale_block(g1, c2, j, 1)
                            acc += wt * maximal_function(blk, "strong").values ** 2
        else:
            axis_idx = 0 if kind == "block1" else 1
            sh = om.shift1 if axis_idx == 0 else om.shift2
            for l in range(grid.axes[axis_idx].levels - i):
                for c in axis_cubes(grid.axes[axis_idx], l, sh):
                    blk = martingale_block(g, c, i, axis_idx)
                    acc += wt * maximal_function(blk, "strong").values ** 2
    return DiscreteFunction(grid, np.sqrt(acc))


def phi_function(
    f: DiscreteFunction,
    axis_idx: int,
    shift: GridShift | None = None,
    profile_op: Callable[[np.ndarray], np.ndarray] | None = None,
) -> DiscreteFunction:
    """Maximal-smoothed Haar sum: sum_I h_I tensor M<f, h_I>_axis.

    profile_op replaces the strong maximal operator applied to the Haar
    coefficient profiles (the adapted-symbol variants pass their own)."""
    grid = f.grid
    om = shift if shift is not None else GridShift.zero(grid)
    axis = grid.axes[axis_idx]
    other = grid.axes[1 - axis_idx]
    sh = om.shift1 if axis_idx == 0 else om.shift2
    basis = AxisBasis(axis, sh)
    if profile_op is None:
        profile_op = lambda vec: axis_profile_strong_max(vec, other)
    out = np.zeros(grid.shape)
    for k, h in enumerate(basis.entries):
        if not h.cancellative:
            continue
        coeff = f.pair_axis(basis.matrix[k], axis_idx)
        m = profile_op(coeff)
        if axis_idx == 0:
            out += np.outer(basis.matrix[k], m)
        else:
            out += np.outer(m, basis.matrix[k])
    return DiscreteFunction(grid, out)


def lower_sf_check(f: DiscreteFunction, v: Weight, p: float, shift: GridShift | None = None) -> dict:
    """Ratios ||f||_{L^p(v)}^p / int (S f)^p v for the three square functions;
    a stack of functions gives one ratio per sample."""
    out = {}
    num = lp_norm(f, p, v) ** p
    for kind in ("axis1", "axis2", "rect"):
        sf = square_function(f, kind, shift)
        den = ((sf.values**p) * v.values).sum(axis=(-2, -1)) * f.grid.cell_volume
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(den > 0, num / den, np.where(num > 0, math.inf, 1.0))
        out[kind] = per_sample(ratio)
    return out
