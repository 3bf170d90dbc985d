"""Weight characteristics, norms, BMO scales, maximal and square functions."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import (
    Axis,
    AxisShift,
    DiscreteFunction,
    GridShift,
    TorusGrid,
    all_axis_cubes,
    axis_cubes,
    axis_project,
    enumerate_shifts,
    haar_coefficients,
    haar_rows,
    martingale_block,
    per_sample,
    profile_plan,
    rect_table,
    sample_shift,
    stats_plan,
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
    means = _plan(w.grid, shift, over_all_shifts, scope).means(np.stack([w.values, w.dual(p).values]))
    return float((means[0] * means[1] ** (p - 1.0)).max())


def _plan(grid: TorusGrid, shift: GridShift | None, over_all_shifts: bool, scope: str):
    """The statistics plan a sup runs over: the windows of every shift, or
    the rectangles of the given lattice, defaulting to zero."""
    if scope not in ("biparameter", "axis1", "axis2"):
        raise ValueError(f"unknown scope {scope!r}")
    lattice = None if over_all_shifts else shift if shift is not None else GridShift.zero(grid)
    return stats_plan(grid, lattice, "rect" if scope == "biparameter" else scope)


def ainfty_characteristic(
    w: Weight,
    scope: str = "biparameter",
    shift: GridShift | None = None,
    over_all_shifts: bool = False,
) -> float:
    """sup of <w>_Q exp(<log 1/w>_Q) over the requested cube/rectangle family."""
    means = _plan(w.grid, shift, over_all_shifts, scope).means(np.stack([w.values, np.log(w.values)]))
    return float((means[0] * np.exp(-means[1])).max())


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
    if kind in ("little", "axis1", "axis2"):
        plan = _plan(grid, om, over_all_shifts, "biparameter" if kind == "little" else kind)
        return per_sample(plan.oscillations(b.values).max(axis=-1))
    if kind == "product":
        C = haar_coefficients(b, om)
        # row 0 is the one non-cancellative function; a cancellative one is
        # nonzero on every cell of its cube, and with dim >= 2 one cube
        # carries several signatures, so rows repeat
        on1, on2 = (haar_rows(ax, sh)[1:] != 0 for ax, sh in zip(grid.axes, (om.shift1, om.shift2)))
        masks = (on1[:, None, :, None] & on2[None, :, None, :]).reshape(len(on1) * len(on2), -1)
        return _product_bmo(grid, masks, C[1:, 1:].ravel())
    raise ValueError(f"unknown bmo kind {kind!r}")


def _lower_levels(values: np.ndarray) -> np.ndarray:
    """The distinct values but the largest, ascending: np.unique(values)[:-1]
    without the numpy.ma import np.unique makes on its first call."""
    s = np.sort(values)
    return s[:-1][s[1:] != s[:-1]]


# the product-oscillation search's unions: 2 to _UNION rectangles from a
# pool of _POOL drawn with seed _POOL_SEED
_POOL, _UNION, _POOL_SEED = 24, 3, 0


@lru_cache(maxsize=64)
def _union_members(n_rect: int, pool: int, union: int, seed: int) -> tuple[np.ndarray, ...]:
    """Per union size k = 2..`union`, the members of every k-union from a
    seeded pool of `pool` of the n_rect rectangles, one row each in
    itertools.combinations order (read-only: the draw is cached)."""
    rng = np.random.default_rng(seed)
    pool_idx = rng.choice(n_rect, size=min(pool, n_rect), replace=False).tolist()
    out = tuple(np.fromiter(itertools.chain.from_iterable(itertools.combinations(pool_idx, k)),
                            dtype=np.intp).reshape(-1, k) for k in range(2, union + 1))
    for members in out:
        members.setflags(write=False)
    return out


def _bit_rows(masks: np.ndarray) -> np.ndarray:
    """Boolean rows packed into uint64 words, zero-padded to whole words."""
    packed = np.packbits(masks, axis=1)
    pad = np.zeros((len(masks), -packed.shape[1] % 8), dtype=np.uint8)
    return np.concatenate([packed, pad], axis=1).view(np.uint64)


def _bit_containment(sets: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """inside[r, s]: whether bit row rects[r] lies inside bit row sets[s],
    one rectangle at a time: (S & R) == R in every word."""
    inside = np.empty((len(rects), len(sets)), dtype=bool)
    for r, row in enumerate(rects):
        np.logical_and.reduce((sets & row) == row, axis=1, out=inside[r])
    return inside


def _product_bmo(grid: TorusGrid, masks: np.ndarray, coeffs: np.ndarray) -> ProductBmoReport:
    """The open-set search behind both product-oscillation reports.

    masks (R x cells) marks the cells of each rectangle and coeffs holds its
    coefficient c_R.  A candidate set S scores sqrt(sum of |c_R|^2 over the
    rectangles inside S / |S|); the candidates are the single rectangles,
    unions of 2.._UNION rectangles from a seeded pool of _POOL, and the
    upper-level sets of sum_R |c_R|^2 / |R| 1_R.  Candidates are packed bit
    rows: a union is an OR of rows, a set's size its bit count, and
    containment is tested one rectangle at a time.
    """
    n_rect = len(masks)
    # libm pow, as Python's float ** takes it: c * c can differ in the last bit
    c2 = np.float_power(np.abs(coeffs), 2)
    # sequential sums over the rectangles, in order (the level sets depend
    # on exact ties in the density)
    sq = (c2 / (masks.sum(axis=1) * grid.cell_volume))[:, None] * masks
    sq = sq.sum(axis=0)
    rows = _bit_rows(masks)
    unions = [np.bitwise_or.reduce(rows[m], axis=1) for m in _union_members(n_rect, _POOL, _UNION, _POOL_SEED)]
    levels = _lower_levels(sq)
    sets = np.vstack([rows, *unions, _bit_rows(sq[None, :] > levels[:, None])])
    inside = _bit_containment(sets, rows)
    # one rectangle at a time: an (R x sets) float temporary would set a suite's peak memory
    total = np.zeros(len(sets))
    for r in range(n_rect):
        total += c2[r] * inside[r]
    values = np.sqrt(total / (np.bitwise_count(sets).sum(axis=1) * grid.cell_volume))
    return ProductBmoReport(float(values.max(initial=0.0)), float(values[:n_rect].max(initial=0.0)),
                            len(sets))


def sequence_product_bmo(
    grid: TorusGrid,
    ids: np.ndarray,
    coeffs: np.ndarray,
    om: GridShift,
) -> ProductBmoReport:
    """Lower-bound oscillation norm for a scalar family on rectangles.

    coeffs[k] sits on the rectangle ids[k] of om's lattice (`RectTable`);
    the same open-set family as the function version is used on the given
    coefficients.
    """
    return _product_bmo(grid, rect_table(grid, om).masks(ids), coeffs)


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
    if kind not in ("dyadic", "strong", "axis1", "axis2"):
        raise ValueError(f"unknown maximal kind {kind!r}")
    plan = _plan(f.grid, shift, kind != "dyadic", "biparameter" if kind in ("dyadic", "strong") else kind)
    return DiscreteFunction(f.grid, plan.cover_max(plan.means(np.abs(f.values) ** s)) ** (1.0 / s))


def axis_profile_strong_max(vec: np.ndarray, axis: Axis) -> np.ndarray:
    """Strong maximal function of a single-factor profile, taken as a grid
    whose second factor is one cell."""
    plan = profile_plan(axis)
    return plan.cover_max(plan.means(np.abs(np.asarray(vec, dtype=float))[:, None]))[:, 0]


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


def haar_profiles(f: DiscreteFunction, axis_idx: int, om: GridShift):
    """(Haar row h, its cube, coefficient profile <f, h>_axis) of every
    cancellative Haar function of one factor of the shifted lattice."""
    axis, shift = f.grid.axes[axis_idx], om[axis_idx]
    rows = haar_rows(axis, shift)[1:].reshape(-1, 2**axis.dim - 1, axis.n_cells)
    for cube, cube_rows in zip(all_axis_cubes(axis, shift, axis.levels - 1), rows):
        for h in cube_rows:
            yield h, cube, f.pair_axis(h, axis_idx)


def haar_outer(row: np.ndarray, prof: np.ndarray, axis_idx: int) -> np.ndarray:
    """row on factor axis_idx times prof on the other factor."""
    return np.outer(row, prof) if axis_idx == 0 else np.outer(prof, row)


def _sf_phi(f: DiscreteFunction, om: GridShift, axis_idx: int) -> DiscreteFunction:
    # smoothed version: Haar coefficient profiles run through the strong
    # one-dimensional maximal operator on the other axis
    other = f.grid.axes[1 - axis_idx]
    acc = np.zeros(f.grid.shape)
    for h, _, coeff in haar_profiles(f, axis_idx, om):
        acc += haar_outer(h**2, axis_profile_strong_max(coeff, other) ** 2, axis_idx)
    return DiscreteFunction(f.grid, np.sqrt(acc))


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
    other = grid.axes[1 - axis_idx]
    if profile_op is None:
        profile_op = lambda vec: axis_profile_strong_max(vec, other)
    out = np.zeros(grid.shape)
    for h, _, coeff in haar_profiles(f, axis_idx, om):
        out += haar_outer(h, profile_op(coeff), axis_idx)
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
