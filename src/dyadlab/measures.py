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
    RectTable,
    ResolutionError,
    STATS_CHUNK,
    TorusGrid,
    axis_project,
    cube_masks,
    enumerate_shifts,
    haar_coefficients,
    haar_rows,
    level_rows,
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

@dataclass(frozen=True, slots=True)
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
        table = RectTable(*(haar_rows(ax, sh)[1:] != 0 for ax, sh in zip(grid.axes, (om.shift1, om.shift2))))
        return _product_bmo(grid, [table], np.arange(C[1:, 1:].size), C[1:, 1:].ravel())
    raise ValueError(f"unknown bmo kind {kind!r}")


def _lower_levels(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of values (S, n), the distinct values but the largest,
    ascending, padded with +inf to a common length, and their count: each
    row's np.unique(row)[:-1] without the numpy.ma import np.unique makes."""
    s = np.sort(values, axis=-1)
    new = s[:, 1:] != s[:, :-1]
    count = new.sum(axis=-1)
    return np.sort(np.where(new, s[:, :-1], np.inf), axis=-1)[:, :count.max(initial=0)], count


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
    """Boolean rows (..., n) packed into uint64 words, zero-padded to whole words."""
    packed = np.packbits(masks, axis=-1)
    pad = np.zeros(packed.shape[:-1] + (-packed.shape[-1] % 8,), dtype=np.uint8)
    return np.concatenate([packed, pad], axis=-1).view(np.uint64)


def _chunks(n: int, n_rect: int, per: int):
    """(a, b, lo, hi): samples a..b-1 and rectangles lo..hi-1, rectangles
    innermost, in runs whose samples x rectangles x `per` stay within
    STATS_CHUNK elements, at least one sample and one rectangle."""
    per = max(1, per)
    rects = max(1, min(n_rect, STATS_CHUNK // per))
    samples = max(1, STATS_CHUNK // (per * rects))
    for a in range(0, n, samples):
        for lo in range(0, n_rect, rects):
            yield a, min(a + samples, n), lo, min(lo + rects, n_rect)


def _in_order(carry: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """carry + terms[:, 0] + terms[:, 1] + ... left to right, overwriting the temporary terms
    (S, k, n): numpy adds an outer axis's rows in turn (pairwise only along the innermost)."""
    terms[:, 0] += carry
    return terms.sum(axis=1)


def _square_density(grid: TorusGrid, masks: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """sum_R c2_R / |R| 1_R per sample, for masks (S, R, cells) and c2 (S, R);
    the rectangles are added in order (level sets depend on exact ties)."""
    n, n_rect, cells = masks.shape
    weights = c2 / (masks.sum(axis=-1) * grid.cell_volume)
    out = np.zeros((n, cells))
    for a, b, lo, hi in _chunks(n, n_rect, cells):
        out[a:b] = _in_order(out[a:b], np.where(masks[a:b, lo:hi], weights[a:b, lo:hi, None], 0.0))
    return out


def _product_bmo(grid: TorusGrid, tables: list[RectTable], ids: np.ndarray, coeffs: np.ndarray):
    """The open-set search behind both product-oscillation reports.

    c_R = coeffs[..., k] sits on rectangle ids[..., k] of the sample's table:
    coeffs (R,) give one report, (S, R) a list of S, with ids (R,) or (S, R)
    and one table or one per sample.  A candidate set S scores sqrt(sum of
    |c_R|^2 over the rectangles inside S / |S|); the candidates are the
    single rectangles, unions of 2.._UNION rectangles from a seeded pool of
    _POOL, and the upper-level sets of sum_R |c_R|^2 / |R| 1_R, as packed
    bit rows: R lies inside S when R & ~S is zero in every word.  Samples and
    rectangles run in chunks of STATS_CHUNK elements; a chunk pads its
    samples' level sets with empty sets, which score 0."""
    # libm pow, as Python's float ** takes it: c * c can differ in the last bit
    c2 = np.float_power(np.abs(np.atleast_2d(coeffs)), 2)
    n, n_rect = c2.shape
    ids = np.broadcast_to(ids, c2.shape)
    members = _union_members(n_rect, _POOL, _UNION, _POOL_SEED)
    reps = []
    for a, b, _, _ in _chunks(n, 1, n_rect * grid.shape[0] * grid.shape[1]):
        masks = np.stack([t.masks(i) for t, i in zip(tables[a:b] if len(tables) > 1 else tables * (b - a), ids[a:b])])
        sq = _square_density(grid, masks, c2[a:b])
        levels, n_levels = _lower_levels(sq)  # a level of +inf pads with an empty set
        rows = _bit_rows(masks)
        sets = np.concatenate([rows, *(np.bitwise_or.reduce(rows[:, m], axis=-2) for m in members),
                               _bit_rows(sq[:, None, :] > levels[..., None])], axis=1)
        outside = ~sets
        total = np.zeros(sets.shape[:2])
        for i, j, lo, hi in _chunks(b - a, n_rect, outside[0].size):
            inside = ((rows[i:j, lo:hi, None] & outside[i:j, None]) == 0).all(axis=-1)
            total[i:j] = _in_order(total[i:j], np.where(inside, c2[a + i:a + j, lo:hi, None], 0.0))
        values = np.sqrt(total / (np.maximum(np.bitwise_count(sets).sum(axis=-1), 1) * grid.cell_volume))
        reps += map(ProductBmoReport, values.max(axis=-1, initial=0.0).tolist(),
                    values[:, :n_rect].max(axis=-1, initial=0.0).tolist(),
                    (sets.shape[1] - levels.shape[1] + n_levels).tolist())
    return reps if np.ndim(coeffs) == 2 else reps[0]


def sequence_product_bmo(
    grid: TorusGrid,
    ids: np.ndarray,
    coeffs: np.ndarray,
    om: GridShift | list[GridShift],
) -> ProductBmoReport | list[ProductBmoReport]:
    """Lower-bound oscillation norm for a scalar family on rectangles.

    coeffs[k] sits on the rectangle ids[k] of om's lattice (`RectTable`);
    the same open-set family as the function version is used on the given
    coefficients.  Stacked coeffs (S, R) give a list of S reports, with ids
    (R,) or (S, R), on om's lattice or, for a list of S shifts, each on its own.
    """
    oms = [om] if isinstance(om, GridShift) else om
    tables = {o: rect_table(grid, o) for o in oms}  # one per distinct shift
    return _product_bmo(grid, [tables[o] for o in oms], ids, coeffs)


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
    whose second factor is one cell; rows (S, n) of profiles give one
    maximal function per row."""
    plan = profile_plan(axis)
    return plan.cover_max(plan.means(np.abs(np.asarray(vec, dtype=float))[..., None]))[..., 0]


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


def coefficient_profiles(f: DiscreteFunction, axis_idx: int, om: GridShift) -> tuple[np.ndarray, np.ndarray]:
    """The cancellative Haar rows of one factor of the shifted lattice and,
    one row each, their coefficient profiles <f, h>_axis over the other
    factor's cells."""
    H = haar_rows(f.grid.axes[axis_idx], om[axis_idx])[1:]
    return H, H @ (f.values if axis_idx == 0 else f.values.T) * f.grid.axes[axis_idx].cell_volume


def haar_sum(rows: np.ndarray, profiles: np.ndarray, axis_idx: int) -> np.ndarray:
    """sum_k rows[k] on factor axis_idx times profiles[k] on the other factor."""
    return rows.T @ profiles if axis_idx == 0 else profiles.T @ rows


def _sf_phi(f: DiscreteFunction, om: GridShift, axis_idx: int) -> DiscreteFunction:
    # smoothed version: Haar coefficient profiles run through the strong
    # one-dimensional maximal operator on the other axis
    H, coeffs = coefficient_profiles(f, axis_idx, om)
    M = axis_profile_strong_max(coeffs, f.grid.axes[1 - axis_idx])
    return DiscreteFunction(f.grid, np.sqrt(haar_sum(H**2, M**2, axis_idx)))


def martingale_blocks(g: np.ndarray, grid: TorusGrid, axis_idx: int, shift: AxisShift, depth: int):
    """Per level l below L - depth of one factor, the martingale blocks at
    that depth of every level-l cube I, 1_I (E_{l+depth+1} - E_{l+depth}) g
    in that variable, as one masked stack (cubes, *g.shape)."""
    if depth < 0:
        raise ResolutionError("block depth exceeds resolution")
    ax, f = grid.axes[axis_idx], DiscreteFunction(grid, g)
    for l in range(ax.levels - depth):
        fine, coarse = (axis_project(f, l + depth + k, axis_idx, shift).values for k in (1, 0))
        m = cube_masks(ax, shift)[level_rows(ax, l)]
        # one mask row per cube, spread over g's axes
        m = m.reshape(m.shape[:1] + (1,) * (g.ndim - 2) + ((-1, 1) if axis_idx == 0 else (1, -1)))
        yield np.where(m, fine - coarse, 0.0)


def _sf_block(f, kind, depths, shift_samples, seed, family):
    # sum over base rectangles of the averaged squared maximal function of
    # the shifted martingale blocks at the given depth offsets, the blocks of
    # each level (pair) as one stack
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
        g = (family(om)(f) if family is not None else f).values
        if kind == "block":
            stacks = (blk.reshape((-1,) + grid.shape) for g1 in martingale_blocks(g, grid, 0, om.shift1, i)
                      for blk in martingale_blocks(g1, grid, 1, om.shift2, j))
        else:
            axis_idx = 0 if kind == "block1" else 1
            stacks = martingale_blocks(g, grid, axis_idx, om[axis_idx], i)
        for blk in stacks:
            acc += wt * (maximal_function(DiscreteFunction(grid, blk), "strong").values ** 2).sum(axis=0)
    return DiscreteFunction(grid, np.sqrt(acc))


def phi_function(
    f: DiscreteFunction,
    axis_idx: int,
    shift: GridShift | None = None,
    profile_op: Callable[[np.ndarray], np.ndarray] | None = None,
) -> DiscreteFunction:
    """Maximal-smoothed Haar sum: sum_I h_I tensor M<f, h_I>_axis.

    profile_op replaces the strong maximal operator: it maps the Haar
    coefficient profiles, one row per Haar row, to one profile each."""
    grid = f.grid
    om = shift if shift is not None else GridShift.zero(grid)
    if profile_op is None:
        profile_op = lambda rows: axis_profile_strong_max(rows, grid.axes[1 - axis_idx])
    H, coeffs = coefficient_profiles(f, axis_idx, om)
    return DiscreteFunction(grid, haar_sum(H, profile_op(coeffs), axis_idx))


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
