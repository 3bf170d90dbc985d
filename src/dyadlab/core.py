"""Shifted dyadic lattices on the torus, Haar system and martingale calculus.

Everything lives on a product of two torus factors [0,1)^d (one per
parameter).  Each factor carries a maximum level L, so level-j cubes have
side 2^-j and every function is piecewise constant on the 2^(L*d) level-L
cells.  Lattice shifts are dyadic (bits for levels 1..L only), hence every
shifted cube is an exact union of level-L cells and all integrals below are
exact finite sums.
"""

from __future__ import annotations

import bisect
import io
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator

import numpy as np
import numpy.random  # noqa: F401  (numpy 2 would load it on the first draw, inside the first computation)

__all__ = [
    "Axis",
    "TorusGrid",
    "AxisShift",
    "GridShift",
    "DyadicCube",
    "DyadicRectangle",
    "DiscreteFunction",
    "HaarFunction",
    "ResolutionError",
    "ConfigError",
    "haar_evaluate",
    "axis_average",
    "axis_project",
    "martingale_difference",
    "martingale_block",
    "truncated_projection",
    "cube_goodness",
    "classify_goodness",
    "goodness_fraction",
    "sample_shift",
    "enumerate_axis_shifts",
    "enumerate_shifts",
    "expectation_over_shifts",
    "haar_rows",
    "haar_coefficients",
]


class ResolutionError(ValueError):
    """Requested scale is finer than the grid resolution."""


class ConfigError(ValueError):
    """A configuration or input the laboratory refuses to run on."""


# ---------------------------------------------------------------------------
# grid factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Axis:
    """One torus factor [0,1)^dim, resolved down to level `levels`."""

    dim: int = 1
    levels: int = 3

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("need at least one level")
        if self.dim < 1:
            raise ValueError("dimension must be positive")

    @property
    def n_side(self) -> int:
        return 1 << self.levels

    @property
    def n_cells(self) -> int:
        return self.n_side ** self.dim

    @property
    def cell_volume(self) -> float:
        return 2.0 ** (-self.levels * self.dim)


@dataclass(frozen=True)
class TorusGrid:
    """Bi-parameter grid: a pair of torus factors sharing the cell convention."""

    axes: tuple[Axis, Axis] = (Axis(), Axis())

    @staticmethod
    def make(levels: int | tuple[int, int] = 3, dims: tuple[int, int] = (1, 1)) -> "TorusGrid":
        if isinstance(levels, int):
            levels = (levels, levels)
        return TorusGrid((Axis(dims[0], levels[0]), Axis(dims[1], levels[1])))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.axes[0].n_cells, self.axes[1].n_cells)

    @property
    def cell_volume(self) -> float:
        return self.axes[0].cell_volume * self.axes[1].cell_volume

    def zeros(self, dtype=float) -> "DiscreteFunction":
        return DiscreteFunction(self, np.zeros(self.shape, dtype=dtype))

    def constant(self, c: float | complex) -> "DiscreteFunction":
        dtype = complex if isinstance(c, complex) else float
        return DiscreteFunction(self, np.full(self.shape, c, dtype=dtype))

    def random(self, rng: np.random.Generator, scale: float = 1.0) -> "DiscreteFunction":
        return DiscreteFunction(self, scale * rng.standard_normal(self.shape))


# ---------------------------------------------------------------------------
# lattice shifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisShift:
    """Per-level translation bits of one axis lattice.

    bits[i-1][t] is the level-i bit of coordinate t (i = 1..L), so a level-j
    cube of the base lattice is translated by sum_{i>j} 2^-i * bits[i-1].
    Bits exist only for i <= L, which keeps every shifted cube an exact union
    of level-L cells.
    """

    axis: Axis
    bits: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if not self.bits:
            zero = tuple(tuple(0 for _ in range(self.axis.dim)) for _ in range(self.axis.levels))
            object.__setattr__(self, "bits", zero)
        if len(self.bits) != self.axis.levels or any(len(b) != self.axis.dim for b in self.bits):
            raise ValueError("need one bit vector per level 1..L")

    def offset_cells(self, level: int) -> tuple[int, ...]:
        """Translation of the level-`level` lattice, in level-L cell units."""
        L = self.axis.levels
        out = [0] * self.axis.dim
        for i in range(level + 1, L + 1):
            w = 1 << (L - i)
            for t in range(self.axis.dim):
                out[t] += w * self.bits[i - 1][t]
        return tuple(o % self.axis.n_side for o in out)

    @staticmethod
    def zero(axis: Axis) -> "AxisShift":
        return AxisShift(axis, tuple(tuple(0 for _ in range(axis.dim)) for _ in range(axis.levels)))


@dataclass(frozen=True)
class GridShift:
    """A shift per grid factor; identifies one realisation of the random lattice."""

    shift1: AxisShift
    shift2: AxisShift

    @staticmethod
    @lru_cache(maxsize=None)
    def zero(grid: TorusGrid) -> "GridShift":
        """The unshifted lattice, built once per grid (the shift is frozen)."""
        return GridShift(AxisShift.zero(grid.axes[0]), AxisShift.zero(grid.axes[1]))

    def __getitem__(self, k: int) -> AxisShift:
        return (self.shift1, self.shift2)[k]


def sample_axis_shift(axis: Axis, rng: np.random.Generator) -> AxisShift:
    # one draw for all levels takes the same values from the stream as one
    # draw per level: each bit is one 64-bit draw, never rejected
    bits = rng.integers(0, 2, size=(axis.levels, axis.dim))
    return AxisShift(axis, tuple(map(tuple, bits.tolist())))


def sample_shift(grid: TorusGrid, rng: np.random.Generator) -> GridShift:
    """Draw i.i.d. uniform translation bits for both factors."""
    return GridShift(sample_axis_shift(grid.axes[0], rng), sample_axis_shift(grid.axes[1], rng))


def enumerate_axis_shifts(axis: Axis) -> Iterator[AxisShift]:
    """All 2^(L*dim) shifts of one factor (desk scale only)."""
    per_level = list(itertools.product((0, 1), repeat=axis.dim))
    for combo in itertools.product(per_level, repeat=axis.levels):
        yield AxisShift(axis, tuple(combo))


def enumerate_shifts(grid: TorusGrid) -> Iterator[GridShift]:
    for s1 in enumerate_axis_shifts(grid.axes[0]):
        for s2 in enumerate_axis_shifts(grid.axes[1]):
            yield GridShift(s1, s2)


def expectation_over_shifts(
    grid: TorusGrid,
    estimator: Callable[[GridShift], float],
    sample_count: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of an estimator over random shifts."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    vals = np.array([estimator(sample_shift(grid, rng)) for _ in range(sample_count)], dtype=float)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(sample_count)) if sample_count > 1 else 0.0
    return mean, stderr


# ---------------------------------------------------------------------------
# cubes and rectangles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DyadicCube:
    """A level-j cube of a shifted lattice on one factor.

    `pos` holds the per-coordinate lattice indices (each in [0, 2^j)).
    """

    axis: Axis
    level: int
    pos: tuple[int, ...]
    shift: AxisShift

    def __post_init__(self):
        if not 0 <= self.level <= self.axis.levels:
            raise ResolutionError(f"level {self.level} outside 0..{self.axis.levels}")
        n = 1 << self.level
        if len(self.pos) != self.axis.dim or any(not 0 <= p < n for p in self.pos):
            raise ValueError("bad cube position")

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def measure(self) -> float:
        return self.side ** self.axis.dim

    @property
    def width_cells(self) -> int:
        return 1 << (self.axis.levels - self.level)

    def start_cells(self) -> tuple[int, ...]:
        """Per-coordinate first cell index (wrapped)."""
        off = self.shift.offset_cells(self.level)
        w = self.width_cells
        return tuple((p * w + o) % self.axis.n_side for p, o in zip(self.pos, off))

    @property
    def _row(self) -> int:
        """The cube's row among the cubes of its level, in product order."""
        row = 0
        for p in self.pos:
            row = (row << self.level) + p
        return row

    @property
    def table_index(self) -> int:
        """The cube's row in its lattice's tables, in cube index order."""
        return level_rows(self.axis, self.level).start + self._row

    def cells(self) -> np.ndarray:
        """Flat level-L cell indices covered by the cube: a read-only row of
        the cached table of its (axis, level, shift)."""
        return _cube_table(self.axis, self.level, self.shift)[self._row]

    def ancestor(self, k: int) -> "DyadicCube":
        """The unique cube k levels up containing this one (same lattice)."""
        if k < 0 or k > self.level:
            raise ValueError("ancestor depth out of range")
        if k == 0:
            return self
        lvl = self.level - k
        # positions must be recomputed through cell coordinates because the
        # coarser lattice carries a different translation
        start = self.start_cells()
        off = self.shift.offset_cells(lvl)
        w = 1 << (self.axis.levels - lvl)
        pos = tuple(((s - o) % self.axis.n_side) // w for s, o in zip(start, off))
        return DyadicCube(self.axis, lvl, pos, self.shift)

    def parent(self) -> "DyadicCube":
        return self.ancestor(1)

    def children(self) -> list["DyadicCube"]:
        if self.level >= self.axis.levels:
            raise ResolutionError("cube at finest level has no children")
        lvl = self.level + 1
        start = self.start_cells()
        off = self.shift.offset_cells(lvl)
        w = 1 << (self.axis.levels - lvl)
        n = self.axis.n_side
        kids = []
        for corner in itertools.product((0, 1), repeat=self.axis.dim):
            cs = tuple((s + b * w) % n for s, b in zip(start, corner))
            pos = tuple(((c - o) % n) // w for c, o in zip(cs, off))
            kids.append(DyadicCube(self.axis, lvl, pos, self.shift))
        return kids

    def contains(self, other: "DyadicCube") -> bool:
        if other.level < self.level:
            return False
        return other.ancestor(other.level - self.level) == self

    def distance(self, other: "DyadicCube") -> float:
        """Torus sup-metric distance between the two (closed) cubes."""
        d = 0.0
        a0, b0 = self.start_cells(), other.start_cells()
        wa, wb = self.width_cells, other.width_cells
        n = self.axis.n_side
        for t in range(self.axis.dim):
            if (b0[t] - a0[t]) % n < wa or (a0[t] - b0[t]) % n < wb:
                g = 0  # coordinate ranges overlap
            else:
                g = min((b0[t] - (a0[t] + wa)) % n, (a0[t] - (b0[t] + wb)) % n)
            d = max(d, g / n)
        return d


def _cell_table(axis: Axis, starts: np.ndarray, width: int) -> np.ndarray:
    """Read-only table with one row per start (rows of `starts`, one start
    cell per coordinate): the flat cells of the wrapped cube of side `width`
    cells there, listed with the first coordinate slowest."""
    n = axis.n_side
    flat = np.zeros((len(starts), 1), dtype=np.intp)
    mult = 1
    for t in range(axis.dim):
        coord = (starts[:, t, None] + np.arange(width)) % n
        flat = (flat[:, :, None] + mult * coord[:, None, :]).reshape(len(starts), -1)
        mult *= n
    flat.setflags(write=False)
    return flat


@lru_cache(maxsize=None)
def _cube_table(axis: Axis, level: int, shift: AxisShift) -> np.ndarray:
    """Cells of every level-`level` cube of the shifted lattice, one row per
    cube in cube index order (shared by all cubes of the lattice level).
    The cache holds at most one table per level for each of the 2^(L*dim)
    shifts of an axis."""
    width = 1 << (axis.levels - level)
    pos = np.array(list(itertools.product(range(1 << level), repeat=axis.dim)))
    return _cell_table(axis, pos * width + np.array(shift.offset_cells(level)), width)


@lru_cache(maxsize=None)
def _window_table(axis: Axis, width: int) -> np.ndarray:
    """Cells of every wrapped window of side `width` cells, one row per start
    cell in flat order.  Shift bits exist for levels 1..L, so every start is
    reachable in each coordinate: the cubes of this width over all shifts are
    exactly these windows."""
    flat = np.arange(axis.n_cells)
    starts = np.stack([(flat // axis.n_side**t) % axis.n_side for t in range(axis.dim)], axis=1)
    return _cell_table(axis, starts, width)


def cell_tables(axis: Axis, shift: AxisShift | None) -> list[np.ndarray]:
    """One cell table per level 0..L: the cubes of the shifted lattice, or
    with shift None the windows of each dyadic width (the cubes of all shifts)."""
    if shift is None:
        return [_window_table(axis, 1 << (axis.levels - j)) for j in range(axis.levels + 1)]
    return [_cube_table(axis, j, shift) for j in range(axis.levels + 1)]


# Most cells, summed over the samples of a stack, that one step of a
# statistics plan gathers (a single rectangle with more cells is one step),
# and the bytes of run indices one plan keeps for its next walks.
STATS_CHUNK = 1 << 14
INDEX_MEMO_BYTES = 1 << 20


class StatsPlan:
    """The rectangles of one lattice of a grid, or the windows of every
    shift, as one flat index of grid cells (c1 * n2 + c2) for np.add.reduceat.

    The family is every pair of a row of a factor-1 cell table and a row of
    a factor-2 table, one table per level (`stats_plan`).  Its rectangles
    run level pair after level pair, factor 1 outer, and within a level pair
    row pair after row pair; each rectangle's cells are contiguous.  A
    rectangle's id i1 * R2 + i2 counts the rows of each factor level after
    level, as `RectTable` ids do.  The kernels walk the plan in runs of
    whole rectangles, so no gather passes STATS_CHUNK cells unless one
    rectangle does.  A run's index is built on its first walk and kept while
    the plan's kept runs fit INDEX_MEMO_BYTES.
    """

    def __init__(self, tabs1: list[np.ndarray], tabs2: list[np.ndarray], shape: tuple[int, int]):
        self.tabs = (tabs1, tabs2)
        self.shape = shape
        self.pairs = [(t1, t2) for t1 in tabs1 for t2 in tabs2]
        # per level pair, the rectangles before it
        self.rects = [0, *itertools.accumulate(len(t1) * len(t2) for t1, t2 in self.pairs)]
        counts = np.repeat([t1.shape[1] * t2.shape[1] for t1, t2 in self.pairs], np.diff(self.rects))
        # per rectangle, the cells before it, and after the last one all cells
        self.bounds = np.concatenate([[0], np.cumsum(counts)])
        self._memo: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @cached_property
    def _order(self) -> np.ndarray:
        """Plan position of every rectangle, by id."""
        tabs1, tabs2 = self.tabs
        pos = iter(np.split(np.arange(self.rects[-1]), self.rects[1:-1]))
        return np.block([[next(pos).reshape(len(t1), len(t2)) for t2 in tabs2] for t1 in tabs1])

    def by_id(self, vals: np.ndarray) -> np.ndarray:
        """vals (..., rectangles in plan order) as (..., R1, R2), entry
        [i1, i2] on the rectangle of id i1 * R2 + i2."""
        return vals[..., self._order]

    @cached_property
    def _covers(self) -> tuple[np.ndarray, np.ndarray]:
        """Per factor, the rows (counted level after level) holding each
        cell: every cell lies in equally many rows of each table."""
        covers = []
        for tabs, n in zip(self.tabs, self.shape):
            cells = np.concatenate([t.ravel() for t in tabs])
            widths = np.repeat([t.shape[1] for t in tabs], list(map(len, tabs)))
            owner = np.repeat(np.arange(len(widths)), widths)
            covers.append(owner[np.argsort(cells, kind="stable")].reshape(n, -1))
        return covers[0], covers[1]

    def _runs(self, samples: int) -> list[tuple[int, int]]:
        """(first, stop) rectangles of each run: as many whole rectangles as
        keep `samples` times their cells within STATS_CHUNK, at least one."""
        cap = max(1, STATS_CHUNK // samples)
        runs, a = [], 0
        while a < self.rects[-1]:
            b = max(a + 1, int(np.searchsorted(self.bounds, self.bounds[a] + cap, "right")) - 1)
            runs.append((a, b))
            a = b
        return runs

    def _run(self, a: int, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cells of rectangles a..b-1, rectangle after rectangle, each
        rectangle's offset into them and its cell count."""
        run = self._memo.get((a, b))
        if run is not None:
            return run
        parts = []
        for k in range(bisect.bisect_right(self.rects, a) - 1, bisect.bisect_left(self.rects, b)):
            (t1, t2), first = self.pairs[k], self.rects[k]
            i1, i2 = np.divmod(np.arange(max(a, first), min(b, self.rects[k + 1])) - first, len(t2))
            parts.append(((t1[i1] * self.shape[1])[:, :, None] + t2[i2][:, None, :]).ravel())
        run = (np.concatenate(parts), self.bounds[a:b] - self.bounds[a], np.diff(self.bounds[a:b + 1]))
        if sum(x.nbytes for r in (run, *self._memo.values()) for x in r) <= INDEX_MEMO_BYTES:
            self._memo[a, b] = run
        return run

    def _walk(self, b: np.ndarray, f: np.ndarray | None, oscillation: bool) -> np.ndarray:
        lead = np.broadcast_shapes(b.shape[:-2], () if f is None else f.shape[:-2])
        flat = (math.prod(self.shape),)
        b = np.broadcast_to(b.reshape(b.shape[:-2] + flat), lead + flat)
        af = None if f is None else np.abs(f).reshape(f.shape[:-2] + flat)
        parts = []
        for r0, r1 in self._runs(max(1, math.prod(lead))):
            cells, at, n = self._run(r0, r1)
            g = b.take(cells, axis=-1)  # a gathered copy, changed in place
            if oscillation:
                # centred on each rectangle's first cell, so that a constant
                # has mean and oscillation exactly 0
                g -= np.repeat(g[..., at], n, axis=-1)
            mean = np.add.reduceat(g, at, axis=-1) / n
            if oscillation:
                g -= np.repeat(mean, n, axis=-1)
                np.abs(g, out=g)
                if af is not None:
                    g *= af.take(cells, axis=-1)
                mean = np.add.reduceat(g, at, axis=-1) / n
            parts.append(mean)
        return np.concatenate(parts, axis=-1)

    def means(self, values: np.ndarray) -> np.ndarray:
        """<values>_R of values (..., n1, n2) for every rectangle R, in plan order."""
        return self._walk(values, None, False)

    def oscillations(self, b: np.ndarray, f: np.ndarray | None = None) -> np.ndarray:
        """<|b - <b>_R| |f|>_R for every rectangle R (f None: 1), in plan
        order; b and f broadcast over their leading sample axes."""
        return self._walk(b, f, True)

    def cover_max(self, vals: np.ndarray) -> np.ndarray:
        """Per grid cell, the max of vals (..., plan order) over the
        rectangles holding it.  The rows holding a cell separate by factor,
        so the max runs over factor 2's rows, then over factor 1's."""
        c1, c2 = self._covers
        over2 = _rows_max(self.by_id(vals), c2)
        return _rows_max(over2.swapaxes(-1, -2), c1).swapaxes(-1, -2)


def _rows_max(vals: np.ndarray, cover: np.ndarray) -> np.ndarray:
    """out[..., c] = max of vals[..., cover[c]], a few rows of vals at a
    time so that no gather passes STATS_CHUNK cells (or one row's)."""
    rows = vals.reshape(-1, vals.shape[-1])
    out = np.empty((len(rows), len(cover)))
    step = max(1, STATS_CHUNK // cover.size)
    for s in range(0, len(rows), step):
        out[s:s + step] = rows[s:s + step, cover].max(axis=-1)
    return out.reshape(vals.shape[:-1] + (len(cover),))


def _factor_tables(axis: Axis, shift: AxisShift | None) -> list[np.ndarray]:
    """One factor's cell tables for a statistics plan: `cell_tables`, with
    the full-width windows, which are one set of cells, kept once."""
    tabs = cell_tables(axis, shift)
    return tabs if shift is not None else [tabs[0][:1], *tabs[1:]]


@lru_cache(maxsize=64)
def stats_plan(grid: TorusGrid, shift: GridShift | None, scope: str = "rect") -> StatsPlan:
    """The statistics plan of the rectangles of the shifted lattice, or with
    shift None of the windows of every shift (the cubes of all shifts).
    scope 'axis1' pairs factor 1's cubes with single cells of factor 2,
    'axis2' the other way round.  The cache holds at most 64 plans."""
    if scope not in ("rect", "axis1", "axis2"):
        raise ValueError(f"unknown scope {scope!r}")
    tabs = [_factor_tables(axis, None if shift is None else shift[k]) for k, axis in enumerate(grid.axes)]
    # a factor outside the scope keeps its level-L cubes: the single cells,
    # in order, for every shift
    tabs = [t if scope in ("rect", f"axis{k + 1}") else t[-1:] for k, t in enumerate(tabs)]
    return StatsPlan(tabs[0], tabs[1], grid.shape)


@lru_cache(maxsize=16)
def profile_plan(axis: Axis, shift: AxisShift | None = None) -> StatsPlan:
    """The cubes of one factor's shifted lattice, or with shift None its
    windows of every shift, as a plan on a grid whose other factor is one
    cell: profiles (..., n) enter as (..., n, 1)."""
    return StatsPlan(_factor_tables(axis, shift), [np.zeros((1, 1), dtype=np.intp)], (axis.n_cells, 1))


@dataclass(frozen=True)
class DyadicRectangle:
    """Product of one cube per factor."""

    cube1: DyadicCube
    cube2: DyadicCube

    @property
    def measure(self) -> float:
        return self.cube1.measure * self.cube2.measure

    def index(self) -> tuple[np.ndarray, np.ndarray]:
        return np.ix_(self.cube1.cells(), self.cube2.cells())


def _lattice_offsets(axis: Axis, shift: AxisShift) -> np.ndarray:
    """Per coordinate t and level j = 0..L, the offset (x_t - o_t) mod n of
    every cell x from the level-j lattice origin o: (dim, L + 1, cells)."""
    n = axis.n_side
    coord = np.arange(axis.n_cells) // n ** np.arange(axis.dim)[:, None] % n
    origin = np.array([shift.offset_cells(j) for j in range(axis.levels + 1)]).T
    return (coord[:, None, :] - origin[:, :, None]) % n


def level_rows(axis: Axis, level: int) -> slice:
    """The rows of the level-`level` cubes in cube index order: the row
    order of every per-cube table of a lattice (`cube_masks`, `haar_rows`,
    `cube_goodness`, the `AxisOps` rows), level-major from level 0 to L, and
    within a level the positions in product order, first coordinate slowest
    (the row order of that level's `cell_tables` table)."""
    first = ((1 << axis.dim * level) - 1) // ((1 << axis.dim) - 1)
    return slice(first, first + (1 << axis.dim * level))


@lru_cache(maxsize=None)
def cube_masks(axis: Axis, shift: AxisShift) -> np.ndarray:
    """Read-only boolean cell mask of every cube of the shifted lattice, one
    row per cube in cube index order (`level_rows`)."""
    d, L = axis.dim, axis.levels
    level = np.arange(L + 1)[:, None]
    # per level, each cell's cube: offset bits L - j and up give its position
    # along a coordinate, positions combine in product order
    cube = (_lattice_offsets(axis, shift) >> L - level << level * np.arange(d - 1, -1, -1)[:, None, None]).sum(axis=0)
    out = np.concatenate([cube[j] == np.arange(1 << d * j)[:, None] for j in range(L + 1)])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=256)
def haar_rows(axis: Axis, shift: AxisShift) -> np.ndarray:
    """Read-only Haar rows of the shifted lattice: the top row, then per cube
    I of levels 0..L-1 (in cube index order, `level_rows`) its 2^dim - 1
    cancellative rows, signatures in product order.  Signature e's row is
    the signed sum of I's child masks, - on the children in the second half
    of I along an odd number of the coordinates e flags, times |I|^(-1/2)."""
    d, L = axis.dim, axis.levels
    # offset bit L - j - 1: the cell lies in the second half of its level-j cube
    second = _lattice_offsets(axis, shift)[:, :L] >> L - 1 - np.arange(L)[:, None] & 1
    sigs = np.array(list(itertools.product((0, 1), repeat=d))[1:])
    odd = (sigs[:, :, None, None] * second).sum(axis=1) & 1  # (signatures, levels, cells)
    sign = (1.0 - 2.0 * odd) * np.array([((2.0 ** -j) ** d) ** -0.5 for j in range(L)])[:, None]
    level = np.repeat(np.arange(L), 1 << d * np.arange(L))
    rows = np.where(cube_masks(axis, shift)[:len(level), None, :], sign[:, level].transpose(1, 0, 2), 0.0)
    out = np.concatenate([np.ones((1, axis.n_cells)), rows.reshape(-1, axis.n_cells)])
    out.setflags(write=False)
    return out


def haar_coefficients(f: DiscreteFunction, shift: GridShift) -> np.ndarray:
    """Coefficients <f, h x h> over the full bi-parameter basis: the
    `haar_rows` of both factors."""
    t1, t2 = (haar_rows(ax, sh) * ax.cell_volume for ax, sh in zip(f.grid.axes, (shift.shift1, shift.shift2)))
    return t1 @ f.values @ t2.T


@dataclass(frozen=True, eq=False)
class RectTable:
    """The rectangles of one shifted lattice as integer ids.

    Id i1 * n2 + i2 pairs cube i1 of factor 1 with cube i2 of factor 2 (n2
    cubes in factor 2, each factor's cubes in cube index order, see
    `level_rows`), so ids run over factor 1's cubes outer and a rectangle's
    copy in another lattice keeps its id.  A measure is a cell count times
    the cell volume: exact.
    """

    masks1: np.ndarray  # (cubes of factor 1, cells of factor 1), bool
    masks2: np.ndarray

    def ids(self, i1: np.ndarray, i2: np.ndarray) -> np.ndarray:
        """Ids of every pair of the given cube indices, factor 1 outer."""
        return (np.asarray(i1)[:, None] * len(self.masks2) + np.asarray(i2)).ravel()

    def masks(self, ids) -> np.ndarray:
        """(*ids.shape, cells) boolean cell masks, grid cells flattened."""
        i1, i2 = np.divmod(np.asarray(ids, dtype=np.intp), len(self.masks2))
        cells = self.masks1.shape[1] * self.masks2.shape[1]
        return (self.masks1[i1, :, None] & self.masks2[i2, None, :]).reshape(i1.shape + (cells,))

    def densities(self, F: np.ndarray) -> np.ndarray:
        """Mean of the boolean mask F over every rectangle, by id: exact
        counts over exact sizes, as a mean of the gathered block is."""
        counts = self.masks1 @ F.astype(float) @ self.masks2.T
        return (counts / np.outer(self.masks1.sum(axis=1), self.masks2.sum(axis=1))).ravel()


def rect_table(grid: TorusGrid, shift: GridShift) -> RectTable:
    """The rectangles of the shifted lattice: each factor's `cube_masks`, in
    cube index order (`level_rows`)."""
    return RectTable(cube_masks(grid.axes[0], shift.shift1), cube_masks(grid.axes[1], shift.shift2))


# ---------------------------------------------------------------------------
# discrete functions
# ---------------------------------------------------------------------------

class DiscreteFunction:
    """Piecewise-constant scalar field on the level-L cells of the product grid.

    values[i, j] is the value on (axis-1 cell i, axis-2 cell j); integrals and
    averages are exact finite sums.  A stack of functions carries a leading
    sample axis, values[s, i, j]: the algebra and the functions documented
    to take stacks act per sample, the integrals below take one function.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: TorusGrid, values: np.ndarray):
        values = np.asarray(values)
        if values.shape[-2:] != grid.shape or values.ndim not in (2, 3):
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        self.grid = grid
        self.values = values

    # -- algebra ------------------------------------------------------------
    def copy(self) -> "DiscreteFunction":
        return DiscreteFunction(self.grid, self.values.copy())

    def __add__(self, other):
        return DiscreteFunction(self.grid, self.values + self._val(other))

    def __sub__(self, other):
        return DiscreteFunction(self.grid, self.values - self._val(other))

    def __mul__(self, other):
        return DiscreteFunction(self.grid, self.values * self._val(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return DiscreteFunction(self.grid, self.values / self._val(other))

    def __neg__(self):
        return DiscreteFunction(self.grid, -self.values)

    def _val(self, other):
        return other.values if isinstance(other, DiscreteFunction) else other

    def __abs__(self):
        return DiscreteFunction(self.grid, np.abs(self.values))

    # -- integration ----------------------------------------------------------
    def integral(self) -> float | complex:
        s = self.values.sum() * self.grid.cell_volume
        return complex(s) if np.iscomplexobj(self.values) else float(s)

    def pair(self, other: "DiscreteFunction") -> float | complex:
        s = (self.values * other.values).sum() * self.grid.cell_volume
        return complex(s) if (np.iscomplexobj(self.values) or np.iscomplexobj(other.values)) else float(s)

    def pair_axis(self, vec: np.ndarray, axis: int) -> np.ndarray:
        """One-variable pairing against an axis function; returns the slice profile.

        axis=0 pairs in the first variable and returns an array over axis-2
        cells, and vice versa.
        """
        if axis == 0:
            return (vec @ self.values) * self.grid.axes[0].cell_volume
        return (self.values @ vec) * self.grid.axes[1].cell_volume

    # -- serialization --------------------------------------------------------
    def dump(self, fp: io.BufferedIOBase) -> None:
        header = {
            "format": "dyadlab-field-v1",
            "dims": [self.grid.axes[0].dim, self.grid.axes[1].dim],
            "levels": [self.grid.axes[0].levels, self.grid.axes[1].levels],
            "dtype": "complex128" if np.iscomplexobj(self.values) else "float64",
        }
        blob = json.dumps(header).encode()
        fp.write(len(blob).to_bytes(4, "little"))
        fp.write(blob)
        fp.write(np.ascontiguousarray(self.values, dtype=header["dtype"]).tobytes())

    @staticmethod
    def load(fp: io.BufferedIOBase) -> "DiscreteFunction":
        hlen = int.from_bytes(fp.read(4), "little")
        header = json.loads(fp.read(hlen).decode())
        if header.get("format") != "dyadlab-field-v1":
            raise ValueError("not a dyadlab field file")
        grid = TorusGrid.make(tuple(header["levels"]), tuple(header["dims"]))
        raw = np.frombuffer(fp.read(), dtype=header["dtype"]).reshape(grid.shape)
        return DiscreteFunction(grid, raw.copy())


def per_sample(x: np.ndarray) -> float | np.ndarray:
    """A statistic reduced over cells: a float for one function, the array
    of per-sample values for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def outer(grid: TorusGrid, vec1: np.ndarray, vec2: np.ndarray) -> DiscreteFunction:
    """Tensor product of two axis profiles as a grid function."""
    return DiscreteFunction(grid, np.outer(vec1, vec2))


# ---------------------------------------------------------------------------
# Haar system on one factor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HaarFunction:
    """L2-normalised Haar function on a cube; signature 0 marks the
    non-cancellative normalised indicator."""

    cube: DyadicCube
    signature: tuple[int, ...]

    def __post_init__(self):
        if len(self.signature) != self.cube.axis.dim:
            raise ValueError("signature length must match the axis dimension")
        if any(s not in (0, 1) for s in self.signature):
            raise ValueError("signature entries are bits")

    @property
    def cancellative(self) -> bool:
        return any(self.signature)


def haar_evaluate(h: HaarFunction, grid: TorusGrid, axis: int) -> DiscreteFunction:
    """The Haar profile lifted to the product grid (constant in the other
    variable): the cube's `haar_rows` row of the signature, or without one
    its `cube_masks` row times |I|^(-1/2)."""
    cube = h.cube
    if not h.cancellative:
        vec = cube_masks(cube.axis, cube.shift)[cube.table_index] * cube.measure ** -0.5
    elif cube.level >= cube.axis.levels:
        raise ResolutionError("cancellative Haar function needs children")
    else:
        sig = int("".join(map(str, h.signature)), 2)
        vec = haar_rows(cube.axis, cube.shift)[((1 << cube.axis.dim) - 1) * cube.table_index + sig]
    if axis == 0:
        return DiscreteFunction(grid, np.repeat(vec[:, None], grid.shape[1], axis=1))
    return DiscreteFunction(grid, np.repeat(vec[None, :], grid.shape[0], axis=0))


def axis_average(f: DiscreteFunction, cube: DyadicCube, axis: int) -> np.ndarray:
    """Slice average <f>_{I, axis}: profile over the other factor's cells."""
    cells = cube.cells()
    if axis == 0:
        return f.values[cells, :].mean(axis=0)
    return f.values[:, cells].mean(axis=1)


def axis_project(f: DiscreteFunction, level: int, axis: int, shift: AxisShift) -> DiscreteFunction:
    """Conditional expectation onto the level-`level` lattice in one variable."""
    ax = f.grid.axes[axis]
    if level > ax.levels:
        raise ResolutionError("projection level exceeds resolution")
    tab = _cube_table(ax, level, shift)
    idx = (Ellipsis, tab, slice(None)) if axis == 0 else (Ellipsis, slice(None), tab)
    out = np.empty_like(f.values)
    out[idx] = f.values[idx].mean(axis=axis - 2, keepdims=True)
    return DiscreteFunction(f.grid, out)


# ---------------------------------------------------------------------------
# martingale differences and blocks
# ---------------------------------------------------------------------------

def martingale_difference(f: DiscreteFunction, cube: DyadicCube, axis: int) -> DiscreteFunction:
    """One-variable martingale difference: children averages minus the cube
    average, on the cube (the depth-0 `martingale_block`)."""
    return martingale_block(f, cube, 0, axis)


def martingale_block(f: DiscreteFunction, cube: DyadicCube, depth: int, axis: int) -> DiscreteFunction:
    """Sum of martingale differences over the depth-`depth` descendants of the cube."""
    ax = f.grid.axes[axis]
    if depth < 0 or cube.level + depth >= ax.levels:
        raise ResolutionError("block depth exceeds resolution")
    fine = axis_project(f, cube.level + depth + 1, axis, cube.shift)
    coarse = axis_project(f, cube.level + depth, axis, cube.shift)
    out = np.zeros_like(f.values, dtype=f.values.dtype)
    cells = cube.cells()
    if axis == 0:
        out[cells, :] = fine.values[cells, :] - coarse.values[cells, :]
    else:
        out[:, cells] = fine.values[:, cells] - coarse.values[:, cells]
    return DiscreteFunction(f.grid, out)


def truncated_projection(f: DiscreteFunction, level_pair: tuple[int, int], shift: GridShift) -> DiscreteFunction:
    """Piecewise average at the requested per-axis scales of the shifted lattice."""
    g = axis_project(f, level_pair[0], 0, shift.shift1)
    return axis_project(g, level_pair[1], 1, shift.shift2)


# ---------------------------------------------------------------------------
# goodness
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def cube_goodness(axis: Axis, shift: AxisShift, r: int = 2, gamma: float | None = None,
                  alpha: float = 1.0) -> np.ndarray:
    """Read-only goodness of every cube of the shifted lattice, in cube index
    order (`level_rows`): whether the cube stays quantitatively away from
    the boundaries of all cubes at least 2^r times larger in its lattice.

    A level-j cube is bad when, for a coarse level c in 1..j-r, its
    sup-metric distance to the boundaries of the level-c cubes is at most
    side^gamma * (coarse side)^(1 - gamma).  gamma defaults to
    alpha / (2 * (2*dim + alpha)).  The level-0 cube is the whole torus,
    whose topological boundary is empty, so coarse levels start at 1.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if gamma is None:
        gamma = alpha / (2.0 * (2 * axis.dim + alpha))
    L, n = axis.levels, axis.n_side
    good = []
    for j, tab in enumerate(cell_tables(axis, shift)):
        w = 1 << (L - j)
        start = tab[:, :1] // n ** np.arange(axis.dim) % n  # per cube and coordinate, its first cell
        ok = np.ones(len(tab), dtype=bool)
        for c in range(1, j - r + 1):
            spacing = 1 << (L - c)
            r0 = (start - np.array(shift.offset_cells(c))) % spacing
            # per coordinate, the cells to the nearest level-c boundary: 0 if one meets the cube
            gap = np.where((r0 == 0) | (r0 + w >= spacing), 0, np.minimum(r0, spacing - r0 - w))
            ok &= gap.min(axis=1) / n > (2.0 ** -j) ** gamma * (2.0 ** -c) ** (1.0 - gamma)
        good.append(ok)
    out = np.concatenate(good)
    out.setflags(write=False)
    return out


def classify_goodness(cube: DyadicCube, r: int = 2, gamma: float | None = None, alpha: float = 1.0) -> bool:
    """The cube's entry of its lattice's `cube_goodness`."""
    return bool(cube_goodness(cube.axis, cube.shift, r, gamma, alpha)[cube.table_index])


def goodness_fraction(axis: Axis, level: int, r: int = 2, gamma: float | None = None,
                      alpha: float = 1.0) -> float:
    """Exact probability over all shifts that the level-`level` cube at a
    given position is good: the share of good cubes of that level in the
    unshifted lattice.  A shifted lattice is the unshifted one rotated, its
    cubes relabelled within each level, and over all shifts the cube lands
    on each level-`level` cube of the unshifted lattice equally often."""
    if not 0 <= level <= axis.levels:
        raise ResolutionError(f"level {level} outside 0..{axis.levels}")
    return float(cube_goodness(axis, AxisShift.zero(axis), r, gamma, alpha)[level_rows(axis, level)].mean())
