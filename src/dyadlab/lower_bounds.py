"""Median-method lower bounds: non-degenerate kernels, the testing constant
over separated rectangle pairs, and the oscillation bound it certifies."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import DiscreteFunction, DyadicRectangle, TorusGrid
from .kernels import KernelSpec, cell_centers

__all__ = [
    "BilinearKernel",
    "find_nondegenerate_partner",
    "gamma_constant",
    "GammaReport",
    "weighted_median",
    "weak_lr_norm",
    "bmo_lower_bound",
    "pointwise_chain_check",
]


class BilinearKernel:
    """Kernel evaluator on cell triples with declared regularity and
    non-degeneracy metadata, vectorised over index arrays.  The spec must be
    translation invariant: the partner search reads one table of the kernel
    at (x, y, y) by signed cell differences, built here.  Partners and the
    testing-constant search's separated pairs are memoised on the instance."""

    def __init__(self, grid: TorusGrid, spec: KernelSpec, c_nd: float = 1.0):
        if not spec.translation_invariant:
            raise ValueError(f"kernel {spec.name!r} does not declare translation invariance")
        self.grid = grid
        self.spec = spec
        self.c_nd = c_nd
        self._c1, self._c2 = cell_centers(grid)
        self.n2 = grid.shape[1]
        self._partners: dict = {}
        self._pair_groups: dict = {}
        # [d1 + n1 - 1, d2 + n2 - 1] holds x = (d + 1/2) / n, y = 1/2 / n: by signed
        # difference, not mod n, as riesz takes opposite signs at -n/2 and n/2
        (n1, n2), half = grid.shape, 0.5 / np.array(grid.shape)
        x1, x2 = ((np.arange(1 - n, n) + 0.5) / n for n in (n1, n2))
        self._table = t = spec(*np.broadcast_arrays(x1[:, None], x2, *half, *half))
        # integers in the order of (|K|, K)
        self._rank = 2 * np.unique(np.abs(t), return_inverse=True)[1].reshape(t.shape) + (t > 0)
        self._table.setflags(write=False)
        self._rank.setflags(write=False)

    def _coords(self, flat: np.ndarray):
        return self._c1[np.asarray(flat) // self.n2], self._c2[np.asarray(flat) % self.n2]

    def eval_cells(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Kernel values at flat cell triples; x, y, z broadcast together."""
        x1, x2 = self._coords(x)
        y1, y2 = self._coords(y)
        z1, z2 = self._coords(z)
        return self.spec(x1, x2, y1, y2, z1, z2)


def _base_rectangles(grid: TorusGrid, max_cells: int | None = None):
    """The rectangles of the zero lattice with no level-0 factor and at most
    `max_cells` cells, in `RectTable` id order (each factor's cubes in cube
    index order, `core.level_rows`, factor 1 outer), as (R, 2) int arrays
    with one column per factor: level, position, start cell and width."""
    rows = []
    for axis in grid.axes:
        level = np.repeat(np.arange(1, axis.levels + 1), 1 << np.arange(1, axis.levels + 1))
        pos = np.arange(len(level)) + 2 - (1 << level)
        width = 1 << (axis.levels - level)
        rows.append((level, pos, pos * width, width))
    # factor-1 cubes outer, as rectangle ids pair them
    cols = [np.stack([np.repeat(a, len(b)), np.tile(b, len(a))], axis=1) for a, b in zip(*rows)]
    if max_cells:
        keep = cols[3].prod(axis=1) <= max_cells
        cols = [col[keep] for col in cols]
    return cols


def _flat_cells(grid: TorusGrid, start: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Flat cells (R, n) of rectangles with per-factor start cells and widths
    (R, 2), each of n cells: the wrapped run from each start, listed with
    the first factor slowest, as np.add.outer of the factors' runs lists them."""
    n1s, n2s = (axis.n_side for axis in grid.axes)
    k, w2 = np.arange(int(width[0].prod())), width[:, 1, None]
    return ((start[:, 0, None] + k // w2) % n1s) * grid.shape[1] + (start[:, 1, None] + k % w2) % n2s


def find_nondegenerate_partner(kernel: BilinearKernel, rect: DyadicRectangle,
                               C0: float = 1.0, stride: tuple[int, int] | None = None) -> dict:
    """Partner rectangle at the same scales, separated per axis by at least
    C0 side lengths, maximising the worst-case signed kernel value.

    Candidate starts walk the torus with the given per-axis stride (default
    one cell); the candidates are ordered by the kernel at their centre,
    strongest first, and the best of the first eight, or of all when none of
    those is single-signed, wins.  Raises ValueError when the torus has no
    room for the separation, and NotImplementedError on a factor of
    dimension >= 2.

    Partners depend on neither the symbol nor the exponents, so they are
    memoised on the kernel per (C0, stride), by the rectangle's widths and
    start cells, a missing partner too.  Each call returns a fresh dict with
    read-only cell arrays."""
    cubes = (rect.cube1, rect.cube2)
    [found] = _partners(kernel, np.array([[c.width_cells for c in cubes]]),
                        np.array([[c.start_cells()[0] for c in cubes]]), C0,
                        (1, 1) if stride is None else tuple(stride))
    if found is None:
        raise ValueError("no separated partner exists at this scale")
    cells = [(p + np.arange(c.width_cells)) % c.axis.n_side for p, c in zip(found, cubes)]
    for c in cells:
        c.setflags(write=False)
    return {"cells1": cells[0], "cells2": cells[1], "sigma": found[2], "min_value": found[3],
            "lower_bound_constant": found[3] * rect.measure**2}


def _partners(kernel: BilinearKernel, width: np.ndarray, start: np.ndarray, C0: float,
              stride: tuple[int, int]) -> list[tuple | None]:
    """The partner of every rectangle with the given per-factor widths and
    start cells (R, 2), as (start1, start2, sigma, min_value), or None where
    no separated candidate exists.  The kernel's memo for (C0, stride) maps
    (w1, w2, s1, s2) to that entry; the rectangles not in it are searched
    in one batch.  C0 must be finite and positive, stride two positive ints."""
    if not (math.isfinite(C0) and C0 > 0):
        raise ValueError(f"C0 must be finite and positive, got {C0!r}")
    if len(stride) != 2 or not all(isinstance(t, (int, np.integer)) and t > 0 for t in stride):
        raise ValueError(f"stride must be a pair of positive ints, got {stride!r}")
    if any(axis.dim != 1 for axis in kernel.grid.axes):
        # candidates are runs of cells along one coordinate
        raise NotImplementedError("the partner search runs on 1-d factors")
    memo = kernel._partners.setdefault((C0, stride), {})
    keys = list(zip(*width.T.tolist(), *start.T.tolist()))
    missing = [i for i, key in enumerate(keys) if key not in memo]
    if missing:
        memo.update(zip([keys[i] for i in missing],
                        _search_partners(kernel, width[missing], start[missing], C0, stride)))
    return [memo[key] for key in keys]


# entries per chunk of candidate keys or gamma integrand points, to keep temporaries small
_POOL_POINTS = 1 << 16


def _search_partners(kernel: BilinearKernel, w: np.ndarray, s: np.ndarray, C0: float,
                     stride: tuple[int, int]) -> list[tuple | None]:
    """The partners of rectangles of widths w and start cells s (R, 2), as `_partners`
    lists them, searched anew, one group per widths and candidate counts per axis."""
    out: list[tuple | None] = [None] * len(w)
    n1s, n2s = (axis.n_side for axis in kernel.grid.axes)
    need = np.ceil(C0 * w).astype(int)
    fit = np.flatnonzero((2 * need + 2 * w <= (n1s, n2s)).all(axis=1))
    w, s, need = w[fit], s[fit], need[fit]

    def starts(t, n):
        # the candidate starts on axis t, and which of them each rectangle may use
        o = np.arange(0, n, stride[t])
        gap = np.minimum((o - (s[:, t, None] + w[:, t, None])) % n,
                         (s[:, t, None] - (o + w[:, t, None])) % n)
        return o, gap >= need[:, t, None]

    (o1, ok1), (o2, ok2) = starts(0, n1s), starts(1, n2s)
    m1, m2 = ok1.sum(axis=1), ok2.sum(axis=1)
    has = np.flatnonzero((m1 > 0) & (m2 > 0))
    groups: dict[tuple, list[int]] = {}
    for j, key in zip(has.tolist(), map(tuple, np.stack([*w.T, m1, m2], axis=1)[has].tolist())):
        groups.setdefault(key, []).append(j)
    for (w1, w2, k1, k2), js in groups.items():
        g1 = o1[np.nonzero(ok1[js])[1]].reshape(len(js), k1)
        g2 = o2[np.nonzero(ok2[js])[1]].reshape(len(js), k2)
        for j, partner in zip(js, _search_group(kernel, s[js], g1, g2, (w1, w2))):
            out[fit[j]] = partner
    return out


def _search_group(kernel, s, g1, g2, w):
    """Partners, as `_partners` lists them, of rectangles of widths w, start
    cells s (R, 2) and candidate starts g1 (R, k1), g2 (R, k2), from the
    kernel's difference table alone.  Candidates rank by (|c|, c, o1, o2), c
    the kernel at the middle cells: one int key, as a row's candidates run
    o1-major with ascending starts.  The best of the first eight wins, or of
    all when none of those is single-signed; ties go to the higher key."""
    (n1, n2), k2 = kernel.grid.shape, g2.shape[1]
    m, half = g1.shape[1] * k2, w[0] * w[1] // 2
    # table indices of the signed differences, rectangle's middle cell to candidate's
    d1 = (g1 + w[0] // 2) % n1 - (s[:, :1] + half // w[1]) % n1 + n1 - 1
    d2 = (g2 + w[1] // 2) % n2 - (s[:, 1:] + half % w[1]) % n2 + n2 - 1
    lows = _window_minima(kernel._table, *w)
    out, per = [], max(1, _POOL_POINTS // m)
    for r in range(0, len(s), per):
        rows = np.arange(r, min(r + per, len(s)))
        j = np.arange(len(rows))
        pos = kernel._table[d1[rows, :, None], d2[rows, None]] >= 0
        lo = _min_values(lows, s[rows, None, None], g1[rows, :, None], g2[rows, None], pos, w,
                         (n1, n2)).reshape(-1, m)
        key = kernel._rank[d1[rows, :, None], d2[rows, None]].reshape(-1, m) * m + np.arange(m)
        first = np.partition(key, max(m - 8, 0), axis=1)[:, max(m - 8, 0), None] <= key

        def best(pool):
            # the first best column of each row's pool, by min value, then key
            low = np.where(pool, lo, -np.inf)
            return np.where(pool & (low == low.max(axis=1)[:, None]), key, -1).argmax(axis=1)

        col = best(first)
        col = np.where(lo[j, col] > 0, col, best(True))
        out += zip(g1[rows, col // k2].tolist(), g2[rows, col % k2].tolist(),
                   np.where(pos.reshape(-1, m)[j, col], 1.0, -1.0).tolist(), lo[j, col].tolist())
    return out


def _window_minima(table: np.ndarray, w1: int, w2: int) -> np.ndarray:
    """The minima of the table and of its negative over the windows of a x b
    entries from every start, a < 2 w1 and b < 2 w2, as (2, a - 1, b - 1,
    rows, cols), a window past the end cut there; along rows, then columns."""
    def widened(t, w, axis):
        out, tail = [t], (slice(None),) * (-1 - axis)
        for k in range(1, 2 * w - 1):
            # a window of k + 1 entries is the one of k entries and the entry k on
            head = (..., slice(-k), *tail)
            out.append(out[-1].copy())
            np.minimum(out[-2][head], t[(..., slice(k, None), *tail)], out=out[-1][head])
        return np.stack(out, axis=1)

    return widened(widened(np.stack([table, -table]), w2, -1), w1, -2)


def _min_values(lows, s, o1, o2, pos, w, n):
    """The least sigma K(x, y, y), sigma 1 where pos and else -1, over the
    cells x of candidates of starts o1, o2 and y of rectangles of starts s
    (..., 2), broadcasting to pos, of widths w on n cells per axis.  A
    wrapped run is at most two unwrapped ones, so per axis the signed
    differences are at most four intervals, one window of `lows` each."""
    step = np.array(lows.strides) // lows.itemsize  # sign, a, b, row, col

    def windows(t, x, y):
        # flat offsets (windows, ...) on axis t; an empty interval repeats the first
        runs = lambda c: ((c, np.minimum(c + w[t], n[t]) - 1), (0 * c, c + w[t] - 1 - n[t]))
        yr = runs(y)[:1 + bool((y + w[t] > n[t]).any())]
        ivals = [(xa - yb, xb - ya, (xb >= xa) & (yb >= ya)) for xa, xb in runs(x) for ya, yb in yr]
        return np.stack([np.where(ok, hi - lo, ivals[0][1] - ivals[0][0]) * step[1 + t]
                         + (np.where(ok, lo, ivals[0][0]) + n[t] - 1) * step[3 + t]
                         for lo, hi, ok in ivals])

    a, b = windows(0, o1, s[..., 0]), windows(1, o2, s[..., 1]) + ~pos * step[0]
    vals = lows.ravel()[a[:, None] + b[None, :]]
    return vals.reshape(-1, *pos.shape).min(axis=0) + 0.0  # a zero minimum as +0.0


def weighted_median(values: np.ndarray) -> float:
    """Lower median of equal-volume cell values (deterministic for ties)."""
    v = np.sort(np.asarray(values).ravel())
    return float(v[(len(v) - 1) // 2])


def weak_lr_norm(values: np.ndarray, cell_volume: float, r: float) -> float:
    """sup_t t |{|g| > t}|^{1/r} computed exactly from the sorted cells."""
    if not r > 0:
        raise ValueError(f"r must be positive, got {r!r}")
    a = np.asarray(values).ravel()
    if len(a) == 0:
        return 0.0
    return float(_weak_lr_rows(a[None, :], cell_volume, r)[0])


def _weak_lr_rows(g: np.ndarray, cell_volume: float, r: float) -> np.ndarray:
    """weak_lr_norm of every row of a 2-d array."""
    a = np.sort(np.abs(g), axis=1)[:, ::-1]
    meas = cell_volume * np.arange(1, g.shape[1] + 1)
    return (a * meas ** (1.0 / r)).max(axis=1)


@dataclass
class GammaReport:
    value: float
    witness: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    searched: int = 0


@dataclass(frozen=True)
class _PairTable:
    """The base rectangles with a separated partner, a row per pair in
    `_base_rectangles` order, per-factor columns (P, 2); `cell_offset` (P + 1)
    is where each pair's cells start in all pairs' cells, `groups` maps cell
    counts n, in order of first appearance, to (positions, cells (R, n),
    partner cells (R, n))."""

    level: np.ndarray
    pos: np.ndarray
    partner: np.ndarray  # start cells
    sigma: np.ndarray
    min_value: np.ndarray
    measure: np.ndarray
    cell_offset: np.ndarray
    groups: dict


def _pair_groups(kernel: BilinearKernel, C0: float, max_rect_cells: int | None) -> _PairTable:
    """The pairs of the testing-constant search.  Like the partners, they are
    memoised on the kernel, by (C0, max_rect_cells); the arrays are read-only."""
    key = (C0, max_rect_cells)
    if key in kernel._pair_groups:
        return kernel._pair_groups[key]
    level, pos, start, width = _base_rectangles(kernel.grid, max_rect_cells)
    found = _partners(kernel, width, start, C0, (1, 1))
    has = np.array([f is not None for f in found], dtype=bool)
    level, pos, start, width = level[has], pos[has], start[has], width[has]
    cols = np.array([f for f in found if f is not None], dtype=float).reshape(-1, 4)
    partner = cols[:, :2].astype(int)
    n_cells = width.prod(axis=1)
    counts, first = np.unique(n_cells, return_index=True)
    groups = {}
    for n in counts[np.argsort(first)].tolist():
        idx = np.flatnonzero(n_cells == n)
        groups[n] = (idx, _flat_cells(kernel.grid, start[idx], width[idx]),
                     _flat_cells(kernel.grid, partner[idx], width[idx]))
    table = _PairTable(level, pos, partner, cols[:, 2], cols[:, 3],
                       np.ldexp(1.0, -level).prod(axis=1),
                       np.concatenate([[0], np.cumsum(n_cells)]), groups)
    for arr in (*vars(table).values(), *(a for group in groups.values() for a in group)):
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    kernel._pair_groups[key] = table
    return table


def gamma_constant(kernel: BilinearKernel, b: DiscreteFunction, k: int = 1, r: float = 1.0,
                   gamma1: int = 1, gamma2: int = 0, C0: float = 1.0, max_rect_cells: int = 64,
                   random_subsets: int = 32, seed: int = 0) -> GammaReport:
    """Search supremum of the separated-pair testing constant.

    The supremum runs over a structured family (all rectangles up to a size
    cap, their maximising partners, sublevel-set plus `random_subsets` random
    subsets per pair), so the returned value is a certified lower bound for
    the true constant and grows with the search budget.

    Per pair the sets are the sublevel sets of the symbol at its cell
    quantiles, then the nonempty ones of `random_subsets` random 0/1 masks,
    drawn pair after pair in rectangle order from one generator.  All masks
    come from one draw, and the pairs are evaluated per cell count, one
    integrand and one weak norm per batch of pairs."""
    if not (r > 0 and k >= 1 and min(gamma1, gamma2) >= 0 and gamma1 + gamma2 == k):
        raise ValueError(f"need r > 0, k >= 1 and gamma >= 0 splitting k, got r={r!r}, "
                         f"k={k!r}, gamma=({gamma1!r}, {gamma2!r})")
    if np.iscomplexobj(b.values):
        raise ValueError("the symbol must be real-valued")
    best = GammaReport(0.0, params={"k": k, "r": r, "gamma": (gamma1, gamma2), "C0": C0})
    pairs = _pair_groups(kernel, C0, max_rect_cells)
    if not len(pairs.sigma):
        return best
    bflat = b.values.ravel()
    # a batched draw equals the per-set draws, value for value
    draws = np.random.default_rng(seed).integers(0, 2, random_subsets * int(pairs.cell_offset[-1]))
    # |R|^(1/r) by Python's float power, as a scan over pairs takes it, once per measure
    measures, scale = np.unique(pairs.measure, return_inverse=True)
    roots = np.array([m ** (1.0 / r) for m in measures.tolist()])[scale]
    # per pair: the value of its first best set and that set's size
    top = np.zeros(len(pairs.sigma))
    top_size = np.zeros(len(pairs.sigma), dtype=int)
    for n, (idx, ycells, xcells) in pairs.groups.items():
        rank = np.argsort(np.argsort(bflat[ycells], axis=1), axis=1)
        quantiles = np.stack([rank < q for q in (max(1, n // 4), max(1, n // 2),
                                                 max(1, (3 * n) // 4), n)], axis=1)
        at = random_subsets * pairs.cell_offset[idx, None] + np.arange(random_subsets * n)
        rand = draws[at].reshape(len(idx), random_subsets, n).astype(bool)
        masks = np.concatenate([quantiles, rand], axis=1)
        best.searched += int(masks.any(axis=2).sum())
        root = roots[idx]
        vals = np.empty(masks.shape[:2])
        per = max(1, _POOL_POINTS // n**3)
        for s in range(0, len(idx), per):
            sl = slice(s, s + per)
            vals[sl] = _group_values(kernel, bflat, xcells[sl], ycells[sl], masks[sl],
                                     gamma1, gamma2, r) / root[sl, None]
        # an empty set has the value 0 and comes after the quantile sets, so
        # the first maximum is never an empty set
        j = np.argmax(vals, axis=1)
        top[idx] = vals[np.arange(len(idx)), j]
        top_size[idx] = masks[np.arange(len(idx)), j].sum(axis=1)
    # the first pair to reach the largest value, as a scan with a strict `>`
    i = int(np.argmax(top))
    if top[i] > best.value:
        best.value = float(top[i])
        best.witness = {"rect": tuple(zip(pairs.level[i].tolist(), pairs.pos[i].tolist())),
                        "partner_start": tuple(pairs.partner[i].tolist()),
                        "sigma": float(pairs.sigma[i]), "set_size": int(top_size[i])}
    return best


def _group_values(kernel, bflat, xcells, ycells, masks, gamma1, gamma2, r):
    """Weak-L^r norm over the partner cells x of
    sum_{y, z in A} (b(x) - b(y))^gamma1 (b(x) - b(z))^gamma2 K(x, y, z) vol^2
    for every pair and every set A, a row of the 0/1 masks (pairs x sets x
    cells) over the rectangle cells ycells (pairs x cells).  Each pair's
    (x, y, z) integrand is built once and summed against all of its sets."""
    vol = kernel.grid.cell_volume
    bx = bflat[xcells][:, :, None, None]
    by = bflat[ycells][:, None, :, None]
    bz = bflat[ycells][:, None, None, :]
    kv = kernel.eval_cells(xcells[:, :, None, None], ycells[:, None, :, None],
                           ycells[:, None, None, :])
    integrand = (bx - by) ** gamma1 * (bx - bz) ** gamma2 * kv
    m = masks.astype(float)
    g = np.einsum("rxyz,rsy,rsz->rsx", integrand, m, m) * vol**2
    return _weak_lr_rows(g.reshape(-1, g.shape[2]), vol, r).reshape(g.shape[:2])


def pointwise_chain_check(kernel: BilinearKernel, b: DiscreteFunction,
                          rect: DyadicRectangle, C0: float, k: int,
                          gamma1: int, gamma2: int) -> dict:
    """The median chain on one witness pair: with the median on the partner,
    the one-signed integrand dominates the k-th power of the averaged
    positive part, cell by cell."""
    grid = kernel.grid
    vol = grid.cell_volume
    partner = find_nondegenerate_partner(kernel, rect, C0)
    bflat = b.values.ravel()
    xcells = np.add.outer(partner["cells1"] * kernel.n2, partner["cells2"]).ravel()
    ycells = np.add.outer(rect.cube1.cells() * kernel.n2, rect.cube2.cells()).ravel()
    alpha = weighted_median(bflat[xcells])
    low = ycells[bflat[ycells] <= alpha]
    lhs = (np.maximum(alpha - bflat[ycells], 0.0).mean()) ** k
    high = xcells[bflat[xcells] >= alpha]
    bx = bflat[high][:, None, None]
    by = bflat[low][None, :, None]
    bz = bflat[low][None, None, :]
    rhs = ((bx - by) ** gamma1 * (bx - bz) ** gamma2).sum(axis=(1, 2)) * vol**2 / rect.measure**2
    ok = lhs <= rhs + 1e-12
    worst_gap = float(np.max(lhs - rhs[~ok], initial=0.0))
    half_hi = (bflat[xcells] >= alpha).mean()
    half_lo = (bflat[xcells] <= alpha).mean()
    return {"alpha": alpha, "cells_checked": len(high), "cells_ok": int(ok.sum()),
            "worst_gap": worst_gap, "half_high": half_hi, "half_low": half_lo}


def bmo_lower_bound(kernel: BilinearKernel, b: DiscreteFunction, k: int = 1, r: float = 1.0,
                    gamma1: int = 1, gamma2: int = 0, C0: float = 1.0, max_rect_cells: int = 64,
                    seed: int = 0) -> dict:
    """Certified oscillation estimate against the searched testing constant.

    Returns the direct rectangle-oscillation sup, the searched constant, and
    their ratio; per witnessed rectangle the one-sided median bounds are
    recorded."""
    from .measures import bmo_norm

    report = gamma_constant(kernel, b, k, r, gamma1, gamma2, C0,
                            max_rect_cells=max_rect_cells, seed=seed)
    bflat = b.values.ravel()
    osc = bmo_norm(b, "little")
    pairs = _pair_groups(kernel, C0, max_rect_cells)
    med = np.zeros(len(pairs.sigma))
    for n, (idx, ycells, xcells) in pairs.groups.items():
        # the lower median on each partner, as weighted_median row by row
        alpha = np.sort(bflat[xcells], axis=1)[:, (n - 1) // 2, None]
        blk = bflat[ycells]
        med[idx] = (np.maximum(alpha - blk, 0.0).mean(axis=1)
                    + np.maximum(blk - alpha, 0.0).mean(axis=1))
    gamma_k = report.value ** (1.0 / k) if report.value > 0 else 0.0
    return {"oscillation": osc, "gamma": report.value, "gamma_root": gamma_k,
            "ratio": osc / gamma_k if gamma_k > 0 else math.inf if osc > 0 else 0.0,
            "median_sums": med.tolist(),
            "positive_partners": int(np.count_nonzero(pairs.min_value > 0)), "report": report}
