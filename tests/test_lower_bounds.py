"""Median-method lower bounds and the testing-constant search."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadlab import core, lower_bounds
from dyadlab.core import (
    DiscreteFunction,
    DyadicCube,
    DyadicRectangle,
    GridShift,
    TorusGrid,
    all_rectangles,
    sample_shift,
)
from dyadlab.kernels import (
    KernelSpec,
    cell_centers,
    get_kernel,
    sign_kernel,
    tensor_riesz,
    torus_delta,
)
from dyadlab.lower_bounds import (
    BilinearKernel,
    bmo_lower_bound,
    find_nondegenerate_partner,
    gamma_constant,
    pointwise_chain_check,
    weak_lr_norm,
    weighted_median,
)
from dyadlab.measures import bmo_norm

GRID = TorusGrid.make(3)
ZERO = GridShift.zero(GRID)


def rect(l1, p1, l2, p2):
    return DyadicRectangle(
        DyadicCube(GRID.axes[0], l1, (p1,), ZERO.shift1),
        DyadicCube(GRID.axes[1], l2, (p2,), ZERO.shift2),
    )


def step_symbol(grid=GRID):
    vals = np.ones(grid.shape)
    vals[: grid.shape[0] // 2, :] = -1.0
    return DiscreteFunction(grid, vals)


def log_symbol(grid):
    n1, n2 = grid.shape
    x = (np.arange(n1) + 0.5) / n1
    y = (np.arange(n2) + 0.5) / n2
    d = (np.minimum(np.abs(x - 0.5), 1 - np.abs(x - 0.5))[:, None]
         + np.minimum(np.abs(y - 0.5), 1 - np.abs(y - 0.5))[None, :])
    return DiscreteFunction(grid, np.log(1.0 / (d + 1e-9)))


RIEZ = BilinearKernel(GRID, tensor_riesz(1, 1))


# -- kernels and partners --------------------------------------------------------

def test_kernel_registry():
    k = get_kernel("riesz", i=2, j=1)
    assert k.alpha == 1.0
    assert get_kernel("sign").name == "sign"
    with pytest.raises(KeyError):
        get_kernel("nope")
    for name, opts in (("riesz", {"alpah": 2.0}), ("sign", {"i": 1})):
        with pytest.raises(TypeError):  # an option the kernel does not take
            get_kernel(name, **opts)


def test_size_bound_sampled():
    # largest |K| times the size envelope over random off-diagonal triples
    rng = np.random.default_rng(0)
    x, y, z = (rng.integers(0, GRID.shape[0] * GRID.shape[1], 512) for _ in range(3))
    (x1, x2), (y1, y2), (z1, z2) = (RIEZ._coords(c) for c in (x, y, z))
    d1 = np.abs(torus_delta(x1, y1)) + np.abs(torus_delta(x1, z1))
    d2 = np.abs(torus_delta(x2, y2)) + np.abs(torus_delta(x2, z2))
    vals = np.abs(RIEZ.eval_cells(x, y, z))
    mask = (d1 > 0) & (d2 > 0)
    assert mask.any()
    assert (vals[mask] * d1[mask] ** 2 * d2[mask] ** 2).max() < 8.0


def test_partner_found_at_fine_scale():
    out = find_nondegenerate_partner(RIEZ, rect(3, 1, 3, 0), C0=1.0)
    assert out["min_value"] > 0  # single-signed on the whole triple product
    assert abs(out["sigma"]) == 1.0


def test_partner_no_room_at_top_scale():
    with pytest.raises(ValueError):
        find_nondegenerate_partner(RIEZ, rect(1, 0, 1, 0), C0=2.0)


def test_partner_search_rejects_higher_dim_factors():
    # candidates are runs of cells along one coordinate, which on a 2-d
    # factor are neither cubes nor separated from the rectangle
    grid = TorusGrid.make(3, (2, 1))
    om = GridShift.zero(grid)
    r = DyadicRectangle(DyadicCube(grid.axes[0], 2, (0, 1), om.shift1),
                        DyadicCube(grid.axes[1], 2, (1,), om.shift2))
    K = BilinearKernel(grid, tensor_riesz(1, 1))
    with pytest.raises(NotImplementedError):
        find_nondegenerate_partner(K, r)


def _direct(kernel, x, y, z):
    """The spec evaluated at the cell centres of flat cell triples."""
    c1, c2 = cell_centers(kernel.grid)
    n2 = kernel.grid.shape[1]
    x, y, z = np.broadcast_arrays(x, y, z)
    return kernel.spec(c1[x // n2], c2[x % n2], c1[y // n2], c2[y % n2], c1[z // n2], c2[z % n2])


def _partner_scan(kernel, rect, C0, stride):
    """Reference partner search: a Python scan over candidate starts, one
    kernel point at a time for the scores, candidates by descending
    (|c|, c, o1, o2), the best of the first eight, or of all of them when
    none of those is single-signed."""
    c1, c2 = rect.cube1, rect.cube2
    n1s, n2s = c1.axis.n_side, c2.axis.n_side
    w1, w2 = c1.width_cells, c2.width_cells
    need1, need2 = math.ceil(C0 * w1), math.ceil(C0 * w2)
    if 2 * need1 + 2 * w1 > n1s or 2 * need2 + 2 * w2 > n2s:
        return None
    n2 = kernel.n2
    s1, s2 = c1.start_cells()[0], c2.start_cells()[0]
    y = np.add.outer(c1.cells() * n2, c2.cells()).ravel()
    ymid = y[len(y) // 2]
    candidates = []
    for o1 in range(0, n1s, stride[0]):
        if min((o1 - (s1 + w1)) % n1s, (s1 - (o1 + w1)) % n1s) < need1:
            continue
        for o2 in range(0, n2s, stride[1]):
            if min((o2 - (s2 + w2)) % n2s, (s2 - (o2 + w2)) % n2s) < need2:
                continue
            mid = ((o1 + w1 // 2) % n1s) * n2 + (o2 + w2 // 2) % n2s
            cval = float(_direct(kernel, np.array([mid]), ymid, ymid)[0])
            candidates.append((abs(cval), cval, o1, o2))
    if not candidates:
        return None
    candidates.sort(reverse=True)

    def full_eval(pool):
        best = None
        for _, cval, o1, o2 in pool:
            cells1 = (o1 + np.arange(w1)) % n1s
            cells2 = (o2 + np.arange(w2)) % n2s
            x = np.add.outer(cells1 * n2, cells2).ravel()
            sigma = 1.0 if cval >= 0 else -1.0
            lo = float((sigma * _direct(kernel, x[:, None], y[None, :], y[None, :])).min())
            if best is None or lo > best["min_value"]:
                best = {"cells1": cells1, "cells2": cells2, "sigma": sigma, "min_value": lo}
        return best

    best = full_eval(candidates[:8])
    if best["min_value"] <= 0 and len(candidates) > 8:
        best = full_eval(candidates)
    best["lower_bound_constant"] = best["min_value"] * rect.measure**2
    return best


def _direct_search_partners(kernel, w, s, C0, stride):
    """Reference batched search by direct kernel evaluation, with the
    signature of `lower_bounds._search_partners`.  Rectangles of the same
    widths and candidate counts share one candidate table, one kernel call
    scores their candidates at the middle cells and one lexsort orders them;
    the first-eight and all-candidate passes evaluate the kernel on every
    (x, y, y)."""
    out = [None] * len(w)
    n1s, n2s = (axis.n_side for axis in kernel.grid.axes)
    need = np.ceil(C0 * w).astype(int)
    fit = np.flatnonzero((2 * need + 2 * w <= (n1s, n2s)).all(axis=1))
    w, s, need = w[fit], s[fit], need[fit]

    def starts(t, n):
        o = np.arange(0, n, stride[t])
        gap = np.minimum((o - (s[:, t, None] + w[:, t, None])) % n,
                         (s[:, t, None] - (o + w[:, t, None])) % n)
        return o, gap >= need[:, t, None]

    (o1, ok1), (o2, ok2) = starts(0, n1s), starts(1, n2s)
    m1, m2 = ok1.sum(axis=1), ok2.sum(axis=1)
    has = np.flatnonzero((m1 > 0) & (m2 > 0))
    groups = {}
    for j, key in zip(has.tolist(), map(tuple, np.stack([*w.T, m1, m2], axis=1)[has].tolist())):
        groups.setdefault(key, []).append(j)
    for (w1, w2, k1, k2), js in groups.items():
        g1 = o1[np.nonzero(ok1[js])[1]].reshape(len(js), k1)
        g2 = o2[np.nonzero(ok2[js])[1]].reshape(len(js), k2)
        y = lower_bounds._flat_cells(kernel.grid, s[js], w[js])
        for j, partner in zip(js, _direct_group(kernel, y, g1, g2, w1, w2)):
            out[fit[j]] = partner
    return out


def _direct_group(kernel, y, g1, g2, w1, w2):
    n1s, n2s = (axis.n_side for axis in kernel.grid.axes)
    R, k1, k2 = len(y), g1.shape[1], g2.shape[1]
    m = k1 * k2
    o1 = np.repeat(g1, k2, axis=1).ravel()
    o2 = np.tile(g2, (1, k1)).ravel()
    ymid = y[:, y.shape[1] // 2, None]
    mid = (((o1 + w1 // 2) % n1s) * kernel.n2 + (o2 + w2 // 2) % n2s).reshape(R, m)
    cval = kernel.eval_cells(mid, ymid, ymid).ravel()
    row = np.repeat(np.arange(R), m)
    # per rectangle, descending (|c|, c, o1, o2), as sorting those tuples in reverse
    order = np.lexsort((o2, o1, cval, np.abs(cval), row)).reshape(R, m)[:, ::-1]
    sigma = np.where(cval >= 0, 1.0, -1.0)

    def full_eval(pool):
        flat = pool.ravel()
        x = lower_bounds._flat_cells(kernel.grid, np.stack([o1[flat], o2[flat]], axis=1),
                                     np.array([[w1, w2]]))[:, :, None]
        yc = y[flat // m][:, None, :]
        lo = (sigma[flat, None, None] * kernel.eval_cells(x, yc, yc)).min(axis=(1, 2))
        lo = lo.reshape(pool.shape)
        b = np.argmax(lo, axis=1)
        at = np.arange(len(pool))
        return pool[at, b], lo[at, b]

    best, lo = full_eval(order[:, :8])
    redo = np.flatnonzero(lo <= 0)
    if m > 8 and len(redo):
        best[redo], lo[redo] = full_eval(order[redo])
    return list(zip(o1[best].tolist(), o2[best].tolist(), sigma[best].tolist(), lo.tolist()))


def _reference_base_rectangles(grid, max_cells=None):
    """The base rectangles one at a time: the rectangles of the zero lattice
    with no level-0 factor and at most `max_cells` cells, in `all_rectangles`
    order."""
    for rect_ in all_rectangles(grid, GridShift.zero(grid)):
        c1, c2 = rect_.cube1, rect_.cube2
        if c1.level == 0 or c2.level == 0:
            continue
        if max_cells and c1.width_cells * c2.width_cells > max_cells:
            continue
        yield rect_


def _memo_key(rect_):
    """A rectangle's key in a partner memo: widths, then start cells."""
    c1, c2 = rect_.cube1, rect_.cube2
    return (c1.width_cells, c2.width_cells, c1.start_cells()[0], c2.start_cells()[0])


def _rect_arrays(rects):
    """Per-factor widths and start cells (R, 2) of a list of rectangles."""
    keys = np.array([_memo_key(r) for r in rects]).reshape(-1, 4)
    return keys[:, :2], keys[:, 2:]


def _as_partner(found, rect_):
    """A searched (start1, start2, sigma, min_value) entry as the dict
    `find_nondegenerate_partner` returns for the rectangle."""
    p1, p2, sigma, lo = found
    c1, c2 = rect_.cube1, rect_.cube2
    return {"cells1": (p1 + np.arange(c1.width_cells)) % c1.axis.n_side,
            "cells2": (p2 + np.arange(c2.width_cells)) % c2.axis.n_side,
            "sigma": sigma, "min_value": lo, "lower_bound_constant": lo * rect_.measure**2}


def _table_pairs(table, grid):
    """The rows of a pair table as (rectangle, partner dict) pairs."""
    om = GridShift.zero(grid)
    out = []
    for (l1, l2), (p1, p2), start, sigma, lo in zip(
            table.level.tolist(), table.pos.tolist(), table.partner.tolist(),
            table.sigma.tolist(), table.min_value.tolist()):
        r = DyadicRectangle(DyadicCube(grid.axes[0], l1, (p1,), om.shift1),
                            DyadicCube(grid.axes[1], l2, (p2,), om.shift2))
        out.append((r, _as_partner((*start, sigma, lo), r)))
    return out


@pytest.mark.parametrize("L, every, specs, pool_points",
                         [(3, 1, ((1, 1), (2, 1)), 16), (4, 9, ((1, 2),), None)])
def test_partner_search_matches_scan(L, every, specs, pool_points, monkeypatch):
    # every rectangle's partner three ways: one search per rectangle, one
    # batched search over all of them, and the pair groups of all base
    # rectangles.  On level 3, batches of 16 kernel points split the
    # candidate pools of large rectangles, and batches of small rectangles'
    # candidates span several rectangles.
    if pool_points is not None:
        monkeypatch.setattr(lower_bounds, "_POOL_POINTS", pool_points)
    grid = TorusGrid.make(L)
    rects = list(_reference_base_rectangles(grid))[::every]
    width, start = _rect_arrays(rects)
    outcomes = set()
    for spec in (tensor_riesz(i, j) for i, j in specs):
        for C0 in (1.0, 2.0):
            pairs = dict(_table_pairs(
                lower_bounds._pair_groups(BilinearKernel(grid, spec), C0, None), grid))
            for stride in ((1, 1), (2, 2)):
                K = BilinearKernel(grid, spec)
                batched = lower_bounds._search_partners(BilinearKernel(grid, spec), width, start,
                                                        C0, stride)
                for r, in_batch in zip(rects, batched):
                    want = _partner_scan(K, r, C0, stride)
                    outcomes.add(want is None)
                    if want is None:
                        assert in_batch is None
                        assert stride != (1, 1) or r not in pairs
                        with pytest.raises(ValueError):
                            find_nondegenerate_partner(K, r, C0, stride)
                        continue
                    got = [find_nondegenerate_partner(K, r, C0, stride), _as_partner(in_batch, r)]
                    if stride == (1, 1):
                        got.append(pairs[r])
                    for partner in got:
                        assert partner.keys() == want.keys()
                        for key, val in want.items():
                            assert np.array_equal(partner[key], val), (r, C0, stride, key)
    assert outcomes == {True, False}  # both found and missing partners were checked


def test_batched_partner_search_independent_of_batch_size(monkeypatch):
    # level 4 in batches of 16 kernel points against one batch per pass
    grid = TorusGrid.make(4)
    K = BilinearKernel(grid, tensor_riesz(2, 1))
    _, _, start, width = (col[::7] for col in lower_bounds._base_rectangles(grid))
    cases = [(C0, stride) for C0 in (1.0, 2.0) for stride in ((1, 1), (2, 2))]
    whole = [lower_bounds._search_partners(K, width, start, C0, stride) for C0, stride in cases]
    monkeypatch.setattr(lower_bounds, "_POOL_POINTS", 16)
    for (C0, stride), want in zip(cases, whole):
        got = lower_bounds._search_partners(K, width, start, C0, stride)
        assert [p is None for p in got] == [p is None for p in want]
        for g, w in zip(got, want):
            assert w is None or g == w  # partner start cells, sigma and min_value
    assert any(p is None for p in whole[-1]) and any(p is not None for p in whole[-1])


def test_pair_groups_search_each_partner_once(monkeypatch):
    # one batched search fills the memo with every base rectangle under the
    # cap; a larger cap searches only the rectangles it adds, and the chain
    # check reads the memo
    batches = []

    def search(kernel, width, start, C0, stride):
        batches.append(len(width))
        return _search_partners(kernel, width, start, C0, stride)

    _search_partners = lower_bounds._search_partners
    monkeypatch.setattr(lower_bounds, "_search_partners", search)
    K = BilinearKernel(GRID, tensor_riesz(1, 1))
    b = log_symbol(GRID)
    bmo_lower_bound(K, b, 1, 1.0, 1, 0, 1.0, max_rect_cells=8, seed=2)
    small = {_memo_key(r) for r in _reference_base_rectangles(GRID, 8)}
    assert list(K._partners) == [(1.0, (1, 1))]
    assert set(K._partners[(1.0, (1, 1))]) == small
    assert batches == [len(small)]
    pointwise_chain_check(K, b, rect(3, 5, 3, 2), 1.0, 1, 1, 0)
    assert len(K._partners[(1.0, (1, 1))]) == len(small) and len(batches) == 1
    bmo_lower_bound(K, b, 1, 1.0, 1, 0, 1.0, max_rect_cells=16, seed=2)
    large = {_memo_key(r) for r in _reference_base_rectangles(GRID, 16)}
    assert set(K._partners[(1.0, (1, 1))]) == large
    assert batches == [len(small), len(large) - len(small)]


def test_partner_memo_returns_fresh_read_only_copies():
    K = BilinearKernel(GRID, tensor_riesz(1, 1))
    r = rect(3, 1, 3, 0)
    first = find_nondegenerate_partner(K, r, 1.0)
    first["sigma"] = 0.0  # the caller's dict is its own
    second = find_nondegenerate_partner(K, r, 1.0, (1, 1))
    assert second is not first and second["sigma"] != 0.0
    assert second.keys() == first.keys()
    assert all(np.array_equal(second[k], v) for k, v in first.items() if k != "sigma")
    with pytest.raises(ValueError):
        second["cells1"][0] = 0
    # stride None and (1, 1) share one entry
    assert K._partners.keys() == {(1.0, (1, 1))} and len(K._partners[(1.0, (1, 1))]) == 1
    for _ in range(2):  # a missing partner is remembered and raised again
        with pytest.raises(ValueError):
            find_nondegenerate_partner(K, rect(1, 0, 1, 0), C0=2.0)
    assert sum(len(memo) for memo in K._partners.values()) == 2
    assert K._partners[(2.0, (1, 1))] == {(4, 4, 0, 0): None}


def test_pair_groups_memoised_and_read_only():
    K = BilinearKernel(GRID, tensor_riesz(1, 1))
    b = log_symbol(GRID)
    first = bmo_lower_bound(K, b, 1, 1.0, 1, 0, 1.0, max_rect_cells=8, seed=2)
    again = bmo_lower_bound(K, b, 2, 2.0, 1, 1, 1.0, max_rect_cells=8, seed=2)
    assert list(K._pair_groups) == [(1.0, 8)]  # one build for both searches
    assert again["median_sums"] == first["median_sums"]
    table = K._pair_groups[(1.0, 8)]
    assert sum(len(idx) for idx, _, _ in table.groups.values()) == len(table.sigma)
    columns = (table.level, table.pos, table.partner, table.sigma, table.min_value,
               table.measure, table.cell_offset)
    for arr in (*columns, *(a for group in table.groups.values() for a in group)):
        with pytest.raises(ValueError):
            arr[0] = 0


# per-rectangle partners, kept across the examples below
_SCANS: dict = {}
SPECS = {"riesz11": tensor_riesz(1, 1), "riesz12": tensor_riesz(1, 2),
         "riesz21": tensor_riesz(2, 1), "riesz22": tensor_riesz(2, 2), "sign": sign_kernel(1.0)}


def _scan(spec, kernel, rect_, C0, stride):
    key = (spec, rect_, C0, stride)
    if key not in _SCANS:
        _SCANS[key] = _partner_scan(kernel, rect_, C0, stride)
    return _SCANS[key]


def _assert_same_partner(got, want):
    assert got.keys() == want.keys()
    for key, val in want.items():
        assert np.array_equal(got[key], val), key


@settings(max_examples=12, deadline=None)
@given(L=st.integers(2, 4), C0=st.sampled_from([1.0, 2.0]),
       cap=st.sampled_from([None, 4, 8, 16]), stride=st.sampled_from([(1, 1), (2, 2)]),
       spec=st.sampled_from(sorted(SPECS)), data=st.data())
def test_rectangle_arrays_match_per_rectangle_path(L, C0, cap, stride, spec, data):
    # the base rectangles, partners and pair groups built as arrays, against
    # the per-rectangle path: the generator over all_rectangles, one cell
    # table per pair, and _partner_scan on up to 16 drawn rectangles (the
    # scan of all level-4 rectangles takes about 25 s)
    grid = TorusGrid.make(L)
    rects = list(_reference_base_rectangles(grid, cap))
    level, pos, start, width = lower_bounds._base_rectangles(grid, cap)
    want = [[[c.level, c.pos[0], c.start_cells()[0], c.width_cells] for c in (r.cube1, r.cube2)]
            for r in rects]
    assert np.stack([level, pos, start, width], axis=2).tolist() == want
    kernel = BilinearKernel(grid, SPECS[spec])
    partners = lower_bounds._partners(kernel, width, start, C0, stride)
    table = lower_bounds._pair_groups(kernel, C0, cap)
    pairs = _table_pairs(table, grid)
    searched = lower_bounds._partners(kernel, width, start, C0, (1, 1))
    assert [r for r, _ in pairs] == [r for r, f in zip(rects, searched) if f is not None]
    paired = dict(pairs)
    for i in data.draw(st.lists(st.integers(0, len(rects) - 1), max_size=16, unique=True)):
        r = rects[i]
        scan = _scan(spec, kernel, r, C0, stride)
        assert (partners[i] is None) == (scan is None)
        if scan is not None:
            _assert_same_partner(_as_partner(partners[i], r), scan)
        scan = _scan(spec, kernel, r, C0, (1, 1))
        assert (r in paired) == (scan is not None)
        if scan is not None:
            _assert_same_partner(paired[r], scan)
    # the groups as the per-pair cell tables group them: by cell count, in
    # order of first appearance, pairs in order
    rows: dict[int, list] = {}
    for i, (r, partner) in enumerate(pairs):
        y = np.add.outer(r.cube1.cells() * kernel.n2, r.cube2.cells()).ravel()
        x = np.add.outer(partner["cells1"] * kernel.n2, partner["cells2"]).ravel()
        rows.setdefault(len(y), []).append((i, y, x))
    assert list(table.groups) == list(rows)
    for n, (idx, ycells, xcells) in table.groups.items():
        for got, col in zip((idx, ycells, xcells), zip(*rows[n])):
            assert np.array_equal(got, np.array(col))


# -- the difference table ----------------------------------------------------------------

@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_difference_table_matches_direct_evaluation(L):
    # the table read at the signed cell differences x - y equals the kernel
    # at (x, y, y), bit for bit, for every cell pair and every spec
    grid = TorusGrid.make(L)
    n1, n2 = grid.shape
    x = np.arange(n1 * n2)[:, None]
    for name, spec in SPECS.items():
        K = BilinearKernel(grid, spec)
        for y in np.array_split(np.arange(n1 * n2), 4):
            table = K._table[x // n2 - y // n2 + n1 - 1, x % n2 - y % n2 + n2 - 1]
            assert table.tobytes() == K.eval_cells(x, y, y).tobytes(), (name, L)
    # a table by difference mod n would give -n/2 and n/2 one entry, where
    # riesz takes opposite signs
    up, down = (K.eval_cells(np.array([a * n2 + 1]), b * n2, b * n2)[0]
                for K in [BilinearKernel(grid, SPECS["riesz11"])] for a, b in ((n1 // 2, 0), (0, n1 // 2)))
    assert up == -down != 0.0


def test_kernel_needs_declared_translation_invariance():
    spec = tensor_riesz(1, 1)
    with pytest.raises(ValueError, match="translation invariance"):
        BilinearKernel(GRID, KernelSpec("plain", spec.evaluate, spec.alpha))
    assert all(s.translation_invariant for s in SPECS.values())


def test_partner_search_makes_no_kernel_calls(monkeypatch):
    # one call builds the table; the search reads it and calls nothing
    points = []
    call = KernelSpec.__call__

    def counted(self, *args):
        points.append(np.broadcast(*args).size)
        return call(self, *args)

    monkeypatch.setattr(KernelSpec, "__call__", counted)
    K = BilinearKernel(GRID, tensor_riesz(1, 1))
    assert points == [15 * 15]
    lower_bounds._pair_groups(K, 1.0, 8)
    find_nondegenerate_partner(K, rect(3, 5, 3, 2), 2.0, (2, 1))
    assert points == [15 * 15]


def test_level5_search_memory():
    # the level-5 search under the lower-bound suite's cap; by direct kernel
    # evaluation (`_direct_search_partners`: a kernel call per candidate cell
    # pair, one lexsort per group) it peaks at 80.2 MiB traced
    K = BilinearKernel(TorusGrid.make(5), tensor_riesz(1, 1))
    tracemalloc.start()
    try:
        lower_bounds._pair_groups(K, 1.0, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


@pytest.mark.parametrize("w", [(1, 1), (2, 1), (1, 4), (2, 2), (4, 2)])
@pytest.mark.parametrize("wrapping", [False, True], ids=["aligned", "any-start"])
def test_window_minima_match_every_cell_pair(w, wrapping):
    # every candidate start against rectangles at the aligned starts, or at
    # every start, where candidate and rectangle may both wrap on one axis
    K = BilinearKernel(GRID, tensor_riesz(2, 1))
    n = GRID.shape[0]
    starts = np.arange(0, n, 1 if wrapping else max(w))
    s = np.stack(np.meshgrid(starts, starts, indexing="ij"), axis=-1).reshape(-1, 1, 2)
    s = s[((s % w) == 0).all(axis=-1)[:, 0] | wrapping]
    o = np.stack(np.meshgrid(np.arange(n), np.arange(n), indexing="ij"), axis=-1).reshape(1, -1, 2)
    pos = np.random.default_rng(len(s)).integers(0, 2, (len(s), n * n)).astype(bool)
    got = lower_bounds._min_values(lower_bounds._window_minima(K._table, *w), s, o[..., 0],
                                   o[..., 1], pos, w, (n, n))
    x, y = ([(c[..., t, None] + np.arange(w[t])) % n for t in (0, 1)] for c in (o, s))
    d = [x[t][..., :, None] - y[t][..., None, :] + n - 1 for t in (0, 1)]
    vals = K._table[d[0][..., :, :, None, None], d[1][..., None, None, :, :]]
    want = (np.where(pos, 1.0, -1.0)[..., None, None, None, None] * vals).min(axis=(2, 3, 4, 5))
    assert np.array_equal(got, want) and not np.signbit(got[got == 0]).any()


def _assert_same_table(got, want):
    for name, val in vars(want).items():
        if name == "groups":
            assert list(got.groups) == list(val)
            for n, arrays in val.items():
                assert all(np.array_equal(a, b) for a, b in zip(got.groups[n], arrays))
        else:
            assert np.array_equal(getattr(got, name), val), name


@settings(max_examples=25, deadline=None)
@given(L=st.integers(2, 4), C0=st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]),
       cap=st.sampled_from([None, 2, 8, 16]),
       stride=st.sampled_from([(1, 1), (2, 2), (1, 3), (3, 2)]), spec=st.sampled_from(sorted(SPECS)))
def test_table_search_matches_direct_search(L, C0, cap, stride, spec):
    # partners, and the pair table built from them, against the search that
    # evaluates the kernel on every cell triple (a zero min_value compares
    # equal whatever its sign)
    grid = TorusGrid.make(L)
    _, _, start, width = lower_bounds._base_rectangles(grid, cap)
    K = BilinearKernel(grid, SPECS[spec])
    want = _direct_search_partners(K, width, start, C0, stride)
    assert lower_bounds._search_partners(K, width, start, C0, stride) == want
    with mock.patch.object(lower_bounds, "_search_partners", _direct_search_partners):
        direct = lower_bounds._pair_groups(BilinearKernel(grid, SPECS[spec]), C0, cap)
    _assert_same_table(lower_bounds._pair_groups(K, C0, cap), direct)


@pytest.mark.parametrize("spec", ["riesz11", "sign"])
def test_table_search_matches_direct_search_level5(spec):
    # every fifth base rectangle of the lower-bound suite's cap at level 5
    grid = TorusGrid.make(5)
    _, _, start, width = (col[::5] for col in lower_bounds._base_rectangles(grid, 8))
    K = BilinearKernel(grid, SPECS[spec])
    assert lower_bounds._search_partners(K, width, start, 1.0, (1, 1)) == \
        _direct_search_partners(K, width, start, 1.0, (1, 1))


def test_table_search_on_wrapping_rectangles():
    # rectangles of shifted lattices whose cells wrap around the torus
    rng = np.random.default_rng(5)
    checked = set()
    for om in (sample_shift(GRID, rng) for _ in range(2)):
        for r in all_rectangles(GRID, om):
            cubes = (r.cube1, r.cube2)
            if min(c.level for c in cubes) == 0 or all(
                    c.start_cells()[0] + c.width_cells <= c.axis.n_side for c in cubes):
                continue
            for spec, C0 in (("riesz12", 0.5), ("sign", 1.0)):
                K = BilinearKernel(GRID, SPECS[spec])
                want = _partner_scan(K, r, C0, (1, 1))
                checked.add(want is None)
                if want is None:
                    with pytest.raises(ValueError):
                        find_nondegenerate_partner(K, r, C0)
                else:
                    _assert_same_partner(find_nondegenerate_partner(K, r, C0), want)
    assert checked == {True, False}


def test_search_input_validation():
    r, K = rect(3, 1, 3, 0), BilinearKernel(GRID, tensor_riesz(1, 1))
    for C0 in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="C0"):
            find_nondegenerate_partner(K, r, C0)
        with pytest.raises(ValueError, match="C0"):
            gamma_constant(K, step_symbol(), C0=C0)
    for stride in ((0, 1), (1.5, 1), (-1, 1), (1,), (1, 1, 1)):
        with pytest.raises(ValueError, match="stride"):
            find_nondegenerate_partner(K, r, 1.0, stride)
    b = step_symbol()
    for k, r_, g1, g2 in ((1, 0.0, 1, 0), (1, -1.0, 1, 0), (1, math.nan, 1, 0), (0, 1.0, 0, 0),
                          (1, 1.0, 2, -1)):
        for fn in (gamma_constant, bmo_lower_bound):
            with pytest.raises(ValueError, match="need r > 0"):
                fn(K, b, k, r_, g1, g2)
    with pytest.raises(ValueError, match="r must be positive"):
        weak_lr_norm(np.ones(4), 0.25, 0.0)
    assert K._partners == {}  # nothing was searched


def test_bmo_lower_bound_walks_no_cube_objects(monkeypatch):
    b = log_symbol(GRID)
    want = bmo_lower_bound(BilinearKernel(GRID, tensor_riesz(1, 1)), b, 2, 1.0, 1, 1, 1.0,
                           max_rect_cells=16, seed=3)

    def refuse(*args, **kwargs):
        raise AssertionError("the search walked cube objects")

    monkeypatch.setattr(core, "all_rectangles", refuse)
    monkeypatch.setattr(core.DyadicCube, "cells", refuse)
    monkeypatch.setattr(core.DyadicCube, "__post_init__", refuse)
    got = bmo_lower_bound(BilinearKernel(GRID, tensor_riesz(1, 1)), b, 2, 1.0, 1, 1, 1.0,
                          max_rect_cells=16, seed=3)
    assert {k: v for k, v in got.items() if k != "report"} == \
        {k: v for k, v in want.items() if k != "report"}
    assert vars(got["report"]) == vars(want["report"])


def _reference_sets(b_cells, rng, extra):
    """Index subsets of a rectangle's cells, drawn one set at a time: the
    sublevel sets at the cell quantiles, then nonempty random subsets."""
    order = np.argsort(b_cells)
    n = len(b_cells)
    sets = [order[:q] for q in (max(1, n // 4), max(1, n // 2), max(1, (3 * n) // 4), n)]
    for _ in range(extra):
        mask = rng.integers(0, 2, n).astype(bool)
        if mask.any():
            sets.append(np.nonzero(mask)[0])
    return sets


def _set_value(kernel, bflat, xcells, Ac, gamma1, gamma2, r):
    """Weak-L^r norm of one set's integrand, summed over that set alone."""
    vol = kernel.grid.cell_volume
    bx = bflat[xcells][:, None, None]
    kv = _direct(kernel, xcells[:, None, None], Ac[None, :, None], Ac[None, None, :])
    g = ((bx - bflat[Ac][None, :, None]) ** gamma1 * (bx - bflat[Ac][None, None, :]) ** gamma2
         * kv).sum(axis=(1, 2)) * vol**2
    return weak_lr_norm(g, vol, r)


def _per_set_values(kernel, bflat, xcells, ycells, sets, gamma1, gamma2, r):
    """One rectangle's set values, every set's integrand built on its own."""
    return np.array([_set_value(kernel, bflat, xcells, ycells[A], gamma1, gamma2, r)
                     for A in sets])


def _masks(sets, n):
    """0/1 masks (sets x cells) of index subsets of n cells."""
    masks = np.zeros((len(sets), n))
    for row, A in zip(masks, sets):
        row[A] = 1.0
    return masks


def _per_rect_values(kernel, bflat, xcells, ycells, sets, gamma1, gamma2, r):
    """One rectangle's set values from one (x, y, z) integrand, summed
    against the mask of every set."""
    vol = kernel.grid.cell_volume
    bx = bflat[xcells][:, None, None]
    by = bflat[ycells][None, :, None]
    bz = bflat[ycells][None, None, :]
    kv = _direct(kernel, xcells[:, None, None], ycells[None, :, None], ycells[None, None, :])
    masks = _masks(sets, len(ycells))
    g = np.einsum("xyz,sy,sz->sx", (bx - by) ** gamma1 * (bx - bz) ** gamma2 * kv,
                  masks, masks) * vol**2
    return lower_bounds._weak_lr_rows(g, vol, r)


def _rect_cells(c1, c2, n2):
    return np.add.outer(np.asarray(c1) * n2, c2).ravel()


def _gamma_reference(kernel, b, k, r, gamma1, gamma2, C0, max_rect_cells, random_subsets,
                     seed, values):
    """Reference testing-constant search: one rectangle at a time, its sets
    drawn one at a time, a strict `>` scan over rectangles and their sets in
    order; `values` evaluates one rectangle's sets."""
    grid = kernel.grid
    rng = np.random.default_rng(seed)
    bflat = b.values.ravel()
    value, searched, witness = 0.0, 0, {}
    for rect_ in all_rectangles(grid, GridShift.zero(grid)):
        c1, c2 = rect_.cube1, rect_.cube2
        if c1.level == 0 or c2.level == 0 or c1.width_cells * c2.width_cells > max_rect_cells:
            continue
        try:
            partner = find_nondegenerate_partner(kernel, rect_, C0)
        except ValueError:
            continue
        ycells = _rect_cells(c1.cells(), c2.cells(), kernel.n2)
        xcells = _rect_cells(partner["cells1"], partner["cells2"], kernel.n2)
        sets = _reference_sets(bflat[ycells], rng, random_subsets)
        vals = values(kernel, bflat, xcells, ycells, sets, gamma1, gamma2, r) \
            / rect_.measure ** (1.0 / r)
        searched += len(sets)
        for A, val in zip(sets, vals):
            if val > value:
                value = val
                witness = {"rect": ((c1.level, c1.pos[0]), (c2.level, c2.pos[0])),
                           "partner_start": (int(partner["cells1"][0]),
                                             int(partner["cells2"][0])),
                           "sigma": partner["sigma"], "set_size": len(A)}
    return value, searched, witness


def _assert_same_search(got, want):
    value, searched, witness = want
    assert abs(got.value - value) <= 1e-12 * value
    assert got.searched == searched
    assert got.witness == witness


@pytest.mark.parametrize("k, g1, g2, r", [(1, 1, 0, 1.0), (1, 0, 1, 0.5), (2, 1, 1, 2.0)])
def test_set_values_match_per_set_sums(k, g1, g2, r):
    # every rectangle's sets, padded with empty masks to a common count per
    # cell-count group, evaluated in one call per group
    b = GRID.random(np.random.default_rng(k))
    bflat = b.values.ravel()
    rng = np.random.default_rng(9)
    table = lower_bounds._pair_groups(RIEZ, 1.0, None)
    groups = table.groups
    sets = [_reference_sets(bflat[_rect_cells(p.cube1.cells(), p.cube2.cells(), RIEZ.n2)], rng, 6)
            for p, _ in _table_pairs(table, GRID)]
    checked = 0
    for n, (idx, ycells, xcells) in groups.items():
        width = max(len(sets[i]) for i in idx)
        masks = np.stack([_masks(sets[i] + [[]] * (width - len(sets[i])), n) for i in idx])
        got = lower_bounds._group_values(RIEZ, bflat, xcells, ycells, masks, g1, g2, r)
        assert got.shape == (len(idx), width)
        for row, i, y, x in zip(got, idx, ycells, xcells):
            for A, val in zip(sets[i], row):
                want = _set_value(RIEZ, bflat, x, y[A], g1, g2, r)
                assert abs(val - want) <= 1e-12 * abs(want)
                checked += 1
            assert not row[len(sets[i]):].any()  # an empty set has no mass
    assert checked > 100 and len(groups) > 1


@pytest.mark.parametrize("k, g1, g2, r, kernel, C0, budget", [
    pytest.param(1, 1, 0, 1.0, RIEZ, 1.0, (64, 6), id="1-1-0-1.0"),
    pytest.param(1, 0, 1, 0.5, RIEZ, 2.0, (8, 32), id="1-0-1-0.5"),
    pytest.param(2, 1, 1, 2.0, BilinearKernel(GRID, sign_kernel(1.0)), 1.0, (16, 0),
                 id="2-1-1-2.0"),
])
def test_gamma_batched_matches_per_set(k, g1, g2, r, kernel, C0, budget):
    b = log_symbol(GRID)
    got = gamma_constant(kernel, b, k, r, g1, g2, C0, *budget, seed=4)
    want = _gamma_reference(kernel, b, k, r, g1, g2, C0, *budget, 4, _per_set_values)
    _assert_same_search(got, want)


TRIPLES = ((1, 1, 0, 1.0), (1, 0, 1, 0.5), (2, 1, 1, 2.0))
SEARCHES = [(C0, budget) for C0 in (1.0, 2.0) for budget in ((8, 32), (64, 6), (16, 0))]


@pytest.mark.parametrize("L", [3, 4])
@pytest.mark.parametrize("spec", [tensor_riesz(1, 1), sign_kernel(1.0)], ids=["riesz", "sign"])
def test_gamma_batched_matches_per_rectangle(L, spec):
    # on level 3 every (k, gamma, r) with every (C0, budget); on level 4 each
    # (C0, budget) with one (k, gamma, r), in turn.  Empty random masks occur
    # on the one-cell rectangles of level 3.
    grid = TorusGrid.make(L)
    kernel = BilinearKernel(grid, spec)
    b = log_symbol(grid) if L == 4 else grid.random(np.random.default_rng(3))
    cases = ([t + s for t in TRIPLES for s in SEARCHES] if L == 3
             else [TRIPLES[i % 3] + s for i, s in enumerate(SEARCHES)])
    for k, g1, g2, r, C0, budget in cases:
        got = gamma_constant(kernel, b, k, r, g1, g2, C0, *budget, seed=L + budget[0])
        want = _gamma_reference(kernel, b, k, r, g1, g2, C0, *budget, L + budget[0],
                                _per_rect_values)
        _assert_same_search(got, want)


def test_gamma_chunked_groups_match_unchunked(monkeypatch):
    b = GRID.random(np.random.default_rng(5))
    cases = [t + (1.0, budget) for t in TRIPLES for budget in ((64, 6), (16, 0))]
    whole = [gamma_constant(RIEZ, b, k, r, g1, g2, C0, *budget, seed=6)
             for k, g1, g2, r, C0, budget in cases]
    # at most 64 kernel points per batch: groups of one- and two-cell
    # rectangles split into several batches, larger ones one pair per batch
    monkeypatch.setattr(lower_bounds, "_POOL_POINTS", 64)
    for (k, g1, g2, r, C0, budget), want in zip(cases, whole):
        got = gamma_constant(RIEZ, b, k, r, g1, g2, C0, *budget, seed=6)
        assert (got.value, got.searched, got.witness) == (want.value, want.searched, want.witness)


def test_sign_kernel_trivial_sigma():
    K = BilinearKernel(GRID, sign_kernel(1.0))
    out = find_nondegenerate_partner(K, rect(2, 1, 2, 0), C0=1.0)
    assert out["sigma"] == 1.0
    assert out["min_value"] == 1.0


# -- medians and weak norms ---------------------------------------------------------

def test_weighted_median_small_sets():
    assert weighted_median(np.array([1.0, 2.0, 3.0])) == 2.0
    assert weighted_median(np.array([1.0, 2.0, 3.0, 4.0])) == 2.0  # lower median
    assert weighted_median(np.array([5.0])) == 5.0


def test_median_halves_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(16)
        m = weighted_median(v)
        assert (v >= m).mean() >= 0.5
        assert (v <= m).mean() >= 0.5


def test_weak_lr_norm_indicator():
    # indicator of measure m has weak norm m^{1/r}
    vals = np.zeros(64)
    vals[:16] = 1.0
    m = 16 / 64
    for r in (0.5, 1.0, 2.0):
        assert abs(weak_lr_norm(vals, 1 / 64, r) - m ** (1 / r)) < 1e-12


def test_weak_lr_below_strong_l1():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(64)
    assert weak_lr_norm(v, 1 / 64, 1.0) <= np.abs(v).mean() + 1e-12


# -- the testing constant --------------------------------------------------------------

def test_gamma_zero_for_constant_symbol():
    rep = gamma_constant(RIEZ, GRID.constant(3.0), 1, 1.0, 1, 0, 1.0, random_subsets=4)
    assert rep.value == 0.0


def test_gamma_positive_for_step_symbol():
    rep = gamma_constant(RIEZ, step_symbol(), 1, 1.0, 1, 0, 1.0, random_subsets=4)
    assert rep.value > 0.0
    assert rep.witness["set_size"] >= 1


def test_gamma_monotone_in_budget():
    b = step_symbol()
    small = gamma_constant(RIEZ, b, 1, 1.0, 1, 0, 1.0, random_subsets=2, seed=5)
    # a larger budget re-runs the same deterministic sets plus more
    big = gamma_constant(RIEZ, b, 1, 1.0, 1, 0, 1.0, random_subsets=16, seed=5)
    assert big.value >= small.value - 1e-15
    assert big.searched > small.searched


def test_gamma_exponent_validation():
    with pytest.raises(ValueError):
        gamma_constant(RIEZ, step_symbol(), 2, 1.0, 1, 0, 1.0)
    with pytest.raises(ValueError):
        gamma_constant(RIEZ, DiscreteFunction(GRID, (1 + 1j) * np.ones(GRID.shape)), 1, 1.0, 1, 0)


# -- chain and certified bound ------------------------------------------------------------

def test_pointwise_chain_on_witnesses():
    b = step_symbol()
    for (k, g1, g2) in ((1, 1, 0), (1, 0, 1), (2, 1, 1)):
        out = pointwise_chain_check(RIEZ, b, rect(3, 5, 3, 2), 1.0, k, g1, g2)
        assert out["cells_ok"] == out["cells_checked"]
        assert out["half_high"] >= 0.5 and out["half_low"] >= 0.5


def _chain_reference(kernel, b, rect_, C0, k, gamma1, gamma2):
    """The median chain checked one partner cell at a time."""
    vol = kernel.grid.cell_volume
    partner = find_nondegenerate_partner(kernel, rect_, C0)
    bflat = b.values.ravel()
    xcells = _rect_cells(partner["cells1"], partner["cells2"], kernel.n2)
    ycells = _rect_cells(rect_.cube1.cells(), rect_.cube2.cells(), kernel.n2)
    alpha = weighted_median(bflat[xcells])
    low = bflat[ycells[bflat[ycells] <= alpha]]
    lhs = np.maximum(alpha - bflat[ycells], 0.0).mean() ** k
    checked, ok, gap = 0, 0, 0.0
    for x in xcells[bflat[xcells] >= alpha]:
        checked += 1
        rhs = sum((bflat[x] - by) ** gamma1 * (bflat[x] - bz) ** gamma2
                  for by in low for bz in low) * vol**2 / rect_.measure**2
        if lhs <= rhs + 1e-12:
            ok += 1
        else:
            gap = max(gap, lhs - rhs)
    return checked, ok, gap


def test_pointwise_chain_matches_per_cell_loop():
    failing = 0
    for seed in range(3):
        b = GRID.random(np.random.default_rng(seed))
        for rect_ in (rect(3, 5, 3, 2), rect(2, 1, 3, 4), rect(2, 0, 2, 3)):
            for k, g1, g2 in ((1, 1, 0), (1, 0, 1), (2, 1, 1)):
                out = pointwise_chain_check(RIEZ, b, rect_, 1.0, k, g1, g2)
                checked, ok, gap = _chain_reference(RIEZ, b, rect_, 1.0, k, g1, g2)
                assert (out["cells_checked"], out["cells_ok"]) == (checked, ok)
                assert abs(out["worst_gap"] - gap) <= 1e-12 * max(gap, 1.0)
                failing += ok < checked
    assert failing > 0  # the gap of failing cells was compared too


def test_median_sums_match_per_rectangle_loop():
    b = GRID.random(np.random.default_rng(2))
    out = bmo_lower_bound(RIEZ, b, 1, 1.0, 1, 0, 1.0, max_rect_cells=16)
    bflat = b.values.ravel()
    want, positive = [], 0
    for rect_ in _reference_base_rectangles(GRID, 16):
        try:
            partner = find_nondegenerate_partner(RIEZ, rect_, 1.0)
        except ValueError:
            continue
        positive += partner["min_value"] > 0
        blk = bflat[_rect_cells(rect_.cube1.cells(), rect_.cube2.cells(), RIEZ.n2)]
        alpha = weighted_median(bflat[_rect_cells(partner["cells1"], partner["cells2"], RIEZ.n2)])
        want.append(float(np.maximum(alpha - blk, 0.0).mean())
                    + float(np.maximum(blk - alpha, 0.0).mean()))
    assert out["median_sums"] == want
    assert out["positive_partners"] == positive


def test_bmo_lower_bound_zero_symbol():
    out = bmo_lower_bound(RIEZ, GRID.constant(1.0), 1, 1.0, 1, 0, 1.0,
                          max_rect_cells=8)
    assert out["oscillation"] == 0.0
    assert out["ratio"] == 0.0


def test_bmo_lower_bound_ratio_band_under_refinement():
    ratios = {}
    for L in (3, 4):
        grid = TorusGrid.make(L)
        K = BilinearKernel(grid, tensor_riesz(1, 1))
        b = log_symbol(grid)
        out = bmo_lower_bound(K, b, 1, 1.0, 1, 0, 1.0, max_rect_cells=8,
                              seed=1)
        ratios[L] = out["ratio"]
        assert out["positive_partners"] > 0
    # frozen band: the certified ratio stays within a factor of four
    assert 0.02 < ratios[3] < 50.0
    assert 0.25 < ratios[4] / ratios[3] < 4.0


def test_oscillation_matches_independent_norm():
    b = log_symbol(GRID)
    out = bmo_lower_bound(RIEZ, b, 1, 1.0, 1, 0, 1.0, max_rect_cells=8)
    assert abs(out["oscillation"] - bmo_norm(b, "little")) < 1e-12


def test_riesz_nondegeneracy_constant_stable_across_scales():
    # the normalised lower constant |K| |R|^2 is scale invariant wherever a
    # single-signed partner fits (the finest scales of each resolution)
    consts = []
    for L, lvl in ((3, 3), (4, 3), (4, 4)):
        grid = TorusGrid.make(L)
        om = GridShift.zero(grid)
        r = DyadicRectangle(
            DyadicCube(grid.axes[0], lvl, (1,), om.shift1),
            DyadicCube(grid.axes[1], lvl, (0,), om.shift2),
        )
        out = find_nondegenerate_partner(BilinearKernel(grid, tensor_riesz(1, 1)), r, C0=1.0)
        assert out["min_value"] > 0
        consts.append(out["min_value"] * r.measure ** 2)
    assert max(consts) / min(consts) < 8.0
