"""Decomposer: exact reconstruction, round trips, coefficient bounds."""

import io
import json
import math
import tracemalloc
from collections import defaultdict
from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from dyadlab.core import (
    Axis,
    AxisShift,
    ConfigError,
    DyadicCube,
    GridShift,
    HaarFunction,
    ResolutionError,
    TorusGrid,
    axis_haar_vector,
    classify_goodness,
    goodness_fraction,
    sample_axis_shift,
    sample_shift,
)
from dyadlab.kernels import tensor_riesz
from dyadlab.model_ops import (
    axis_ops,
    paraproduct_freeness_probe,
    random_full_paraproduct,
    random_partial_paraproduct,
    random_shift_operator,
)
from dyadlab import model_ops, representation, sparse
from dyadlab.representation import (
    BRANCHES,
    CELLS,
    DIAG,
    NES,
    ROUTES,
    SEP,
    SMALLEST_SLOT,
    TUPLE_FIELDS,
    AxisDecomposition,
    KernelFormatError,
    KernelTensor,
    averaged_reconstruction,
    axis_decomposition,
    check_decomposer_size,
    common_ancestor,
    decompose,
    decomposer_bytes,
    _Sparse,
    _sandwich,
)
from dyadlab.sparse import _transposed

GRID = TorusGrid.make(3)
ZERO = GridShift.zero(GRID)


def rand_tensor(seed=0, grid=GRID):
    return KernelTensor.random(grid, np.random.default_rng(seed))


# -- the per-tuple reference builder ---------------------------------------------
# One read and one write vector per tuple, summed term by term: the builder
# the decomposer's index arithmetic replaced, kept as the oracle its
# matrices, row certificates and slot keys are checked against.

class AxisTuple(NamedTuple):
    route: tuple
    lvl_m: int
    pos_m: int
    kind_m: int  # 0 cancellative, 1 top average
    lvl_s: int
    pos_s: int
    kind_s: int
    pos_o: int
    cls: int
    anc_level: int
    anc_pos: int


class PerTupleReference:
    def __init__(self, ad: AxisDecomposition):
        self.ad = ad
        self.axis, self.shift, self.D, self.ops = ad.axis, ad.shift, ad.D, ad.ops
        self.tuples = {
            br: [AxisTuple(ROUTES[br][row["route"]], *(int(row[f]) for f in TUPLE_FIELDS[1:]))
                 for row in ad.tuples[br]]
            for br in BRANCHES
        }

    def _cube(self, level, pos):
        return DyadicCube(self.axis, level, (pos,), self.shift)

    def good(self, level, pos):
        return classify_goodness(self._cube(level, pos), r=self.ad.r, gamma=self.ad.gamma,
                                 alpha=self.ad.alpha)

    # -- decay certificates and slot keys -----------------------------------
    def nested_inside(self, t):
        cstar = self._chain_child(t)
        cs = self._cube(t.lvl_s, t.pos_s)
        rel = (cs.start_cells()[0] - cstar.start_cells()[0]) % self.axis.n_side
        return min(rel, cstar.width_cells - rel - cs.width_cells) > 0

    def well_separated(self, t):
        n, L = self.axis.n_side, self.axis.levels
        delta = t.route[3]
        off = [self.shift.offset_cells(j)[0] for j in range(L + 1)]
        w = [1 << (L - j) for j in range(L + 1)]
        sm = (t.pos_m * w[t.lvl_m] + off[t.lvl_m]) % n
        so = (t.pos_o * w[t.lvl_m + delta] + off[t.lvl_m + delta]) % n
        ss = (t.pos_s * w[t.lvl_s] + off[t.lvl_s]) % n
        d = max(_interval_distance(sm, w[t.lvl_m], ss, w[t.lvl_s], n),
                _interval_distance(so, w[t.lvl_m + delta], ss, w[t.lvl_s], n))
        return d >= w[t.lvl_s]

    def slot_key(self, t):
        """(anchor, per-slot depths, averaged slot, per-slot descendant index)."""
        s_slot, m_slot, o_slot, delta, _, _ = t.route
        levels, pos = [0, 0, 0], [0, 0, 0]
        levels[m_slot - 1], pos[m_slot - 1] = t.lvl_m, t.pos_m
        levels[o_slot - 1], pos[o_slot - 1] = t.lvl_m + delta, t.pos_o
        levels[s_slot - 1], pos[s_slot - 1] = t.lvl_s, t.pos_s
        k = tuple(lv - t.anc_level for lv in levels)
        d = [self.ops.descendant_positions(t.anc_level, t.anc_pos, kk) for kk in k]
        idx = tuple(int(np.where(d[s] == pos[s])[0][0]) for s in range(3))
        return (t.anc_level, t.anc_pos), k, o_slot, idx

    def cap(self, t):
        """Structural cap times complexity decay (the chain parent is the
        common ancestor of a nested tuple, so one formula covers every class)."""
        s_slot, m_slot, o_slot, delta, _, _ = t.route
        levels = [0, 0, 0]
        levels[m_slot - 1] = t.lvl_m
        levels[o_slot - 1] = t.lvl_m + delta
        levels[s_slot - 1] = t.lvl_s
        size_cap = 2.0 ** (-(sum(levels)) / 2.0 + 2 * t.anc_level)
        kmax = max(lv - t.anc_level for lv in levels)
        return size_cap * 2.0 ** (-self.ad.alpha * kmax / 2.0)

    # -- per-tuple read/write vectors ---------------------------------------
    def _hot_index(self, kind, level, pos):
        return 0 if kind == 1 else 1 + self.ops.canc_index(level, pos)

    def _one_hot(self, kind, level, pos):
        return np.array([self._hot_index(kind, level, pos)]), np.array([1.0])

    def _dense_to_sparse(self, vec):
        vec = np.asarray(vec)
        mask = np.abs(vec) > 1e-13 * max(1.0, np.abs(vec).max())
        return np.nonzero(mask)[0], vec[mask]

    def _triple(self, slots):
        (i1, v1), (i2, v2), (i3, v3) = slots
        D = self.D
        idx = (i1[:, None, None] * D * D + i2[None, :, None] * D + i3[None, None, :]).ravel()
        val = (v1[:, None, None] * v2[None, :, None] * v3[None, None, :]).ravel()
        return idx, val

    def write_vector(self, t):
        s_slot, m_slot, o_slot, delta, _, _ = t.route
        out = [None, None, None]
        out[m_slot - 1] = self._one_hot(t.kind_m, t.lvl_m, t.pos_m)
        out[s_slot - 1] = self._one_hot(t.kind_s, t.lvl_s, t.pos_s)
        oi = self.ops.cube_index(t.lvl_m + delta, t.pos_o)
        out[o_slot - 1] = self._dense_to_sparse(self.ad.unit_exp[:, oi])
        return self._triple(out)

    def _chain_child(self, t):
        if t.route[3] == 1:
            return self._cube(t.lvl_m + 1, t.pos_o)
        return self._cube(t.lvl_s, t.pos_s).ancestor(t.lvl_s - t.lvl_m - 1)

    def read_vector_nested_C(self, t):
        s_slot, m_slot, o_slot, delta, _, _ = t.route
        n = self.axis.n_cells
        cstar = self._chain_child(t)
        o_cube = self._cube(t.lvl_m + delta, t.pos_o)
        hP = axis_haar_vector(HaarFunction(self._cube(t.lvl_m, t.pos_m), (t.kind_m ^ 1,)))
        scale = o_cube.measure**-0.5
        ind_c = np.ones(n)
        ind_c[o_cube.cells()] = 0.0
        out_star = np.ones(n)
        out_star[cstar.cells()] = 0.0
        mean_on_child = hP[cstar.cells()].mean()
        s_split = out_star * (hP - mean_on_child)
        tr = self.ad.transform
        svec = self._dense_to_sparse(tr @ (scale * s_split))
        ones = self._dense_to_sparse(self.ad.ones_exp)
        hvec = self._dense_to_sparse(tr @ (scale * hP))
        comp = self._dense_to_sparse(tr @ ind_c)
        s_hot = self._one_hot(t.kind_s, t.lvl_s, t.pos_s)
        term1 = [None, None, None]
        term1[m_slot - 1] = svec
        term1[o_slot - 1] = ones
        term1[s_slot - 1] = s_hot
        term2 = [None, None, None]
        term2[m_slot - 1] = hvec
        term2[o_slot - 1] = comp
        term2[s_slot - 1] = s_hot
        i1, v1 = self._triple(term1)
        i2, v2 = self._triple(term2)
        return np.concatenate([i1, i2]), np.concatenate([v1, -v2])

    def para_vectors(self, branch, lvl_s, pos_s):
        s_slot = SMALLEST_SLOT[branch]
        ci = self.ops.cube_index(lvl_s, pos_s)
        avg = self._dense_to_sparse(self.ad.avg_exp[:, ci])
        ones = self._dense_to_sparse(self.ad.ones_exp)
        s_hot = self._one_hot(0, lvl_s, pos_s)
        write = [avg, avg, avg]
        read = [ones, ones, ones]
        write[s_slot - 1] = s_hot
        read[s_slot - 1] = s_hot
        return self._triple(write), self._triple(read)

    # -- matrices -----------------------------------------------------------
    def matrix(self, branch, cell, gate=False, weights=None, keep=None):
        D3 = self.D**3
        rows, cols, vals = [], [], []

        def add(widx, wval, ridx, rval, scale=1.0):
            for i, a in zip(widx, wval):
                rows.extend([i] * len(ridx))
                cols.extend(ridx.tolist())
                vals.extend((scale * a * rval).tolist())

        def s_scale(lvl_s, pos_s):
            if gate and not self.good(lvl_s, pos_s):
                return 0.0
            return weights.get(lvl_s, 1.0) if weights else 1.0

        if cell == "nesP":
            for lvl_s in range(1, self.axis.levels):
                for pos_s in range(1 << lvl_s):
                    sc = s_scale(lvl_s, pos_s)
                    if sc != 0.0:
                        (widx, wval), (ridx, rval) = self.para_vectors(branch, lvl_s, pos_s)
                        add(widx, wval, ridx, rval, sc)
        else:
            want = {"sep": SEP, "diag": DIAG, "nesC": NES}[cell]
            for t in self.tuples[branch]:
                if t.cls != want or (keep is not None and not keep(t)):
                    continue
                sc = s_scale(t.lvl_s, t.pos_s)
                if sc != 0.0:
                    widx, wval = self.write_vector(t)
                    ridx, rval = self.read_vector_nested_C(t) if cell == "nesC" else (widx, wval)
                    add(widx, wval, ridx, rval, sc)
        return exact_csr(rows, cols, vals, (D3, D3))

    def total_matrix(self):
        return sum(self.matrix(b, c) for b in BRANCHES for c in CELLS)

    def raw_tiling_matrix(self):
        """Pre-split tiling: every tuple contributes its own read=write term."""
        D3 = self.D**3
        rows, cols, vals = [], [], []
        for branch in BRANCHES:
            for t in self.tuples[branch]:
                widx, wval = self.write_vector(t)
                for i, a in zip(widx, wval):
                    rows.extend([i] * len(widx))
                    cols.extend(widx.tolist())
                    vals.extend((a * wval).tolist())
        return exact_csr(rows, cols, vals, (D3, D3))


def exact_csr(rows, cols, vals, shape):
    """CSR matrix of COO triples whose repeated positions add exactly
    (math.fsum): scipy adds them in the order of an unstable sort, which can
    leave a rounding residue where the terms cancel."""
    terms = defaultdict(list)
    for key, v in zip(zip(rows, cols), vals):
        terms[key].append(v)
    pos = np.array(list(terms), dtype=np.int64).reshape(-1, 2)
    return sp.csr_matrix(([math.fsum(t) for t in terms.values()], (pos[:, 0], pos[:, 1])), shape=shape)


def csr(S: _Sparse):
    """The scipy CSR matrix with the entries of S."""
    return sp.csr_matrix((S.val, (S.row, S.col)), shape=S.shape)


def _interval_distance(a0, wa, b0, wb, n):
    if (b0 - a0) % n < wa or (a0 - b0) % n < wb:
        return 0
    return min((b0 - (a0 + wa)) % n, (a0 - (b0 + wb)) % n)


def term_form(dec, br1, cell1, br2, cell2, f1, f2, f3):
    """The form of one (branch, cell) pair of the reconstruction."""
    hat = _sandwich(dec.ax1.matrix(br1, cell1), dec.lam_hat, dec.ax2.matrix(br2, cell2))
    return dec._eval_hat(hat, f1, f2, f3)


def assert_same_matrix(fast, ref, label="", tol=1e-15):
    """Same stored pattern once explicit zeros are dropped, values within tol."""
    fast, ref = fast.copy(), ref.copy()
    for m in (fast, ref):
        m.eliminate_zeros()
        m.sort_indices()
    assert np.array_equal(fast.indptr, ref.indptr) and np.array_equal(fast.indices, ref.indices), label
    assert np.abs(fast.data - ref.data).max(initial=0.0) <= tol, label


def fast_and_reference(ad, ref, mode):
    """Every (branch, cell) matrix of one weighting mode, fast and per tuple.
    The gated mode weights the good smallest cubes of level l by 1 + l/7."""
    level_w = {lvl: 1.0 + lvl / 7 for lvl in range(ad.axis.levels)}
    cube_w = np.array([level_w.get(c.level, 0.0) * g for c, g in zip(ad.ops.cubes, ad.good)])
    for b in BRANCHES:
        for c in CELLS:
            if mode == "gated":
                yield (b, c), ad.matrix(b, c, cube_w[ad.smallest_cubes(b, c)]), \
                    ref.matrix(b, c, gate=True, weights=level_w)
            elif mode == "exportable" and c != "nesP":
                yield (b, c), ad.matrix(b, c, ad.exportable(b)), \
                    ref.matrix(b, c, keep=lambda t: t.kind_m == 0 and t.kind_s == 0)
            else:
                yield (b, c), ad.matrix(b, c), ref.matrix(b, c)


# -- the per-axis identities -------------------------------------------------

@pytest.mark.parametrize("L", [2, 3, 4])
def test_axis_tiling_is_identity(L):
    # every Haar-coefficient triple is consumed exactly once by the branch
    # and route enumeration (symmetry completeness)
    ax = Axis(1, L)
    ad = AxisDecomposition(ax, AxisShift.zero(ax))
    err = abs(PerTupleReference(ad).raw_tiling_matrix() - sp.identity(ad.D**3)).max()
    assert err < 1e-12


@pytest.mark.parametrize("L", [2, 3, 4])
def test_axis_split_identity(L):
    # the cancellative/averaging split and the chain telescoping are exact
    ax = Axis(1, L)
    for shift in (AxisShift.zero(ax), sample_axis_shift(ax, np.random.default_rng(L))):
        ad = AxisDecomposition(ax, shift)
        total = csr(_Sparse.sum(ad.matrix(b, c) for b in BRANCHES for c in CELLS))
        assert abs(total - sp.identity(ad.D**3)).max() < 1e-12


def test_axis_class_partition():
    ad = AxisDecomposition(Axis(1, 3), AxisShift.zero(Axis(1, 3)))
    for br in BRANCHES:
        assert np.isin(ad.tuples[br]["cls"], (SEP, DIAG, NES)).all()
        assert not ad.tuples[br].flags.writeable


def test_axis_decompositions_shared_and_matrices_built_on_use(monkeypatch):
    T = rand_tensor(2)
    om = sample_shift(GRID, np.random.default_rng(4))
    dec = decompose(T, om)
    assert dec.ax1 is axis_decomposition(GRID.axes[0], om.shift1, 2, None, 1.0)
    assert decompose(T, om).ax2 is dec.ax2
    assert not dec._blocks
    totals, matrices = [], []
    monkeypatch.setattr(AxisDecomposition, "total", _counted(totals, AxisDecomposition.total))
    monkeypatch.setattr(AxisDecomposition, "matrix", _counted(matrices, AxisDecomposition.matrix))
    dec.residual_on_haar_triples()
    # one total per axis, no per-cell matrix, no block of the coefficient table
    assert [args[0] for args in totals] == [dec.ax1, dec.ax2] and not matrices and not dec._blocks
    # a block is made on first use with the other block of its axis-1 rows,
    # and kept read-only
    block = dec.coefficients("averaging", "averaging")
    assert list(dec._blocks) == ["averaging"] and not block.flags.writeable
    assert dec.coefficients("averaging", "table").base is block.base
    assert dec.coefficients("averaging", "averaging").base is block.base


@settings(max_examples=12, deadline=None)
@given(L=st.integers(2, 5), bits=st.lists(st.integers(0, 1), min_size=5, max_size=5),
       r=st.integers(1, 2))
@example(L=2, bits=[0] * 5, r=2).via("zero shift")
@example(L=3, bits=[0] * 5, r=1).via("zero shift")
@example(L=4, bits=[0] * 5, r=2).via("zero shift")
def test_fast_matrices_match_per_tuple_reference(L, bits, r):
    # the twelve matrices sum to the identity; up to level 4 every matrix,
    # unweighted, gated-weighted and exportable-masked, equals the per-tuple
    # builder's
    ax = Axis(1, L)
    ad = AxisDecomposition(ax, AxisShift(ax, tuple((b,) for b in bits[:L])), r=r)
    total = csr(_Sparse.sum(ad.matrix(b, c) for b in BRANCHES for c in CELLS))
    assert abs(total - sp.identity(ad.D**3)).max() < 1e-12
    if L > 4:
        return
    ref = PerTupleReference(ad)
    for mode in ("plain", "gated", "exportable"):
        for key, fast, slow in fast_and_reference(ad, ref, mode):
            assert_same_matrix(csr(fast), slow, (mode, key))


@pytest.mark.parametrize("L", [2, 3, 4])
def test_row_certificates_and_slot_keys_match_per_tuple_reference(L):
    ax = Axis(1, L)
    for shift in (AxisShift.zero(ax), sample_axis_shift(ax, np.random.default_rng(L + 10))):
        ad = AxisDecomposition(ax, shift)
        ref = PerTupleReference(ad)
        for br in BRANCHES:
            rows = ref.tuples[br]
            assert ad.well_separated(br).tolist() == [ref.well_separated(t) for t in rows]
            nes = ad.tuples[br]["cls"] == NES
            assert ad.nested_inside(br)[nes].tolist() == [ref.nested_inside(t) for t in rows if t.cls == NES]
            assert ad.caps(br).tolist() == [ref.cap(t) for t in rows]
            keys = ad.slot_keys(br, ad.tuples[br]).tolist()
            assert keys == [[*anc, *k, o, *idx] for anc, k, o, idx in map(ref.slot_key, rows)]
            reads = [ref.read_vector_nested_C(t) if t.cls == NES else ref.write_vector(t) for t in rows]
            row_of = np.repeat(np.arange(len(rows)), [len(idx) for idx, _ in reads])
            want = sp.coo_matrix((np.concatenate([val for _, val in reads]),
                                  (row_of, np.concatenate([idx for idx, _ in reads]))),
                                 shape=(len(rows), ad.D**3)).tocsr()
            want.eliminate_zeros()  # a _Sparse leaves out positions whose sum is zero
            assert_same_matrix(csr(ad.reads(br)), want)


def subset_reads(ad, branch, rows=None):
    """The read table of the masked rows built from those rows alone: the
    oracle for the row selections `AxisDecomposition.reads` takes of the
    table it keeps."""
    tab = ad.tuples[branch] if rows is None else ad.tuples[branch][rows]
    nes = tab["cls"] == NES
    parts = [(np.flatnonzero(~nes), ad._plain_rows(branch, tab[~nes]))]
    parts += [(np.flatnonzero(nes), term) for term in ad._nested_terms(branch, tab[nes])]
    return representation._stack(parts, len(tab), ad.D**3)


def assert_same_sparse(got, want):
    assert got.shape == want.shape
    for name in ("row", "col", "val", "ptr"):
        assert_same_bits(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("L", [2, 3, 4])
def test_read_selections_match_subset_builds(L):
    # every step of a read table's build is row by row, so a mask's rows of
    # the product of the stacked reads equal the product of the table built
    # from those rows, bit for bit: the coefficient blocks are selected so
    ax = Axis(1, L)
    rng = np.random.default_rng(L + 20)
    for shift in (AxisShift.zero(ax), sample_axis_shift(ax, rng), sample_axis_shift(ax, rng)):
        ad = AxisDecomposition(ax, shift)
        X = rng.standard_normal((ad.D**3, 3))
        product = _Sparse.stack([ad.reads(b) for b in BRANCHES]) @ X
        for br in BRANCHES:
            assert_same_sparse(ad.reads(br), subset_reads(ad, br))
            nes, keep = ad.tuples[br]["cls"] == NES, ad.exportable(br)
            for rows in (np.ones(len(nes), dtype=bool), nes, keep & ~nes, keep & nes):
                assert_same_bits(product[ad.first_row[br] + np.flatnonzero(rows)],
                                 subset_reads(ad, br, rows) @ X)


def test_each_read_table_is_built_once(monkeypatch):
    # the exports and reports of one decomposition build one read table and
    # one averaging read per (axis, branch), and select or share them after
    calls = defaultdict(int)

    def counted(name):
        method = getattr(AxisDecomposition, name)

        def run(self, branch, *args):
            calls[name, id(self), branch] += 1
            return method(self, branch, *args)
        return run

    for name in ("_plain_rows", "_nested_terms", "_averaging_rows"):
        monkeypatch.setattr(AxisDecomposition, name, counted(name))
    axis_decomposition.cache_clear()  # instances of earlier tests have built their tables
    grid = TorusGrid.make(2)
    dec = decompose(KernelTensor.random(grid, np.random.default_rng(3)),
                    sample_shift(grid, np.random.default_rng(5)))
    assert dec.ax1 is not dec.ax2
    dec.residual_on_haar_triples()
    dec.extracted_full_paraproducts()
    dec.extracted_shift_families()
    dec.extracted_partial_paraproducts()
    dec.shift_coefficient_report()
    dec.partial_symbol_report()
    assert dict(calls) == {(name, id(ax), br): 1 for name in ("_plain_rows", "_nested_terms", "_averaging_rows")
                           for ax in (dec.ax1, dec.ax2) for br in BRANCHES}


def _counted(calls: list, fn):
    def run(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return run


def _export_sets(ax) -> list[tuple]:
    return [(br, tag, keys, W) for br in BRANCHES for tag, (keys, W) in ax.export_sets(br).items()]


def test_exports_batch_their_products_and_bmo_calls(monkeypatch):
    # one L=2 decomposition: the partial export measures and validates its
    # profiles in at most two BMO calls per axis and makes both row blocks of
    # the coefficient table, one two-product sandwich each; the shift export
    # then gathers from the kept table block and makes no product
    grid = TorusGrid.make(2)
    dec = decompose(KernelTensor.random(grid, np.random.default_rng(3)),
                    sample_shift(grid, np.random.default_rng(5)))
    bmo, products = [], []
    for module in (representation, model_ops):
        monkeypatch.setattr(module, "axis_profile_bmo", _counted(bmo, module.axis_profile_bmo))
    monkeypatch.setattr(_Sparse, "__matmul__", _counted(products, _Sparse.__matmul__))
    assert dec.extracted_partial_paraproducts()
    assert 0 < len(bmo) <= 2 * len(grid.axes)
    assert len(products) == 4 and sorted(dec._blocks) == ["averaging", "table"]
    products.clear()
    assert dec.extracted_shift_families()
    left, right = _export_sets(dec.ax1), _export_sets(dec.ax2)
    # at L=2 one run holds every right factor
    assert [len(representation._runs(right, len(keys))) for _, _, keys, _ in left] == [1] * len(left)
    assert not products


def test_shift_export_runs_leave_the_families_unchanged(monkeypatch):
    # with a cap of one entry every right factor is a run of its own: the
    # same families, bit for bit, from one gather per left and right factor
    # of the kept table block, with no product
    grid = TorusGrid.make(2)
    dec = decompose(KernelTensor.random(grid, np.random.default_rng(4)),
                    sample_shift(grid, np.random.default_rng(6)))
    want = dec.extracted_shift_families()
    products = []
    monkeypatch.setattr(representation, "_RUN_ENTRIES", 1)
    monkeypatch.setattr(_Sparse, "__matmul__", _counted(products, _Sparse.__matmul__))
    got = dec.extracted_shift_families()
    left, right = _export_sets(dec.ax1), _export_sets(dec.ax2)
    assert [len(representation._runs(right, len(keys))) for _, _, keys, _ in left] == [len(right)] * len(left)
    assert not products
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert {k: v for k, v in a.items() if k != "operator"} == {k: v for k, v in b.items() if k != "operator"}
        for name in ("keys", "blocks"):
            assert_same_bits(getattr(a["operator"], name), getattr(b["operator"], name))


@pytest.mark.parametrize("L", [2, 3, 4])
def test_axis_total_matches_sum_of_matrices(L):
    # the total from the kept write and read rows against the sum of the
    # twelve per-cell matrices, unweighted, weighted per smallest cube as the
    # gated reconstruction weights, and with the exportable mask: within
    # 1e-15 per entry (a nested row's two read terms are summed first), and
    # bit for bit at L=2
    ax = Axis(1, L)
    rng = np.random.default_rng(L + 30)
    for shift in (AxisShift.zero(ax), sample_axis_shift(ax, rng), sample_axis_shift(ax, rng)):
        ad = AxisDecomposition(ax, shift, r=1)
        w = np.array([(1.0 + c.level / 7) * g for c, g in zip(ad.ops.cubes, ad.good)])
        for kwargs, weight in (({}, lambda b, c: None),
                               ({"cube_weight": w}, lambda b, c: w[ad.smallest_cubes(b, c)]),
                               ({"exportable": True}, lambda b, c: None if c == "nesP" else ad.exportable(b))):
            got = ad.total(**kwargs)
            want = _Sparse.sum(ad.matrix(b, c, weight(b, c)) for b in BRANCHES for c in CELLS)
            assert abs(csr(got) - csr(want)).max() <= 1e-15, kwargs
            if L == 2:
                assert_same_sparse(got, want)
            if not kwargs:
                assert abs(csr(got) - sp.identity(ad.D**3)).max() < 1e-12


def per_branch_products(dec):
    """The products the reports and exports made per pair of branches
    before the coefficient table: R2_b2 @ (R1_b1 @ lam_hat)^T for the table
    ('table') or averaging ('averaging') reads of each axis, by (part1,
    branch1, part2, branch2), in (axis-1 rows, axis-2 rows) orientation."""
    def reads(ax, part):
        return [ax.reads(b) if part == "table" else ax.averaging_reads(b)[0] for b in BRANCHES]

    out = {}
    for p1 in ("table", "averaging"):
        for b1, R1 in zip(BRANCHES, reads(dec.ax1, p1)):
            left = _transposed(R1 @ dec.lam_hat)
            for p2 in ("table", "averaging"):
                for b2, R2 in zip(BRANCHES, reads(dec.ax2, p2)):
                    out[p1, b1, p2, b2] = (R2 @ left).T
    return out


def block_rows(ax, part, branch):
    """A branch's rows among one part of an axis's stacked reads."""
    if part == "table":
        return slice(ax.first_row[branch], ax.first_row[branch] + len(ax.tuples[branch]))
    n = ax.averaging_reads(branch)[0].shape[0]
    return slice(BRANCHES.index(branch) * n, (BRANCHES.index(branch) + 1) * n)


@settings(max_examples=15, deadline=None)
@given(levels=st.tuples(st.integers(1, 3), st.integers(1, 3)), seed=st.integers(0, 2**32 - 1))
@example(levels=(2, 2), seed=3).via("level 2, seed 3")
@example(levels=(3, 3), seed=7).via("level 3, seed 7")
def test_coefficient_blocks_match_per_branch_products(levels, seed):
    # every block of the coefficient table equals the per-branch products of
    # the reports and exports before it, bit for bit; so does the block of
    # the axis-2 partial orientation, which those made in lam_hat^T order,
    # as A1 @ (T2 @ lam_hat^T)^T, and the table makes as (A1 @ lam_hat) T2^T
    grid = TorusGrid.make(levels)
    rng = np.random.default_rng(seed)
    dec = decompose(KernelTensor.random(grid, rng), sample_shift(grid, rng))
    for (p1, b1, p2, b2), want in per_branch_products(dec).items():
        got = dec.coefficients(p1, p2)[block_rows(dec.ax1, p1, b1), block_rows(dec.ax2, p2, b2)]
        assert_same_bits(got, want)
    T2 = _Sparse.stack([dec.ax2.reads(b) for b in BRANCHES])
    want = _Sparse.stack([dec.ax1.averaging_reads(b)[0] for b in BRANCHES]) @ _transposed(T2 @ _transposed(dec.lam_hat))
    assert_same_bits(np.ascontiguousarray(dec.coefficients("averaging", "table")), want)


def test_reports_and_exports_read_one_coefficient_table(monkeypatch):
    # on one L=2 decomposition the residual, both reports and the three
    # exports make one total per axis and no per-cell matrix, six sparse
    # products (the residual's sandwich and one per row block of the table;
    # the per-branch products were 74) and no transposed copy of lam_hat
    grid = TorusGrid.make(2)
    dec = decompose(KernelTensor.random(grid, np.random.default_rng(3)),
                    sample_shift(grid, np.random.default_rng(5)))
    products, totals, matrices, transposed = [], [], [], []
    monkeypatch.setattr(_Sparse, "__matmul__", _counted(products, _Sparse.__matmul__))
    monkeypatch.setattr(AxisDecomposition, "total", _counted(totals, AxisDecomposition.total))
    monkeypatch.setattr(AxisDecomposition, "matrix", _counted(matrices, AxisDecomposition.matrix))
    monkeypatch.setattr(sparse, "_transposed", _counted(transposed, sparse._transposed))
    assert dec.residual_on_haar_triples() < 1e-10
    dec.shift_coefficient_report()
    dec.partial_symbol_report()
    assert dec.extracted_full_paraproducts() and dec.extracted_shift_families()
    assert dec.extracted_partial_paraproducts()
    assert len(products) == 6 and len(totals) == 2 and not matrices
    assert transposed and not any(args[0] is dec.lam_hat for args in transposed)


def cli_stages(dec):
    """The decomposition's stages in the order the CLI runs them (with
    --export-families), then the two coefficient reports."""
    dec.residual_on_haar_triples()
    dec.extracted_full_paraproducts()
    dec.extracted_shift_families()
    dec.extracted_partial_paraproducts()
    dec.shift_coefficient_report()
    dec.partial_symbol_report()


# tracemalloc peak of `cli_stages` on the inputs of `test_cli_stage_memory_peak`
# with per-branch products, a fresh process: 8,448,565 bytes (numpy 2.4.6)
PEAK_BEFORE = 8_448_565


def test_cli_stage_memory_peak():
    # the kept blocks of the coefficient table must not stack on the
    # residual's sandwich or on the exports' working memory: the traced
    # peak of the stages at L=3 stays within 10% of the per-branch products'
    # (PEAK_BEFORE, measured with the same stages and inputs)
    grid = TorusGrid.make(3)
    axis_decomposition.cache_clear()  # the read tables are built in the traced stages
    dec = decompose(KernelTensor.random(grid, np.random.default_rng(5)),
                    sample_shift(grid, np.random.default_rng(6)))
    tracemalloc.start()
    try:
        cli_stages(dec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * PEAK_BEFORE, peak


# -- the sparse type against scipy ----------------------------------------------

def _sparse_pair(rng, shape, nnz, empty_rows=()):
    """A _Sparse and a scipy CSR matrix of the same random COO triples, some
    at repeated positions.  Values are multiples of 1/16 below 8, so the
    triples at a position add exactly in any order."""
    rows = rng.choice(np.setdiff1d(np.arange(shape[0]), empty_rows), nnz)
    rows = np.r_[rows, rows[:nnz // 4]]
    cols = np.r_[rng.integers(0, shape[1], nnz), rng.integers(0, shape[1], nnz // 4)]
    vals = rng.integers(-128, 128, len(rows)) / 16.0
    return (_Sparse.build(shape, rows, cols, vals),
            sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr())


def assert_same_bits(a, b):
    """Equal arrays down to the sign of every zero."""
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("n_vecs", [1, 33, 20000])  # 20000: three rows per chunk
def test_sparse_products_match_scipy_on_random_matrices(n_vecs):
    rng = np.random.default_rng(n_vecs)
    X = rng.standard_normal((12, n_vecs))
    X[::3, ::2], X[1::3, ::2] = 0.0, -0.0  # products -0.0, which a sum from 0.0 turns into 0.0
    Y = rng.standard_normal((12, 10))
    B, ref_b = _sparse_pair(rng, (7, 10), 20, empty_rows=(3,))
    for empty_rows in ((0, 4, 9), ()):
        S, ref = _sparse_pair(rng, (10, 12), 30, empty_rows)
        assert (np.diff(S.ptr)[list(empty_rows)] == 0).all()
        assert_same_bits(csr(S).toarray(), ref.toarray())
        assert_same_bits(S @ X, ref @ X)
        assert_same_bits(_sandwich(S, Y, B), np.asarray(ref @ Y @ ref_b.T))


@pytest.mark.parametrize("L", [2, 3, 4])
def test_sparse_products_match_scipy_on_decomposer_matrices(L):
    # every read and redistribution matrix, unweighted, gated and exportable:
    # the product by a dense array equals scipy's CSR product bit for bit
    ax = Axis(1, L)
    rng = np.random.default_rng(L)
    for shift in (AxisShift.zero(ax), sample_axis_shift(ax, rng)):
        ad = AxisDecomposition(ax, shift, r=1)
        X = rng.standard_normal((ad.D**3, 5))
        w = np.array([(1.0 + c.level / 7) * g for c, g in zip(ad.ops.cubes, ad.good)])
        mats = [m for b in BRANCHES for m in (ad.reads(b), ad.averaging_reads(b)[0])]
        mats += [ad.matrix(b, c, weight) for b in BRANCHES for c in CELLS
                 for weight in (None, w[ad.smallest_cubes(b, c)], None if c == "nesP" else ad.exportable(b))]
        for S in mats:
            assert_same_bits(S @ X, csr(S) @ X)


def test_repeated_entries_cancel_exactly_in_any_order():
    # the case of matrix('A', 'sep') at L=3, zero shift, r=1, position
    # (270, 262): four +a and four -a, where a plain sum in input order
    # leaves 2^-54
    a = 0.12500000000000003
    terms = [a] * 4 + [-a] * 4
    assert sum(terms) == 2.0**-54
    for order in (terms, terms[::-1], terms[::2] + terms[1::2], [a, -a] * 4):
        zero = np.zeros(8, dtype=np.int64)
        assert _Sparse.build((1, 1), zero, zero, order).val.size == 0
    ax = Axis(1, 3)
    m = AxisDecomposition(ax, AxisShift.zero(ax), r=1).matrix("A", "sep")
    at = dict(zip(zip(m.row.tolist(), m.col.tolist()), m.val.tolist()))
    assert (270, 262) not in at and (262, 270) not in at


def test_repeated_entries_keep_sum2_bound_across_magnitudes():
    # terms of widely different sizes: each sum is within Sum2's bound
    # 2^-53 |s| + (n 2^-53)^2 sum |terms| of math.fsum's, though not always
    # equal to it; this run cancels exactly and may leave a residue of 2^-120
    runs = [[1.0, 2.0**-60, 2.0**-120, -(2.0**-60), -1.0, -(2.0**-120)]]
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        t = rng.standard_normal(n) * 2.0 ** rng.integers(-80, 80, n)
        runs.append(np.r_[t, -t[: n // 2]][rng.permutation(n + n // 2)].tolist())
    rows = np.repeat(np.arange(len(runs)), [len(t) for t in runs])
    S = _Sparse.build((len(runs), 1), rows, np.zeros(len(rows), dtype=np.int64), np.concatenate(runs))
    got = np.zeros(len(runs))
    got[S.row] = S.val
    eps = 2.0**-53
    for g, t in zip(got.tolist(), runs):
        s = math.fsum(t)
        assert abs(g - s) <= eps * abs(s) + (len(t) * eps) ** 2 * math.fsum(map(abs, t))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 12), n_cols=st.integers(1, 9),
       pick=st.sampled_from(["none", "all", "random", "shuffled", "empty rows"]))
@example(seed=0, n_rows=1, n_cols=1, pick="none")
@example(seed=1, n_rows=12, n_cols=9, pick="all")
@example(seed=2, n_rows=12, n_cols=3, pick="empty rows")
def test_row_take_matches_build_of_the_rows_triples(seed, n_rows, n_cols, pick):
    # a selection of distinct rows of a built matrix's product, in any
    # order, is the product of the build of those rows' triples, bit for
    # bit; some rows have no triples, and the last column of each filled row
    # holds two that cancel (values are multiples of 1/16, so they add
    # exactly)
    rng = np.random.default_rng(seed)
    filled = np.flatnonzero(rng.random(n_rows) < 0.7)
    rows = rng.choice(filled, 3 * n_rows) if len(filled) else np.zeros(0, dtype=np.int64)
    cols = rng.integers(0, n_cols, len(rows))
    vals = rng.integers(-64, 64, len(rows)) / 16.0
    rows, cols = np.r_[rows, filled, filled], np.r_[cols, np.full(2 * len(filled), n_cols)]
    vals = np.r_[vals, np.full(len(filled), 0.75), np.full(len(filled), -0.75)]
    S = _Sparse.build((n_rows, n_cols + 1), rows, cols, vals)
    assert not (S.col == n_cols).any()
    at = {"none": np.zeros(0, dtype=np.int64), "all": np.arange(n_rows),
          "random": np.flatnonzero(rng.random(n_rows) < 0.5), "shuffled": rng.permutation(n_rows),
          "empty rows": np.setdiff1d(np.arange(n_rows), filled)}[pick]
    where = np.full(n_rows, -1)
    where[at] = np.arange(len(at))
    keep = where[rows] >= 0
    want = _Sparse.build((len(at), n_cols + 1), where[rows[keep]], cols[keep], vals[keep])
    X = rng.standard_normal((n_cols + 1, 3))
    assert_same_bits((S @ X)[at], want @ X)


# -- reconstruction -------------------------------------------------------------

def test_zero_tensor_decomposes_to_zero():
    T = KernelTensor(GRID, np.zeros_like(rand_tensor().data))
    dec = decompose(T, ZERO)
    assert np.abs(dec.reconstructed_hat()).max() == 0.0


def test_random_tensor_reconstruction_on_haar_triples():
    for seed in range(3):
        T = rand_tensor(seed)
        om = sample_shift(GRID, np.random.default_rng(seed + 100))
        dec = decompose(T, om)
        assert dec.residual_on_haar_triples() < 1e-10


@pytest.mark.parametrize("levels", [(1, 1), (2, 1), (1, 2), 3])
def test_residual_equals_full_difference(levels):
    # the residual, taken over strips of the product's rows (a partial strip
    # at (2, 1)), is the float the whole difference gives
    grid = TorusGrid.make(levels)
    dec = decompose(KernelTensor.random(grid, np.random.default_rng(4)),
                    sample_shift(grid, np.random.default_rng(6)))
    full = np.abs(dec.reconstructed_hat() - dec.lam_hat).max() / np.abs(dec.lam_hat).max()
    assert dec.residual_on_haar_triples() == full


def test_riesz_tensor_reconstruction():
    T = KernelTensor.from_kernel(GRID, tensor_riesz(1, 1))
    dec = decompose(T, sample_shift(GRID, np.random.default_rng(5)))
    assert dec.residual_on_haar_triples() < 1e-10


def test_total_form_matches_tensor_form():
    T = rand_tensor(7)
    dec = decompose(T, ZERO)
    for seed in range(3):
        fs = [GRID.random(np.random.default_rng(seed * 3 + i)) for i in range(3)]
        assert abs(dec.total_form(*fs) - T.form(*fs)) < 1e-10


def test_decompose_complexity_guard():
    T = rand_tensor(1)
    with pytest.raises(ResolutionError):
        decompose(T, ZERO, max_complexity=7)


# -- round trips ------------------------------------------------------------------

def test_shift_round_trip_form_equality():
    S = random_shift_operator(GRID, ZERO, (0, 1, 0), (1, 0, 0), (2, 3),
                              np.random.default_rng(2))
    dec = decompose(KernelTensor.from_operator(S), sample_shift(GRID, np.random.default_rng(3)))
    assert dec.residual_on_haar_triples() < 1e-10
    fs = [GRID.random(np.random.default_rng(i)) for i in (4, 5, 6)]
    assert abs(dec.total_form(*fs) - S.form(*fs)) < 1e-10


def test_partial_paraproduct_round_trip():
    P = random_partial_paraproduct(GRID, ZERO, (1, 0, 0), rng=np.random.default_rng(4))
    dec = decompose(KernelTensor.from_operator(P), ZERO)
    assert dec.residual_on_haar_triples() < 1e-10


def test_full_paraproduct_coefficient_recovery():
    # decomposing the form of a full paraproduct recovers its coefficients
    om = ZERO
    F = random_full_paraproduct(GRID, om, (3, 3), np.random.default_rng(5))
    dec = decompose(KernelTensor.from_operator(F), om)
    rec = dec.full_paraproduct_tables()[("A", "A")]
    o1 = axis_ops(GRID.axes[0], om.shift1)
    o2 = axis_ops(GRID.axes[1], om.shift2)
    for i, ci in enumerate(rec["cubes1"]):
        for j, cj in enumerate(rec["cubes2"]):
            want = F.lam[o1.canc_index(*ci), o2.canc_index(*cj)]
            assert abs(rec["lam"][i, j] - want) < 1e-10


def test_probe_free_tensor_has_zero_full_extraction():
    S = random_shift_operator(GRID, ZERO, (1, 1, 0), (0, 0, 1), (1, 2),
                              np.random.default_rng(6))
    T = KernelTensor.from_operator(S)
    probe = paraproduct_freeness_probe(S)
    assert probe["max_full"] < 1e-12
    dec = decompose(T, ZERO)
    for rec in dec.full_paraproduct_tables().values():
        assert np.abs(rec["lam"]).max() < 1e-12


def test_partial_extraction_vanishes_for_paraproduct_free_tensor():
    S = random_shift_operator(GRID, ZERO, (0, 0, 0), (0, 0, 0), (3, 3),
                              np.random.default_rng(9))
    dec = decompose(KernelTensor.from_operator(S), ZERO)
    rep = dec.partial_symbol_report()
    assert rep["max_ratio"] < 1e-10


def test_extracted_full_paraproducts_pass_builder():
    T = rand_tensor(11)
    dec = decompose(T, ZERO)
    ops = dec.extracted_full_paraproducts()
    assert len(ops) == 9
    for key, op, size in ops:
        assert op.coefficient_report().family_value <= 1.0 + 1e-9


def test_extracted_full_paraproducts_make_one_search_and_one_build_each(monkeypatch):
    # the nine tables share their rectangles: one stacked product search,
    # and each operator is built once, at its rescaled table
    from dyadlab import measures
    from dyadlab.model_ops import FullParaproduct

    dec = decompose(rand_tensor(11), ZERO)
    searches, builds = [], []
    search, init = measures._product_bmo, FullParaproduct.__init__
    monkeypatch.setattr(measures, "_product_bmo", lambda *args: searches.append(args) or search(*args))
    monkeypatch.setattr(FullParaproduct, "__init__", lambda self, *args: builds.append(args) or init(self, *args))
    ops = dec.extracted_full_paraproducts()
    assert len(searches) == 1 and np.shape(searches[0][3])[0] == 9
    assert len(builds) == 9 and len(ops) == 9


# -- nested collapse sanity (term-by-term telescoping) -----------------------------

def test_chain_collapse_identity_term_by_term():
    # the averaging parts of the two routes, summed over a chain, reproduce
    # the plain averages at the smallest cube
    ax = Axis(1, 3)
    ad = AxisDecomposition(ax, AxisShift.zero(ax))
    ref = PerTupleReference(ad)
    D3 = ad.D**3
    for br in BRANCHES:
        para = csr(ad.matrix(br, "nesP")).toarray()
        target = np.zeros((D3, D3))
        for t in ref.tuples[br]:
            if t.cls != NES:
                continue
            s_slot, m_slot, o_slot, delta, _, _ = t.route
            cstar = ref._chain_child(t)
            hP = axis_haar_vector(HaarFunction(ref._cube(t.lvl_m, t.pos_m), (t.kind_m ^ 1,)))
            pc = hP[cstar.cells()].mean()
            scale = (2.0 ** -(t.lvl_m + delta)) ** -0.5
            slots = [None, None, None]
            slots[m_slot - 1] = ref._dense_to_sparse(ad.ones_exp)
            slots[o_slot - 1] = ref._dense_to_sparse(ad.ones_exp)
            slots[s_slot - 1] = ref._one_hot(t.kind_s, t.lvl_s, t.pos_s)
            ridx, rval = ref._triple(slots)
            widx, wval = ref.write_vector(t)
            for i, a in zip(widx, wval):
                target[i, ridx] += pc * scale * a * rval
        assert np.abs(para - target).max() < 1e-12


# -- common ancestor ------------------------------------------------------------------

def test_common_ancestor_trivial_cases():
    ax = GRID.axes[0]
    sh = ZERO.shift1
    c = DyadicCube(ax, 2, (1,), sh)
    out = common_ancestor(c, c, c)
    assert out["ancestor"] == c
    s1 = DyadicCube(ax, 2, (0,), sh)
    s2 = DyadicCube(ax, 2, (1,), sh)
    out = common_ancestor(s1, s2, s1)
    assert out["ancestor"] == DyadicCube(ax, 1, (0,), sh)


def test_common_ancestor_case_certificates_exhaustive():
    ax = Axis(1, 4)
    sh = AxisShift.zero(ax)
    checked = 0
    for l1 in range(2, 4):
        for p1 in range(1 << l1):
            c3 = DyadicCube(ax, l1, (p1,), sh)
            for l2 in range(l1 + 1):
                for p2 in range(1 << l2):
                    c2 = DyadicCube(ax, l2, (p2,), sh)
                    c1 = c2  # partner at the same scale
                    out = common_ancestor(c1, c2, c3, r=2, gamma=0.5)
                    if out["case"] == "separated":
                        assert out["separation_ok"]
                        checked += 1
                    elif out["case"] == "diagonal":
                        assert out["diagonal_ok"]
                        checked += 1
    assert checked > 0


# -- goodness-gated and averaged modes ---------------------------------------------

def test_averaged_reconstruction_exact_at_L2():
    grid = TorusGrid.make(2)
    T = KernelTensor.random(grid, np.random.default_rng(1))
    out = averaged_reconstruction(T, sample_count=None)
    assert out["residual"] < 1e-10
    assert out["n_shifts"] == 16


def test_gated_reconstruction_trivial_goodness_matches():
    grid = TorusGrid.make(2)
    T = KernelTensor.random(grid, np.random.default_rng(2))
    out = averaged_reconstruction(T, sample_count=None, gated=True)
    assert out["residual"] < 1e-10


def test_single_sample_equals_decompose():
    T = rand_tensor(3)
    rng = np.random.default_rng(0)
    om = sample_shift(GRID, rng)
    out = averaged_reconstruction(T, sample_count=1, seed=0)
    dec = decompose(T, om)
    from dyadlab.representation import _lambda_hat_to_cells

    own = _lambda_hat_to_cells(dec.reconstructed_hat(), GRID, om)
    assert np.abs(out["reconstruction"] - own).max() < 1e-12


@pytest.mark.slow
def test_gated_reconstruction_nontrivial_goodness():
    # asymmetric grid where level-4 cubes are good with probability 1/4;
    # the inverse-probability weights make the full average exact
    grid = TorusGrid.make((5, 1))
    assert goodness_fraction(grid.axes[0], 4, r=3, gamma=0.6) == 0.25
    T = KernelTensor.random(grid, np.random.default_rng(3))
    out = averaged_reconstruction(T, sample_count=None, gated=True, r=3, gamma=0.6)
    assert out["residual"] < 1e-10


def test_monte_carlo_reconstruction_converges():
    grid = TorusGrid.make(2)
    T = KernelTensor.random(grid, np.random.default_rng(4))
    dense = []
    for count in (4, 16):
        out = averaged_reconstruction(T, sample_count=count, seed=1)
        dense.append(out["residual"])
    # per-shift reconstruction is already exact, so sampling is exact too
    assert dense[0] < 1e-10 and dense[1] < 1e-10


# -- coefficient reports ----------------------------------------------------------

def test_riesz_certified_ratios_within_frozen_band():
    worst = {"nested": 0.0, "separated": 0.0, "partial": 0.0}
    for L in (2, 3):
        grid = TorusGrid.make(L)
        T = KernelTensor.from_kernel(grid, tensor_riesz(1, 1))
        dec = decompose(T, GridShift.zero(grid))
        rep = dec.shift_coefficient_report()
        worst["nested"] = max(worst["nested"], rep["certified"]["nested"])
        worst["separated"] = max(worst["separated"], rep["certified"]["separated"])
        worst["partial"] = max(worst["partial"], dec.partial_symbol_report()["max_ratio"])
    # frozen constants (5x over the measured sweep)
    assert worst["nested"] <= 90.0
    assert worst["separated"] <= 330.0
    assert worst["partial"] <= 0.45


def test_manifest_counts_and_serialization(tmp_path):
    T = rand_tensor(5)
    dec = decompose(T, ZERO)
    man = dec.manifest()
    assert len(man["symmetries"]) == 9
    total = sum(sum(v.values()) for v in man["cells"].values())
    assert total == 2 * 512  # both axes tile their 8^3 basis triples
    p = tmp_path / "k.dyk"
    with open(p, "wb") as fp:
        T.dump(fp)
    with open(p, "rb") as fp:
        T2 = KernelTensor.load(fp)
    assert np.array_equal(T.data, T2.data)


@pytest.mark.parametrize("blob", [
    bytes(range(7, 256)),                                     # not a header at all
    (2).to_bytes(4, "little") + b"[]",                        # JSON, not an object
    (15).to_bytes(4, "little") + b'{"format": "x"}',          # another format tag
    None,                                                     # data cut short
], ids=["garbage", "not-object", "wrong-tag", "truncated"])
def test_kernel_load_rejects_malformed_files(blob):
    if blob is None:
        buf = io.BytesIO()
        rand_tensor(1, TorusGrid.make(2)).dump(buf)
        blob = buf.getvalue()[:-8]
    with pytest.raises(KernelFormatError):
        KernelTensor.load(io.BytesIO(blob))


def _header(levels, dims=(1, 1)):
    blob = json.dumps({"format": "dyadlab-kernel-v1", "dims": list(dims),
                       "levels": list(levels), "alpha": None}).encode()
    return len(blob).to_bytes(4, "little") + blob


def test_decomposer_size_model(monkeypatch):
    # the dense kernel tensor, the Haar coefficients and the kept table block
    # of the coefficient table, C^3 float64 each
    assert decomposer_bytes(TorusGrid.make(4)) == 3 * 8 * 256**3
    check_decomposer_size(TorusGrid.make(4))  # 0.40 GB, 0.56 GB peak RSS measured
    for grid in (TorusGrid.make(5), TorusGrid.make((5, 4)), TorusGrid.make(3, (2, 2))):
        assert decomposer_bytes(grid) > representation.DECOMPOSER_BUDGET
        with pytest.raises(ConfigError):
            check_decomposer_size(grid)
    # a header naming a level-5 grid is refused before its data is read;
    # without the check the missing data would be a format error
    for levels in ((5, 5), (5000, 3)):
        with pytest.raises(ConfigError):
            KernelTensor.load(io.BytesIO(_header(levels)))
    for blob in (_header((3, 2.5)), _header((3,)), _header((3, 3), (1, "1"))):
        with pytest.raises(KernelFormatError):
            KernelTensor.load(io.BytesIO(blob))
    # the constructors check before they allocate: under a budget below
    # the level-2 need they refuse a grid whose tensor is a few kB
    small = TorusGrid.make(2)
    monkeypatch.setattr(representation, "DECOMPOSER_BUDGET", decomposer_bytes(small) - 1)
    for build in (lambda: KernelTensor.random(small, np.random.default_rng(0)),
                  lambda: KernelTensor.from_kernel(small, tensor_riesz(1, 1))):
        with pytest.raises(ConfigError):
            build()


def test_decomposer_refusals_unchanged_by_the_table_block():
    # the model counts three C^3 float64 arrays where it counted two; C^3
    # is a power of two, so the budget refuses the same grids at levels 2 to 9
    for dims in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for levels in ((L1, L2) for L1 in range(2, 10) for L2 in range(2, 10)):
            grid = TorusGrid.make(levels, dims)
            before = 2 * 8 * (grid.shape[0] * grid.shape[1]) ** 3 > representation.DECOMPOSER_BUDGET
            try:
                check_decomposer_size(grid)
            except ConfigError as exc:
                assert before, (levels, dims)
                assert "3 x 2^" in str(exc)
            else:
                assert not before, (levels, dims)


def test_object_level_emission_matches_matrix_subset():
    # every emitted family instantiates a builder-validated operator after
    # rescaling, and the weighted object forms reproduce the matrix value of
    # the exportable cells exactly
    grid = TorusGrid.make(2)
    T = KernelTensor.random(grid, np.random.default_rng(8))
    om = sample_shift(grid, np.random.default_rng(9))
    dec = decompose(T, om)
    f1, f2, f3 = (grid.random(np.random.default_rng(i)) for i in (4, 5, 6))
    shifts = dec.extracted_shift_families()
    partials = dec.extracted_partial_paraproducts()
    fulls = dec.extracted_full_paraproducts()
    assert shifts and partials and len(fulls) == 9
    total = sum(rec["size"] * rec["operator"].form(f1, f2, f3) for rec in shifts)
    total += sum(rec["size"] * rec["operator"].form(f1, f2, f3) for rec in partials)
    total += sum(sz * op.form(f1, f2, f3) for _, op, sz in fulls)

    want = dec._eval_hat(dec.exportable_hat(), f1, f2, f3)
    assert abs(total - want) < 1e-10 * max(1.0, abs(want))
    # object family + excluded top-scale remainder reproduces the source form
    remainder = dec.total_form(f1, f2, f3) - want
    assert abs(total + remainder - T.form(f1, f2, f3)) < 1e-10


def test_shift_family_export_memory_peak():
    # the regrouping numbers its blocks by pairs of compacted group codes, so
    # its working memory follows the dense coefficient tables of the runs of
    # stacked right factors and the kept blocks (8.2 MiB here with the table
    # block of the coefficient table made inside, 13.0 MiB with every right
    # factor in one run); a table indexed by pairs of raw group codes peaks
    # at 21 MiB here and takes about 1.1 GB at L=4
    grid = TorusGrid.make(3)
    T = KernelTensor.random(grid, np.random.default_rng(5))
    dec = decompose(T, sample_shift(grid, np.random.default_rng(6)))
    tracemalloc.start()
    try:
        fams = dec.extracted_shift_families()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fams) == 900
    assert peak <= 12 << 20


def test_term_form_partition_sums_to_total():
    # the 9 x (cell pair) term forms add up to the full reconstruction
    grid = TorusGrid.make(2)
    T = KernelTensor.random(grid, np.random.default_rng(12))
    dec = decompose(T, GridShift.zero(grid))
    fs = [grid.random(np.random.default_rng(i)) for i in (7, 8, 9)]
    total = 0.0
    for br1 in BRANCHES:
        for c1 in CELLS:
            for br2 in BRANCHES:
                for c2 in CELLS:
                    total += term_form(dec, br1, c1, br2, c2, *fs)
    assert abs(total - T.form(*fs)) < 1e-10
