"""Decomposer: exact reconstruction, round trips, coefficient bounds."""

import io
import json

import numpy as np
import pytest
import scipy.sparse as sp

from dyadlab.core import (
    Axis,
    AxisShift,
    ConfigError,
    DyadicCube,
    GridShift,
    ResolutionError,
    TorusGrid,
    goodness_fraction,
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
from dyadlab import representation
from dyadlab.representation import (
    BRANCHES,
    AxisDecomposition,
    Decomposition,
    KernelFormatError,
    KernelTensor,
    averaged_reconstruction,
    check_decomposer_size,
    common_ancestor,
    decompose,
    decomposer_bytes,
)

GRID = TorusGrid.make(3)
ZERO = GridShift.zero(GRID)


def rand_tensor(seed=0, grid=GRID):
    return KernelTensor.random(grid, np.random.default_rng(seed))


# -- the per-axis identities -------------------------------------------------

@pytest.mark.parametrize("L", [2, 3, 4])
def test_axis_tiling_is_identity(L):
    # every Haar-coefficient triple is consumed exactly once by the branch
    # and route enumeration (symmetry completeness)
    ax = Axis(1, L)
    ad = AxisDecomposition(ax, AxisShift.zero(ax))
    err = abs(ad.raw_tiling_matrix() - sp.identity(ad.D**3)).max()
    assert err < 1e-12


@pytest.mark.parametrize("L", [2, 3, 4])
def test_axis_split_identity(L):
    # the cancellative/averaging split and the chain telescoping are exact
    ax = Axis(1, L)
    from dyadlab.core import sample_axis_shift

    for shift in (AxisShift.zero(ax), sample_axis_shift(ax, np.random.default_rng(L))):
        ad = AxisDecomposition(ax, shift)
        err = abs(ad.total_matrix() - sp.identity(ad.D**3)).max()
        assert err < 1e-12


def test_axis_class_partition():
    ad = AxisDecomposition(Axis(1, 3), AxisShift.zero(Axis(1, 3)))
    for br in BRANCHES:
        for t in ad.tuples[br]:
            assert t.cls in (0, 1, 2)


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


# -- nested collapse sanity (term-by-term telescoping) -----------------------------

def test_chain_collapse_identity_term_by_term():
    # the averaging parts of the two routes, summed over a chain, reproduce
    # the plain averages at the smallest cube
    ax = Axis(1, 3)
    ad = AxisDecomposition(ax, AxisShift.zero(ax))
    D3 = ad.D**3
    for br in BRANCHES:
        para = ad.matrix(br, "nesP").toarray()
        target = np.zeros((D3, D3))
        from dyadlab.core import HaarFunction, axis_haar_vector
        from dyadlab.representation import NES

        for t in ad.tuples[br]:
            if t.cls != NES:
                continue
            s_slot, m_slot, o_slot, delta, _, _ = t.route
            cstar = ad._chain_child(t)
            hP = axis_haar_vector(HaarFunction(ad._cube(t.lvl_m, t.pos_m), (t.kind_m ^ 1,)))
            pc = hP[cstar.cells()].mean()
            scale = (2.0 ** -(t.lvl_m + delta)) ** -0.5
            slots = [None, None, None]
            slots[m_slot - 1] = ad._dense_to_sparse(ad.ones_exp)
            slots[o_slot - 1] = ad._dense_to_sparse(ad.ones_exp)
            slots[s_slot - 1] = ad._one_hot(t.kind_s, t.lvl_s, t.pos_s)
            ridx, rval = ad._triple(slots)
            widx, wval = ad.write_vector(t)
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
    # the dense kernel tensor and the Haar coefficients, C^3 float64 each
    assert decomposer_bytes(TorusGrid.make(4)) == 2 * 8 * 256**3
    check_decomposer_size(TorusGrid.make(4))  # 0.27 GB, 0.7 GB peak RSS measured
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


def test_object_level_emission_matches_matrix_subset():
    # every emitted family instantiates a builder-validated operator after
    # rescaling, and the weighted object forms reproduce the matrix value of
    # the exportable cells exactly
    from dyadlab.representation import CELLS

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

    def subset(ax):
        out = None
        for br in BRANCHES:
            for cell in CELLS:
                keep = dec._exportable if cell != "nesP" else None
                m = ax.matrix(br, cell, keep=keep)
                out = m if out is None else out + m
        return out

    hat = np.asarray(subset(dec.ax1) @ dec.lam_hat @ subset(dec.ax2).T)
    want = dec._eval_hat(hat, f1, f2, f3)
    assert abs(total - want) < 1e-10 * max(1.0, abs(want))
    # object family + excluded top-scale remainder reproduces the source form
    remainder = dec.total_form(f1, f2, f3) - want
    assert abs(total + remainder - T.form(f1, f2, f3)) < 1e-10


def test_term_form_partition_sums_to_total():
    # the 9 x (cell pair) term forms add up to the full reconstruction
    from dyadlab.representation import CELLS

    grid = TorusGrid.make(2)
    T = KernelTensor.random(grid, np.random.default_rng(12))
    dec = decompose(T, GridShift.zero(grid))
    fs = [grid.random(np.random.default_rng(i)) for i in (7, 8, 9)]
    total = 0.0
    for br1 in BRANCHES:
        for c1 in CELLS:
            for br2 in BRANCHES:
                for c2 in CELLS:
                    total += dec.term_form(br1, c1, br2, c2, *fs)
    assert abs(total - T.form(*fs)) < 1e-10
