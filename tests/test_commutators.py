"""Product expansions, adapted maximal functions, commutator identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadlab import model_ops
from dyadlab.core import (
    AxisShift,
    DiscreteFunction,
    DyadicCube,
    DyadicRectangle,
    GridShift,
    HaarFunction,
    TorusGrid,
    all_rectangles,
    axis_cubes,
    axis_haar_vector,
    martingale_difference,
    outer,
    sample_shift,
)
from dyadlab.commutators import (
    AdaptedMaximal,
    adapted_phi,
    aux_phi1,
    aux_phi2,
    average_oscillation_bound,
    commutator_apply,
    commutator_form_decomposed,
    commutator_form_direct,
    coefficient_duality_check,
    expand_bipar,
    expand_none,
    expand_onepar,
    iterated_commutator_apply,
    iterated_form_decomposed,
    iterated_form_direct,
    pointwise_domination_check,
    paraproduct_bifactor,
    paraproduct_onefactor,
    weak_type_sets,
)
from dyadlab.model_ops import (
    FullParaproduct,
    PartialParaproduct,
    ShiftOperator,
    axis_ops,
    random_full_paraproduct,
    random_partial_paraproduct,
    random_shift_operator,
)

from coeff_maps import coeff_map, shift_from_map

GRID = TorusGrid.make(3)
ZERO = GridShift.zero(GRID)


def fn(seed):
    return GRID.random(np.random.default_rng(seed))


def cube(axis_idx, level, pos):
    return DyadicCube(GRID.axes[axis_idx], level, (pos,), ZERO[axis_idx])


# -- reference summations -----------------------------------------------------
# Direct sums over cubes and rectangles, independent of the coefficient
# tables the expansion operators are evaluated through.

def _delta1(f, cube):
    return martingale_difference(f, cube, 0)


def _delta2(f, cube):
    return martingale_difference(f, cube, 1)


def _avg1(f, cube):
    out = np.zeros_like(f.values)
    cells = cube.cells()
    out[cells, :] = f.values[cells, :].mean(axis=0)[None, :]
    return DiscreteFunction(f.grid, out)


def _avg2(f, cube):
    out = np.zeros_like(f.values)
    cells = cube.cells()
    out[:, cells] = f.values[:, cells].mean(axis=1)[:, None]
    return DiscreteFunction(f.grid, out)


def paraproduct_bifactor_reference(kind, b, f, om):
    """The eight bi-parameter operators, summed rectangle by rectangle."""
    grid = b.grid
    out = grid.zeros()
    for l1 in range(grid.axes[0].levels):
        for c1 in axis_cubes(grid.axes[0], l1, om.shift1):
            for l2 in range(grid.axes[1].levels):
                for c2 in axis_cubes(grid.axes[1], l2, om.shift2):
                    if kind == 1:
                        term = _delta2(_delta1(b, c1), c2) * _delta2(_delta1(f, c1), c2)
                    elif kind == 2:
                        term = _delta2(_delta1(b, c1), c2) * _delta2(_avg1(f, c1), c2)
                    elif kind == 3:
                        term = _delta2(_delta1(b, c1), c2) * _avg2(_delta1(f, c1), c2)
                    elif kind == 4:
                        avg = f.values[np.ix_(c1.cells(), c2.cells())].mean()
                        term = _delta2(_delta1(b, c1), c2) * avg
                    elif kind == 5:
                        term = _delta2(_avg1(b, c1), c2) * _delta2(_delta1(f, c1), c2)
                    elif kind == 6:
                        term = _delta2(_avg1(b, c1), c2) * _avg2(_delta1(f, c1), c2)
                    elif kind == 7:
                        term = _avg2(_delta1(b, c1), c2) * _delta2(_delta1(f, c1), c2)
                    else:
                        term = _avg2(_delta1(b, c1), c2) * _delta2(_avg1(f, c1), c2)
                    out = out + term
    return out


def paraproduct_onefactor_reference(kind, axis_idx, b, f, om):
    """The one-variable operators, summed cube by cube."""
    grid = b.grid
    sh = om.shift1 if axis_idx == 0 else om.shift2
    delta = _delta1 if axis_idx == 0 else _delta2
    avg = _avg1 if axis_idx == 0 else _avg2
    out = grid.zeros()
    for level in range(grid.axes[axis_idx].levels):
        for cube in axis_cubes(grid.axes[axis_idx], level, sh):
            other = delta(f, cube) if kind == 1 else avg(f, cube)
            out = out + delta(b, cube) * other
    return out


# -- expansion identities ------------------------------------------------------

def test_expand_bipar_constant_symbol():
    b = GRID.constant(4.2)
    f = fn(1)
    out = expand_bipar(b, f, cube(0, 1, 0), cube(1, 2, 3))
    assert all(abs(v) < 1e-12 for v in out["terms"].values())
    assert abs(out["lhs"] - 4.2 * out["base"]) < 1e-12


def test_expand_bipar_single_haar_input():
    c1, c2 = cube(0, 1, 1), cube(1, 1, 0)
    f = outer(GRID, axis_haar_vector(HaarFunction(c1, (1,))),
              axis_haar_vector(HaarFunction(c2, (1,))))
    b = fn(2)
    out = expand_bipar(b, f, c1, c2)
    assert abs(out["lhs"] - out["rhs"]) < 1e-12
    # direct evaluation: <b h h, h h> = <b (h h)^2-ish> via plain integration
    test = f
    assert abs(out["lhs"] - (b * f).pair(test)) < 1e-12


def test_expand_identities_fuzz():
    rng = np.random.default_rng(0)
    for trial in range(60):
        b, f = fn(trial), fn(trial + 1000)
        l1, l2 = rng.integers(0, 3, 2)
        p1 = int(rng.integers(0, 1 << l1))
        p2 = int(rng.integers(0, 1 << l2))
        c1, c2 = cube(0, int(l1), p1), cube(1, int(l2), p2)
        for out in (
            expand_bipar(b, f, c1, c2),
            expand_onepar(b, f, c1, c2, 0),
            expand_onepar(b, f, c1, c2, 1),
            expand_none(b, f, c1, c2),
        ):
            scale = max(1.0, abs(out["lhs"]))
            assert abs(out["lhs"] - out["rhs"]) < 1e-12 * scale


def test_fast_expansion_operators_match_reference():
    # on stacks of two functions, at L = 3 and 4, zero and random shifts
    rng = np.random.default_rng(9)
    for level, shifted in ((3, False), (3, True), (4, False), (4, True)):
        grid = TorusGrid.make(level)
        om = sample_shift(grid, rng) if shifted else GridShift.zero(grid)
        B = DiscreteFunction(grid, rng.standard_normal((2,) + grid.shape))
        F = DiscreteFunction(grid, rng.standard_normal((2,) + grid.shape))
        pairs = [(DiscreteFunction(grid, B.values[s]), DiscreteFunction(grid, F.values[s]))
                 for s in range(2)]
        ops = [(lambda b, f, k=kind: paraproduct_bifactor(k, b, f, om),
                lambda b, f, k=kind: paraproduct_bifactor_reference(k, b, f, om))
               for kind in range(1, 9)]
        ops += [(lambda b, f, k=kind, a=ax: paraproduct_onefactor(k, a, b, f, om),
                 lambda b, f, k=kind, a=ax: paraproduct_onefactor_reference(k, a, b, f, om))
                for kind in (1, 2) for ax in (0, 1)]
        for fast, ref in ops:
            stacked = fast(B, F).values
            for s, (b, f) in enumerate(pairs):
                want = ref(b, f).values
                assert np.abs(stacked[s] - want).max() <= 1e-12 * np.abs(want).max()
                assert np.abs(fast(b, f).values - want).max() <= 1e-12 * np.abs(want).max()


def test_a4_single_term_oracle():
    c1, c2 = cube(0, 1, 0), cube(1, 1, 1)
    b = outer(GRID, axis_haar_vector(HaarFunction(c1, (1,))),
              axis_haar_vector(HaarFunction(c2, (1,))))
    f = GRID.constant(1.0)
    out = paraproduct_bifactor(4, b, f)
    # with a single-coefficient symbol and constant input, only the (c1, c2)
    # term survives and equals the rectangle difference of b itself
    assert np.abs(out.values - b.values).max() < 1e-12


def test_bifactor_adjoint_pairs():
    # swapping input and test function exchanges the operators pairwise
    b, f, g = fn(5), fn(6), fn(7)
    for i, j in ((1, 4), (2, 3), (5, 6), (7, 8)):
        lhs = paraproduct_bifactor(i, b, f).pair(g)
        rhs = paraproduct_bifactor(j, b, g).pair(f)
        assert abs(lhs - rhs) < 1e-11


def test_onefactor_constant_symbol_is_zero():
    f = fn(8)
    out = paraproduct_onefactor(2, 0, GRID.constant(2.0), f)
    assert np.abs(out.values).max() < 1e-12


@pytest.mark.parametrize("kind", [0, 3, 7])
def test_onefactor_rejects_bad_kind(kind):
    with pytest.raises(ValueError, match="kind must be 1 or 2"):
        paraproduct_onefactor(kind, 0, fn(1), fn(2))


@pytest.mark.parametrize("axis_idx", [-1, 2])
def test_onefactor_rejects_bad_axis(axis_idx):
    with pytest.raises(ValueError, match="axis_idx must be 0 or 1"):
        paraproduct_onefactor(1, axis_idx, fn(1), fn(2))


def test_expand_onepar_rejects_bad_haar_axis():
    with pytest.raises(ValueError, match="haar_axis must be 0 or 1"):
        expand_onepar(fn(1), fn(2), cube(0, 1, 0), cube(1, 1, 0), haar_axis=5)


# -- adapted maximal functions ----------------------------------------------------

def test_adapted_maximal_constant_symbol():
    f = fn(1)
    for kind in ("rect", "axis1", "axis2"):
        m = AdaptedMaximal(GRID.constant(1.5), kind).apply(f)
        assert np.abs(m.values).max() < 1e-12


def test_adapted_maximal_haar_symbol_enumeration_oracle():
    # one-axis symbol, constant input: enumerable by hand over windows
    c = cube(0, 1, 0)
    b = outer(GRID, axis_haar_vector(HaarFunction(c, (1,))), np.ones(GRID.shape[1]))
    one = GRID.constant(1.0)
    m = AdaptedMaximal(b, "axis1").apply(one)
    n1 = GRID.shape[0]
    brute = np.zeros(n1)
    prof = b.values[:, 0]
    for j in range(GRID.axes[0].levels + 1):
        w = 1 << (GRID.axes[0].levels - j)
        for s in range(n1):
            sel = np.arange(s, s + w) % n1
            val = np.abs(prof[sel] - prof[sel].mean()).mean()
            brute[sel] = np.maximum(brute[sel], val)
    assert np.abs(m.values[:, 0] - brute).max() < 1e-12


def test_adapted_maximal_rect_window_oracle():
    # every wrapped rectangle of dyadic side lengths, one window at a time
    grid = TorusGrid.make(2)
    rng = np.random.default_rng(35)
    b, f = grid.random(rng), grid.random(rng)
    m = AdaptedMaximal(b, "rect").apply(f)
    n1, n2 = grid.shape
    brute = np.zeros(grid.shape)
    for j1 in range(grid.axes[0].levels + 1):
        for j2 in range(grid.axes[1].levels + 1):
            w1, w2 = 1 << (grid.axes[0].levels - j1), 1 << (grid.axes[1].levels - j2)
            for s1 in range(n1):
                for s2 in range(n2):
                    idx = np.ix_(np.arange(s1, s1 + w1) % n1, np.arange(s2, s2 + w2) % n2)
                    val = (np.abs(b.values[idx] - b.values[idx].mean()) * np.abs(f.values[idx])).mean()
                    brute[idx] = np.maximum(brute[idx], val)
    assert np.abs(m.values - brute).max() < 1e-12


def test_pointwise_domination_checks():
    b, f = fn(2), fn(3)
    out = pointwise_domination_check(b, f)
    assert out["gap_violation"] == 0.0
    assert out["oscillation_ratio"] <= 1.0 + 1e-9  # oscillation never beats the sup


def test_adapted_maximal_vector_bound_sweep():
    rng = np.random.default_rng(4)
    from dyadlab.measures import lp_norm

    worst = 0.0
    b = fn(9)
    from dyadlab.measures import bmo_norm

    b = b * (1.0 / bmo_norm(b, "little"))
    M = AdaptedMaximal(b, "rect")
    for _ in range(5):
        fs = [GRID.random(rng) for _ in range(3)]
        num = DiscreteFunction(GRID, np.sqrt(sum(M.apply(g).values ** 2 for g in fs)))
        den = DiscreteFunction(GRID, np.sqrt(sum(np.abs(g.values) ** 2 for g in fs)))
        worst = max(worst, lp_norm(num, 2.0) / lp_norm(den, 2.0))
    assert worst < 12.0


def test_average_oscillation_constant_small():
    c = average_oscillation_bound(fn(5))
    assert 0.0 < c < 6.0


# -- commutators of model operators ---------------------------------------------------

ALL_PATTERNS = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]
# the zero shift and one random shift of the lattices
SHIFTS = (ZERO, sample_shift(GRID, np.random.default_rng(77)))


@pytest.mark.parametrize("pattern", ALL_PATTERNS)
def test_commutator_decomposition_all_shift_patterns(pattern):
    b = fn(10)
    f1, f2, f3 = fn(11), fn(12), fn(13)
    for om in SHIFTS:
        S = random_shift_operator(GRID, om, (0, 1, 0), (1, 0, 0), pattern,
                                  np.random.default_rng(sum(pattern)))
        for slot in (1, 2):
            d = commutator_form_direct(b, S, slot, f1, f2, f3)
            e = commutator_form_decomposed(b, S, slot, f1, f2, f3)
            assert abs(d - e) <= 1e-10 * max(1.0, abs(d))
        for slot in (0, 3):
            for form in (commutator_form_direct, commutator_form_decomposed):
                with pytest.raises(ValueError, match="slot is 1 or 2"):
                    form(b, S, slot, f1, f2, f3)


def test_commutator_decomposition_paraproduct_families():
    b = fn(14)
    f1, f2, f3 = fn(15), fn(16), fn(17)
    rng = np.random.default_rng(1)
    for om in SHIFTS:
        ops = [random_partial_paraproduct(GRID, om, (1, 0, 0), axis, h0, pt, rng)
               for axis, h0, pt in ((0, 3, 3), (1, 3, 3), (0, 1, 2), (1, 1, 3), (1, 3, 2))]
        ops += [random_full_paraproduct(GRID, om, pattern, rng) for pattern in ((3, 3), (1, 2), (2, 1))]
        for U in ops:
            for slot in (1, 2):
                d = commutator_form_direct(b, U, slot, f1, f2, f3)
                e = commutator_form_decomposed(b, U, slot, f1, f2, f3)
                assert abs(d - e) <= 1e-10 * max(1.0, abs(d))


def test_commutator_constant_symbol_vanishes():
    S = random_shift_operator(GRID, ZERO, (0, 0, 0), (0, 0, 0), (3, 3),
                              np.random.default_rng(3))
    f1, f2, f3 = fn(18), fn(19), fn(20)
    assert abs(commutator_form_direct(GRID.constant(2.0), S, 1, f1, f2, f3)) < 1e-12


def test_commutator_leibniz_identity():
    # [b,U]_1(f1,f2) + U(b f1, f2) = b U(f1,f2) pointwise
    b = fn(21)
    S = random_shift_operator(GRID, ZERO, (1, 0, 0), (0, 1, 0), (2, 3),
                              np.random.default_rng(4))
    f1, f2 = fn(22), fn(23)
    direct = b * S.apply(f1, f2)
    comm_vals = b.values * S.apply(f1, f2).values - S.apply(b * f1, f2).values
    total = comm_vals + S.apply(b * f1, f2).values
    assert np.abs(total - direct.values).max() < 1e-11


def test_single_key_commutator_hand_expansion():
    # single-coefficient shift, symbol a Haar atom: four explicit terms
    k = v = (0, 0, 0)
    key = ((1, 0), (1, 0))
    cap = ShiftOperator.cap(k, v, 1, 1)
    S = shift_from_map(GRID, ZERO, k, v, (3, 3), {key: np.full((1,) * 6, cap)})
    cK, cV = cube(0, 1, 0), cube(1, 1, 0)
    b = outer(GRID, axis_haar_vector(HaarFunction(cK, (1,))),
              axis_haar_vector(HaarFunction(cV, (1,))))
    f1, f2, f3 = fn(24), fn(25), fn(26)
    hh = outer(GRID, axis_haar_vector(HaarFunction(cK, (1,))),
               axis_haar_vector(HaarFunction(cV, (1,))))
    uu = outer(GRID, axis_haar_vector(HaarFunction(cK, (0,))),
               axis_haar_vector(HaarFunction(cV, (0,))))
    want = cap * (
        f1.pair(hh) * f2.pair(hh) * (b * f3).pair(uu)
        - (b * f1).pair(hh) * f2.pair(hh) * f3.pair(uu)
    )
    assert abs(commutator_form_direct(b, S, 1, f1, f2, f3) - want) < 1e-12


def test_iterated_commutator_decomposition():
    b1, b2 = fn(27), fn(28)
    f1, f2, f3 = fn(29), fn(30), fn(31)
    for om in SHIFTS:
        for pattern in ((3, 3), (1, 2)):
            S = random_shift_operator(GRID, om, (0, 1, 0), (0, 0, 1), pattern,
                                      np.random.default_rng(5))
            d = iterated_form_direct(b2, b1, S, f1, f2, f3)
            e = iterated_form_decomposed(b2, b1, S, f1, f2, f3)
            assert abs(d - e) <= 1e-10 * max(1.0, abs(d))


# -- per-atom reference ------------------------------------------------------------
# A model operator flattened into scalar-weighted atoms, one cube object per
# slot and axis, each paired with its own test function; independent of the
# operators' gather plans and of the table contractions.

def atomic_terms(U):
    """Yield (coefficient, [(cube1, kind1, cube2, kind2)] per slot) where
    kind 'h' pairs with the Haar function and 'a' with the averaging profile
    1_Q/|Q| (normalisation absorbed into the coefficient)."""
    grid = U.grid
    o1 = axis_ops(grid.axes[0], U.shift.shift1)
    o2 = axis_ops(grid.axes[1], U.shift.shift2)
    if isinstance(U, ShiftOperator):
        for (kk, vv), block in coeff_map(U).items():
            qs1 = [o1.descendant_positions(kk[0], kk[1], d) for d in U.k]
            qs2 = [o2.descendant_positions(vv[0], vv[1], d) for d in U.v]
            for idx in np.ndindex(*block.shape):
                if block[idx] == 0.0:
                    continue
                specs, scale = [], 1.0
                for s in range(3):
                    c1 = DyadicCube(grid.axes[0], kk[0] + U.k[s], (int(qs1[s][idx[s]]),), U.shift.shift1)
                    c2 = DyadicCube(grid.axes[1], vv[0] + U.v[s], (int(qs2[s][idx[3 + s]]),), U.shift.shift2)
                    k1 = "a" if U.pattern[0] == s + 1 else "h"
                    k2 = "a" if U.pattern[1] == s + 1 else "h"
                    scale *= (c1.measure**0.5 if k1 == "a" else 1.0) * (c2.measure**0.5 if k2 == "a" else 1.0)
                    specs.append((c1, k1, c2, k2))
                yield block[idx] * scale, specs
    elif isinstance(U, FullParaproduct):
        for i, cK in enumerate(o1.cubes[:len(o1.haar)]):
            for j, cV in enumerate(o2.cubes[:len(o2.haar)]):
                if U.lam[i, j] != 0.0:
                    yield U.lam[i, j], [(cK, "h" if U.pattern[0] == s else "a",
                                         cV, "h" if U.pattern[1] == s else "a") for s in (1, 2, 3)]
    elif isinstance(U, PartialParaproduct):
        sops, pops = (o1, o2) if U.shift_axis == 0 else (o2, o1)
        vol = grid.axes[U.para_axis].cell_volume
        for (kk, idx), prof in coeff_map(U).items():
            qs = [sops.descendant_positions(kk[0], kk[1], d) for d in U.k]
            shift_cubes, scale = [], 1.0
            for s in range(3):
                c = DyadicCube(grid.axes[U.shift_axis], kk[0] + U.k[s], (int(qs[s][idx[s]]),),
                               U.shift[U.shift_axis])
                kind = "a" if U.h0_slot == s + 1 else "h"
                scale *= c.measure**0.5 if kind == "a" else 1.0
                shift_cubes.append((c, kind))
            bb = (pops.haar * vol) @ prof
            for vi, cV in enumerate(pops.cubes[:len(pops.haar)]):
                if bb[vi] == 0.0:
                    continue
                specs = []
                for s in (1, 2, 3):
                    kp = "h" if U.ptype == s else "a"
                    cs, ks = shift_cubes[s - 1]
                    specs.append((cs, ks, cV, kp) if U.shift_axis == 0 else (cV, kp, cs, ks))
                yield bb[vi] * scale, specs
    else:
        raise TypeError(f"no atomic expansion for {type(U).__name__}")


def _pair_spec(f, spec):
    """<f, phi1 x phi2> for one atom slot, with its test function built from the cubes."""
    def profile(cube, kind):
        if kind == "h":
            return axis_haar_vector(HaarFunction(cube, (1,)))
        v = np.zeros(cube.axis.n_cells)
        v[cube.cells()] = 1.0 / cube.measure
        return v

    c1, k1, c2, k2 = spec
    return float(f.pair(DiscreteFunction(f.grid, np.outer(profile(c1, k1), profile(c2, k2)))))


def test_atomic_terms_reproduce_forms():
    f1, f2, f3 = fn(32), fn(33), fn(34)
    for U in (
        random_shift_operator(GRID, ZERO, (1, 0, 0), (0, 1, 0), (2, 1),
                              np.random.default_rng(6)),
        random_partial_paraproduct(GRID, ZERO, (0, 1, 0), rng=np.random.default_rng(7)),
        random_partial_paraproduct(GRID, SHIFTS[1], (1, 0, 0), 1, 1, 2, np.random.default_rng(7)),
        random_full_paraproduct(GRID, ZERO, (2, 3), np.random.default_rng(8)),
    ):
        total = sum(
            coef * _pair_spec(f1, specs[0]) * _pair_spec(f2, specs[1]) * _pair_spec(f3, specs[2])
            for coef, specs in atomic_terms(U)
        )
        assert abs(total - U.form(f1, f2, f3)) < 1e-9 * max(1.0, abs(U.form(f1, f2, f3)))


# -- duality estimate -------------------------------------------------------------------

def _sequence_product_bmo_reference(grid, coeffs, om):
    """The dict-keyed report: coeffs maps DyadicRectangle -> scalar, masks
    built from each rectangle's cell index."""
    from dyadlab.measures import _product_bmo

    masks = np.zeros((len(coeffs), grid.shape[0] * grid.shape[1]), dtype=bool)
    for m, rect in zip(masks, coeffs):
        m.reshape(grid.shape)[rect.index()] = True
    return _product_bmo(grid, masks, np.array(list(coeffs.values()), dtype=float))


def _duality_check_reference(F_mask, collection, a_coeffs, b_coeffs, om, grid, density=0.99):
    """The dict-keyed duality check: rectangles as objects, coefficients in
    dicts keyed by them, the shifted copies rebuilt cube by cube."""
    for rect in collection:
        if F_mask[rect.index()].mean() < density - 1e-12:
            raise ValueError("collection violates the density precondition")
    lhs = sum(abs(a_coeffs[r] * b_coeffs[r]) for r in collection)
    shifted = {}
    for rect in collection:
        r1 = DyadicCube(rect.cube1.axis, rect.cube1.level, rect.cube1.pos, om.shift1)
        r2 = DyadicCube(rect.cube2.axis, rect.cube2.level, rect.cube2.pos, om.shift2)
        key = DyadicRectangle(r1, r2)
        shifted[key] = shifted.get(key, 0.0) + a_coeffs[rect]
    rep = _sequence_product_bmo_reference(grid, shifted, om)
    sq = np.zeros(grid.shape)
    for rect in collection:
        sq[rect.index()] += abs(b_coeffs[rect]) ** 2 / rect.measure
    integral = float((np.sqrt(sq) * F_mask).sum() * grid.cell_volume)
    rhs = rep.family_value * integral
    return {"lhs": lhs, "rhs": rhs, "bmo_report": rep.family_value, "integral": integral,
            "ratio": lhs / rhs if rhs > 0 else (math.inf if lhs > 0 else 0.0)}


def _duality_suite_reference(grid, seed, instances):
    """duality_suite's loop over dict-keyed rectangles: the worst ratio, and
    every instance's (ids, a, b, F, shift, dict-keyed output)."""
    from dyadlab.harness import _rng

    rng = _rng(seed, "duality")
    rects = list(all_rectangles(grid, GridShift.zero(grid)))
    worst, instances_out = 0.0, []
    for s in range(instances):
        F = np.ones(grid.shape, dtype=bool)
        if s % 3 == 1:
            F[int(rng.integers(0, grid.shape[0])), :] = False
        elif s % 3 == 2:
            F[:, int(rng.integers(0, grid.shape[1]))] = False
        om = sample_shift(grid, rng)
        pool = [i for i, r in enumerate(rects) if F[r.index()].mean() >= 0.99]
        ids = [pool[i] for i in rng.choice(len(pool), size=min(10, len(pool)), replace=False)]
        sel = [rects[i] for i in ids]
        a = {r: float(rng.standard_normal()) for r in sel}
        b = {r: float(rng.standard_normal()) for r in sel}
        out = _duality_check_reference(F, sel, a, b, om, grid)
        if out["rhs"] > 0:
            worst = max(worst, out["ratio"])
        instances_out.append((np.array(ids, dtype=np.intp), np.array(list(a.values())), np.array(list(b.values())),
                              F, om, out))
    return worst, instances_out


def _rect_id(grid, rect):
    return list(all_rectangles(grid, GridShift.zero(grid))).index(rect)


def test_duality_empty_collection():
    none = np.array([], dtype=int)
    out = coefficient_duality_check(np.ones(GRID.shape, dtype=bool), none, np.array([]), np.array([]),
                                    ZERO, GRID)
    assert out["lhs"] == 0.0 and out["ratio"] == 0.0


def test_duality_single_rectangle_closed_value():
    ids = np.array([_rect_id(GRID, DyadicRectangle(cube(0, 1, 0), cube(1, 1, 1)))])
    F = np.ones(GRID.shape, dtype=bool)
    out = coefficient_duality_check(F, ids, np.ones(1), np.ones(1), ZERO, GRID)
    assert abs(out["lhs"] - 1.0) < 1e-12
    # report side: single-coefficient family has norm |R|^{-1/2}, and the
    # square-sum mass integrates to |R|^{1/2}
    assert abs(out["rhs"] - 1.0) < 1e-12


def test_duality_density_precondition_rejected():
    ids = np.array([_rect_id(GRID, DyadicRectangle(cube(0, 1, 0), cube(1, 1, 1)))])
    F = np.zeros(GRID.shape, dtype=bool)
    with pytest.raises(ValueError):
        coefficient_duality_check(F, ids, np.ones(1), np.ones(1), ZERO, GRID)


def test_duality_fuzz_family_uniform_constant():
    rng = np.random.default_rng(9)
    rects = list(all_rectangles(GRID, ZERO))
    worst = 0.0
    for trial in range(50):
        # F as the complement of a small dyadic set keeps full-density rects
        F = np.ones(GRID.shape, dtype=bool)
        if trial % 2:
            F[rng.integers(0, GRID.shape[0]), :] = False
        pool = np.array([i for i, r in enumerate(rects) if F[r.index()].mean() >= 0.99])
        sel = pool[rng.choice(len(pool), size=min(12, len(pool)), replace=False)]
        a = rng.standard_normal(len(sel))
        b = rng.standard_normal(len(sel))
        out = coefficient_duality_check(F, sel, a, b, ZERO, GRID, density=0.99)
        if out["rhs"] > 0:
            worst = max(worst, out["ratio"])
    assert worst < 3.0


DUALITY_GRIDS = [(3, (1, 1), range(1, 21), 12), (2, (1, 1), range(1, 6), 30),
                 (4, (1, 1), range(1, 4), 12), (2, (2, 1), range(1, 6), 30)]


@pytest.mark.parametrize("level,dims,seeds,instances", DUALITY_GRIDS,
                         ids=["L3", "L2", "L4", "L2-dims21"])
def test_duality_arrays_match_dict_keyed_oracle_bit_for_bit(level, dims, seeds, instances):
    from dyadlab.harness import ExperimentConfig, duality_suite

    grid = TorusGrid.make(level, dims)
    for seed in seeds:
        worst, cases = _duality_suite_reference(grid, seed, instances)
        for ids, a, b, F, om, want in cases:
            assert coefficient_duality_check(F, ids, a, b, om, grid) == want
        cfg = ExperimentConfig(seed=seed, level=level, dims=list(dims), suite="duality")
        assert duality_suite(cfg, instances=instances).rows[0].value == worst


# -- weak type machinery -----------------------------------------------------------------

def test_weak_type_sets_nesting_and_enlargement():
    f = fn(35)
    lf = DiscreteFunction(GRID, np.abs(f.values))
    out = weak_type_sets(lf, E_measure=0.5, r=0.8)
    for om_mask, tilde in zip(out["omega"], out["omega_tilde"]):
        assert ((~om_mask) | tilde).all()  # tilde contains omega
    sizes = [m.mean() for m in out["omega"]]
    assert all(a <= b + 1e-12 for a, b in zip(sizes, sizes[1:]))
    ratios = [t.mean() / o.mean() for o, t in zip(out["omega"], out["omega_tilde"]) if o.any()]
    assert max(ratios, default=0.0) < 20.0


def test_weak_type_constant_input_all_or_nothing():
    lf = GRID.constant(1.0)
    out = weak_type_sets(lf, E_measure=1.0, r=1.0, C=2.0, u_max=4)
    for m in out["omega"]:
        assert m.all() or not m.any()


def test_aux_square_functions_bounded_ratio():
    b, f = fn(36), fn(37)
    from dyadlab.measures import bmo_norm, lp_norm

    b = b * (1.0 / bmo_norm(b, "little"))
    p1 = aux_phi1(b, f, samples=4, seed=0)
    p2 = aux_phi2(f, depth=1, samples=4, seed=0)
    for g in (p1, p2):
        assert lp_norm(g, 2.0) < 40.0 * lp_norm(f, 2.0)


def test_commutator_apply_matches_form():
    b, b2 = fn(40), fn(41)
    f1, f2, f3 = fn(42), fn(43), fn(44)
    S = random_shift_operator(GRID, ZERO, (0, 1, 0), (1, 0, 0), (3, 3),
                              np.random.default_rng(9))
    for slot in (1, 2):
        out = commutator_apply(b, S, slot, f1, f2)
        assert abs(out.pair(f3) - commutator_form_direct(b, S, slot, f1, f2, f3)) < 1e-11
    it = iterated_commutator_apply(b2, b, S, f1, f2)
    assert abs(it.pair(f3) - iterated_form_direct(b2, b, S, f1, f2, f3)) < 1e-11


def test_adapted_maximal_below_power_maximal():
    # oscillation-weighted maximal value never beats a fixed multiple of the
    # power-bumped plain maximal for unit-oscillation symbols
    from dyadlab.measures import bmo_norm, maximal_function

    worst = 0.0
    for seed in range(5):
        b = fn(seed + 50)
        b = b * (1.0 / bmo_norm(b, "little"))
        f = fn(seed + 60)
        mb = AdaptedMaximal(b, "rect").apply(f)
        ms2 = maximal_function(f, "strong", s=2.0)
        worst = max(worst, float((mb.values / np.maximum(ms2.values, 1e-12)).max()))
    assert worst < 8.0


# -- stacked forms and commutators ----------------------------------------------
#
# The per-term definitions the stacked evaluations replaced, one form or one
# apply per term: each returns its terms, signed, so that their sum is the
# commutator and their sizes scale the comparison.

def _commutator_form_terms(b, U, slot, f1, f2, f3):
    moved = U.form(b * f1, f2, f3) if slot == 1 else U.form(f1, b * f2, f3)
    return [U.form(f1, f2, b * f3), -moved]


def _iterated_form_terms(b2, b1, U, f1, f2, f3):
    return [U.form(f1, f2, b1 * b2 * f3), -U.form(b1 * f1, f2, b2 * f3),
            -U.form(f1, b2 * f2, b1 * f3), U.form(b1 * f1, b2 * f2, f3)]


def _commutator_apply_terms(b, U, slot, f1, f2):
    moved = U.apply(b * f1, f2) if slot == 1 else U.apply(f1, b * f2)
    return [(b * U.apply(f1, f2)).values, -moved.values]


def _iterated_apply_terms(b2, b1, U, f1, f2):
    return [(b2 * b1 * U.apply(f1, f2)).values, -(b2 * U.apply(b1 * f1, f2)).values,
            -(b1 * U.apply(f1, b2 * f2)).values, U.apply(b1 * f1, b2 * f2).values]


def _random_operator(family, grid, om, rng):
    """A random operator of the family on `grid`, its complexities below the levels."""
    L = grid.axes[0].levels
    k = tuple(int(x) for x in rng.integers(0, L, 3))
    if family == "shift":
        v = tuple(int(x) for x in rng.integers(0, L, 3))
        return random_shift_operator(grid, om, k, v, tuple(int(x) for x in rng.integers(1, 4, 2)), rng)
    if family == "partial":
        slots = (int(x) for x in rng.integers(1, 4, 2))
        return random_partial_paraproduct(grid, om, k, int(rng.integers(0, 2)), *slots, rng=rng)
    return random_full_paraproduct(grid, om, tuple(int(x) for x in rng.integers(1, 4, 2)), rng)


def _assert_close(got, terms, rtol=1e-12):
    """got equals the sum of terms within rtol of the terms' total size."""
    scale = sum(np.abs(t) for t in terms)
    assert np.all(np.abs(got - sum(terms)) <= rtol * np.max(scale))


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["shift", "partial", "full"]), level=st.integers(1, 3),
       shifted=st.booleans(), seed=st.integers(0, 2**16), samples=st.integers(1, 4))
def test_stacked_forms_and_commutators_match_per_term_definitions(family, level, shifted, seed, samples):
    rng = np.random.default_rng(seed)
    grid = TorusGrid.make(level)
    om = sample_shift(grid, rng) if shifted else GridShift.zero(grid)
    U = _random_operator(family, grid, om, rng)
    # a stacked form or absolute form is one value per sample, as per-sample calls give
    stacks = [DiscreteFunction(grid, rng.standard_normal((samples,) + grid.shape)) for _ in range(3)]
    for form in (U.form, U.absolute_form):
        got = form(*stacks)
        assert np.shape(got) == (samples,)
        for s in range(samples):
            want = form(*(DiscreteFunction(grid, f.values[s]) for f in stacks))
            assert abs(got[s] - want) <= 1e-12 * U.absolute_form(*(DiscreteFunction(grid, f.values[s]) for f in stacks))
    b, b2, f1, f2, f3 = (grid.random(rng) for _ in range(5))
    for slot in (1, 2):
        _assert_close(commutator_form_direct(b, U, slot, f1, f2, f3), _commutator_form_terms(b, U, slot, f1, f2, f3))
        _assert_close(commutator_apply(b, U, slot, f1, f2).values, _commutator_apply_terms(b, U, slot, f1, f2))
    _assert_close(iterated_form_direct(b2, b, U, f1, f2, f3), _iterated_form_terms(b2, b, U, f1, f2, f3))
    _assert_close(iterated_commutator_apply(b2, b, U, f1, f2).values, _iterated_apply_terms(b2, b, U, f1, f2))


@pytest.mark.parametrize("family", ["shift", "partial", "full"])
def test_commutator_forms_make_one_stacked_contraction(family, monkeypatch):
    # each commutator builds one stacked pairing table per slot and contracts
    # once; evaluated term by term it took a table per slot and a
    # contraction per term (6 and 2 first-order, 12 and 4 iterated)
    U = _random_operator(family, GRID, ZERO, np.random.default_rng(5))
    calls = {"tables": 0, "contractions": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(model_ops, "pairing_table", counted(model_ops.pairing_table, "tables"))
    monkeypatch.setattr(type(U), "_contract", counted(type(U)._contract, "contractions"))
    b, b2, f1, f2, f3 = (fn(s) for s in range(70, 75))
    commutator_form_direct(b, U, 1, f1, f2, f3)
    assert calls == {"tables": 3, "contractions": 1}
    calls.update(tables=0, contractions=0)
    iterated_form_direct(b2, b, U, f1, f2, f3)
    assert calls == {"tables": 3, "contractions": 1}
