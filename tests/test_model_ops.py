"""Dyadic model operators: structure, duals, normalisation, domination."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadlab.core import (
    AxisShift,
    DiscreteFunction,
    DyadicCube,
    GridShift,
    HaarFunction,
    TorusGrid,
    axis_haar_vector,
    outer,
    sample_shift,
)
from dyadlab.model_ops import (
    FullParaproduct,
    NormalizationError,
    PartialParaproduct,
    ShiftOperator,
    axis_ops,
    axis_profile_bmo,
    dmo_absolute_form_check,
    dmo_from_json,
    dmo_to_json,
    one_param_paraproduct,
    one_param_paraproduct_form,
    paraproduct_freeness_probe,
    random_full_paraproduct,
    random_partial_paraproduct,
    random_shift_operator,
    sparse_dominate_paraproduct,
)

from coeff_maps import coeff_map, partial_from_map, shift_from_map

GRID = TorusGrid.make(3)
ZERO = GridShift.zero(GRID)


def fns(*seeds):
    return tuple(GRID.random(np.random.default_rng(s)) for s in seeds)


ALL_PATTERNS = list(itertools.product((1, 2, 3), repeat=2))


# -- shifts -----------------------------------------------------------------

def test_zero_shift_is_zero_operator():
    S = shift_from_map(GRID, ZERO, (0, 0, 0), (0, 0, 0), (3, 3), {})
    f1, f2, f3 = fns(1, 2, 3)
    assert S.form(f1, f2, f3) == 0.0
    assert np.abs(S.apply(f1, f2).values).max() == 0.0


def test_single_key_shift_hand_oracle():
    # one key at the cap: the form is a product of three explicit pairings
    k = v = (0, 0, 0)
    key = ((1, 0), (1, 1))
    cap = ShiftOperator.cap(k, v, 1, 1)
    block = np.full((1, 1, 1, 1, 1, 1), cap)
    S = shift_from_map(GRID, ZERO, k, v, (3, 3), {key: block})
    f1, f2, f3 = fns(4, 5, 6)
    cK = DyadicCube(GRID.axes[0], 1, (0,), ZERO.shift1)
    cV = DyadicCube(GRID.axes[1], 1, (1,), ZERO.shift2)
    hK = axis_haar_vector(HaarFunction(cK, (1,)))
    hV = axis_haar_vector(HaarFunction(cV, (1,)))
    uK = axis_haar_vector(HaarFunction(cK, (0,)))
    uV = axis_haar_vector(HaarFunction(cV, (0,)))
    want = (
        cap
        * f1.pair(outer(GRID, hK, hV))
        * f2.pair(outer(GRID, hK, hV))
        * f3.pair(outer(GRID, uK, uV))
    )
    assert abs(S.form(f1, f2, f3) - want) < 1e-12


@pytest.mark.parametrize("pattern", ALL_PATTERNS)
def test_all_nine_shift_types_form_matches_apply(pattern):
    rng = np.random.default_rng(hash(pattern) % 2**32)
    S = random_shift_operator(GRID, ZERO, (1, 0, 1), (0, 1, 0), pattern, rng)
    f1, f2, f3 = fns(7, 8, 9)
    assert abs(S.form(f1, f2, f3) - S.apply(f1, f2).pair(f3)) < 1e-12


def test_shift_form_linear_in_each_argument():
    S = random_shift_operator(GRID, ZERO, (1, 1, 0), (0, 0, 1), (2, 1), np.random.default_rng(0))
    f1, f2, f3 = fns(1, 2, 3)
    g = fns(10)[0]
    base = S.form(f1, f2, f3)
    assert abs(S.form(f1 + g, f2, f3) - base - S.form(g, f2, f3)) < 1e-11
    assert abs(S.form(f1, 3.0 * f2, f3) - 3.0 * base) < 1e-11


def test_shift_duals_reproduce_form():
    rng = np.random.default_rng(5)
    S = random_shift_operator(GRID, ZERO, (1, 0, 0), (0, 1, 1), (1, 2), rng)
    f1, f2, f3 = fns(11, 12, 13)
    base = S.form(f1, f2, f3)
    assert abs(S.dual(1, 1).form(f3, f2, f1) - base) < 1e-12
    assert abs(S.dual(2, 2).form(f1, f3, f2) - base) < 1e-12
    # mixed partial duals move one axis at a time; iterating both equals full
    assert abs(S.dual(1, None).dual(None, 1).form(f3, f2, f1) - base) < 1e-12
    assert abs(S.dual(2, None).dual(None, 2).form(f1, f3, f2) - base) < 1e-12


def test_shift_normalization_fuzzer_rejects():
    rng = np.random.default_rng(1)
    S = random_shift_operator(GRID, ZERO, (1, 0, 0), (0, 0, 0), (3, 3), rng)
    key, block = next(iter(coeff_map(S).items()))
    bad = {k: b.copy() for k, b in coeff_map(S).items()}
    bad[key] = block * 1.5  # push past the cap
    with pytest.raises(NormalizationError):
        shift_from_map(GRID, ZERO, S.k, S.v, S.pattern, bad)


def test_shift_serialization_exact_roundtrip():
    S = random_shift_operator(GRID, ZERO, (0, 1, 0), (1, 0, 0), (2, 3), np.random.default_rng(3))
    S2 = dmo_from_json(dmo_to_json(S))
    for key, block in coeff_map(S).items():
        assert np.array_equal(coeff_map(S2)[key], block)


# -- key table and stacked array ------------------------------------------------

def _payload_oracle(U) -> dict:
    """to_payload as written over a mapping of keys to blocks or profiles:
    the records in sorted key order."""
    from dyadlab.model_ops import _grid_payload, _shift_payload

    head = {"grid": _grid_payload(U.grid), "shift": _shift_payload(U.shift), "k": list(U.k)}
    if isinstance(U, ShiftOperator):
        head |= {"family": "shift", "pattern": list(U.pattern), "v": list(U.v)}
        return head | {"records": [
            {"key": [list(kk), list(vv)], "block": [x.hex() for x in block.ravel().tolist()]}
            for (kk, vv), block in sorted(coeff_map(U).items())]}
    head |= {"family": "partial", "shift_axis": U.shift_axis, "h0_slot": U.h0_slot, "ptype": U.ptype}
    return head | {"records": [
        {"key": [list(kk), list(idx)], "profile": [x.hex() for x in prof.tolist()]}
        for (kk, idx), prof in sorted(coeff_map(U).items())]}


def _stored(U) -> tuple[np.ndarray, np.ndarray]:
    return U.keys, U.blocks if isinstance(U, ShiftOperator) else U.profiles


def _assert_same_arrays(U, W):
    for a, b in zip(_stored(U), _stored(W)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _array_storage_cases():
    """Random shifts and partial paraproducts, each also with its keys in
    reverse order (the storage keeps the order it is given)."""
    rng = np.random.default_rng(41)
    for grid in (TorusGrid.make(2), GRID):
        for om in (GridShift.zero(grid), sample_shift(grid, rng)):
            ops = [random_shift_operator(grid, om, k, v, pattern, rng)
                   for k, v, pattern in (((0, 0, 0), (0, 0, 0), (3, 3)), ((1, 0, 1), (0, 1, 0), (1, 2)),
                                         ((0, 1, 0), (1, 1, 0), (2, 3)))]
            ops += [random_partial_paraproduct(grid, om, k, shift_axis, h0_slot, ptype, rng)
                    for shift_axis in (0, 1) for k, h0_slot, ptype in (((0, 0, 0), 3, 3), ((1, 0, 1), 1, 2))]
            for U in ops:
                keys, values = _stored(U)
                field = "blocks" if isinstance(U, ShiftOperator) else "profiles"
                yield U
                yield dataclasses.replace(U, keys=keys[::-1], **{field: values[::-1]})


def test_array_payload_matches_sorted_mapping_oracle():
    for U in _array_storage_cases():
        assert len(U.keys) > 0
        payload = U.to_payload()
        assert payload == _payload_oracle(U)
        back = type(U).from_payload(payload)
        order = np.lexsort(U.keys.T[::-1])
        for a, b in zip(_stored(back), _stored(U)):
            assert np.array_equal(a, b[order])
        twice = U.dual(1, 1).dual(1, 1) if isinstance(U, ShiftOperator) else U.dual(1).dual(1)
        _assert_same_arrays(twice, U)


def test_stored_arrays_are_read_only_copies():
    S = random_shift_operator(GRID, ZERO, (1, 0, 0), (0, 1, 0), (2, 3), np.random.default_rng(6))
    keys, blocks = S.keys.copy(), S.blocks.copy()
    S2 = ShiftOperator(GRID, ZERO, S.k, S.v, S.pattern, keys, blocks)
    blocks[0] = 0.0  # the caller's arrays stay the caller's
    assert keys.flags.writeable and S2.blocks[0].any()
    for a in (*_stored(S2), *_stored(random_partial_paraproduct(GRID, ZERO, (0, 1, 0), rng=np.random.default_rng(7)))):
        assert not a.flags.writeable


def _shift_draws_ref(grid, k, v, rng, fill):
    """The draws block by block, in key order."""
    L1, L2 = grid.axes[0].levels, grid.axes[1].levels
    shape = tuple(1 << d for d in k) + tuple(1 << d for d in v)
    keys, blocks = [], []
    for lk in range(L1 - max(k)):
        for pk in range(1 << lk):
            for lv in range(L2 - max(v)):
                for pv in range(1 << lv):
                    cap = float(ShiftOperator.cap(k, v, lk, lv))
                    blocks.append(fill * cap * rng.choice([-1.0, 1.0], size=shape))
                    keys.append((lk, pk, lv, pv))
    return keys, blocks


def _partial_draws_ref(grid, k, shift_axis, rng, fill):
    """The draws profile by profile, in key order."""
    axis, paxis = grid.axes[shift_axis], grid.axes[1 - shift_axis]
    keys, profiles = [], []
    for lk in range(axis.levels - max(k)):
        for pk in range(1 << lk):
            cap = float(PartialParaproduct.cap(k, lk))
            for idx in itertools.product(*(range(1 << d) for d in k)):
                prof = rng.standard_normal(paxis.n_cells)
                prof -= prof.mean()
                norm = axis_profile_bmo(prof, paxis)
                if norm > 0:
                    prof *= fill * cap / norm
                keys.append((lk, pk) + idx)
                profiles.append(prof)
    return keys, profiles


@pytest.mark.parametrize("L", [2, 3, 4])
def test_batched_draws_match_per_block_draws(L):
    grid = TorusGrid.make(L)
    om = sample_shift(grid, np.random.default_rng(L))
    shapes = (((0, 0, 0), (0, 0, 0)), ((1, 0, 0), (0, 1, 1)), ((0, 2, 1), (1, 0, 0)), ((L, 0, 0), (0, 0, 0)))
    for seed, ((k, v), fill) in enumerate(itertools.product(shapes, (1.0, 0.3))):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        S = random_shift_operator(grid, om, k, v, (1, 3), rng, fill)
        keys, blocks = _shift_draws_ref(grid, k, v, ref, fill)
        assert S.keys.tolist() == [list(key) for key in keys]
        assert np.array_equal(S.blocks, np.reshape(blocks, S.blocks.shape))
        assert rng.bit_generator.state == ref.bit_generator.state
    for seed, (k, shift_axis) in enumerate(itertools.product(((0, 0, 0), (1, 0, 1), (0, 2, 0)), (0, 1))):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        P = random_partial_paraproduct(grid, om, k, shift_axis, 2, 1, rng, fill=0.5)
        keys, profiles = _partial_draws_ref(grid, k, shift_axis, ref, 0.5)
        assert P.keys.tolist() == [list(key) for key in keys]
        assert np.array_equal(P.profiles, np.reshape(profiles, P.profiles.shape))
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("key", [
    ((1, 2), (1, 0)),   # K position past the end of its level
    ((1, 0), (1, 3)),   # V position past the end of its level
    ((1, -1), (1, 0)),  # negative position
    ((-1, 0), (1, 0)),  # negative K level
    ((1, 0), (-1, 0)),  # negative V level
])
def test_shift_rejects_keys_outside_the_lattice(key):
    k = v = (0, 0, 0)
    cap = ShiftOperator.cap(k, v, 0, 0)  # the caps grow with the levels
    with pytest.raises(ValueError, match="outside the lattice"):
        shift_from_map(GRID, ZERO, k, v, (3, 3), {key: np.full((1,) * 6, cap)})


@pytest.mark.parametrize("key", [
    ((1, 2), (0, 0, 0)),   # K position past the end of its level
    ((-1, 0), (0, 0, 0)),  # negative K level
    ((1, 0), (-1, 0, 0)),  # negative child index
    ((1, 0), (2, 0, 0)),   # child index past 2^k1
    ((1, 0), (0, 0, 1)),   # child index in a slot of depth 0
])
def test_partial_rejects_keys_outside_the_lattice(key):
    cap = PartialParaproduct.cap((1, 0, 0), 0)  # the caps grow with the levels
    sym = np.zeros(GRID.axes[1].n_cells)
    sym[0], sym[1] = cap, -cap  # BMO norm cap / 2
    with pytest.raises(ValueError, match="outside the lattice"):
        partial_from_map(GRID, ZERO, 0, (1, 0, 0), 3, 3, {key: sym})


def test_repeated_keys_are_rejected():
    S = random_shift_operator(GRID, ZERO, (1, 0, 0), (0, 0, 1), (3, 2), np.random.default_rng(8))
    P = random_partial_paraproduct(GRID, ZERO, (1, 0, 0), 1, rng=np.random.default_rng(9))
    for U, rebuild in ((S, lambda keys, arr: ShiftOperator(GRID, ZERO, S.k, S.v, S.pattern, keys, arr)),
                       (P, lambda keys, arr: PartialParaproduct(GRID, ZERO, 1, P.k, 3, 3, keys, arr))):
        keys, arr = _stored(U)
        rebuild(keys, arr)
        rows = np.r_[np.arange(len(keys)), 2]  # the third key twice
        with pytest.raises(ValueError, match="repeats"):
            rebuild(keys[rows], arr[rows])


def test_payload_keys_are_checked():
    S = random_shift_operator(GRID, ZERO, (0, 0, 0), (0, 0, 0), (3, 3), np.random.default_rng(10))
    payload = S.to_payload()
    payload["records"][1]["key"] = [[1, 3], [1, 0]]  # aliases [[1, 1], [1, 0]] modulo 2
    with pytest.raises(ValueError, match="outside the lattice"):
        ShiftOperator.from_payload(payload)


# -- batched validation ------------------------------------------------------------

SHIFT_SHAPES = [((0, 0, 0), (0, 0, 0), (3, 3)), ((1, 0, 0), (0, 0, 1), (3, 2)),
                ((0, 1, 1), (1, 0, 0), (1, 2)), ((1, 1, 0), (0, 1, 0), (2, 1))]
PARTIAL_SHAPES = [((0, 0, 0), 3, 3), ((1, 0, 0), 1, 2), ((0, 1, 1), 2, 3), ((1, 0, 1), 3, 1)]


def _draw_members(family, grid, om, shapes, seed, fill=1.0, shift_axis=0):
    """Copies of the stored arrays of random operators, one per shape, as
    [shape, keys, blocks or profiles]."""
    members = []
    for n, shape in enumerate(shapes):
        rng = np.random.default_rng(seed + n)
        if family == "shift":
            U = random_shift_operator(grid, om, *shape, rng, fill)
        else:
            U = random_partial_paraproduct(grid, om, shape[0], shift_axis, *shape[1:], rng, fill)
        members.append([shape, *(a.copy() for a in _stored(U))])
    return members


def _build_one(family, grid, om, member, shift_axis=0):
    shape, keys, values = member
    if family == "shift":
        return ShiftOperator(grid, om, *shape, keys, values)
    return PartialParaproduct(grid, om, shift_axis, *shape, keys, values)


def _build_batch(family, grid, om, members, shift_axis=0):
    heads = [(*shape, len(keys)) for shape, keys, _ in members]
    keys = np.concatenate([keys for _, keys, _ in members])
    if family == "shift":
        return ShiftOperator.batch(grid, om, heads, keys, np.concatenate([m[2].ravel() for m in members]))
    return PartialParaproduct.batch(grid, om, shift_axis, heads, keys, np.concatenate([m[2] for m in members]))


def _mutate(member, how, i, levels=3):
    """Break key i of a member (on a square grid of `levels` levels): its
    block or profile over the cap (when drawn at the cap), the key repeated,
    its position past its level, or its cube at the finest level, where a
    cancellative slot has no cubes below it."""
    _, keys, values = member
    if how == "over-cap":
        values[i] *= 1.5
    elif how == "repeat":
        rows = np.r_[np.arange(len(keys)), i]
        member[1:] = keys[rows], values[rows]
    elif how == "outside":
        keys[i, 1] = 1 << keys[i, 0]
    elif how == "finest":
        keys[i, 0] = levels


def _outcome(build):
    """The operators built, or the type of the ValueError raised."""
    try:
        return build()
    except ValueError as exc:
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["shift", "partial"]), level=st.sampled_from([2, 3]), seed=st.integers(0, 2**16),
       fill=st.sampled_from([0.5, 1.0]), shift_axis=st.sampled_from([0, 1]),
       picks=st.lists(st.tuples(st.integers(0, 3), st.sampled_from(["none", "over-cap", "repeat", "outside", "finest"]),
                                st.floats(0, 1)), min_size=1, max_size=4))
def test_batch_validation_matches_per_operator_validation(family, level, seed, fill, shift_axis, picks):
    # a batch is accepted exactly when each of its operators is, and then
    # holds the operators built one by one; a rejected batch raises the
    # error of one of its rejected operators
    grid = TorusGrid.make(level)
    om = sample_shift(grid, np.random.default_rng(seed))
    shapes = SHIFT_SHAPES if family == "shift" else PARTIAL_SHAPES
    members = _draw_members(family, grid, om, [shapes[s] for s, _, _ in picks], seed, fill, shift_axis)
    for member, (_, how, where) in zip(members, picks):
        if len(member[1]):
            _mutate(member, how, int(where * (len(member[1]) - 1)), level)
    single = [_outcome(lambda m=m: _build_one(family, grid, om, m, shift_axis)) for m in members]
    batch = _outcome(lambda: _build_batch(family, grid, om, members, shift_axis))
    if isinstance(batch, list):
        assert len(batch) == len(single)
        for U, W in zip(batch, single):
            assert type(U) is type(W) and (U.k, U.shift, U.grid) == (W.k, W.shift, W.grid)
            _assert_same_arrays(U, W)
            assert not any(a.flags.writeable for a in _stored(U))
    else:
        assert batch in single


@pytest.mark.parametrize("family", ["shift", "partial"])
def test_batch_validation_mutations(family):
    shapes = (SHIFT_SHAPES if family == "shift" else PARTIAL_SHAPES)[:3]
    members = _draw_members(family, GRID, ZERO, shapes, 50)
    # the same key in two operators passes
    assert set(map(tuple, members[0][1].tolist())) & set(map(tuple, members[1][1].tolist()))
    for U, (_, keys, values) in zip(_build_batch(family, GRID, ZERO, members), members):
        assert np.array_equal(U.keys, keys) and np.array_equal(_stored(U)[1], values)
    for how, error, match in (("over-cap", NormalizationError, "cap"), ("repeat", ValueError, "repeats"),
                              ("outside", ValueError, "outside the lattice"),
                              ("finest", ValueError, "outside the lattice")):
        members = _draw_members(family, GRID, ZERO, shapes, 50)
        _mutate(members[0], how, 1)  # a key of the first operator, whose cubes may reach level L - 1
        with pytest.raises(error, match=match):
            _build_batch(family, GRID, ZERO, members)


# -- axis and slot parameters: refused by the constructor and in payloads ---------

def _assert_refused(U, field, value, match):
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(U, **{field: value})
    with pytest.raises(ValueError, match=match):
        type(U).from_payload(U.to_payload() | {field: value})


@pytest.mark.parametrize("shift_axis", [5, -1, 2])
def test_partial_rejects_bad_shift_axis(shift_axis):
    P = random_partial_paraproduct(GRID, ZERO, (1, 0, 0), rng=np.random.default_rng(13))
    _assert_refused(P, "shift_axis", shift_axis, "shift_axis")


@pytest.mark.parametrize("h0_slot", [0, 4, -1])
def test_partial_rejects_bad_h0_slot(h0_slot):
    P = random_partial_paraproduct(GRID, ZERO, (1, 0, 0), rng=np.random.default_rng(14))
    _assert_refused(P, "h0_slot", h0_slot, "h0_slot")


@pytest.mark.parametrize("ptype", [7, 0, -3])
def test_partial_rejects_bad_ptype(ptype):
    P = random_partial_paraproduct(GRID, ZERO, (1, 0, 0), rng=np.random.default_rng(15))
    _assert_refused(P, "ptype", ptype, "ptype")


@pytest.mark.parametrize("pattern", [(0, 3), (3, 9), (3,), (1, 2, 3)])
def test_full_rejects_bad_pattern(pattern):
    F = random_full_paraproduct(GRID, ZERO, (3, 3), np.random.default_rng(16))
    _assert_refused(F, "pattern", pattern, "pattern")


# -- gather plans against the per-key reference loops ----------------------------
#
# The references below are the per-key loops the plans replaced: descendant
# rows found cube by cube, one pairing table per slot, one einsum per key.

def _descendants_ref(ops, level, pos, depth):
    """Descendant positions from the cube geometry, in spatial order."""
    cubes = [DyadicCube(ops.axis, level, (pos,), ops.shift)]
    for _ in range(depth):
        cubes = [c for q in cubes for c in q.children()]
    return [c.pos[0] for c in cubes]


def _rows_ref(ops, level, pos, depth, kind):
    index = ops.canc_index if kind == "haar" else ops.cube_index
    return np.array([index(level + depth, q) for q in _descendants_ref(ops, level, pos, depth)])


def _shift_slot_ref(S, slot, kk, vv):
    """One key's slot rows on both factors (unscaled row matrices)."""
    out = []
    for a, (level, pos), depth in ((0, kk, S.k[slot - 1]), (1, vv, S.v[slot - 1])):
        ops = axis_ops(S.grid.axes[a], S.shift[a])
        kind = "unit" if S.pattern[a] == slot else "haar"
        out.append(ops.rows(kind)[_rows_ref(ops, level, pos, depth, kind)])
    return out


def shift_reference(S, f1, f2, f3=None, absolute=False):
    """Per-key loop: the (absolute) form when f3 is given, else apply."""
    vol1, vol2 = (ax.cell_volume for ax in S.grid.axes)
    total, out = 0.0, np.zeros(S.grid.shape)
    for (kk, vv), block in coeff_map(S).items():
        rows = [_shift_slot_ref(S, s, kk, vv) for s in (1, 2, 3)]
        us = [(r1 * vol1) @ f.values @ (r2 * vol2).T
              for (r1, r2), f in zip(rows, (f1, f2, f3 if f3 is not None else f1))]
        if f3 is None:
            w3 = np.einsum("abcdef,ad,be->cf", block, us[0], us[1])
            out += rows[2][0].T @ w3 @ rows[2][1]
            continue
        if absolute:
            block, us = np.abs(block), [np.abs(u) for u in us]
        total += float(np.einsum("abcdef,ad,be,cf->", block, *us))
    return total if f3 is not None else out


def shift_density_reference(S):
    n1, n2 = S.grid.shape
    dens = np.zeros((n1, n2) * 3)
    for (kk, vv), block in coeff_map(S).items():
        (a1, a2), (b1, b2), (c1, c2) = (_shift_slot_ref(S, s, kk, vv) for s in (1, 2, 3))
        dens += np.einsum("abcdef,cX,fP,aY,dQ,bZ,eR->XPYQZR",
                          block, c1, c2, a1, a2, b1, b2, optimize=True)
    return dens.reshape((n1 * n2,) * 3)


def _partial_slot_ref(P, slot, kk, i):
    sops = axis_ops(P.grid.axes[P.shift_axis], P.shift[P.shift_axis])
    kind = "unit" if slot == P.h0_slot else "haar"
    return sops.rows(kind)[_rows_ref(sops, kk[0], kk[1], P.k[slot - 1], kind)[i]]


def partial_reference(P, f1, f2, f3=None, absolute=False):
    """Per-key loop: the (absolute) form when f3 is given, else apply."""
    sax = P.shift_axis
    pops = axis_ops(P.grid.axes[1 - sax], P.shift[1 - sax])
    vol, n_canc = pops.axis.cell_volume, len(pops.haar)
    total, out = 0.0, np.zeros(P.grid.shape)
    for (kk, idx), b in coeff_map(P).items():
        svecs = [_partial_slot_ref(P, s, kk, idx[s - 1]) for s in (1, 2, 3)]
        gs = [f.pair_axis(v, sax) for v, f in zip(svecs, (f1, f2, f3 if f3 is not None else f1))]
        if f3 is None:
            pvec = one_param_paraproduct(b, gs[0], gs[1], pops, P.ptype)
            out += np.outer(svecs[2], pvec) if sax == 0 else np.outer(pvec, svecs[2])
        elif absolute:
            bb = np.abs((pops.haar * vol) @ b)
            xs = [np.abs(((pops.haar if P.ptype == s + 1 else pops.avg[:n_canc]) * vol) @ g)
                  for s, g in enumerate(gs)]
            total += float((bb * xs[0] * xs[1] * xs[2]).sum())
        else:
            total += one_param_paraproduct_form(b, *gs, pops, P.ptype)
    return total if f3 is not None else out


def partial_density_reference(P):
    sax = P.shift_axis
    pops = axis_ops(P.grid.axes[1 - sax], P.shift[1 - sax])
    na, nb = P.grid.axes[sax].n_cells, pops.axis.n_cells
    prows = [pops.haar if P.ptype == s else pops.avg[:len(pops.haar)] for s in (1, 2, 3)]
    dens = np.zeros((na, nb) * 3)
    for (kk, idx), b in coeff_map(P).items():
        svecs = [_partial_slot_ref(P, s, kk, idx[s - 1]) for s in (1, 2, 3)]
        bb = (pops.haar * pops.axis.cell_volume) @ b
        pdens = np.einsum("v,vP,vQ,vR->PQR", bb, prows[2], prows[0], prows[1])
        dens += np.einsum("X,Y,Z,PQR->XPYQZR", svecs[2], svecs[0], svecs[1], pdens)
    if sax == 1:
        dens = dens.transpose(1, 0, 3, 2, 5, 4)
    return dens.reshape((na * nb,) * 3)


def _assert_matches_reference(U, reference, density_reference, fs):
    """Form, absolute form, apply and kernel density against the per-key
    loops, at 1e-12 relative to the absolute form (the size of the summed
    terms) or to the largest reference entry."""
    f1, f2, f3 = fs
    scale = reference(U, f1, f2, f3, absolute=True)
    assert abs(U.absolute_form(f1, f2, f3) - scale) <= 1e-12 * scale
    assert abs(U.form(f1, f2, f3) - reference(U, f1, f2, f3)) <= 1e-12 * scale
    for got, want in ((U.apply(f1, f2).values, reference(U, f1, f2)),
                      (U.kernel_density(), density_reference(U))):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("pattern", ALL_PATTERNS)
def test_shift_plan_matches_per_key_loops(pattern):
    # multi-key operators on a random lattice, and their duals
    rng = np.random.default_rng(100 + 3 * pattern[0] + pattern[1])
    for grid in (TorusGrid.make(2), GRID):
        om = sample_shift(grid, rng)
        k = tuple(int(x) for x in rng.integers(0, grid.axes[0].levels - 1, 3))
        v = tuple(int(x) for x in rng.integers(0, grid.axes[1].levels - 1, 3))
        S = random_shift_operator(grid, om, k, v, pattern, rng)
        fs = tuple(grid.random(rng) for _ in range(3))
        assert len(S.keys) > 1
        for U in (S, S.dual(1, 1), S.dual(2, None), S.dual(None, 1)):
            _assert_matches_reference(U, shift_reference, shift_density_reference, fs)


@pytest.mark.parametrize("shift_axis, h0_slot, ptype",
                         list(itertools.product((0, 1), (1, 2, 3), (1, 2, 3))))
def test_partial_plan_matches_per_key_loops(shift_axis, h0_slot, ptype):
    rng = np.random.default_rng(200 + 9 * shift_axis + 3 * h0_slot + ptype)
    for grid in (TorusGrid.make(2), GRID):
        om = sample_shift(grid, rng)
        k = tuple(int(x) for x in rng.integers(0, grid.axes[shift_axis].levels - 1, 3))
        P = random_partial_paraproduct(grid, om, k, shift_axis, h0_slot, ptype, rng)
        fs = tuple(grid.random(rng) for _ in range(3))
        for U in (P, P.dual(1), P.dual(2)):
            _assert_matches_reference(U, partial_reference, partial_density_reference, fs)


def test_descendant_rows_follow_the_cube_geometry():
    grid = TorusGrid.make(4)
    L = grid.axes[0].levels
    ops = axis_ops(grid.axes[0], sample_shift(grid, np.random.default_rng(8)).shift1)
    for depth in range(L + 1):
        for kind, finest in (("unit", L), ("haar", L - 1)):
            # every cube whose depth-`depth` descendants have rows of this kind
            cubes = [(l, p) for l in range(finest + 1 - depth) for p in range(1 << l)]
            if not cubes:
                continue
            lv, pos = np.array(cubes).T
            want = np.stack([_rows_ref(ops, l, p, depth, kind) for l, p in cubes])
            assert np.array_equal(ops.descendant_rows(lv, pos, depth), want)
            for l, p in cubes:
                assert np.array_equal(ops.descendant_positions(l, p, depth),
                                      _descendants_ref(ops, l, p, depth))


def test_plans_are_built_on_first_evaluation_and_read_only():
    rng = np.random.default_rng(9)
    f1, f2, f3 = fns(1, 2, 3)
    ops = (random_shift_operator(GRID, ZERO, (1, 0, 0), (0, 1, 0), (2, 3), rng),
           random_partial_paraproduct(GRID, ZERO, (0, 1, 0), 1, 2, 1, rng))
    for U in ops:
        assert "_plan" not in vars(U)  # construction and validation build none
        base = U.form(f1, f2, f3)
        plan = vars(U)["_plan"]
        arrays = [plan.coeffs] + [a for slot in plan.rows for a in slot]
        assert len(arrays) == (7 if isinstance(U, ShiftOperator) else 4)
        for a in arrays:
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            plan.coeffs[0] = 0.0
        U.apply(f1, f2)
        assert vars(U)["_plan"] is plan and U.form(f1, f2, f3) == base


def test_shift_on_random_lattice():
    om = sample_shift(GRID, np.random.default_rng(17))
    S = random_shift_operator(GRID, om, (1, 1, 1), (0, 0, 0), (3, 3), np.random.default_rng(2))
    f1, f2, f3 = fns(21, 22, 23)
    assert abs(S.form(f1, f2, f3) - S.apply(f1, f2).pair(f3)) < 1e-12


# -- one-parameter paraproducts ------------------------------------------------

def test_one_param_paraproduct_unit_averages():
    ax = GRID.axes[1]
    ops = axis_ops(ax, ZERO.shift2)
    V0 = DyadicCube(ax, 1, (0,), ZERO.shift2)
    b = axis_haar_vector(HaarFunction(V0, (1,)))
    ones = np.ones(ax.n_cells)
    out = one_param_paraproduct(b, ones, ones, ops, 3)
    assert np.abs(out - b).max() < 1e-12


def test_one_param_paraproduct_constant_symbol_vanishes():
    ax = GRID.axes[0]
    ops = axis_ops(ax, ZERO.shift1)
    ones = np.ones(ax.n_cells)
    out = one_param_paraproduct(np.full(ax.n_cells, 3.3), ones, ones, ops, 3)
    assert np.abs(out).max() < 1e-12


def test_one_param_paraproduct_adjoints_on_random_triples():
    ax = GRID.axes[0]
    ops = axis_ops(ax, ZERO.shift1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        b, g1, g2, g3 = (rng.standard_normal(ax.n_cells) for _ in range(4))
        base = one_param_paraproduct_form(b, g1, g2, g3, ops, 3)
        assert abs(one_param_paraproduct_form(b, g3, g2, g1, ops, 1) - base) < 1e-12
        assert abs(one_param_paraproduct_form(b, g1, g3, g2, ops, 2) - base) < 1e-12


# -- partial paraproducts ---------------------------------------------------------

@pytest.mark.parametrize("ptype", [0, 7, -1])
def test_one_param_paraproduct_rejects_bad_ptype(ptype):
    # a ptype that names no slot once gave the all-averages form, and the
    # apply as if ptype were 2
    ax = GRID.axes[0]
    ops = axis_ops(ax, ZERO.shift1)
    b, g1, g2, g3 = np.random.default_rng(14).standard_normal((4, ax.n_cells))
    with pytest.raises(ValueError, match="ptype"):
        one_param_paraproduct_form(b, g1, g2, g3, ops, ptype)
    with pytest.raises(ValueError, match="ptype"):
        one_param_paraproduct(b, g1, g2, ops, ptype)
    with pytest.raises(ValueError, match="ptype"):
        sparse_dominate_paraproduct(b, g1, g2, g3, ax, ptype=ptype)


def test_axis_profile_bmo_over_all_shifts_oracle():
    from dyadlab.core import axis_cubes, enumerate_axis_shifts

    axis = TorusGrid.make(2).axes[0]
    vec = np.random.default_rng(34).standard_normal(axis.n_cells)
    best = 0.0
    for s in enumerate_axis_shifts(axis):
        for level in range(axis.levels + 1):
            for cube in axis_cubes(axis, level, s):
                blk = vec[cube.cells()]
                best = max(best, float(np.abs(blk - blk.mean()).mean()))
    assert abs(axis_profile_bmo(vec, axis) - best) <= 1e-12 * best
    assert axis_profile_bmo(vec, axis, over_all_shifts=False) <= best


def test_partial_paraproduct_zero_symbols():
    P = partial_from_map(GRID, ZERO, 0, (0, 0, 0), 3, 3, {})
    f1, f2, f3 = fns(1, 2, 3)
    assert P.form(f1, f2, f3) == 0.0
    assert not P.apply(f1, f2).values.any()
    assert not P.kernel_density().any()


def test_partial_paraproduct_single_key_oracle():
    # symbol c*h_V0 at the BMO cap; the output is an explicit rank-one block
    ax2 = GRID.axes[1]
    V0 = DyadicCube(ax2, 1, (0,), ZERO.shift2)
    hV = axis_haar_vector(HaarFunction(V0, (1,)))
    cap = PartialParaproduct.cap((0, 0, 0), 1)
    sym = cap / axis_profile_bmo(hV, ax2) * hV
    key = ((1, 1), (0, 0, 0))
    P = partial_from_map(GRID, ZERO, 0, (0, 0, 0), 3, 3, {key: sym})
    f1, f2 = fns(4, 5)
    ops1 = axis_ops(GRID.axes[0], ZERO.shift1)
    ops2 = axis_ops(ax2, ZERO.shift2)
    hK = ops1.haar[ops1.canc_index(1, 1)]
    uK = ops1.unit[ops1.cube_index(1, 1)]
    g1 = f1.pair_axis(hK, 0)
    g2 = f2.pair_axis(hK, 0)
    pvec = one_param_paraproduct(sym, g1, g2, ops2, 3)
    want = np.outer(uK, pvec)
    assert np.abs(P.apply(f1, f2).values - want).max() < 1e-12


def test_partial_paraproduct_mirrored_family_swap_oracle():
    # shift structure on axis 2 agrees with axis-swapped evaluation
    rng = np.random.default_rng(31)
    P = random_partial_paraproduct(GRID, ZERO, (1, 0, 0), shift_axis=1, h0_slot=2, ptype=1, rng=rng)
    f1, f2, f3 = fns(6, 7, 8)
    swapped = [DiscreteFunction(GRID, f.values.T.copy()) for f in (f1, f2, f3)]
    Pm = partial_from_map(GRID, ZERO, 0, P.k, P.h0_slot, P.ptype, coeff_map(P))
    assert abs(P.form(f1, f2, f3) - Pm.form(*swapped)) < 1e-12


def test_partial_paraproduct_bmo_cap_enforced():
    rng = np.random.default_rng(2)
    P = random_partial_paraproduct(GRID, ZERO, (0, 0, 0), rng=rng)
    key, sym = next(iter(coeff_map(P).items()))
    bad = coeff_map(P)
    bad[key] = sym * 2.0
    with pytest.raises(NormalizationError):
        partial_from_map(GRID, ZERO, 0, (0, 0, 0), 3, 3, bad)


def test_partial_paraproduct_serialization_roundtrip():
    P = random_partial_paraproduct(GRID, ZERO, (1, 1, 0), h0_slot=1, ptype=2,
                                   rng=np.random.default_rng(4))
    f1, f2, f3 = fns(9, 10, 11)
    P2 = dmo_from_json(dmo_to_json(P))
    assert abs(P2.form(f1, f2, f3) - P.form(f1, f2, f3)) == 0.0


def test_partial_paraproduct_brute_force_double_loop():
    # outer Haar pairing + inner one-parameter paraproduct, assembled by hand
    rng = np.random.default_rng(12)
    P = random_partial_paraproduct(GRID, ZERO, (1, 0, 1), rng=rng)
    f1, f2, f3 = fns(13, 14, 15)
    ops1 = axis_ops(GRID.axes[0], ZERO.shift1)
    ops2 = axis_ops(GRID.axes[1], ZERO.shift2)
    total = 0.0
    for (kk, idx), sym in coeff_map(P).items():
        qs = [ops1.descendant_positions(kk[0], kk[1], d) for d in P.k]
        rows = [
            ops1.haar[ops1.canc_index(kk[0] + P.k[0], int(qs[0][idx[0]]))],
            ops1.haar[ops1.canc_index(kk[0] + P.k[1], int(qs[1][idx[1]]))],
            ops1.unit[ops1.cube_index(kk[0] + P.k[2], int(qs[2][idx[2]]))],
        ]
        g1 = f1.pair_axis(rows[0], 0)
        g2 = f2.pair_axis(rows[1], 0)
        g3 = f3.pair_axis(rows[2], 0)
        total += one_param_paraproduct_form(sym, g1, g2, g3, ops2, 3)
    assert abs(total - P.form(f1, f2, f3)) < 1e-11


# -- full paraproducts --------------------------------------------------------------

def test_full_paraproduct_single_coefficient():
    c1 = DyadicCube(GRID.axes[0], 1, (0,), ZERO.shift1)
    c2 = DyadicCube(GRID.axes[1], 2, (1,), ZERO.shift2)
    b = outer(GRID, axis_haar_vector(HaarFunction(c1, (1,))), axis_haar_vector(HaarFunction(c2, (1,))))
    F = FullParaproduct.from_symbol(b, ZERO, (3, 3))
    one = GRID.constant(1.0)
    out = F.apply(one, one)
    assert np.abs(out.values - b.values).max() < 1e-12


def test_full_paraproduct_flat_symbol_vanishes():
    # a symbol depending on one variable only through the top level has no
    # cancellative-pair coefficients
    vals = np.repeat(np.linspace(0, 1, GRID.shape[0])[:, None], GRID.shape[1], axis=1)
    b = DiscreteFunction(GRID, np.ones(GRID.shape) * vals.mean())
    F = FullParaproduct.from_symbol(b, ZERO)
    assert np.abs(F.lam).max() < 1e-12


@pytest.mark.parametrize("pattern", ALL_PATTERNS)
def test_full_paraproduct_nine_variants_coefficient_sum_oracle(pattern):
    rng = np.random.default_rng(sum(pattern))
    F = random_full_paraproduct(GRID, ZERO, pattern, rng)
    f1, f2, f3 = fns(16, 17, 18)
    ops1 = axis_ops(GRID.axes[0], ZERO.shift1)
    ops2 = axis_ops(GRID.axes[1], ZERO.shift2)
    total = 0.0
    for i, cK in enumerate(ops1.cubes[:len(ops1.haar)]):
        hK = ops1.haar[i]
        aK = ops1.avg[ops1.cube_index(cK.level, cK.pos[0])]
        for j, cV in enumerate(ops2.cubes[:len(ops2.haar)]):
            hV = ops2.haar[j]
            aV = ops2.avg[ops2.cube_index(cV.level, cV.pos[0])]
            factors = []
            for s, f in ((1, f1), (2, f2), (3, f3)):
                v1 = hK if pattern[0] == s else aK
                v2 = hV if pattern[1] == s else aV
                factors.append(f.pair(outer(GRID, v1, v2)))
            total += F.lam[i, j] * factors[0] * factors[1] * factors[2]
    assert abs(total - F.form(f1, f2, f3)) < 1e-11


def test_full_paraproduct_coefficients_do_not_move_under_duals():
    # evaluating a variant against permuted inputs reproduces the base form
    # with the same coefficient table
    F = random_full_paraproduct(GRID, ZERO, (3, 3), np.random.default_rng(0))
    f1, f2, f3 = fns(19, 20, 21)
    F1 = FullParaproduct(GRID, ZERO, (1, 1), F.lam)
    assert abs(F.form(f1, f2, f3) - F1.form(f3, f2, f1)) < 1e-12
    F2 = FullParaproduct(GRID, ZERO, (2, 2), F.lam)
    assert abs(F.form(f1, f2, f3) - F2.form(f1, f3, f2)) < 1e-12


def test_full_paraproduct_form_is_per_sample_on_stacks():
    # a stack of inputs gives one value per sample, as for shifts and partial
    # paraproducts; the form once returned the sum over the samples
    rng = np.random.default_rng(12)
    F = random_full_paraproduct(GRID, ZERO, (1, 3), rng)
    stacks = [DiscreteFunction(GRID, rng.standard_normal((2,) + GRID.shape)) for _ in range(3)]
    for form in (F.form, F.absolute_form):
        got = form(*stacks)
        want = [form(*(DiscreteFunction(GRID, f.values[s]) for f in stacks)) for s in range(2)]
        assert np.shape(got) == (2,)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_full_paraproduct_normalized_report():
    F = random_full_paraproduct(GRID, ZERO, (3, 3), np.random.default_rng(8))
    rep = F.coefficient_report()
    assert rep.family_value <= 1.0 + 1e-9


# -- freeness probe ------------------------------------------------------------------

def density_probe(dens, grid, shift, partial=True):
    """The freeness probe read off an order-3 kernel density K[x, y, z]
    (x in slot 3, y in slot 1, z in slot 2, each a flattened product cell):
    the nine full marginals paired with the lattice's Haar rows, and the
    one-axis reductions; the dense reference the plan probe replaced."""
    n1, n2 = grid.shape
    vol1, vol2 = grid.axes[0].cell_volume, grid.axes[1].cell_volume
    R = dens.reshape(n1, n2, n1, n2, n1, n2)  # (x1,x2,y1,y2,z1,z2)
    slot_axes = {1: (2, 3), 2: (4, 5), 3: (0, 1)}
    haars1 = axis_ops(grid.axes[0], shift.shift1).haar
    haars2 = axis_ops(grid.axes[1], shift.shift2).haar
    full = {}
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            keep = (slot_axes[a][0], slot_axes[b][1])
            summed = R.sum(axis=tuple(sorted(set(range(6)) - set(keep)))) * vol1**2 * vol2**2
            if keep[0] > keep[1]:
                summed = summed.T
            full[(a, b)] = float(np.abs((haars1 * vol1) @ summed @ (haars2 * vol2).T).max())
    out = {"full": full, "max_full": max(full.values())}
    if partial:
        worst = 0.0
        for axis_idx, haars, vol in ((0, haars1, vol1), (1, haars2, vol2)):
            for a in (1, 2, 3):
                keep_axis = slot_axes[a][axis_idx]
                drop = [slot_axes[s][axis_idx] for s in (1, 2, 3) if s != a]
                summed = R.sum(axis=tuple(sorted(drop))) * vol**2
                kept_pos = keep_axis - sum(1 for d in drop if d < keep_axis)
                reduced = np.tensordot(haars * vol, summed, axes=([1], [kept_pos]))
                worst = max(worst, float(np.abs(reduced).max()))
        out["max_partial"] = worst
    return out


def _assert_probe_matches_oracle(U):
    # every full dual and the partial probe, within 1e-12 of the larger of 1
    # and the largest oracle entry
    got, want = paraproduct_freeness_probe(U), density_probe(U.kernel_density(), U.grid, U.shift)
    tol = 1e-12 * max(1.0, want["max_full"], want["max_partial"])
    assert set(got["full"]) == set(want["full"]) == set(ALL_PATTERNS)
    for key in ALL_PATTERNS:
        assert abs(got["full"][key] - want["full"][key]) <= tol, key
    assert abs(got["max_full"] - want["max_full"]) <= tol
    assert abs(got["max_partial"] - want["max_partial"]) <= tol


def _random_operator(family, grid, om, rng):
    """A random operator of `family` whose complexities fit the grid."""
    k, v = (tuple(int(d) for d in rng.integers(0, 2, 3)) for _ in range(2))
    p1, p2 = (int(p) for p in rng.integers(1, 4, 2))
    if family == "shift":
        return random_shift_operator(grid, om, k, v, (p1, p2), rng)
    if family == "partial":
        return random_partial_paraproduct(grid, om, k, int(rng.integers(0, 2)), p1, p2, rng)
    return random_full_paraproduct(grid, om, (p1, p2), rng)


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["shift", "partial", "full"]), level=st.sampled_from([2, 3]),
       shifted=st.booleans(), seed=st.integers(0, 2**16))
def test_plan_probe_matches_density_oracle(family, level, shifted, seed):
    grid = TorusGrid.make(level)
    rng = np.random.default_rng(seed)
    om = sample_shift(grid, rng) if shifted else GridShift.zero(grid)
    _assert_probe_matches_oracle(_random_operator(family, grid, om, rng))


@pytest.mark.parametrize("family, shifted", [("shift", False), ("partial", True), ("full", True)])
def test_plan_probe_matches_density_oracle_level4(family, shifted):
    grid = TorusGrid.make(4)
    rng = np.random.default_rng(40)
    om = sample_shift(grid, rng) if shifted else GridShift.zero(grid)
    if family == "shift":
        U = random_shift_operator(grid, om, (0, 1, 0), (1, 0, 0), (2, 1), rng)
    else:
        U = _random_operator(family, grid, om, rng)
    _assert_probe_matches_oracle(U)


def test_probe_builds_no_kernel_density(monkeypatch):
    # the probe contracts through each operator's gather plan
    def refuse(self):
        raise AssertionError("the probe built a kernel density")

    rng = np.random.default_rng(41)
    ops = [random_shift_operator(GRID, ZERO, (1, 0, 0), (0, 1, 0), (2, 3), rng),
           random_partial_paraproduct(GRID, ZERO, (0, 1, 0), 1, 2, 3, rng),
           random_full_paraproduct(GRID, ZERO, (1, 2), rng)]
    for cls in (ShiftOperator, PartialParaproduct, FullParaproduct):
        monkeypatch.setattr(cls, "kernel_density", refuse)
    for U in ops:
        probe = paraproduct_freeness_probe(U)
        assert set(probe) == {"full", "max_full", "max_partial"}


def test_probe_zero_for_tensor_shift():
    S = random_shift_operator(GRID, ZERO, (1, 0, 1), (1, 1, 0), (2, 1), np.random.default_rng(3))
    probe = paraproduct_freeness_probe(S)
    assert probe["max_full"] < 1e-12
    assert probe["max_partial"] < 1e-12


def test_probe_detects_full_paraproduct():
    F = random_full_paraproduct(GRID, ZERO, (3, 3), np.random.default_rng(4))
    probe = paraproduct_freeness_probe(F, partial=False)
    assert abs(probe["full"][(3, 3)] - np.abs(F.lam).max()) < 1e-10
    assert probe["max_full"] > 1e-6
    assert "max_partial" not in probe


def test_probe_matches_brute_force_on_random_kernel():
    # the density oracle against the pairings evaluated one by one
    rng = np.random.default_rng(5)
    grid = TorusGrid.make(2)
    om = sample_shift(grid, rng)
    n1, n2 = grid.shape
    R = rng.standard_normal((n1 * n2,) * 3)
    probe = density_probe(R, grid, om)
    o1, o2 = axis_ops(grid.axes[0], om.shift1), axis_ops(grid.axes[1], om.shift2)
    vol1, vol2 = grid.axes[0].cell_volume, grid.axes[1].cell_volume

    def pairing(vecs, scale):
        return float(np.einsum("xyz,y,z,x->", R, *(v.ravel() for v in vecs))) * scale

    for a in (1, 2, 3):
        for b in (1, 2, 3):
            best = max(abs(pairing([np.outer(h1 if s == a else np.ones(n1), h2 if s == b else np.ones(n2))
                                    for s in (1, 2, 3)], (vol1 * vol2) ** 3))
                       for h1 in o1.haar for h2 in o2.haar)
            assert abs(best - probe["full"][(a, b)]) < 1e-10
    # the partial probe: a Haar row in slot a on one axis, constants in the
    # other slots there, and one cell per slot on the other axis
    worst = 0.0
    for a in (1, 2, 3):
        for cells in itertools.product(range(n2), repeat=3):
            for h in o1.haar:
                vecs = [np.outer(h if s == a else np.ones(n1), np.eye(n2)[c]) for s, c in zip((1, 2, 3), cells)]
                worst = max(worst, abs(pairing(vecs, vol1**3)))
        for cells in itertools.product(range(n1), repeat=3):
            for h in o2.haar:
                vecs = [np.outer(np.eye(n1)[c], h if s == a else np.ones(n2)) for s, c in zip((1, 2, 3), cells)]
                worst = max(worst, abs(pairing(vecs, vol2**3)))
    assert abs(worst - probe["max_partial"]) < 1e-10


# -- sparse domination ---------------------------------------------------------------

def test_sparse_domination_trivial_zero_lhs():
    ax = GRID.axes[0]
    b = np.zeros(ax.n_cells)
    g = np.ones(ax.n_cells)
    out = sparse_dominate_paraproduct(b, g, g, g, ax)
    assert out["lhs"] == 0.0


def test_sparse_domination_haar_symbol_direct_value():
    ax = GRID.axes[0]
    V0 = DyadicCube(ax, 1, (0,), AxisShift.zero(ax))
    b = axis_haar_vector(HaarFunction(V0, (1,)))
    ones = np.ones(ax.n_cells)
    g3 = np.random.default_rng(0).standard_normal(ax.n_cells)
    out = sparse_dominate_paraproduct(b, ones, ones, g3, ax)
    lhs_direct = abs((b * g3).sum() * ax.cell_volume)
    assert abs(out["lhs"] - lhs_direct) < 1e-12
    assert out["family"][0].level == 0  # top cube is always selected
    assert out["lhs"] <= 4.0 * out["rhs"] + 1e-12


def test_sparse_family_is_half_sparse():
    rng = np.random.default_rng(3)
    ax = GRID.axes[0]
    for _ in range(20):
        b, g1, g2, g3 = (rng.standard_normal(ax.n_cells) for _ in range(4))
        fam = sparse_dominate_paraproduct(b, g1, g2, g3, ax)["family"]
        # each selected cube owns at least half its measure after removing
        # selected strict descendants
        for q in fam:
            inner = sum(p.measure for p in fam if p is not q and q.contains(p))
            assert inner <= q.measure / 2 + 1e-12


def test_sparse_domination_monte_carlo_sweep():
    rng = np.random.default_rng(7)
    ax = GRID.axes[0]
    worst = 0.0
    for _ in range(300):
        b, g1, g2, g3 = (rng.standard_normal(ax.n_cells) for _ in range(4))
        out = sparse_dominate_paraproduct(b, g1, g2, g3, ax)
        if out["rhs"] > 0:
            worst = max(worst, out["ratio"])
    assert worst < 4.0  # frozen construction constant


# -- absolute-form check ----------------------------------------------------------------

def test_absolute_form_zero_operator():
    S = shift_from_map(GRID, ZERO, (0, 0, 0), (0, 0, 0), (3, 3), {})
    f1, f2, f3 = fns(1, 2, 3)
    assert dmo_absolute_form_check(S, f1, f2, f3, (2.0, 2.0, 1.0)) == 0.0


def test_absolute_form_single_key_hand_value():
    k = v = (0, 0, 0)
    key = ((0, 0), (0, 0))
    cap = ShiftOperator.cap(k, v, 0, 0)
    S = shift_from_map(GRID, ZERO, k, v, (3, 3), {key: np.full((1,) * 6, cap)})
    f1, f2, f3 = fns(4, 5, 6)
    got = S.absolute_form(f1, f2, f3)
    want = abs(S.form(f1, f2, f3))
    assert abs(got - want) < 1e-12


def test_absolute_form_ratio_stable_under_refinement():
    rats = []
    for L in (2, 3):
        grid = TorusGrid.make(L)
        om = GridShift.zero(grid)
        S = random_shift_operator(grid, om, (0, 0, 0), (0, 0, 0), (3, 3), np.random.default_rng(1))
        f1, f2, f3 = (grid.random(np.random.default_rng(s)) for s in (1, 2, 3))
        rats.append(dmo_absolute_form_check(S, f1, f2, f3, (2.0, 2.0, 1.0)))
    assert rats[1] < 10.0 * (1.0 + rats[0])


def test_partial_paraproduct_duals_reproduce_form():
    P = random_partial_paraproduct(GRID, ZERO, (1, 0, 0), h0_slot=3, ptype=3,
                                   rng=np.random.default_rng(21))
    f1, f2, f3 = fns(24, 25, 26)
    base = P.form(f1, f2, f3)
    assert abs(P.dual(1).form(f3, f2, f1) - base) < 1e-12
    assert abs(P.dual(2).form(f1, f3, f2) - base) < 1e-12
