"""The three dyadic model operator families and one-parameter paraproducts.

Shifts and partial paraproducts are stored as a table of common-ancestor
keys plus the coefficient blocks or symbol profiles stacked in key order,
full paraproducts as one coefficient array, with the normalisations
enforced at build time: shift coefficients are capped by
(|I1||I2||I3|)^(1/2)/|K|^2 * (|J1||J2||J3|)^(1/2)/|V|^2, partial-paraproduct
symbols by the same one-axis cap in BMO, and full-paraproduct coefficient
families by their rectangle-square-sum oscillation report.

Coefficient keys are cube-indexed, which pins the factors to one dimension
per parameter (Haar signatures would otherwise enter the keys).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    Axis,
    AxisShift,
    DiscreteFunction,
    GridShift,
    TorusGrid,
    cell_tables,
    cube_masks,
    haar_rows,
    level_rows,
    per_sample,
    profile_plan,
    rect_table,
)
from .measures import sequence_product_bmo

__all__ = [
    "AxisOps",
    "axis_ops",
    "ShiftOperator",
    "PartialParaproduct",
    "FullParaproduct",
    "one_param_paraproduct",
    "one_param_paraproduct_form",
    "axis_profile_bmo",
    "sparse_dominate_paraproduct",
    "dmo_absolute_form_check",
    "paraproduct_freeness_probe",
    "random_shift_operator",
    "random_partial_paraproduct",
    "random_full_paraproduct",
    "NormalizationError",
]


class NormalizationError(ValueError):
    """A coefficient exceeds its structural cap."""


# ---------------------------------------------------------------------------
# cached per-axis lattice operators
# ---------------------------------------------------------------------------

class AxisOps:
    """Pairing matrices and index bookkeeping for one shifted axis lattice.

    Row conventions: `haar` rows are cancellative Haar profiles (levels
    0..L-1, `haar_rows` below its top row), `unit` rows are the normalised
    indicators |I|^(-1/2) 1_I (levels 0..L; `scale` holds |I|^(-1/2)), `avg`
    rows are the plain averaging profiles 1_I/|I|, and `canc_avg` their first
    rows, those of the cancellative cubes; `paired[kind]` is scaled by the
    cell volume, so that a product with it integrates.  Below level L a
    cube's Haar row and its cube row have the same index.  Restricted to
    one-dimensional factors.
    """

    def __init__(self, axis: Axis, shift: AxisShift):
        if axis.dim != 1:
            raise NotImplementedError("model operators are built on 1-d factors")
        self.axis = axis
        self.shift = shift
        L = axis.levels
        self.canc_offset = np.cumsum([0] + [1 << l for l in range(L)])
        self.cube_offset = np.cumsum([0] + [1 << l for l in range(L + 1)])
        self.offsets = np.array([shift.offset_cells(l)[0] for l in range(L + 1)])
        self.haar = haar_rows(axis, shift)[1:]
        # as `DyadicCube.measure` ** -0.5 computes it, level by level
        self.scale = np.repeat([(2.0 ** -l) ** -0.5 for l in range(L + 1)], np.diff(self.cube_offset))
        self.unit = cube_masks(axis, shift) * self.scale[:, None]
        # avg rows are plain averaging profiles 1_I/|I| = |I|^(-1/2) unit rows
        self.avg = self.unit * self.scale[:, None]
        self.canc_avg = self.avg[: len(self.haar)]
        self._rows = {"haar": self.haar, "unit": self.unit, "avg": self.avg, "canc_avg": self.canc_avg}
        self.paired = {kind: rows * axis.cell_volume for kind, rows in self._rows.items()}

    # -- index helpers -------------------------------------------------------
    def canc_index(self, level: int, pos: int) -> int:
        return int(self.canc_offset[level]) + pos

    def cube_index(self, level: int, pos: int) -> int:
        return int(self.cube_offset[level]) + pos

    def _first_descendant(self, level, pos, depth):
        level, pos = np.asarray(level), np.asarray(pos)
        L, n = self.axis.levels, self.axis.n_side
        start = (pos << (L - level)) + self.offsets[level]
        return ((start - self.offsets[level + depth]) % n) >> (L - level - depth)

    def descendant_positions(self, level, pos, depth: int) -> np.ndarray:
        """Positions of the depth-`depth` descendants, in spatial order; with
        arrays of levels and positions, one row per cube."""
        q0 = self._first_descendant(level, pos, depth)
        return (q0[..., None] + np.arange(1 << depth)) % (1 << (np.asarray(level) + depth))[..., None]

    def descendant_index(self, level, pos, depth, child):
        """Index of the descendant at position `child`, `depth` levels below,
        in the spatial order of `descendant_positions`; arrays broadcast."""
        q0 = self._first_descendant(level, pos, depth)
        return (np.asarray(child) - q0) % (1 << (np.asarray(level) + depth))

    @cached_property
    def _descendants(self) -> list[np.ndarray]:
        """Per depth d, the rows of the depth-d descendants of every cube of
        levels 0..L-d in spatial order, one row per cube; built on first use."""
        L, off = self.axis.levels, self.cube_offset
        level = np.repeat(np.arange(L), 1 << np.arange(L))
        children = off[level + 1, None] + self.descendant_positions(level, np.arange(len(level)) - off[level], 1)
        table = [np.arange(off[-1])[:, None]]
        for d in range(1, L + 1):
            table.append(children[table[-1][: off[L - d + 1]]].reshape(off[L - d + 1], -1))
        return table

    def descendant_rows(self, level, pos, depth: int) -> np.ndarray:
        """Rows holding the depth-`depth` descendants of each cube, in
        spatial order (one row per cube); a cube's Haar and unit rows share
        their index."""
        return self._descendants[depth][self.cube_offset[level] + pos]

    def rows(self, kind: str) -> np.ndarray:
        return self._rows[kind]


@lru_cache(maxsize=256)
def axis_ops(axis: Axis, shift: AxisShift) -> AxisOps:
    return AxisOps(axis, shift)


def row_pair(grid: TorusGrid, shift: GridShift, kinds: tuple[str, str], paired: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The rows of kinds[0] on axis 1 and of kinds[1] on axis 2 (names as in
    `AxisOps.rows`); with `paired`, scaled by the cell volume."""
    shifts = (shift.shift1, shift.shift2)
    return tuple((o.paired if paired else o._rows)[k]
                 for o, k in zip(map(axis_ops, grid.axes, shifts), kinds))


def pairing_table(g: DiscreteFunction, rows: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """<g, phi1 x phi2> for every row phi1 of rows[0] (axis 1) and phi2 of rows[1]
    (axis 2), both scaled by the cell volume; a stack gives one table per sample."""
    return rows[0] @ g.values @ rows[1].T


def _pairing_rows(op) -> tuple:
    """Per slot of a model operator, its `_slot_rows` scaled by the cell volume."""
    o1, o2 = map(axis_ops, op.grid.axes, (op.shift.shift1, op.shift.shift2))
    return tuple((o1.paired[k1], o2.paired[k2]) for k1, k2 in map(op._slot_rows, (1, 2, 3)))


def slot_tables(op, fs) -> list[np.ndarray]:
    """Per slot s of a model operator, the pairing table of fs[s-1] (a
    function or a stack) over the rows the operator pairs slot s with."""
    return [pairing_table(f, rows) for f, rows in zip(fs, op._pairing_rows)]


def axis_profile_bmo(vec: np.ndarray, axis: Axis, over_all_shifts: bool = True) -> float | np.ndarray:
    """One-parameter BMO norm of an axis profile; by default the sup runs over
    the lattices of every shift (the torus stand-in for all intervals), whose
    cubes are all wrapped windows of dyadic widths.  Rows (S, n) of profiles
    give one norm per row."""
    plan = profile_plan(axis, None if over_all_shifts else AxisShift.zero(axis))
    return per_sample(plan.oscillations(np.asarray(vec, dtype=float)[..., None]).max(axis=-1))


class _Plan(NamedTuple):
    """Gather plan of a shift or partial paraproduct: the coefficients
    stacked along a leading key axis, and per slot the row indices of every
    key into that slot's AxisOps rows (one array per factor with a shift
    structure)."""

    coeffs: np.ndarray
    rows: tuple[tuple[np.ndarray, ...], ...]

    @classmethod
    def frozen(cls, coeffs: np.ndarray, rows: tuple) -> "_Plan":
        for a in (coeffs, *itertools.chain.from_iterable(rows)):
            a.setflags(write=False)
        return cls(coeffs, rows)


def _frozen_rows(a, dtype, row_shape: tuple[int, ...], what: str) -> np.ndarray:
    """A read-only C-ordered copy of `a`, one row of shape `row_shape` per
    key (no rows may also come as an empty list)."""
    a = np.array(a, dtype=dtype, order="C")
    if a.size == 0:
        a = a.reshape((0,) + row_shape)
    if a.shape[1:] != row_shape:
        raise ValueError(f"{what} have the wrong shape")
    a.setflags(write=False)
    return a


def _check_slots(what: str, slots: tuple) -> None:
    """Raise ValueError unless `slots` is a pair, each entry naming slot 1, 2
    or 3 of a trilinear form."""
    if len(slots) != 2 or not all(s in (1, 2, 3) for s in slots):
        raise ValueError(f"{what} {tuple(slots)!r} must be two of the slots 1, 2, 3")


_SLOTS = np.arange(1, 4)


def _check_keys(keys: np.ndarray, counts: np.ndarray, levels: np.ndarray, depths: np.ndarray, slots: np.ndarray,
                children: np.ndarray | None = None) -> np.ndarray:
    """Raise ValueError unless each key of a stack (`counts` keys per
    operator) holds per shift structure s a cube of an axis of levels[s]
    levels whose slot cubes (depths[op, s], averaged slot slots[op, s]) stay
    on it, then with `children` one child index per slot in [0, 2^depth);
    or if a key repeats within an operator.  Returns each key's operator."""
    if (depths < 0).any():
        raise ValueError("slot depths must be nonnegative")
    owner = np.repeat(np.arange(len(counts)), counts)
    # cancellative slots need children, the averaged one only the cube itself
    tops = (levels - 1 - (depths - (slots[..., None] == _SLOTS)).max(axis=-1))[owner]
    n, u = 2 * len(levels), keys.view(np.uint64)  # negative entries read as huge ones
    if ((u[:, 0:n:2] > tops).any() or (u[:, 1:n:2] >> u[:, 0:n:2]).any()
            or children is not None and (u[:, n:] >> children[owner].astype(np.uint64)).any()):
        raise ValueError("a key names a cube outside the lattice, or slot cubes below its resolution")
    if len(set(zip(owner.tolist(), map(tuple, keys.tolist())))) < len(keys):
        raise ValueError("a key repeats")
    return owner


@lru_cache(maxsize=256)
def _axis_caps(depth: int) -> np.ndarray:
    # every level whose positions fit in an int64
    return np.array([2.0 ** (-(3 * level + depth) / 2.0) * 2.0 ** (2 * level) for level in range(64)])


@lru_cache(maxsize=16)
def _cap_table(depth: int) -> np.ndarray:
    """Entry [d, l]: `axis_cap` at total slot depth d <= `depth` and level l."""
    return np.stack([_axis_caps(d) for d in range(depth + 1)])


def axis_cap(depths, levels) -> np.ndarray:
    """(|I1||I2||I3|)^(1/2)/|K|^2 for cubes K at `levels` (an int or an
    array) with slot cubes depths[..., s] levels below K (three depths, or
    an array with a row of them per level): one axis's factor of the shift
    cap, and the partial-paraproduct cap.  The formula runs per level in
    Python floats, so a cap has the same bits in any array."""
    if not isinstance(depths, np.ndarray):
        return _axis_caps(int(sum(depths)))[levels]
    total = depths.sum(axis=-1)
    return _cap_table(int(total.max()))[total, levels]


def _check_shifts(grid: TorusGrid, heads: list[tuple], keys: np.ndarray, blocks: np.ndarray) -> None:
    """Validate shifts on `grid` in one pass: heads holds each one's (k, v,
    pattern, key count), keys and blocks (raveled) theirs one after another."""
    for *_, pattern, _ in heads:
        _check_slots("pattern", pattern)
    h = np.array([(*k, *v, *pattern, n) for k, v, pattern, n in heads], dtype=np.int64).reshape(-1, 9)
    depths, counts = h[:, :6].reshape(-1, 2, 3), h[:, 8]
    total = depths.sum(axis=-1)  # per operator and axis
    size = 1 << total.sum(axis=1)
    if len(keys) != counts.sum() or len(blocks) != counts @ size:
        raise ValueError("one coefficient block per key")
    owner = _check_keys(keys, counts, np.array([ax.levels for ax in grid.axes]), depths, h[:, 6:8])
    if len(keys):
        starts = np.cumsum(size[owner]) - size[owner]
        # each block's largest |coefficient|, without an |blocks| copy
        peaks = np.maximum(np.maximum.reduceat(blocks, starts), -np.minimum.reduceat(blocks, starts))
        caps = _cap_table(int(total.max()))[total[owner], keys[:, 0:3:2]]
        if (peaks > caps[:, 0] * caps[:, 1] * (1 + 1e-9)).any():
            raise NormalizationError("shift coefficient exceeds the size cap")


def _check_partials(grid: TorusGrid, shift_axis: int, heads: list[tuple], keys: np.ndarray,
                    profiles: np.ndarray) -> None:
    """Validate partial paraproducts on `grid`, shift structure on axis
    `shift_axis`, in one pass and one BMO call: heads holds each one's (k,
    h0_slot, ptype, key count), keys and profiles theirs one after another."""
    if shift_axis not in (0, 1):
        raise ValueError(f"shift_axis {shift_axis!r} must be 0 or 1")
    for _, *slots, _ in heads:
        _check_slots("h0_slot and ptype", slots)
    h = np.array([(*k, h0, pt, n) for k, h0, pt, n in heads], dtype=np.int64).reshape(-1, 6)
    if len(keys) != h[:, 5].sum() or len(profiles) != len(keys):
        raise ValueError("one symbol profile per key")
    owner = _check_keys(keys, h[:, 5], np.array([grid.axes[shift_axis].levels]), h[:, None, :3], h[:, 3:4], h[:, :3])
    if len(keys) and (axis_profile_bmo(profiles, grid.axes[1 - shift_axis])
                      > axis_cap(h[owner, :3], keys[:, 0]) * (1 + 1e-9)).any():
        raise NormalizationError("partial paraproduct symbol exceeds the BMO cap")


def _members(cls, fields: list[dict], shapes: list[tuple], keys: np.ndarray, values: np.ndarray, name: str) -> list:
    """The operators of a validated batch, past the constructor: each with
    its fields and read-only views of its keys and (as `name`) its values."""
    ops, at, flat, raveled = [], 0, 0, values.reshape(-1)
    for a in (keys, values, raveled):
        a.setflags(write=False)
    for f, shape in zip(fields, shapes):
        ops.append(object.__new__(cls))
        ops[-1].__dict__.update(f, keys=keys[at:at + shape[0]], **{name: raveled[flat:flat + math.prod(shape)].reshape(shape)})
        at, flat = at + shape[0], flat + math.prod(shape)
    return ops


# ---------------------------------------------------------------------------
# bilinear bi-parameter shifts
# ---------------------------------------------------------------------------

@dataclass
class ShiftOperator:
    """Shift of complexity (k, v) with the non-cancellative slot per axis
    given by `pattern` (one of the nine types).

    keys holds a row (K level, K position, V level, V position) per block,
    blocks the blocks in key order, shape (keys, 2^k1, 2^k2, 2^k3, 2^v1,
    2^v2, 2^v3), each indexed by descendant order; both are read-only
    copies.  The first evaluation caches the keys' row indices.
    """

    grid: TorusGrid
    shift: GridShift
    k: tuple[int, int, int]
    v: tuple[int, int, int]
    pattern: tuple[int, int]
    keys: np.ndarray
    blocks: np.ndarray

    def __post_init__(self):
        self.keys = _frozen_rows(self.keys, np.int64, (4,), "keys")
        self.blocks = _frozen_rows(self.blocks, float, tuple(1 << d for d in self.k + self.v), "blocks")
        # the batch validation, on a batch of this operator alone
        _check_shifts(self.grid, [(self.k, self.v, self.pattern, len(self.keys))], self.keys, self.blocks.ravel())

    @staticmethod
    def batch(grid: TorusGrid, shift: GridShift, heads: list[tuple], keys: np.ndarray,
              blocks: np.ndarray) -> list["ShiftOperator"]:
        """Shifts on one grid and lattice, validated in one pass: heads holds
        each one's (k, v, pattern, key count), keys (int64) and blocks (1-d)
        theirs in turn; the arrays are made read-only and shared as views."""
        _check_shifts(grid, heads, keys, blocks)
        return _members(ShiftOperator, [dict(grid=grid, shift=shift, k=k, v=v, pattern=p) for k, v, p, _ in heads],
                        [(n,) + tuple(1 << d for d in k + v) for k, v, _, n in heads], keys, blocks, "blocks")

    # -- structural cap -------------------------------------------------------
    @staticmethod
    def cap(k: tuple[int, int, int], v: tuple[int, int, int], k_levels, v_levels) -> np.ndarray:
        """The size cap (|I1||I2||I3|)^(1/2)/|K|^2 * (|J1||J2||J3|)^(1/2)/|V|^2
        at K levels `k_levels` and V levels `v_levels` (ints or arrays)."""
        return axis_cap(k, k_levels) * axis_cap(v, v_levels)

    # -- evaluation -----------------------------------------------------------
    def _slot_rows(self, slot: int) -> tuple[str, str]:
        """The rows slot `slot` pairs with on each axis: unit rows in the
        averaged slot, Haar rows in the others."""
        return tuple("unit" if p == slot else "haar" for p in self.pattern)

    @cached_property
    def _plan(self) -> _Plan:
        """Built on the first evaluation: the blocks, and rows[s] with each
        key's (2^k, 2^v) slot-s row indices."""
        o1 = axis_ops(self.grid.axes[0], self.shift.shift1)
        o2 = axis_ops(self.grid.axes[1], self.shift.shift2)
        keys = self.keys.T
        rows = tuple((o1.descendant_rows(keys[0], keys[1], k), o2.descendant_rows(keys[2], keys[3], v))
                     for k, v in zip(self.k, self.v))
        return _Plan.frozen(self.blocks, rows)

    def _gather(self, tables) -> list[np.ndarray]:
        """Per slot, the (keys, 2^k, 2^v) entries of its table (over its
        `_slot_rows`) that the keys pair with: one gather each."""
        return [t[..., i1[:, :, None], i2[:, None, :]] for t, (i1, i2) in zip(tables, self._plan.rows)]

    _pairing_rows = cached_property(_pairing_rows)

    def _contract(self, tables, absolute: bool) -> float | np.ndarray:
        """The form with slot s read off tables[s-1] (stacks of tables give
        one value per sample): the coefficients contracted with the gathered
        entries, all in absolute value when `absolute`."""
        c, us = self._plan.coeffs, self._gather(tables)
        if absolute:
            c, us = np.abs(c), [np.abs(u) for u in us]
        return per_sample(np.einsum("nabcdef,...nad,...nbe,...ncf->...", c, *us))

    def form(self, f1: DiscreteFunction, f2: DiscreteFunction, f3: DiscreteFunction) -> float | np.ndarray:
        """The trilinear form; stacks of functions give one value per sample."""
        return self._contract(slot_tables(self, (f1, f2, f3)), False)

    def absolute_form(self, f1, f2, f3) -> float | np.ndarray:
        return self._contract(slot_tables(self, (f1, f2, f3)), True)

    def apply(self, f1: DiscreteFunction, f2: DiscreteFunction) -> DiscreteFunction:
        """U(f1, f2); stacks of functions give one output per sample."""
        u1, u2 = self._gather(slot_tables(self, (f1, f2)))
        w3 = np.einsum("nabcdef,...nad,...nbe->...ncf", self._plan.coeffs, u1, u2)
        r1, r2 = row_pair(self.grid, self.shift, self._slot_rows(3))
        i1, i2 = self._plan.rows[2]
        # sum over keys and slot-3 cubes of w3 times the gathered row pairs
        t = w3 @ r2[i2]  # (..., keys, 2^k3, n2)
        a = r1[i1].reshape(-1, r1.shape[1])  # (keys * 2^k3, n1)
        return DiscreteFunction(self.grid, a.T @ t.reshape(t.shape[:-3] + (-1, t.shape[-1])))

    def kernel_density(self) -> np.ndarray:
        """Order-3 kernel K[x, y, z] over flattened product cells realising
        the trilinear form as an exact integral."""
        blocks, rows = self._plan
        (a1, a2), (b1, b2), (c1, c2) = (
            tuple(r[i] for r, i in zip(row_pair(self.grid, self.shift, self._slot_rows(s + 1)), rows[s]))
            for s in range(3)
        )
        n1, n2 = self.grid.shape
        N, K = len(blocks), a1.shape[1] * b1.shape[1] * c1.shape[1]
        # per key, the slot rows of each axis as one (slot indices, x y z cells) matrix
        m1 = np.einsum("naY,nbZ,ncX->nabcXYZ", a1, b1, c1).reshape(N * K, n1**3)
        m2 = np.einsum("ndQ,neR,nfP->ndefPQR", a2, b2, c2).reshape(N, -1, n2**3)
        dens = m1.T @ (blocks.reshape(N, K, -1) @ m2).reshape(N * K, n2**3)
        C = n1 * n2
        return dens.reshape((n1,) * 3 + (n2,) * 3).transpose(0, 3, 1, 4, 2, 5).reshape(C, C, C)

    # -- duals ------------------------------------------------------------------
    def dual(self, swap1: int | None = None, swap2: int | None = None) -> "ShiftOperator":
        """Transpose slot `swap` with slot 3, per axis independently.

        swap=1 realises the first-function adjoint on that axis, swap=2 the
        second; None leaves the axis alone.  Trilinear forms are preserved
        under permuting the corresponding inputs.
        """
        perm1 = _slot_permutation(swap1)
        perm2 = _slot_permutation(swap2)
        k = tuple(self.k[perm1[i]] for i in range(3))
        v = tuple(self.v[perm2[i]] for i in range(3))
        p1 = _permute_pattern(self.pattern[0], perm1)
        p2 = _permute_pattern(self.pattern[1], perm2)
        axes = (0,) + tuple(1 + perm1[i] for i in range(3)) + tuple(4 + perm2[i] for i in range(3))
        return ShiftOperator(self.grid, self.shift, k, v, (p1, p2), self.keys, np.transpose(self.blocks, axes))

    # -- serialization ------------------------------------------------------------
    def to_payload(self) -> dict:
        return {
            "family": "shift",
            "pattern": list(self.pattern),
            "k": list(self.k),
            "v": list(self.v),
            "grid": _grid_payload(self.grid),
            "shift": _shift_payload(self.shift),
            "records": _records(self.keys, self.blocks, "block"),
        }

    @staticmethod
    def from_payload(payload: dict) -> "ShiftOperator":
        grid = _grid_from_payload(payload["grid"])
        om = _shift_from_payload(payload["shift"], grid)
        k, v = tuple(payload["k"]), tuple(payload["v"])
        keys, blocks = _record_rows(payload["records"], "block")
        return ShiftOperator(grid, om, k, v, tuple(payload["pattern"]), keys,
                             np.reshape(blocks, (len(blocks),) + tuple(1 << d for d in k + v)))


def _slot_permutation(swap: int | None) -> tuple[int, int, int]:
    if swap is None:
        return (0, 1, 2)
    if swap == 1:
        return (2, 1, 0)
    if swap == 2:
        return (0, 2, 1)
    raise ValueError("swap must be 1, 2 or None")


def _permute_pattern(o: int, perm: tuple[int, int, int]) -> int:
    # slot s of the dual reads slot perm[s-1]+1 of the original
    inv = perm.index(o - 1)
    return inv + 1


# ---------------------------------------------------------------------------
# one-parameter bilinear paraproducts
# ---------------------------------------------------------------------------

def _check_ptype(ptype: int) -> None:
    if ptype not in (1, 2, 3):
        raise ValueError(f"ptype {ptype!r} must be the slot 1, 2 or 3")


def one_param_paraproduct_form(
    b: np.ndarray,
    g1: np.ndarray,
    g2: np.ndarray,
    g3: np.ndarray,
    ops: AxisOps,
    ptype: int = 3,
) -> float:
    """Trilinear form of the one-parameter bilinear paraproduct.

    ptype names the slot paired with the Haar function; the other two slots
    take plain averages.  Rows (S, n) of inputs give one value per row.
    """
    _check_ptype(ptype)
    haar, avg = ops.paired["haar"].T, ops.paired["canc_avg"].T
    total = np.asarray(b, dtype=float) @ haar
    for slot, g in enumerate((g1, g2, g3), start=1):
        total = total * (np.asarray(g) @ (haar if ptype == slot else avg))
    return per_sample(total.sum(axis=-1))


def one_param_paraproduct(
    b: np.ndarray,
    g1: np.ndarray,
    g2: np.ndarray,
    ops: AxisOps,
    ptype: int = 3,
) -> np.ndarray:
    """Apply the paraproduct; the third slot of the form is left free."""
    _check_ptype(ptype)
    h, a = ops.paired["haar"], ops.paired["canc_avg"]
    w = h @ np.asarray(b, dtype=float) * ((h if ptype == 1 else a) @ np.asarray(g1)) \
        * ((a if ptype in (1, 3) else h) @ np.asarray(g2))
    return w @ (ops.haar if ptype == 3 else ops.canc_avg)


# ---------------------------------------------------------------------------
# partial paraproducts
# ---------------------------------------------------------------------------

@dataclass
class PartialParaproduct:
    """Shift structure on one axis, paraproduct structure on the other.

    keys holds a row (K level, K position, i1, i2, i3) per symbol, where
    i1..i3 index descendants of K at depths k1..k3, profiles the symbols in
    key order, each over the paraproduct axis cells; both are read-only
    copies.  The non-cancellative slot of the shift axis is `h0_slot`; the
    paraproduct pairs slot `ptype` with the Haar function.  The first
    evaluation caches the keys' row indices.
    """

    grid: TorusGrid
    shift: GridShift
    shift_axis: int
    k: tuple[int, int, int]
    h0_slot: int
    ptype: int
    keys: np.ndarray
    profiles: np.ndarray

    def __post_init__(self):
        if self.shift_axis not in (0, 1):
            raise ValueError(f"shift_axis {self.shift_axis!r} must be 0 or 1")
        self.keys = _frozen_rows(self.keys, np.int64, (5,), "keys")
        self.profiles = _frozen_rows(self.profiles, float, (self.grid.axes[self.para_axis].n_cells,), "profiles")
        # the batch validation, on a batch of this operator alone
        _check_partials(self.grid, self.shift_axis, [(self.k, self.h0_slot, self.ptype, len(self.keys))],
                        self.keys, self.profiles)

    @staticmethod
    def batch(grid: TorusGrid, shift: GridShift, shift_axis: int, heads: list[tuple], keys: np.ndarray,
              profiles: np.ndarray) -> list["PartialParaproduct"]:
        """Partial paraproducts on one grid and lattice, validated in one
        pass, as in `ShiftOperator.batch`; heads are (k, h0_slot, ptype, key count)."""
        _check_partials(grid, shift_axis, heads, keys, profiles)
        return _members(PartialParaproduct, [dict(grid=grid, shift=shift, shift_axis=shift_axis, k=k, h0_slot=h0,
                                                  ptype=pt) for k, h0, pt, _ in heads],
                        [(n, profiles.shape[1]) for *_, n in heads], keys, profiles, "profiles")

    @property
    def para_axis(self) -> int:
        return 1 - self.shift_axis

    cap = staticmethod(axis_cap)  # the BMO cap of a symbol: (k, K levels)

    def _ops(self) -> tuple[AxisOps, AxisOps]:
        s = (self.shift.shift1, self.shift.shift2)
        return (
            axis_ops(self.grid.axes[self.shift_axis], s[self.shift_axis]),
            axis_ops(self.grid.axes[self.para_axis], s[self.para_axis]),
        )

    def _slot_rows(self, slot: int) -> tuple[str, str]:
        """The rows slot `slot` pairs with, in grid axis order: on the shift
        axis unit rows in slot h0_slot and Haar rows in the others, on the
        paraproduct axis Haar rows in slot ptype and the averaging rows of the
        cancellative cubes in the others."""
        kinds = ("unit" if slot == self.h0_slot else "haar", "haar" if slot == self.ptype else "canc_avg")
        return kinds if self.shift_axis == 0 else kinds[::-1]

    @cached_property
    def _plan(self) -> _Plan:
        """Built on the first evaluation: coeffs holds each symbol's Haar
        coefficients and rows[s] each key's slot-s row on the shift axis."""
        sops, pops = self._ops()
        coeffs = self.profiles @ pops.paired["haar"].T
        # K level, K position, then the descendant index of each slot
        keys = self.keys.T
        rows = tuple(
            (sops.descendant_rows(keys[0], keys[1], self.k[s - 1])[
                np.arange(len(self.keys)), keys[1 + s]],)
            for s in (1, 2, 3)
        )
        return _Plan.frozen(coeffs, rows)

    def _split_rows(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """Slot `slot`'s rows of every key on the shift axis, and its rows on
        the paraproduct axis."""
        kinds, (sops, pops) = self._slot_rows(slot), self._ops()
        key_rows = self._plan.rows[slot - 1][0]
        return sops.rows(kinds[self.shift_axis])[key_rows], pops.rows(kinds[self.para_axis])

    def _gather(self, tables) -> list[np.ndarray]:
        """Per slot, the (keys, paraproduct cubes) entries of its table (over
        its `_slot_rows`) that the keys pair with: each key's shift-axis row
        against every paraproduct-axis row."""
        return [(t if self.shift_axis == 0 else np.swapaxes(t, -1, -2))[..., rows, :]
                for t, (rows,) in zip(tables, self._plan.rows)]

    _pairing_rows = cached_property(_pairing_rows)

    def _contract(self, tables, absolute: bool) -> float | np.ndarray:
        """The form with slot s read off tables[s-1] (stacks of tables give
        one value per sample): the symbol coefficients contracted with the
        gathered entries, all in absolute value when `absolute`."""
        c, gs = self._plan.coeffs, self._gather(tables)
        if absolute:
            c, gs = np.abs(c), [np.abs(g) for g in gs]
        return per_sample(np.einsum("nv,...nv,...nv,...nv->...", c, *gs))

    def form(self, f1, f2, f3) -> float | np.ndarray:
        """The trilinear form; stacks of functions give one value per sample."""
        return self._contract(slot_tables(self, (f1, f2, f3)), False)

    def absolute_form(self, f1, f2, f3) -> float | np.ndarray:
        return self._contract(slot_tables(self, (f1, f2, f3)), True)

    def apply(self, f1, f2) -> DiscreteFunction:
        """U(f1, f2); stacks of functions give one output per sample."""
        g1, g2 = self._gather(slot_tables(self, (f1, f2)))
        # sum over keys of each key's slot-3 row times its paraproduct profile
        rows3, para3 = self._split_rows(3)
        out = rows3.T @ (self._plan.coeffs * g1 * g2) @ para3
        return DiscreteFunction(self.grid, out if self.shift_axis == 0 else np.swapaxes(out, -1, -2))

    def kernel_density(self) -> np.ndarray:
        sops, pops = self._ops()
        coeffs = self._plan.coeffs
        na, nb = sops.axis.n_cells, pops.axis.n_cells
        (s1, p1), (s2, p2), (s3, p3) = (self._split_rows(s) for s in (1, 2, 3))
        # shift-axis density per paraproduct cube, then the sum over those cubes
        sdens = np.einsum("nv,nX,nY,nZ->vXYZ", coeffs, s3, s1, s2).reshape(len(p1), -1)
        pdens = np.einsum("vP,vQ,vR->vPQR", p3, p1, p2).reshape(len(p1), -1)
        dens = (sdens.T @ pdens).reshape((na,) * 3 + (nb,) * 3).transpose(0, 3, 1, 4, 2, 5)
        if self.shift_axis == 1:
            dens = dens.transpose(1, 0, 3, 2, 5, 4)
        C = self.grid.shape[0] * self.grid.shape[1]
        return dens.reshape(C, C, C)

    def dual(self, swap: int) -> "PartialParaproduct":
        """Transpose slot `swap` with slot 3 on both structures at once (the
        trilinear form is preserved under permuting the matching inputs)."""
        perm = _slot_permutation(swap)
        k = tuple(self.k[perm[i]] for i in range(3))
        h0 = _permute_pattern(self.h0_slot, perm)
        pt = _permute_pattern(self.ptype, perm)
        keys = self.keys[:, [0, 1, 2 + perm[0], 2 + perm[1], 2 + perm[2]]]
        return PartialParaproduct(self.grid, self.shift, self.shift_axis, k, h0, pt, keys, self.profiles)

    def to_payload(self) -> dict:
        return {
            "family": "partial",
            "shift_axis": self.shift_axis,
            "k": list(self.k),
            "h0_slot": self.h0_slot,
            "ptype": self.ptype,
            "grid": _grid_payload(self.grid),
            "shift": _shift_payload(self.shift),
            "records": _records(self.keys, self.profiles, "profile"),
        }

    @staticmethod
    def from_payload(payload: dict) -> "PartialParaproduct":
        grid = _grid_from_payload(payload["grid"])
        om = _shift_from_payload(payload["shift"], grid)
        return PartialParaproduct(grid, om, payload["shift_axis"], tuple(payload["k"]), payload["h0_slot"],
                                  payload["ptype"], *_record_rows(payload["records"], "profile"))


# ---------------------------------------------------------------------------
# full paraproducts
# ---------------------------------------------------------------------------

@dataclass
class FullParaproduct:
    """Coefficients lam over rectangle keys with averages in all slots except
    the Haar-paired one per axis (`pattern`); the coefficients never move."""

    grid: TorusGrid
    shift: GridShift
    pattern: tuple[int, int]
    lam: np.ndarray  # (n_canc_axis1, n_canc_axis2)

    def __post_init__(self):
        _check_slots("pattern", self.pattern)
        if self.lam.shape != tuple(map(len, row_pair(self.grid, self.shift, ("haar", "haar")))):
            raise ValueError("coefficient table must cover all cancellative rectangles")

    @staticmethod
    def from_symbol(b: DiscreteFunction, shift: GridShift, pattern: tuple[int, int] = (3, 3)) -> "FullParaproduct":
        lam = pairing_table(b, row_pair(b.grid, shift, ("haar", "haar"), paired=True))
        return FullParaproduct(b.grid, shift, pattern, lam)

    @staticmethod
    def coefficient_reports(grid: TorusGrid, shift: GridShift, lams: np.ndarray) -> list:
        """The product-oscillation report of each table of lams (S, n_canc1,
        n_canc2) on shift's lattice, in one search."""
        # the cancellative cubes come first in each factor's cube order
        n, n1, n2 = lams.shape
        ids = rect_table(grid, shift).ids(np.arange(n1), np.arange(n2))
        return sequence_product_bmo(grid, ids, lams.reshape(n, -1), shift)

    def coefficient_report(self):
        return self.coefficient_reports(self.grid, self.shift, self.lam[None])[0]

    def _slot_rows(self, slot: int) -> tuple[str, str]:
        """The rows slot `slot` pairs with on each axis: Haar rows in the
        pattern's slot, the averaging rows of the cancellative cubes in the
        others.  Both are indexed by the cancellative cubes, as lam is."""
        return tuple("haar" if p == slot else "canc_avg" for p in self.pattern)

    _pairing_rows = cached_property(_pairing_rows)

    def _contract(self, tables, absolute: bool) -> float | np.ndarray:
        """The form with slot s read off tables[s-1] (stacks of tables give
        one value per sample), all in absolute value when `absolute`; the
        keys are every cancellative cube pair, so the tables are used whole."""
        lam, (t1, t2, t3) = self.lam, tables
        if absolute:
            lam, t1, t2, t3 = (np.abs(a) for a in (lam, t1, t2, t3))
        return per_sample((lam * t1 * t2 * t3).sum(axis=(-2, -1)))

    def form(self, f1, f2, f3) -> float | np.ndarray:
        """The trilinear form; stacks of functions give one value per sample."""
        return self._contract(slot_tables(self, (f1, f2, f3)), False)

    def absolute_form(self, f1, f2, f3) -> float | np.ndarray:
        return self._contract(slot_tables(self, (f1, f2, f3)), True)

    def apply(self, f1, f2) -> DiscreteFunction:
        """U(f1, f2); stacks of functions give one output per sample."""
        t1, t2 = slot_tables(self, (f1, f2))
        m1, m2 = row_pair(self.grid, self.shift, self._slot_rows(3))
        return DiscreteFunction(self.grid, m1.T @ (self.lam * t1 * t2) @ m2)

    def kernel_density(self) -> np.ndarray:
        (a1, a2), (b1, b2), (c1, c2) = (
            row_pair(self.grid, self.shift, self._slot_rows(s)) for s in (1, 2, 3))
        dens = np.einsum("kv,kX,vP,kY,vQ,kZ,vR->XPYQZR", self.lam, c1, c2, a1, a2, b1, b2, optimize=True)
        C = self.grid.shape[0] * self.grid.shape[1]
        return dens.reshape(C, C, C)

    def to_payload(self) -> dict:
        return {
            "family": "full",
            "pattern": list(self.pattern),
            "grid": _grid_payload(self.grid),
            "shift": _shift_payload(self.shift),
            "lam": [x.hex() for x in self.lam.ravel().tolist()],
            "lam_shape": list(self.lam.shape),
        }

    @staticmethod
    def from_payload(payload: dict) -> "FullParaproduct":
        grid = _grid_from_payload(payload["grid"])
        om = _shift_from_payload(payload["shift"], grid)
        lam = np.array([float.fromhex(x) for x in payload["lam"]]).reshape(payload["lam_shape"])
        return FullParaproduct(grid, om, tuple(payload["pattern"]), lam)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _grid_payload(grid: TorusGrid) -> dict:
    return {"dims": [grid.axes[0].dim, grid.axes[1].dim],
            "levels": [grid.axes[0].levels, grid.axes[1].levels]}


def _grid_from_payload(p: dict) -> TorusGrid:
    return TorusGrid.make(tuple(p["levels"]), tuple(p["dims"]))


def _shift_payload(om: GridShift) -> dict:
    return {"bits1": [list(b) for b in om.shift1.bits], "bits2": [list(b) for b in om.shift2.bits]}


def _shift_from_payload(p: dict, grid: TorusGrid) -> GridShift:
    s1 = AxisShift(grid.axes[0], tuple(tuple(b) for b in p["bits1"]))
    s2 = AxisShift(grid.axes[1], tuple(tuple(b) for b in p["bits2"]))
    return GridShift(s1, s2)


def _records(keys: np.ndarray, rows: np.ndarray, field: str) -> list[dict]:
    """One record per key, in sorted key order (the keys are distinct, so
    the rows are never compared): the key as its first cube and the rest,
    and its coefficients, flattened, as hex floats under `field`."""
    rows = rows.reshape(len(rows), math.prod(rows.shape[1:])).tolist()
    return [{"key": [key[:2], key[2:]], field: list(map(float.hex, row))}
            for key, row in sorted(zip(keys.tolist(), rows))]


def _record_rows(records: list[dict], field: str) -> tuple[list, list]:
    """The keys and the rows of coefficients of `_records` output."""
    return ([first + rest for first, rest in (rec["key"] for rec in records)],
            [list(map(float.fromhex, rec[field])) for rec in records])


def dmo_to_json(op) -> str:
    return json.dumps(op.to_payload(), sort_keys=True)


def dmo_from_json(text: str):
    payload = json.loads(text)
    family = payload["family"]
    cls = {"shift": ShiftOperator, "partial": PartialParaproduct, "full": FullParaproduct}[family]
    return cls.from_payload(payload)


# ---------------------------------------------------------------------------
# random generators (extremal coefficients)
# ---------------------------------------------------------------------------

def random_shift_operator(
    grid: TorusGrid,
    om: GridShift,
    k: tuple[int, int, int],
    v: tuple[int, int, int],
    pattern: tuple[int, int] = (3, 3),
    rng: np.random.Generator | None = None,
    fill: float = 1.0,
) -> ShiftOperator:
    """Coefficients drawn at the size cap times a random sign (fill scales down)."""
    rng = rng or np.random.default_rng()
    L1, L2 = grid.axes[0].levels, grid.axes[1].levels
    keys = np.array([(lk, pk, lv, pv) for lk in range(L1 - max(k)) for pk in range(1 << lk)
                     for lv in range(L2 - max(v)) for pv in range(1 << lv)], dtype=np.int64).reshape(-1, 4)
    caps = ShiftOperator.cap(k, v, keys[:, 0], keys[:, 2])
    # one draw of every block, in key order, equals the draws block by block
    signs = rng.choice([-1.0, 1.0], size=(len(keys),) + tuple(1 << d for d in k + v))
    return ShiftOperator(grid, om, k, v, pattern, keys, (fill * caps).reshape((-1,) + (1,) * 6) * signs)


def random_partial_paraproduct(
    grid: TorusGrid,
    om: GridShift,
    k: tuple[int, int, int],
    shift_axis: int = 0,
    h0_slot: int = 3,
    ptype: int = 3,
    rng: np.random.Generator | None = None,
    fill: float = 1.0,
) -> PartialParaproduct:
    """Symbols drawn as random profiles scaled onto the BMO cap."""
    rng = rng or np.random.default_rng()
    paxis = grid.axes[1 - shift_axis]
    keys = np.array([(lk, pk, *idx) for lk in range(grid.axes[shift_axis].levels - max(k)) for pk in range(1 << lk)
                     for idx in itertools.product(*(range(1 << d) for d in k))], dtype=np.int64).reshape(-1, 5)
    # one draw of every profile, in key order, equals the draws profile by profile
    profiles = rng.standard_normal((len(keys), paxis.n_cells))
    profiles -= profiles.mean(axis=1, keepdims=True)
    norms = axis_profile_bmo(profiles, paxis)
    scale = np.divide(fill * PartialParaproduct.cap(k, keys[:, 0]), norms,
                      out=np.ones(len(keys)), where=norms > 0)
    return PartialParaproduct(grid, om, shift_axis, k, h0_slot, ptype, keys, profiles * scale[:, None])


def random_full_paraproduct(
    grid: TorusGrid,
    om: GridShift,
    pattern: tuple[int, int] = (3, 3),
    rng: np.random.Generator | None = None,
    fill: float = 1.0,
) -> FullParaproduct:
    """Coefficients normalised so the oscillation lower-bound report is `fill`."""
    rng = rng or np.random.default_rng()
    lam = rng.standard_normal(tuple(map(len, row_pair(grid, om, ("haar", "haar")))))
    op = FullParaproduct(grid, om, pattern, lam)
    rep = op.coefficient_report()
    if rep.family_value > 0:
        op = FullParaproduct(grid, om, pattern, lam * (fill / rep.family_value))
    return op


# ---------------------------------------------------------------------------
# sparse domination for one-parameter paraproducts
# ---------------------------------------------------------------------------

def sparse_dominate_paraproduct(
    b: np.ndarray,
    g1: np.ndarray,
    g2: np.ndarray,
    g3: np.ndarray,
    axis: Axis,
    shift: AxisShift | None = None,
    ptype: int = 3,
) -> dict:
    """Stopping-time sparse family dominating the paraproduct form.

    A cube's budget is the sum of the three input averages on it.  The top
    cube is selected, and a cube stops when its budget more than doubles the
    budget of its anchor, the nearest selected strict ancestor; this forces
    every selected cube to own at least half of its measure.  The rule runs
    top-down over the levels: a cube inherits its parent's anchor unless
    the parent stopped.  Rows (S, n) of inputs give one result per row.
    Returns the family as a boolean selection of the lattice's cubes (in
    cube index order; one row per input row), the form value, the sparse
    sum (scaled by the symbol's BMO norm) and their ratio.
    """
    shift = shift if shift is not None else AxisShift.zero(axis)
    ops = axis_ops(axis, shift)
    lhs = np.abs(one_param_paraproduct_form(b, g1, g2, g3, ops, ptype))
    a = np.abs(np.stack(np.broadcast_arrays(*(np.asarray(g, dtype=float) for g in (g1, g2, g3))), axis=-2))
    stopped, sparse = [], 0.0
    for level, tab in enumerate(cell_tables(axis, shift)):
        avg = a[..., tab].mean(axis=-1)  # (..., 3, cubes)
        budget = avg[..., 0, :] + avg[..., 1, :] + avg[..., 2, :]
        if level == 0:
            stop, anchor = np.ones(budget.shape, dtype=bool), budget
        else:
            # the parent of each cube is the previous-level cube holding its first cell
            parent = cube_masks(axis, shift)[level_rows(axis, level - 1)][:, tab[:, 0]].argmax(axis=0)
            anchor = np.where(stopped[-1], prev_budget, prev_anchor)[..., parent]
            stop = (anchor > 0) & (budget > 2.0 * anchor)
        sparse = sparse + (avg[..., 0, :] * avg[..., 1, :] * avg[..., 2, :] * stop).sum(axis=-1) \
            * 2.0 ** (-level * axis.dim)
        stopped.append(stop)
        prev_budget, prev_anchor = budget, anchor
    rhs = axis_profile_bmo(b, axis) * sparse
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rhs > 0, lhs / rhs, np.where(lhs > 0, math.inf, 0.0))
    return {"family": np.concatenate(stopped, axis=-1), "lhs": per_sample(lhs),
            "rhs": per_sample(rhs), "ratio": per_sample(ratio)}


# ---------------------------------------------------------------------------
# absolute-form check and freeness probe
# ---------------------------------------------------------------------------

def dmo_absolute_form_check(op, f1, f2, f3, exponents: tuple[float, float, float]) -> float:
    """Absolutely-summed form divided by the product of the dual norms."""
    from .measures import lp_norm

    p, q, r = exponents
    if min(p, q) <= 1 or r <= 1 / 2:
        raise ValueError("exponents out of range")
    rprime = r / (r - 1.0) if r != 1.0 else math.inf
    den = lp_norm(f1, p) * lp_norm(f2, q) * lp_norm(f3, rprime)
    return op.absolute_form(f1, f2, f3) / den if den > 0 else 0.0


def paraproduct_freeness_probe(op) -> dict:
    """Pairings of every dual of a model operator's form against constants
    and a Haar pair, each probe one contraction through its gather plan.

    full[(a, b)] is the sup over rectangles of the form with a Haar function
    in slot a on the first axis and slot b on the second, constants in the
    remaining slots (all nine duals); max_full is their max.
    """
    haar = [axis_ops(ax, sh).haar for ax, sh in zip(op.grid.axes, (op.shift.shift1, op.shift.shift2))]
    def sup(a: int, b: int) -> float:
        """max |form| with the Haar rows in slot a on axis 1 and in slot b on
        axis 2 (one sample axis each), constants elsewhere."""
        def factor(x, s, p):
            # slot s's rows p on axis x paired with the Haar rows there, or with 1
            v = haar[x] @ p.T if s == (a, b)[x] else p.sum(axis=1)[None]
            return v.reshape((1,) * x + (-1,) + (1,) * (1 - x) + (len(p),))
        tables = [factor(0, s, p1)[..., :, None] * factor(1, s, p2)[..., None, :]
                  for s, (p1, p2) in zip((1, 2, 3), op._pairing_rows)]
        return float(np.abs(op._contract(tables, False)).max())

    full = {(a, b): sup(a, b) for a in (1, 2, 3) for b in (1, 2, 3)}
    return {"full": full, "max_full": max(full.values())}
