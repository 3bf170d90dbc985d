"""Constructive decomposition of discrete trilinear forms into model operators.

A trilinear form on the grid is expanded over the bi-parameter Haar basis
and regrouped exactly: per axis the level orderings split into three
branches (which slot holds the smallest cube), each with two inner collapse
routes; per tuple the positions classify as separated, diagonal or nested;
nested tuples split into a cancellative part (complement/split-function
pairings, emitted as shift coefficients keyed by the chain parent) and an
averaging part whose chain sum telescopes into clean paraproduct
coefficients.  Crossing the two axes yields shifts, both orientations of
partial paraproducts, and full paraproducts.

The bookkeeping is factored: per axis every term reads the source form with
one vector and writes the emitted operator with another, so each branch and
cell class is a redistribution matrix on Haar-coefficient triples, and exact
reconstruction is the statement that the branch matrices sum to the
identity.  Restricted to one-dimensional factors (cube-indexed coefficient
keys).
"""

from __future__ import annotations

import io
import json
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    Axis,
    AxisShift,
    ConfigError,
    DiscreteFunction,
    DyadicCube,
    GridShift,
    ResolutionError,
    TorusGrid,
    cell_tables,
    classify_goodness,
    enumerate_shifts,
    goodness_fraction,
    haar_rows,
    sample_shift,
)
from .kernels import KernelSpec, cell_centers
from .model_ops import (
    FullParaproduct,
    PartialParaproduct,
    ShiftOperator,
    axis_cap,
    axis_ops,
    axis_profile_bmo,
)
from .sparse import _STRIP, _Sparse, _sandwich

__all__ = [
    "KernelTensor",
    "KernelFormatError",
    "decomposer_bytes",
    "check_decomposer_size",
    "AxisDecomposition",
    "axis_decomposition",
    "Decomposition",
    "decompose",
    "averaged_reconstruction",
    "common_ancestor",
    "ROUTES",
]


# ---------------------------------------------------------------------------
# kernel tensors
# ---------------------------------------------------------------------------

class KernelFormatError(ValueError):
    """Input that is not a dyadlab kernel file."""


# bytes the decomposer's three dense arrays may take: level 4 needs 0.4 GB
# (`dyadlab --grid-level 4 decompose --random-shift` peaks at 0.56 GB RSS),
# level 5 needs 26 GB
DECOMPOSER_BUDGET = 1 << 30


def decomposer_bytes(grid: TorusGrid) -> int:
    """Bytes of the dense C^3 kernel tensor, the D1^3 x D2^3 Haar
    coefficient matrix `lam_hat` and the kept table block of
    `Decomposition.coefficients`, where D1, D2 are the cells per factor and
    C = D1 D2; each is C^3 float64 entries."""
    n1, n2 = grid.shape
    return 3 * 8 * (n1 * n2) ** 3


def check_decomposer_size(grid: TorusGrid) -> None:
    """Refuse, before anything is allocated, a grid whose dense arrays
    (`decomposer_bytes`) exceed DECOMPOSER_BUDGET."""
    need = decomposer_bytes(grid)
    if need > DECOMPOSER_BUDGET:
        # need is 3 x a power of two; a header may name any level, so it is
        # printed as such and not converted to a float or a decimal string
        raise ConfigError(f"levels {[ax.levels for ax in grid.axes]}, dims "
                          f"{[ax.dim for ax in grid.axes]}: the dense kernel tensor, its Haar "
                          f"coefficients and their table block need 3 x 2^{(need // 3).bit_length() - 1} "
                          f"bytes, over the budget of {DECOMPOSER_BUDGET} bytes")


class KernelTensor:
    """Order-3 array over flattened product cells; the discrete stand-in for
    a trilinear singular form.  data[x, y, z] couples output cell x with the
    two input cells y, z."""

    def __init__(self, grid: TorusGrid, data: np.ndarray, alpha: float | None = None):
        C = grid.shape[0] * grid.shape[1]
        data = np.asarray(data, dtype=float)
        if data.shape != (C, C, C):
            raise ValueError(f"kernel tensor must be ({C},{C},{C})")
        self.grid = grid
        self.data = data
        self.alpha = alpha

    def form(self, f1: DiscreteFunction, f2: DiscreteFunction, f3: DiscreteFunction) -> float:
        vol = self.grid.cell_volume
        return float(
            np.einsum(
                "xyz,y,z,x->",
                self.data,
                f1.values.ravel(),
                f2.values.ravel(),
                f3.values.ravel(),
            )
            * vol**3
        )

    def kernel_density(self) -> np.ndarray:
        return self.data

    @property
    def shift(self) -> GridShift:
        return GridShift.zero(self.grid)

    @staticmethod
    def random(grid: TorusGrid, rng: np.random.Generator, scale: float = 1.0) -> "KernelTensor":
        check_decomposer_size(grid)
        C = grid.shape[0] * grid.shape[1]
        return KernelTensor(grid, scale * rng.standard_normal((C, C, C)))

    @staticmethod
    def from_kernel(grid: TorusGrid, kernel: KernelSpec) -> "KernelTensor":
        """Evaluate a kernel at cell-centre triples (singular cells get zero)."""
        check_decomposer_size(grid)
        c1, c2 = cell_centers(grid)
        n1, n2 = grid.shape
        x1 = c1[:, None, None, None, None, None]
        x2 = c2[None, :, None, None, None, None]
        y1 = c1[None, None, :, None, None, None]
        y2 = c2[None, None, None, :, None, None]
        z1 = c1[None, None, None, None, :, None]
        z2 = c2[None, None, None, None, None, :]
        vals = kernel(x1, x2, y1, y2, z1, z2)
        vals = np.broadcast_to(vals, (n1, n2, n1, n2, n1, n2)).reshape(
            n1 * n2, n1 * n2, n1 * n2
        )
        return KernelTensor(grid, np.ascontiguousarray(vals), alpha=kernel.alpha)

    @staticmethod
    def from_operator(op) -> "KernelTensor":
        return KernelTensor(op.grid, op.kernel_density())

    def dump(self, fp: io.BufferedIOBase) -> None:
        header = {
            "format": "dyadlab-kernel-v1",
            "dims": [self.grid.axes[0].dim, self.grid.axes[1].dim],
            "levels": [self.grid.axes[0].levels, self.grid.axes[1].levels],
            "alpha": self.alpha,
        }
        blob = json.dumps(header).encode()
        fp.write(len(blob).to_bytes(4, "little"))
        fp.write(blob)
        fp.write(np.ascontiguousarray(self.data, dtype="float64").tobytes())

    @staticmethod
    def load(fp: io.BufferedIOBase) -> "KernelTensor":
        """Read a dumped tensor; the grid in the header is checked against
        the decomposer's budget before the data is read."""
        try:
            hlen = int.from_bytes(fp.read(4), "little")
            header = json.loads(fp.read(hlen).decode())
            if not isinstance(header, dict) or header.get("format") != "dyadlab-kernel-v1":
                raise ValueError("no dyadlab-kernel-v1 header")
            levels, dims = tuple(header["levels"]), tuple(header["dims"])
            if not all(type(v) is int for v in levels + dims):
                raise ValueError(f"levels {levels} and dims {dims} must be integers")
            grid = TorusGrid.make(levels, dims)
        except (ValueError, KeyError, IndexError, TypeError) as exc:  # JSON, UTF-8, header fields
            raise KernelFormatError(f"not a dyadlab kernel file: {exc}") from exc
        check_decomposer_size(grid)
        C = grid.shape[0] * grid.shape[1]
        try:
            data = np.frombuffer(fp.read(), dtype="float64").reshape(C, C, C)
        except ValueError as exc:  # data size
            raise KernelFormatError(f"not a dyadlab kernel file: {exc}") from exc
        return KernelTensor(grid, data.copy(), header.get("alpha"))


# ---------------------------------------------------------------------------
# route catalog
# ---------------------------------------------------------------------------

# (smallest slot, middle slot, averaged slot, level offset of the averaged
#  slot, strictness of level(s) >= level(m) + strict, minimum middle level)
ROUTES = {
    "A": ((3, 1, 2, 1, 0, 0), (3, 2, 1, 0, 0, 1)),
    "B": ((1, 3, 2, 1, 1, 0), (1, 2, 3, 0, 0, 1)),
    "C": ((2, 3, 1, 1, 1, 0), (2, 1, 3, 0, 1, 1)),
}
BRANCHES = ("A", "B", "C")
SMALLEST_SLOT = {"A": 3, "B": 1, "C": 2}
CELLS = ("sep", "diag", "nesC", "nesP")

SEP, DIAG, NES = 0, 1, 2

# Columns of a branch's tuple table: the route (index into ROUTES[branch]),
# the level, position and kind (0 cancellative, 1 top average) of the middle
# and smallest slots, the averaged slot's position, the cell class and the
# minimal common ancestor of the three cubes.
TUPLE_FIELDS = ("route", "lvl_m", "pos_m", "kind_m", "lvl_s", "pos_s", "kind_s",
                "pos_o", "cls", "anc_level", "anc_pos")
TUPLE_DTYPE = np.dtype([(name, np.int64) for name in TUPLE_FIELDS])


class _Rows(NamedTuple):
    """Sparse vectors stored row after row: the number of entries of each
    row, and their flat indices and values."""

    counts: np.ndarray
    idx: np.ndarray
    val: np.ndarray

    def row_ids(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.counts)), self.counts)


# entries of one dense table the shift export gathers from C, the rows of a
# left factor by the rows of a run of right sets
_RUN_ENTRIES = 1 << 15


def _stack(parts: list[tuple[np.ndarray, _Rows]], n_rows: int, width: int) -> _Sparse:
    """Matrix of sparse rows gathered from parts (at, rows): row i of `rows`
    lands on matrix row at[i], and repeated indices of a row add."""
    return _Sparse.build((n_rows, width),
                         np.concatenate([at[part.row_ids()] for at, part in parts]),
                         np.concatenate([part.idx for _, part in parts]),
                         np.concatenate([part.val for _, part in parts]))


def _outer(write: _Rows, read: _Rows, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO (row, col, val) triples of the sum over terms t of
    w[t] write_t (x) read_t."""
    term, iw, ir = _ragged_pairs(write.counts, read.counts)
    return write.idx[iw], read.idx[ir], w[term] * write.val[iw] * read.val[ir]


def _ragged_pairs(na: np.ndarray, nb: np.ndarray):
    """Every pair of an entry of row t of A with an entry of row t of B, in
    (row, A entry, B entry) order, where na and nb count the entries per row
    of two row-major ragged arrays: the row and both entry indices."""
    row_a = np.repeat(np.arange(len(na)), na)
    reps = nb[row_a]
    ia = np.repeat(np.arange(len(row_a)), reps)
    ib = np.repeat((np.cumsum(nb) - nb)[row_a] - (np.cumsum(reps) - reps), reps) + np.arange(reps.sum())
    return row_a[ia], ia, ib


def _noise_free(V: np.ndarray) -> _Rows:
    """The entries of each row of V above that row's rounding floor."""
    A = np.abs(V)
    keep = A > 1e-13 * np.maximum(1.0, A.max(axis=1))[:, None]
    return _Rows(keep.sum(axis=1), np.flatnonzero(keep) % V.shape[1], V[keep])


def _pair(a: _Rows, b: _Rows, stride_a, stride_b, base) -> _Rows:
    """Row by row, the tensor product of a in one slot and b in another: flat
    index idx_a * stride_a + idx_b * stride_b + base, entries in (a, b)
    order.  Strides and base are scalars or one value per row."""
    row, ia, ib = _ragged_pairs(a.counts, b.counts)
    sa, sb, base = (np.broadcast_to(x, a.counts.shape)[row] for x in (stride_a, stride_b, base))
    return _Rows(a.counts * b.counts, a.idx[ia] * sa + b.idx[ib] * sb + base, a.val[ia] * b.val[ib])


class AxisDecomposition:
    """Per-axis tuple tables and redistribution matrices.

    `tuples[branch]` is a read-only table (TUPLE_FIELDS) with one row per
    Haar-coefficient triple the branch consumes, ordered by route, lvl_m,
    lvl_s, kind_m, kind_s and position.  Matrix key: (branch, cell) with cell
    in CELLS; each matrix maps Haar-coefficient triples (read) to
    emitted-term coefficient triples (write), and the exact per-axis identity
    is sum over branches and cells == identity.  Matrices and their sum
    (`total`) are built on each request and not kept, but the per-branch
    write and read rows (`reads`, `averaging_reads`, `export_sets`) are kept
    from their first use.  `axis_decomposition` shares one instance per
    (axis, shift, r, gamma, alpha).
    """

    def __init__(self, axis: Axis, shift: AxisShift, r: int = 2,
                 gamma: float | None = None, alpha: float = 1.0):
        if axis.dim != 1:
            raise NotImplementedError("the decomposer runs on 1-d factors")
        self.axis = axis
        self.shift = shift
        self.r = r
        self.alpha = alpha
        self.gamma = gamma if gamma is not None else alpha / (2.0 * (2 * axis.dim + alpha))
        self.basis = haar_rows(axis, shift)
        # the basis rows scaled by the cell volume: cell values to coefficients
        self.transform = self.basis * axis.cell_volume
        self.D = len(self.basis)
        # flat-index stride of slots 1, 2, 3 in a basis triple
        self.stride = self.D ** (3 - np.arange(4))
        L = axis.levels
        self.offset = np.array([shift.offset_cells(j)[0] for j in range(L + 1)])
        self.width = 1 << (L - np.arange(L + 1))
        tr = self.transform
        # exact expansions of the pairing profiles in the basis
        ops = axis_ops(axis, shift)
        self.unit_exp = tr @ ops.unit.T        # (D, n_cubes): h0_I expansions
        self.avg_exp = tr @ ops.avg.T          # averages 1_I/|I|
        self.ones_exp = tr @ np.ones(axis.n_cells)
        self.ops = ops
        self.tuples = {b: self._enumerate(b) for b in BRANCHES}
        # where each branch's rows start among the table rows of all branches
        *first, self.n_table = np.cumsum([0] + [len(self.tuples[b]) for b in BRANCHES]).tolist()
        self.first_row = dict(zip(BRANCHES, first))
        self._kept: dict[tuple, object] = {}

    def _once(self, key: tuple, build):
        """build(), made on the first request for key and kept."""
        return self._kept[key] if key in self._kept else self._kept.setdefault(key, build())

    # -- enumeration and classification -----------------------------------
    def _starts(self, lvl, pos):
        return (pos * self.width[lvl] + self.offset[lvl]) % self.axis.n_side

    def _distance(self, a0, wa, b0, wb):
        """Torus gap, in cells, between the windows [a0, a0 + wa) and [b0, b0 + wb)."""
        n = self.axis.n_side
        overlap = ((b0 - a0) % n < wa) | ((a0 - b0) % n < wb)
        return np.where(overlap, 0, np.minimum((b0 - (a0 + wa)) % n, (a0 - (b0 + wb)) % n))

    def _enumerate(self, branch: str) -> np.ndarray:
        L, n = self.axis.levels, self.axis.n_side
        off, width = self.offset, self.width
        blocks = [np.empty(0, TUPLE_DTYPE)]  # a branch may be empty at L = 1
        for route, (s_slot, m_slot, o_slot, delta, strict, min_m) in enumerate(ROUTES[branch]):
            for lvl_m in range(min_m, L):
                lvl_o = lvl_m + delta
                for lvl_s in range(lvl_m + strict, L):
                    kinds_m = (0, 1) if lvl_m == 0 else (0,)
                    kinds_s = (0, 1) if lvl_s == 0 else (0,)
                    pm, ps, po = np.meshgrid(
                        np.arange(1 << lvl_m), np.arange(1 << lvl_s),
                        np.arange(1 << lvl_o), indexing="ij",
                    )
                    pm, ps, po = pm.ravel(), ps.ravel(), po.ravel()
                    sm, ss, so = self._starts(lvl_m, pm), self._starts(lvl_s, ps), self._starts(lvl_o, po)
                    wm, ws, wo = width[lvl_m], width[lvl_s], width[lvl_o]
                    d_ms = self._distance(sm, wm, ss, ws) / n
                    d_os = self._distance(so, wo, ss, ws) / n
                    thr = (2.0**-lvl_s) ** self.gamma * (2.0**-lvl_o) ** (1.0 - self.gamma)
                    sep = np.maximum(d_ms, d_os) > thr
                    if delta == 1:
                        par_pos = ((so - off[lvl_m]) % n) // wm
                        nested = (((ss - so) % n) + ws <= wo) & (par_pos == pm)
                    else:
                        nested = (pm == po) & (((ss - sm) % n) + ws <= wm) \
                            & ~((lvl_s == lvl_m) & (ps == pm))
                    cls = np.where(sep, SEP, np.where(nested, NES, DIAG))
                    anc_lvl = np.zeros(len(pm), dtype=int)
                    anc_pos = np.zeros(len(pm), dtype=int)
                    done = np.zeros(len(pm), dtype=bool)
                    for j in range(min(lvl_m, lvl_s), -1, -1):
                        a1 = ((sm - off[j]) % n) // width[j]
                        a2 = ((so - off[j]) % n) // width[j]
                        a3 = ((ss - off[j]) % n) // width[j]
                        hit = (a1 == a2) & (a1 == a3) & ~done
                        anc_lvl[hit] = j
                        anc_pos[hit] = a1[hit]
                        done |= hit
                    for kind_m in kinds_m:
                        for kind_s in kinds_s:
                            block = np.empty(len(pm), TUPLE_DTYPE)
                            for name, col in zip(TUPLE_FIELDS, (route, lvl_m, pm, kind_m, lvl_s, ps, kind_s,
                                                                po, cls, anc_lvl, anc_pos)):
                                block[name] = col
                            blocks.append(block)
        table = np.concatenate(blocks)
        table.setflags(write=False)
        return table

    def _route(self, branch: str, tab: np.ndarray):
        """Per row: the middle slot, the averaged slot and the averaged level."""
        spec = np.array(ROUTES[branch])[tab["route"]]
        return spec[:, 1], spec[:, 2], tab["lvl_m"] + spec[:, 3]

    def _hot(self, kind, lvl, pos):
        # basis order: the top average comes first, then cancellative cubes
        return np.where(kind == 1, 0, 1 + self.ops.canc_offset[lvl] + pos)

    def slots(self, branch: str, tab: np.ndarray):
        """Per row, the level and the position of the cube in slots 1, 2, 3
        (two (rows, 3) arrays)."""
        m_slot, o_slot, lvl_o = self._route(branch, tab)
        rows = np.arange(len(tab))
        levels = np.empty((len(tab), 3), dtype=np.int64)
        pos = np.empty_like(levels)
        for slot, lvl, p in ((m_slot, tab["lvl_m"], tab["pos_m"]), (o_slot, lvl_o, tab["pos_o"]),
                             (SMALLEST_SLOT[branch], tab["lvl_s"], tab["pos_s"])):
            levels[rows, slot - 1] = lvl
            pos[rows, slot - 1] = p
        return levels, pos

    def slot_keys(self, branch: str, tab: np.ndarray) -> np.ndarray:
        """Per row, as columns: the anchor level and position, the three
        per-slot depths below the anchor, the averaged slot, and the three
        per-slot indices among the anchor's descendants at that depth."""
        levels, pos = self.slots(branch, tab)
        anc_level, anc_pos = tab["anc_level"], tab["anc_pos"]
        depth = levels - anc_level[:, None]
        idx = self.ops.descendant_index(anc_level[:, None], anc_pos[:, None], depth, pos)
        _, o_slot, _ = self._route(branch, tab)
        return np.column_stack([anc_level, anc_pos, depth, o_slot, idx])

    def caps(self, branch: str) -> np.ndarray:
        """Per row: the structural cap times the complexity decay.  For nested
        rows the common ancestor is the chain parent itself, so one formula
        covers every class."""
        tab = self.tuples[branch]
        levels, _ = self.slots(branch, tab)
        lvlK = tab["anc_level"]
        size_cap = 2.0 ** (-(levels.sum(axis=1)) / 2.0 + 2 * lvlK)
        decay = 2.0 ** (-self.alpha * (levels - lvlK[:, None]).max(axis=1) / 2.0)
        return size_cap * decay

    def exportable(self, branch: str) -> np.ndarray:
        """Rows the strict nine-type builders take: top-scale convention rows
        pair a difference slot with the flat profile and are left out."""
        tab = self.tuples[branch]
        return (tab["kind_m"] == 0) & (tab["kind_s"] == 0)

    @cached_property
    def good(self) -> np.ndarray:
        """Goodness of every cube, in `ops.cubes` order (read-only)."""
        good = np.array([classify_goodness(c, r=self.r, gamma=self.gamma, alpha=self.alpha)
                         for c in self.ops.cubes])
        good.setflags(write=False)
        return good

    def gated_weights(self) -> np.ndarray:
        """Per cube of levels 0..L-1, in `ops.cubes` order: the inverse
        goodness probability of its level if the cube is good, else 0."""
        L = self.axis.levels
        inv = []
        for lvl in range(L):
            p = goodness_fraction(self.axis, lvl, r=self.r, gamma=self.gamma, alpha=self.alpha)
            if p == 0:
                raise ValueError(f"goodness probability vanishes at level {lvl}")
            inv.append(1.0 / p)
        levels = np.repeat(np.arange(L), 1 << np.arange(L))
        return np.where(self.good[:len(levels)], np.array(inv)[levels], 0.0)

    def smallest_cubes(self, branch: str, cell: str) -> np.ndarray:
        """Index, in `ops.cubes` order, of the smallest cube of every term of
        a cell: one per table row, or for 'nesP' one term per cube of levels
        1..L-1."""
        if cell == "nesP":
            return np.arange(self.ops.cube_offset[1], self.ops.cube_offset[self.axis.levels])
        tab = self.tuples[branch]
        return self.ops.cube_offset[tab["lvl_s"]] + tab["pos_s"]

    # -- decay certificates ---------------------------------------------------
    def _chain_child(self, branch: str, tab: np.ndarray):
        """Per row, level and position of the anchor child of the nested
        split: the averaged cube for offset routes, the middle's child
        containing the smallest cube otherwise."""
        _, _, lvl_o = self._route(branch, tab)
        lvl = tab["lvl_m"] + 1
        below = ((self._starts(tab["lvl_s"], tab["pos_s"]) - self.offset[lvl])
                 % self.axis.n_side) // self.width[lvl]
        return lvl, np.where(lvl_o == lvl, tab["pos_o"], below)

    def nested_inside(self, branch: str) -> np.ndarray:
        """Per row: smallest cube strictly inside its chain anchor (the
        configuration the nested coefficient bounds quantify over)."""
        tab = self.tuples[branch]
        lvl_c, pos_c = self._chain_child(branch, tab)
        rel = (self._starts(tab["lvl_s"], tab["pos_s"]) - self._starts(lvl_c, pos_c)) % self.axis.n_side
        return np.minimum(rel, self.width[lvl_c] - rel - self.width[tab["lvl_s"]]) > 0

    def well_separated(self, branch: str) -> np.ndarray:
        """Per row: at least one smallest-cube length between the smallest
        cube and both partners (the quantitative separated configuration)."""
        tab = self.tuples[branch]
        _, _, lvl_o = self._route(branch, tab)
        ss, ws = self._starts(tab["lvl_s"], tab["pos_s"]), self.width[tab["lvl_s"]]
        d = np.maximum(
            self._distance(self._starts(tab["lvl_m"], tab["pos_m"]), self.width[tab["lvl_m"]], ss, ws),
            self._distance(self._starts(lvl_o, tab["pos_o"]), self.width[lvl_o], ss, ws),
        )
        return d >= ws

    # -- read/write vectors -------------------------------------------------
    @cached_property
    def _expansion(self) -> tuple[np.ndarray, np.ndarray]:
        """Basis expansions of the normalised indicators of all cubes, rows in
        cube order: index and value arrays of shape (cubes, L + 1), a level-j
        cube filling its first j + 1 columns."""
        L = self.axis.levels
        cols = self.unit_exp.T
        nz = np.abs(cols) > 1e-13
        levels = np.repeat(np.arange(L + 1), 1 << np.arange(L + 1))
        if not np.array_equal(nz.sum(axis=1), levels + 1):
            raise AssertionError("indicator expansion must have lvl+1 terms")
        fill = np.arange(L + 1) <= levels[:, None]
        idx = np.zeros(fill.shape, dtype=np.int64)
        val = np.zeros(fill.shape)
        idx[fill], val[fill] = np.flatnonzero(nz) % nz.shape[1], cols[nz]
        return idx, val

    def _transform(self, S: np.ndarray) -> np.ndarray:
        # one matrix-vector product per row: each row's coefficients round as
        # a single `transform @ v` does (a matrix product sums otherwise)
        return (self.transform @ S[..., None])[..., 0]

    def _plain_rows(self, branch: str, tab: np.ndarray) -> _Rows:
        """Write vectors of the rows (the functions paired with the inputs):
        one-hot middle and smallest slots, and in the averaged slot the
        expansion of its cube's normalised indicator."""
        m_slot, o_slot, lvl_o = self._route(branch, tab)
        X = self.stride
        base = (self._hot(tab["kind_m"], tab["lvl_m"], tab["pos_m"]) * X[m_slot]
                + self._hot(tab["kind_s"], tab["lvl_s"], tab["pos_s"]) * X[SMALLEST_SLOT[branch]])
        eidx, eval_ = self._expansion
        cube = self.ops.cube_offset[lvl_o] + tab["pos_o"]
        fill = np.arange(eidx.shape[1]) <= lvl_o[:, None]
        return _Rows(lvl_o + 1, (base[:, None] + eidx[cube] * X[o_slot][:, None])[fill], eval_[cube][fill])

    def _nested_terms(self, branch: str, tab: np.ndarray) -> tuple[_Rows, _Rows]:
        """Read vectors of the cancellative part of the nested split, as its
        two terms: the split-function pairing, and minus the complement
        pairing, which replace the parent-Haar / indicator pair."""
        ops, X = self.ops, self.stride
        m_slot, o_slot, lvl_o = self._route(branch, tab)
        o_cube = ops.cube_offset[lvl_o] + tab["pos_o"]
        lvl_c, pos_c = self._chain_child(branch, tab)
        # the middle slot's own basis function, and its mean on the anchor child
        hP = self.basis[self._hot(tab["kind_m"], tab["lvl_m"], tab["pos_m"])]
        mean = np.empty(len(tab))
        for lvl, cells in enumerate(cell_tables(self.axis, self.shift)):
            at = lvl_c == lvl
            mean[at] = np.take_along_axis(hP[at], cells[pos_c[at]], axis=1).mean(axis=1)
        scale = ops.scale[o_cube][:, None]
        outside = (ops.unit == 0).astype(float)  # per cube: 1 off the cube, 0 on it
        split = outside[ops.cube_offset[lvl_c] + pos_c] * (hP - mean[:, None])
        svec = _noise_free(self._transform(scale * split))
        hvec = _noise_free(self._transform(scale * hP))
        comp = _noise_free(self._transform(outside[o_cube]))
        ones = _noise_free(np.broadcast_to(self.ones_exp, (len(tab), self.D)))
        base = self._hot(tab["kind_s"], tab["lvl_s"], tab["pos_s"]) * X[SMALLEST_SLOT[branch]]
        complement = _pair(hvec, comp, X[m_slot], X[o_slot], base)
        return (_pair(svec, ones, X[m_slot], X[o_slot], base),
                complement._replace(val=-complement.val))

    def _averaging_rows(self, branch: str, cubes: np.ndarray) -> tuple[_Rows, _Rows]:
        """Write and read vectors of the collapsed averaging part, one row per
        smallest cube (indices in `ops.cubes` order)."""
        ops, X = self.ops, self.stride
        s_slot = SMALLEST_SLOT[branch]
        p, q = (slot for slot in (1, 2, 3) if slot != s_slot)
        level = np.repeat(np.arange(self.axis.levels + 1), np.diff(ops.cube_offset))[cubes]
        base = self._hot(0, level, cubes - ops.cube_offset[level]) * X[s_slot]
        avg = _noise_free(self.avg_exp.T[cubes])
        ones = _noise_free(np.broadcast_to(self.ones_exp, (len(cubes), self.D)))
        return _pair(avg, avg, X[p], X[q], base), _pair(ones, ones, X[p], X[q], base)

    def reads(self, branch: str) -> _Sparse:
        """Read vectors of the rows of the branch table, as a (rows, D^3)
        `_Sparse` matrix: the write vector for separated and diagonal rows,
        the cancellative nested read for nested rows; built once, with the
        rows' write vectors (`_kept['writes', branch]`).  Its build is row by
        row, so its rows, and its products' rows, are those of a build from
        those rows alone."""
        def build():
            tab = self.tuples[branch]
            nes = tab["cls"] == NES
            write = self._kept["writes", branch] = self._plain_rows(branch, tab)
            plain = np.repeat(~nes, write.counts)
            parts = [(np.flatnonzero(~nes), _Rows(write.counts[~nes], write.idx[plain], write.val[plain]))]
            parts += [(np.flatnonzero(nes), term) for term in self._nested_terms(branch, tab[nes])]
            return _stack(parts, len(tab), self.D**3)
        return self._once(("reads", branch), build)

    def averaging_reads(self, branch: str) -> tuple[_Sparse, list[tuple[int, int]], np.ndarray, _Rows]:
        """Read vectors of the averaging part, one row per smallest cube of
        levels 1..L-1, with each row's cube as (level, position) and as its
        index in `ops.cubes` (below level L, its row in `ops.haar`), and the
        rows' write vectors; built once."""
        def build():
            cubes = self.smallest_cubes(branch, "nesP")
            write, read = self._averaging_rows(branch, cubes)
            return (_stack([(np.arange(len(cubes)), read)], len(cubes), self.D**3),
                    [(c.level, c.pos[0]) for c in (self.ops.cubes[i] for i in cubes)], cubes, write)
        return self._once(("averaging", branch), build)

    def averaged_profiles(self, products: np.ndarray) -> list[np.ndarray]:
        """Per branch, the symbol profiles of `products`, averaging rows of C
        (`Decomposition.coefficients`) by a column per symbol: a row each."""
        _, cubes, haar_rows, _ = self.averaging_reads(BRANCHES[0])  # levels 1..L-1 on every branch
        RL, n = np.ascontiguousarray(products), len(cubes)
        return [RL[p * n:(p + 1) * n].T @ self.ops.haar[haar_rows] for p in range(len(BRANCHES) if n else 0)]

    def export_sets(self, branch: str) -> dict:
        """The exportable rows by tag ('plain': separated and diagonal,
        'nested'): their slot keys and their indices among the table rows of
        all branches (`first_row`); built once."""
        def build():
            tab, keep = self.tuples[branch], self.exportable(branch)
            nes = tab["cls"] == NES
            return {tag: (self.slot_keys(branch, tab[rows]), self.first_row[branch] + np.flatnonzero(rows))
                    for tag, rows in (("plain", keep & ~nes), ("nested", keep & nes)) if rows.any()}
        return self._once(("export", branch), build)

    # -- matrices -----------------------------------------------------------
    def matrix(self, branch: str, cell: str, weight: np.ndarray | None = None) -> _Sparse:
        """Redistribution matrix of one (branch, cell).

        `weight` holds one factor per term of the cell, indexed like
        `smallest_cubes(branch, cell)`: per table row for 'sep', 'diag' and
        'nesC' (rows of the other classes are ignored), per smallest cube
        for 'nesP'.  Terms of weight 0 are left out."""
        if cell not in CELLS:
            raise ValueError(f"unknown cell {cell!r}")
        terms = self.smallest_cubes(branch, cell) if cell == "nesP" else self.tuples[branch]
        w = np.ones(len(terms)) if weight is None else np.asarray(weight, dtype=float)
        keep = w != 0
        if cell != "nesP":
            keep &= terms["cls"] == {"sep": SEP, "diag": DIAG, "nesC": NES}[cell]
        terms, w = terms[keep], w[keep]
        if cell == "nesP":
            write, read = self._averaging_rows(branch, terms)
            reads = (read,)
        else:
            write = self._plain_rows(branch, terms)
            reads = self._nested_terms(branch, terms) if cell == "nesC" else (write,)
        # one outer product write (x) read per term and read vector; the
        # parts are freed before the build, which needs the memory
        parts = [_outer(write, read, w) for read in reads]
        triples = [np.concatenate(p) for p in zip(*parts)]
        del parts
        return _Sparse.build((self.D**3,) * 2, *triples)

    def total(self, cube_weight: np.ndarray | None = None, exportable: bool = False) -> _Sparse:
        """The sum of the twelve matrices from the kept write and read rows,
        one build; `cube_weight` (per cube, `ops.cubes` order) weights each
        term by its smallest cube's, `exportable` keeps the exportable table
        rows only.  A nested row's read terms are summed first, so entries
        may differ from the matrices' sum at rounding level."""
        w = np.ones(self.ops.cube_offset[-1]) if cube_weight is None else cube_weight
        parts = []
        for b in BRANCHES:
            read, write, (aread, _, cubes, awrite) = self.reads(b), self._kept["writes", b], self.averaging_reads(b)
            keep = self.exportable(b) if exportable else 1
            parts += [(write, read, w[self.smallest_cubes(b, "sep")] * keep), (awrite, aread, w[cubes])]
        write = _Rows(*map(np.concatenate, zip(*(p[0] for p in parts))))
        read = _Rows(*map(np.concatenate, zip(*((np.diff(r.ptr), r.col, r.val) for _, r, _ in parts))))
        return _Sparse.build((self.D**3,) * 2, *_outer(write, read, np.concatenate([p[2] for p in parts])))


@lru_cache(maxsize=16)
def axis_decomposition(axis: Axis, shift: AxisShift, r: int = 2,
                       gamma: float | None = None, alpha: float = 1.0) -> AxisDecomposition:
    """The shared AxisDecomposition of one (axis, shift, r, gamma, alpha); its
    tables are read-only, and it keeps no matrix, only the per-branch read
    and write rows."""
    return AxisDecomposition(axis, shift, r, gamma, alpha)


# ---------------------------------------------------------------------------
# common ancestor with case certificates
# ---------------------------------------------------------------------------

def common_ancestor_cubes(cubes: list[DyadicCube]) -> DyadicCube:
    """Minimal common dyadic ancestor within one shifted lattice (the level-0
    cube is the whole torus, so it always exists)."""
    top = min(c.level for c in cubes)
    for j in range(top, -1, -1):
        anc = [c.ancestor(c.level - j) for c in cubes]
        if all(a == anc[0] for a in anc[1:]):
            return anc[0]
    raise AssertionError("unreachable: the top cube contains everything")


def common_ancestor(c1: DyadicCube, c2: DyadicCube, c3: DyadicCube,
                    r: int = 2, gamma: float | None = None, alpha: float = 1.0) -> dict:
    """Minimal common ancestor plus the quantitative separation / diagonal
    certificates when the configuration matches the respective case."""
    axis = c1.axis
    if gamma is None:
        gamma = alpha / (2.0 * (2 * axis.dim + alpha))
    K = common_ancestor_cubes([c1, c2, c3])
    dist = max(c3.distance(c1), c3.distance(c2))
    small = min(c1.side, c2.side)
    thr = c3.side**gamma * small ** (1.0 - gamma)
    # cubes touching across the lattice seam are metrically close but share
    # no ancestor below the whole torus, so the interval-geometry bounds are
    # only asserted off the seam
    out = {"ancestor": K, "max_distance": dist, "wraps_seam": K.level == 0}
    if dist > thr:
        out["case"] = "separated"
        out["separation_bound"] = c3.side**gamma * K.side ** (1.0 - gamma)
        out["separation_ok"] = dist >= 2.0 ** (-float(r)) * out["separation_bound"]
    elif c1.contains(c3) and c2.contains(c3):
        out["case"] = "nested"
    else:
        out["case"] = "diagonal"
        out["diagonal_bound"] = 2.0**r * c3.side
        out["diagonal_ok"] = out["wraps_seam"] or K.side <= out["diagonal_bound"]
    return out


# ---------------------------------------------------------------------------
# full decomposition
# ---------------------------------------------------------------------------

def _lambda_hat(tensor: KernelTensor, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Haar-coefficient matrix of the form in the bases of the two axes, with
    their `transform`s t1, t2: rows index first-axis basis triples (slots
    1,2,3), columns second-axis triples."""
    n1, n2 = tensor.grid.shape
    K6 = tensor.data.reshape(n1, n2, n1, n2, n1, n2)
    # slot order: slot1 ~ (y1, y2), slot2 ~ (z1, z2), slot3 ~ (x1, x2)
    T = np.einsum("xXyYzZ,ay,bz,cx,AY,BZ,CX->abcABC", K6, t1, t1, t1, t2, t2, t2, optimize=True)
    return T.reshape(len(t1)**3, len(t2)**3)


def _lambda_hat_to_cells(lam_hat: np.ndarray, grid: TorusGrid, om: GridShift) -> np.ndarray:
    n1, n2 = grid.shape
    b1, b2 = haar_rows(grid.axes[0], om.shift1), haar_rows(grid.axes[1], om.shift2)
    D1, D2 = len(b1), len(b2)
    T = lam_hat.reshape(D1, D1, D1, D2, D2, D2)
    K6 = np.einsum("abcABC,ay,bz,cx,AY,BZ,CX->xXyYzZ", T, b1, b1, b1, b2, b2, b2, optimize=True)
    C = n1 * n2
    return K6.reshape(C, C, C)


class Decomposition:
    """One run of the decomposer at a fixed lattice shift.  The per-axis
    totals and the coefficient table (`coefficients`) are made on use."""

    def __init__(self, tensor: KernelTensor, om: GridShift, r: int = 2,
                 gamma: float | None = None, alpha: float | None = None,
                 max_complexity: int | None = None):
        grid = tensor.grid
        if max_complexity is not None:
            depth = max(grid.axes[0].levels, grid.axes[1].levels) - 1
            if max_complexity > depth:
                raise ResolutionError(
                    f"requested complexity {max_complexity} exceeds the grid "
                    f"maximum (k, v) <= {depth}"
                )
        a = alpha if alpha is not None else (tensor.alpha if tensor.alpha is not None else 1.0)
        self.tensor = tensor
        self.grid = grid
        self.om = om
        self.alpha = a
        self.ax1 = axis_decomposition(grid.axes[0], om.shift1, r, gamma, a)
        self.ax2 = axis_decomposition(grid.axes[1], om.shift2, r, gamma, a)
        self.lam_hat = _lambda_hat(tensor, self.ax1.transform, self.ax2.transform)
        self._blocks: dict[str, np.ndarray] = {}

    def coefficients(self, rows1: str, rows2: str) -> np.ndarray:
        """The (rows1, rows2) block of C = R1 lam_hat R2^T, Ri axis i's table
        reads then averaging reads ('table', 'averaging').  One `_sandwich`
        makes the blocks of a rows1 on first use, kept read-only; products go
        row by row, so an entry is what its two branches' reads make."""
        if rows1 not in self._blocks:
            R1, R2 = (_Sparse.stack([ax.reads(b) if part == "table" else ax.averaging_reads(b)[0]
                                     for part in parts for b in BRANCHES])
                      for ax, parts in ((self.ax1, (rows1,)), (self.ax2, ("table", "averaging"))))
            self._blocks[rows1] = _sandwich(R1, self.lam_hat, R2)
            self._blocks[rows1].setflags(write=False)
        C, n = self._blocks[rows1], self.ax2.n_table
        return C[:, :n] if rows2 == "table" else C[:, n:]

    # -- reconstruction -------------------------------------------------------
    def reconstructed_hat(self) -> np.ndarray:
        return _sandwich(self.ax1.total(), self.lam_hat, self.ax2.total())

    def residual_on_haar_triples(self) -> float:
        # the largest |P - lam_hat^T| over strips of rows of the product P (in
        # its own layout) through one buffer: no full-size difference
        P, lam = self.reconstructed_hat().T, self.lam_hat
        buf, worst = np.empty((_STRIP, P.shape[1])), []
        for r0 in range(0, len(P), _STRIP):
            d = np.subtract(P[r0:r0 + _STRIP], lam[:, r0:r0 + _STRIP].T, out=buf[:len(P) - r0])
            worst.append(np.abs(d, out=d).max())
        scale = max(lam.max(), -lam.min())
        return float(np.max(worst) / (scale if scale > 0 else 1.0))

    def exportable_hat(self) -> np.ndarray:
        """Haar coefficients of the part the object-level families emit: the
        terms of the `exportable` rows and the whole averaging part."""
        return _sandwich(self.ax1.total(exportable=True), self.lam_hat, self.ax2.total(exportable=True))

    def total_form(self, f1, f2, f3) -> float:
        return self._eval_hat(self.reconstructed_hat(), f1, f2, f3)

    def _eval_hat(self, hat: np.ndarray, f1, f2, f3) -> float:
        t1, t2 = self.ax1.transform, self.ax2.transform
        P = [t1 @ f.values @ t2.T for f in (f1, f2, f3)]
        D1, D2 = len(t1), len(t2)
        T = hat.reshape(D1, D1, D1, D2, D2, D2)
        return float(np.einsum("abcABC,aA,bB,cC->", T, P[0], P[1], P[2], optimize=True))

    # -- reports ----------------------------------------------------------------
    def shift_coefficient_report(self) -> dict:
        """Raw coefficients against the structural cap times the complexity
        decay, resolved by cell class.

        Hoelder-type decay only quantifies over quantitatively separated or
        strictly nested configurations, so those classes are reported both
        raw and filtered by the decay certificates; diagonal classes carry
        the operator's touching-scale mass and no decay."""
        out = {"by_class": {}, "certified": {"nested": 0.0, "separated": 0.0},
               "counts": {"nested": 0, "separated": 0}}

        def rows(ax, br):
            cls = ax.tuples[br]["cls"]
            raw = {"sep": cls == SEP, "diag": cls == DIAG, "nes": cls == NES}
            certified = {"sep": raw["sep"] & ax.well_separated(br),
                         "nes": raw["nes"] & ax.nested_inside(br)}
            return slice(ax.first_row[br], ax.first_row[br] + len(cls)), ax.caps(br), raw, certified

        per_axis = [{br: rows(ax, br) for br in BRANCHES} for ax in (self.ax1, self.ax2)]
        C = self.coefficients("table", "table")
        for br1 in BRANCHES:
            rows1, cap1, *sets1 = per_axis[0][br1]
            for br2 in BRANCHES:
                rows2, cap2, *sets2 = per_axis[1][br2]
                # ratios[j, i] for axis-2 row j and axis-1 row i, in the
                # layout the table's product leaves
                ratios = np.abs(C[rows1, rows2].T)
                ratios /= np.outer(cap2, cap1)
                for dest, table1, table2 in zip(("by_class", "certified"), sets1, sets2):
                    for n1, sel1 in table1.items():
                        if not sel1.any():
                            continue
                        for n2, sel2 in table2.items():
                            if not sel2.any():
                                continue
                            block = ratios[np.ix_(sel2, sel1)]
                            if dest == "by_class":
                                key = tuple(sorted((n1, n2)))
                                out["by_class"][key] = max(out["by_class"].get(key, 0.0),
                                                           float(block.max()))
                            else:
                                key = "nested" if (n1 == n2 == "nes") else "separated"
                                out["certified"][key] = max(out["certified"][key], float(block.max()))
                                out["counts"][key] += block.size
        return out

    def partial_symbol_report(self) -> dict:
        """Symbol oscillation norms of the extracted partial paraproducts
        against the nested-chain shape cap, for the nested x averaged cells."""
        out = {"max_ratio": 0.0, "n_symbols": 0}
        # per shift axis: the other axis's averaging rows by its table rows
        for shift_ax, para_ax, products in ((self.ax1, self.ax2, self.coefficients("table", "averaging").T),
                                            (self.ax2, self.ax1, self.coefficients("averaging", "table"))):
            profs, shapes = [], []
            for br_s in BRANCHES:
                tab = shift_ax.tuples[br_s]
                nes = tab["cls"] == NES
                if not nes.any():
                    continue
                # the chain child sits one level below the middle cube
                depth = tab["lvl_s"][nes] - tab["lvl_m"][nes] - 1
                for prof in para_ax.averaged_profiles(products[:, shift_ax.first_row[br_s] + np.flatnonzero(nes)]):
                    profs.append(prof)
                    shapes.append((2.0**-depth) ** (self.alpha / 2.0) * (2.0**-depth) ** 0.5)
            if profs:  # one BMO call per axis
                ratio = axis_profile_bmo(np.concatenate(profs), para_ax.axis) / np.concatenate(shapes)
                out["max_ratio"] = max(out["max_ratio"], float(ratio.max()))
                out["n_symbols"] += len(ratio)
        return out

    def full_paraproduct_tables(self) -> dict:
        """Extracted coefficients lam[(smallest cube 1, smallest cube 2)] for
        each of the nine symmetry pairs."""
        out, C = {}, self.coefficients("averaging", "averaging")
        for p1, br1 in enumerate(BRANCHES):
            _, cubes1, *_ = self.ax1.averaging_reads(br1)
            for p2, br2 in enumerate(BRANCHES):
                _, cubes2, *_ = self.ax2.averaging_reads(br2)
                lam = C[p1 * len(cubes1):(p1 + 1) * len(cubes1), p2 * len(cubes2):(p2 + 1) * len(cubes2)]
                out[(br1, br2)] = {"lam": lam, "cubes1": cubes1, "cubes2": cubes2,
                                   "pattern": (SMALLEST_SLOT[br1], SMALLEST_SLOT[br2])}
        return out

    def extracted_full_paraproducts(self) -> list[tuple[tuple, FullParaproduct, float]]:
        """Builder-validated operators (rescaled) plus their extracted size."""
        out = []
        for key, rec in self.full_paraproduct_tables().items():
            lam_full = np.zeros((self.ax1.ops.haar.shape[0], self.ax2.ops.haar.shape[0]))
            lam_full[np.ix_(self.ax1.averaging_reads(key[0])[2],
                            self.ax2.averaging_reads(key[1])[2])] = rec["lam"]
            op = FullParaproduct(self.grid, self.om, rec["pattern"], lam_full)
            size = op.coefficient_report().family_value
            if size > 0:
                op = FullParaproduct(self.grid, self.om, rec["pattern"], lam_full / size)
            out.append((key, op, size))
        return out

    # -- object-level emission ---------------------------------------------
    def extracted_shift_families(self) -> list[dict]:
        """Builder-validated shift operators with their extracted sizes.

        Plain cells and the cancellative parts of nested cells regroup into
        families keyed by (complexity, averaged-slot pattern); coefficients
        are rescaled by the family maximum against the structural cap.  Per
        left factor the right factors are taken in runs, one gather of the
        table block each; a run's families are validated as one batch that
        keeps their blocks where the run laid them out."""
        C = self.coefficients("table", "table")
        right = [(br2, tag2, *rows2) for br2 in BRANCHES for tag2, rows2 in self.ax2.export_sets(br2).items()]
        fams = []
        for br1 in BRANCHES:
            for tag1, (keys1, rows1) in self.ax1.export_sets(br1).items():
                for run in _runs(right, len(keys1)):
                    heads, anchors, blocks = _shift_families(br1, tag1, keys1, C, rows1, run)
                    ops = ShiftOperator.batch(self.grid, self.om, [(*key[:3], n) for key, n, _ in heads], anchors, blocks)
                    fams += [(key, op, size) for (key, _, size), op in zip(heads, ops)]
        fams.sort(key=lambda fam: fam[0])
        return [{"symmetry": sym, "cells": cells, "k": k, "v": v, "pattern": pattern, "operator": op, "size": size}
                for (k, v, pattern, sym, cells), op, size in fams]

    def extracted_partial_paraproducts(self) -> list[dict]:
        """Builder-validated partial paraproducts with extracted sizes.

        For each axis the averaged (chain-collapsed) part pairs with the
        plain or nested-cancellative structure of the other axis; the symbol
        profiles are rescaled by the family maximum against the one-axis
        oscillation cap.  Per axis the profiles are measured in one BMO call
        and the families validated as one batch."""
        out = []
        # per shift axis: the other axis's averaging rows by its table rows
        for shift_axis, sax, pax, products in ((0, self.ax1, self.ax2, self.coefficients("table", "averaging").T),
                                               (1, self.ax2, self.ax1, self.coefficients("averaging", "table"))):
            recs, keys, profs = [], [], []
            for br_s in BRANCHES:
                sets = sax.export_sets(br_s)
                # per tag and averaging branch
                tables = [pax.averaged_profiles(products[:, rows]) for _, rows in sets.values()]
                for br_p, by_tag in zip(BRANCHES, zip(*tables)):
                    for (tag, (k, _)), prof in zip(sets.items(), by_tag):
                        # a family per (depths, averaged slot), in sorted order, keys in key order
                        order = np.argsort(_group_codes(k[:, 2:6]), kind="stable")
                        keys.append(k[order])
                        profs.append(prof[order])
                        recs += [(br_s + br_p, tag, SMALLEST_SLOT[br_p], len(keys))] * len(order)
            if not keys:
                continue
            keys, profs = np.concatenate(keys), np.concatenate(profs)
            # a new family where the block or the (depths, averaged slot) changes
            first = np.flatnonzero(np.r_[True, (np.diff(np.column_stack([[r[3] for r in recs], keys[:, 2:6]]), axis=0)
                                                != 0).any(axis=1)])
            counts = np.diff(first, append=len(keys))
            ratio = axis_profile_bmo(profs, pax.axis) / axis_cap(keys[:, 2:5], keys[:, 0])
            scale = np.maximum(np.maximum.reduceat(ratio, first), 1.0)
            heads = [(tuple(key[2:5]), key[5], recs[i][2], n) for i, key, n in
                     zip(first.tolist(), keys[first].tolist(), counts.tolist())]
            # K level, K position and the descendant index per slot
            ops = PartialParaproduct.batch(self.grid, self.om, shift_axis, heads, keys[:, [0, 1, 6, 7, 8]],
                                           profs / np.repeat(scale, counts)[:, None])
            out += [{"symmetry": recs[i][0], "cells": recs[i][1], "shift_axis": shift_axis, "k": k,
                     "h0_slot": oslot, "ptype": ptype, "operator": op, "size": size}
                    for i, (k, oslot, ptype, _), op, size in zip(first.tolist(), heads, ops, scale.tolist())]
        return out

    def manifest(self) -> dict:
        cells = {}
        for br in BRANCHES:
            for name, ax in (("axis1", self.ax1), ("axis2", self.ax2)):
                sep, diag, nes = np.bincount(ax.tuples[br]["cls"], minlength=3).tolist()
                cells[f"{name}/{br}"] = {"sep": sep, "diag": diag, "nes": nes}
        return {
            "grid": {"levels": [self.grid.axes[0].levels, self.grid.axes[1].levels]},
            "alpha": self.alpha,
            "gated": False,
            "cells": cells,
            "symmetries": [f"{b1}{b2}" for b1 in BRANCHES for b2 in BRANCHES],
            "term_kinds": {
                "shift": "plain x plain and nested-cancellative combinations",
                "partial": "nested-averaged x non-averaged, both orientations",
                "full": "nested-averaged on both axes, one per symmetry",
            },
        }


def _group_codes(cols: np.ndarray) -> np.ndarray:
    """One integer per row of a nonnegative int array, ordered as the rows
    sort."""
    return np.ravel_multi_index(tuple(cols.T), tuple(cols.max(axis=0) + 1))


def _runs(sets: list[tuple], n_left: int) -> list[list[tuple]]:
    """Right sets (branch, tag, keys, reads) in runs whose stacked rows times
    n_left stay within _RUN_ENTRIES, at least one set per run."""
    runs = [[]]
    for s in sets:
        if runs[-1] and (sum(len(t[2]) for t in runs[-1]) + len(s[2])) * n_left > _RUN_ENTRIES:
            runs.append([])
        runs[-1].append(s)
    return runs


def _shift_families(br1: str, tag1: str, keys1: np.ndarray, table: np.ndarray, rows: np.ndarray, run: list[tuple]):
    """The shift families of a left factor (branch, tag, slot keys, rows of
    `table`) and a run of right sets (branch, tag, slot keys, columns), from
    one gather: per family its key (k, v, pattern, symmetry, cells), block
    count and scale (its maximum against the cap); and the anchors and the
    raveled blocks, rescaled, of the families in turn."""
    keys2 = np.concatenate([keys for _, _, keys, _ in run])
    sets = np.repeat(np.arange(len(run)), [len(keys) for _, _, keys, _ in run])
    C = table[np.ix_(rows, np.concatenate([cols for *_, cols in run]))]
    nz = np.flatnonzero(C)
    if not len(nz):
        return [], np.empty((0, 4), dtype=np.int64), np.empty(0)
    i, j = nz // C.shape[1], nz % C.shape[1]
    # one block per pair of (anchor, depths, averaged slot) groups, those of
    # axis 2 within one right set, numbered in the order their first entries come
    _, g1 = np.unique(_group_codes(keys1[:, :6]), return_inverse=True)
    _, g2 = np.unique(_group_codes(np.column_stack([sets, keys2[:, :6]])), return_inverse=True)
    _, first, pair = np.unique(g1[i] * (g2.max() + 1) + g2[j], return_index=True, return_inverse=True)
    head = np.sort(first)
    # a family per right set and (depths, averaged slot) pair, its blocks in
    # block order: the blocks are laid out family after family
    fam = _group_codes(np.column_stack([sets[j[head]], keys1[i[head], 2:6], keys2[j[head], 2:6]]))
    order = np.argsort(fam, kind="stable")
    rep1, rep2 = keys1[i[head[order]]], keys2[j[head[order]]]
    size = 1 << (rep1[:, 2:5].sum(axis=1) + rep2[:, 2:5].sum(axis=1))
    start = np.cumsum(size) - size
    at = np.empty_like(start)
    at[order] = start
    # each entry's offset in its block, from per-key offsets and depths
    cell = (_block_offset(keys1)[i] << keys2[:, 2:5].sum(axis=1)[j]) | _block_offset(keys2)[j]
    flat = np.zeros(size.sum())
    flat[at[np.searchsorted(head, first)[pair]] + cell] = C.ravel()[nz]
    bounds = np.flatnonzero(np.r_[True, np.diff(fam[order]) != 0])
    caps = axis_cap(rep1[:, 2:5], rep1[:, 0]) * axis_cap(rep2[:, 2:5], rep2[:, 0])
    scale = np.maximum(np.maximum.reduceat(np.maximum.reduceat(np.abs(flat), start) / caps, bounds), 1.0)
    ends = np.r_[start[bounds[1:]], len(flat)]
    flat /= np.repeat(scale, np.diff(ends, prepend=0))
    anchors = np.column_stack([rep1[:, :2], rep2[:, :2]])
    return [((tuple(k), tuple(v), (o1, o2), br1 + run[s][0], f"{tag1}/{run[s][1]}"), n, sc)
            for (s, *k, o1), (*v, o2), n, sc in zip(
                np.column_stack([sets[j[head[order[bounds]]]], rep1[bounds, 2:6]]).tolist(), rep2[bounds, 2:6].tolist(),
                np.diff(bounds, append=len(order)).tolist(), scale.tolist())], anchors, flat


def _block_offset(keys: np.ndarray) -> np.ndarray:
    """Per row of slot keys, the flat C-order offset of its descendant
    indices in a block of shape (2^d1, 2^d2, 2^d3)."""
    d, idx = keys[:, 2:5], keys[:, 6:9]
    return (idx[:, 0] << (d[:, 1] + d[:, 2])) | (idx[:, 1] << d[:, 2]) | idx[:, 2]


def decompose(tensor: KernelTensor, om: GridShift, **kwargs) -> Decomposition:
    return Decomposition(tensor, om, **kwargs)


def averaged_reconstruction(
    tensor: KernelTensor,
    sample_count: int | None = None,
    seed: int = 0,
    gated: bool = False,
    r: int = 2,
    gamma: float | None = None,
) -> dict:
    """Average the per-shift reconstructions back in cell space.

    With sample_count None the average runs over the full shift enumeration
    and is exact (for the gated mode the smallest-cube terms carry the
    inverse goodness probabilities of their levels).  Sampling converges at
    the Monte-Carlo rate instead.
    """
    grid = tensor.grid
    if sample_count is None:
        shifts = list(enumerate_shifts(grid))
    else:
        rng = np.random.default_rng(seed)
        shifts = [sample_shift(grid, rng) for _ in range(sample_count)]
    acc = np.zeros_like(tensor.data)
    totals: dict[AxisDecomposition, _Sparse] = {}  # per axis shift
    for om in shifts:
        dec = Decomposition(tensor, om, r=r, gamma=gamma)
        for ax in (dec.ax1, dec.ax2):
            if ax not in totals:
                # gated: each term weighted by the inverse goodness probability
                # of its smallest cube's level, and kept only when that cube is good
                totals[ax] = ax.total(ax.gated_weights() if gated else None)
        acc += _lambda_hat_to_cells(_sandwich(totals[dec.ax1], dec.lam_hat, totals[dec.ax2]), grid, om)
    acc /= len(shifts)
    resid = np.abs(acc - tensor.data).max()
    scale = np.abs(tensor.data).max()
    return {
        "residual": float(resid / (scale if scale > 0 else 1.0)),
        "n_shifts": len(shifts),
        "reconstruction": acc,
    }
