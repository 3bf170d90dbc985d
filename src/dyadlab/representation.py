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
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np
import scipy.sparse as sp

from .core import (
    Axis,
    AxisBasis,
    AxisShift,
    ConfigError,
    DiscreteFunction,
    DyadicCube,
    GridShift,
    HaarFunction,
    ResolutionError,
    TorusGrid,
    axis_haar_vector,
    classify_goodness,
    enumerate_shifts,
    goodness_fraction,
    sample_shift,
)
from .kernels import KernelSpec, cell_centers
from .model_ops import (
    FullParaproduct,
    PartialParaproduct,
    ShiftOperator,
    axis_ops,
    axis_profile_bmo,
)

__all__ = [
    "KernelTensor",
    "KernelFormatError",
    "decomposer_bytes",
    "check_decomposer_size",
    "AxisDecomposition",
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


# bytes the decomposer's two dense arrays may take: level 4 needs 0.27 GB
# (0.7 GB peak RSS measured), level 5 needs 17 GB
DECOMPOSER_BUDGET = 1 << 30


def decomposer_bytes(grid: TorusGrid) -> int:
    """Bytes of the dense C^3 kernel tensor plus the D1^3 x D2^3 Haar
    coefficient matrix `lam_hat`, where D1, D2 are the cells per factor
    and C = D1 D2; both are C^3 float64 entries."""
    n1, n2 = grid.shape
    return 2 * 8 * (n1 * n2) ** 3


def check_decomposer_size(grid: TorusGrid) -> None:
    """Refuse, before anything is allocated, a grid whose kernel tensor and
    Haar coefficients exceed DECOMPOSER_BUDGET."""
    need = decomposer_bytes(grid)
    if need > DECOMPOSER_BUDGET:
        # need is a power of two; a header may name any level, so it is
        # printed as one and not converted to a float or a decimal string
        raise ConfigError(f"levels {[ax.levels for ax in grid.axes]}, dims "
                          f"{[ax.dim for ax in grid.axes]}: the dense kernel tensor and its Haar "
                          f"coefficients need 2^{need.bit_length() - 1} bytes, over the "
                          f"budget of {DECOMPOSER_BUDGET} bytes")


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

SEP, DIAG, NES = 0, 1, 2


def _interval_distance(a0: int, wa: int, b0: int, wb: int, n: int) -> int:
    if (b0 - a0) % n < wa or (a0 - b0) % n < wb:
        return 0
    return min((b0 - (a0 + wa)) % n, (a0 - (b0 + wb)) % n)


@dataclass
class AxisTuple:
    route: tuple
    lvl_m: int
    pos_m: int
    kind_m: int  # 0 cancellative, 1 top average
    lvl_s: int
    pos_s: int
    kind_s: int
    pos_o: int
    cls: int = SEP
    anc_level: int = 0
    anc_pos: int = 0


class AxisDecomposition:
    """Per-axis tuple tables and redistribution matrices.

    Matrix key: (branch, cell) with cell in {'sep','diag','nesC','nesP'};
    each matrix maps Haar-coefficient triples (read) to emitted-term
    coefficient triples (write), and the exact per-axis identity is
    sum over branches and cells == identity.
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
        self.basis = AxisBasis(axis, shift)
        self.D = self.basis.size
        L = axis.levels
        vol = axis.cell_volume
        tr = self.basis.transform()
        # exact expansions of the pairing profiles in the basis
        ops = axis_ops(axis, shift)
        self.unit_exp = tr @ ops.unit.T        # (D, n_cubes): h0_I expansions
        self.avg_exp = tr @ ops.avg.T          # averages 1_I/|I|
        self.ones_exp = tr @ np.ones(axis.n_cells)
        self.ops = ops
        self.tuples: dict[str, list[AxisTuple]] = {b: [] for b in BRANCHES}
        self._enumerate()
        self._good_cache: dict[tuple[int, int], bool] = {}

    # -- enumeration and classification -----------------------------------
    def _enumerate(self):
        L = self.axis.levels
        n = self.axis.n_side
        off = [self.shift.offset_cells(j)[0] for j in range(L + 1)]
        width = [1 << (L - j) for j in range(L + 1)]

        def starts(lvl, pos):
            return (pos * width[lvl] + off[lvl]) % n

        def dist(a0, wa, b0, wb):
            overlap = ((b0 - a0) % n < wa) | ((a0 - b0) % n < wb)
            g = np.minimum((b0 - (a0 + wa)) % n, (a0 - (b0 + wb)) % n)
            return np.where(overlap, 0, g)

        for branch in BRANCHES:
            for route in ROUTES[branch]:
                s_slot, m_slot, o_slot, delta, strict, min_m = route
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
                        sm, ss, so = starts(lvl_m, pm), starts(lvl_s, ps), starts(lvl_o, po)
                        wm, ws, wo = width[lvl_m], width[lvl_s], width[lvl_o]
                        d_ms = dist(sm, wm, ss, ws) / n
                        d_os = dist(so, wo, ss, ws) / n
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
                                for i in range(len(pm)):
                                    self.tuples[branch].append(AxisTuple(
                                        route, lvl_m, int(pm[i]), kind_m,
                                        lvl_s, int(ps[i]), kind_s, int(po[i]),
                                        int(cls[i]), int(anc_lvl[i]), int(anc_pos[i]),
                                    ))

    def _cube(self, level, pos):
        return DyadicCube(self.axis, level, (pos,), self.shift)

    def good(self, level: int, pos: int) -> bool:
        key = (level, pos)
        if key not in self._good_cache:
            self._good_cache[key] = classify_goodness(
                self._cube(level, pos), r=self.r, gamma=self.gamma, alpha=self.alpha
            )
        return self._good_cache[key]

    # -- decay certificates ---------------------------------------------------
    def nested_inside(self, t: AxisTuple) -> bool:
        """Smallest cube strictly inside its chain anchor (the configuration
        the nested coefficient bounds quantify over)."""
        cstar = self._chain_child(t)
        cs = self._cube(t.lvl_s, t.pos_s)
        n = self.axis.n_side
        rel = (cs.start_cells()[0] - cstar.start_cells()[0]) % n
        return min(rel, cstar.width_cells - rel - cs.width_cells) > 0

    def well_separated(self, t: AxisTuple) -> bool:
        """At least one smallest-cube length between the smallest cube and
        both partners (the quantitative separated configuration)."""
        n = self.axis.n_side
        L = self.axis.levels
        delta = t.route[3]
        off = [self.shift.offset_cells(j)[0] for j in range(L + 1)]
        w = [1 << (L - j) for j in range(L + 1)]
        sm = (t.pos_m * w[t.lvl_m] + off[t.lvl_m]) % n
        so = (t.pos_o * w[t.lvl_m + delta] + off[t.lvl_m + delta]) % n
        ss = (t.pos_s * w[t.lvl_s] + off[t.lvl_s]) % n
        d = max(
            _interval_distance(sm, w[t.lvl_m], ss, w[t.lvl_s], n),
            _interval_distance(so, w[t.lvl_m + delta], ss, w[t.lvl_s], n),
        )
        return d >= w[t.lvl_s]

    # -- per-tuple read/write vectors ---------------------------------------
    def _hot_index(self, kind: int, level: int, pos: int) -> int:
        # basis order: the top average comes first, then cancellative cubes
        return 0 if kind == 1 else 1 + self.ops.canc_index(level, pos)

    def _one_hot(self, kind: int, level: int, pos: int) -> tuple[np.ndarray, np.ndarray]:
        return np.array([self._hot_index(kind, level, pos)]), np.array([1.0])

    @lru_cache(maxsize=None)
    def _cube_expansion_table(self, lvl: int) -> tuple[np.ndarray, np.ndarray]:
        """Basis expansions of the normalised indicators of all level-lvl
        cubes: index and value arrays of shape (2^lvl, lvl + 1)."""
        count = 1 << lvl
        idx = np.zeros((count, lvl + 1), dtype=int)
        val = np.zeros((count, lvl + 1))
        for pos in range(count):
            col = self.unit_exp[:, self.ops.cube_index(lvl, pos)]
            nz = np.nonzero(np.abs(col) > 1e-13)[0]
            if len(nz) != lvl + 1:
                raise AssertionError("indicator expansion must have lvl+1 terms")
            idx[pos] = nz
            val[pos] = col[nz]
        return idx, val

    def _dense_to_sparse(self, vec: np.ndarray):
        vec = np.asarray(vec)
        mask = np.abs(vec) > 1e-13 * max(1.0, np.abs(vec).max())
        return np.nonzero(mask)[0], vec[mask]

    def _slot_vectors_write(self, t: AxisTuple):
        """Write vector per slot (the functions paired with the inputs)."""
        s_slot, m_slot, o_slot, delta, _, _ = t.route
        out = [None, None, None]
        out[m_slot - 1] = self._one_hot(t.kind_m, t.lvl_m, t.pos_m)
        out[s_slot - 1] = self._one_hot(t.kind_s, t.lvl_s, t.pos_s)
        lvl_o = t.lvl_m + delta
        oi = self.ops.cube_index(lvl_o, t.pos_o)
        out[o_slot - 1] = self._dense_to_sparse(self.unit_exp[:, oi])
        return out

    def _triple(self, slots) -> tuple[np.ndarray, np.ndarray]:
        (i1, v1), (i2, v2), (i3, v3) = slots
        D = self.D
        idx = (i1[:, None, None] * D * D + i2[None, :, None] * D + i3[None, None, :]).ravel()
        val = (v1[:, None, None] * v2[None, :, None] * v3[None, None, :]).ravel()
        return idx, val

    def write_vector(self, t: AxisTuple):
        return self._triple(self._slot_vectors_write(t))

    def _chain_child(self, t: AxisTuple) -> DyadicCube:
        """Anchor child for the nested split: the averaged cube for offset
        routes, the middle's child containing the smallest cube otherwise."""
        delta = t.route[3]
        if delta == 1:
            return self._cube(t.lvl_m + 1, t.pos_o)
        return self._cube(t.lvl_s, t.pos_s).ancestor(t.lvl_s - t.lvl_m - 1)

    def read_vector_nested_C(self, t: AxisTuple):
        """Cancellative part of the nested split: complement and split-function
        pairings replacing the parent-Haar / indicator pair."""
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
        tr = self.basis.transform()
        svec = self._dense_to_sparse(tr @ (scale * s_split))
        ones = self._dense_to_sparse(self.ones_exp)
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

    def para_vectors(self, branch: str, lvl_s: int, pos_s: int):
        """Write/read pair of the collapsed averaging part, per smallest cube."""
        s_slot = SMALLEST_SLOT[branch]
        ci = self.ops.cube_index(lvl_s, pos_s)
        avg = self._dense_to_sparse(self.avg_exp[:, ci])
        ones = self._dense_to_sparse(self.ones_exp)
        s_hot = self._one_hot(0, lvl_s, pos_s)
        write = [avg, avg, avg]
        read = [ones, ones, ones]
        write[s_slot - 1] = s_hot
        read[s_slot - 1] = s_hot
        return self._triple(write), self._triple(read)

    # -- matrices -----------------------------------------------------------
    def matrix(self, branch: str, cell: str,
               gate: bool = False, weights: dict[int, float] | None = None,
               keep=None) -> sp.csr_matrix:
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
            w = weights.get(lvl_s, 1.0) if weights else 1.0
            return w

        if cell in ("sep", "diag"):
            want = SEP if cell == "sep" else DIAG
            groups: dict[tuple, list] = {}
            for t in self.tuples[branch]:
                if t.cls != want or (keep is not None and not keep(t)):
                    continue
                sc = s_scale(t.lvl_s, t.pos_s)
                if sc == 0.0:
                    continue
                s_slot, m_slot, o_slot, delta, _, _ = t.route
                base = (
                    self._hot_index(t.kind_m, t.lvl_m, t.pos_m) * self.D ** (3 - m_slot)
                    + self._hot_index(t.kind_s, t.lvl_s, t.pos_s) * self.D ** (3 - s_slot)
                )
                key = (t.lvl_m + delta, o_slot)
                groups.setdefault(key, []).append(
                    (base, self.ops.cube_index(t.lvl_m + delta, t.pos_o), sc)
                )
            parts = []
            for (lvl_o, o_slot), recs in groups.items():
                base = np.array([r[0] for r in recs])
                ocube = np.array([r[1] for r in recs])
                sc = np.array([r[2] for r in recs])
                eidx, eval_ = self._cube_expansion_table(lvl_o)
                widx = base[:, None] + eidx[ocube - self.ops.cube_offset[lvl_o]] * self.D ** (3 - o_slot)
                wval = eval_[ocube - self.ops.cube_offset[lvl_o]]
                r = np.repeat(widx, widx.shape[1], axis=1).ravel()
                c = np.tile(widx, (1, widx.shape[1])).ravel()
                v = (sc[:, None, None] * wval[:, :, None] * wval[:, None, :]).ravel()
                parts.append(sp.coo_matrix((v, (r, c)), shape=(D3, D3)))
            m = sum(parts) if parts else sp.coo_matrix((D3, D3))
            return sp.csr_matrix(m)
        elif cell == "nesC":
            for t in self.tuples[branch]:
                if t.cls != NES or (keep is not None and not keep(t)):
                    continue
                sc = s_scale(t.lvl_s, t.pos_s)
                if sc == 0.0:
                    continue
                widx, wval = self.write_vector(t)
                ridx, rval = self.read_vector_nested_C(t)
                add(widx, wval, ridx, rval, sc)
        elif cell == "nesP":
            for lvl_s in range(1, self.axis.levels):
                for pos_s in range(1 << lvl_s):
                    sc = s_scale(lvl_s, pos_s)
                    if sc == 0.0:
                        continue
                    (widx, wval), (ridx, rval) = self.para_vectors(branch, lvl_s, pos_s)
                    add(widx, wval, ridx, rval, sc)
        else:
            raise ValueError(f"unknown cell {cell!r}")
        m = sp.coo_matrix((vals, (rows, cols)), shape=(D3, D3))
        return m.tocsr()

    def branch_matrix(self, branch: str, gate: bool = False,
                      weights: dict[int, float] | None = None) -> sp.csr_matrix:
        return sum(self.matrix(branch, c, gate, weights)
                   for c in ("sep", "diag", "nesC", "nesP"))

    def total_matrix(self, gate: bool = False, weights: dict[int, float] | None = None) -> sp.csr_matrix:
        return sum(self.branch_matrix(b, gate, weights) for b in BRANCHES)

    def raw_tiling_matrix(self) -> sp.csr_matrix:
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
        return sp.coo_matrix((vals, (rows, cols)), shape=(D3, D3)).tocsr()

    def goodness_weights(self) -> dict[int, float]:
        """Inverse goodness probabilities per smallest-cube level."""
        out = {}
        for lvl in range(self.axis.levels):
            p = goodness_fraction(self.axis, lvl, r=self.r, gamma=self.gamma, alpha=self.alpha)
            if p == 0:
                raise ValueError(f"goodness probability vanishes at level {lvl}")
            out[lvl] = 1.0 / p
        return out


# ---------------------------------------------------------------------------
# common ancestor with case certificates
# ---------------------------------------------------------------------------

def common_ancestor_cubes(cubes: list[DyadicCube]) -> DyadicCube:
    """Minimal common dyadic ancestor within one shifted lattice (the level-0
    cube is the whole torus, so it always exists)."""
    axis = cubes[0].axis
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

def _lambda_hat(tensor: KernelTensor, om: GridShift) -> np.ndarray:
    """Haar-coefficient matrix of the form: rows index first-axis basis
    triples (slots 1,2,3), columns second-axis triples."""
    grid = tensor.grid
    n1, n2 = grid.shape
    b1 = AxisBasis(grid.axes[0], om.shift1)
    b2 = AxisBasis(grid.axes[1], om.shift2)
    t1 = b1.transform()
    t2 = b2.transform()
    K6 = tensor.data.reshape(n1, n2, n1, n2, n1, n2)
    # slot order: slot1 ~ (y1, y2), slot2 ~ (z1, z2), slot3 ~ (x1, x2)
    T = np.einsum("xXyYzZ,ay,bz,cx,AY,BZ,CX->abcABC", K6, t1, t1, t1, t2, t2, t2, optimize=True)
    D1, D2 = b1.size, b2.size
    return T.reshape(D1**3, D2**3)


def _lambda_hat_to_cells(lam_hat: np.ndarray, grid: TorusGrid, om: GridShift) -> np.ndarray:
    n1, n2 = grid.shape
    b1 = AxisBasis(grid.axes[0], om.shift1)
    b2 = AxisBasis(grid.axes[1], om.shift2)
    D1, D2 = b1.size, b2.size
    T = lam_hat.reshape(D1, D1, D1, D2, D2, D2)
    K6 = np.einsum("abcABC,ay,bz,cx,AY,BZ,CX->xXyYzZ", T,
                   b1.matrix, b1.matrix, b1.matrix, b2.matrix, b2.matrix, b2.matrix,
                   optimize=True)
    C = n1 * n2
    return K6.reshape(C, C, C)


CELLS = ("sep", "diag", "nesC", "nesP")


class Decomposition:
    """One run of the decomposer at a fixed lattice shift."""

    def __init__(self, tensor: KernelTensor, om: GridShift, r: int = 2,
                 gamma: float | None = None, alpha: float | None = None,
                 gated: bool = False, max_complexity: int | None = None):
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
        self.gated = gated
        self.ax1 = AxisDecomposition(grid.axes[0], om.shift1, r=r, gamma=gamma, alpha=a)
        self.ax2 = AxisDecomposition(grid.axes[1], om.shift2, r=r, gamma=gamma, alpha=a)
        self.lam_hat = _lambda_hat(tensor, om)
        self._m1 = {(b, c): self.ax1.matrix(b, c, gate=gated) for b in BRANCHES for c in CELLS}
        self._m2 = {(b, c): self.ax2.matrix(b, c, gate=gated) for b in BRANCHES for c in CELLS}

    # -- reconstruction -------------------------------------------------------
    def reconstructed_hat(self) -> np.ndarray:
        M1 = sum(self._m1.values())
        M2 = sum(self._m2.values())
        return np.asarray(M1 @ self.lam_hat @ M2.T)

    def residual_on_haar_triples(self) -> float:
        R = self.reconstructed_hat() - self.lam_hat
        scale = np.abs(self.lam_hat).max()
        return float(np.abs(R).max() / (scale if scale > 0 else 1.0))

    def term_form(self, br1: str, cell1: str, br2: str, cell2: str,
                  f1: DiscreteFunction, f2: DiscreteFunction, f3: DiscreteFunction) -> float:
        hat = np.asarray(self._m1[(br1, cell1)] @ self.lam_hat @ self._m2[(br2, cell2)].T)
        return self._eval_hat(hat, f1, f2, f3)

    def total_form(self, f1, f2, f3) -> float:
        return self._eval_hat(self.reconstructed_hat(), f1, f2, f3)

    def _eval_hat(self, hat: np.ndarray, f1, f2, f3) -> float:
        b1 = self.ax1.basis
        b2 = self.ax2.basis
        P = [b1.transform() @ f.values @ b2.transform().T for f in (f1, f2, f3)]
        D1, D2 = b1.size, b2.size
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

        def block(set1, read1, set2, read2):
            W1 = _stack_sparse([read1(t) for t in set1], self.ax1.D**3)
            W2 = _stack_sparse([read2(t) for t in set2], self.ax2.D**3)
            Cmat = np.asarray(W1 @ self.lam_hat @ W2.T)
            cap1 = np.array([self._axis_cap(t, self.ax1) for t in set1])
            cap2 = np.array([self._axis_cap(t, self.ax2) for t in set2])
            return np.abs(Cmat) / np.outer(cap1, cap2)

        raw = {
            "sep": (lambda ax, t: t.cls == SEP, "plain"),
            "diag": (lambda ax, t: t.cls == DIAG, "plain"),
            "nes": (lambda ax, t: t.cls == NES, "nested"),
        }
        certified = {
            "sep": (lambda ax, t: t.cls == SEP and ax.well_separated(t), "plain"),
            "nes": (lambda ax, t: t.cls == NES and ax.nested_inside(t), "nested"),
        }

        def reader(ax, kind):
            return ax.write_vector if kind == "plain" else ax.read_vector_nested_C

        for br1 in BRANCHES:
            for br2 in BRANCHES:
                for table, dest in ((raw, "by_class"), (certified, "certified")):
                    for n1, (sel1, kind1) in table.items():
                        set1 = [t for t in self.ax1.tuples[br1] if sel1(self.ax1, t)]
                        if not set1:
                            continue
                        for n2, (sel2, kind2) in table.items():
                            set2 = [t for t in self.ax2.tuples[br2] if sel2(self.ax2, t)]
                            if not set2:
                                continue
                            ratios = block(set1, reader(self.ax1, kind1),
                                           set2, reader(self.ax2, kind2))
                            if dest == "by_class":
                                key = tuple(sorted((n1, n2)))
                                out["by_class"][key] = max(out["by_class"].get(key, 0.0),
                                                           float(ratios.max()))
                            else:
                                key = "nested" if (n1 == n2 == "nes") else "separated"
                                out["certified"][key] = max(out["certified"][key],
                                                            float(ratios.max()))
                                out["counts"][key] += ratios.size
        return out

    def _axis_cap(self, t: AxisTuple, ax: AxisDecomposition) -> float:
        # for nested tuples the common ancestor is the chain parent itself,
        # so one formula covers every class
        s_slot, m_slot, o_slot, delta, _, _ = t.route
        lvlK = t.anc_level
        levels = [0, 0, 0]
        levels[m_slot - 1] = t.lvl_m
        levels[o_slot - 1] = t.lvl_m + delta
        levels[s_slot - 1] = t.lvl_s
        size_cap = 2.0 ** (-(sum(levels)) / 2.0 + 2 * lvlK)
        kmax = max(l - lvlK for l in levels)
        decay = 2.0 ** (-self.alpha * kmax / 2.0)
        return size_cap * decay

    def partial_symbol_report(self) -> dict:
        """Symbol oscillation norms of the extracted partial paraproducts
        against the nested-chain shape cap, for the nested x averaged cells."""
        out = {"max_ratio": 0.0, "n_symbols": 0}
        for shift_ax, para_ax, m_sh, m_pa in (
            (self.ax1, self.ax2, self._m1, self._m2),
            (self.ax2, self.ax1, self._m2, self._m1),
        ):
            first = shift_ax is self.ax1
            for br_s in BRANCHES:
                nes = [t for t in shift_ax.tuples[br_s] if t.cls == NES]
                if not nes:
                    continue
                W = _stack_sparse([shift_ax.read_vector_nested_C(t) for t in nes], shift_ax.D**3)
                for br_p in BRANCHES:
                    R, cubes = _para_reads(para_ax, br_p)
                    if R is None:
                        continue
                    tbl = np.asarray(W @ (self.lam_hat if first else self.lam_hat.T) @ R.T)
                    # tbl[t, j]: coefficient of the symbol of key t on cube j
                    rows = np.array([para_ax.ops.canc_index(l, p) for (l, p) in cubes])
                    prof = tbl @ para_ax.ops.haar[rows]
                    for i, t in enumerate(nes):
                        bmo = axis_profile_bmo(prof[i], para_ax.axis)
                        cstar = shift_ax._chain_child(t)
                        shape = (
                            (2.0 ** -(t.lvl_s - cstar.level)) ** (self.alpha / 2.0)
                            * (2.0 ** -(t.lvl_s - cstar.level)) ** 0.5
                        )
                        out["max_ratio"] = max(out["max_ratio"], bmo / shape)
                        out["n_symbols"] += 1
        return out

    def full_paraproduct_tables(self) -> dict:
        """Extracted coefficients lam[(smallest cube 1, smallest cube 2)] for
        each of the nine symmetry pairs."""
        out = {}
        for br1 in BRANCHES:
            R1, cubes1 = _para_reads(self.ax1, br1)
            for br2 in BRANCHES:
                R2, cubes2 = _para_reads(self.ax2, br2)
                tbl = np.asarray(R1 @ self.lam_hat @ R2.T)
                out[(br1, br2)] = {"lam": tbl, "cubes1": cubes1, "cubes2": cubes2,
                                   "pattern": (SMALLEST_SLOT[br1], SMALLEST_SLOT[br2])}
        return out

    def extracted_full_paraproducts(self) -> list[tuple[tuple, FullParaproduct, float]]:
        """Builder-validated operators (rescaled) plus their extracted size."""
        out = []
        for key, rec in self.full_paraproduct_tables().items():
            lam_full = np.zeros((self.ax1.ops.haar.shape[0], self.ax2.ops.haar.shape[0]))
            for i, ci in enumerate(rec["cubes1"]):
                for j, cj in enumerate(rec["cubes2"]):
                    lam_full[self.ax1.ops.canc_index(*ci), self.ax2.ops.canc_index(*cj)] = rec["lam"][i, j]
            op = FullParaproduct(self.grid, self.om, rec["pattern"], lam_full)
            size = op.coefficient_report().family_value
            if size > 0:
                op = FullParaproduct(self.grid, self.om, rec["pattern"], lam_full / size)
            out.append((key, op, size))
        return out

    # -- object-level emission ---------------------------------------------
    def _axis_slot_data(self, ax: AxisDecomposition, t: AxisTuple):
        """(anchor, per-slot levels, averaged slot, per-slot positions)."""
        s_slot, m_slot, o_slot, delta, _, _ = t.route
        levels = [0, 0, 0]
        pos = [0, 0, 0]
        levels[m_slot - 1], pos[m_slot - 1] = t.lvl_m, t.pos_m
        levels[o_slot - 1], pos[o_slot - 1] = t.lvl_m + delta, t.pos_o
        levels[s_slot - 1], pos[s_slot - 1] = t.lvl_s, t.pos_s
        return (t.anc_level, t.anc_pos), tuple(levels), o_slot, tuple(pos)

    def _exportable(self, t: AxisTuple) -> bool:
        # top-scale convention rows pair a difference slot with the flat
        # profile; they are outside the strict nine-type builders
        return t.kind_m == 0 and t.kind_s == 0

    def _slot_keys(self, ax: AxisDecomposition, tuples: list[AxisTuple]) -> list[tuple]:
        """Per tuple: (anchor, per-slot depths, averaged slot, per-slot index
        among the anchor's descendants at that depth)."""
        out = []
        for t in tuples:
            anc, lv, oslot, pos = self._axis_slot_data(ax, t)
            k = tuple(l - anc[0] for l in lv)
            d = [ax.ops.descendant_positions(anc[0], anc[1], kk) for kk in k]
            out.append((anc, k, oslot, tuple(int(np.where(d[s] == pos[s])[0][0]) for s in range(3))))
        return out

    def extracted_shift_families(self) -> list[dict]:
        """Builder-validated shift operators with their extracted sizes.

        Plain cells and the cancellative parts of nested cells regroup into
        families keyed by (complexity, averaged-slot pattern); coefficients
        are rescaled by the family maximum against the structural cap."""
        sets = [
            {br: {tag: (self._slot_keys(ax, tuples), W)
                  for tag, (tuples, W) in self._export_sets(ax, br).items()} for br in BRANCHES}
            for ax in (self.ax1, self.ax2)
        ]
        buckets: dict[tuple, dict] = {}
        for br1 in BRANCHES:
            for br2 in BRANCHES:
                for tag1, (keys1, W1) in sets[0][br1].items():
                    for tag2, (keys2, W2) in sets[1][br2].items():
                        C = np.asarray(W1 @ self.lam_hat @ W2.T)
                        for i, (anc1, k, oslot1, idx1) in enumerate(keys1):
                            for j, (anc2, v, oslot2, idx2) in enumerate(keys2):
                                if C[i, j] == 0.0:
                                    continue
                                fam = (k, v, (oslot1, oslot2), f"{br1}{br2}", f"{tag1}/{tag2}")
                                bucket = buckets.setdefault(fam, {})
                                key = ((anc1[0], anc1[1]), (anc2[0], anc2[1]))
                                shape = tuple(1 << d for d in k) + tuple(1 << d for d in v)
                                block = bucket.setdefault(key, np.zeros(shape))
                                block[idx1 + idx2] += C[i, j]
        out = []
        for (k, v, pattern, sym, cells), coeffs in sorted(buckets.items()):
            probe = ShiftOperator(self.grid, self.om, k, v, pattern, {})
            worst = max(
                (np.abs(block).max() / probe.cap(kk[0], vv[0])
                 for (kk, vv), block in coeffs.items()),
                default=0.0,
            )
            scale = max(worst, 1.0)
            op = ShiftOperator(self.grid, self.om, k, v, pattern,
                               {key: block / scale for key, block in coeffs.items()})
            out.append({"symmetry": sym, "cells": cells, "k": k, "v": v,
                        "pattern": pattern, "operator": op, "size": scale})
        return out

    def _export_sets(self, ax: AxisDecomposition, branch: str):
        plain = [t for t in ax.tuples[branch] if t.cls in (SEP, DIAG) and self._exportable(t)]
        nested = [t for t in ax.tuples[branch] if t.cls == NES and self._exportable(t)]
        out = {}
        if plain:
            out["plain"] = (plain, _stack_sparse([ax.write_vector(t) for t in plain], ax.D**3))
        if nested:
            out["nested"] = (nested, _stack_sparse([ax.read_vector_nested_C(t) for t in nested], ax.D**3))
        return out

    def extracted_partial_paraproducts(self) -> list[dict]:
        """Builder-validated partial paraproducts with extracted sizes.

        For each axis the averaged (chain-collapsed) part pairs with the
        plain or nested-cancellative structure of the other axis; the symbol
        profiles are rescaled by the family maximum against the one-axis
        oscillation cap."""
        out = []
        for shift_axis, sax, pax, flip in ((0, self.ax1, self.ax2, False),
                                           (1, self.ax2, self.ax1, True)):
            for br_s in BRANCHES:
                sets = {tag: (self._slot_keys(sax, tuples), W)
                        for tag, (tuples, W) in self._export_sets(sax, br_s).items()}
                for br_p in BRANCHES:
                    R, cubes = _para_reads(pax, br_p)
                    if R is None:
                        continue
                    rows = np.array([pax.ops.canc_index(l, p) for (l, p) in cubes])
                    hrows = pax.ops.haar[rows]
                    ptype = SMALLEST_SLOT[br_p]
                    for tag, (keys, W) in sets.items():
                        tbl = np.asarray(W @ (self.lam_hat if not flip else self.lam_hat.T) @ R.T)
                        profs = tbl @ hrows
                        buckets: dict[tuple, dict] = {}
                        for i, (anc, k, oslot, idx) in enumerate(keys):
                            fam = (k, oslot, f"{br_s}{br_p}", tag)
                            buckets.setdefault(fam, {})[((anc[0], anc[1]), idx)] = profs[i]
                        for (k, oslot, sym, cells), symbols in sorted(buckets.items()):
                            probe = PartialParaproduct(self.grid, self.om, shift_axis,
                                                       k, oslot, ptype, {})
                            worst = max(
                                (axis_profile_bmo(prof, pax.axis) / probe.cap(kk[0])
                                 for (kk, _), prof in symbols.items()),
                                default=0.0,
                            )
                            scale = max(worst, 1.0)
                            op = PartialParaproduct(
                                self.grid, self.om, shift_axis, k, oslot, ptype,
                                {key: prof / scale for key, prof in symbols.items()},
                            )
                            out.append({"symmetry": sym, "cells": cells,
                                        "shift_axis": shift_axis, "k": k,
                                        "h0_slot": oslot, "ptype": ptype,
                                        "operator": op, "size": scale})
        return out

    def manifest(self) -> dict:
        cells = {}
        for br in BRANCHES:
            for name, ax in (("axis1", self.ax1), ("axis2", self.ax2)):
                counts = {"sep": 0, "diag": 0, "nes": 0}
                for t in ax.tuples[br]:
                    counts[("sep", "diag", "nes")[t.cls]] += 1
                cells[f"{name}/{br}"] = counts
        return {
            "grid": {"levels": [self.grid.axes[0].levels, self.grid.axes[1].levels]},
            "alpha": self.alpha,
            "gated": self.gated,
            "cells": cells,
            "symmetries": [f"{b1}{b2}" for b1 in BRANCHES for b2 in BRANCHES],
            "term_kinds": {
                "shift": "plain x plain and nested-cancellative combinations",
                "partial": "nested-averaged x non-averaged, both orientations",
                "full": "nested-averaged on both axes, one per symmetry",
            },
        }


def _stack_sparse(pairs, width) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    for r, (idx, val) in enumerate(pairs):
        rows.extend([r] * len(idx))
        cols.extend(idx.tolist())
        vals.extend(val.tolist())
    return sp.coo_matrix((vals, (rows, cols)), shape=(len(pairs), width)).tocsr()


def _para_reads(ax: AxisDecomposition, branch: str):
    pairs = []
    cubes = []
    for lvl in range(1, ax.axis.levels):
        for pos in range(1 << lvl):
            _, read = ax.para_vectors(branch, lvl, pos)
            pairs.append(read)
            cubes.append((lvl, pos))
    if not pairs:
        return None, []
    return _stack_sparse(pairs, ax.D**3), cubes


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
    for om in shifts:
        dec = Decomposition(tensor, om, r=r, gamma=gamma, gated=False)
        if gated:
            w1 = dec.ax1.goodness_weights()
            w2 = dec.ax2.goodness_weights()
            M1 = sum(dec.ax1.matrix(b, c, gate=True, weights=w1) for b in BRANCHES for c in CELLS)
            M2 = sum(dec.ax2.matrix(b, c, gate=True, weights=w2) for b in BRANCHES for c in CELLS)
            hat = np.asarray(M1 @ dec.lam_hat @ M2.T)
        else:
            hat = dec.reconstructed_hat()
        acc += _lambda_hat_to_cells(hat, grid, om)
    acc /= len(shifts)
    resid = np.abs(acc - tensor.data).max()
    scale = np.abs(tensor.data).max()
    return {
        "residual": float(resid / (scale if scale > 0 else 1.0)),
        "n_shifts": len(shifts),
        "reconstruction": acc,
    }
