"""The decomposer's sparse matrices: entries in row order, repeated
entries summed exactly, and products that round as a row-by-row CSR
product does."""

from __future__ import annotations

import numpy as np

# a sparse product works over row chunks whose temporaries stay near this size
_CHUNK_BYTES = 512 << 10
# rows per strip of a transposed copy: a strip is read down its columns, and
# with a few dozen rows the pages and cache lines it touches stay cached
# (4096 x 4096 on a 2-core Xeon VM: 0.06 s in strips of 64 rows, 0.18 s in
# one copy)
_STRIP = 64


class _Sparse:
    """A sparse matrix as its entries in (row, col) order, no position
    repeated: `row`, `col` and `val` arrays, and `ptr`, where each row's
    entries start (a CSR index pointer), all read-only since kept matrices are shared."""

    def __init__(self, shape: tuple[int, int], row: np.ndarray, col: np.ndarray, val: np.ndarray):
        self.shape = shape
        self.row, self.col, self.val = row, col, val
        self.ptr = np.searchsorted(row, np.arange(shape[0] + 1))
        for a in (row, col, val, self.ptr):
            a.setflags(write=False)

    @staticmethod
    def build(shape: tuple[int, int], row, col, val) -> "_Sparse":
        """The matrix of COO triples: the triples at one position add by a
        compensated sum in input order (`_run_sums`), and the positions whose
        sum is zero are left out."""
        n_cols = shape[1]
        key = np.multiply(row, n_cols, dtype=np.int64)
        key += col
        order = np.argsort(key, kind="stable")
        val = np.asarray(val, dtype=float)[order]
        key = key[order]
        del order
        first = np.ones(len(key), dtype=bool)  # first triple of each position
        np.not_equal(key[1:], key[:-1], out=first[1:])
        head = np.flatnonzero(first)
        if len(head) < len(key):
            key, val = key[head], _run_sums(val, head)
        keep = val != 0
        key, val = key[keep], val[keep]
        return _Sparse(shape, key // n_cols, key % n_cols, val)

    @staticmethod
    def sum(mats) -> "_Sparse":
        """Entrywise sum of matrices of one shape."""
        mats = list(mats)
        return _Sparse.build(mats[0].shape, *(np.concatenate([getattr(m, name) for m in mats])
                                              for name in ("row", "col", "val")))

    @staticmethod
    def stack(mats) -> "_Sparse":
        """The rows of matrices of one width, one matrix after another."""
        first = np.cumsum([0] + [m.shape[0] for m in mats])
        return _Sparse((int(first[-1]), mats[0].shape[1]), np.concatenate([m.row + r for m, r in zip(mats, first)]),
                       np.concatenate([m.col for m in mats]), np.concatenate([m.val for m in mats]))

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        """S @ X for a dense 2-d X: each output row is 0 + a_1 x_1 + a_2 x_2
        + ... over its entries in column order, the float operations of a
        row-by-row CSR product, so the result equals that product's bit for
        bit; one pass per entry rank over row chunks of about _CHUNK_BYTES."""
        if X.ndim != 2 or X.shape[0] != self.shape[1]:
            raise ValueError(f"cannot multiply a {self.shape} matrix by an array of shape {X.shape}")
        out = np.empty((self.shape[0], X.shape[1]), dtype=np.result_type(self.val, X))
        step = max(1, _CHUNK_BYTES // max(1, out[:1].nbytes))
        terms = np.empty((min(step, len(out)),) + out.shape[1:], dtype=out.dtype)
        for r0 in range(0, len(out), step):
            block = out[r0:r0 + step]
            start, count = self.ptr[r0:r0 + len(block)], np.diff(self.ptr[r0:r0 + len(block) + 1])
            block.fill(0.0)
            for k in range(count.max()):
                rows = np.flatnonzero(count > k)
                at = start[rows] + k
                # mode="clip" gathers straight into `terms` (the columns are in range)
                t = np.take(X, self.col[at], axis=0, out=terms[:len(rows)], mode="clip")
                np.multiply(self.val[at, None], t, out=t)
                block[rows] += t
        return out


def _run_sums(val: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Sum of each run val[head[g]:head[g + 1]] (the last run ends at the
    end), term by term in order: TwoSum keeps each addition's rounding error
    exactly, and the errors are added back at the end (Ogita, Rump and
    Oishi's Sum2).  The result is as accurate as a sum in twice the working
    precision, rounded once: a run of n terms with exact sum s comes out
    within 2^-53 |s| + (n 2^-53)^2 sum |terms| of s, so terms that cancel may
    leave a residue that small.  On the decomposer's matrices up to L=4 every
    sum equals math.fsum's.  The runs of two or more terms are taken longest
    first, so the runs a pass adds to are a prefix."""
    count = np.diff(head, append=len(val))
    total = val[head]
    runs = np.flatnonzero(count > 1)
    runs = runs[np.argsort(-count[runs], kind="stable")]
    start = head[runs]
    longer = len(runs) - np.cumsum(np.bincount(count[runs]))  # runs of more than k terms
    acc, err = total[runs], np.zeros(len(runs))
    for k in range(1, len(longer) - 1):
        n = longer[k]
        a, b = acc[:n], val[start[:n] + k]
        s = a + b
        z = s - a
        err[:n] += (a - (s - z)) + (b - z)
        acc[:n] = s
    total[runs] = acc + err
    return total


def _transposed(Y: np.ndarray) -> np.ndarray:
    """A C-ordered copy of Y.T, made in strips of _STRIP rows of Y."""
    out = np.empty(Y.shape[::-1], dtype=Y.dtype)
    for r0 in range(0, len(Y), _STRIP):
        out[:, r0:r0 + _STRIP] = Y[r0:r0 + _STRIP].T
    return out


def _sandwich(A: _Sparse, X: np.ndarray, B: _Sparse) -> np.ndarray:
    """A @ X @ B.T, as B @ (A @ X).T on a contiguous copy, transposed back."""
    return (B @ _transposed(A @ X)).T
