"""Affine forms over the lowering's columns, plus the constant linear maps
(svec, differences, matrix products, sums, trace) that atom graphs apply.

A LinForm represents an affine map z = C @ x + d, where x stacks the
column-major flattenings of every variable in the order the lowering
handed out their columns. C is one CSR matrix as wide as the columns
handed out when the form was built; forms built earlier are narrower and
are widened with zero columns when forms combine. Atom graph
implementations compose these forms, atoms that only copy entries are
lowered as one `select`, and the canonicalizer stacks the forms into the
cone program data. All matrix flattenings are column-major throughout
the package.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ShapeError
from .linalg import svec_layout


class LinForm:
    __slots__ = ("size", "coef", "const")

    def __init__(self, coef, const):
        self.coef = coef
        self.const = np.asarray(const, dtype=float).ravel()
        self.size = self.const.size
        if coef.shape[0] != self.size:
            raise ShapeError("constant length does not match form size")

    @staticmethod
    def constant(vec) -> "LinForm":
        vec = np.asarray(vec, dtype=float).ravel()
        return LinForm(sp.csr_matrix((vec.size, 0)), vec)

    @staticmethod
    def columns(start: int, n: int) -> "LinForm":
        """The identity on columns start..start+n-1: one variable's value."""
        coef = sp.csr_matrix((np.ones(n), np.arange(start, start + n),
                              np.arange(n + 1)), shape=(n, start + n))
        return LinForm(coef, np.zeros(n))

    @property
    def width(self) -> int:
        return self.coef.shape[1]

    def widened(self, width: int):
        """The coefficient matrix padded with zero columns to width."""
        c = self.coef
        if c.shape[1] == width:
            return c
        return sp.csr_matrix((c.data, c.indices, c.indptr),
                             shape=(c.shape[0], width))

    def __add__(self, other: "LinForm") -> "LinForm":
        a, b = _broadcast_pair(self, other)
        width = max(a.width, b.width)
        return LinForm(a.widened(width) + b.widened(width), a.const + b.const)

    def __sub__(self, other: "LinForm") -> "LinForm":
        return self + (-other)

    def __neg__(self) -> "LinForm":
        return self * -1.0

    def __mul__(self, s: float) -> "LinForm":
        s = float(s)
        return LinForm(self.coef * s, self.const * s)

    __rmul__ = __mul__

    def left_mul(self, M) -> "LinForm":
        """Apply a constant linear map: M @ form. M is (k x size)."""
        M = sp.csr_matrix(M)
        if M.shape[1] != self.size:
            raise ShapeError("left_mul: inner dimensions disagree")
        return LinForm(M @ self.coef, M @ self.const)

    def select(self, rows) -> "LinForm":
        """Row k is row rows[k] of this form; position -1 gives a zero row."""
        rows = np.asarray(rows, dtype=np.int64)
        coef, const = self.coef, self.const
        if rows.size and rows.min() < 0:
            # append the zero row that -1 then indexes
            coef = sp.csr_matrix(
                (coef.data, coef.indices, np.append(coef.indptr, coef.nnz)),
                shape=(self.size + 1, self.width))
            const = np.append(const, 0.0)
        return LinForm(coef[rows], const[rows])

    def scale_rows(self, d) -> "LinForm":
        d = np.asarray(d, dtype=float).ravel()
        if d.size != self.size:
            raise ShapeError("scale_rows: length mismatch")
        return LinForm(sp.diags(d) @ self.coef, self.const * d)

    def broadcast_to(self, k: int) -> "LinForm":
        if self.size == k:
            return self
        if self.size != 1:
            raise ShapeError(f"cannot broadcast form of size {self.size} to {k}")
        ones = sp.csr_matrix(np.ones((k, 1)))
        return self.left_mul(ones)

    @staticmethod
    def concat(forms) -> "LinForm":
        forms = list(forms)
        if not forms:
            return LinForm.constant(np.zeros(0))
        if len(forms) == 1:
            return forms[0]
        width = max(f.width for f in forms)
        return LinForm(sp.vstack([f.widened(width) for f in forms], format="csr"),
                       np.concatenate([f.const for f in forms]))


def _broadcast_pair(a: LinForm, b: LinForm):
    if a.size == b.size:
        return a, b
    if a.size == 1:
        return a.broadcast_to(b.size), b
    if b.size == 1:
        return a, b.broadcast_to(a.size)
    raise ShapeError(f"form sizes {a.size} and {b.size} do not conform")


# -- column-major layout helpers ---------------------------------------------

def flat_index(i, j, rows: int):
    """Flat position of entry (i, j) in column-major order."""
    return i + j * rows


def svec_map(n: int) -> sp.csr_matrix:
    """Map vec(X) of an n x n expression to svec of its symmetric part:
    entry k is scale[k] * (X[i, j] + X[j, i]) / 2 in the svec layout."""
    rows, cols, scale = svec_layout(n)
    k = np.arange(rows.size)
    return sp.csr_matrix(
        (np.concatenate([scale, scale]) / 2.0,
         (np.concatenate([k, k]),
          np.concatenate([flat_index(rows, cols, n),
                          flat_index(cols, rows, n)]))),
        shape=(k.size, n * n))


def diff_map(n: int, lag: int, differences: int) -> sp.csr_matrix:
    """Iterated lagged difference operator for length-n vectors."""
    D = sp.eye(n, format="csr")
    length = n
    for _ in range(differences):
        out_len = length - lag
        if out_len < 1:
            raise ShapeError("diff output would be empty")
        step = sp.csr_matrix(
            (np.concatenate([-np.ones(out_len), np.ones(out_len)]),
             (np.concatenate([np.arange(out_len), np.arange(out_len)]),
              np.concatenate([np.arange(out_len), np.arange(out_len) + lag]))),
            shape=(out_len, length))
        D = step @ D
        length = out_len
    return D.tocsr()


def matmul_left_map(M, x_rows: int, x_cols: int) -> sp.csr_matrix:
    """Map vec(X) -> vec(M @ X)."""
    M = sp.csr_matrix(M)
    if M.shape[1] != x_rows:
        raise ShapeError("matmul: inner dimensions disagree")
    return sp.kron(sp.eye(x_cols), M, format="csr")


def matmul_right_map(M, x_rows: int, x_cols: int) -> sp.csr_matrix:
    """Map vec(X) -> vec(X @ M)."""
    M = sp.csr_matrix(M)
    if M.shape[0] != x_cols:
        raise ShapeError("matmul: inner dimensions disagree")
    return sp.kron(M.T, sp.eye(x_rows), format="csr")


def sum_axis_map(rows: int, cols: int, axis) -> sp.csr_matrix:
    if axis is None:
        return sp.csr_matrix(np.ones((1, rows * cols)))
    if axis == 1:  # one total per row
        return matmul_right_map(np.ones((cols, 1)), rows, cols)
    if axis == 2:  # one total per column
        return matmul_left_map(np.ones((1, rows)), rows, cols)
    raise ShapeError(f"axis must be None, 1, or 2; got {axis!r}")


def cumsum_axis_map(rows: int, cols: int, axis: int) -> sp.csr_matrix:
    if axis == 1:  # running sums across each row
        upper = np.triu(np.ones((cols, cols)))
        return matmul_right_map(upper, rows, cols)
    if axis == 2:  # running sums down each column
        lower = np.tril(np.ones((rows, rows)))
        return matmul_left_map(lower, rows, cols)
    raise ShapeError(f"cumsum axis must be 1 or 2; got {axis!r}")


def trace_map(n: int) -> sp.csr_matrix:
    cols = [flat_index(j, j, n) for j in range(n)]
    return sp.csr_matrix((np.ones(n), (np.zeros(n, dtype=np.int64), cols)),
                         shape=(1, n * n))
