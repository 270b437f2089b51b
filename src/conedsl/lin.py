"""Affine forms over the lowering's columns, plus the constant linear maps
(svec, differences, matrix products, sums, trace) that atom graphs apply.

A LinForm represents an affine map z = C @ x + d, where x stacks the
column-major flattenings of every variable in the order the lowering
handed out their columns. C is held as raw CSR arrays (`data`, `indices`,
`indptr`) and a `width`: the number of columns handed out when the form
was built. Forms built earlier are narrower; a missing column is a zero
column, so forms of different widths combine without padding. A form
never stores two entries at one (row, column), but it may store zeros,
and the order of the entries within a row is unspecified. All arithmetic
is numpy on these arrays; the canonicalizer stacks the forms and builds
the one scipy matrix of the cone program, A. Atom graph implementations
compose these forms, and atoms that only copy entries are lowered as one
`select`. All matrix flattenings are column-major throughout the package.

Callers hand this module conformant forms and maps: a map's width is the
size of the form it applies to, two forms added have one size or one has
a single row, and an axis or a lag is one the atom accepts. Each atom's
bind and shape rule check these when the expression is built, so the
code here does not check them again. A form built from a scipy matrix is
the one way in from outside the package, and it is checked.

The arithmetic gives, bit for bit, what scipy's CSR arithmetic gives:

- An entry of a sum adds at most two terms, one from each operand.
- An entry of a product M @ C, and of M @ d, accumulates its products in
  M's stored row order, starting from 0.0, as scipy's CSR products do.
  `np.bincount` sums sequentially in that order; pairwise or unrolled
  sums (`np.add.reduceat`, `np.sum`) may round differently. So the maps
  below keep scipy's stored order too.
- Starting from 0.0 turns a -0.0 constant that passes through a product
  (`left_mul`, `broadcast_to`) into +0.0, while `select` copies it as it
  is. The sign of a zero in b reaches the export, so both stay as scipy
  had them.
- Which zeros a form stores cannot reach the export: the canonicalizer
  drops stored zeros from A and makes c dense by adding into zeros.
"""
from __future__ import annotations

from math import comb
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import ShapeError
from .linalg import svec_layout


def _lengths(indptr) -> np.ndarray:
    """The number of entries in each row (np.diff, without its overhead)."""
    return indptr[1:] - indptr[:-1]


def _entry_rows(indptr) -> np.ndarray:
    """The row of each entry."""
    return np.repeat(np.arange(indptr.size - 1), _lengths(indptr))


class SparseMap(NamedTuple):
    """A constant linear map as CSR arrays; `M @ x` applies it to a vector."""
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.bincount(_entry_rows(self.indptr),
                           weights=self.data * x[self.indices],
                           minlength=self.shape[0])


def _as_map(M) -> SparseMap:
    """M itself if it is a SparseMap; else the map of a dense matrix, with
    its nonzero entries in row-major order."""
    if isinstance(M, SparseMap):
        return M
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if np.count_nonzero(M) == M.size:  # every entry, row by row
        return SparseMap(M.ravel(), np.tile(np.arange(M.shape[1]), M.shape[0]),
                         np.arange(M.shape[0] + 1) * M.shape[1], M.shape)
    rows, cols = np.nonzero(M)
    indptr = np.zeros(M.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(M, axis=1), out=indptr[1:])
    return SparseMap(M[rows, cols], cols, indptr, M.shape)


def _distinct(values) -> bool:
    """Whether the integers in values differ, counted over their span
    (short for a variable's columns, however wide the form)."""
    return values.size < 2 or np.bincount(values - values.min()).max() <= 1


class LinForm:
    """The affine map z = C @ x + const over the first `width` columns.

    C is the CSR arrays `data`, `indices` and `indptr`, with `size` rows;
    `const` has one entry per row. A form never changes its arrays in
    place, so forms share them freely. Every operation gives what scipy's
    CSR arithmetic gave, bit for bit (see the module docstring); a form
    built from a scipy matrix, `widened` and `coef` are the way in and out
    of scipy."""

    __slots__ = ("data", "indices", "indptr", "width", "const", "size")

    def __init__(self, coef, const):
        """A form from a scipy sparse (or dense) coefficient matrix."""
        coef = sp.csr_matrix(coef, dtype=float, copy=True)
        coef.sum_duplicates()
        const = np.asarray(const, dtype=float).ravel()
        if coef.shape[0] != const.size:
            raise ShapeError("constant length does not match form size")
        self.data = coef.data
        self.indices = coef.indices.astype(np.int64)
        self.indptr = coef.indptr.astype(np.int64)
        self.width, self.const, self.size = coef.shape[1], const, const.size

    @staticmethod
    def _of(data, indices, indptr, width, const) -> "LinForm":
        """A form of these arrays, which it shares: no form's arrays are
        ever changed in place."""
        form = object.__new__(LinForm)
        form.data, form.indices, form.indptr = data, indices, indptr
        form.width, form.const, form.size = width, const, const.size
        return form

    @staticmethod
    def constant(vec) -> "LinForm":
        vec = np.asarray(vec, dtype=float).ravel()
        return LinForm._of(np.zeros(0), np.zeros(0, dtype=np.int64),
                           np.zeros(vec.size + 1, dtype=np.int64), 0, vec)

    @staticmethod
    def columns(start: int, n: int) -> "LinForm":
        """The identity on columns start..start+n-1: one variable's value."""
        return LinForm._of(np.ones(n), np.arange(start, start + n),
                           np.arange(n + 1), start + n, np.zeros(n))

    @property
    def coef(self):
        return self.widened(self.width)

    def widened(self, width: int):
        """The coefficient matrix as a scipy CSR matrix with width columns."""
        return sp.csr_matrix((self.data, self.indices, self.indptr),
                             shape=(self.size, width))

    def entry_rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return _entry_rows(self.indptr)

    def __add__(self, other: "LinForm") -> "LinForm":
        a, b = _broadcast_pair(self, other)
        width = max(a.width, b.width)
        const = a.const + b.const
        # a constant operand adds no entries; operands on disjoint column
        # ranges (two variables, say) interleave without a sort
        if not b.data.size:
            return LinForm._of(a.data, a.indices, a.indptr, width, const)
        if not a.data.size:
            return LinForm._of(b.data, b.indices, b.indptr, width, const)
        if (a.indices.max() < b.indices.min()
                or b.indices.max() < a.indices.min()):
            return _join_rows(a, b, width, const)
        keys = np.concatenate([a.entry_rows() * width + a.indices,
                               b.entry_rows() * width + b.indices])
        vals = np.concatenate([a.data, b.data])
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], vals[order]
        # neither operand repeats a (row, column): a key occurs at most twice
        first = np.flatnonzero(keys[1:] == keys[:-1])
        if first.size:
            vals[first] += vals[first + 1]
            keys, vals = np.delete(keys, first + 1), np.delete(vals, first + 1)
        rows, cols = np.divmod(keys, width)
        indptr = np.searchsorted(rows, np.arange(a.size + 1))
        return LinForm._of(vals, cols, indptr, width, const)

    def __sub__(self, other: "LinForm") -> "LinForm":
        return self + (-other)

    def __neg__(self) -> "LinForm":
        return self * -1.0

    def __mul__(self, s: float) -> "LinForm":
        s = float(s)
        return LinForm._of(self.data * s, self.indices, self.indptr,
                           self.width, self.const * s)

    __rmul__ = __mul__

    def left_mul(self, M) -> "LinForm":
        """Apply a constant linear map: M @ form. M is a SparseMap or a
        dense matrix, (k x size)."""
        M = _as_map(M)
        # one product per entry of M and entry of the form row it meets
        lens = _lengths(self.indptr)
        if (lens == 1).all():  # a variable's form: M's entries, rescaled
            data = M.data * self.data[M.indices]
            cols = self.indices[M.indices]
            indptr = M.indptr
        else:
            lens = lens[M.indices]
            ends = np.cumsum(lens)
            total = int(ends[-1]) if ends.size else 0
            pos = np.arange(total) + np.repeat(
                self.indptr[M.indices] - ends + lens, lens)
            data = np.repeat(M.data, lens) * self.data[pos]
            cols = self.indices[pos]
            indptr = np.concatenate([[0], ends])[M.indptr]
        if not _distinct(self.indices):
            # products meet in one entry: sum each entry's in M's order
            rows = _entry_rows(indptr)
            keys, inv = np.unique(rows * self.width + cols,
                                  return_inverse=True)
            data = np.bincount(inv, weights=data)
            rows, cols = np.divmod(keys, self.width)
            indptr = np.searchsorted(rows, np.arange(M.shape[0] + 1))
        # 0.0 plus products with zeros is +0.0, whatever the zeros' signs
        const = M @ self.const if self.const.any() else np.zeros(M.shape[0])
        return LinForm._of(data, cols, indptr, self.width, const)

    def select(self, rows) -> "LinForm":
        """Row k is row rows[k] of this form; position -1 gives a zero row."""
        rows = np.asarray(rows, dtype=np.int64)
        indptr, const = self.indptr, self.const
        if rows.size and rows.min() < 0:
            # append a zero row, and let -1 index it
            indptr = np.append(indptr, indptr[-1])
            const = np.append(const, 0.0)
            rows = np.where(rows < 0, self.size, rows)
        starts = indptr[rows]
        lens = indptr[rows + 1] - starts
        out_ptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lens, out=out_ptr[1:])
        pos = np.arange(out_ptr[-1]) + np.repeat(starts - out_ptr[:-1], lens)
        return LinForm._of(self.data[pos], self.indices[pos], out_ptr,
                           self.width, const[rows])

    def scale_rows(self, d) -> "LinForm":
        d = np.asarray(d, dtype=float).ravel()
        return LinForm._of(self.data * np.repeat(d, _lengths(self.indptr)),
                           self.indices, self.indptr, self.width,
                           self.const * d)

    def broadcast_to(self, k: int) -> "LinForm":
        """k copies of a one-row form, as ones((k, 1)) @ form gives them."""
        if self.size == k:
            return self
        nnz = self.data.size
        return LinForm._of(np.tile(self.data, k), np.tile(self.indices, k),
                           np.arange(k + 1) * nnz, self.width,
                           np.full(k, 0.0 + self.const[0]))

    @staticmethod
    def concat(forms) -> "LinForm":
        forms = list(forms)
        if not forms:
            return LinForm.constant(np.zeros(0))
        if len(forms) == 1:
            return forms[0]
        parts, offset = [np.zeros(1, dtype=np.int64)], 0
        for f in forms:
            parts.append(f.indptr[1:] + offset)
            offset += f.data.size
        indptr = np.concatenate(parts)
        return LinForm._of(np.concatenate([f.data for f in forms]),
                           np.concatenate([f.indices for f in forms]),
                           indptr, max(f.width for f in forms),
                           np.concatenate([f.const for f in forms]))


def _join_rows(a: LinForm, b: LinForm, width: int, const) -> LinForm:
    """a + b for forms on disjoint columns: each row's entries of a, then
    its entries of b."""
    indptr = a.indptr + b.indptr
    pos_a = np.arange(a.data.size) + np.repeat(b.indptr[:-1],
                                               _lengths(a.indptr))
    pos_b = np.arange(b.data.size) + np.repeat(a.indptr[1:],
                                               _lengths(b.indptr))
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int64)
    data[pos_a], data[pos_b] = a.data, b.data
    indices[pos_a], indices[pos_b] = a.indices, b.indices
    return LinForm._of(data, indices, indptr, width, const)


def _broadcast_pair(a: LinForm, b: LinForm):
    """a and b at one size: the smaller, if they differ, has one row."""
    if a.size < b.size:
        return a.broadcast_to(b.size), b
    return a, b.broadcast_to(a.size)


# -- column-major layout helpers ---------------------------------------------

def flat_index(i, j, rows: int):
    """Flat position of entry (i, j) in column-major order."""
    return i + j * rows


def svec_map(n: int) -> SparseMap:
    """Map vec(X) of an n x n expression to svec of its symmetric part:
    entry k is scale[k] * (X[i, j] + X[j, i]) / 2 in the svec layout."""
    rows, cols, scale = svec_layout(n)
    half = scale / 2.0
    diag = rows == cols
    # columns ascending: X[i, j] before X[j, i]; one entry on the diagonal
    data = np.stack([np.where(diag, half + half, half), half], axis=1)
    indices = np.stack([flat_index(rows, cols, n), flat_index(cols, rows, n)],
                       axis=1)
    keep = np.stack([np.ones_like(diag), ~diag], axis=1)
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(2 - diag, out=indptr[1:])
    return SparseMap(data[keep], indices[keep], indptr, (rows.size, n * n))


def diff_map(n: int, lag: int, differences: int) -> SparseMap:
    """Iterated lagged difference operator for length-n vectors.

    Row i holds (-1)^(d-t) C(d, t) at column i + t * lag. The entries of a
    row are stored in the order that composing one-step differences with
    scipy leaves them: [d] followed by the reversed order for d - 1."""
    length = n - lag * differences
    order = [0]
    for d in range(1, differences + 1):
        order = [d] + order[::-1]
    t = np.array(order)
    coeffs = np.array([(-1.0) ** (differences - s) * comb(differences, s)
                       for s in order])
    indices = (np.arange(length)[:, None] + lag * t).ravel()
    return SparseMap(np.tile(coeffs, length), indices,
                     np.arange(length + 1) * t.size, (length, n))


def matmul_left_map(M, x_rows: int, x_cols: int) -> SparseMap:
    """Map vec(X) -> vec(M @ X): one copy of M per column of X."""
    M = _as_map(M)
    if x_cols == 1:  # A @ x for a vector x: the map is M
        return M
    nnz = M.data.size
    block = np.arange(x_cols)[:, None]
    indptr = np.append((M.indptr[:-1] + nnz * block).ravel(), nnz * x_cols)
    return SparseMap(np.tile(M.data, x_cols),
                     (M.indices + x_rows * block).ravel(), indptr,
                     (M.shape[0] * x_cols, x_rows * x_cols))


def matmul_right_map(M, x_rows: int, x_cols: int) -> SparseMap:
    """Map vec(X) -> vec(X @ M): entry (i, k) of the product sums M[j, k]
    times X[i, j] over j ascending."""
    MT = _as_map(np.atleast_2d(np.asarray(M, dtype=float)).T)
    if x_rows == 1:  # x @ M for a row x: the map is M.T
        return MT
    out_lens = np.repeat(_lengths(MT.indptr), x_rows)
    indptr = np.zeros(out_lens.size + 1, dtype=np.int64)
    np.cumsum(out_lens, out=indptr[1:])
    out_row = np.repeat(np.arange(out_lens.size), out_lens)
    k, i = np.divmod(out_row, x_rows)
    e = MT.indptr[k] + np.arange(indptr[-1]) - indptr[out_row]
    return SparseMap(MT.data[e], MT.indices[e] * x_rows + i, indptr,
                     (MT.shape[0] * x_rows, x_cols * x_rows))


def sum_axis_map(rows: int, cols: int, axis) -> SparseMap:
    if axis is None:
        return _as_map(np.ones((1, rows * cols)))
    if axis == 1:  # one total per row
        return matmul_right_map(np.ones((cols, 1)), rows, cols)
    # axis 2: one total per column
    return matmul_left_map(np.ones((1, rows)), rows, cols)


def cumsum_axis_map(rows: int, cols: int, axis: int) -> SparseMap:
    if axis == 1:  # running sums across each row
        upper = np.triu(np.ones((cols, cols)))
        return matmul_right_map(upper, rows, cols)
    # axis 2: running sums down each column
    lower = np.tril(np.ones((rows, rows)))
    return matmul_left_map(lower, rows, cols)


def trace_map(n: int) -> SparseMap:
    return SparseMap(np.ones(n), flat_index(np.arange(n), np.arange(n), n),
                     np.array([0, n]), (1, n * n))
