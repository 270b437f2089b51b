"""Canonical CSC matrices, quasidefinite solves, and the svec layout.

The canonicalizer hands the solver and the JSON interchange a SciPy CSC
matrix in canonical form. Factorization is delegated to SciPy; this
module pins down the contracts the rest of the package relies on
(duplicate handling, residual bounds, the svec layout).

A quasidefinite solve is one SuperLU solve. Its residual bound is not
checked on every call, which would cost a product with the matrix and
two norms, about as much as the solve itself: the caller checks it with
`QuasidefSolver.refine` where it chooses, and a miss switches on iterative
refinement for every later solve of that factorization.
"""
from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FactorizationError, NumericError


class SparseMatrix(sp.csc_matrix):
    """A SciPy CSC matrix whose `data`, `indices` and `indptr` also go by
    their JSON names `vals`, `rowidx` and `colptr`."""

    @property
    def vals(self) -> np.ndarray:
        return self.data

    @property
    def rowidx(self) -> np.ndarray:
        return self.indices

    @property
    def colptr(self) -> np.ndarray:
        return self.indptr


def from_scipy(mat) -> SparseMatrix:
    """A copy of mat in canonical CSC form: doubles, row indices strictly
    increasing within each column (duplicates summed) and no stored value
    exactly zero. The copy keeps the in-place steps below off mat's
    arrays."""
    A = SparseMatrix(mat, dtype=float, copy=True)
    A.sum_duplicates()
    A.eliminate_zeros()
    A.sort_indices()
    return A


def is_canonical(mat) -> bool:
    """Whether mat already is what from_scipy returns."""
    return (isinstance(mat, SparseMatrix) and mat.dtype == np.float64
            and mat.has_canonical_format and bool(mat.data.all()))


def from_dense(arr) -> SparseMatrix:
    return from_scipy(sp.csc_matrix(np.atleast_2d(np.asarray(arr, dtype=float))))


_RESID_RTOL = 1e-9
_MAX_REFINE = 5


class QuasidefSolver:
    """Cached factorization of a symmetric quasidefinite matrix M.

    The factorization is computed once per instance and reused for every
    right-hand side. `solve` is one SuperLU solve and a check that the
    result is finite; it makes no product with M. The residual bound
    ||M z - rhs|| <= 1e-9 * (1 + ||rhs||) is checked by `refine`, on the
    solves a caller chooses: the embedded solver checks the first solve of
    each factorization and the last solve before each convergence check.
    A miss is refined to the bound by iterative refinement, and from then
    on every `solve` of this factorization is refined in the same way.
    `refined` counts the solves that took a refinement step.
    """

    def __init__(self, M):
        self._csc = sp.csc_matrix(M)
        try:
            self._lu = spla.splu(self._csc)
        except RuntimeError as e:
            raise FactorizationError(f"factorization failed: {e}") from e
        self._refine_each = False
        self.refined = 0

    def solve(self, rhs) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float).ravel()
        z = self._lu.solve(rhs)
        if not np.isfinite(z).all():
            raise FactorizationError("solve produced non-finite values (singular matrix?)")
        return self.refine(rhs, z) if self._refine_each else z

    def refine(self, rhs, z) -> np.ndarray:
        """z, a solve of rhs, if it meets the residual bound; otherwise z
        refined until it does, after which every later solve is refined
        too. Raises NumericError when _MAX_REFINE steps do not reach it."""
        rhs = np.asarray(rhs, dtype=float).ravel()
        A = self._csc
        bound = _RESID_RTOL * (1.0 + np.linalg.norm(rhs))
        r = rhs - A @ z
        if np.linalg.norm(r) <= bound:
            return z
        self._refine_each = True
        self.refined += 1
        for _ in range(_MAX_REFINE):
            z = z + self._lu.solve(r)
            r = rhs - A @ z
            if np.linalg.norm(r) <= bound:
                return z
        raise NumericError("iterative refinement failed to reach residual "
                           "tolerance")


# Symmetric vectorization. Lower triangle stacked column by column with
# off-diagonal entries scaled by sqrt(2), so that <X, Y> = svec(X).svec(Y).

_SQRT2 = np.sqrt(2.0)


def svec_dim(n: int) -> int:
    return n * (n + 1) // 2


@functools.lru_cache(maxsize=None)
def svec_layout(n: int):
    """The svec layout of an n x n matrix, as (rows, cols, scale).

    Entry k of svec(X) is scale[k] * X[rows[k], cols[k]]: the lower
    triangle (rows >= cols) column by column, scale sqrt(2) off the
    diagonal and 1 on it. The arrays are cached: do not modify them.
    """
    cols, rows = np.triu_indices(n)
    return rows, cols, np.where(rows == cols, 1.0, _SQRT2)


def svec(X: np.ndarray) -> np.ndarray:
    """svec of the last two axes of X (one matrix or a stack of them)."""
    X = np.asarray(X, dtype=float)
    rows, cols, scale = svec_layout(X.shape[-1])
    return scale * X[..., rows, cols]


def unsvec(v: np.ndarray, n: int) -> np.ndarray:
    """The symmetric n x n matrix of v, or a stack of them when v is 2-D;
    v's last axis holds svec_dim(n) entries."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 2:
        v = v.ravel()
    rows, cols, scale = svec_layout(n)
    X = np.zeros(v.shape[:-1] + (n, n))
    vals = v / scale
    X[..., rows, cols] = vals
    X[..., cols, rows] = vals
    return X
