import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conedsl import linalg
from conedsl.errors import FactorizationError, NumericError
from conedsl.lin import svec_map
from conedsl.rng import SplitMix64

from oracles import mat_to_svec, svec_to_mat


def random_sparse(rng, m, n, density=0.3):
    mask = rng.uniforms(m, n) < density
    dense = rng.normals(m, n) * mask
    return dense


def test_from_dense_round_trip():
    rng = SplitMix64(1)
    for _ in range(10):
        dense = random_sparse(rng, 6, 4)
        A = linalg.from_dense(dense)
        assert np.allclose(A.toarray(), dense)
        assert A.shape == (6, 4)


def test_csc_invariants():
    rng = SplitMix64(2)
    dense = random_sparse(rng, 8, 5)
    A = linalg.from_dense(dense)
    assert A.colptr[0] == 0 and A.colptr[-1] == A.nnz
    for j in range(A.shape[1]):
        rows = A.rowidx[A.colptr[j]:A.colptr[j + 1]]
        assert np.all(np.diff(rows) > 0)
    assert not np.any(A.vals == 0.0)


def test_assemble_merges_duplicates():
    coo = sp.coo_matrix(([1.0, 2.0, -1.0, 1.0], ([0, 0, 1, 1], [0, 0, 1, 1])),
                        shape=(2, 2))
    A = linalg.from_scipy(coo)
    # duplicate entries sum; the exact-zero sum is dropped
    assert np.allclose(A.toarray(), [[3.0, 0.0], [0.0, 0.0]])
    assert A.nnz == 1
    assert np.allclose(A.toarray(), [[3.0, 0.0], [0.0, 0.0]])


def test_scipy_round_trip():
    rng = SplitMix64(5)
    dense = random_sparse(rng, 5, 5)
    A = linalg.from_scipy(sp.csc_matrix(dense))
    assert np.allclose(A.toarray(), dense)
    back = sp.csc_matrix(A)
    assert np.allclose(back.toarray(), dense)


def test_from_scipy_leaves_its_argument_unchanged():
    # one column holding rows 2, 1 (a stored zero) and 0, out of order
    mat = sp.csc_matrix(([1.0, 0.0, 2.0], [2, 1, 0], [0, 3]), shape=(3, 1))
    A = linalg.from_scipy(mat)
    assert A.vals.tolist() == [2.0, 1.0] and A.rowidx.tolist() == [0, 2]
    assert mat.data.tolist() == [1.0, 0.0, 2.0]
    assert mat.indices.tolist() == [2, 1, 0]


def quasidef_matrix(rng, n, m):
    """Random quasidefinite block matrix [[P, A'], [A, -D]]."""
    G = rng.normals(n, n)
    P = G @ G.T / n + 0.5 * np.eye(n)
    A = rng.normals(m, n)
    D = np.diag(1.0 + rng.uniforms(m))
    top = np.hstack([P, A.T])
    bot = np.hstack([A, -D])
    return np.vstack([top, bot])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_quasidef_solver_matches_spsolve(seed):
    rng = SplitMix64(seed)
    M = quasidef_matrix(rng, 8, 5)
    rhs = rng.normals(13)
    solver = linalg.QuasidefSolver(linalg.from_dense(M))
    x = solver.solve(rhs)
    expected = spla.spsolve(sp.csc_matrix(M), rhs)
    assert np.allclose(x, expected, atol=1e-10)
    # residual check directly against the system
    assert np.linalg.norm(M @ x - rhs) < 1e-9


def test_quasidef_solver_accepts_scipy():
    rng = SplitMix64(7)
    M = quasidef_matrix(rng, 4, 3)
    solver = linalg.QuasidefSolver(sp.csc_matrix(M))
    rhs = rng.normals(7)
    assert np.linalg.norm(M @ solver.solve(rhs) - rhs) < 1e-9


def badly_scaled_system(seed):
    """An 8 + 5 quasidefinite system whose rows and columns are scaled by
    powers of ten spread over up to 4 decades, and a right-hand side."""
    rng = SplitMix64(seed)
    M = quasidef_matrix(rng, 8, 5)
    spread = 1.0 + 3.0 * rng.uniform()
    s = 10.0 ** (spread * rng.normals(13))
    return s[:, None] * M * s, rng.normals(13)


class CountingMatrix:
    """A matrix that counts the products taken with it."""

    def __init__(self, M):
        self.M, self.shape, self.products = M, M.shape, 0

    def __matmul__(self, z):
        self.products += 1
        return self.M @ z


def bound_ratio(M, rhs, z):
    """||rhs - M z|| over the solver's bound 1e-9 (1 + ||rhs||)."""
    return np.linalg.norm(rhs - M @ z) / (1e-9 * (1.0 + np.linalg.norm(rhs)))


def test_solve_makes_no_product_with_the_matrix():
    rng = SplitMix64(8)
    M = quasidef_matrix(rng, 8, 5)
    solver = linalg.QuasidefSolver(linalg.from_dense(M))
    solver._csc = counting = CountingMatrix(solver._csc)
    rhs = rng.normals(13)
    for _ in range(3):
        z = solver.solve(rhs)
    assert counting.products == 0
    # a solve that meets the bound comes back from refine as it is
    assert solver.refine(rhs, z) is z
    assert counting.products == 1 and solver.refined == 0
    assert bound_ratio(M, rhs, z) <= 1.0


def test_refinement_on_demand():
    # the first solve misses the bound ~19-fold; refinement reaches it
    M, rhs = badly_scaled_system(5103)
    solver = linalg.QuasidefSolver(linalg.from_dense(M))
    K = solver._csc
    first = solver.solve(rhs)
    assert bound_ratio(K, rhs, first) > 10.0
    refined = solver.refine(rhs, first)
    assert bound_ratio(K, rhs, refined) <= 0.1
    assert solver.refined == 1
    # from the miss on, every solve of this factorization is refined
    again = solver.solve(rhs)
    assert np.array_equal(again, refined)
    assert solver.refined == 2


def test_refinement_that_cannot_reach_the_bound_raises():
    M, rhs = badly_scaled_system(25)
    solver = linalg.QuasidefSolver(linalg.from_dense(M))
    z = solver.solve(rhs)
    with pytest.raises(NumericError):
        solver.refine(rhs, z)
    # and so does every later solve, now refined per call
    with pytest.raises(NumericError):
        solver.solve(rhs)


def test_non_finite_solve_raises():
    solver = linalg.QuasidefSolver(linalg.from_dense([[1e-300]]))
    with pytest.raises(FactorizationError):
        solver.solve([1e300])


def test_svec_unsvec_round_trip():
    rng = SplitMix64(10)
    for n in (1, 2, 4, 7):
        G = rng.normals(n, n)
        S = (G + G.T) / 2
        v = linalg.svec(S)
        assert v.shape == (linalg.svec_dim(n),)
        assert np.allclose(linalg.unsvec(v, n), S, atol=1e-12)


def test_svec_is_isometry():
    rng = SplitMix64(11)
    for n in (2, 3, 6):
        G = rng.normals(n, n)
        S = (G + G.T) / 2
        H = rng.normals(n, n)
        T = (H + H.T) / 2
        # inner products are preserved
        assert np.isclose(linalg.svec(S) @ linalg.svec(T), np.sum(S * T), atol=1e-10)


def test_svec_matches_reference_layout():
    rng = SplitMix64(12)
    for n in (2, 3, 5):
        G = rng.normals(n, n)
        S = (G + G.T) / 2
        assert np.allclose(linalg.svec(S), mat_to_svec(S), atol=1e-12)
        assert np.allclose(linalg.unsvec(mat_to_svec(S), n), svec_to_mat(mat_to_svec(S), n), atol=1e-12)


def test_svec_and_unsvec_act_on_stacks():
    rng = SplitMix64(13)
    n = 4
    V = rng.normals(5, linalg.svec_dim(n))
    mats = linalg.unsvec(V, n)
    assert mats.shape == (5, n, n)
    for k in range(5):
        assert np.array_equal(mats[k], linalg.unsvec(V[k], n))
    back = linalg.svec(mats)
    assert np.allclose(back, V, atol=1e-12)
    for k in range(5):
        assert np.array_equal(back[k], linalg.svec(mats[k]))


def test_svec_map_is_svec_of_symmetric_part():
    rng = SplitMix64(14)
    for n in (1, 2, 3, 5):
        X = rng.normals(n, n)
        got = svec_map(n) @ X.ravel(order="F")
        assert np.allclose(got, mat_to_svec((X + X.T) / 2), atol=1e-12)


def test_svec_dim():
    assert [linalg.svec_dim(n) for n in range(1, 6)] == [1, 3, 6, 10, 15]
