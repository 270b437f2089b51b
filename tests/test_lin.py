"""Bit-for-bit checks of the affine-form arithmetic against scipy.

LinForm does its arithmetic in numpy on raw CSR arrays. The oracle here is
the scipy formulation it replaced, kept verbatim: every operation builds a
scipy CSR matrix. Results must agree exactly, coefficients and constants
alike, down to the sign of every zero constant, since exports write it.
The maps must also store each row's entries in scipy's order, because a
product sums its terms in that order.
"""
import numpy as np
import pytest
import scipy.sparse as sp

from conedsl import lin
from conedsl.lin import LinForm
from conedsl.linalg import svec_layout
from conedsl.rng import SplitMix64


class Oracle:
    """An affine form as one scipy CSR matrix and a constant."""

    def __init__(self, coef, const):
        self.coef = sp.csr_matrix(coef)
        self.const = np.asarray(const, dtype=float).ravel()
        self.size = self.const.size

    @property
    def width(self):
        return self.coef.shape[1]

    def widened(self, width):
        c = self.coef
        return sp.csr_matrix((c.data, c.indices, c.indptr),
                             shape=(c.shape[0], width))

    def __add__(self, other):
        a, b = self, other
        if a.size == 1 and b.size > 1:
            a = a.broadcast_to(b.size)
        elif b.size == 1 and a.size > 1:
            b = b.broadcast_to(a.size)
        width = max(a.width, b.width)
        return Oracle(a.widened(width) + b.widened(width), a.const + b.const)

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, s):
        return Oracle(self.coef * float(s), self.const * float(s))

    def left_mul(self, M):
        M = sp.csr_matrix(M)
        return Oracle(M @ self.coef, M @ self.const)

    def select(self, rows):
        rows = np.asarray(rows, dtype=np.int64)
        coef, const = self.coef, self.const
        if rows.size and rows.min() < 0:
            coef = sp.csr_matrix(
                (coef.data, coef.indices, np.append(coef.indptr, coef.nnz)),
                shape=(self.size + 1, self.width))
            const = np.append(const, 0.0)
        return Oracle(coef[rows], const[rows])

    def scale_rows(self, d):
        return Oracle(sp.diags(d) @ self.coef, self.const * d)

    def broadcast_to(self, k):
        if self.size == k:
            return self
        return self.left_mul(sp.csr_matrix(np.ones((k, 1))))

    @staticmethod
    def concat(forms):
        width = max(f.width for f in forms)
        coef = sp.vstack([f.widened(width) for f in forms], format="csr")
        return Oracle(coef, np.concatenate([f.const for f in forms]))


# -- the maps as scipy built them ---------------------------------------------

def svec_map(n):
    rows, cols, scale = svec_layout(n)
    k = np.arange(rows.size)
    return sp.csr_matrix(
        (np.concatenate([scale, scale]) / 2.0,
         (np.concatenate([k, k]),
          np.concatenate([rows + cols * n, cols + rows * n]))),
        shape=(k.size, n * n))


def diff_map(n, lag, differences):
    D = sp.eye(n, format="csr")
    length = n
    for _ in range(differences):
        out_len = length - lag
        step = sp.csr_matrix(
            (np.concatenate([-np.ones(out_len), np.ones(out_len)]),
             (np.concatenate([np.arange(out_len), np.arange(out_len)]),
              np.concatenate([np.arange(out_len), np.arange(out_len) + lag]))),
            shape=(out_len, length))
        D = step @ D
        length = out_len
    return D.tocsr()


def matmul_left_map(M, x_rows, x_cols):
    return sp.kron(sp.eye(x_cols), sp.csr_matrix(M), format="csr")


def matmul_right_map(M, x_rows, x_cols):
    return sp.kron(sp.csr_matrix(M).T, sp.eye(x_rows), format="csr")


def sum_axis_map(rows, cols, axis):
    if axis is None:
        return sp.csr_matrix(np.ones((1, rows * cols)))
    if axis == 1:
        return matmul_right_map(np.ones((cols, 1)), rows, cols)
    return matmul_left_map(np.ones((1, rows)), rows, cols)


def cumsum_axis_map(rows, cols, axis):
    if axis == 1:
        return matmul_right_map(np.triu(np.ones((cols, cols))), rows, cols)
    return matmul_left_map(np.tril(np.ones((rows, rows))), rows, cols)


def trace_map(n):
    cols = [j + j * n for j in range(n)]
    return sp.csr_matrix((np.ones(n), (np.zeros(n, dtype=np.int64), cols)),
                         shape=(1, n * n))


# -- drawing forms ------------------------------------------------------------

def sparse_values(rng, rows, cols, density):
    """Normal values with about 1 - density of them zero."""
    keep = rng.uniforms(rows, cols) < density
    return np.where(keep, rng.normals(rows, cols), 0.0)


def draw_const(rng, size):
    """Normals, with a share of +0.0 and -0.0 entries."""
    u = rng.uniforms(size)
    return np.where(u < 0.2, -0.0, np.where(u < 0.35, 0.0, rng.normals(size)))


def draw_pair(rng, size, width, density=0.4, skip=0):
    """The same form as a LinForm and as an Oracle; its first skip
    columns are zero."""
    coef = np.hstack([np.zeros((size, skip)),
                      sparse_values(rng, size, width, density)])
    const = draw_const(rng, size)
    return LinForm(sp.csr_matrix(coef), const), Oracle(coef, const)


def draw_columns_pair(rng, size):
    """A form with one entry per row and per column, as a variable's form
    has, scaled and shifted."""
    start = rng.randint(4)
    coef = sp.csr_matrix((rng.normals(size), np.arange(start, start + size),
                          np.arange(size + 1)), shape=(size, start + size))
    const = draw_const(rng, size)
    return LinForm(coef, const), Oracle(coef, const)


def assert_same(form, oracle):
    width = max(form.width, oracle.width)
    assert form.size == oracle.size
    # no (row, column) stored twice: toarray would sum such entries
    keys = form.entry_rows() * width + form.indices
    assert np.unique(keys).size == keys.size
    assert np.array_equal(form.widened(width).toarray(),
                          oracle.widened(width).toarray())
    assert np.array_equal(form.const, oracle.const)
    assert np.array_equal(np.signbit(form.const), np.signbit(oracle.const))


def assert_same_map(got, want):
    """Same entries, stored in the same order in each row."""
    want = sp.csr_matrix(want)
    assert tuple(got.shape) == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_sums_and_scalings_match_scipy(seed):
    rng = SplitMix64(1000 + seed)
    size = 1 + rng.randint(6)
    a, a0 = draw_pair(rng, size, 1 + rng.randint(7))
    b, b0 = draw_pair(rng, size, 1 + rng.randint(7))   # another width
    s, s0 = draw_pair(rng, 1, 1 + rng.randint(9))       # broadcast
    c, c0 = draw_pair(rng, size, 0)                      # constant only
    e, e0 = draw_pair(rng, size, 1 + rng.randint(4), skip=a.width)
    assert_same(a + b, a0 + b0)
    assert_same(a - b, a0 - b0)
    assert_same(b - a, b0 - a0)
    assert_same(a + s, a0 + s0)
    assert_same(s - a, s0 - a0)
    assert_same(a + c, a0 + c0)
    assert_same(c - a, c0 - a0)
    assert_same(a + e, a0 + e0)                          # disjoint columns
    assert_same(e - a, e0 - a0)
    assert_same(-a, -a0)
    assert_same(a * 2.5, a0 * 2.5)
    assert_same(0.0 * a, a0 * 0.0)
    d = np.where(rng.uniforms(size) < 0.3, 0.0, rng.normals(size))
    d[rng.randint(size)] = 0.0
    assert_same(a.scale_rows(d), a0.scale_rows(d))
    assert_same(a.scale_rows(-d), a0.scale_rows(-d))
    assert_same(s.broadcast_to(size + 3), s0.broadcast_to(size + 3))
    assert_same(LinForm.concat([a, s, b]), Oracle.concat([a0, s0, b0]))


@pytest.mark.parametrize("seed", SEEDS)
def test_select_matches_scipy(seed):
    rng = SplitMix64(2000 + seed)
    size = 1 + rng.randint(6)
    a, a0 = draw_pair(rng, size, 1 + rng.randint(8))
    rows = [rng.randint(size + 1) - 1 for _ in range(2 * size + 1)]
    rows[0] = -1
    assert_same(a.select(rows), a0.select(rows))
    assert_same(a.select(rows[1:] or [0]), a0.select(rows[1:] or [0]))
    v, v0 = draw_columns_pair(rng, size)
    assert_same(v.select(rows), v0.select(rows))
    assert_same(v.select(rows[1:] or [0]), v0.select(rows[1:] or [0]))


@pytest.mark.parametrize("seed", SEEDS)
def test_left_mul_matches_scipy(seed):
    rng = SplitMix64(3000 + seed)
    size = 1 + rng.randint(8)
    k = 1 + rng.randint(6)
    M = sparse_values(rng, k, size, 0.6)
    # several entries per column: products meet and are summed
    a, a0 = draw_pair(rng, size, 1 + rng.randint(5), density=0.7)
    assert_same(a.left_mul(M), a0.left_mul(M))
    # one entry per column, as a variable's form has
    cols, cols0 = draw_columns_pair(rng, size)
    assert_same(cols.left_mul(M), cols0.left_mul(M))
    # a dense map without zeros
    D = rng.normals(k, size)
    assert_same(a.left_mul(D), a0.left_mul(D))


def test_left_mul_sums_in_row_order_where_pairwise_sums_differ():
    # ten products meet in one entry; summed left to right they round to
    # 1.0, while numpy's unrolled and pairwise sums keep the small terms
    terms = np.array([1.0] + [2.0 ** -53] * 9)
    assert np.sum(terms) != 1.0
    assert np.add.reduceat(terms, [0])[0] != 1.0
    form = LinForm(sp.csr_matrix(terms[:, None]), terms)
    oracle = Oracle(terms[:, None], terms)
    M = np.ones((1, terms.size))
    got = form.left_mul(M)
    assert_same(got, oracle.left_mul(M))
    assert got.widened(1).toarray()[0, 0] == 1.0 and got.const[0] == 1.0


def test_minus_zero_survives_select_but_not_a_product():
    form = LinForm(sp.csr_matrix(np.ones((1, 1))), [-0.0])
    assert np.signbit(form.select([0, 0]).const).all()
    assert not np.signbit(form.broadcast_to(3).const).any()
    assert not np.signbit(form.left_mul(np.ones((2, 1))).const).any()
    oracle = Oracle(np.ones((1, 1)), [-0.0])
    assert_same(form.broadcast_to(3), oracle.broadcast_to(3))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_svec_map_matches_scipy(n):
    assert_same_map(lin.svec_map(n), svec_map(n))


@pytest.mark.parametrize("lag,differences", [(1, 1), (1, 2), (2, 3), (1, 4),
                                             (3, 2)])
def test_diff_map_keeps_scipy_order(lag, differences):
    n = 4 + lag * differences
    assert_same_map(lin.diff_map(n, lag, differences),
                    diff_map(n, lag, differences))


@pytest.mark.parametrize("x_rows,x_cols", [(1, 1), (3, 1), (3, 4), (1, 3)])
def test_matmul_maps_match_scipy(x_rows, x_cols):
    rng = SplitMix64(17 + 10 * x_rows + x_cols)
    left = sparse_values(rng, 2, x_rows, 0.6)
    right = sparse_values(rng, x_cols, 3, 0.6)
    assert_same_map(lin.matmul_left_map(left, x_rows, x_cols),
                    matmul_left_map(left, x_rows, x_cols))
    assert_same_map(lin.matmul_right_map(right, x_rows, x_cols),
                    matmul_right_map(right, x_rows, x_cols))
    dense = rng.normals(x_cols, 2)
    assert_same_map(lin.matmul_right_map(dense, x_rows, x_cols),
                    matmul_right_map(dense, x_rows, x_cols))


@pytest.mark.parametrize("rows,cols", [(1, 1), (3, 1), (1, 4), (3, 4)])
def test_reduction_maps_match_scipy(rows, cols):
    for axis in (None, 1, 2):
        assert_same_map(lin.sum_axis_map(rows, cols, axis),
                        sum_axis_map(rows, cols, axis))
    for axis in (1, 2):
        assert_same_map(lin.cumsum_axis_map(rows, cols, axis),
                        cumsum_axis_map(rows, cols, axis))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_trace_map_matches_scipy(n):
    assert_same_map(lin.trace_map(n), trace_map(n))


@pytest.mark.parametrize("seed", range(6))
def test_maps_applied_to_forms_match_scipy(seed):
    rng = SplitMix64(4000 + seed)
    n = 3 + rng.randint(3)
    maps = [(lin.svec_map(n), svec_map(n)),
            (lin.diff_map(n * n, 1, 3), diff_map(n * n, 1, 3)),
            (lin.cumsum_axis_map(n, n, 1), cumsum_axis_map(n, n, 1)),
            (lin.sum_axis_map(n, n, 2), sum_axis_map(n, n, 2)),
            (lin.trace_map(n), trace_map(n))]
    a, a0 = draw_pair(rng, n * n, 1 + rng.randint(4), density=0.8)
    for got, want in maps:
        assert_same(a.left_mul(got), a0.left_mul(want))
    assert np.array_equal(lin.svec_map(n) @ a.const, svec_map(n) @ a0.const)
