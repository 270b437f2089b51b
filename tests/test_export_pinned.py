"""Exports pinned across versions of the lowering.

Each problem is hand-built from dyadic data, so its export depends only on
the lowering (sparse matrix arithmetic, no BLAS). The sha256 of the export
must not change when the lowering is refactored; a changed hash means a
changed cone program, even where the solved optimum would agree.
Together the problems cover every GraphContext path: zero, nonneg, soc,
soc_batch, exp_batch, a psd constraint, a psd-symmetric variable and a
maximize objective.
"""
import hashlib

import numpy as np
import pytest

import conedsl as cd
from conedsl import canon


def lp_maximize():
    # zero and nonneg rows, a flipped objective with a constant offset
    x = cd.Variable(3, name="x")
    w = np.array([[0.5, -1.25, 2.0]])
    return cd.Problem(cd.Maximize(w @ x + 0.75),
                      [cd.sum_entries(x) == 1.5, x >= 0, x <= 0.75])


def second_order():
    # soc (norm, sum_squares) and soc_batch (huber, square, inv_pos, sqrt)
    x = cd.Variable(2, name="x")
    y = cd.Variable(2, name="y")
    A = np.array([[1.0, -0.5], [0.25, 2.0], [-1.5, 0.125]])
    b = np.array([[0.5], [-1.0], [0.25]])
    obj = (cd.sum_squares(A @ x - b) + cd.sum_entries(cd.huber(x - y, 0.5))
           + cd.sum_entries(cd.square(y)) + cd.sum_entries(cd.inv_pos(y + 2.0)))
    return cd.Problem(cd.Minimize(obj),
                      [cd.cvxr_norm(x + y, 2) <= 2.0,
                       cd.sum_entries(cd.sqrt(y + 1.0)) >= 0.5])


def exponential():
    # exp_batch from exp, log, entr, logistic and log_sum_exp
    x = cd.Variable(3, name="x")
    obj = (cd.log_sum_exp(x) + cd.sum_entries(cd.exp(0.5 * x))
           + cd.sum_entries(cd.logistic(x)) - cd.sum_entries(cd.entr(x + 2.0))
           - cd.sum_entries(cd.log(x + 4.0)))
    return cd.Problem(cd.Minimize(obj), [x >= -1.0, x <= 1.0])


def semidefinite():
    # a psd constraint on an affine matrix, a psd-symmetric variable, and
    # lambda_max's own psd block
    S = cd.Semidef(3, name="S")
    X = cd.Variable(2, 2, name="X")
    C = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, -0.25], [0.0, -0.25, 1.5]])
    obj = (cd.matrix_trace(C @ S) + cd.lambda_max(X)
           + cd.sum_entries(X[0, 1] - X[1, 0]))
    return cd.Problem(cd.Minimize(obj),
                      [cd.psd(X - 0.5 * np.eye(2)), S[0, 0] >= 1.0,
                       X[0, 1] == X[1, 0]])


def constant_products():
    # a constant times an expression in every form: a number on either side
    # and as a divisor, a matrix elementwise, a vector times a scalar
    # expression, mul_elemwise, both matrix products, and quad_form with a
    # constant x and a variable matrix
    x = cd.Variable(3, name="x")
    X = cd.Variable(2, 3, name="X")
    t = cd.Variable(name="t")
    P = cd.Variable(2, 2, name="P")
    C = np.array([[1.0, -0.5, 2.0], [0.25, 1.5, -0.75]])
    A = np.array([[0.5, 0.0, -1.0], [2.0, 0.25, 0.125]])
    B = np.array([[1.0, -2.0], [0.0, 0.5], [-0.25, 4.0]])
    v = np.array([[1.0], [-2.0], [0.5]])
    w = np.array([[0.75], [0.0], [-1.5]])
    obj = (cd.sum_entries(2.0 * x) + cd.sum_entries(x / -4.0)
           + cd.sum_entries(C * X) + cd.sum_entries(cd.mul_elemwise(w, x))
           + cd.quad_form(np.array([0.5, -1.0]), P))
    return cd.Problem(cd.Minimize(obj),
                      [A @ x <= 1.0, x.T @ B >= -1.0, v * t == x - 0.5,
                       X >= -1.0, X <= 1.0, P >= -2.0, P <= 2.0])


PINNED = {
    "lp_maximize": (
        lp_maximize,
        "d25b3ce72cbac528b718d42582c9fec32606a119e855ab45ee1de7111fbaff69"),
    "second_order": (
        second_order,
        "18ffc4fac76eeea746db8564d025b4ded4e3e8edfc8b44b11adcb6286d654ef0"),
    "exponential": (
        exponential,
        "bd2124a5e488c6df2324f095a0f0efb1a3fe60b70f37c4f6853b990dfbe8d192"),
    "semidefinite": (
        semidefinite,
        "ab596d625c1330dfb323a6d570c4be1f8a90df2bc67d1583dc1480dc8bfa5b9e"),
    "constant_products": (
        constant_products,
        "6f70e93e8707eca5703eb30f080b7b4f24c5c55c2464e2c420c7f09365dc688f"),
}


def export_digest(problem):
    cp, vmap = canon.canonicalize(problem)
    return hashlib.sha256(canon.export_json(cp, vmap).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_export_bytes_pinned(name):
    build, digest = PINNED[name]
    assert export_digest(build()) == digest


def test_pinned_problems_cover_every_cone():
    spec = {name: canon.canonicalize(build())[0].cones
            for name, (build, _) in PINNED.items()}
    assert spec["lp_maximize"].zero and spec["lp_maximize"].nonneg
    assert len(spec["second_order"].soc) > 4   # batched blocks and single ones
    assert spec["exponential"].ep
    assert len(spec["semidefinite"].psd) == 3
