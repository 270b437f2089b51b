"""Scalar-valued atoms: norms, extremal eigenvalues, log-det, and friends."""
from __future__ import annotations

import numpy as np

from ..errors import DCPError, ShapeError, UnsupportedAtomError
from ..expr import (Curvature, Monotonicity, Shape, Sign, as_expression,
                    constant_value)
from ..lin import LinForm
from .base import AtomDescriptor, const, monos, scalar_shape
from .elementwise import _ones_form
from .structural import constant_operand, negate

_INC = Monotonicity.INCREASING
_DEC = Monotonicity.DECREASING
_NONMONO = Monotonicity.NONMONOTONE
_SIGNDEP = Monotonicity.SIGN_DEPENDENT


def _square_in(shapes, params):
    s = shapes[0]
    if s.rows != s.cols:
        raise ShapeError(f"expected a square argument, got {tuple(s)}")
    return Shape(1, 1)


def _symmetrize(X):
    return 0.5 * (X + X.T)


# -- lambda_max, and lambda_min built from it --------------------------------

def _diag_embed(n):
    """Positions that select vec(t I) from a scalar form t."""
    return np.where(np.eye(n, dtype=bool).ravel(), 0, -1)


def _lambda_max_graph(ctx, forms, params):
    # epigraph: t I - sym(X) >= 0 in the semidefinite order
    (x,) = forms
    n = int(round(np.sqrt(x.size)))
    t = ctx.aux(1)
    ctx.psd(t.select(_diag_embed(n)) - x, n)
    return t


def _sym_sample(rng, shapes, params):
    n = shapes[0].rows
    A = rng.normals(n, n)
    return [_symmetrize(A)]


lambda_max = AtomDescriptor(
    name="lambda_max", display="lambda_max",
    shape_out=_square_in,
    sign_out=lambda s, p: Sign.UNKNOWN,
    base_curvature=const(Curvature.CONVEX),
    monotonicity=monos(_NONMONO),
    evaluate=lambda v, p: np.linalg.eigvalsh(_symmetrize(v[0]))[-1],
    graph=_lambda_max_graph,
    sample=_sym_sample,
)


def lambda_min(X):
    """The least eigenvalue of sym(X), as -lambda_max(-X)."""
    return negate(lambda_max(negate(X)))


# -- log_det ---------------------------------------------------------------------

def _log_det_eval(v, p):
    sign, logdet = np.linalg.slogdet(_symmetrize(v[0]))
    return logdet if sign > 0 else -np.inf


def _log_det_graph(ctx, forms, params):
    # hypograph via the block [[diag(z), Z^T], [Z, sym(X)]] >= 0 with Z lower
    # triangular, z = diag(Z): then prod(z) <= det(X), so sum(log z) <= log det.
    (x,) = forms
    n = int(round(np.sqrt(x.size)))
    strict = n * (n - 1) // 2
    z = ctx.aux(n)
    zlow = ctx.aux(strict)
    u = ctx.aux(n)

    # the 2n x 2n block matrix as positions in (z, zlow, vec X)
    pos = np.full((2 * n, 2 * n), -1)
    d = np.arange(n)
    pos[d, d] = pos[n + d, d] = pos[d, n + d] = d    # diag(z), Z's diagonal
    # zlow holds Z's strict lower triangle column by column; Z occupies the
    # lower-left block and is mirrored into the upper-right
    j, i = np.triu_indices(n, 1)
    pos[n + i, j] = pos[j, n + i] = n + np.arange(strict)
    pos[n:, n:] = n + strict + np.arange(n * n).reshape(n, n, order="F")
    ctx.psd(LinForm.concat([z, zlow, x]).select(pos.ravel(order="F")), 2 * n)
    ctx.exp_batch(u, _ones_form(n), z)
    return u.left_mul(np.ones((1, n)))


def _pd_sample(rng, shapes, params):
    n = shapes[0].rows
    A = rng.normals(n, n) / np.sqrt(n)
    return [A @ A.T + 0.3 * np.eye(n)]


log_det = AtomDescriptor(
    name="log_det", display="log_det",
    shape_out=_square_in,
    sign_out=lambda s, p: Sign.UNKNOWN,
    base_curvature=const(Curvature.CONCAVE),
    monotonicity=monos(_NONMONO),
    evaluate=_log_det_eval,
    graph=_log_det_graph,
    sample=_pd_sample,
)


# -- log_sum_exp -------------------------------------------------------------------

def _lse_eval(v, p):
    x = np.asarray(v[0], dtype=float).ravel()
    m = np.max(x)
    return m + np.log(np.sum(np.exp(x - m)))


def _lse_graph(ctx, forms, params):
    # t >= log sum exp(x)  <=>  sum_i e^(x_i - t) <= 1
    (x,) = forms
    n = x.size
    t = ctx.aux(1)
    u = ctx.aux(n)
    ctx.exp_batch(x - t.broadcast_to(n), _ones_form(n), u)
    ctx.nonneg(LinForm.constant([1.0]) - u.left_mul(np.ones((1, n))))
    return t


log_sum_exp = AtomDescriptor(
    name="log_sum_exp", display="log_sum_exp",
    shape_out=scalar_shape,
    sign_out=lambda s, p: Sign.UNKNOWN,
    base_curvature=const(Curvature.CONVEX),
    monotonicity=monos(_INC),
    evaluate=_lse_eval,
    graph=_lse_graph,
)


# -- max_entries, and min_entries built from it ------------------------------

def _max_entries_graph(ctx, forms, params):
    (x,) = forms
    t = ctx.aux(1)
    ctx.nonneg(t.broadcast_to(x.size) - x)
    return t


max_entries = AtomDescriptor(
    name="max_entries", display="max_entries",
    shape_out=scalar_shape,
    sign_out=lambda s, p: s[0],
    base_curvature=const(Curvature.CONVEX),
    monotonicity=monos(_INC),
    evaluate=lambda v, p: np.max(v[0]),
    graph=_max_entries_graph,
)


def min_entries(x):
    """The least entry, as -max_entries(-x)."""
    return negate(max_entries(negate(x)))


# -- norms -----------------------------------------------------------------------------

def _norm_eval(v, p):
    x = np.asarray(v[0], dtype=float).ravel()
    kind = p["p"]
    if kind == 1:
        return np.sum(np.abs(x))
    if kind == 2:
        return np.linalg.norm(x)
    return np.max(np.abs(x))


def _norm_graph(ctx, forms, params):
    (x,) = forms
    kind = params["p"]
    n = x.size
    if kind == 1:
        w = ctx.aux(n)
        ctx.nonneg(w - x)
        ctx.nonneg(w + x)
        return w.left_mul(np.ones((1, n)))
    if kind == 2:
        t = ctx.aux(1)
        ctx.soc([t, x])
        return t
    t = ctx.aux(1)
    tb = t.broadcast_to(n)
    ctx.nonneg(tb - x)
    ctx.nonneg(tb + x)
    return t


def cvxr_norm(x, p=2):
    if p in ("inf", "Inf", np.inf):
        p = np.inf
    elif p in ("fro", "F"):
        # Frobenius norm is the 2-norm of the vectorized argument, which is
        # how matrix arguments are treated for every order here
        p = 2
    if p not in (1, 2, np.inf):
        raise UnsupportedAtomError(
            f"norm order {p!r} is not supported; use 1, 2, inf, or fro")
    return [x], {"p": p}


cvxr_norm = p_norm = AtomDescriptor(
    name="cvxr_norm", display="norm",
    shape_out=scalar_shape,
    sign_out=lambda s, p: Sign.NONNEG,
    base_curvature=const(Curvature.CONVEX),
    monotonicity=monos(_SIGNDEP),
    evaluate=_norm_eval,
    graph=_norm_graph,
    bind=cvxr_norm,
)


# -- quad_form ---------------------------------------------------------------------------

def _quad_form_shape(shapes, params):
    xs, ps = shapes
    if ps.rows != ps.cols:
        raise ShapeError("quad_form matrix must be square")
    if xs.cols != 1 or xs.rows != ps.rows:
        raise ShapeError("quad_form expects a column vector matching the matrix")
    return Shape(1, 1)


def _quad_form_sign(signs, params):
    mode = params["mode"]
    if mode == "psd":
        return Sign.NONNEG
    if mode == "nsd":
        return Sign.NONPOS
    # c c' is nonnegative unless c mixes signs
    return signs[1] if params["sign"] != Sign.UNKNOWN else Sign.UNKNOWN


def _quad_form_curv(signs, params):
    return {"psd": Curvature.CONVEX, "nsd": Curvature.CONCAVE,
            "const_x": Curvature.AFFINE}[params["mode"]]


def _quad_form_monos(signs, params):
    if params["mode"] == "const_x" and params["sign"] != Sign.UNKNOWN:
        return [_NONMONO, _INC]
    return [_NONMONO, _NONMONO]


def _quad_form_eval(v, p):
    x, P = v
    return float(x.ravel() @ _symmetrize(P) @ x.ravel())


def _quad_form_graph(ctx, forms, params):
    xf, pf = forms
    mode = params["mode"]
    if mode == "const_x":
        c = params["c"].ravel()
        row = np.outer(c, c).ravel(order="F")[None, :]
        return pf.left_mul(row)
    R = params["R"]  # symmetric square root of P (or of -P when nsd)
    n = R.shape[0]
    Rx = xf.left_mul(R)
    t = ctx.aux(1)
    one = LinForm.constant([1.0])
    ctx.soc([one + t, one - t, 2.0 * Rx])
    return t if mode == "psd" else -1.0 * t


_PSD_CLASSIFY_RTOL = 1e-9


def quad_form(x, P):
    """x^T P x. Either x is constant (affine in P) or P is a constant
    definite matrix (convex when PSD, concave when NSD)."""
    x = as_expression(x)
    P = as_expression(P)
    _quad_form_shape([x.shape, P.shape], None)  # before P's values are read
    if x.curvature == Curvature.CONSTANT:
        c, sign = constant_operand(x)
        return [x, P], {"mode": "const_x", "c": c, "sign": sign}
    if P.curvature != Curvature.CONSTANT:
        raise DCPError("quad_form requires x or P to be constant")
    Pv = constant_value(P)
    if not np.allclose(Pv, Pv.T, atol=1e-9 * (1.0 + np.abs(Pv).max())):
        raise DCPError("quad_form matrix must be symmetric")
    Pv = _symmetrize(Pv)
    w, V = np.linalg.eigh(Pv)
    tol = _PSD_CLASSIFY_RTOL * max(1.0, np.abs(w).max())
    if w.min() >= -tol:
        R = V @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ V.T
        return [x, P], {"mode": "psd", "R": R}
    if w.max() <= tol:
        R = V @ np.diag(np.sqrt(np.clip(-w, 0.0, None))) @ V.T
        return [x, P], {"mode": "nsd", "R": R}
    raise DCPError("quad_form with an indefinite matrix is not DCP")


quad_form = AtomDescriptor(
    name="quad_form", display="quad_form",
    shape_out=_quad_form_shape,
    sign_out=_quad_form_sign,
    base_curvature=_quad_form_curv,
    monotonicity=_quad_form_monos,
    evaluate=_quad_form_eval,
    graph=_quad_form_graph,
    bind=quad_form,
)


# -- quad_over_lin, and sum_squares built from it ----------------------------

def _qol_shape(shapes, params):
    if not shapes[1].is_scalar:
        raise ShapeError("quad_over_lin denominator must be scalar")
    return Shape(1, 1)


def _qol_graph(ctx, forms, params):
    # ||(y - t, 2 vec(X))|| <= y + t encodes sum(X^2) <= t y with t, y >= 0
    xf, yf = forms
    t = ctx.aux(1)
    ctx.soc([yf + t, yf - t, 2.0 * xf])
    return t


quad_over_lin = AtomDescriptor(
    name="quad_over_lin", display="quad_over_lin",
    shape_out=_qol_shape,
    sign_out=lambda s, p: Sign.NONNEG,
    base_curvature=const(Curvature.CONVEX),
    monotonicity=monos(_SIGNDEP, _DEC),
    evaluate=lambda v, p: float(np.sum(v[0] ** 2) / v[1].ravel()[0]),
    graph=_qol_graph,
    sample=lambda rng, shapes, p: [rng.normals(*shapes[0]),
                                   rng.uniforms(1, 1) * 3.0 + 0.1],
    arity=2,
)


def sum_squares(x):
    """The sum of squared entries, as quad_over_lin(x, 1)."""
    return quad_over_lin(x, 1.0)
