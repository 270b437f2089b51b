"""Elementwise atoms: evaluation rules, DCP metadata, cone graphs."""
from __future__ import annotations

import numpy as np

from ..errors import DCPError, ShapeError, UnsupportedAtomError
from ..expr import Curvature, Monotonicity, Sign
from ..lin import LinForm
from .base import AtomDescriptor, const, monos, same_shape
from .structural import constant_operand, negate

_INC = Monotonicity.INCREASING
_DEC = Monotonicity.DECREASING
_NONMONO = Monotonicity.NONMONOTONE
_SIGNDEP = Monotonicity.SIGN_DEPENDENT


def _ones_form(n):
    return LinForm.constant(np.ones(n))


# -- abs ----------------------------------------------------------------------

def _abs_graph(ctx, forms, params):
    (x,) = forms
    t = ctx.aux(x.size)
    ctx.nonneg(t - x)
    ctx.nonneg(t + x)
    return t


abs_atom = AtomDescriptor(
    name="abs", display="abs",
    shape_out=same_shape,
    sign_out=lambda s, p: Sign.NONNEG,
    base_curvature=const(Curvature.CONVEX),
    monotonicity=monos(_SIGNDEP),
    evaluate=lambda v, p: np.abs(v[0]),
    graph=_abs_graph,
)


# -- entr: -x log x -----------------------------------------------------------

def _entr_eval(v, p):
    x = v[0]
    out = np.full_like(x, -np.inf)
    out[x == 0] = 0.0
    pos = x > 0
    out[pos] = -x[pos] * np.log(x[pos])
    return out


def _entr_graph(ctx, forms, params):
    # hypograph: t <= -x log x  <=>  (t, x, 1) in the exponential cone
    (x,) = forms
    t = ctx.aux(x.size)
    ctx.exp_batch(t, x, _ones_form(x.size))
    return t


entr = AtomDescriptor(
    name="entr", display="entr",
    shape_out=same_shape,
    sign_out=lambda s, p: Sign.UNKNOWN,
    base_curvature=const(Curvature.CONCAVE),
    monotonicity=monos(_NONMONO),
    evaluate=_entr_eval,
    graph=_entr_graph,
    sample=lambda rng, shapes, p: [rng.uniforms(*shapes[0]) * 2.5 + 1e-3],
)


# -- exp ------------------------------------------------------------------------

def _exp_graph(ctx, forms, params):
    (x,) = forms
    t = ctx.aux(x.size)
    ctx.exp_batch(x, _ones_form(x.size), t)
    return t


exp = AtomDescriptor(
    name="exp", display="exp",
    shape_out=same_shape,
    sign_out=lambda s, p: Sign.NONNEG,
    base_curvature=const(Curvature.CONVEX),
    monotonicity=monos(_INC),
    evaluate=lambda v, p: np.exp(v[0]),
    graph=_exp_graph,
)


# -- huber ---------------------------------------------------------------------

def _huber_eval(v, p):
    x, M = v[0], p["M"]
    a = np.abs(x)
    return np.where(a <= M, x * x, 2.0 * M * a - M * M)


def _huber_graph(ctx, forms, params):
    # huber(x) = min { q^2 + 2 M n : |x| <= q + n, n >= 0 }; the square is
    # lowered through its rotated-cone form w >= q^2.
    (x,) = forms
    M = params["M"]
    n = x.size
    q = ctx.aux(n)
    nn = ctx.aux(n)
    w = ctx.aux(n)
    ctx.nonneg(nn)
    ctx.nonneg(q + nn - x)
    ctx.nonneg(q + nn + x)
    ctx.soc_batch([_ones_form(n) + w, _ones_form(n) - w, 2.0 * q])
    return w + 2.0 * M * nn


def huber(x, M=1.0):
    M, _ = constant_operand(M)
    if M.size != 1:
        raise ShapeError(f"huber threshold M must be a scalar, got shape {M.shape}")
    M = float(M.item())
    if M <= 0:
        raise DCPError("huber threshold M must be a positive constant")
    return [x], {"M": M}


huber = AtomDescriptor(
    name="huber", display="huber",
    shape_out=same_shape,
    sign_out=lambda s, p: Sign.NONNEG,
    base_curvature=const(Curvature.CONVEX),
    monotonicity=monos(_SIGNDEP),
    evaluate=_huber_eval,
    graph=_huber_graph,
    bind=huber,
)


# -- inv_pos: 1/x on x > 0 ------------------------------------------------------

def _inv_pos_graph(ctx, forms, params):
    # t x >= 1, t, x >= 0 as the cone ||(x - t, 2)|| <= x + t
    (x,) = forms
    t = ctx.aux(x.size)
    ctx.soc_batch([x + t, x - t, LinForm.constant(np.full(x.size, 2.0))])
    return t


inv_pos = AtomDescriptor(
    name="inv_pos", display="inv_pos",
    shape_out=same_shape,
    sign_out=lambda s, p: Sign.NONNEG,
    base_curvature=const(Curvature.CONVEX),
    monotonicity=monos(_DEC),
    evaluate=lambda v, p: 1.0 / v[0],
    graph=_inv_pos_graph,
    sample=lambda rng, shapes, p: [rng.uniforms(*shapes[0]) * 3.0 + 0.05],
)


# -- log -------------------------------------------------------------------------

def _log_graph(ctx, forms, params):
    (x,) = forms
    t = ctx.aux(x.size)
    ctx.exp_batch(t, _ones_form(x.size), x)
    return t


log = AtomDescriptor(
    name="log", display="log",
    shape_out=same_shape,
    sign_out=lambda s, p: Sign.UNKNOWN,
    base_curvature=const(Curvature.CONCAVE),
    monotonicity=monos(_INC),
    evaluate=lambda v, p: np.log(v[0]),
    graph=_log_graph,
    sample=lambda rng, shapes, p: [rng.uniforms(*shapes[0]) * 3.0 + 0.05],
)


# -- logistic: log(1 + e^x) ------------------------------------------------------

def _logistic_graph(ctx, forms, params):
    # t >= log(1 + e^x)  <=>  e^(x - t) + e^(-t) <= 1
    (x,) = forms
    n = x.size
    t = ctx.aux(n)
    u = ctx.aux(n)
    v = ctx.aux(n)
    ctx.exp_batch(x - t, _ones_form(n), u)
    ctx.exp_batch(-1.0 * t, _ones_form(n), v)
    ctx.nonneg(_ones_form(n) - u - v)
    return t


logistic = AtomDescriptor(
    name="logistic", display="logistic",
    shape_out=same_shape,
    sign_out=lambda s, p: Sign.NONNEG,
    base_curvature=const(Curvature.CONVEX),
    monotonicity=monos(_INC),
    evaluate=lambda v, p: np.logaddexp(0.0, v[0]),
    graph=_logistic_graph,
)


# -- max_elemwise, and min_elemwise, pos and neg built from it -----------------

def _max_elem_sign(signs, params):
    if all(s == Sign.ZERO for s in signs):
        return Sign.ZERO
    if any(s in (Sign.ZERO, Sign.NONNEG) for s in signs):
        return Sign.NONNEG
    if all(s == Sign.NONPOS for s in signs):
        return Sign.NONPOS
    return Sign.UNKNOWN


def _max_elem_graph(ctx, forms, params):
    n = max(f.size for f in forms)
    forms = [f.broadcast_to(n) for f in forms]
    t = ctx.aux(n)
    for f in forms:
        ctx.nonneg(t - f)
    return t


def max_elemwise(*args):
    if len(args) < 2:
        raise ShapeError("max_elemwise needs at least two arguments")
    return args, None


max_elemwise = AtomDescriptor(
    name="max_elemwise", display="max_elemwise",
    shape_out=same_shape,
    sign_out=_max_elem_sign,
    base_curvature=const(Curvature.CONVEX),
    monotonicity=lambda signs, params: [_INC] * len(signs),
    evaluate=lambda v, p: np.max(np.broadcast_arrays(*v), axis=0),
    graph=_max_elem_graph,
    bind=max_elemwise,
)


def min_elemwise(*args):
    """min(a, b, ...) = -max(-a, -b, ...)."""
    if len(args) < 2:
        raise ShapeError("min_elemwise needs at least two arguments")
    return negate(max_elemwise(*[negate(a) for a in args]))


def pos(x):
    """The positive part max(x, 0)."""
    return max_elemwise(x, 0.0)


def neg(x):
    """The negative part max(-x, 0)."""
    return max_elemwise(negate(x), 0.0)


# -- sqrt -----------------------------------------------------------------------

def _sqrt_graph(ctx, forms, params):
    # hypograph: t <= s with s^2 <= x, via ||(x - 1, 2 s)|| <= x + 1
    (x,) = forms
    n = x.size
    s = ctx.aux(n)
    t = ctx.aux(n)
    one = _ones_form(n)
    ctx.soc_batch([x + one, x - one, 2.0 * s])
    ctx.nonneg(s - t)
    return t


sqrt = AtomDescriptor(
    name="sqrt", display="sqrt",
    shape_out=same_shape,
    sign_out=lambda s, p: Sign.NONNEG,
    base_curvature=const(Curvature.CONCAVE),
    monotonicity=monos(_INC),
    evaluate=lambda v, p: np.sqrt(v[0]),
    graph=_sqrt_graph,
    sample=lambda rng, shapes, p: [rng.uniforms(*shapes[0]) * 4.0],
)


# -- square / power --------------------------------------------------------------

def _square_graph(ctx, forms, params):
    (x,) = forms
    n = x.size
    t = ctx.aux(n)
    one = _ones_form(n)
    ctx.soc_batch([one + t, one - t, 2.0 * x])
    return t


square = AtomDescriptor(
    name="square", display="square",
    shape_out=same_shape,
    sign_out=lambda s, p: Sign.NONNEG,
    base_curvature=const(Curvature.CONVEX),
    monotonicity=monos(_SIGNDEP),
    evaluate=lambda v, p: v[0] ** 2,
    graph=_square_graph,
)


def power(x, p):
    if p == 2:
        return square(x)
    raise UnsupportedAtomError(
        f"power exponent {p!r} is not supported; only p = 2 is available")
