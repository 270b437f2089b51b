"""Affine structural atoms: arithmetic, stacking, indexing, reductions.

These atoms never create cone rows; their graph implementations are pure
linear reindexing / combination of the argument forms. Transpose, reshape,
hstack, vstack and diag only copy entries, so they carry no graph: the
lowering takes the source of each output entry from their evaluate.
Sums, running sums and the trace are not atoms: each is a matrix product
with a constant block of ones.
"""
from __future__ import annotations

import numpy as np

from ..errors import DCPError, InputError, ShapeError
from ..expr import (ConstantExpr, Curvature, Expression,
                    Monotonicity, Shape, Sign, as_expression, as_int,
                    constant_value, make_shape, require_finite, sign_add,
                    sign_mul, sign_neg, sign_of_values)
from ..lin import diff_map, matmul_left_map, matmul_right_map
from .base import AtomDescriptor, const, monos, same_shape

_INC = Monotonicity.INCREASING
_DEC = Monotonicity.DECREASING
_NONMONO = Monotonicity.NONMONOTONE


_MONO_OF_SIGN = {Sign.ZERO: _INC, Sign.NONNEG: _INC, Sign.NONPOS: _DEC}


# -- add / negate ------------------------------------------------------------

add = AtomDescriptor(
    name="add", display="+",
    shape_out=same_shape,
    sign_out=lambda s, p: sign_add(s[0], s[1]),
    base_curvature=const(Curvature.AFFINE),
    monotonicity=monos(_INC, _INC),
    evaluate=lambda v, p: v[0] + v[1],
    graph=lambda ctx, f, p: f[0] + f[1],
    arity=2,
)

negate = AtomDescriptor(
    name="negate", display="-",
    shape_out=same_shape,
    sign_out=lambda s, p: sign_neg(s[0]),
    base_curvature=const(Curvature.AFFINE),
    monotonicity=monos(_DEC),
    evaluate=lambda v, p: -v[0],
    graph=lambda ctx, f, p: -f[0],
)


# -- products ------------------------------------------------------------------

def constant_operand(c):
    """A constant operand's values, as a 2-D array, and their sign.

    A constant node's values and sign are read off it, not classified
    again; a plain number becomes a 1 x 1 array without a node, after the
    node's own finiteness check."""
    if isinstance(c, (int, float, np.integer, np.floating)):
        values = require_finite(np.array([[float(c)]]), "constant")
        return values, sign_of_values(values)
    e = as_expression(c)
    if isinstance(e, ConstantExpr):
        return e.values, e.sign
    values = constant_value(e)
    return values, sign_of_values(values)


def _const_sign_rule(signs, params):
    return sign_mul(params["sign"], signs[0])


def _const_sign_mono(signs, params):
    return [_MONO_OF_SIGN.get(params["sign"], _NONMONO)]


def _mul_elemwise_graph(ctx, forms, params):
    # a 1 x 1 constant scales every entry; a scalar expression is first
    # repeated over the constant's shape
    c = params["c"].ravel(order="F")
    n = max(c.size, forms[0].size)
    return forms[0].broadcast_to(n).scale_rows(np.broadcast_to(c, n))


def mul_elemwise(a, b):
    """R-style `*`: elementwise, requiring one constant operand; a 1 x 1
    operand broadcasts against any shape."""
    for c, x in ((a, b), (b, a)):
        if not isinstance(c, Expression) or c.curvature == Curvature.CONSTANT:
            values, sign = constant_operand(c)
            return [x], {"c": values, "sign": sign}
    raise DCPError("cannot multiply two non-constant expressions")


def _matmul(c, x, left):
    (c, sign), x = constant_operand(c), as_expression(x)
    inner = (c.shape[1], x.shape.rows) if left else (x.shape.cols, c.shape[0])
    if inner[0] != inner[1]:
        raise ShapeError(f"matrix product inner dimensions {inner[0]} and "
                         f"{inner[1]} disagree")
    return [x], {"c": c, "sign": sign, "x_rows": x.shape.rows,
                 "x_cols": x.shape.cols}


def matmul_left(c, x):
    return _matmul(c, x, left=True)


def matmul_right(x, c):
    return _matmul(c, x, left=False)


mul_elemwise = elementwise_product = AtomDescriptor(
    name="mul_elemwise", display="*",
    shape_out=lambda shapes, p: same_shape([shapes[0], Shape(*p["c"].shape)], p),
    sign_out=_const_sign_rule,
    base_curvature=const(Curvature.AFFINE),
    monotonicity=_const_sign_mono,
    evaluate=lambda v, p: p["c"] * v[0],
    graph=_mul_elemwise_graph,
    bind=mul_elemwise,
)

matmul_left = AtomDescriptor(
    name="matmul_left", display="@",
    shape_out=lambda shapes, p: Shape(p["c"].shape[0], shapes[0].cols),
    sign_out=_const_sign_rule,
    base_curvature=const(Curvature.AFFINE),
    monotonicity=_const_sign_mono,
    evaluate=lambda v, p: p["c"] @ v[0],
    graph=lambda ctx, f, p: f[0].left_mul(
        matmul_left_map(p["c"], p["x_rows"], p["x_cols"])),
    bind=matmul_left,
)

matmul_right = AtomDescriptor(
    name="matmul_right", display="@",
    shape_out=lambda shapes, p: Shape(shapes[0].rows, p["c"].shape[1]),
    sign_out=_const_sign_rule,
    base_curvature=const(Curvature.AFFINE),
    monotonicity=_const_sign_mono,
    evaluate=lambda v, p: v[0] @ p["c"],
    graph=lambda ctx, f, p: f[0].left_mul(
        matmul_right_map(p["c"], p["x_rows"], p["x_cols"])),
    bind=matmul_right,
)


def matrix_product(a, b):
    a, b = as_expression(a), as_expression(b)
    if a.is_scalar or b.is_scalar:
        return mul_elemwise(a, b)
    if a.curvature == Curvature.CONSTANT:
        return matmul_left(a, b)
    if b.curvature == Curvature.CONSTANT:
        return matmul_right(a, b)
    raise DCPError("cannot multiply two non-constant expressions")


def divide(x, c):
    c, _ = constant_operand(c)
    if c.size != 1:
        raise ShapeError("division requires a scalar constant divisor")
    c = float(c.item())
    if c == 0:
        raise InputError("division of an expression by zero")
    return mul_elemwise(x, 1.0 / c)


# -- transpose / index / reshape -------------------------------------------------

transpose = AtomDescriptor(
    name="transpose", display="t()",
    shape_out=lambda shapes, p: Shape(shapes[0].cols, shapes[0].rows),
    sign_out=lambda s, p: s[0],
    base_curvature=const(Curvature.AFFINE),
    monotonicity=monos(_INC),
    evaluate=lambda v, p: v[0].T,
    copies_entries=True,
)


def _normalize_sel(key, n):
    # an integer or a slice selects without numbering the whole axis, so k
    # scalar indexes into one n-vector cost O(k), not O(k n)
    if isinstance(key, (int, np.integer)) and not isinstance(key, bool):
        if not -n <= key < n:
            raise IndexError(
                f"index {key} is out of bounds for axis 0 with size {n}")
        idx = np.array([key % n])
    elif isinstance(key, slice):
        idx = np.arange(*key.indices(n))
    else:
        idx = np.atleast_1d(np.arange(n)[key])
    if idx.ndim != 1 or idx.size == 0:
        raise ShapeError("index selection must keep at least one entry")
    return idx.astype(np.int64)


def index(x, key):
    x = as_expression(x)
    rows, cols = x.shape
    if isinstance(key, tuple):
        if len(key) != 2:
            raise ShapeError("matrix indexing takes at most two subscripts")
        rkey, ckey = key
    else:
        rkey, ckey = key, slice(None)
    try:
        rows_sel = _normalize_sel(rkey, rows)
        cols_sel = _normalize_sel(ckey, cols)
    except IndexError as e:
        raise ShapeError(f"index out of range: {e}") from e
    return [x], {"rows_sel": rows_sel, "cols_sel": cols_sel, "x_rows": rows}


index = AtomDescriptor(
    name="index", display="[...]",
    shape_out=lambda shapes, p: Shape(p["rows_sel"].size, p["cols_sel"].size),
    sign_out=lambda s, p: s[0],
    base_curvature=const(Curvature.AFFINE),
    monotonicity=monos(_INC),
    evaluate=lambda v, p: v[0][np.ix_(p["rows_sel"], p["cols_sel"])],
    # a direct formula, not copies_entries: numbering the whole argument
    # for every index would make k indexes into one n-vector cost O(k n)
    graph=lambda ctx, f, p: f[0].select(
        (p["rows_sel"][:, None] + p["x_rows"] * p["cols_sel"]).ravel("F")),
    bind=index,
)


def reshape_expr(x, rows, cols):
    x = as_expression(x)
    rows, cols = make_shape(rows, cols)
    if rows * cols != x.size:
        raise ShapeError(
            f"cannot reshape {tuple(x.shape)} ({x.size} entries) to "
            f"({rows}, {cols})")
    return [x], {"rows": rows, "cols": cols}


reshape_expr = AtomDescriptor(
    name="reshape", display="reshape",
    shape_out=lambda shapes, p: Shape(p["rows"], p["cols"]),
    sign_out=lambda s, p: s[0],
    base_curvature=const(Curvature.AFFINE),
    monotonicity=monos(_INC),
    evaluate=lambda v, p: v[0].reshape(p["rows"], p["cols"], order="F"),
    copies_entries=True,
    bind=reshape_expr,
)


def vec(x):
    x = as_expression(x)
    return reshape_expr(x, x.size, 1)


# -- stacking ----------------------------------------------------------------------

def _hstack_shape(shapes, params):
    if not shapes:
        raise ShapeError("hstack needs at least one argument")
    rows = shapes[0].rows
    for s in shapes[1:]:
        if s.rows != rows:
            raise ShapeError("hstack arguments must share a row count")
    return Shape(rows, sum(s.cols for s in shapes))


def _vstack_shape(shapes, params):
    if not shapes:
        raise ShapeError("vstack needs at least one argument")
    cols = shapes[0].cols
    for s in shapes[1:]:
        if s.cols != cols:
            raise ShapeError("vstack arguments must share a column count")
    return Shape(sum(s.rows for s in shapes), cols)


def _join_signs(signs, params):
    out = signs[0]
    for s in signs[1:]:
        out = sign_add(out, s)
    return out


hstack = AtomDescriptor(
    name="hstack", display="hstack",
    shape_out=_hstack_shape,
    sign_out=_join_signs,
    base_curvature=const(Curvature.AFFINE),
    monotonicity=lambda s, p: [_INC] * len(s),
    evaluate=lambda v, p: np.hstack(v),
    copies_entries=True,
    arity=None,
)

vstack = AtomDescriptor(
    name="vstack", display="vstack",
    shape_out=_vstack_shape,
    sign_out=_join_signs,
    base_curvature=const(Curvature.AFFINE),
    monotonicity=lambda s, p: [_INC] * len(s),
    evaluate=lambda v, p: np.vstack(v),
    copies_entries=True,
    arity=None,
)


# -- diag / diff --------------------------------------------------------------------

def _diag_shape(shapes, params):
    s = shapes[0]
    if s.cols == 1 or s.rows == 1:
        n = s.size
        return Shape(n, n)
    if s.rows == s.cols:
        return Shape(s.rows, 1)
    raise ShapeError("diag needs a vector or a square matrix")


def _diag_eval(v, p):
    x = v[0]
    if 1 in x.shape:
        return np.diag(x.ravel())
    return np.diag(x).reshape(-1, 1)


diag = AtomDescriptor(
    name="diag", display="diag",
    shape_out=_diag_shape,
    sign_out=lambda s, p: s[0],
    base_curvature=const(Curvature.AFFINE),
    monotonicity=monos(_INC),
    evaluate=_diag_eval,
    copies_entries=True,
)


def _diff_shape(shapes, params):
    s = shapes[0]
    if s.cols != 1:
        raise ShapeError("diff expects a column vector")
    out = s.rows - params["lag"] * params["differences"]
    if out < 1:
        raise ShapeError("diff output would be empty")
    return Shape(out, 1)


def _diff_eval(v, p):
    x = v[0].ravel()
    for _ in range(p["differences"]):
        x = x[p["lag"]:] - x[:-p["lag"]]
    return x.reshape(-1, 1)


def diff(x, lag=1, differences=1):
    what = "diff lag and differences"
    lag, differences = as_int(lag, what), as_int(differences, what)
    if lag < 1 or differences < 1:
        raise ShapeError("diff lag and differences must be >= 1")
    return [x], {"lag": lag, "differences": differences}


diff = AtomDescriptor(
    name="diff", display="diff",
    shape_out=_diff_shape,
    # differences of same-signed entries have no fixed sign, and the mixed
    # +/- coefficients make the map nonmonotone in each entry
    sign_out=lambda s, p: Sign.ZERO if s[0] == Sign.ZERO else Sign.UNKNOWN,
    base_curvature=const(Curvature.AFFINE),
    monotonicity=monos(_NONMONO),
    evaluate=_diff_eval,
    graph=lambda ctx, f, p: f[0].left_mul(
        diff_map(f[0].size, p["lag"], p["differences"])),
    bind=diff,
)


# -- reductions, as products with constant blocks of ones -------------------

def _axis(axis):
    return None if axis is None else as_int(axis, "axes")


def sum_entries(x, axis=None):
    """The sum of all entries, of each row (axis 1) or of each column
    (axis 2): a product with a block of ones."""
    x, axis = as_expression(x), _axis(axis)
    rows, cols = x.shape
    if axis is None:
        return matmul_left(np.ones((1, x.size)), x if cols == 1 else vec(x))
    if axis == 1:
        return matmul_right(x, np.ones((cols, 1)))
    if axis == 2:
        return matmul_left(np.ones((1, rows)), x)
    raise ShapeError(f"axis must be None, 1, or 2; got {axis!r}")


def cumsum_axis(x, axis):
    """Running sums along each row (axis 1) or down each column (axis 2):
    a product with a triangle of ones."""
    x, axis = as_expression(x), _axis(axis)
    rows, cols = x.shape
    if axis == 1:
        return matmul_right(x, np.triu(np.ones((cols, cols))))
    if axis == 2:
        return matmul_left(np.tril(np.ones((rows, rows))), x)
    raise ShapeError(f"cumsum_axis axis must be 1 or 2; got {axis!r}")


def matrix_trace(X):
    """The sum of the diagonal entries, as sum_entries(diag(X)). The square
    check is its own: diag of a vector builds a matrix instead."""
    X = as_expression(X)
    if X.shape.rows != X.shape.cols:
        raise ShapeError("matrix_trace needs a square matrix")
    return sum_entries(diag(X))
