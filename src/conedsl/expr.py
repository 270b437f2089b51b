"""Expression trees, curvature/sign inference, and constraint types.

Expressions are immutable DAGs of variables, constants, and atom
applications. Curvature is inferred by the standard composition rule:
f(g_1, ..., g_k) is convex when f is convex and each argument is affine,
or convex where f is increasing, or concave where f is decreasing; the
concave case is the mirror image. Everything that cannot be certified
this way is reported as unknown, never guessed. A node's sign and
curvature follow from its atom and its arguments alone, so each node
infers both once, when it is built. `_clause_breaks` states the rule once,
at one atom node; the node keeps the clauses it breaks, and the rejection
path of `violation_path` reads them there.
"""
from __future__ import annotations

import itertools
import numbers
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DCPError, InputError, ShapeError


class Shape(NamedTuple):
    rows: int
    cols: int

    @property
    def size(self) -> int:
        return self.rows * self.cols

    @property
    def is_scalar(self) -> bool:
        return self.rows == 1 and self.cols == 1


def as_int(value, what: str) -> int:
    """An integer argument as an int; a float or bool is refused, not
    truncated, and numpy integers are accepted."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ShapeError(f"{what} must be integers, got {value!r}")
    return int(value)


def make_shape(rows: int, cols: int = 1) -> Shape:
    rows, cols = (as_int(d, "shape dimensions") for d in (rows, cols))
    if rows < 1 or cols < 1:
        raise ShapeError(f"shape dimensions must be >= 1, got ({rows}, {cols})")
    return Shape(rows, cols)


class Sign(Enum):
    ZERO = "zero"
    NONNEG = "nonneg"
    NONPOS = "nonpos"
    UNKNOWN = "unknown"


def sign_neg(a: Sign) -> Sign:
    if a == Sign.NONNEG:
        return Sign.NONPOS
    if a == Sign.NONPOS:
        return Sign.NONNEG
    return a


def sign_add(a: Sign, b: Sign) -> Sign:
    if a == Sign.ZERO:
        return b
    if b == Sign.ZERO:
        return a
    if a == b:
        return a
    return Sign.UNKNOWN


def sign_mul(a: Sign, b: Sign) -> Sign:
    if a == Sign.ZERO or b == Sign.ZERO:
        return Sign.ZERO
    if a == Sign.UNKNOWN or b == Sign.UNKNOWN:
        return Sign.UNKNOWN
    return Sign.NONNEG if a == b else Sign.NONPOS


def sign_of_values(values: np.ndarray) -> Sign:
    lo, hi = values.min(), values.max()
    if lo >= 0:
        return Sign.ZERO if hi == 0 else Sign.NONNEG
    if hi <= 0:
        return Sign.NONPOS
    return Sign.UNKNOWN


class Curvature(Enum):
    CONSTANT = "constant"
    AFFINE = "affine"
    CONVEX = "convex"
    CONCAVE = "concave"
    UNKNOWN = "unknown"


class Monotonicity(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    NONMONOTONE = "nonmonotone"
    SIGN_DEPENDENT = "sign-dependent"


def resolve_monotonicity(mono: Monotonicity, arg_sign: Sign) -> Monotonicity:
    """Sign-dependent atoms are increasing on nonnegative arguments and
    decreasing on nonpositive ones; with unknown sign no direction holds."""
    if mono != Monotonicity.SIGN_DEPENDENT:
        return mono
    if arg_sign in (Sign.NONNEG, Sign.ZERO):
        return Monotonicity.INCREASING
    if arg_sign == Sign.NONPOS:
        return Monotonicity.DECREASING
    return Monotonicity.NONMONOTONE


# the curvatures that meet each requirement
_MEETS = {
    "affine": (Curvature.CONSTANT, Curvature.AFFINE),
    "convex": (Curvature.CONSTANT, Curvature.AFFINE, Curvature.CONVEX),
    "concave": (Curvature.CONSTANT, Curvature.AFFINE, Curvature.CONCAVE),
}
_OPPOSITE = {"affine": "affine", "convex": "concave", "concave": "convex"}

# what a convex atom asks of an argument it increases or decreases in
_CONVEX_ARG_NEED = {Monotonicity.INCREASING: "convex",
                    Monotonicity.DECREASING: "concave"}

# a node's curvature from whether its convex and its concave clause hold
_CURVATURE_OF_CLAUSES = {(True, True): Curvature.AFFINE,
                         (True, False): Curvature.CONVEX,
                         (False, True): Curvature.CONCAVE,
                         (False, False): Curvature.UNKNOWN}


_var_counter = itertools.count()


def _draw_process_token():
    global _PROCESS
    _PROCESS = os.urandom(8).hex()


# A variable's or constraint's id pairs a token drawn once per process
# (again in a forked child) with a count, so that objects pickled in one
# process keep ids apart from those of another; labels show the count.
_draw_process_token()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_draw_process_token)


class Expression:
    """Base class; every node carries its shape, sign and curvature, all
    fixed when the node is built."""

    __slots__ = ("shape", "sign", "curvature")

    # make numpy defer to the reflected operators below instead of
    # broadcasting into object arrays
    __array_ufunc__ = None
    __array_priority__ = 100.0

    def __init__(self, shape: Shape, sign: Sign, curvature: Curvature):
        self.shape = shape
        self.sign = sign
        self.curvature = curvature

    @property
    def size(self) -> int:
        return self.shape.size

    @property
    def is_scalar(self) -> bool:
        return self.shape.is_scalar

    def label(self) -> str:
        raise NotImplementedError

    def value(self, env=None) -> np.ndarray:
        """Numeric value under an assignment of variable values."""
        raise NotImplementedError

    # -- operators ---------------------------------------------------------

    def __add__(self, other):
        from . import atoms
        return atoms.add(self, as_expression(other))

    def __radd__(self, other):
        from . import atoms
        return atoms.add(as_expression(other), self)

    def __sub__(self, other):
        from . import atoms
        return atoms.add(self, atoms.negate(as_expression(other)))

    def __rsub__(self, other):
        from . import atoms
        return atoms.add(as_expression(other), atoms.negate(self))

    def __neg__(self):
        from . import atoms
        return atoms.negate(self)

    def __mul__(self, other):
        from . import atoms
        return atoms.elementwise_product(self, other)

    def __rmul__(self, other):
        from . import atoms
        return atoms.elementwise_product(other, self)

    def __matmul__(self, other):
        from . import atoms
        return atoms.matrix_product(self, as_expression(other))

    def __rmatmul__(self, other):
        from . import atoms
        return atoms.matrix_product(as_expression(other), self)

    def __truediv__(self, other):
        from . import atoms
        return atoms.divide(self, other)

    def __pow__(self, p):
        from . import atoms
        return atoms.power(self, p)

    def __getitem__(self, key):
        from . import atoms
        return atoms.index(self, key)

    @property
    def T(self):
        from . import atoms
        return atoms.transpose(self)

    # -- constraints -------------------------------------------------------

    def __le__(self, other):
        return Constraint.inequality(self, as_expression(other))

    def __ge__(self, other):
        return Constraint.inequality(as_expression(other), self)

    # Strict inequalities are accepted and treated as their closures; the
    # feasible sets of interest here are closed.
    __lt__ = __le__
    __gt__ = __ge__

    def __eq__(self, other):  # type: ignore[override]
        return Constraint.equality(self, as_expression(other))

    def __ne__(self, other):  # type: ignore[override]
        raise DCPError("!= comparisons are not valid constraints")

    __hash__ = object.__hash__


class Variable(Expression):
    """Optimization variable. attr is 'free' or 'psd-symmetric'."""

    __slots__ = ("vid", "name", "attr")

    def __init__(self, rows: int = 1, cols: int = 1, name: str | None = None,
                 attr: str = "free"):
        super().__init__(make_shape(rows, cols), Sign.UNKNOWN, Curvature.AFFINE)
        if attr not in ("free", "psd-symmetric"):
            raise ValueError(f"unknown variable attribute: {attr!r}")
        if attr == "psd-symmetric" and rows != cols:
            raise ShapeError("psd-symmetric variables must be square")
        if name is not None and not isinstance(name, str):
            raise InputError(f"variable name must be a string, got {name!r}")
        self.vid = (_PROCESS, next(_var_counter))
        self.name = name
        self.attr = attr

    def label(self) -> str:
        return f"var {self.name}" if self.name else f"var v{self.vid[1]}"

    def value(self, env=None) -> np.ndarray:
        env = env or {}
        for key in (self, self.vid, self.name):
            if key is not None and key in env:
                val = np.asarray(env[key], dtype=float)
                return to_matrix(val, self.shape)
        raise KeyError(f"no value provided for {self.label()}")


def Semidef(n: int, name: str | None = None) -> Variable:
    return Variable(n, n, name=name, attr="psd-symmetric")


def _as_2d(val) -> np.ndarray:
    """A float array with a scalar made 1 x 1 and a 1-D value a column."""
    arr = np.asarray(val, dtype=float)
    if arr.ndim == 0:
        return arr.reshape(1, 1)
    if arr.ndim == 1:
        return arr.reshape(-1, 1)
    return arr


def require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    """arr, if its entries are finite; else an InputError naming what
    holds it and its first non-finite entry in row-major order."""
    if not np.isfinite(arr).all():
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise InputError(f"{what} has non-finite entry {arr[i, j]} "
                         f"at index ({i}, {j})")
    return arr


def to_matrix(val, shape: Shape) -> np.ndarray:
    """Coerce a scalar / 1-D / 2-D value to the expression's 2-D shape."""
    arr = _as_2d(val)
    if arr.shape != (shape.rows, shape.cols):
        raise ShapeError(f"value shape {arr.shape} does not match {tuple(shape)}")
    return arr


class ConstantExpr(Expression):
    __slots__ = ("values",)

    def __init__(self, values):
        arr = _as_2d(values)
        if arr.ndim != 2:
            raise ShapeError("constants must be at most 2-dimensional")
        require_finite(arr, "constant")
        super().__init__(make_shape(*arr.shape), sign_of_values(arr),
                         Curvature.CONSTANT)
        self.values = arr

    def label(self) -> str:
        if self.is_scalar:
            return f"const {self.values[0, 0]:g}"
        return "const"

    def value(self, env=None) -> np.ndarray:
        return self.values


def Constant(values) -> ConstantExpr:
    return ConstantExpr(values)


def as_expression(obj) -> Expression:
    if isinstance(obj, Expression):
        return obj
    if isinstance(obj, (int, float, np.integer, np.floating, list, tuple, np.ndarray)):
        return ConstantExpr(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as an expression")


def constant_value(e: Expression) -> np.ndarray:
    """Numeric value of a constant subtree. A non-finite entry, such as
    log(0.0) makes, raises InputError naming the innermost node that made
    it from finite arguments."""
    if e.curvature != Curvature.CONSTANT:
        raise DCPError("expression is not constant")
    values = e.value({})
    if not np.isfinite(values).all():
        for a in getattr(e, "args", ()):
            constant_value(a)
        require_finite(values, e.label())
    return values


class AtomExpr(Expression):
    """Application of an atom to argument expressions."""

    __slots__ = ("atom", "args", "params", "_clauses")

    def __init__(self, atom, args, params=None):
        self.atom = atom
        self.args = tuple(args)
        self.params = params or {}
        shape = atom.shape_out([a.shape for a in self.args], self.params)
        signs = [a.sign for a in self.args]
        sign = atom.sign_out(signs, self.params)
        if all(a.curvature == Curvature.CONSTANT for a in self.args):
            self._clauses = None
            curvature = Curvature.CONSTANT
        else:
            self._clauses = _clause_breaks(atom, self.args, self.params, signs)
            curvature = _CURVATURE_OF_CLAUSES[self._clauses["convex"] == [],
                                              self._clauses["concave"] == []]
        super().__init__(shape, sign, curvature)

    def label(self) -> str:
        return self.atom.display

    def value(self, env=None) -> np.ndarray:
        """The atom's value at env's values; outside its domain an entry
        is inf or NaN, as numpy gives it, without a numpy warning."""
        vals = [a.value(env) for a in self.args]
        with np.errstate(all="ignore"):
            out = np.asarray(self.atom.evaluate(vals, self.params),
                             dtype=float)
        return to_matrix(out, self.shape)


def _clause_breaks(atom, args, params, signs) -> dict:
    """The composition rule at one atom node, for its two clauses.

    f(g_1, ..., g_k) is convex when f is convex and each g_i is convex
    where f increases in it, concave where f decreases, and affine
    otherwise; the concave clause asks the opposite of each argument.
    Maps "convex" and "concave" to the (argument, requirement) pairs that
    break that clause, or to None when f's base curvature rules it out.
    """
    base = atom.base_curvature(signs, params)
    needs = [_CONVEX_ARG_NEED.get(resolve_monotonicity(m, s), "affine")
             for m, s in zip(atom.monotonicity(signs, params), signs)]
    out = {}
    for clause, curv in (("convex", Curvature.CONVEX),
                         ("concave", Curvature.CONCAVE)):
        out[clause] = None
        if base in (Curvature.AFFINE, curv):
            out[clause] = [(a, n) for a, n in zip(args, needs)
                           if a.curvature not in _MEETS[n]]
        needs = [_OPPOSITE[n] for n in needs]
    return out


# -- constraints ------------------------------------------------------------

_constr_counter = itertools.count()


class Constraint:
    """Normalized constraint: body == 0, body <= 0 (elementwise), or body
    positive semidefinite. Curvature requirements are verified by dcp_check,
    not at construction time."""

    __slots__ = ("kind", "body", "cid")

    def __init__(self, kind: str, body: Expression):
        if kind not in ("eq", "ineq", "psd"):
            raise ValueError(f"unknown constraint kind {kind!r}")
        if kind == "psd" and body.shape.rows != body.shape.cols:
            raise ShapeError("psd constraints require a square expression")
        self.kind = kind
        self.body = body
        self.cid = (_PROCESS, next(_constr_counter))

    @staticmethod
    def equality(lhs: Expression, rhs: Expression) -> "Constraint":
        _check_conformable(lhs, rhs)
        return Constraint("eq", lhs - rhs)

    @staticmethod
    def inequality(lhs: Expression, rhs: Expression) -> "Constraint":
        """lhs <= rhs, stored as lhs - rhs <= 0."""
        _check_conformable(lhs, rhs)
        return Constraint("ineq", lhs - rhs)

    def label(self) -> str:
        return f"c{self.cid[1]}"

    def __repr__(self):
        op = {"eq": "== 0", "ineq": "<= 0", "psd": ">> 0"}[self.kind]
        return f"<constraint {self.label()}: {self.body.label()} {op}>"

    def violation(self, env) -> float:
        """Worst-case infeasibility of the body at the given point."""
        val = self.body.value(env)
        if self.kind == "eq":
            return float(np.max(np.abs(val))) if val.size else 0.0
        if self.kind == "ineq":
            return float(max(np.max(val), 0.0)) if val.size else 0.0
        sym = 0.5 * (val + val.T)
        w = np.linalg.eigvalsh(sym)
        return float(max(-w[0], 0.0))


def _check_conformable(lhs: Expression, rhs: Expression):
    if lhs.shape != rhs.shape and not lhs.is_scalar and not rhs.is_scalar:
        raise ShapeError(
            f"constraint sides have incompatible shapes {tuple(lhs.shape)} and "
            f"{tuple(rhs.shape)}")


def psd(expr: Expression) -> Constraint:
    """Constrain a square affine expression to be positive semidefinite."""
    return Constraint("psd", as_expression(expr))


# -- DCP verification --------------------------------------------------------

@dataclass
class DCPReport:
    accepted: bool
    messages: list = field(default_factory=list)
    paths: list = field(default_factory=list)  # list of [(label, curvature), ...]

    def render(self) -> str:
        lines = ["dcp: accepted" if self.accepted else "dcp: rejected"]
        for msg, path in itertools.zip_longest(self.messages, self.paths):
            if msg:
                lines.append(msg)
            for depth, (label, curv) in enumerate(path or []):
                lines.append("  " * (depth + 1) + f"{label}: {curv.value}")
        return "\n".join(lines)


def violation_path(e: Expression, need: str):
    """Root-to-leaf chain explaining why e fails the curvature requirement.

    Returns None when the requirement holds. At each atom the first
    argument that breaks the first clause able to meet the requirement is
    followed.
    """
    if e.curvature in _MEETS[need]:
        return None
    path = [(e.label(), e.curvature)]
    if isinstance(e, AtomExpr):
        # a curvature that fails a need is not constant, so the node kept
        # its clauses when it was built
        for clause in ("convex", "concave"):
            if need in (clause, "affine") and e._clauses[clause]:
                child, child_need = e._clauses[clause][0]
                return path + violation_path(child, child_need)
    return path


def dcp_check(problem) -> DCPReport:
    """Verify a problem against the composition rules.

    Accepts any object with .objective (having .sense in {'minimize',
    'maximize'} and .expr) and .constraints.
    """
    messages, paths = [], []
    obj = problem.objective
    if not obj.expr.is_scalar:
        messages.append("objective: must be scalar (1 x 1)")
        paths.append([(obj.expr.label(), obj.expr.curvature)])
    need = "convex" if obj.sense == "minimize" else "concave"
    path = violation_path(obj.expr, need)
    if path:
        messages.append(
            f"objective: {obj.sense} requires a {need} expression; found "
            f"{obj.expr.curvature.value}")
        paths.append(path)
    for con in problem.constraints:
        need = {"eq": "affine", "ineq": "convex", "psd": "affine"}[con.kind]
        path = violation_path(con.body, need)
        if path:
            messages.append(
                f"constraint {con.label()} ({con.kind}): requires a {need} "
                f"body; found {con.body.curvature.value}")
            paths.append(path)
    return DCPReport(accepted=not messages, messages=messages, paths=paths)
