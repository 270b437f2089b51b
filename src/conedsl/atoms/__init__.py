"""Atom library: factories, registry access, and the conformance table."""
from ..errors import UnsupportedAtomError
from .base import (REGISTRY, UNSUPPORTED, AtomDescriptor, atoms_table,
                   get_atom, _unsupported_factory)
from .elementwise import (abs_atom, entr, exp, huber, inv_pos, log, logistic,
                          max_elemwise, min_elemwise, neg, pos, power, sqrt,
                          square)
from .scalar import (cvxr_norm, lambda_max, lambda_min, log_det, log_sum_exp,
                     max_entries, min_entries, p_norm, quad_form,
                     quad_over_lin, sum_squares)
from .structural import (add, cumsum_axis, diag, diff, divide,
                         elementwise_product, hstack, index, matrix_product,
                         matrix_trace, mul_elemwise, negate, reshape_expr,
                         sum_entries, transpose, vec, vstack)

abs = abs_atom  # noqa: A001 - deliberate module-level shadow, like np.abs

# Known modeling-language atoms that are outside the supported set; calling
# one raises UnsupportedAtomError with a pointer to atoms_table().
for _name in UNSUPPORTED:
    globals()[_name] = _unsupported_factory(_name)
del _name

__all__ = [
    "AtomDescriptor", "REGISTRY", "atoms_table", "get_atom",
    "abs", "abs_atom", "entr", "exp", "huber", "inv_pos", "log", "logistic",
    "max_elemwise", "min_elemwise", "neg", "pos", "power", "sqrt", "square",
    "cvxr_norm", "lambda_max", "lambda_min", "log_det", "log_sum_exp",
    "max_entries", "min_entries", "p_norm", "quad_form", "quad_over_lin",
    "sum_squares",
    "add", "cumsum_axis", "diag", "diff", "divide", "elementwise_product",
    "hstack", "index", "matrix_product", "matrix_trace", "mul_elemwise",
    "negate", "reshape_expr", "sum_entries", "transpose", "vec", "vstack",
] + list(UNSUPPORTED)
