"""Problem construction and solve orchestration.

The modeling surface is Problem(Minimize(expr) | Maximize(expr),
constraints); solve() runs the ruleset check, lowers to a cone program,
and runs the embedded solver.  Maximization is handled here by a
sense flag; the canonicalizer always minimizes.
"""
from __future__ import annotations

from .canon import canonicalize, record_value, recover_dual
from .errors import InputError, ShapeError
from .expr import Constraint, as_expression, dcp_check
from .solver import SolverSettings, solve_cone_program

class Objective:
    sense = "minimize"

    def __init__(self, expr):
        e = as_expression(expr)
        if not e.is_scalar:
            raise ShapeError(
                f"objective must be scalar, got {e.shape.rows}x{e.shape.cols}")
        self.expr = e

    def __repr__(self):
        return f"{type(self).__name__}({self.expr.label()})"


class Minimize(Objective):
    sense = "minimize"


class Maximize(Objective):
    sense = "maximize"


class Problem:
    """Immutable pairing of an objective with a constraint list."""

    def __init__(self, objective, constraints=None):
        if not isinstance(objective, Objective):
            raise InputError("objective must be Minimize(...) or Maximize(...)")
        constraints = list(constraints) if constraints is not None else []
        for con in constraints:
            if not isinstance(con, Constraint):
                raise InputError(
                    f"constraints must be comparisons, got {type(con).__name__}")
        self.objective = objective
        self.constraints = tuple(constraints)

    def is_dcp(self) -> bool:
        return dcp_check(self).accepted


class Result:
    """Outcome of a solve: status, user-sense value, and recovery handles."""

    def __init__(self, problem, status, value, solution, vmap, cone_program,
                 metrics):
        self.problem = problem
        self.status = status
        self.value = value
        self.solution = solution
        self.vmap = vmap
        self.cone_program = cone_program
        self.metrics = metrics
        self._env = None

    def _environment(self):
        if self._env is None:
            self._env = {rec.vid: record_value(self.solution, rec)
                         for rec in self.vmap.vars}
        return self._env

    def value_of(self, expr):
        """Numeric value of any expression over this problem's variables."""
        e = as_expression(expr)
        try:
            return e.value(self._environment())
        except KeyError as err:
            raise InputError(
                "expression references a variable outside this problem") from err

    def dual_of(self, constraint):
        """Dual multiplier of one of this problem's constraints."""
        try:
            return recover_dual(self.solution, self.vmap, constraint,
                                flipped=self.cone_program.flipped)
        except KeyError as err:
            raise InputError("constraint is not in this problem") from err

    def __repr__(self):
        return f"Result(status={self.status!r}, value={self.value!r})"


def solve(problem: Problem, **options) -> Result:
    """Check the ruleset, lower, and solve a problem; options are the
    SolverSettings fields.  Raises DCPError (from canonicalize) if the
    ruleset rejects the problem."""
    if not isinstance(problem, Problem):
        raise InputError("solve() expects a Problem")
    cp, vmap = canonicalize(problem)
    try:
        settings = SolverSettings(**options)
    except TypeError as err:
        raise InputError(f"unknown solver option: {err}") from err
    sol = solve_cone_program(cp, settings)
    # only an optimal iterate has an objective (NaN otherwise); the last
    # residuals of any other stay in the metrics
    value = cp.user_objective(sol.objective)
    return Result(problem, sol.status, value, sol, vmap, cp, sol.metrics())
