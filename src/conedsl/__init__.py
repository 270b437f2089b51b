"""conedsl: disciplined convex modeling with an embedded conic solver.

Build expressions from variables and atoms, state constraints with
comparison operators, wrap an objective in Minimize/Maximize, and call
solve().  Problems are verified against the composition ruleset, lowered
to a standard-form cone program, and solved by a first-order
operator-splitting method; the standard form can also be exported as
JSON for external solvers.
"""
from .errors import (ConeDSLError, DCPError, FactorizationError, InputError,
                     NumericError, SchemaError, ShapeError,
                     UnsupportedAtomError)
from .expr import (Constant, Constraint, Curvature, DCPReport, Expression,
                   Semidef, Sign, Variable, dcp_check, psd)
from . import atoms
from .atoms import *  # noqa: F401,F403 - atom factory functions
from .atoms import atoms_table, get_atom
from .canon import (ConeProgram, ConeSpec, VariableMap, canonicalize,
                    export_json, get_problem_data, import_json, recover,
                    recover_dual)
from . import cones
from .solver import (Solution, SolverSettings, diagnostics,
                     solve_cone_program)
from .api import Maximize, Minimize, Objective, Problem, Result, solve
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "ConeDSLError", "DCPError", "FactorizationError", "InputError",
    "NumericError", "SchemaError", "ShapeError", "UnsupportedAtomError",
    "Constant", "Constraint", "Curvature", "DCPReport", "Expression",
    "Semidef", "Sign", "Variable", "dcp_check", "psd",
    "atoms", "atoms_table", "get_atom",
    "ConeProgram", "ConeSpec", "VariableMap", "canonicalize", "export_json",
    "get_problem_data", "import_json", "recover", "recover_dual",
    "cones",
    "Solution", "SolverSettings", "diagnostics", "solve_cone_program",
    "Maximize", "Minimize", "Objective", "Problem", "Result", "solve",
    "SplitMix64",
    "__version__",
] + list(atoms.__all__)
