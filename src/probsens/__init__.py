"""Exact sensitivity analysis for probabilistic loops.

The package parses a small probabilistic loop language, derives exact
recurrences for (mixed) moments of program variables, differentiates them
with respect to symbolic parameters, and solves the resulting linear
systems into exponential-polynomial closed forms in the iteration counter.
A simulation/enumeration oracle provides independent numeric estimates.
"""

from .errors import (
    ClassificationError,
    EquationCapError,
    GuardNotSupportedError,
    NonFiniteGuardError,
    OracleError,
    ParseError,
    ProbsensError,
    SeedSystemError,
    SingularParameterError,
    UninitializedVariableError,
    UnsupportedFactorError,
)
from .parser import Diagnostic, parse, parse_monomial, validate
from .symbolic import (
    ExpPolynomial,
    ParamExpr,
    ep_add,
    ep_diff,
    ep_eval,
    ep_scale,
    render_exp_polynomial,
)
from .syntax import (
    Assignment,
    Categorical,
    DistDraw,
    GuardedAssignment,
    IfStatement,
    NormalizedProgram,
    PolyExpr,
    Program,
    VarMonomial,
    program_to_source,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ProbsensError",
    "ParseError",
    "ClassificationError",
    "NonFiniteGuardError",
    "GuardNotSupportedError",
    "UninitializedVariableError",
    "EquationCapError",
    "UnsupportedFactorError",
    "SingularParameterError",
    "SeedSystemError",
    "OracleError",
    # language
    "parse",
    "parse_monomial",
    "validate",
    "Diagnostic",
    "Program",
    "NormalizedProgram",
    "Assignment",
    "IfStatement",
    "Categorical",
    "DistDraw",
    "GuardedAssignment",
    "PolyExpr",
    "VarMonomial",
    "program_to_source",
    # symbolic closed forms
    "ParamExpr",
    "ExpPolynomial",
    "ep_add",
    "ep_scale",
    "ep_diff",
    "ep_eval",
    "render_exp_polynomial",
]
