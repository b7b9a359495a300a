"""Exception hierarchy shared by every analysis stage.

Each error carries enough structured detail for the CLI to print an
actionable message and pick the right exit code.
"""

from __future__ import annotations


class ProbsensError(Exception):
    """Base class for all analyzer errors."""


class ParseError(ProbsensError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        loc = ""
        if line is not None:
            loc = f"line {line}" + (f", col {col}" if col is not None else "")
            loc = f" ({loc})"
        super().__init__(f"{message}{loc}")


class ClassificationError(ProbsensError):
    """Program falls outside the class the requested analysis supports.

    ``witnesses`` holds human-readable strings such as defective-variable
    cycles or parameter-influenced edges into defective variables.
    """

    def __init__(self, message: str, witnesses: tuple[str, ...] = ()):
        self.witnesses = witnesses
        if witnesses:
            message = message + "\n  " + "\n  ".join(witnesses)
        super().__init__(message)


class NonFiniteGuardError(ProbsensError):
    """A branching condition references a variable with no finite value set."""

    def __init__(self, variables: tuple[str, ...]):
        self.variables = variables
        super().__init__(
            "guard variable(s) without a finite value set: " + ", ".join(variables)
        )


class GuardNotSupportedError(ProbsensError):
    """A branching condition cannot be tabulated (e.g. it compares parameters)."""


class UninitializedVariableError(ProbsensError):
    def __init__(self, variables: tuple[str, ...]):
        self.variables = variables
        super().__init__("uninitialized variable(s): " + ", ".join(variables))


class EquationCapError(ProbsensError):
    """Recurrence-system construction exceeded the equation cap."""

    def __init__(self, cap: int, count: int, last_symbols: tuple[str, ...] = ()):
        self.cap = cap
        self.count = count
        self.last_symbols = last_symbols
        tail = ""
        if last_symbols:
            tail = "; most recent symbols: " + ", ".join(last_symbols)
        super().__init__(
            f"recurrence system exceeded the equation cap ({count} > {cap}); "
            f"the system does not appear to close{tail}"
        )


class UnsupportedFactorError(ProbsensError):
    """The characteristic polynomial has an irreducible factor of degree >= 3."""

    def __init__(self, factor: str):
        self.factor = factor
        super().__init__(
            f"characteristic polynomial has an unsupported irreducible factor: {factor}"
        )


class SingularParameterError(ProbsensError):
    """Evaluation hit a parameter point where a denominator vanishes."""

    def __init__(self, denominator: str):
        self.denominator = denominator
        super().__init__(f"denominator vanishes at the given parameter values: {denominator}")


class SeedSystemError(ProbsensError):
    """The linear system fixing closed-form coefficients was inconsistent."""


class OracleError(ProbsensError):
    pass
