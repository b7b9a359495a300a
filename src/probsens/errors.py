"""Exception hierarchy shared by every analysis stage.

Each error carries enough structured detail for the CLI to print an
actionable message; its class's ``exit_code`` is the CLI's exit code for it.
"""

from __future__ import annotations


class ProbsensError(Exception):
    """Base class for all analyzer errors."""

    exit_code = 1


class ParseError(ProbsensError):
    exit_code = 2

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

    exit_code = 3

    def __init__(self, message: str, witnesses: tuple[str, ...] = ()):
        self.witnesses = witnesses
        if witnesses:
            message = message + "\n  " + "\n  ".join(witnesses)
        super().__init__(message)


class NonFiniteGuardError(ProbsensError):
    """A branching condition references a variable with no finite value set."""

    exit_code = 3

    def __init__(self, variables: tuple[str, ...]):
        self.variables = variables
        super().__init__(
            "guard variable(s) without a finite value set: " + ", ".join(variables)
        )


class GuardNotSupportedError(ProbsensError):
    """A branching condition cannot be tabulated (e.g. it compares parameters)."""

    exit_code = 3


class UninitializedVariableError(ProbsensError):
    exit_code = 3

    def __init__(self, variables: tuple[str, ...]):
        self.variables = variables
        super().__init__("uninitialized variable(s): " + ", ".join(variables))


class EquationCapError(ProbsensError):
    """Recurrence-system construction exceeded the equation cap."""

    exit_code = 5

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

    exit_code = 4

    def __init__(self, factor: str):
        self.factor = factor
        super().__init__(
            f"characteristic polynomial has an unsupported irreducible factor: {factor}"
        )


class SingularParameterError(ProbsensError):
    """Evaluation hit a parameter point where a denominator vanishes."""

    exit_code = 6

    def __init__(self, denominator: str):
        self.denominator = denominator
        super().__init__(f"denominator vanishes at the given parameter values: {denominator}")


class SeedSystemError(ProbsensError):
    """A solved closed form failed its check against the recurrence, or the
    seed system fixing its coefficients was singular."""


class OracleError(ProbsensError):
    """The enumeration or sampling oracle cannot run on the given input."""


class InputError(ProbsensError):
    """An input the CLI itself rejects, such as a malformed manifest."""

    exit_code = 2
