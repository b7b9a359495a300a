"""Abstract syntax for the probabilistic loop language, plus the polynomial
and boolean-expression values the analyses compute with.

Everything here is immutable and hashable so that downstream passes can use
expressions as cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Union

from .symbolic import ParamExpr, pe

# ---------------------------------------------------------------------------
# Monomials and polynomials over program variables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarMonomial:
    """Product of program variables with positive integer exponents.

    ``powers`` is sorted by variable name; the empty tuple is the constant-1
    monomial.
    """

    powers: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def one() -> "VarMonomial":
        return _MONO_ONE

    @staticmethod
    def var(name: str, exp: int = 1) -> "VarMonomial":
        if exp < 0:
            raise ValueError("exponent must be >= 0")
        if exp == 0:
            return _MONO_ONE
        return VarMonomial(((name, exp),))

    @staticmethod
    def from_map(powers: Mapping[str, int]) -> "VarMonomial":
        items = tuple(sorted((v, e) for v, e in powers.items() if e != 0))
        for _, e in items:
            if e < 0:
                raise ValueError("exponent must be positive")
        return VarMonomial(items)

    @property
    def is_one(self) -> bool:
        return not self.powers

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.powers)

    def variables(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.powers)

    def split(self, var: str) -> tuple[int, "VarMonomial"]:
        """Return (exponent of var, monomial with var removed)."""
        e = 0
        rest = []
        for v, k in self.powers:
            if v == var:
                e = k
            else:
                rest.append((v, k))
        return e, VarMonomial(tuple(rest))

    def __mul__(self, other: "VarMonomial") -> "VarMonomial":
        acc = dict(self.powers)
        for v, e in other.powers:
            acc[v] = acc.get(v, 0) + e
        return VarMonomial.from_map(acc)

    def __pow__(self, k: int) -> "VarMonomial":
        if k < 0:
            raise ValueError("exponent must be >= 0")
        if k == 0:
            return _MONO_ONE
        return VarMonomial(tuple((v, e * k) for v, e in self.powers))

    @cached_property
    def deglex_key(self) -> tuple:
        """Ordering key: total degree first, then lexicographic powers.
        Computed once per monomial; it is not a field, so ``==`` and
        ``hash`` do not see it."""
        return (self.degree, self.powers)

    def __str__(self) -> str:
        if not self.powers:
            return "1"
        return "*".join(v if e == 1 else f"{v}**{e}" for v, e in self.powers)


_MONO_ONE = VarMonomial(())


@dataclass(frozen=True)
class PolyExpr:
    """Polynomial over program variables with ParamExpr coefficients.

    Terms are sorted by monomial key and never carry a zero coefficient.
    """

    terms: tuple[tuple[VarMonomial, ParamExpr], ...] = ()

    @staticmethod
    def make(items: Iterable[tuple[VarMonomial, ParamExpr]]) -> "PolyExpr":
        acc: dict[VarMonomial, ParamExpr] = {}
        for mono, coeff in items:
            if mono in acc:
                acc[mono] = acc[mono] + coeff
            else:
                acc[mono] = pe(coeff)
        cleaned = [(m, c) for m, c in acc.items() if not c.is_zero]
        cleaned.sort(key=lambda t: t[0].deglex_key)
        return PolyExpr(tuple(cleaned))

    @staticmethod
    def zero() -> "PolyExpr":
        return _POLY_ZERO

    @staticmethod
    def const(c) -> "PolyExpr":
        c = pe(c)
        if c.is_zero:
            return _POLY_ZERO
        return PolyExpr(((VarMonomial.one(), c),))

    @staticmethod
    def var(name: str) -> "PolyExpr":
        return PolyExpr(((VarMonomial.var(name), ParamExpr.one()),))

    @staticmethod
    def monomial(mono: VarMonomial, coeff=1) -> "PolyExpr":
        return PolyExpr.make([(mono, pe(coeff))])

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "PolyExpr") -> "PolyExpr":
        return PolyExpr.make([*self.terms, *other.terms])

    def __sub__(self, other: "PolyExpr") -> "PolyExpr":
        return self + other.scale(ParamExpr(-1))

    def __neg__(self) -> "PolyExpr":
        return self.scale(ParamExpr(-1))

    def __mul__(self, other: "PolyExpr") -> "PolyExpr":
        out = []
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                out.append((m1 * m2, c1 * c2))
        return PolyExpr.make(out)

    def scale(self, c) -> "PolyExpr":
        c = pe(c)
        if c.is_zero:
            return _POLY_ZERO
        return PolyExpr(tuple((m, k * c) for m, k in self.terms))

    def __pow__(self, k: int) -> "PolyExpr":
        if k < 0:
            raise ValueError("exponent must be >= 0")
        result = PolyExpr.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- queries ----------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(m.is_one for m, _ in self.terms)

    def constant_value(self) -> ParamExpr:
        if self.is_zero:
            return ParamExpr.zero()
        if not self.is_constant:
            raise ValueError(f"polynomial {self} is not constant")
        return self.terms[0][1]

    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for m, _ in self.terms:
            out.update(m.variables())
        return frozenset(out)

    def free_params(self) -> frozenset[str]:
        out: set[str] = set()
        for _, c in self.terms:
            out.update(c.free_params())
        return frozenset(out)

    @property
    def degree(self) -> int:
        return max((m.degree for m, _ in self.terms), default=0)

    def coefficient(self, mono: VarMonomial) -> ParamExpr:
        for m, c in self.terms:
            if m == mono:
                return c
        return ParamExpr.zero()

    def rename(self, mapping: Mapping[str, str]) -> "PolyExpr":
        out = []
        for m, c in self.terms:
            out.append((VarMonomial.from_map({mapping.get(v, v): e for v, e in m.powers}), c))
        return PolyExpr.make(out)

    def eval_with_params(self, state: Mapping[str, Fraction], sigma: Mapping[str, Fraction]) -> Fraction:
        acc = Fraction(0)
        for m, c in self.terms:
            val = c.eval_fraction(sigma)
            for v, e in m.powers:
                val *= state[v] ** e
            acc += val
        return acc

    def to_source(self) -> str:
        """Render in the surface syntax of the language."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for m, c in reversed(self.terms):
            cs = str(c)
            if " + " in cs or " - " in cs:
                # a sum: wrap whole, pulling a sign out would negate one term only
                neg = False
                mag = f"({cs})"
            else:
                neg = cs.startswith("-")
                mag = cs[1:] if neg else cs
                if "+" in mag or "-" in mag or ("/" in mag and not _is_simple_ratio(mag)):
                    mag = f"({mag})"
            if m.is_one:
                text = mag
            elif mag == "1":
                text = str(m)
            else:
                text = f"{mag}*{m}"
            if not parts:
                parts.append(("-" + text) if neg else text)
            else:
                parts.append(("- " if neg else "+ ") + text)
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_source()


_POLY_ZERO = PolyExpr(())


def _is_simple_ratio(s: str) -> bool:
    """True for 'a/b' where both sides are bare atoms (e.g. 3/10, p/2)."""
    if s.count("/") != 1:
        return False
    lhs, rhs = s.split("/")
    return lhs.strip().isalnum() and rhs.strip().isalnum()


# ---------------------------------------------------------------------------
# Boolean (branching) expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BTrue:
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class BFalse:
    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Comparison:
    lhs: PolyExpr
    op: str  # one of ==, !=, <, >, <=, >=
    rhs: PolyExpr

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


@dataclass(frozen=True)
class Not:
    arg: "BExpr"

    def __str__(self) -> str:
        inner = str(self.arg)
        if isinstance(self.arg, (And, Or, Comparison)):
            return f"not ({inner})"
        return f"not {inner}"


@dataclass(frozen=True)
class And:
    lhs: "BExpr"
    rhs: "BExpr"

    def __str__(self) -> str:
        return f"{_paren_b(self.lhs, (Or,))} and {_paren_b(self.rhs, (Or,))}"


@dataclass(frozen=True)
class Or:
    lhs: "BExpr"
    rhs: "BExpr"

    def __str__(self) -> str:
        return f"{self.lhs} or {self.rhs}"


BExpr = Union[BTrue, BFalse, Comparison, Not, And, Or]

_CMP_FLIP = {"==": "!=", "!=": "==", "<": ">=", ">": "<=", "<=": ">", ">=": "<"}


def _paren_b(b: BExpr, wrap: tuple) -> str:
    s = str(b)
    return f"({s})" if isinstance(b, wrap) else s


def bexpr_vars(b: BExpr) -> frozenset[str]:
    if isinstance(b, (BTrue, BFalse)):
        return frozenset()
    if isinstance(b, Comparison):
        return b.lhs.variables() | b.rhs.variables()
    if isinstance(b, Not):
        return bexpr_vars(b.arg)
    return bexpr_vars(b.lhs) | bexpr_vars(b.rhs)


def bexpr_params(b: BExpr) -> frozenset[str]:
    if isinstance(b, (BTrue, BFalse)):
        return frozenset()
    if isinstance(b, Comparison):
        return b.lhs.free_params() | b.rhs.free_params()
    if isinstance(b, Not):
        return bexpr_params(b.arg)
    return bexpr_params(b.lhs) | bexpr_params(b.rhs)


def bexpr_rename(b: BExpr, mapping: Mapping[str, str]) -> BExpr:
    if isinstance(b, (BTrue, BFalse)):
        return b
    if isinstance(b, Comparison):
        return Comparison(b.lhs.rename(mapping), b.op, b.rhs.rename(mapping))
    if isinstance(b, Not):
        return Not(bexpr_rename(b.arg, mapping))
    if isinstance(b, And):
        return And(bexpr_rename(b.lhs, mapping), bexpr_rename(b.rhs, mapping))
    return Or(bexpr_rename(b.lhs, mapping), bexpr_rename(b.rhs, mapping))


def bexpr_negate(b: BExpr) -> BExpr:
    if isinstance(b, BTrue):
        return BFalse()
    if isinstance(b, BFalse):
        return BTrue()
    if isinstance(b, Comparison):
        return Comparison(b.lhs, _CMP_FLIP[b.op], b.rhs)
    if isinstance(b, Not):
        return b.arg
    return Not(b)


def bexpr_and(a: BExpr, b: BExpr) -> BExpr:
    if isinstance(a, BTrue):
        return b
    if isinstance(b, BTrue):
        return a
    if isinstance(a, BFalse) or isinstance(b, BFalse):
        return BFalse()
    return And(a, b)


def bexpr_eval(b: BExpr, state: Mapping[str, Fraction], sigma: Mapping[str, Fraction] | None = None) -> bool:
    sigma = sigma or {}
    if isinstance(b, BTrue):
        return True
    if isinstance(b, BFalse):
        return False
    if isinstance(b, Comparison):
        lv = b.lhs.eval_with_params(state, sigma)
        rv = b.rhs.eval_with_params(state, sigma)
        return {
            "==": lv == rv,
            "!=": lv != rv,
            "<": lv < rv,
            ">": lv > rv,
            "<=": lv <= rv,
            ">=": lv >= rv,
        }[b.op]
    if isinstance(b, Not):
        return not bexpr_eval(b.arg, state, sigma)
    if isinstance(b, And):
        return bexpr_eval(b.lhs, state, sigma) and bexpr_eval(b.rhs, state, sigma)
    return bexpr_eval(b.lhs, state, sigma) or bexpr_eval(b.rhs, state, sigma)


# ---------------------------------------------------------------------------
# Assignment right-hand sides
# ---------------------------------------------------------------------------

DIST_KINDS = ("Bernoulli", "Normal", "Uniform", "DiscreteUniform")


@dataclass(frozen=True)
class Categorical:
    """Probabilistic choice among polynomial alternatives.

    Probabilities always sum to one here: a source-level omitted trailing
    probability is materialized as the complement during parsing.
    """

    choices: tuple[tuple[PolyExpr, ParamExpr], ...]

    @staticmethod
    def sure(poly: PolyExpr) -> "Categorical":
        return Categorical(((poly, ParamExpr.one()),))

    @property
    def is_deterministic(self) -> bool:
        return len(self.choices) == 1

    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for poly, _ in self.choices:
            out.update(poly.variables())
        return frozenset(out)

    def free_params(self) -> frozenset[str]:
        out: set[str] = set()
        for poly, prob in self.choices:
            out.update(poly.free_params())
            out.update(prob.free_params())
        return frozenset(out)

    def rename(self, mapping: Mapping[str, str]) -> "Categorical":
        return Categorical(tuple((p.rename(mapping), pr) for p, pr in self.choices))

    def to_source(self) -> str:
        if self.is_deterministic:
            return self.choices[0][0].to_source()
        parts = []
        for poly, prob in self.choices:
            parts.append(f"{poly.to_source()} {{{prob}}}")
        return " ".join(parts)


@dataclass(frozen=True)
class DistDraw:
    """A fresh draw from a built-in distribution with constant arguments."""

    kind: str
    args: tuple[ParamExpr, ...]

    def variables(self) -> frozenset[str]:
        return frozenset()

    def free_params(self) -> frozenset[str]:
        out: set[str] = set()
        for a in self.args:
            out.update(a.free_params())
        return frozenset(out)

    def rename(self, mapping: Mapping[str, str]) -> "DistDraw":
        return self

    def to_source(self) -> str:
        return f"{self.kind}({', '.join(str(a) for a in self.args)})"


AssignRhs = Union[Categorical, DistDraw]


# ---------------------------------------------------------------------------
# Statements and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Assignment:
    """Simultaneous assignment: all right-hand sides read the pre-state."""

    targets: tuple[str, ...]
    rhss: tuple[AssignRhs, ...]
    line: int = field(default=0, compare=False)

    def to_source(self) -> str:
        return f"{', '.join(self.targets)} = {', '.join(r.to_source() for r in self.rhss)}"


@dataclass(frozen=True)
class IfStatement:
    branches: tuple[tuple[BExpr, tuple["Statement", ...]], ...]
    else_body: Optional[tuple["Statement", ...]]
    line: int = field(default=0, compare=False)


Statement = Union[Assignment, IfStatement]


@dataclass(frozen=True)
class Program:
    params: frozenset[str]
    init: tuple[Assignment, ...]
    guard: BExpr
    body: tuple[Statement, ...]
    variables: tuple[str, ...]  # sorted; every name assigned anywhere
    name: str = "<program>"


def _statements_to_source(stmts: tuple[Statement, ...], indent: str) -> list[str]:
    lines: list[str] = []
    for st in stmts:
        if isinstance(st, Assignment):
            lines.append(indent + st.to_source())
        else:
            first = True
            for cond, body in st.branches:
                kw = "if" if first else "else if"
                first = False
                lines.append(f"{indent}{kw} {cond}:")
                lines.extend(_statements_to_source(body, indent + "    "))
            if st.else_body is not None:
                lines.append(f"{indent}else:")
                lines.extend(_statements_to_source(st.else_body, indent + "    "))
            lines.append(f"{indent}end")
    return lines


def program_to_source(prog: Program) -> str:
    lines: list[str] = []
    for st in prog.init:
        lines.append(st.to_source())
    lines.append(f"while {prog.guard}:")
    lines.extend(_statements_to_source(prog.body, "    "))
    lines.append("end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Normalized programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GuardedAssignment:
    """``target = rhs [guard] else else_source``.

    When the guard holds, draw from ``rhs``; otherwise keep the value of
    ``else_source``.  ``else_source`` is None iff the guard is literally true.
    """

    target: str
    rhs: AssignRhs
    guard: BExpr
    else_source: Optional[str]

    def to_source(self) -> str:
        base = f"{self.target} = {self.rhs.to_source()}"
        if isinstance(self.guard, BTrue):
            return base
        return f"{base} [{self.guard}] else {self.else_source}"


@dataclass(frozen=True)
class NormalizedProgram:
    """Loop body flattened to one guarded assignment per variable."""

    params: frozenset[str]
    init: tuple[tuple[str, AssignRhs], ...]
    body: tuple[GuardedAssignment, ...]
    variables: tuple[str, ...]          # original program variables (sorted)
    temporaries: tuple[str, ...]        # fresh names introduced by normalization
    temp_origin: tuple[tuple[str, str], ...]  # temp -> original variable it versions
    name: str = "<program>"

    @property
    def all_variables(self) -> tuple[str, ...]:
        return tuple(sorted([*self.variables, *self.temporaries]))

    def __getstate__(self) -> dict:
        # a pickled or copied program derives its own facts
        # (``dependency.program_facts``), which hold the original weakly
        return {k: v for k, v in vars(self).items() if k != "_facts"}

    def to_source(self) -> str:
        lines = ["init:"]
        for v, rhs in self.init:
            lines.append(f"    {v} = {rhs.to_source()}")
        lines.append("body:")
        for ga in self.body:
            lines.append(f"    {ga.to_source()}")
        return "\n".join(lines) + "\n"
