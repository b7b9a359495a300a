"""Exact one-step recurrences for expectations of state monomials.

For a monomial M over the loop variables, ``MomentContext.recurrence`` expresses
E[M after one body pass] as a linear combination of expectations of monomials
of the state before the pass.  The derivation walks the normalized body
backward, replacing each assigned variable's powers by the expectation of the
assignment's right-hand side; guards become their exact truth polynomials
(interpolated over the finite value sets of the condition variables), and any
power of a finite-valued variable that meets or exceeds its value-set size is
rewritten to the canonical lower-degree polynomial agreeing with it pointwise.

That last canonicalization step is what makes products of guard indicators
collapse exactly (an indicator squared is itself), so chains of branch writes
cancel their "keep the old value" residues.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Optional

from .dependency import (
    VALUE_SET_CAP,
    Classification,
    DependencyGraph,
    build_graph,
    classify,
    variable_supports,
)
from .errors import (
    GuardNotSupportedError,
    NonFiniteGuardError,
    UninitializedVariableError,
)
from .normalize import normalize
from .parser import parse
from .symbolic import ParamExpr, pe
from .syntax import (
    BExpr,
    BTrue,
    DistDraw,
    NormalizedProgram,
    PolyExpr,
    VarMonomial,
    bexpr_eval,
    bexpr_params,
    bexpr_vars,
)

DEFAULT_EQUATION_CAP = 500
_GUARD_POINT_CAP = 100_000


def _lagrange_basis_poly(name: str, point: Fraction, values: Iterable[Fraction]) -> PolyExpr:
    """Polynomial in ``name`` that is 1 at ``point`` and 0 on the rest of ``values``."""
    acc = PolyExpr.const(Fraction(1))
    x = PolyExpr.var(name)
    for s in values:
        if s != point:
            acc = acc * (x - PolyExpr.const(s)).scale(pe(Fraction(1, 1) / (point - s)))
    return acc


def dist_moment(kind: str, args: tuple[ParamExpr, ...], k: int) -> ParamExpr:
    """k-th raw moment of a primitive distribution, exactly."""
    if k < 0:
        raise ValueError("moment order must be non-negative")
    if k == 0:
        return pe(1)
    if kind == "Bernoulli":
        return args[0]
    if kind == "Uniform":
        a, b = args
        return (b ** (k + 1) - a ** (k + 1)) / ((b - a) * pe(k + 1))
    if kind == "DiscreteUniform":
        lo, hi = (arg.as_fraction() for arg in args)
        if lo.denominator != 1 or hi.denominator != 1 or hi < lo:
            raise ValueError(f"DiscreteUniform bounds must be integers, got {lo}, {hi}")
        total = sum(Fraction(i) ** k for i in range(int(lo), int(hi) + 1))
        return pe(total / (hi - lo + 1))
    if kind == "Normal":
        mean, var = args
        prev2, prev1 = pe(1), mean
        for j in range(2, k + 1):
            prev2, prev1 = prev1, mean * prev1 + pe(j - 1) * var * prev2
        return prev1
    raise ValueError(f"unknown distribution {kind!r}")


class MomentContext:
    """Shared caches for deriving recurrences of one normalized program,
    including its dependency graph and its classification per parameter, so
    one analysis classifies the program once."""

    def __init__(self, program: NormalizedProgram, value_cap: int = VALUE_SET_CAP):
        self.program = program
        self.supports = variable_supports(program, cap=value_cap)
        self._graph: Optional[DependencyGraph] = None
        self._classifications: dict[str, Classification] = {}
        self._basis: dict[tuple[str, Fraction], PolyExpr] = {}
        self._power_reps: dict[tuple[str, int], Optional[PolyExpr]] = {}
        self._truth: dict[BExpr, PolyExpr] = {}
        self._recurrences: dict[VarMonomial, PolyExpr] = {}
        self._initials: dict[VarMonomial, ParamExpr] = {}

    # -- dependency facts ---------------------------------------------------

    @property
    def graph(self) -> DependencyGraph:
        if self._graph is None:
            self._graph = build_graph(self.program)
        return self._graph

    def classification(self, param: str) -> Classification:
        """The program's verdict with respect to ``param``, computed once."""
        cls = self._classifications.get(param)
        if cls is None:
            cls = classify(self.program, param, graph=self.graph, supports=self.supports)
            self._classifications[param] = cls
        return cls

    # -- canonicalization over finite value sets ----------------------------

    def _lagrange_basis(self, v: str, point: Fraction) -> PolyExpr:
        key = (v, point)
        cached = self._basis.get(key)
        if cached is None:
            cached = _lagrange_basis_poly(v, point, sorted(self.supports[v]))
            self._basis[key] = cached
        return cached

    def _power_rep(self, v: str, e: int) -> Optional[PolyExpr]:
        """Polynomial of degree < |values(v)| equal to v**e on the value set."""
        s = self.supports.get(v)
        if s is None or not s or e < len(s):
            return None
        key = (v, e)
        cached = self._power_reps.get(key)
        if cached is None:
            cached = PolyExpr.zero()
            for point in sorted(s):
                cached = cached + self._lagrange_basis(v, point).scale(pe(point**e))
            self._power_reps[key] = cached
        return cached

    def reduce(self, poly: PolyExpr) -> PolyExpr:
        """Rewrite every over-high variable power to its canonical form."""
        work = list(poly.terms)
        out = PolyExpr.zero()
        while work:
            mono, coeff = work.pop()
            for v, e in mono.powers:
                rep = self._power_rep(v, e)
                if rep is not None:
                    _, rest = mono.split(v)
                    work.extend((rep * PolyExpr.monomial(rest, coeff)).terms)
                    break
            else:
                out = out + PolyExpr.monomial(mono, coeff)
        return out

    def truth_polynomial(self, guard: BExpr) -> PolyExpr:
        """Exact 0/1-valued polynomial for a condition over finite variables."""
        if isinstance(guard, BTrue):
            return PolyExpr.const(Fraction(1))
        cached = self._truth.get(guard)
        if cached is not None:
            return cached
        params = bexpr_params(guard)
        if params:
            raise GuardNotSupportedError(
                f"condition {sorted(params)} compares against parameters; "
                "expectations over such branches have no polynomial form"
            )
        names = sorted(bexpr_vars(guard))
        sets = []
        points = 1
        for v in names:
            s = self.supports[v]
            if s is None:
                raise NonFiniteGuardError((v,))
            points *= len(s)
            if points > _GUARD_POINT_CAP:
                raise GuardNotSupportedError(
                    f"condition over {names} spans {points} value combinations"
                )
            sets.append(sorted(s))
        poly = PolyExpr.zero()
        for combo in product(*sets):
            if bexpr_eval(guard, dict(zip(names, combo))):
                piece = PolyExpr.const(Fraction(1))
                for v, point in zip(names, combo):
                    piece = piece * self._lagrange_basis(v, point)
                poly = poly + piece
        poly = self.reduce(poly)
        self._truth[guard] = poly
        return poly

    # -- one-step substitution ----------------------------------------------

    def _power_value(self, rhs, k: int) -> PolyExpr:
        """E[(assigned value)**k] as a polynomial in the pre-assignment state."""
        if isinstance(rhs, DistDraw):
            return PolyExpr.monomial(VarMonomial.one(), dist_moment(rhs.kind, rhs.args, k))
        out = PolyExpr.zero()
        for poly, prob in rhs.choices:
            out = out + (poly**k).scale(prob)
        return out

    def _substitute(self, poly: PolyExpr, ga) -> PolyExpr:
        t = ga.target
        out = PolyExpr.zero()
        truth: Optional[PolyExpr] = None
        for mono, coeff in poly.terms:
            k, rest = mono.split(t)
            if k == 0:
                out = out + PolyExpr.monomial(mono, coeff)
                continue
            if isinstance(ga.guard, BTrue):
                repl = self._power_value(ga.rhs, k)
            else:
                if truth is None:
                    truth = self.truth_polynomial(ga.guard)
                kept = PolyExpr.var(ga.else_source) ** k
                repl = truth * self._power_value(ga.rhs, k) + (
                    PolyExpr.const(Fraction(1)) - truth
                ) * kept
            out = out + PolyExpr.monomial(rest, coeff) * repl
        return self.reduce(out)

    def recurrence(self, monomial: VarMonomial) -> PolyExpr:
        """E[monomial] after one body pass, linear in pre-pass expectations."""
        cached = self._recurrences.get(monomial)
        if cached is not None:
            return cached
        poly = self.reduce(PolyExpr.monomial(monomial))
        for ga in reversed(self.program.body):
            poly = self._substitute(poly, ga)
        self._recurrences[monomial] = poly
        return poly

    def initial(self, monomial: VarMonomial) -> ParamExpr:
        """E[monomial] before the first iteration.

        No canonicalization happens here: a variable first written inside the
        loop has no initial value, and silently projecting it onto its
        eventual value set would manufacture one.
        """
        cached = self._initials.get(monomial)
        if cached is not None:
            return cached
        poly = PolyExpr.monomial(monomial)
        for v, rhs in reversed(self.program.init):
            out = PolyExpr.zero()
            for mono, coeff in poly.terms:
                k, rest = mono.split(v)
                if k == 0:
                    out = out + PolyExpr.monomial(mono, coeff)
                else:
                    out = out + PolyExpr.monomial(rest, coeff) * self._power_value(rhs, k)
            poly = out
        if not poly.is_constant:
            missing = sorted(poly.variables())
            raise UninitializedVariableError(tuple(missing))
        value = poly.constant_value()
        self._initials[monomial] = value
        return value


def _as_context(program) -> MomentContext:
    if isinstance(program, MomentContext):
        return program
    if isinstance(program, str):
        program = normalize(parse(program))
    return MomentContext(program)
