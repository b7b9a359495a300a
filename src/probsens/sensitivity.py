"""Parameter sensitivities of moments, two ways.

The direct way differentiates closed forms: assemble the moment-recurrence
system for the target, solve it, and take d/dp of the resulting exponential
polynomial.  It needs the whole moment system to close, which admissibility
guarantees.

The second way never solves for the moments of defective variables at all:
differentiating each moment recurrence term-by-term yields a linear
recurrence for the sensitivity itself,

    d/dp E[M | n+1] = sum_i  (d/dp c_i) * E[W_i | n]  +  c_i * d/dp E[W_i | n],

and two pruning rules keep the resulting system small — a moment E[W_i] is
only needed when its coefficient actually depends on p, and a sensitivity
d/dp E[W_i] is identically zero (hence droppable) when no variable of W_i is
p-dependent.  One worklist closes over the surviving symbols: every required
sensitivity first, then every required moment, each kind smallest monomial
first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Mapping, Optional

from .dependency import Classification
from .errors import ClassificationError, EquationCapError
from .moments import DEFAULT_EQUATION_CAP, MomentContext, _as_context
from .solver import ForwardIterator, solve_system
from .symbolic import (
    ExpPolynomial,
    ParamExpr,
    _paren,
    ep_add,
    ep_diff,
    ep_scale,
    ep_zero,
)
from .syntax import PolyExpr, VarMonomial

__all__ = [
    "RecurrenceSystem",
    "SensitivityResult",
    "SequenceSymbol",
    "moment_closure",
    "parameter_sensitivity",
    "render_recurrence",
    "sensitivity_recurrence",
    "sensitivity_system",
]


# ---------------------------------------------------------------------------
# Sequence symbols and recurrences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceSymbol:
    """One sequence tracked by a recurrence system: the expectation of a
    monomial, or its partial derivative with respect to a parameter."""

    monomial: VarMonomial
    param: Optional[str] = None

    @staticmethod
    def moment(monomial: VarMonomial) -> "SequenceSymbol":
        return SequenceSymbol(monomial)

    @staticmethod
    def sensitivity(monomial: VarMonomial, param: str) -> "SequenceSymbol":
        return SequenceSymbol(monomial, param)

    @property
    def is_moment(self) -> bool:
        return self.param is None

    @property
    def is_constant(self) -> bool:
        """The designated constant sequence E(1) = 1."""
        return self.param is None and self.monomial.is_one

    def indexed(self, index: str) -> str:
        if self.param is None:
            return f"E({self.monomial} | {index})"
        return f"d/d{self.param} E({self.monomial} | {index})"

    def __str__(self) -> str:
        if self.param is None:
            return f"E({self.monomial})"
        return f"d/d{self.param} E({self.monomial})"


MOMENT_ONE = SequenceSymbol.moment(VarMonomial.one())


Terms = tuple[tuple[ParamExpr, SequenceSymbol], ...]


def render_recurrence(lhs: SequenceSymbol, terms: Terms) -> str:
    """``lhs(n+1) = sum of coeff * symbol(n)`` as text; the constant
    contribution rides on the designated symbol E(1)."""
    parts = []
    for c, s in terms:
        if s.is_constant:
            text = str(c)
            parts.append(text if not (" + " in text or " - " in text) else f"({text})")
        elif c.is_one:
            parts.append(s.indexed("n"))
        else:
            parts.append(f"{_paren(str(c))}*{s.indexed('n')}")
    rhs = " + ".join(parts) if parts else "0"
    return f"{lhs.indexed('n+1')} = {rhs}"


# ---------------------------------------------------------------------------
# Recurrence systems
# ---------------------------------------------------------------------------


@dataclass
class RecurrenceSystem:
    """A closed linear system over sequence symbols, plus how the quantity of
    interest decomposes over them.

    ``equations`` maps each symbol s to the terms of s(n+1) = sum of
    coeff * symbol(n), the map :func:`solve_system` takes.
    ``combination`` expresses the target sequence as a linear combination of
    system symbols (after canonicalization a single monomial can spread over
    several); it is empty exactly when the target is identically zero.
    The system does not keep the ``MomentContext`` it was assembled in.
    """

    target: VarMonomial
    parameter: Optional[str]
    combination: Terms
    equations: dict[SequenceSymbol, Terms]
    initials: dict[SequenceSymbol, ParamExpr]

    @property
    def size(self) -> int:
        """Number of equations, not counting the constant sequence E(1)."""
        return sum(1 for s in self.equations if not s.is_constant)

    def monomials(self, kind: str) -> tuple[VarMonomial, ...]:
        """The monomials carried by this system's 'moment' or 'sensitivity'
        symbols, constant excluded — handy for comparing worklists."""
        want_moment = kind == "moment"
        return tuple(
            s.monomial
            for s in self.equations
            if s.is_moment == want_moment and not s.is_constant
        )

    def iterate(
        self, steps: int, values: Optional[Mapping[str, Fraction]] = None
    ) -> list[dict]:
        """Rows 0..steps of every sequence, by exact forward iteration —
        symbolically when ``values`` is None, else as Fractions."""
        return ForwardIterator(self.equations, self.initials, values).rows(steps)

    def solve(self) -> dict[SequenceSymbol, ExpPolynomial]:
        return solve_system(self.equations, self.initials)

    def closed_form(self) -> ExpPolynomial:
        """Closed form of the target sequence."""
        if not self.combination:
            return ep_zero()
        solved = self.solve()
        acc = ep_zero()
        for c, s in self.combination:
            acc = ep_add(acc, ep_scale(solved[s], c))
        return acc

    def render(self) -> str:
        return "\n".join(
            render_recurrence(s, terms) for s, terms in self.equations.items() if not s.is_constant
        )


# ---------------------------------------------------------------------------
# Recurrences and their assembly
# ---------------------------------------------------------------------------


def sensitivity_recurrence(
    ctx: MomentContext, monomial: VarMonomial, param: str, debug: bool = False
) -> Terms:
    """Terms of the one-step recurrence for d/dp E[monomial]: differentiate
    the moment recurrence term by term.

    Two drops keep the system small: a moment term vanishes when its
    coefficient is constant in the parameter, and a sensitivity term vanishes
    when its monomial touches no p-dependent variable.  ``debug`` disables
    both (the larger system must agree — a useful cross-check)."""
    base = ctx.recurrence(monomial)
    pdep = ctx.facts.graph.p_dependent(param)
    terms: list[tuple[ParamExpr, SequenceSymbol]] = []
    for mono, coeff in base.terms:
        dc = ctx.derivative(coeff, param)
        if debug or not dc.is_zero:
            terms.append((dc, SequenceSymbol.moment(mono)))
        if mono.is_one:
            continue  # E(1) is constant; its derivative contributes nothing
        if debug or (pdep & mono.variables()):
            terms.append((coeff, SequenceSymbol.sensitivity(mono, param)))
    return tuple(terms)


def _cap_guard(cap: int, equations: dict, pending: int) -> None:
    """Raise once the system cannot fit: every one of the ``pending`` queued
    symbols still gets an equation of its own."""
    if len(equations) + pending > cap:
        recent = list(equations)[-5:]
        raise EquationCapError(
            cap, len(equations) + pending, tuple(str(s) for s in recent)
        )


def _assemble(
    ctx: MomentContext,
    target: VarMonomial,
    param: Optional[str],
    cap: int,
    debug: bool = False,
) -> RecurrenceSystem:
    """Worklist assembly of the system for E[target] (``param`` None) or for
    d/dp E[target].

    One heap pops every sensitivity before every moment, each kind smallest
    monomial first (degree, then lexicographic), so assembly order is
    deterministic; a sensitivity recurrence queues both kinds, a moment
    recurrence only moments.  E(1) gets its trivial equation when referenced,
    and every symbol gets its exact initial value."""
    heap: list = []
    queued: set = set()

    def push(sym: SequenceSymbol) -> None:
        if sym not in queued:
            queued.add(sym)
            if not sym.is_constant:
                heappush(heap, (sym.is_moment, sym.monomial.deglex_key, sym))

    if param is not None:
        pdep = ctx.facts.graph.p_dependent(param)
    combination = []
    for mono, c in ctx.reduce(PolyExpr.monomial(target)).terms:
        if param is None:
            sym = SequenceSymbol.moment(mono)
        elif mono.is_one:
            continue  # constant part of the target has zero derivative
        elif not (debug or (pdep & mono.variables())):
            continue  # p-independent part: sensitivity identically zero
        else:
            sym = SequenceSymbol.sensitivity(mono, param)
        combination.append((c, sym))
        push(sym)

    equations: dict[SequenceSymbol, Terms] = {}
    while heap:
        sym = heappop(heap)[2]
        _cap_guard(cap, equations, len(heap) + 1)
        if sym.is_moment:
            terms = tuple(
                (c, SequenceSymbol.moment(m)) for m, c in ctx.recurrence(sym.monomial).terms
            )
        else:
            terms = sensitivity_recurrence(ctx, sym.monomial, param, debug=debug)
        equations[sym] = terms
        for _, s in terms:
            push(s)
    if MOMENT_ONE in queued:
        equations[MOMENT_ONE] = ((ParamExpr.one(), MOMENT_ONE),)

    initials: dict[SequenceSymbol, ParamExpr] = {}
    for s in equations:
        if s.is_constant:
            initials[s] = ParamExpr.one()
        elif s.is_moment:
            initials[s] = ctx.initial(s.monomial)
        else:
            initials[s] = ctx.derivative(ctx.initial(s.monomial), s.param)
    return RecurrenceSystem(target, param, tuple(combination), equations, initials)


def moment_closure(
    program, target: VarMonomial, cap: int = DEFAULT_EQUATION_CAP
) -> RecurrenceSystem:
    """The self-contained system of moment recurrences a target needs."""
    return _assemble(_as_context(program), target, None, cap)


def sensitivity_system(
    program,
    target: VarMonomial,
    param: str,
    *,
    cap: int = DEFAULT_EQUATION_CAP,
    debug: bool = False,
) -> RecurrenceSystem:
    """The sensitivity-recurrence system for d/dp E[target].

    Requires the program to pass the dependency-graph criteria (or be
    admissible outright); a p-independent target yields the empty system,
    whose closed form is identically zero."""
    ctx = _as_context(program)
    cls = ctx.facts.classification(param)
    if not (cls.thm2_ok or cls.admissible):
        raise ClassificationError(
            f"cannot derive sensitivity recurrences w.r.t. {param!r}: "
            "a parameter-influenced dependency reaches a defective variable",
            cls.witnesses,
        )
    return _assemble(ctx, target, param, cap, debug)


# ---------------------------------------------------------------------------
# The analysis entry point
# ---------------------------------------------------------------------------


@dataclass
class SensitivityResult:
    """What an analysis produced: the solved system and the closed form of
    d/dp E[target**power] (valid from index len(prefix) on), together with
    the classification verdict the analysis was checked against."""

    target: VarMonomial
    parameter: str
    method: str
    system: RecurrenceSystem
    closed_form: ExpPolynomial
    classification: Classification

    @property
    def equation_count(self) -> int:
        return self.system.size


def parameter_sensitivity(
    program,
    target: VarMonomial,
    param: str,
    *,
    method: str = "auto",
    cap: int = DEFAULT_EQUATION_CAP,
    debug: bool = False,
) -> SensitivityResult:
    """d/dp E[target] by ``method``: 'diff', 'sensrec', or 'auto'
    (differentiation when the loop is admissible, sensitivity recurrences
    otherwise).

    'diff' solves the target's moment system to a closed form and
    differentiates it.  It needs admissibility, since defective variables
    would keep the moment system from closing.  A target none of whose
    variables depends on the parameter has the zero sensitivity and the empty
    system, as with sensitivity recurrences.  'sensrec' assembles and solves
    the sensitivity-recurrence system directly; ``debug`` turns off its
    pruning (see :func:`sensitivity_system`).  The verdict is the one the
    program's facts keep, so a program classified before is not classified
    again."""
    if method not in ("auto", "diff", "sensrec"):
        raise ValueError(f"unknown method {method!r}")
    ctx = _as_context(program)
    cls = ctx.facts.classification(param)
    if method == "auto":
        if cls.admissible:
            method = "diff"
        elif cls.thm2_ok:
            method = "sensrec"
        else:
            raise ClassificationError(
                f"no supported analysis for this program w.r.t. {param!r}",
                cls.witnesses,
            )
    if method == "sensrec":
        system = sensitivity_system(ctx, target, param, cap=cap, debug=debug)
        closed = system.closed_form()
    elif not cls.admissible:
        raise ClassificationError(
            "closed-form differentiation needs an admissible loop",
            cls.witnesses,
        )
    elif target.variables().isdisjoint(cls.p_dependent):
        system = RecurrenceSystem(target, None, (), {}, {})
        closed = ep_zero()
    else:
        system = moment_closure(ctx, target, cap=cap)
        closed = ep_diff(system.closed_form(), param)
    return SensitivityResult(
        target=target,
        parameter=param,
        method=method,
        system=system,
        closed_form=closed,
        classification=cls,
    )
