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
p-dependent.  The worklist closes over the surviving symbols: first every
required sensitivity, then every required moment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Mapping, Optional

from .dependency import Classification, DependencyGraph
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
from .syntax import (
    BTrue,
    Categorical,
    GuardedAssignment,
    NormalizedProgram,
    PolyExpr,
    VarMonomial,
)

__all__ = [
    "Recurrence",
    "RecurrenceSystem",
    "SensitivityResult",
    "SequenceSymbol",
    "coeff_text",
    "moment_closure",
    "parameter_sensitivity",
    "sensitivity_recurrence",
    "sensitivity_system",
    "with_power_variable",
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

    def sort_key(self) -> tuple:
        return (self.monomial.deglex_key, 0 if self.param is None else 1)

    def indexed(self, index: str) -> str:
        if self.param is None:
            return f"E({self.monomial} | {index})"
        return f"d/d{self.param} E({self.monomial} | {index})"

    def __str__(self) -> str:
        if self.param is None:
            return f"E({self.monomial})"
        return f"d/d{self.param} E({self.monomial})"


MOMENT_ONE = SequenceSymbol.moment(VarMonomial.one())


def coeff_text(c: ParamExpr, names: Optional[dict[ParamExpr, str]] = None) -> str:
    """``str(c)``, printed once per ``names`` table: one table serves a whole
    rendered system, whose coefficients repeat a few values many times."""
    if names is None:
        return str(c)
    s = names.get(c)
    if s is None:
        s = names[c] = str(c)
    return s


@dataclass(frozen=True)
class Recurrence:
    """``lhs(n+1) = sum of coeff * symbol(n)`` with pairwise-distinct symbols.

    The constant contribution rides on the designated symbol E(1)."""

    lhs: SequenceSymbol
    terms: tuple[tuple[ParamExpr, SequenceSymbol], ...]

    def coefficient(self, symbol: SequenceSymbol) -> ParamExpr:
        for c, s in self.terms:
            if s == symbol:
                return c
        return ParamExpr.zero()

    def render(self, names: Optional[dict[ParamExpr, str]] = None) -> str:
        """The equation as text; ``names`` is a print table shared by the
        equations of one system (see :func:`coeff_text`)."""
        parts = []
        for c, s in self.terms:
            if s.is_constant:
                text = coeff_text(c, names)
                parts.append(text if not (" + " in text or " - " in text) else f"({text})")
            elif c.is_one:
                parts.append(s.indexed("n"))
            else:
                parts.append(f"{_paren(coeff_text(c, names))}*{s.indexed('n')}")
        rhs = " + ".join(parts) if parts else "0"
        return f"{self.lhs.indexed('n+1')} = {rhs}"

    def __str__(self) -> str:
        return self.render()


# ---------------------------------------------------------------------------
# Recurrence systems
# ---------------------------------------------------------------------------


@dataclass
class RecurrenceSystem:
    """A closed linear system over sequence symbols, plus how the quantity of
    interest decomposes over them.

    ``combination`` expresses the target sequence as a linear combination of
    system symbols (after canonicalization a single monomial can spread over
    several); it is empty exactly when the target is identically zero.
    The system does not keep the ``MomentContext`` it was assembled in.
    """

    target: VarMonomial
    parameter: Optional[str]
    combination: tuple[tuple[ParamExpr, SequenceSymbol], ...]
    equations: dict[SequenceSymbol, Recurrence]
    initials: dict[SequenceSymbol, ParamExpr]

    @property
    def size(self) -> int:
        """Number of equations, not counting the constant sequence E(1)."""
        return sum(1 for s in self.equations if not s.is_constant)

    @property
    def symbols(self) -> tuple[SequenceSymbol, ...]:
        return tuple(self.equations)

    def monomials(self, kind: str) -> tuple[VarMonomial, ...]:
        """The monomials carried by this system's 'moment' or 'sensitivity'
        symbols, constant excluded — handy for comparing worklists."""
        want_moment = kind == "moment"
        return tuple(
            s.monomial
            for s in self.equations
            if s.is_moment == want_moment and not s.is_constant
        )

    def initial(self, symbol: SequenceSymbol) -> ParamExpr:
        return self.initials[symbol]

    def iterate(
        self, steps: int, values: Optional[Mapping[str, Fraction]] = None
    ) -> list[dict]:
        """Rows 0..steps of every sequence, by exact forward iteration —
        symbolically when ``values`` is None, else as Fractions."""
        equations = {s: rec.terms for s, rec in self.equations.items()}
        return ForwardIterator(equations, self.initials, values).rows(steps)

    def solve(self) -> dict[SequenceSymbol, ExpPolynomial]:
        equations = {s: rec.terms for s, rec in self.equations.items()}
        return solve_system(equations, self.initials)

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
        names: dict[ParamExpr, str] = {}
        lines = []
        for s, rec in self.equations.items():
            if s.is_constant:
                continue
            lines.append(rec.render(names))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Moment closure (shared by the differentiation path and the sensitivity path)
# ---------------------------------------------------------------------------


def _monomial_heap_push(heap: list, queued: set, monomial: VarMonomial) -> None:
    if monomial not in queued and not monomial.is_one:
        heappush(heap, (monomial.deglex_key, monomial))
        queued.add(monomial)


def _cap_guard(cap: int, equations: dict, pending: int) -> None:
    """Raise once the system cannot fit: every one of the ``pending`` queued
    monomials still gets an equation of its own."""
    if len(equations) + pending > cap:
        recent = list(equations)[-5:]
        raise EquationCapError(
            cap, len(equations) + pending, tuple(str(s) for s in recent)
        )


def _close_moments(
    ctx: MomentContext, heap: list, queued: set, equations: dict, cap: int
) -> None:
    """Add the moment recurrence of every queued monomial, and of every
    monomial those recurrences mention, smallest monomial first."""
    while heap:
        _, mono = heappop(heap)
        _cap_guard(cap, equations, len(heap) + 1)
        rhs = ctx.recurrence(mono)
        sym = SequenceSymbol.moment(mono)
        equations[sym] = Recurrence(
            sym, tuple((c, SequenceSymbol.moment(m)) for m, c in rhs.terms)
        )
        for m, _ in rhs.terms:
            _monomial_heap_push(heap, queued, m)


def moment_closure(
    program, target: VarMonomial, cap: int = DEFAULT_EQUATION_CAP
) -> RecurrenceSystem:
    """The self-contained system of moment recurrences a target needs,
    worklist-assembled smallest-monomial-first."""
    ctx = _as_context(program)
    target_poly = ctx.reduce(PolyExpr.monomial(target))

    heap: list = []
    queued: set = set()
    combination = []
    for mono, c in target_poly.terms:
        combination.append((c, SequenceSymbol.moment(mono)))
        _monomial_heap_push(heap, queued, mono)

    equations: dict[SequenceSymbol, Recurrence] = {}
    _close_moments(ctx, heap, queued, equations, cap)
    return _finish_system(ctx, target, None, tuple(combination), equations)


def _finish_system(ctx, target, parameter, combination, equations) -> RecurrenceSystem:
    """Close over E(1) where referenced and attach exact initial values."""
    referenced_one = any(
        t.is_constant for rec in equations.values() for _, t in rec.terms
    ) or any(s.is_constant for _, s in combination)
    if referenced_one and MOMENT_ONE not in equations:
        equations[MOMENT_ONE] = Recurrence(MOMENT_ONE, ((ParamExpr.one(), MOMENT_ONE),))

    initials: dict[SequenceSymbol, ParamExpr] = {}
    for s in equations:
        if s.is_constant:
            initials[s] = ParamExpr.one()
        elif s.is_moment:
            initials[s] = ctx.initial(s.monomial)
        else:
            initials[s] = ctx.derivative(ctx.initial(s.monomial), s.param)
    return RecurrenceSystem(
        target=target,
        parameter=parameter,
        combination=combination,
        equations=equations,
        initials=initials,
    )


# ---------------------------------------------------------------------------
# Sensitivity recurrences
# ---------------------------------------------------------------------------


def sensitivity_recurrence(
    ctx: MomentContext,
    graph: DependencyGraph,
    monomial: VarMonomial,
    param: str,
    debug: bool = False,
) -> Recurrence:
    """One-step recurrence for d/dp E[monomial]: differentiate the moment
    recurrence term by term.

    Two drops keep the system small: a moment term vanishes when its
    coefficient is constant in the parameter, and a sensitivity term vanishes
    when its monomial touches no p-dependent variable.  ``debug`` disables
    both (the larger system must agree — a useful cross-check)."""
    base = ctx.recurrence(monomial)
    pdep = graph.p_dependent(param)
    terms: list[tuple[ParamExpr, SequenceSymbol]] = []
    for mono, coeff in base.terms:
        dc = ctx.derivative(coeff, param)
        if debug or not dc.is_zero:
            terms.append((dc, SequenceSymbol.moment(mono)))
        if mono.is_one:
            continue  # E(1) is constant; its derivative contributes nothing
        if debug or (pdep & mono.variables()):
            terms.append((coeff, SequenceSymbol.sensitivity(mono, param)))
    return Recurrence(SequenceSymbol.sensitivity(monomial, param), tuple(terms))


def sensitivity_system(
    program,
    target: VarMonomial,
    param: str,
    *,
    cap: int = DEFAULT_EQUATION_CAP,
    debug: bool = False,
) -> RecurrenceSystem:
    """Worklist assembly of the sensitivity-recurrence system for
    d/dp E[target].

    Requires the program to pass the dependency-graph criteria (or be
    admissible outright); a p-independent target yields the empty system,
    whose closed form is identically zero.  Sensitivities are closed over
    first, then the moments they mention; both worklists pop the smallest
    monomial first (degree, then lexicographic), so assembly order is
    deterministic."""
    ctx = _as_context(program)
    cls = ctx.classification(param)
    if not (cls.thm2_ok or cls.admissible):
        raise ClassificationError(
            f"cannot derive sensitivity recurrences w.r.t. {param!r}: "
            "a parameter-influenced dependency reaches a defective variable",
            cls.witnesses,
        )
    graph = ctx.graph
    pdep = graph.p_dependent(param)
    target_poly = ctx.reduce(PolyExpr.monomial(target))

    sens_heap: list = []
    sens_queued: set = set()
    combination = []
    for mono, c in target_poly.terms:
        if mono.is_one:
            continue  # constant part of the target has zero derivative
        if not (debug or (pdep & mono.variables())):
            continue  # p-independent part: sensitivity identically zero
        combination.append((c, SequenceSymbol.sensitivity(mono, param)))
        _monomial_heap_push(sens_heap, sens_queued, mono)

    equations: dict[SequenceSymbol, Recurrence] = {}
    mom_heap: list = []
    mom_queued: set = set()

    while sens_heap:
        _, mono = heappop(sens_heap)
        _cap_guard(cap, equations, len(sens_heap) + 1 + len(mom_heap))
        rec = sensitivity_recurrence(ctx, graph, mono, param, debug=debug)
        equations[rec.lhs] = rec
        for _, sym in rec.terms:
            if sym.is_moment:
                _monomial_heap_push(mom_heap, mom_queued, sym.monomial)
            else:
                _monomial_heap_push(sens_heap, sens_queued, sym.monomial)

    _close_moments(ctx, mom_heap, mom_queued, equations, cap)
    return _finish_system(ctx, target, param, tuple(combination), equations)


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
    pruning (see :func:`sensitivity_system`).  The program is classified
    once, here."""
    if method not in ("auto", "diff", "sensrec"):
        raise ValueError(f"unknown method {method!r}")
    ctx = _as_context(program)
    cls = ctx.classification(param)
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
        system = _finish_system(ctx, target, None, (), {})
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


# ---------------------------------------------------------------------------
# Higher moments of a single variable via a fresh tracking variable
# ---------------------------------------------------------------------------


def with_power_variable(
    program: NormalizedProgram, var: str, power: int
) -> tuple[NormalizedProgram, str]:
    """Extend the loop with a fresh variable assigned ``var**power`` at the end
    of every iteration (and of the initialization), so the k-th moment of
    ``var`` becomes the first moment of the new variable."""
    if var not in program.variables:
        raise ValueError(f"unknown variable {var!r}")
    if power < 1:
        raise ValueError("power must be positive")
    base = f"{var}_pow{power}"
    name = base
    suffix = 2
    taken = set(program.all_variables) | set(program.params)
    while name in taken:
        name = f"{base}_{suffix}"
        suffix += 1
    rhs = Categorical.sure(PolyExpr.monomial(VarMonomial.var(var, power)))
    extended = NormalizedProgram(
        params=program.params,
        init=program.init + ((name, rhs),),
        body=program.body + (GuardedAssignment(name, rhs, BTrue(), None),),
        variables=tuple(sorted((*program.variables, name))),
        temporaries=program.temporaries,
        temp_origin=program.temp_origin,
        name=program.name,
    )
    return extended, name
