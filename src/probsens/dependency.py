"""Variable dependency analysis over normalized programs.

Three families of syntactic relations are computed here, all on the guarded
single-assignment form:

* direct and transitive dependency between variables (including edges induced
  by guard conditions and by the value kept when a guard fails),
* non-linear dependency, whose transitive variant marks *defective* variables
  (those reachable from themselves through at least one non-linear hop), and
* parameter dependence / parameter-influenced dependency, which decide whether
  sensitivity recurrences close into a finite linear system.

A separate value-set interpretation reports which variables only ever take
finitely many values; branching is only supported over such variables.  It
is a plain fixpoint over int and ``Fraction`` values that gives a variable up
as not finite past 64 values, past 4096 value combinations of one right-hand
side, or at a value of more than 4096 bits.

Reading a variable before its unique body assignment refers to the previous
iteration's value, but the induced dependency edge is the same either way, so
the graph does not distinguish the two.

Every analysis reads one table of :class:`Step` per program.  A program
derives its table, value sets, graph and per-parameter verdicts at most once
and keeps them (:func:`program_facts`); they are shared, so read-only.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Optional

from .syntax import (
    AssignRhs,
    BExpr,
    BTrue,
    DistDraw,
    NormalizedProgram,
    bexpr_params,
    bexpr_vars,
)

VALUE_SET_CAP = 64
_POINT_CAP = 4096
# A value whose numerator or denominator has more bits than this makes its
# support None: a squaring loop reaches 2**(2**k) long before 64 values.
_BIT_CAP = 4096

# A support is either a finite set of rational values or None ("not finite").
Support = Optional[frozenset]


# ---------------------------------------------------------------------------
# Value-set analysis
# ---------------------------------------------------------------------------


def _draw_values(rhs: DistDraw) -> Support:
    if rhs.kind == "Bernoulli":
        return frozenset({0, 1})
    if rhs.kind == "DiscreteUniform":
        a, b = rhs.args
        if not (a.is_rational and b.is_rational):
            return None
        lo, hi = a.as_fraction(), b.as_fraction()
        if lo.denominator != 1 or hi.denominator != 1 or hi < lo or hi - lo + 1 > VALUE_SET_CAP:
            return None
        return frozenset(range(int(lo), int(hi) + 1))
    return None  # Normal, Uniform: continuous


def _compile_choice(poly):
    """``(names, constant term, blocks)`` of a choice polynomial, or None when
    a coefficient carries a parameter.

    The monomials fall into blocks that share no variable.  A block is
    ``(positions of its variables in names, terms)``, and a term is
    ``(coefficient, ((index into the block's variables, exponent), ...))``.
    A block that is one variable times a coefficient holds that coefficient
    in place of its terms.  Coefficients are ints when integral, else
    ``Fraction``s.
    """
    if any(not c.is_rational for _, c in poly.terms):
        return None
    names = tuple(sorted(poly.variables()))
    index = {v: i for i, v in enumerate(names)}
    offset = 0
    groups: list[tuple[set[int], list]] = []
    for mono, coeff in poly.terms:
        c = coeff.as_fraction()
        c = c.numerator if c.denominator == 1 else c
        if mono.is_one:
            offset = c
            continue
        reads = {index[v] for v, _ in mono.powers}
        terms = [(c, tuple((index[v], e) for v, e in mono.powers))]
        for group in [g for g in groups if g[0] & reads]:
            groups.remove(group)
            reads |= group[0]
            terms += group[1]
        groups.append((reads, terms))
    blocks = []
    for reads, terms in groups:
        pos = tuple(sorted(reads))
        local = {p: i for i, p in enumerate(pos)}
        terms = [(c, tuple((local[p], e) for p, e in pw)) for c, pw in terms]
        if len(terms) == 1 and terms[0][1] == ((0, 1),):
            terms = terms[0][0]
        blocks.append((pos, terms))
    return names, offset, blocks


def _choice_values(choice, supports) -> Optional[set]:
    """Values of a compiled choice polynomial over the whole product of the
    current supports, or None once it is not finite-valued.

    A parameter coefficient, a read variable that is None, or a running
    product of support sizes (in sorted-name order) past ``_POINT_CAP`` gives
    None before anything is evaluated.  The values are the constant term plus
    the sumset of the blocks' values; a partial sum past ``VALUE_SET_CAP``
    gives None, since shifting it by one value of each block still to come
    keeps it inside the whole sumset.
    """
    if choice is None:
        return None
    names, offset, blocks = choice
    sets = []
    points = 1
    for v in names:
        values = supports[v]
        if values is None:
            return None
        points *= len(values)
        if points > _POINT_CAP:
            return None
        sets.append(values)
    acc = {offset}
    for pos, terms in blocks:
        if type(terms) is not list:
            part = sets[pos[0]] if terms == 1 else {terms * x for x in sets[pos[0]]}
        else:
            part = set()
            for combo in product(*[sets[p] for p in pos]):
                val = 0
                for c, powers in terms:
                    for j, e in powers:
                        c *= combo[j] ** e
                    val += c
                part.add(val)
        acc = {a + b for a in acc for b in part}
        if len(acc) > VALUE_SET_CAP:
            return None
    return acc


# ---------------------------------------------------------------------------
# The step table and the facts of one program
# ---------------------------------------------------------------------------


class Step:
    """One assignment ``target = rhs [guard] else else_source`` and what the
    analyses read off it; an initial assignment has the guard ``true``.

    The reads are split into ``rhs_reads`` and ``guard_reads``, and
    ``reads`` joins them with the else source.  The parameters are split
    into ``rhs_params``, ``prob_params`` and ``guard_params``.  ``values`` is
    what the value-set fixpoint joins into the target: a draw's values (None
    when not finite), or one compiled choice per alternative.  ``nonlinear``
    has the variables of right-hand-side monomials of degree two or more.
    Steps compare by identity."""

    __slots__ = (
        "target", "rhs", "guard", "else_source", "rhs_reads", "guard_reads", "reads",
        "rhs_params", "prob_params", "guard_params", "values", "nonlinear",
    )

    def __init__(self, target: str, rhs: AssignRhs, guard: BExpr = BTrue(), else_source=None):
        self.target, self.rhs, self.guard, self.else_source = target, rhs, guard, else_source
        reads, params, probs, nonlinear = set(), set(), set(), set()
        if isinstance(rhs, DistDraw):
            params, self.values = rhs.free_params(), _draw_values(rhs)
        else:
            self.values = []
            for poly, prob in rhs.choices:
                self.values.append(_compile_choice(poly))
                probs |= prob.free_params()
                for mono, coeff in poly.terms:
                    names = [v for v, _ in mono.powers]
                    reads.update(names)
                    params |= coeff.free_params()
                    if mono.degree >= 2:
                        nonlinear.update(names)
        self.rhs_reads, self.guard_reads = frozenset(reads), bexpr_vars(guard)
        self.reads = self.rhs_reads | self.guard_reads | ({else_source} - {None})
        self.rhs_params, self.prob_params = frozenset(params), frozenset(probs)
        self.guard_params, self.nonlinear = bexpr_params(guard), frozenset(nonlinear)


class ProgramFacts:
    """What the analyses derive from one normalized program, each at most
    once: the step table (``init`` and ``body``), the value sets, the
    dependency graph and the verdict per parameter.  A miss calls
    :func:`variable_supports`, :func:`build_graph` or :func:`classify`.
    The facts hold their program weakly, since the program holds them, and
    record the value-set caps they were derived under."""

    def __init__(self, np: NormalizedProgram, caps: tuple):
        self._program = weakref.ref(np)
        self.caps = caps
        self.init = tuple(Step(v, rhs) for v, rhs in np.init)
        self.body = tuple(Step(ga.target, ga.rhs, ga.guard, ga.else_source) for ga in np.body)
        self.verdicts: dict[Optional[str], Classification] = {}

    @cached_property
    def supports(self) -> dict[str, Support]:
        return variable_supports(self._program())

    @cached_property
    def graph(self) -> DependencyGraph:
        return build_graph(self._program())

    def classification(self, p: Optional[str]) -> Classification:
        cls = self.verdicts.get(p)
        return cls if cls is not None else classify(self._program(), p)


def program_facts(np: NormalizedProgram) -> ProgramFacts:
    """The facts of ``np``, derived on first use and kept on the program
    object, so that they go away with it."""
    caps = (VALUE_SET_CAP, _POINT_CAP, _BIT_CAP)
    facts = vars(np).get("_facts")
    if facts is None or facts.caps != caps:
        facts = vars(np)["_facts"] = ProgramFacts(np, caps)
    return facts


def variable_supports(np: NormalizedProgram) -> dict[str, Support]:
    """Forward value-set fixpoint: variable -> finite set of values, or None.

    The empty set marks a variable that is never given a value before being
    read (possible for names first written inside one branch of a
    conditional); joining it is a no-op, which is exactly right.

    Supports are ordered by inclusion, with None ("not finite") on top.  One
    assignment joins into its target the values of its right-hand side over
    the product of the supports it reads, and the support of its kept value.
    The target becomes None past ``VALUE_SET_CAP`` values or at a value whose
    numerator or denominator has more than ``_BIT_CAP`` bits, and a choice
    gives None at a parameter coefficient, at a read variable that is None or
    past ``_POINT_CAP`` value combinations.  Each such step is a union that is
    monotone in the supports, and a support grows to at most
    ``VALUE_SET_CAP`` values before it turns None, so every fair order of
    steps reaches the same least fixpoint above the initial values.  This one
    is plain: every pass evaluates every right-hand side on the whole product
    of the current supports, until a pass changes nothing.  Values are held
    as ints where they are integral and become ``Fraction``s in the result.
    Each call runs the fixpoint on the program's step table;
    ``program_facts(np).supports`` keeps one result per program.
    """
    supports: dict[str, Optional[set]] = {v: set() for v in np.all_variables}

    def join(t: str, values) -> bool:
        """Join ``values`` into the support of ``t``; True if it grew."""
        sup = supports[t]
        if sup is None:
            return False
        if values is None:
            supports[t] = None
            return True
        new = [x for x in values if x not in sup]
        for x in new:
            num, den = x.numerator, x.denominator
            if num.bit_length() > _BIT_CAP or den.bit_length() > _BIT_CAP:
                supports[t] = None
                return True
            sup.add(num if den == 1 else x)
        if len(sup) > VALUE_SET_CAP:
            supports[t] = None
        return bool(new)

    def assign(step: Step) -> bool:
        t, values = step.target, step.values
        if not isinstance(values, list):
            grew = join(t, values)
        else:
            grew = False
            for choice in values:
                if supports[t] is None:
                    break
                grew |= join(t, _choice_values(choice, supports))
        if step.else_source is not None:
            grew |= join(t, supports[step.else_source])
        return grew

    facts = program_facts(np)
    for step in facts.init:
        assign(step)
    grew = True
    while grew:
        grew = False
        for step in facts.body:
            if supports[step.target] is not None:
                grew |= assign(step)
    return {v: None if s is None else frozenset(map(Fraction, s)) for v, s in supports.items()}


# ---------------------------------------------------------------------------
# Dependency graph
# ---------------------------------------------------------------------------


def _closure(edges: dict[str, frozenset[str]], nodes) -> dict[str, frozenset[str]]:
    """Reflexive-transitive closure by breadth-first search from each node."""
    out = {}
    for start in nodes:
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in edges.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        out[start] = frozenset(seen)
    return out


class DependencyGraph:
    """Immutable dependency relations of a normalized program.

    A guarded assignment ``t = rhs [C] else d`` makes ``t`` depend directly on
    every variable of ``rhs``, on ``d``, and on the variables of ``C``.  A
    dependency is non-linear when the variable sits in a right-hand-side
    monomial of total degree at least two (it carries an exponent >= 2 or is
    multiplied by another program variable).
    """

    def __init__(self, np: NormalizedProgram):
        facts = program_facts(np)
        self._init, self._body = facts.init, facts.body
        self.variables: tuple[str, ...] = np.all_variables
        empty = dict.fromkeys(self.variables, frozenset())
        self.direct = empty | {step.target: step.reads for step in self._body}
        self.nonlinear = empty | {step.target: step.nonlinear for step in self._body}

        self._reach = _closure(self.direct, self.variables)
        # Parameter dependence also flows through initialization reads: a
        # variable seeded from a parameter-dependent value has a
        # parameter-dependent zeroth moment.
        pdep_edges = dict(self.direct)
        for step in self._init:
            pdep_edges[step.target] |= step.rhs_reads
        self._pdep_reach = _closure(pdep_edges, self.variables)

        self.defective: frozenset[str] = frozenset(
            x for x in self.variables if self.depends_nonlinear(x, x)
        )
        self._pdep_cache: dict[str, frozenset[str]] = {}
        self._infl_cache: dict[str, tuple[dict, dict]] = {}

    # -- basic relations ----------------------------------------------------

    def reach(self, x: str) -> frozenset[str]:
        """Variables reachable from x over direct edges (including x)."""
        return self._reach[x]

    def depends_nonlinear(self, x: str, y: str) -> bool:
        """Some dependency path from x to y crosses a non-linear edge."""
        for a in self._reach[x]:
            for b in self.nonlinear[a]:
                if y in self._reach[b]:
                    return True
        return False

    # -- parameter relations --------------------------------------------------

    def p_dependent(self, p: str) -> frozenset[str]:
        """Variables whose distribution is affected by the parameter p."""
        cached = self._pdep_cache.get(p)
        if cached is not None:
            return cached
        base = frozenset(
            step.target
            for step in (*self._init, *self._body)
            if p in step.rhs_params or p in step.prob_params or p in step.guard_params
        )
        result = frozenset(v for v in self.variables if self._pdep_reach[v] & base)
        self._pdep_cache[p] = result
        return result

    def influenced_edges(self, p: str) -> dict[str, frozenset[str]]:
        """Direct edges whose recurrence contribution multiplies by p."""
        return self._influenced(p)[0]

    def edge_reason(self, x: str, y: str, p: str) -> Optional[str]:
        return self._influenced(p)[1].get((x, y))

    def _influenced(self, p: str):
        cached = self._infl_cache.get(p)
        if cached is not None:
            return cached
        pdep = self.p_dependent(p)
        edges: dict[str, set[str]] = {v: set() for v in self.variables}
        reasons: dict[tuple[str, str], str] = {}
        for step in self._body:
            t = step.target
            if p in step.guard_params or (step.guard_reads & pdep):
                targets = set(step.rhs_reads)
                if step.else_source is not None:
                    targets.add(step.else_source)
                for y in targets:
                    edges[t].add(y)
                    reasons.setdefault((t, y), "guard")
            if p in step.prob_params:
                for y in step.rhs_reads:
                    edges[t].add(y)
                    reasons.setdefault((t, y), "probability")
            choices = () if isinstance(step.rhs, DistDraw) else step.rhs.choices
            for mono, coeff in (term for poly, _ in choices for term in poly.terms):
                has_p = p in coeff.free_params()
                for y in mono.variables():
                    cofactor = frozenset(
                        v for v, e in mono.powers if v != y or e >= 2
                    )
                    if has_p or (cofactor & pdep):
                        edges[t].add(y)
                        reasons.setdefault((t, y), "term")
        frozen = {v: frozenset(s) for v, s in edges.items()}
        self._infl_cache[p] = (frozen, reasons)
        return frozen, reasons

    # -- witnesses ------------------------------------------------------------

    def _shortest_path(self, src: str, dst: str) -> Optional[list[str]]:
        if src == dst:
            return [src]
        prev: dict[str, str] = {}
        queue = deque([src])
        seen = {src}
        while queue:
            v = queue.popleft()
            for w in sorted(self.direct[v]):
                if w in seen:
                    continue
                prev[w] = v
                if w == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(prev[path[-1]])
                    return path[::-1]
                seen.add(w)
                queue.append(w)
        return None

    def defective_witness(self, x: str) -> str:
        """Shortest self-path with its non-linear hop, e.g. ``w =N=> x => w``."""
        best = None
        for a in sorted(self._reach[x]):
            for b in sorted(self.nonlinear[a]):
                if x not in self._reach[b]:
                    continue
                p1 = self._shortest_path(x, a)
                p2 = self._shortest_path(b, x)
                if p1 is None or p2 is None:
                    continue
                cand = (len(p1) + len(p2), p1, p2)
                if best is None or cand[:1] < best[:1]:
                    best = cand
        if best is None:
            raise ValueError(f"variable {x!r} is not defective")
        _, p1, p2 = best
        return f"{' => '.join(p1)} =N=> {' => '.join(p2)} : defective"


def build_graph(np: NormalizedProgram) -> DependencyGraph:
    return DependencyGraph(np)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """Answers for one program (and optionally one parameter).

    ``admissible``: every guard variable finite-valued and no variable
    defective; moments of all variables then close into finite linear
    systems.  ``thm2_ok``: guard variables finite, defective variables
    untouched by the parameter, and no parameter-influenced dependency
    reaching a defective variable; sensitivity recurrences then close even
    when moments do not.
    """

    parameter: Optional[str]
    admissible: bool
    thm2_ok: bool
    witnesses: tuple[str, ...]
    guard_vars_finite: bool
    defective: tuple[str, ...]
    p_dependent: tuple[str, ...]


def classify(np: NormalizedProgram, p: Optional[str] = None) -> Classification:
    """Classify ``np`` with respect to ``p``.  The verdict is kept with the
    program's other facts, so a later call returns it without work."""
    facts = program_facts(np)
    cls = facts.verdicts.get(p)
    if cls is not None:
        return cls
    graph = facts.graph
    finite = frozenset(v for v, s in facts.supports.items() if s is not None)
    guard_vars = sorted(frozenset().union(*(step.guard_reads for step in facts.body)))
    nonfinite = [v for v in guard_vars if v not in finite]
    defective = tuple(sorted(graph.defective))

    witnesses: list[str] = []
    for v in nonfinite:
        witnesses.append(f"guard variable {v!r} is not finite-valued")
    for x in defective:
        witnesses.append(graph.defective_witness(x))

    admissible = not nonfinite and not defective
    thm2_ok = not nonfinite
    pdep: tuple[str, ...] = ()
    if p is not None:
        pdep_set = graph.p_dependent(p)
        pdep = tuple(sorted(pdep_set))
        for w in defective:
            if w in pdep_set:
                witnesses.append(f"defective variable {w!r} depends on parameter {p!r}")
                thm2_ok = False
        infl = graph.influenced_edges(p)
        for a in graph.variables:
            for b in sorted(infl[a]):
                bad = sorted(graph.reach(b) & graph.defective)
                if bad:
                    witnesses.append(
                        f"{a} ={p}=> {b} : parameter-influenced dependency "
                        f"reaching defective {bad[0]!r}"
                    )
                    thm2_ok = False

    cls = facts.verdicts[p] = Classification(
        parameter=p,
        admissible=admissible,
        thm2_ok=thm2_ok,
        witnesses=tuple(witnesses),
        guard_vars_finite=not nonfinite,
        defective=defective,
        p_dependent=pdep,
    )
    return cls
