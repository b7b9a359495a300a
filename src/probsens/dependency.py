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
finitely many values; branching is only supported over such variables.

Reading a variable before its unique body assignment refers to the previous
iteration's value, but the induced dependency edge is the same either way, so
the graph does not distinguish the two.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .syntax import (
    BTrue,
    Categorical,
    DistDraw,
    NormalizedProgram,
    bexpr_params,
    bexpr_vars,
)

VALUE_SET_CAP = 64
_POINT_CAP = 4096

# A support is either a finite set of rational values or None ("not finite").
Support = Optional[frozenset]


# ---------------------------------------------------------------------------
# Value-set analysis
# ---------------------------------------------------------------------------


def _join(a: Support, b: Support, cap: int) -> Support:
    if a is None or b is None:
        return None
    u = a | b
    return None if len(u) > cap else u


def _poly_values(poly, supports, cap: int, point_cap: int) -> Support:
    """All values a polynomial can take over the variables' supports.

    Coefficients carrying parameters make the result unbounded for our
    purposes: a symbolic coefficient ranges over all reals.
    """
    for _, coeff in poly.terms:
        if not coeff.is_rational:
            return None
    names = sorted(poly.variables())
    sets = []
    points = 1
    for v in names:
        s = supports[v]
        if s is None:
            return None
        points *= len(s)
        if points > point_cap:
            return None
        sets.append(sorted(s))
    out: set[Fraction] = set()
    for combo in product(*sets):
        out.add(poly.eval_exact(dict(zip(names, combo))))
        if len(out) > cap:
            return None
    return frozenset(out)


def _rhs_values(rhs, supports, cap: int, point_cap: int) -> Support:
    if isinstance(rhs, DistDraw):
        if rhs.kind == "Bernoulli":
            return frozenset({Fraction(0), Fraction(1)})
        if rhs.kind == "DiscreteUniform":
            a, b = rhs.args
            if not (a.is_rational and b.is_rational):
                return None
            lo, hi = a.as_fraction(), b.as_fraction()
            if lo.denominator != 1 or hi.denominator != 1 or hi < lo or hi - lo + 1 > cap:
                return None
            return frozenset(Fraction(k) for k in range(int(lo), int(hi) + 1))
        return None  # Normal, Uniform: continuous
    acc: set[Fraction] = set()
    for poly, _prob in rhs.choices:
        vals = _poly_values(poly, supports, cap, point_cap)
        if vals is None:
            return None
        acc |= vals
        if len(acc) > cap:
            return None
    return frozenset(acc)


def variable_supports(
    np: NormalizedProgram, cap: int = VALUE_SET_CAP, point_cap: int = _POINT_CAP
) -> dict[str, Support]:
    """Forward value-set fixpoint: variable -> finite set of values, or None.

    The empty set marks a variable that is never given a value before being
    read (possible for names first written inside one branch of a
    conditional); joining it is a no-op, which is exactly right.
    """
    supports: dict[str, Support] = {v: frozenset() for v in np.all_variables}
    for v, rhs in np.init:
        supports[v] = _join(supports[v], _rhs_values(rhs, supports, cap, point_cap), cap)
    while True:
        changed = False
        for ga in np.body:
            vals = _rhs_values(ga.rhs, supports, cap, point_cap)
            if ga.else_source is not None:
                vals = _join(vals, supports[ga.else_source], cap)
            new = _join(supports[ga.target], vals, cap)
            if new != supports[ga.target]:
                supports[ga.target] = new
                changed = True
        if not changed:
            return supports


def finite_valued(np: NormalizedProgram, cap: int = VALUE_SET_CAP) -> frozenset[str]:
    """Variables whose value sets stay finite (sound under-approximation)."""
    return frozenset(v for v, s in variable_supports(np, cap=cap).items() if s is not None)


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
        self.program = np
        self.variables: tuple[str, ...] = np.all_variables
        direct: dict[str, set[str]] = {v: set() for v in self.variables}
        nonlinear: dict[str, set[str]] = {v: set() for v in self.variables}
        self._assign_params: dict[str, frozenset[str]] = {v: frozenset() for v in self.variables}
        self._guard_params: dict[str, frozenset[str]] = {v: frozenset() for v in self.variables}
        self._guard_vars: dict[str, frozenset[str]] = {v: frozenset() for v in self.variables}
        self._choice_vars: dict[str, frozenset[str]] = {v: frozenset() for v in self.variables}
        self._else: dict[str, Optional[str]] = {v: None for v in self.variables}
        self._prob_params: dict[str, frozenset[str]] = {v: frozenset() for v in self.variables}
        self._terms: dict[str, tuple] = {v: () for v in self.variables}
        init_params: dict[str, set[str]] = {v: set() for v in self.variables}
        init_reads: dict[str, set[str]] = {v: set() for v in self.variables}

        for v, rhs in np.init:
            init_params[v] |= rhs.free_params()
            init_reads[v] |= rhs.variables()

        for ga in np.body:
            t = ga.target
            gvars = bexpr_vars(ga.guard)
            cvars = ga.rhs.variables()
            direct[t] |= cvars | gvars
            if ga.else_source is not None:
                direct[t].add(ga.else_source)
            self._assign_params[t] = ga.rhs.free_params()
            self._guard_params[t] = bexpr_params(ga.guard)
            self._guard_vars[t] = gvars
            self._choice_vars[t] = cvars
            self._else[t] = ga.else_source
            if isinstance(ga.rhs, Categorical):
                self._terms[t] = tuple(
                    (m, c) for poly, _ in ga.rhs.choices for m, c in poly.terms
                )
                self._prob_params[t] = frozenset().union(
                    *(prob.free_params() for _, prob in ga.rhs.choices)
                )
                for poly, _ in ga.rhs.choices:
                    for mono, _c in poly.terms:
                        if mono.degree >= 2:
                            nonlinear[t] |= mono.variables()

        self.direct: dict[str, frozenset[str]] = {v: frozenset(s) for v, s in direct.items()}
        self.nonlinear: dict[str, frozenset[str]] = {v: frozenset(s) for v, s in nonlinear.items()}
        self._init_params = {v: frozenset(s) for v, s in init_params.items()}
        self._init_reads = {v: frozenset(s) for v, s in init_reads.items()}

        self._reach = _closure(self.direct, self.variables)
        # Parameter dependence also flows through initialization reads: a
        # variable seeded from a parameter-dependent value has a
        # parameter-dependent zeroth moment.
        pdep_edges = {v: self.direct[v] | self._init_reads[v] for v in self.variables}
        self._pdep_reach = _closure(pdep_edges, self.variables)

        self.defective: frozenset[str] = frozenset(
            x for x in self.variables if self._self_nonlinear(x)
        )
        self._pdep_cache: dict[str, frozenset[str]] = {}
        self._infl_cache: dict[str, tuple[dict, dict]] = {}

    # -- basic relations ----------------------------------------------------

    def reach(self, x: str) -> frozenset[str]:
        """Variables reachable from x over direct edges (including x)."""
        return self._reach[x]

    def depends(self, x: str, y: str) -> bool:
        """x depends (transitively, at least one edge) on y."""
        return any(y in self._reach[z] for z in self.direct[x])

    def _self_nonlinear(self, x: str) -> bool:
        return self.depends_nonlinear(x, x)

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
            v
            for v in self.variables
            if p in self._assign_params[v]
            or p in self._guard_params[v]
            or p in self._init_params[v]
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
        for t in self.variables:
            if p in self._guard_params[t] or (self._guard_vars[t] & pdep):
                targets = set(self._choice_vars[t])
                if self._else[t] is not None:
                    targets.add(self._else[t])
                for y in targets:
                    edges[t].add(y)
                    reasons.setdefault((t, y), "guard")
            if p in self._prob_params[t]:
                for y in self._choice_vars[t]:
                    edges[t].add(y)
                    reasons.setdefault((t, y), "probability")
            for mono, coeff in self._terms[t]:
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

    def depends_influenced(self, x: str, y: str, p: str) -> bool:
        """Some dependency path from x to y crosses a p-influenced edge."""
        infl = self.influenced_edges(p)
        for a in self._reach[x]:
            for b in infl[a]:
                if y in self._reach[b]:
                    return True
        return False

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


def classify(
    np: NormalizedProgram,
    p: Optional[str] = None,
    graph: Optional[DependencyGraph] = None,
    supports: Optional[dict[str, Support]] = None,
) -> Classification:
    """Classify ``np``; ``graph`` and ``supports`` (the value sets of
    :func:`variable_supports`) are computed here unless the caller has them."""
    graph = graph if graph is not None else build_graph(np)
    if supports is None:
        finite = finite_valued(np)
    else:
        finite = frozenset(v for v, s in supports.items() if s is not None)
    guard_vars = sorted(
        frozenset().union(*(bexpr_vars(ga.guard) for ga in np.body), frozenset())
    )
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
        defective_set = frozenset(defective)
        for a in graph.variables:
            for b in sorted(infl[a]):
                bad = sorted(graph.reach(b) & defective_set)
                if bad:
                    witnesses.append(
                        f"{a} ={p}=> {b} : parameter-influenced dependency "
                        f"reaching defective {bad[0]!r}"
                    )
                    thm2_ok = False

    return Classification(
        parameter=p,
        admissible=admissible,
        thm2_ok=thm2_ok,
        witnesses=tuple(witnesses),
        guard_vars_finite=not nonfinite,
        defective=defective,
        p_dependent=pdep,
    )
