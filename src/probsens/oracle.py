"""Independent numeric oracle: exact enumeration and Monte Carlo simulation.

This module deliberately shares no machinery with the recurrence pipeline.
It interprets programs directly, in two modes:

* exact weighted-path enumeration over rational arithmetic (discrete
  distributions only), merging identical states to keep the frontier small;
* vectorized sampling with one common-random-number stream per syntactic
  draw site (``sampling.py``, which alone needs numpy and is imported on
  the first sampled call).

Both modes accept either a parsed program or its normalized form, and each
has one interpreter, over structured statements: a normalized program is read
back as such, with each guarded assignment ``t = rhs [C] else s`` read as
``if C: t = rhs else: t = s``.

Each call binds the program to its parameter point once: a coefficient or
probability is evaluated the first time the interpreter reads it and reused
for the rest of the call, never across calls.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, Union

from .errors import OracleError
from .syntax import (
    And,
    Assignment,
    BFalse,
    BTrue,
    Categorical,
    Comparison,
    DistDraw,
    IfStatement,
    Not,
    NormalizedProgram,
    PolyExpr,
    Program,
    VarMonomial,
)

AnyProgram = Union[Program, NormalizedProgram]

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class OracleEstimate:
    value: Union[Fraction, float]
    stderr: float
    trials: int
    mode: str  # "exact" | "sampled"


def _statements(program: AnyProgram):
    """(variable names, init statements, body statements) of either form.

    The right-hand sides are the program's own objects, so each draw site
    keeps its number; the "keep" branch of a guarded assignment is
    deterministic and has none.
    """
    if isinstance(program, Program):
        return list(program.variables), program.init, program.body
    init = tuple(Assignment((v,), (rhs,)) for v, rhs in program.init)
    body = []
    for ga in program.body:
        st = Assignment((ga.target,), (ga.rhs,))
        if ga.else_source is not None:
            keep = Assignment((ga.target,), (Categorical.sure(PolyExpr.var(ga.else_source)),))
            st = IfStatement(((ga.guard, (st,)),), (keep,))
        body.append(st)
    return list(program.all_variables), init, tuple(body)


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------


def checked_probability(q: Fraction, kind: str) -> Fraction:
    """``q`` itself if it lies in [0, 1]; otherwise an OracleError naming the
    kind of probability ("Bernoulli" or "choice")."""
    if q < 0 or q > 1:
        raise OracleError(f"{kind} probability {q} outside [0, 1]")
    return q


def _dist_outcomes(rhs: DistDraw, sigma) -> list[tuple[Fraction, Fraction]]:
    if rhs.kind == "Bernoulli":
        q = checked_probability(rhs.args[0].eval_fraction(sigma), "Bernoulli")
        out = []
        if q != 0:
            out.append((Fraction(1), q))
        if q != 1:
            out.append((Fraction(0), 1 - q))
        return out
    if rhs.kind == "DiscreteUniform":
        a = rhs.args[0].eval_fraction(sigma)
        b = rhs.args[1].eval_fraction(sigma)
        lo, hi = int(a), int(b)
        w = Fraction(1, hi - lo + 1)
        return [(Fraction(i), w) for i in range(lo, hi + 1)]
    raise OracleError(f"cannot enumerate draws from a continuous {rhs.kind} distribution")


def _exact(q):
    """``q`` as an ``int`` when it is integral.  An ``int`` and a ``Fraction``
    of equal value compare and hash alike, and ints are far cheaper to
    multiply and to hash."""
    return q.numerator if q.denominator == 1 else q


def _value(terms, state):
    """A bound polynomial's value in a tuple state."""
    acc = 0
    for c, powers in terms:
        for i, e in powers:
            c = c * state[i] ** e
        acc += c
    return acc if type(acc) is int else _exact(acc)


_COMPARE = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, k: int = 1):
        self.used += k
        if self.used > self.limit:
            raise OracleError(f"enumeration budget of {self.limit} states exceeded")


def _merge(frontier):
    acc: dict[tuple, Fraction] = {}
    get = acc.get
    for state, w in frontier:
        old = get(state)
        acc[state] = w if old is None else old + w
    return list(acc.items())


class _Enumeration:
    """One enumeration: a program bound to one parameter point.

    A state is a tuple indexed by variable position.  Each coefficient and
    probability is evaluated once, on the first state that reaches it and in
    the order a state-by-state interpreter reads them, so the first error is
    the same and an unreached branch raises none.  ``bound`` maps a syntax
    object's ``id`` to its bound form; it lives as long as the call.
    """

    def __init__(self, names, sigma, budget: _Budget):
        self.pos = {v: i for i, v in enumerate(names)}
        self.sigma = sigma
        self.budget = budget
        self.bound: dict[int, object] = {}

    def poly(self, poly: PolyExpr):
        """((coefficient, ((variable index, exponent), ...)), ...)"""
        terms = self.bound.get(id(poly))
        if terms is None:
            terms = self.bound[id(poly)] = tuple(
                (_exact(c.eval_fraction(self.sigma)), tuple((self.pos[v], e) for v, e in m.powers))
                for m, c in poly.terms
            )
        return terms

    def outcomes(self, rhs):
        """[(bound value polynomial, probability), ...] of a right-hand side."""
        out = self.bound.get(id(rhs))
        if out is None:
            if isinstance(rhs, DistDraw):
                out = [(((_exact(v), ()),), p) for v, p in _dist_outcomes(rhs, self.sigma)]
            else:
                out = []
                for poly, prob in rhs.choices:
                    p = checked_probability(prob.eval_fraction(self.sigma), "choice")
                    if p != 0:
                        out.append((self.poly(poly), p))
            self.bound[id(rhs)] = out
        return out

    def holds(self, b, state) -> bool:
        if isinstance(b, Comparison):
            lhs, rhs = self.poly(b.lhs), self.poly(b.rhs)
            return _COMPARE[b.op](_value(lhs, state), _value(rhs, state))
        if isinstance(b, BTrue):
            return True
        if isinstance(b, BFalse):
            return False
        if isinstance(b, Not):
            return not self.holds(b.arg, state)
        if isinstance(b, And):
            return self.holds(b.lhs, state) and self.holds(b.rhs, state)
        return self.holds(b.lhs, state) or self.holds(b.rhs, state)

    def run(self, stmts, frontier):
        """Run statements over a frontier of (state, weight) pairs, merging
        equal states between statements.  The last statement's result is
        left for the caller to merge."""
        for k, st in enumerate(stmts):
            if k:
                frontier = _merge(frontier)
            if isinstance(st, Assignment):
                frontier = self.assign(st, frontier)
            else:
                frontier = self.branch(st, frontier)
        return frontier

    def assign(self, st: Assignment, frontier):
        if not frontier:
            return frontier
        budget = self.budget
        budget.spend()  # the first state's unit comes before its outcomes
        lists = [self.outcomes(rhs) for rhs in st.rhss]
        # One unit per state and one per outcome combination; the counts do
        # not depend on the state, so the whole spend is known up front.
        budget.spend(len(frontier) * (1 + math.prod(map(len, lists))) - 1)
        targets = [self.pos[t] for t in st.targets]
        out = []
        if len(targets) == 1:
            t, outcomes = targets[0], lists[0]
            for state, w in frontier:
                for terms, p in outcomes:
                    s = list(state)
                    s[t] = _value(terms, state)
                    out.append((tuple(s), w * p))
            return out
        for state, w in frontier:
            for combo in product(*lists):
                s = list(state)
                p = w
                for t, (terms, pr) in zip(targets, combo):
                    s[t] = _value(terms, state)
                    p *= pr
                out.append((tuple(s), p))
        return out

    def branch(self, st: IfStatement, frontier):
        """The first branch whose condition holds, else the else body, per
        state in frontier order."""
        out = []
        for state, w in frontier:
            self.budget.spend()
            for cond, body in st.branches:
                if self.holds(cond, state):
                    break
            else:
                body = st.else_body
                if body is None:
                    out.append((state, w))
                    continue
            out.extend(self.run(body, [(state, w)]))
        return out


def enumerate_distribution(
    program: AnyProgram,
    monomial: VarMonomial,
    n: int,
    sigma: Mapping[str, Fraction] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> dict[Fraction, Fraction]:
    """Exact distribution of a monomial's value after n iterations."""
    names, init, body = _statements(program)
    run = _Enumeration(names, dict(sigma or {}), _Budget(budget))
    frontier = _merge(run.run(init, [((0,) * len(names), Fraction(1))]))
    for _ in range(n):
        frontier = _merge(run.run(body, frontier))
    pos = run.pos
    dist: dict = {}
    for state, w in frontier:
        val = 1
        for v, e in monomial.powers:
            val *= state[pos[v]] ** e
        old = dist.get(val)
        dist[val] = w if old is None else old + w
    return {Fraction(val): w for val, w in dist.items()}


def moment_exact(
    program: AnyProgram,
    monomial: VarMonomial,
    n: int,
    sigma: Mapping[str, Fraction] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Fraction:
    """E[monomial] after n loop iterations, by exact enumeration."""
    dist = enumerate_distribution(program, monomial, n, sigma, budget)
    return sum((v * w for v, w in dist.items()), Fraction(0))


# ---------------------------------------------------------------------------
# Sampling (in sampling.py, imported on the first sampled call)
# ---------------------------------------------------------------------------


def sample_moment(
    program: AnyProgram,
    monomial: VarMonomial,
    n: int,
    trials: int,
    seed: int,
    sigma: Mapping[str, Fraction] | None = None,
) -> OracleEstimate:
    """Monte Carlo estimate of E[monomial] after n iterations."""
    from .sampling import sampled_mean  # numpy is imported for sampling only

    return sampled_mean(program, monomial, n, trials, seed, dict(sigma or {}))


# ---------------------------------------------------------------------------
# Finite-difference sensitivities
# ---------------------------------------------------------------------------


def fd_sensitivity(
    program: AnyProgram,
    monomial: VarMonomial,
    n: int,
    param: str,
    sigma: Mapping[str, Fraction],
    eps: Fraction = Fraction(1, 10**4),
    exact: bool = True,
    trials: int = 200_000,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> OracleEstimate:
    """Central-difference estimate of d/d(param) E[monomial] at iteration n.

    In exact mode the two one-sided evaluations enumerate paths with rational
    arithmetic, so the only error is the O(eps^2) truncation of the central
    difference.  In sampled mode both evaluations share one random-number
    stream per draw site (matched seeds), which cancels most sampling noise;
    the value and its standard error come from the per-trial differences,
    because the two sides are strongly correlated.
    """
    if eps == 0:
        raise ValueError("central-difference step must be nonzero")
    if param not in sigma:
        raise ValueError(f"no value for parameter {param!r} to differentiate at")
    hi = dict(sigma)
    lo = dict(sigma)
    hi[param] = sigma[param] + eps
    lo[param] = sigma[param] - eps
    if exact:
        m_hi = moment_exact(program, monomial, n, hi, budget)
        m_lo = moment_exact(program, monomial, n, lo, budget)
        return OracleEstimate((m_hi - m_lo) / (2 * eps), 0.0, 0, "exact")
    from .sampling import sampled_difference

    return sampled_difference(program, monomial, n, trials, seed, hi, lo, eps)
