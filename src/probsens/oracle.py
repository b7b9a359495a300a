"""Independent numeric oracle: exact enumeration and Monte Carlo simulation.

This module deliberately shares no machinery with the recurrence pipeline.
It interprets programs directly, in two modes:

* exact weighted-path enumeration over rational arithmetic (discrete
  distributions only), merging identical states to keep the frontier small;
* vectorized sampling with one common-random-number stream per syntactic
  draw site, so estimates are bitwise reproducible for a given seed and
  central differences at matched seeds have strongly correlated noise.

Both modes accept either a parsed program or its normalized form, and each
has one interpreter, over structured statements: a normalized program is read
back as such, with each guarded assignment ``t = rhs [C] else s`` read as
``if C: t = rhs else: t = s``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, product
from typing import Mapping, Union

import numpy as np

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
    Or,
    PolyExpr,
    Program,
    VarMonomial,
    bexpr_eval,
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


def _rhs_outcomes(rhs, state, sigma) -> list[tuple[Fraction, Fraction]]:
    if isinstance(rhs, DistDraw):
        return _dist_outcomes(rhs, sigma)
    out = []
    for poly, prob in rhs.choices:
        p = checked_probability(prob.eval_fraction(sigma), "choice")
        if p != 0:
            out.append((poly.eval_with_params(state, sigma), p))
    return out


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, k: int = 1):
        self.used += k
        if self.used > self.limit:
            raise OracleError(f"enumeration budget of {self.limit} states exceeded")


def _merge(frontier, names):
    acc: dict[tuple, Fraction] = defaultdict(Fraction)
    for state, w in frontier:
        acc[tuple(state[v] for v in names)] += w
    return [(dict(zip(names, key)), w) for key, w in acc.items()]


def _exec_statements(stmts, frontier, sigma, names, budget):
    for st in stmts:
        new = []
        for state, w in frontier:
            budget.spend()
            new.extend(_exec_one(st, state, w, sigma, names, budget))
        frontier = _merge(new, names)
    return frontier


def _exec_one(st, state, w, sigma, names, budget):
    if isinstance(st, Assignment):
        outcome_lists = [_rhs_outcomes(rhs, state, sigma) for rhs in st.rhss]
        out = []
        for combo in product(*outcome_lists):
            budget.spend()
            s2 = dict(state)
            p = w
            for t, (val, pr) in zip(st.targets, combo):
                s2[t] = val
                p *= pr
            out.append((s2, p))
        return out
    # conditional: first branch whose condition holds, else the else body
    for cond, body in st.branches:
        if bexpr_eval(cond, state, sigma):
            return _exec_statements(body, [(state, w)], sigma, names, budget)
    if st.else_body is not None:
        return _exec_statements(st.else_body, [(state, w)], sigma, names, budget)
    return [(state, w)]


def enumerate_distribution(
    program: AnyProgram,
    monomial: VarMonomial,
    n: int,
    sigma: Mapping[str, Fraction] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> dict[Fraction, Fraction]:
    """Exact distribution of a monomial's value after n iterations."""
    sigma = dict(sigma or {})
    tracker = _Budget(budget)
    names, init, body = _statements(program)
    frontier = [({v: Fraction(0) for v in names}, Fraction(1))]
    frontier = _exec_statements(init, frontier, sigma, names, tracker)
    for _ in range(n):
        frontier = _exec_statements(body, frontier, sigma, names, tracker)
    dist: dict[Fraction, Fraction] = defaultdict(Fraction)
    for state, w in frontier:
        val = Fraction(1)
        for v, e in monomial.powers:
            val *= state[v] ** e
        dist[val] += w
    return dict(dist)


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
# Vectorized sampling
# ---------------------------------------------------------------------------


def _site_generator(seed: int, site: int, iteration: int) -> np.random.Generator:
    """Random stream for one draw site at one iteration, indexed by trial.

    Streams are keyed by (seed, site, iteration), so estimates are bitwise
    reproducible, extending the trial count only appends values, and runs at
    different parameter values reuse identical randomness (common random
    numbers).
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(site), int(iteration)))
    return np.random.Generator(np.random.Philox(ss))


def _poly_vec(poly, states, sigma) -> np.ndarray:
    trials = len(next(iter(states.values())))
    acc = np.zeros(trials)
    for mono, coeff in poly.terms:
        term = np.full(trials, float(coeff.eval_fraction(sigma)))
        for v, e in mono.powers:
            term = term * states[v] ** e
        acc = acc + term
    return acc


def _bexpr_vec(b, states, sigma) -> np.ndarray:
    trials = len(next(iter(states.values())))
    if isinstance(b, BTrue):
        return np.ones(trials, dtype=bool)
    if isinstance(b, BFalse):
        return np.zeros(trials, dtype=bool)
    if isinstance(b, Comparison):
        lv = _poly_vec(b.lhs, states, sigma)
        rv = _poly_vec(b.rhs, states, sigma)
        return {
            "==": lv == rv,
            "!=": lv != rv,
            "<": lv < rv,
            ">": lv > rv,
            "<=": lv <= rv,
            ">=": lv >= rv,
        }[b.op]
    if isinstance(b, Not):
        return ~_bexpr_vec(b.arg, states, sigma)
    if isinstance(b, And):
        return _bexpr_vec(b.lhs, states, sigma) & _bexpr_vec(b.rhs, states, sigma)
    if isinstance(b, Or):
        return _bexpr_vec(b.lhs, states, sigma) | _bexpr_vec(b.rhs, states, sigma)
    raise AssertionError(b)


def _rhs_vec(rhs, site: int, states, sigma, seed: int, iteration: int, trials: int) -> np.ndarray:
    if isinstance(rhs, DistDraw):
        gen = _site_generator(seed, site, iteration)
        exact = [a.eval_fraction(sigma) for a in rhs.args]
        args = [float(a) for a in exact]
        if rhs.kind == "Normal":
            if exact[1] < 0:
                raise OracleError(f"Normal variance {exact[1]} is negative")
            mean, var = args
            return mean + math.sqrt(var) * gen.standard_normal(trials)
        u = gen.random(trials)
        if rhs.kind == "Bernoulli":
            return (u < float(checked_probability(exact[0], "Bernoulli"))).astype(float)
        if rhs.kind == "Uniform":
            a, b = args
            return a + (b - a) * u
        if rhs.kind == "DiscreteUniform":
            a, b = args
            return np.minimum(np.floor(a + u * (b - a + 1)), b)
        raise AssertionError(rhs.kind)
    if rhs.is_deterministic:
        return _poly_vec(rhs.choices[0][0], states, sigma)
    u = _site_generator(seed, site, iteration).random(trials)
    cum = np.cumsum(
        [float(checked_probability(p.eval_fraction(sigma), "choice")) for _, p in rhs.choices]
    )
    idx = np.searchsorted(cum, u, side="right")
    idx = np.minimum(idx, len(rhs.choices) - 1)
    vals = np.stack([_poly_vec(poly, states, sigma) for poly, _ in rhs.choices])
    return np.take_along_axis(vals, idx[None, :], axis=0)[0]


def _number_sites(stmts):
    """Assign each probabilistic construct a stable site id, keyed by object
    position in a fixed traversal."""
    sites: dict[int, int] = {}
    counter = count(1)

    def visit(stmts):
        for st in stmts:
            if isinstance(st, Assignment):
                for rhs in st.rhss:
                    if isinstance(rhs, DistDraw) or not rhs.is_deterministic:
                        sites[id(rhs)] = next(counter)
            else:
                for _, body in st.branches:
                    visit(body)
                if st.else_body is not None:
                    visit(st.else_body)

    visit(stmts)
    return sites


def _simulate_states(
    program: AnyProgram,
    n: int,
    trials: int,
    seed: int,
    sigma: Mapping[str, Fraction],
) -> dict[str, np.ndarray]:
    names, init, body = _statements(program)
    sites = _number_sites(init + body)
    states = {v: np.zeros(trials) for v in names}

    def exec_assignment(st: Assignment, mask, iteration):
        news = [
            _rhs_vec(rhs, sites.get(id(rhs), 0), states, sigma, seed, iteration, trials)
            for rhs in st.rhss
        ]
        for t, v in zip(st.targets, news):
            states[t] = np.where(mask, v, states[t])

    def exec_statements(stmts, mask, iteration):
        for st in stmts:
            if isinstance(st, Assignment):
                exec_assignment(st, mask, iteration)
            else:
                taken = np.zeros(trials, dtype=bool)
                for cond, branch in st.branches:
                    c = _bexpr_vec(cond, states, sigma) & mask & ~taken
                    exec_statements(branch, c, iteration)
                    taken |= c
                if st.else_body is not None:
                    exec_statements(st.else_body, mask & ~taken, iteration)

    all_true = np.ones(trials, dtype=bool)
    exec_statements(init, all_true, 0)
    for k in range(1, n + 1):
        exec_statements(body, all_true, k)
    return states


def _sampled_values(
    program: AnyProgram,
    monomial: VarMonomial,
    n: int,
    trials: int,
    seed: int,
    sigma: Mapping[str, Fraction],
) -> np.ndarray:
    """The monomial's value after n iterations, one entry per trial."""
    states = _simulate_states(program, n, trials, seed, sigma)
    vals = np.ones(trials)
    for v, e in monomial.powers:
        vals = vals * states[v] ** e
    return vals


def _mean_estimate(vals: np.ndarray) -> OracleEstimate:
    trials = len(vals)
    stderr = float(np.std(vals, ddof=1) / np.sqrt(trials)) if trials > 1 else float("inf")
    return OracleEstimate(float(np.mean(vals)), stderr, trials, "sampled")


def sample_moment(
    program: AnyProgram,
    monomial: VarMonomial,
    n: int,
    trials: int,
    seed: int,
    sigma: Mapping[str, Fraction] | None = None,
) -> OracleEstimate:
    """Monte Carlo estimate of E[monomial] after n iterations."""
    return _mean_estimate(_sampled_values(program, monomial, n, trials, seed, dict(sigma or {})))


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
    v_hi = _sampled_values(program, monomial, n, trials, seed, hi)
    v_lo = _sampled_values(program, monomial, n, trials, seed, lo)
    return _mean_estimate((v_hi - v_lo) / (2 * float(eps)))
