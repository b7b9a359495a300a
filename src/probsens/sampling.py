"""Vectorized Monte Carlo sampling for the oracle, with numpy.

Each syntactic draw site has its own common-random-number stream, so
estimates are bitwise reproducible for a given seed, and central
differences at matched seeds have strongly correlated noise.  Sampling is
the only part of ``probsens`` that needs numpy: ``oracle.sample_moment``
and the sampled mode of ``oracle.fd_sensitivity`` import this module on
their first call, and nothing else imports it.

Sampled values are float64 and may overflow on programs whose values grow
fast.  An estimate is then an infinity or a NaN, which callers report, so
the estimates below silence numpy's warnings about it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count
from typing import Mapping

import numpy as np

from .errors import OracleError
from .oracle import _COMPARE, AnyProgram, OracleEstimate, _statements, checked_probability
from .syntax import (
    And,
    Assignment,
    BFalse,
    BTrue,
    Categorical,
    Comparison,
    DistDraw,
    Not,
    Or,
    PolyExpr,
    VarMonomial,
)


def sampled_mean(
    program: AnyProgram,
    monomial: VarMonomial,
    n: int,
    trials: int,
    seed: int,
    sigma: Mapping[str, Fraction],
) -> OracleEstimate:
    """The mean of the monomial's sampled values after n iterations."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _mean_estimate(_sampled_values(program, monomial, n, trials, seed, sigma))


def sampled_difference(
    program: AnyProgram,
    monomial: VarMonomial,
    n: int,
    trials: int,
    seed: int,
    hi: Mapping[str, Fraction],
    lo: Mapping[str, Fraction],
    eps: Fraction,
) -> OracleEstimate:
    """The central difference between the points ``hi`` and ``lo``, 2*eps
    apart, from the per-trial differences at matched seeds."""
    with np.errstate(over="ignore", invalid="ignore"):
        v_hi = _sampled_values(program, monomial, n, trials, seed, hi)
        v_lo = _sampled_values(program, monomial, n, trials, seed, lo)
        return _mean_estimate((v_hi - v_lo) / (2 * float(eps)))


def _site_generator(seed: int, site: int, iteration: int) -> np.random.Generator:
    """Random stream for one draw site at one iteration, indexed by trial.

    Streams are keyed by (seed, site, iteration), so estimates are bitwise
    reproducible, extending the trial count only appends values, and runs at
    different parameter values reuse identical randomness (common random
    numbers).
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(site), int(iteration)))
    return np.random.Generator(np.random.Philox(ss))


def _poly_vec(terms, states, trials: int) -> np.ndarray:
    """A polynomial bound to float coefficients, one value per trial.  A
    coefficient of None stands for 1: multiplying by 1.0, like raising to
    the first power, leaves every float as it is, so both are skipped."""
    acc = np.zeros(trials)
    for c, powers in terms:
        term = c
        for v, e in powers:
            x = states[v] if e == 1 else states[v] ** e
            term = x if term is None else term * x
        acc = acc + (1.0 if term is None else term)
    return acc


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


class _Sampling:
    """One simulation: a program bound to one parameter point.

    Each coefficient, distribution argument and choice's cumulative
    probabilities become floats the first time a statement reads them, in
    the order the statements run, so the first error is that of evaluating
    at every read.  ``bound`` maps a syntax object's ``id`` to its bound
    form; it lives as long as the call.
    """

    def __init__(self, names, sites, trials: int, seed: int, sigma):
        self.sites = sites
        self.trials = trials
        self.seed = seed
        self.sigma = sigma
        self.states = {v: np.zeros(trials) for v in names}
        self.bound: dict[int, object] = {}

    def poly(self, poly: PolyExpr) -> np.ndarray:
        terms = self.bound.get(id(poly))
        if terms is None:
            terms = []
            for m, c in poly.terms:
                value = c.eval_fraction(self.sigma)
                terms.append((None if value == 1 else float(value), m.powers))
            self.bound[id(poly)] = terms
        return _poly_vec(terms, self.states, self.trials)

    def test(self, b) -> np.ndarray:
        if isinstance(b, Comparison):
            lv, rv = self.poly(b.lhs), self.poly(b.rhs)
            return _COMPARE[b.op](lv, rv)
        if isinstance(b, BTrue):
            return np.ones(self.trials, dtype=bool)
        if isinstance(b, BFalse):
            return np.zeros(self.trials, dtype=bool)
        if isinstance(b, Not):
            return ~self.test(b.arg)
        if isinstance(b, And):
            return self.test(b.lhs) & self.test(b.rhs)
        if isinstance(b, Or):
            return self.test(b.lhs) | self.test(b.rhs)
        raise AssertionError(b)

    def dist_args(self, rhs: DistDraw) -> list[float]:
        args = self.bound.get(id(rhs))
        if args is None:
            exact = [a.eval_fraction(self.sigma) for a in rhs.args]
            if rhs.kind == "Normal":
                if exact[1] < 0:
                    raise OracleError(f"Normal variance {exact[1]} is negative")
            elif rhs.kind == "Bernoulli":
                checked_probability(exact[0], "Bernoulli")
            args = self.bound[id(rhs)] = [float(a) for a in exact]
        return args

    def cumulative(self, rhs: Categorical) -> np.ndarray:
        cum = self.bound.get(id(rhs))
        if cum is None:
            cum = self.bound[id(rhs)] = np.cumsum(
                [float(checked_probability(p.eval_fraction(self.sigma), "choice")) for _, p in rhs.choices]
            )
        return cum

    def draw(self, rhs, iteration: int) -> np.ndarray:
        trials = self.trials
        if isinstance(rhs, DistDraw):
            gen = _site_generator(self.seed, self.sites[id(rhs)], iteration)
            args = self.dist_args(rhs)
            if rhs.kind == "Normal":
                mean, var = args
                return mean + math.sqrt(var) * gen.standard_normal(trials)
            u = gen.random(trials)
            if rhs.kind == "Bernoulli":
                return (u < args[0]).astype(float)
            if rhs.kind == "Uniform":
                a, b = args
                return a + (b - a) * u
            if rhs.kind == "DiscreteUniform":
                a, b = args
                return np.minimum(np.floor(a + u * (b - a + 1)), b)
            raise AssertionError(rhs.kind)
        if rhs.is_deterministic:
            return self.poly(rhs.choices[0][0])
        u = _site_generator(self.seed, self.sites[id(rhs)], iteration).random(trials)
        cum = self.cumulative(rhs)
        vals = [self.poly(poly) for poly, _ in rhs.choices]
        # The first alternative j with u < cum[j], else the last one: the
        # index searchsorted(cum, u, side="right") picks, clipped to the last.
        out = vals[-1]
        for j in range(len(vals) - 2, -1, -1):
            out = np.where(u < cum[j], vals[j], out)
        return out

    def run(self, stmts, mask, iteration: int) -> None:
        """Run statements on the trials where ``mask`` holds; a mask of None
        stands for every trial."""
        states = self.states
        for st in stmts:
            if isinstance(st, Assignment):
                news = [self.draw(rhs, iteration) for rhs in st.rhss]
                for t, v in zip(st.targets, news):
                    states[t] = v if mask is None else np.where(mask, v, states[t])
                continue
            taken = np.zeros(self.trials, dtype=bool)
            for cond, branch in st.branches:
                c = self.test(cond)
                if mask is not None:
                    c = c & mask
                c = c & ~taken
                self.run(branch, c, iteration)
                taken |= c
            if st.else_body is not None:
                self.run(st.else_body, ~taken if mask is None else mask & ~taken, iteration)


def _simulate_states(
    program: AnyProgram,
    n: int,
    trials: int,
    seed: int,
    sigma: Mapping[str, Fraction],
) -> dict[str, np.ndarray]:
    names, init, body = _statements(program)
    sim = _Sampling(names, _number_sites(init + body), trials, seed, sigma)
    sim.run(init, None, 0)
    for k in range(1, n + 1):
        sim.run(body, None, k)
    return sim.states


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
