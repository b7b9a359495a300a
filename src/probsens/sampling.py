"""Vectorized Monte Carlo sampling for the oracle, with numpy.

Each syntactic draw site has its own common-random-number stream, so
estimates are bitwise reproducible for a given seed, and central
differences at matched seeds have strongly correlated noise.  Sampling is
the only part of ``probsens`` that needs numpy: ``oracle.sample_moment``
and the sampled mode of ``oracle.fd_sensitivity`` import this module on
their first call, and nothing else imports it.

One pass simulates every parameter point of a mean or a central difference
over the same draws, with states of shape (points, trials) (README, "Oracle").

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

from .errors import OracleError, ProbsensError
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
        return _mean_estimate(_sampled_values(program, monomial, n, trials, seed, [sigma])[0])


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
        v_hi, v_lo = _sampled_values(program, monomial, n, trials, seed, [hi, lo])
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


_ZERO, _ONE = np.float64(0.0), np.float64(1.0)


def _apply(op, acc, x, mine: bool):
    """``op(acc, x)``, into ``acc`` if it is an array made here of the result's shape."""
    if mine and isinstance(acc, np.ndarray) and np.broadcast(acc, x).shape == acc.shape:
        return op(acc, x, out=acc)
    return op(acc, x)


def _poly_vec(terms, signed_zero: bool, states):
    """A polynomial bound to float coefficients, at every point and trial.
    A coefficient of None stands for 1.  A sum started at its first term
    differs from one started at 0.0 only where every term is -0.0, so 0.0 is
    added at the end unless a nonzero constant term rules that out.
    ``np.power`` rounds a numpy scalar as it rounds an array element."""
    acc, mine = None, False
    for c, powers in terms:
        term, own = c, False
        for v, e in powers:
            x = states[v] if e == 1 else np.power(states[v], e)
            if term is None:
                term, own = x, e != 1
            else:
                term, own = _apply(np.multiply, term, x, own), True
        term = _ONE if term is None else term
        if acc is None:
            acc, mine = term, own
        else:
            acc, mine = _apply(np.add, acc, term, mine), True
    if acc is None:
        return _ZERO
    return _apply(np.add, acc, _ZERO, mine) if signed_zero else acc


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
    """One simulation: a program bound to a list of parameter points.

    Each coefficient, distribution argument and choice's cumulative
    probabilities become floats the first time a statement reads them, in
    an order that is the same at every point.  The first point's first error
    is raised at once; a later point's waits in ``errors``, and the point
    reads NaN.  ``bound`` maps a syntax object's ``id`` to its bound form.
    """

    def __init__(self, names, sites, trials: int, seed: int, points):
        self.sites = sites
        self.trials = trials
        self.seed = seed
        self.points = points
        self.errors: dict[int, Exception] = {}
        self.states = {v: _ZERO for v in names}
        self.bound: dict[int, object] = {}

    def read(self, width: int, values) -> list:
        """``values(sigma)``, ``width`` floats, at every point: each float is a
        scalar where its bits are equal at every point, else a column."""
        rows = []
        for i, sigma in enumerate(self.points):
            try:
                rows.append(values(sigma))
            except (ProbsensError, ArithmeticError, ValueError) as exc:
                if i == 0:
                    raise
                self.errors.setdefault(i, exc)
                rows.append([math.nan] * width)
        return [np.float64(c[0]) if len({v.hex() for v in c}) == 1 else np.array(c)[:, None] for c in zip(*rows)]

    def poly(self, poly: PolyExpr):
        bound = self.bound.get(id(poly))
        if bound is None:
            coeffs = self.read(len(poly.terms), lambda s: [float(c.eval_fraction(s)) for _, c in poly.terms])
            monos = [m.powers for m, _ in poly.terms]
            terms = [(None if c.ndim == 0 and c == 1 else c, m) for c, m in zip(coeffs, monos)]
            signed_zero = not any(not m and np.all(c != 0) for c, m in zip(coeffs, monos))
            bound = self.bound[id(poly)] = (terms, signed_zero)
        return _poly_vec(*bound, self.states)

    def test(self, b):
        if isinstance(b, Comparison):
            lv, rv = self.poly(b.lhs), self.poly(b.rhs)
            return _COMPARE[b.op](lv, rv)
        if isinstance(b, BTrue):
            return np.True_
        if isinstance(b, BFalse):
            return np.False_
        if isinstance(b, Not):
            return ~self.test(b.arg)
        if isinstance(b, And):
            return self.test(b.lhs) & self.test(b.rhs)
        if isinstance(b, Or):
            return self.test(b.lhs) | self.test(b.rhs)
        raise AssertionError(b)

    def dist_args(self, rhs: DistDraw) -> list:
        args = self.bound.get(id(rhs))
        if args is None:
            args = self.bound[id(rhs)] = self.read(len(rhs.args), lambda s: _checked_args(rhs, s))
        return args

    def cumulative(self, rhs: Categorical) -> list:
        cum = self.bound.get(id(rhs))
        if cum is None:
            probs = [p for _, p in rhs.choices]
            cum = self.bound[id(rhs)] = self.read(len(probs), lambda s: np.cumsum(
                [float(checked_probability(p.eval_fraction(s), "choice")) for p in probs]).tolist())
        return cum

    def draw(self, rhs, iteration: int):
        trials = self.trials
        if isinstance(rhs, DistDraw):
            gen = _site_generator(self.seed, self.sites[id(rhs)], iteration)
            args = self.dist_args(rhs)
            if rhs.kind == "Normal":
                mean, var = args
                return mean + np.sqrt(var) * gen.standard_normal(trials)
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
            taken = np.False_
            for cond, branch in st.branches:
                c = self.test(cond)
                if mask is not None:
                    c = c & mask
                c = c & ~taken
                self.run(branch, c, iteration)
                taken = taken | c
            if st.else_body is not None:
                self.run(st.else_body, ~taken if mask is None else mask & ~taken, iteration)


def _checked_args(rhs: DistDraw, sigma) -> list[float]:
    exact = [a.eval_fraction(sigma) for a in rhs.args]
    if rhs.kind == "Normal":
        if exact[1] < 0:
            raise OracleError(f"Normal variance {exact[1]} is negative")
    elif rhs.kind == "Bernoulli":
        checked_probability(exact[0], "Bernoulli")
    return [float(a) for a in exact]


def _sampled_values(
    program: AnyProgram,
    monomial: VarMonomial,
    n: int,
    trials: int,
    seed: int,
    points: list[Mapping[str, Fraction]],
) -> np.ndarray:
    """The monomial's value after n iterations, a row per point, a column per trial."""
    names, init, body = _statements(program)
    sim = _Sampling(names, _number_sites(init + body), trials, seed, points)
    sim.run(init, None, 0)
    for k in range(1, n + 1):
        sim.run(body, None, k)
    vals = np.ones((len(points), trials))
    for v, e in monomial.powers:
        vals *= np.power(sim.states[v], e)
    if sim.errors:
        raise sim.errors[min(sim.errors)]
    return vals


def _mean_estimate(vals: np.ndarray) -> OracleEstimate:
    trials = len(vals)
    stderr = float(np.std(vals, ddof=1) / np.sqrt(trials)) if trials > 1 else float("inf")
    return OracleEstimate(float(np.mean(vals)), stderr, trials, "sampled")
