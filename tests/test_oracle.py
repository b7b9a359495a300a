"""Tests for the enumeration/simulation oracle itself, against hand-computed values."""

import math
from collections import defaultdict
from fractions import Fraction
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probsens.oracle as oracle
import probsens.sampling as sampling
from probsens.errors import OracleError
from probsens.normalize import normalize
from probsens.oracle import (
    enumerate_distribution,
    fd_sensitivity,
    moment_exact,
    sample_moment,
)
from probsens.parser import parse, parse_monomial
from probsens.syntax import (
    And,
    Assignment,
    BFalse,
    BTrue,
    Comparison,
    DistDraw,
    Not,
    bexpr_eval,
)

from test_normalize import random_programs

CORPUS = Path(oracle.__file__).parent / "benchmarks"

WALK = "x = 0\nwhile true:\n  x = x + 1 {p} x - 1\nend\n"


def test_walk_mean_exact():
    # E[x_n] = n(2p - 1)
    prog = parse(WALK)
    x = parse_monomial("x")
    for n in range(6):
        got = moment_exact(prog, x, n, {"p": Fraction(2, 3)})
        assert got == n * (2 * Fraction(2, 3) - 1)


def test_walk_second_moment_exact():
    # E[x_n^2] = n^2 (2p-1)^2 + 4np(1-p)
    prog = parse(WALK)
    x2 = parse_monomial("x**2")
    p = Fraction(1, 4)
    for n in range(6):
        got = moment_exact(prog, x2, n, {"p": p})
        assert got == n * n * (2 * p - 1) ** 2 + 4 * n * p * (1 - p)


def test_distribution_weights_sum_to_one():
    prog = parse(WALK)
    dist = enumerate_distribution(prog, parse_monomial("x"), 5, {"p": Fraction(1, 2)})
    assert sum(dist.values()) == 1
    assert dist[Fraction(5)] == Fraction(1, 32)


def test_discrete_uniform_enumeration():
    prog = parse("x = 0\ns = 0\nwhile true:\n  x = DiscreteUniform(1, 6)\n  s = s + x\nend\n")
    s = parse_monomial("s")
    assert moment_exact(prog, s, 4, {}) == 4 * Fraction(7, 2)


def test_continuous_enumeration_rejected():
    prog = parse("x = 0\nwhile true:\n  x = Normal(0, 1)\nend\n")
    with pytest.raises(OracleError, match="continuous"):
        moment_exact(prog, parse_monomial("x"), 2, {})


def test_budget_exceeded():
    prog = parse("x = 0\nwhile true:\n  x = Uniform(0, 1)\nend\n")
    # not enumerable at all; and a discrete blowup also trips the budget
    blow = parse("t = 0\nx = 0\nwhile true:\n  t = DiscreteUniform(1, 50)\n  x = x + t\nend\n")
    with pytest.raises(OracleError, match="budget"):
        moment_exact(blow, parse_monomial("x"), 50, {}, budget=2000)
    with pytest.raises(OracleError, match="enumeration budget of 2000 states exceeded"):
        moment_exact(normalize(blow), parse_monomial("x"), 50, {}, budget=2000)
    with pytest.raises(OracleError):
        moment_exact(prog, parse_monomial("x"), 1, {})


def test_budget_counts_a_unit_per_state_and_per_outcome():
    # the normalized umbrella spends 4 units on its two initial assignments
    # and 9, 18, 18, 18 on its first four passes
    program = normalize(parse((CORPUS / "umbrella.prob").read_text()))
    mono, point = parse_monomial("umbrella"), {"p": Fraction(2, 7), "q": Fraction(3, 11)}
    assert moment_exact(program, mono, 4, point, budget=67) == moment_exact(program, mono, 4, point)
    with pytest.raises(OracleError, match="enumeration budget of 66 states exceeded"):
        moment_exact(program, mono, 4, point, budget=66)


def test_sampling_is_deterministic_per_seed():
    prog = parse(WALK)
    x = parse_monomial("x")
    a = sample_moment(prog, x, 8, 4000, seed=7, sigma={"p": Fraction(3, 5)})
    b = sample_moment(prog, x, 8, 4000, seed=7, sigma={"p": Fraction(3, 5)})
    c = sample_moment(prog, x, 8, 4000, seed=8, sigma={"p": Fraction(3, 5)})
    assert a.value == b.value and a.stderr == b.stderr
    assert a.value != c.value


def test_sampling_matches_exact_mean():
    prog = parse(WALK)
    x = parse_monomial("x")
    sigma = {"p": Fraction(3, 5)}
    est = sample_moment(prog, x, 6, 20000, seed=11, sigma=sigma)
    want = float(moment_exact(prog, x, 6, sigma))
    assert abs(est.value - want) < 5 * est.stderr + 1e-12


def test_sampling_normal_and_uniform_means():
    prog = parse(
        "u = 0\nv = 0\nx = 0\nwhile true:\n"
        "  u = Normal(2, 9)\n  v = Uniform(0, 4)\n  x = x + u + v\nend\n"
    )
    x = parse_monomial("x")
    est = sample_moment(prog, x, 3, 40000, seed=3, sigma={})
    # per iteration the increment has mean 2 + 2 = 4
    assert abs(est.value - 12.0) < 5 * est.stderr


def test_sampling_interprets_normalized_form_equivalently():
    src = """
x = 0
y = 0
while true:
    x = 1 {1/2} 0
    if x == 1:
        y = y + 1
    end
end
"""
    prog = parse(src)
    np_ = normalize(prog)
    y = parse_monomial("y")
    e1 = sample_moment(prog, y, 10, 30000, seed=5, sigma={})
    e2 = sample_moment(np_, y, 10, 30000, seed=5, sigma={})
    want = float(moment_exact(prog, y, 10, {}))
    assert abs(e1.value - want) < 5 * e1.stderr
    assert abs(e2.value - want) < 5 * e2.stderr
    assert e2 == e1


def test_fd_sensitivity_exact_walk():
    # d/dp E[x_n] = 2n; the central difference of a linear-in-p function is exact
    prog = parse(WALK)
    x = parse_monomial("x")
    est = fd_sensitivity(prog, x, 5, "p", {"p": Fraction(1, 2)})
    assert est.mode == "exact"
    assert est.value == 10
    assert est.stderr == 0.0


def test_fd_sensitivity_sampled_common_random_numbers():
    prog = parse(WALK)
    x = parse_monomial("x")
    est = fd_sensitivity(
        prog, x, 5, "p", {"p": Fraction(1, 2)},
        eps=Fraction(1, 100), exact=False, trials=40000, seed=2,
    )
    assert est.mode == "sampled"
    assert abs(est.value - 10.0) < 5 * est.stderr + 0.2


def test_sampled_normal_sites_use_common_random_numbers():
    # the same seed draws the same standard normals at every mean, so the
    # estimates differ by the shift alone
    prog = parse("x = 0\nwhile true:\n  x = Normal(m, 1)\nend\n")
    x = parse_monomial("x")
    at0 = sample_moment(prog, x, 3, 5000, seed=4, sigma={"m": Fraction(0)})
    at1 = sample_moment(prog, x, 3, 5000, seed=4, sigma={"m": Fraction(1)})
    assert at1.value - at0.value == pytest.approx(1.0, abs=1e-12)
    assert at1.stderr == pytest.approx(at0.stderr, rel=1e-9)


def test_sampled_fd_stderr_matches_the_spread_across_seeds():
    # both sides share their random numbers, so the standard error of a
    # sampled central difference is that of the per-trial differences
    prog = parse(
        "x = 0\nr = 0\nwhile true:\n  r = -1 {p} 2 {q2} r\n  g = Normal(0, var)\n"
        "  x = 0.9*x + 5*r**2 - 5 + g\nend\n"
    )
    sigma = {"p": Fraction(1, 3), "q2": Fraction(1, 3), "var": Fraction(2)}
    estimates = [
        fd_sensitivity(
            prog, parse_monomial("x**2"), 10, "var", sigma,
            eps=Fraction(1, 10), exact=False, trials=2000, seed=seed,
        )
        for seed in range(20)
    ]
    values = [e.value for e in estimates]
    mean = sum(values) / len(values)
    spread = (sum((v - mean) ** 2 for v in values) / (len(values) - 1)) ** 0.5
    for e in estimates:
        assert spread / 2 < e.stderr < 2 * spread


# ---------------------------------------------------------------------------
# The bound interpreters against the ones they replaced
#
# The references below are the dict-state enumerator, which evaluates every
# coefficient per state and checks the budget one unit at a time, and the
# sampler that evaluates every coefficient per read and picks a choice with
# searchsorted.  Both must agree with the oracle exactly: the same
# distribution in the same order, the same budget spent, the same sampled
# bytes and the same first error.
# ---------------------------------------------------------------------------


def _ref_outcomes(rhs, state, sigma):
    if isinstance(rhs, DistDraw):
        return oracle._dist_outcomes(rhs, sigma)
    out = []
    for poly, prob in rhs.choices:
        p = oracle.checked_probability(prob.eval_fraction(sigma), "choice")
        if p != 0:
            out.append((poly.eval_with_params(state, sigma), p))
    return out


def _ref_merge(frontier, names):
    acc = defaultdict(Fraction)
    for state, w in frontier:
        acc[tuple(state[v] for v in names)] += w
    return [(dict(zip(names, key)), w) for key, w in acc.items()]


def _ref_exec_statements(stmts, frontier, sigma, names, budget):
    for st in stmts:
        new = []
        for state, w in frontier:
            budget.spend()
            new.extend(_ref_exec_one(st, state, w, sigma, names, budget))
        frontier = _ref_merge(new, names)
    return frontier


def _ref_exec_one(st, state, w, sigma, names, budget):
    if isinstance(st, Assignment):
        outcome_lists = [_ref_outcomes(rhs, state, sigma) for rhs in st.rhss]
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
    for cond, body in st.branches:
        if bexpr_eval(cond, state, sigma):
            return _ref_exec_statements(body, [(state, w)], sigma, names, budget)
    if st.else_body is not None:
        return _ref_exec_statements(st.else_body, [(state, w)], sigma, names, budget)
    return [(state, w)]


def _ref_distribution(program, monomial, n, sigma, budget):
    names, init, body = oracle._statements(program)
    frontier = [({v: Fraction(0) for v in names}, Fraction(1))]
    frontier = _ref_exec_statements(init, frontier, sigma, names, budget)
    for _ in range(n):
        frontier = _ref_exec_statements(body, frontier, sigma, names, budget)
    dist = defaultdict(Fraction)
    for state, w in frontier:
        val = Fraction(1)
        for v, e in monomial.powers:
            val *= state[v] ** e
        dist[val] += w
    return dict(dist)


def _ref_poly_vec(poly, states, sigma):
    trials = len(next(iter(states.values())))
    acc = np.zeros(trials)
    for mono, coeff in poly.terms:
        term = np.full(trials, float(coeff.eval_fraction(sigma)))
        for v, e in mono.powers:
            term = term * states[v] ** e
        acc = acc + term
    return acc


def _ref_bexpr_vec(b, states, sigma):
    trials = len(next(iter(states.values())))
    if isinstance(b, BTrue):
        return np.ones(trials, dtype=bool)
    if isinstance(b, BFalse):
        return np.zeros(trials, dtype=bool)
    if isinstance(b, Comparison):
        lv = _ref_poly_vec(b.lhs, states, sigma)
        rv = _ref_poly_vec(b.rhs, states, sigma)
        return {"==": lv == rv, "!=": lv != rv, "<": lv < rv, ">": lv > rv,
                "<=": lv <= rv, ">=": lv >= rv}[b.op]
    if isinstance(b, Not):
        return ~_ref_bexpr_vec(b.arg, states, sigma)
    if isinstance(b, And):
        return _ref_bexpr_vec(b.lhs, states, sigma) & _ref_bexpr_vec(b.rhs, states, sigma)
    return _ref_bexpr_vec(b.lhs, states, sigma) | _ref_bexpr_vec(b.rhs, states, sigma)


def _ref_rhs_vec(rhs, site, states, sigma, seed, iteration, trials):
    if isinstance(rhs, DistDraw):
        gen = sampling._site_generator(seed, site, iteration)
        exact = [a.eval_fraction(sigma) for a in rhs.args]
        args = [float(a) for a in exact]
        if rhs.kind == "Normal":
            if exact[1] < 0:
                raise OracleError(f"Normal variance {exact[1]} is negative")
            mean, var = args
            return mean + math.sqrt(var) * gen.standard_normal(trials)
        u = gen.random(trials)
        if rhs.kind == "Bernoulli":
            return (u < float(oracle.checked_probability(exact[0], "Bernoulli"))).astype(float)
        if rhs.kind == "Uniform":
            a, b = args
            return a + (b - a) * u
        a, b = args
        return np.minimum(np.floor(a + u * (b - a + 1)), b)
    if rhs.is_deterministic:
        return _ref_poly_vec(rhs.choices[0][0], states, sigma)
    u = sampling._site_generator(seed, site, iteration).random(trials)
    cum = np.cumsum(
        [float(oracle.checked_probability(p.eval_fraction(sigma), "choice")) for _, p in rhs.choices]
    )
    idx = np.minimum(np.searchsorted(cum, u, side="right"), len(rhs.choices) - 1)
    vals = np.stack([_ref_poly_vec(poly, states, sigma) for poly, _ in rhs.choices])
    return np.take_along_axis(vals, idx[None, :], axis=0)[0]


def _ref_sampled_values(program, monomial, n, trials, seed, sigma):
    names, init, body = oracle._statements(program)
    sites = sampling._number_sites(init + body)
    states = {v: np.zeros(trials) for v in names}

    def exec_statements(stmts, mask, iteration):
        for st in stmts:
            if isinstance(st, Assignment):
                news = [
                    _ref_rhs_vec(rhs, sites.get(id(rhs), 0), states, sigma, seed, iteration, trials)
                    for rhs in st.rhss
                ]
                for t, v in zip(st.targets, news):
                    states[t] = np.where(mask, v, states[t])
            else:
                taken = np.zeros(trials, dtype=bool)
                for cond, branch in st.branches:
                    c = _ref_bexpr_vec(cond, states, sigma) & mask & ~taken
                    exec_statements(branch, c, iteration)
                    taken |= c
                if st.else_body is not None:
                    exec_statements(st.else_body, mask & ~taken, iteration)

    all_true = np.ones(trials, dtype=bool)
    exec_statements(init, all_true, 0)
    for k in range(1, n + 1):
        exec_statements(body, all_true, k)
    vals = np.ones(trials)
    for v, e in monomial.powers:
        vals = vals * states[v] ** e
    return vals


def _outcome(run):
    """('ok', result) or ('error', type, message) of the first error."""
    try:
        return ("ok", run())
    except (OracleError, ValueError, ZeroDivisionError, KeyError) as exc:
        return ("error", type(exc), str(exc))


def _enumerated(program, monomial, n, sigma, budget):
    """The oracle's distribution as a list in dict order, and the budget it
    spent; the budget is read from the one tracker the call makes."""
    trackers = []

    class Recording(oracle._Budget):
        def __init__(self, limit):
            super().__init__(limit)
            trackers.append(self)

    with mock.patch.object(oracle, "_Budget", Recording):
        out = _outcome(lambda: list(enumerate_distribution(program, monomial, n, sigma, budget).items()))
    return out, trackers[0].used


def _assert_enumeration_matches(program, monomial, n, sigma, budget=oracle.DEFAULT_BUDGET):
    tracker = oracle._Budget(budget)
    want = _outcome(lambda: list(_ref_distribution(program, monomial, n, sigma, tracker).items()))
    got, used = _enumerated(program, monomial, n, sigma, budget)
    assert got == want
    if got[0] == "ok":
        assert used == tracker.used
        assert all(type(v) is Fraction and type(w) is Fraction for v, w in got[1])
    return got


def _assert_sampling_matches(program, monomial, n, sigma, trials=64, seed=5):
    want = _outcome(lambda: _ref_sampled_values(program, monomial, n, trials, seed, sigma).tobytes())
    got = _outcome(lambda: sampling._sampled_values(program, monomial, n, trials, seed, [sigma])[0].tobytes())
    assert got == want


@given(
    random_programs(),
    st.sampled_from(["a", "b", "c", "a*b", "c**2"]),
    st.integers(0, 2),
    st.sampled_from([None, Fraction(1, 3), Fraction(0), Fraction(1), Fraction(3, 2)]),
    st.integers(0, 80),
)
@settings(max_examples=80, deadline=None)
def test_bound_interpreters_match_references_on_random_programs(src, target, n, p, budget):
    # {1/2} becomes the parameter p: left unassigned (None), at the edges of
    # [0, 1], or outside it; a small budget runs out on some programs
    src = src.replace("{1/2}", "{p}")
    sigma = {} if p is None else {"p": p}
    mono = parse_monomial(target)
    for program in (parse(src), normalize(parse(src))):
        _assert_enumeration_matches(program, mono, n, sigma)
        _assert_enumeration_matches(program, mono, n, sigma, budget)
        _assert_sampling_matches(program, mono, n, sigma)


def _difference_outcomes(program, monomial, n, sigma, eps, trials=64, seed=5):
    """The one-pass difference and the two-run reference at ``sigma`` moved
    by -eps and +eps in p: each is ('ok', hi row, lo row, estimate bits) or
    its first error, where the reference runs hi to the end, then lo."""
    hi, lo = dict(sigma, p=sigma["p"] + eps), dict(sigma, p=sigma["p"] - eps)

    def bits(rows, estimate):
        return (*(r.tobytes() for r in rows), np.float64(estimate.value).tobytes(),
                np.float64(estimate.stderr).tobytes(), estimate.trials)

    def two_runs():
        v_hi = _ref_sampled_values(program, monomial, n, trials, seed, hi)
        v_lo = _ref_sampled_values(program, monomial, n, trials, seed, lo)
        return bits((v_hi, v_lo), sampling._mean_estimate((v_hi - v_lo) / (2 * float(eps))))

    def one_pass():
        rows = sampling._sampled_values(program, monomial, n, trials, seed, [hi, lo])
        return bits(rows, sampling.sampled_difference(program, monomial, n, trials, seed, hi, lo, eps))

    with np.errstate(over="ignore", invalid="ignore"):
        return _outcome(one_pass), _outcome(two_runs)


#: (p, eps) with neither side failing, hi failing at {2*p}, lo failing at
#: {p}, and both failing, lo at an earlier read than hi where both reads
#: are there (p = 1/4, eps = 1/2)
DIFFERENCE_POINTS = [(Fraction(1, 4), Fraction(1, 8)), (Fraction(1, 2), Fraction(1, 8)),
                     (Fraction(1, 16), Fraction(1, 8)), (Fraction(1, 4), Fraction(1, 2)),
                     (Fraction(1, 2), Fraction(1))]


@given(
    random_programs(),
    st.sampled_from(["a", "b", "c", "a*b", "c**2"]),
    st.integers(0, 2),
    st.sampled_from(["", "b = Bernoulli(p)", "c = Normal(1, p)", "a = Uniform(0, p)", "b = DiscreteUniform(0, 2)"]),
)
@settings(max_examples=60, deadline=None)
def test_one_pass_difference_matches_two_runs_on_random_programs(src, target, n, tail):
    # choices read {p} and {2*p} in turn, 2*c becomes a coefficient that
    # differs between the points, and a tail statement may add a draw
    choices = iter(["{p}", "{2*p}"] * src.count("{1/2}"))
    src = src.replace("2*c", "2*p*c")
    src = "".join((next(choices) if i else "") + part for i, part in enumerate(src.split("{1/2}")))
    src = src.replace("\nend\n", f"\n{tail}\nend\n")
    mono = parse_monomial(target)
    for program in (parse(src), normalize(parse(src))):
        for p, eps in DIFFERENCE_POINTS:
            got, want = _difference_outcomes(program, mono, n, {"p": p}, eps)
            assert got == want


def test_one_pass_difference_raises_the_first_error_of_two_runs():
    program = parse("x = 0\ny = 0\nwhile true:\n  x = x + 1 {p} x\n  y = y + x {2*p} y - 1\nend\n")
    mono = parse_monomial("y")
    cases = [
        (Fraction(1, 2), Fraction(1, 8), "choice probability 5/4 outside [0, 1]"),  # hi fails
        (Fraction(1, 16), Fraction(1, 8), "choice probability -1/16 outside [0, 1]"),  # lo fails
        # both fail: lo already at {p}, hi only at {2*p}, which is read later
        (Fraction(1, 4), Fraction(1, 2), "choice probability 3/2 outside [0, 1]"),
    ]
    for p, eps, message in cases:
        got, want = _difference_outcomes(program, mono, 2, {"p": p}, eps)
        assert got == want == ("error", OracleError, message)


CORPUS_POINT = (Fraction(2, 7), Fraction(3, 11), Fraction(4, 13))


def _corpus_programs():
    for path in sorted(CORPUS.glob("*.prob")):
        program = parse(path.read_text(), name=path.name)
        yield pytest.param(program, id=path.stem)


@pytest.mark.parametrize("program", _corpus_programs())
def test_bound_interpreters_match_references_on_the_corpus(program):
    # coin_flips_50 spends about 3 * 2^k units by its k-th coin, so the
    # default budget would keep the reference busy for minutes; with 20000
    # it runs out early in the first pass.  Errors: a missing parameter,
    # each parameter outside [0, 1], and a budget that runs out early.
    params = sorted(program.params)
    sigma = dict(zip(params, CORPUS_POINT))
    mono = parse_monomial(program.variables[0])
    budget = 20_000 if program.name == "coin_flips_50.prob" else oracle.DEFAULT_BUDGET
    for n in range(3):
        _assert_enumeration_matches(program, mono, n, sigma, budget)
        _assert_enumeration_matches(program, mono, n, sigma, 50)
        _assert_sampling_matches(program, mono, n, sigma)
        for name in params:
            missing = {k: v for k, v in sigma.items() if k != name}
            _assert_enumeration_matches(program, mono, n, missing, budget)
            _assert_sampling_matches(program, mono, n, missing)
            bad = dict(sigma, **{name: Fraction(3, 2)})
            _assert_enumeration_matches(program, mono, n, bad, budget)
            _assert_sampling_matches(program, mono, n, bad)


def test_zero_probability_and_three_way_choices_sample_alike():
    program = parse(
        "x = 0\ny = 0\nz = 0\nwhile true:\n"
        "  x = 1 {p} 2 {q} 3\n"
        "  y = y + 1 {0} y - 1 {q} y\n"
        "  z = z + x {p} z - y {0} z * 2 {q} 7\n"
        "end\n"
    )
    for p, q in [(Fraction(1, 3), Fraction(1, 3)), (Fraction(0), Fraction(1, 2)),
                 (Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]:
        sigma = {"p": p, "q": q}
        for target in ("x", "y", "z", "x*z"):
            mono = parse_monomial(target)
            for form in (program, normalize(program)):
                _assert_sampling_matches(form, mono, 4, sigma, trials=500)
                _assert_enumeration_matches(form, mono, 3, sigma)


def test_powers_of_constant_states_round_as_array_elements():
    # x holds the constant 5/3, a numpy scalar; numpy's scalar ** rounds
    # (5/3)**3 differently from the array loop, which np.power uses for both
    program = parse("x = 0\ny = 0\nwhile true:\n  x = 5/3\n  y = x**3 {p} y - x**3\nend\n")
    for target in ("x**3", "y", "x**3*y"):
        mono = parse_monomial(target)
        _assert_sampling_matches(program, mono, 2, {"p": Fraction(1, 3)})
        got, want = _difference_outcomes(program, mono, 2, {"p": Fraction(1, 3)}, Fraction(1, 10))
        assert got == want and got[0] == "ok"


def test_draws_sample_and_enumerate_alike():
    program = parse(
        "x = 0\nb = 0\nd = 0\nu = 0\ng = 0\nwhile true:\n"
        "  b = Bernoulli(p)\n  d = DiscreteUniform(0, 3)\n"
        "  if b == 1:\n    if d < 2:\n      x = x + d\n    else:\n      x = x - d\n    end\n"
        "  else:\n    x = x - 1 {q} x\n  end\n"
        "  u = Uniform(0, 2)\n  g = Normal(m, v)\nend\n"
    )
    sigma = {"p": Fraction(1, 4), "q": Fraction(2, 5), "m": Fraction(1), "v": Fraction(2)}
    for target in ("x", "b", "d", "u", "g", "x*u"):
        _assert_sampling_matches(program, parse_monomial(target), 3, sigma, trials=300)
    for bad in ({"p": Fraction(-1, 4)}, {"v": Fraction(-2)}, {"m": None}):
        point = {k: v for k, v in {**sigma, **bad}.items() if v is not None}
        _assert_sampling_matches(program, parse_monomial("x"), 3, point, trials=300)
        _assert_enumeration_matches(program, parse_monomial("x"), 2, point)
    # the continuous draws come after x, so enumeration reaches them and fails
    _assert_enumeration_matches(program, parse_monomial("x"), 2, sigma)


def test_first_error_between_budget_and_evaluation():
    # a state spends its unit before its outcomes are evaluated, so a budget
    # that runs out on that unit wins over a missing or bad parameter
    program = parse("x = 0\ny = 0\nwhile true:\n  x = x + 1 {1/2} x\n  y = y + x {p} y\nend\n")
    mono = parse_monomial("y")
    for sigma in ({}, {"p": Fraction(3, 2)}):
        # 4 units for the initial values and 3 for the first x; y's first
        # state spends the 8th unit
        for budget in range(10):
            error = _assert_enumeration_matches(program, mono, 2, sigma, budget)[2]
            assert ("budget" in error) == (budget < 8)


def test_unread_guards_and_unreached_branches_raise_nothing():
    # the right operand of `and` is read only where the left one holds, and
    # x never reaches 1, so neither k nor q is ever needed
    program = parse(
        "x = 0\ny = 0\nwhile true:\n"
        "  if x == 1 and y < k:\n    y = y + 1 {q} y\n  end\n"
        "  y = y + 1\nend\n"
    )
    mono = parse_monomial("y")
    assert _assert_enumeration_matches(program, mono, 3, {}) == ("ok", [(Fraction(3), Fraction(1))])
    # sampling reads every guard, so there the missing k is an error
    _assert_sampling_matches(program, mono, 3, {})
    _assert_sampling_matches(program, mono, 0, {})
