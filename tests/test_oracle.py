"""Tests for the enumeration/simulation oracle itself, against hand-computed values."""

from fractions import Fraction

import pytest

from probsens.errors import OracleError
from probsens.normalize import normalize
from probsens.oracle import (
    enumerate_distribution,
    fd_sensitivity,
    moment_exact,
    sample_moment,
)
from probsens.parser import parse, parse_monomial

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
