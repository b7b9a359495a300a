"""Layer micro-benchmarks, kept out of the tier-1 suite.

Run from the root of a checkout:

    python -m pytest layerbench

Each benchmark times one layer of the pipeline on a fixed input, ROUNDS
times, each from a cleared sympy cache, and checks its result so that a fast wrong
answer cannot pass as a speed-up.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest
from sympy.core.cache import clear_cache

from probsens.dependency import variable_supports
from probsens.moments import MomentContext
from probsens.normalize import normalize
from probsens.parser import parse, parse_monomial
from probsens.sensitivity import sensitivity_system
from probsens.solver import ForwardIterator, solve_system
from probsens.symbolic import ParamExpr, ep_eval

CORPUS = Path(__file__).resolve().parent.parent / "src" / "probsens" / "benchmarks"
BIMODAL_POINT = {"p": Fraction(2, 7), "q2": Fraction(3, 11), "var": Fraction(4, 13)}
ROUNDS = 3


def _program(name: str):
    return normalize(parse((CORPUS / name).read_text(), name=name))


@pytest.fixture(scope="module")
def bimodal_system():
    """The sensitivity system of bimodal x**2 with respect to p (9 equations)."""
    system = sensitivity_system(MomentContext(_program("bimodal.prob")), parse_monomial("x**2"), "p")
    equations = {s: rec.terms for s, rec in system.equations.items()}
    return system, equations


def test_paramexpr_arithmetic(benchmark):
    p, q = ParamExpr("p"), ParamExpr("q")

    def work():
        acc = ParamExpr(0)
        for k in range(1, 13):
            acc = acc * (p + k) / (q + k) + p * q / k
        return acc

    result = benchmark.pedantic(work, setup=clear_cache, rounds=ROUNDS)
    assert result.free_params() == frozenset({"p", "q"})


def test_forward_iterator_20_steps(benchmark, bimodal_system):
    system, equations = bimodal_system

    def work():
        return ForwardIterator(equations, system.initials).rows(20)

    rows = benchmark.pedantic(work, setup=clear_cache, rounds=ROUNDS)
    exact = ForwardIterator(equations, system.initials, BIMODAL_POINT).rows(20)
    for s in equations:
        assert rows[20][s].eval_fraction(BIMODAL_POINT) == exact[20][s]


def test_solve_system(benchmark, bimodal_system):
    system, equations = bimodal_system

    def work():
        return solve_system(equations, system.initials)

    solved = benchmark.pedantic(work, setup=clear_cache, rounds=ROUNDS)
    exact = ForwardIterator(equations, system.initials, BIMODAL_POINT).rows(12)
    for s in equations:
        assert ep_eval(solved[s], BIMODAL_POINT, 12) == exact[12][s]


def test_ep_eval(benchmark, bimodal_system):
    system, equations = bimodal_system
    closed = system.closed_form()
    exact = system.iterate(8, BIMODAL_POINT)
    target = sum(
        (c.eval_fraction(BIMODAL_POINT) * exact[8][s] for c, s in system.combination), Fraction(0)
    )

    def work():
        return [ep_eval(closed, BIMODAL_POINT, n) for n in range(1, 9)]

    values = benchmark.pedantic(work, setup=clear_cache, rounds=ROUNDS)
    assert values[-1] == target


def test_variable_supports(benchmark):
    program = _program("grammar_zoo.prob")

    supports = benchmark.pedantic(
        lambda: variable_supports(program), setup=clear_cache, rounds=ROUNDS
    )
    assert set(supports) == set(program.all_variables)
