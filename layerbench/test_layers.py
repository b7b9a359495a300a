"""Layer micro-benchmarks, kept out of the tier-1 suite.

Run from the root of a checkout:

    python -m pytest layerbench

Each benchmark times one layer of the pipeline on a fixed input, ROUNDS
times, each from a cleared sympy cache, and checks its result so that a fast wrong
answer cannot pass as a speed-up.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest
from sympy.core.cache import clear_cache

import probsens.polys as polys
import probsens.solver as solver
from probsens.dependency import classify, variable_supports
from probsens.errors import EquationCapError
from probsens.moments import MomentContext
from probsens.normalize import normalize
from probsens.oracle import fd_sensitivity, moment_exact, sample_moment
from probsens.parser import parse, parse_monomial
from probsens.sensitivity import moment_closure, parameter_sensitivity, sensitivity_system
from probsens.solver import ForwardIterator, solve_system
from probsens.symbolic import (
    ParamExpr,
    ep_eval,
    exp_polynomial_to_json,
    render_exp_polynomial,
)
from probsens.syntax import program_to_source

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "src" / "probsens" / "benchmarks"
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))
import refs  # noqa: E402  (hand-derived references, shared with perfbench)
from sympy_views import as_expr  # noqa: E402
from test_polys import _check_cofactors, stress_pairs  # noqa: E402

BIMODAL_POINT = {"p": Fraction(2, 7), "q2": Fraction(3, 11), "var": Fraction(4, 13)}
CHAINS_POINT = {"p": Fraction(2, 7), "q": Fraction(3, 11), "r": Fraction(4, 13)}
ROUNDS = 3


def test_parse_corpus(benchmark):
    sources = {path.name: path.read_text() for path in sorted(CORPUS.glob("*.prob"))}

    programs = benchmark.pedantic(
        lambda: {name: parse(src, name=name) for name, src in sources.items()},
        setup=clear_cache,
        rounds=ROUNDS,
    )
    assert len(programs) == 17
    for name, program in programs.items():
        assert parse(program_to_source(program), name=name) == program


def _program(name: str):
    return normalize(parse((CORPUS / name).read_text(), name=name))


def _fresh_context(program):
    """A benchmark setup that hands the timed call a new context."""

    def setup():
        clear_cache()
        return (MomentContext(program),), {}

    return setup


def _sensitivity_system(name: str, target: str, wrt: str):
    system = sensitivity_system(MomentContext(_program(name)), parse_monomial(target), wrt)
    equations = system.equations
    return system, equations


@pytest.fixture(scope="module")
def bimodal_system():
    """The sensitivity system of bimodal x**2 with respect to p (10 equations)."""
    return _sensitivity_system("bimodal.prob", "x**2", "p")


def test_paramexpr_arithmetic(benchmark):
    p, q = ParamExpr("p"), ParamExpr("q")

    def work():
        acc = ParamExpr(0)
        for k in range(1, 13):
            acc = acc * (p + k) / (q + k) + p * q / k
        return acc

    result = benchmark.pedantic(work, setup=clear_cache, rounds=ROUNDS)
    assert result.free_params() == frozenset({"p", "q"})


def test_gcd_stress(benchmark):
    """``polys.cofactors`` on the 96 seed-2 pairs of the tier-1 gcd stress
    set, each checked against sympy's gcd."""
    pairs = stress_pairs(2, 96)

    def work():
        return [polys.cofactors(a, b) for _, a, b in pairs]

    results = benchmark.pedantic(work, rounds=ROUNDS)
    for (nvars, a, b), got in zip(pairs, results):
        _check_cofactors(nvars, a, b, *got)


def test_forward_iterator_20_steps(benchmark, bimodal_system):
    system, equations = bimodal_system

    def work():
        return ForwardIterator(equations, system.initials).rows(20)

    rows = benchmark.pedantic(work, setup=clear_cache, rounds=ROUNDS)
    exact = ForwardIterator(equations, system.initials, BIMODAL_POINT).rows(20)
    for s in equations:
        assert rows[20][s].eval_fraction(BIMODAL_POINT) == exact[20][s]


#: Sensitivity systems solved by ``test_solve_system``: bimodal x**2, and
#: the slowest corpus op, the sensrec row of non_admissible_3 z1**2.
SOLVE_CASES = {
    "bimodal_x2": (("bimodal.prob", "x**2", "p"), BIMODAL_POINT),
    "non_admissible_3_z1_sq": (("non_admissible_3.prob", "z1**2", "p"), CHAINS_POINT),
}


@pytest.mark.parametrize("case", SOLVE_CASES)
def test_solve_system(benchmark, case):
    row, point = SOLVE_CASES[case]
    system, equations = _sensitivity_system(*row)

    def work():
        return solve_system(equations, system.initials)

    solved = benchmark.pedantic(work, setup=clear_cache, rounds=ROUNDS)
    exact = ForwardIterator(equations, system.initials, point).rows(12)
    for s in equations:
        assert ep_eval(solved[s], point, 12) == exact[12][s]


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


def test_verify_closed_forms(benchmark, bimodal_system, monkeypatch):
    """The solver's check of every solved block: the residual
    S(n+1) - A*S(n) - g(n) as an identity, and the value at n0.  Each call
    returns the block's checked closed forms."""
    system, equations = bimodal_system
    check = solver._check_block
    calls = []

    def recording(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(solver, "_check_block", recording)
    solved = solve_system(equations, system.initials)

    def work():
        return [check(*args) for args in calls]

    checked = benchmark.pedantic(work, setup=clear_cache, rounds=ROUNDS)
    assert sorted(map(str, (s for block in checked for s in block))) == sorted(map(str, equations))
    exact = ForwardIterator(equations, system.initials, BIMODAL_POINT).rows(12)
    for block, n0, *_ in calls:
        for s in block:
            assert ep_eval(solved[s], BIMODAL_POINT, n0) == exact[n0][s], (s, n0)
            assert ep_eval(solved[s], BIMODAL_POINT, 12) == exact[12][s], s


#: Manifest rows whose reports print the most coefficient text.
RENDER_ROWS = [
    ("bimodal.prob", "x**2", "p", "diff"),
    ("non_admissible_3.prob", "z1**2", "p", "sensrec"),
    ("gamblers_ruin.prob", "capital**2", "p", "sensrec"),
    ("vaccination.prob", "infected_prob", "vax_param", "diff"),
]


def _render(results):
    return [
        (r.system.render(), render_exp_polynomial(r.closed_form), exp_polynomial_to_json(r.closed_form))
        for r in results
    ]


def test_render_corpus(benchmark, monkeypatch):
    """What a report prints of a solved analysis: the equations, the closed
    form as text and the closed form as JSON, with the rows solved in setup."""
    results = [
        parameter_sensitivity(_program(name), parse_monomial(target), wrt, method=method)
        for name, target, wrt, method in RENDER_ROWS
    ]

    texts = benchmark.pedantic(lambda: _render(results), setup=clear_cache, rounds=ROUNDS)
    # every coefficient printed through the sympy view instead
    monkeypatch.setattr(ParamExpr, "__str__", lambda self: str(as_expr(self)))
    assert texts == _render(results)


def _coin_program(k: int):
    """k sticky coins and their sum, in the form of coin_flips_50.prob."""
    names = [f"c{i}" for i in range(1, k + 1)]
    lines = [", ".join(names) + " = " + ", ".join("0" for _ in names), "total = 0", "while true:"]
    lines += [f"    {c} = 1 {{p}} {c}" for c in names]
    lines += ["    total = " + " + ".join(names), "end"]
    return normalize(parse("\n".join(lines) + "\n", name=f"coin_flips_{k}"))


@pytest.mark.parametrize("k", [10, 20, 30, 40, 50])
def test_recurrence_total_sq(benchmark, k):
    """One total**2 recurrence of the k-coin program, from a fresh context:
    recurrence assembly alone, with value sets computed in the setup."""
    program, mono = _coin_program(k), parse_monomial("total**2")

    rec = benchmark.pedantic(
        lambda ctx: ctx.recurrence(mono), setup=_fresh_context(program), rounds=ROUNDS
    )
    # E[total**2] after a pass needs every c_i and every c_i*c_j (i < j),
    # plus the constant.
    assert len(rec.terms) == k * (k + 1) // 2 + 1


@pytest.mark.parametrize("k", [6, 9, 13, 20, 30])
def test_sensitivity_system_total_sq(benchmark, k):
    """d/dp E[total**2] of the k-coin program, assembled and rendered from a
    fresh context as ``dump-recurrences --wrt p --cap`` does with a cap
    just large enough, with value sets computed in the setup.  k = 30 gives
    931 equations."""
    program, mono = _coin_program(k), parse_monomial("total**2")
    size = k * (k + 1) + 1

    def work(ctx):
        system = sensitivity_system(ctx, mono, "p", cap=size)
        return system, system.render()

    system, text = benchmark.pedantic(work, setup=_fresh_context(program), rounds=ROUNDS)
    assert system.size == size
    assert len(text.splitlines()) == system.size


def test_moment_closure_coin_flips_50(benchmark):
    """E[total] of coin_flips_50.prob from a fresh context, initial values
    included: 51 equations, each recurrence and each initial value pushed
    back through 51 statements, of which it touches at most two."""
    program, mono = _program("coin_flips_50.prob"), parse_monomial("total")

    system = benchmark.pedantic(
        lambda ctx: moment_closure(ctx, mono), setup=_fresh_context(program), rounds=ROUNDS
    )
    assert system.size == 51
    assert all(v == (1 if s.is_constant else 0) for s, v in system.initials.items())
    point = {"p": Fraction(2, 7)}
    rows = system.iterate(3, point)
    value = sum(c.eval_fraction(point) * rows[3][s] for c, s in system.combination)
    assert value == 50 * (1 - (1 - point["p"]) ** 3)


@pytest.mark.parametrize("cap", [60, 100])
def test_moment_closure_reaches_the_cap(benchmark, cap):
    """non_admissible_4 z, whose moments do not close: y = y**2 + x*f asks
    for E[y**2k] one k at a time, until the cap.  The coefficients of that
    chain are constants, so this is the assembly's constant arithmetic."""
    program, mono = _program("non_admissible_4.prob"), parse_monomial("z")

    def work(ctx):
        with pytest.raises(EquationCapError) as exc:
            moment_closure(ctx, mono, cap=cap)
        return exc.value

    error = benchmark.pedantic(work, setup=_fresh_context(program), rounds=ROUNDS)
    assert (error.cap, error.count) == (cap, cap + 1)


BIT = frozenset({Fraction(0), Fraction(1)})


@pytest.mark.parametrize(
    "name, expected",
    [
        ("grammar_zoo.prob", {"tick": {0, 1, 2, 3}, "d": {0, 1, 2}, "mode": BIT, "acc": None}),
        ("randomized_response.prob", {"truth": BIT, "resp": BIT, "answers": None}),
        (
            "non_admissible_4.prob",
            {
                "x": set(range(6)),
                "f": set(range(11)),
                "inc": BIT,
                "_t1": BIT,
                "_t2": None,
                "cnt": None,
                "y": None,
                "z": None,
            },
        ),
        ("gamblers_ruin.prob", {"bet": None, "capital": None}),
        ("coin_flips_12", {"total": set(range(13))}),
    ],
)
def test_variable_supports(benchmark, name, expected):
    """The value-set fixpoint, step table included, of a program normalized
    afresh in each round's setup, so that no round reads the step table an
    earlier round built."""

    def fresh():
        return _coin_program(12) if name == "coin_flips_12" else _program(name)

    def setup():
        clear_cache()
        return (fresh(),), {}

    supports = benchmark.pedantic(variable_supports, setup=setup, rounds=ROUNDS)
    assert set(supports) == set(fresh().all_variables)
    for v, values in expected.items():
        assert supports[v] == (None if values is None else {Fraction(x) for x in values})


def test_classify_then_analyse_coin_flips_50(benchmark):
    """``classify`` and then ``parameter_sensitivity`` of coin_flips_50 total
    with respect to p, on one program normalized afresh in each round's
    setup, as each operation of the ``corpus`` benchmark runs a row: the
    analysis reads the value sets, graph and verdict that ``classify``
    derived."""
    mono = parse_monomial("total")

    def setup():
        clear_cache()
        return (_program("coin_flips_50.prob"),), {}

    def work(program):
        return classify(program, "p"), parameter_sensitivity(program, mono, "p")

    cls, result = benchmark.pedantic(work, setup=setup, rounds=ROUNDS)
    assert cls.admissible and result.classification is cls
    assert (result.method, result.equation_count) == ("diff", 51)
    point = {"p": Fraction(2, 7)}
    assert ep_eval(result.closed_form, point, 3) == 50 * 3 * (1 - point["p"]) ** 2


@pytest.mark.parametrize("form", ["structured", "normalized"])
def test_oracle_enumeration(benchmark, form):
    program = parse((CORPUS / "umbrella.prob").read_text(), name="umbrella.prob")
    if form == "normalized":
        program = normalize(program)
    mono, point = parse_monomial("umbrella"), {"p": Fraction(2, 7), "q": Fraction(3, 11)}

    value = benchmark.pedantic(
        lambda: moment_exact(program, mono, 8, point), setup=clear_cache, rounds=ROUNDS
    )
    closed = moment_closure(_program("umbrella.prob"), mono).closed_form()
    assert value == ep_eval(closed, point, 8)


def test_oracle_sampling(benchmark):
    program = parse((CORPUS / "random_walk_1d.prob").read_text(), name="random_walk_1d.prob")
    mono, p = parse_monomial("x**2"), Fraction(2, 7)

    estimate = benchmark.pedantic(
        lambda: sample_moment(program, mono, 12, 20_000, seed=3, sigma={"p": p}),
        setup=clear_cache,
        rounds=ROUNDS,
    )
    exact = 4 * 12 * p * (1 - p) + 12**2 * (2 * p - 1) ** 2
    assert abs(estimate.value - float(exact)) < 5 * estimate.stderr


def test_oracle_sampled_fd(benchmark):
    program = parse((CORPUS / "hawk_dove.prob").read_text(), name="hawk_dove.prob")
    mono, n, eps, trials = parse_monomial("payoff"), 6, Fraction(1, 10), 50_000
    point = {"p": Fraction(2, 7), "q": Fraction(3, 11)}

    estimate = benchmark.pedantic(
        lambda: fd_sensitivity(
            program, mono, n, "p", point, eps=eps, exact=False, trials=trials, seed=3
        ),
        setup=clear_cache,
        rounds=ROUNDS,
    )
    p, q = point["p"], point["q"]
    want = (refs.hawk_payoff(p + eps, q, n) - refs.hawk_payoff(p - eps, q, n)) / (2 * eps)
    assert want == refs.hawk_d_payoff(p, q, n)
    # |payoff| <= 2n, and two thresholds per pass move with p
    tolerance = refs.sampled_difference_tolerance(2 * n, 2, n, eps, trials)
    assert abs(estimate.value - float(want)) < tolerance


def test_oracle_sampled_fd_normal(benchmark):
    # var differs between the two points, so the Normal site's scale is a
    # (points, 1) column; the noise is centered, so d/dvar E[x_n] is 0
    program = parse((CORPUS / "bimodal.prob").read_text(), name="bimodal.prob")
    mono, n, eps, trials = parse_monomial("x"), 6, Fraction(1, 10), 50_000

    estimate = benchmark.pedantic(
        lambda: fd_sensitivity(
            program, mono, n, "var", BIMODAL_POINT, eps=eps, exact=False, trials=trials, seed=3
        ),
        setup=clear_cache,
        rounds=ROUNDS,
    )
    noise = refs.bimodal_x_noise_sd(float(BIMODAL_POINT["var"]), float(eps), n, trials)
    assert abs(estimate.value) < 5 * noise
