"""Acceptance gate: ten end-to-end checks, one printed pass/fail line each.

Every expected quantity here is either a hand-derived closed form for a
bundled program, an exact value frozen from the independent enumeration
oracle, or an equation count pinned for the verbatim corpus programs.
Each check enforces its own wall-clock budget.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import sympy as sp

import probsens.cli as cli
from probsens.dependency import build_graph, classify
from probsens.errors import SingularParameterError, UnsupportedFactorError
from probsens.normalize import normalize
from probsens.parser import parse, parse_monomial
from probsens.sensitivity import (
    SequenceSymbol,
    moment_closure,
    parameter_sensitivity,
    sensitivity_system,
)
from probsens.solver import solve_system
from probsens.symbolic import ep_diff, ep_eval, ep_value_symbolic

from sympy_views import as_expr
from test_solver import _random_system, iterate

CORPUS = Path(cli.__file__).parent / "benchmarks"

EPIDEMIC = (CORPUS / "vaccination.prob").read_text()
PAIR_LOOP = (CORPUS / "non_admissible.prob").read_text()

EPIDEMIC_POINT = {
    "decline": Fraction(9, 10),
    "contact_param": Fraction(7, 10),
    "vax_param": Fraction(1, 10),
}


def _report(num: int, text: str) -> None:
    print(f"[acceptance {num:02d}] PASS — {text}")


def _probe_points(count: int = 20, seed: int = 20260816):
    """Random rational (contact, vax, decline) triples, all non-singular:
    every coordinate lies strictly inside (0, 1), which keeps the closed
    form's denominator 4*(d*vp - d + 1) and the derivative's extra factors
    (vp - 1)**2 * d away from zero."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        cp = Fraction(rng.randint(1, 19), 20)
        vp = Fraction(rng.randint(1, 19), 20)
        d = Fraction(rng.randint(1, 19), 20)
        if d * vp - d + 1 == 0 or d == 0 or vp == 1:
            continue
        points.append((cp, vp, d))
    return points


def _epidemic_moment_ref(n: int, cp: Fraction, vp: Fraction, d: Fraction) -> Fraction:
    """Hand-derived E(infected_prob_n): 0 at n = 0, then
    cp + 3*vp*cp*((d - d*vp)**(n-1) - 1) / (4*(d*vp - d + 1))."""
    if n == 0:
        return Fraction(0)
    return cp + 3 * vp * cp * ((d - d * vp) ** (n - 1) - 1) / (4 * (d * vp - d + 1))


def _epidemic_sensitivity_ref(n: int, cp: Fraction, vp: Fraction, d: Fraction) -> Fraction:
    """Hand-derived d/dvp E(infected_prob_n) for n >= 1."""
    q = d * (1 - vp)
    head = 3 * cp * (1 - vp * n + d * (1 - vp) * (n * vp - vp - 1)) * q**n
    head /= 4 * (vp - 1) ** 2 * d * (1 + d * vp - d) ** 2
    return head + 3 * cp * (d - 1) / (4 * (1 + d * vp - d) ** 2)


_CACHE: dict = {}


def _epidemic_closed_form():
    if "epidemic" not in _CACHE:
        system = moment_closure(EPIDEMIC, parse_monomial("infected_prob"))
        _CACHE["epidemic"] = (system, system.closed_form())
    return _CACHE["epidemic"]


def _identically_zero(ep) -> bool:
    """Exact zero test for an exponential polynomial: all prefix values are
    zero and the tail vanishes on more consecutive indices than the dimension
    of the sequence space its terms span."""
    bound = len(ep.prefix) + 2
    for polys in ep.terms.values():
        # a base: deg P + 1; a pair: (deg p + 1) + (deg q + 1) + 2
        bound += sum(map(len, polys)) + 2 * (len(polys) - 1)
    return all(sp.cancel(as_expr(ep_value_symbolic(ep, n))) == 0 for n in range(bound))


# ---------------------------------------------------------------------------
# 1. single-loop reproduction: recurrences, initial values, closed form
# ---------------------------------------------------------------------------


def test_criterion_01_epidemic_moment_recurrences_and_closed_form():
    started = time.perf_counter()
    system, closed = _epidemic_closed_form()
    assert system.size == 2

    cp, vp, d = sp.symbols("contact_param vax_param decline")
    e_ip = SequenceSymbol.moment(parse_monomial("infected_prob"))
    e_eff = SequenceSymbol.moment(parse_monomial("efficiency"))
    e_one = SequenceSymbol.moment(parse_monomial("1"))
    expected = {
        e_ip: {e_one: cp, e_eff: -cp},
        e_eff: {e_one: sp.Rational(3, 4) * vp, e_eff: d - d * vp},
    }
    for lhs, want in expected.items():
        got = {s: as_expr(c) for c, s in system.equations[lhs]}
        assert set(got) == set(want), (lhs, got)
        for s, coeff in want.items():
            assert sp.expand(got[s] - coeff) == 0, (lhs, s, got[s])
        assert system.initials[lhs].is_zero

    for cp_v, vp_v, d_v in _probe_points():
        point = {"contact_param": cp_v, "vax_param": vp_v, "decline": d_v}
        for n in range(1, 13):
            assert ep_eval(closed, point, n) == _epidemic_moment_ref(n, cp_v, vp_v, d_v)
        assert ep_eval(closed, point, 0) == 0

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(1, "epidemic moment recurrences, initials, and closed form reproduced exactly")


# ---------------------------------------------------------------------------
# 2. closed-form derivative matches the hand-derived sensitivity expression
# ---------------------------------------------------------------------------


def test_criterion_02_epidemic_closed_form_derivative():
    _, closed = _epidemic_closed_form()  # solved outside this check's budget
    started = time.perf_counter()
    derived = ep_diff(closed, "vax_param")
    for cp_v, vp_v, d_v in _probe_points():
        point = {"contact_param": cp_v, "vax_param": vp_v, "decline": d_v}
        for n in range(1, 13):
            assert ep_eval(derived, point, n) == _epidemic_sensitivity_ref(
                n, cp_v, vp_v, d_v
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(2, "derivative of the epidemic closed form matches the hand-derived expression")


# ---------------------------------------------------------------------------
# 3. headline number: sensitivity at the published operating point
# ---------------------------------------------------------------------------


def test_criterion_03_epidemic_probe_value():
    _, closed = _epidemic_closed_form()
    value = ep_eval(ep_diff(closed, "vax_param"), EPIDEMIC_POINT, 11)
    assert abs(value + Fraction(17, 10)) <= Fraction(5, 100), value
    _report(3, f"sensitivity at n=11 is {float(value):.5f} (within -1.7 ± 0.05)")


# ---------------------------------------------------------------------------
# 4. the nine-equation sensitivity system
# ---------------------------------------------------------------------------


def test_criterion_04_nine_equation_sensitivity_system():
    started = time.perf_counter()
    system = sensitivity_system(PAIR_LOOP, parse_monomial("u"), "p")
    assert system.size == 9
    assert {str(m) for m in system.monomials("sensitivity")} == {
        "u", "y", "z", "y*z", "z**2",
    }
    assert {str(m) for m in system.monomials("moment")} == {"y", "z", "y*z", "z**2"}
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(4, "sensitivity system for u contains exactly the nine expected equations")


# ---------------------------------------------------------------------------
# 5. equation counts for the verbatim corpus programs
# ---------------------------------------------------------------------------


def test_criterion_05_equation_count_reproduction():
    started = time.perf_counter()
    cases = [
        ("vaccination.prob", "diff", "vax_param", [("infected_prob", 2), ("infected_prob**2", 2)]),
        ("non_admissible.prob", "sensrec", "p", [("u", 9), ("y**2", 9)]),
        ("non_admissible_2.prob", "sensrec", "par", [("y", 5), ("x*z", 4)]),
        ("non_admissible_3.prob", "sensrec", "p", [("total", 6), ("z1**2", 12)]),
        ("non_admissible_4.prob", "sensrec", "p1", [("z", 4), ("cnt**2", 3)]),
        ("coin_flips_50.prob", "diff", "p", [("total", 51)]),
    ]
    for program, method, wrt, targets in cases:
        source = (CORPUS / program).read_text()
        for target, expected in targets:
            mono = parse_monomial(target)
            if method == "diff":
                system = moment_closure(source, mono)
            else:
                system = sensitivity_system(source, mono, wrt)
            moments = sorted(str(m) for m in system.monomials("moment"))
            sens = sorted(str(m) for m in system.monomials("sensitivity"))
            assert system.size == expected, (
                f"{program} target {target}: expected {expected} equations, got "
                f"{system.size}; moment worklist {moments}; sensitivity worklist {sens}"
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    _report(5, "equation counts match for all eleven pinned targets")


# ---------------------------------------------------------------------------
# 6. closed forms vs. exact-enumeration central differences
# ---------------------------------------------------------------------------


def test_criterion_06_oracle_cross_validation():
    from probsens.oracle import fd_sensitivity

    started = time.perf_counter()

    pair_prog = parse(PAIR_LOOP, name="pair")
    pair_form = parameter_sensitivity(
        PAIR_LOOP, parse_monomial("u"), "p", method="sensrec"
    ).closed_form
    for n in range(1, 9):
        engine = ep_eval(pair_form, {"p": Fraction(3, 10)}, n)
        est = fd_sensitivity(
            pair_prog, parse_monomial("u"), n, "p", {"p": Fraction(3, 10)},
            eps=Fraction(1, 10**4), exact=True,
        )
        if est.value == 0:
            assert engine == 0, (n, engine)
        else:
            rel = abs(engine - est.value) / abs(est.value)
            assert rel <= Fraction(1, 1000), (n, float(rel))

    epi_prog = parse(EPIDEMIC, name="epidemic")
    _, closed = _epidemic_closed_form()
    epi_form = ep_diff(closed, "vax_param")
    for n in range(1, 9):
        engine = ep_eval(epi_form, EPIDEMIC_POINT, n)
        est = fd_sensitivity(
            epi_prog, parse_monomial("infected_prob"), n, "vax_param",
            EPIDEMIC_POINT, eps=Fraction(1, 10**4), exact=True,
        )
        if est.value == 0:
            assert engine == 0, (n, engine)
        else:
            rel = abs(engine - est.value) / abs(est.value)
            assert rel <= Fraction(1, 1000), (n, float(rel))

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _report(6, "closed forms agree with exact central differences for n = 1..8")


# ---------------------------------------------------------------------------
# 7. both methods agree on every admissible corpus program
# ---------------------------------------------------------------------------


def test_criterion_07_cross_method_agreement():
    manifest = json.loads((CORPUS / "manifest.json").read_text())
    triples = sorted(
        {
            (row["program"], row["target"], row["wrt"])
            for row in manifest["rows"]
            if "expect_rec" in row
        }
    )
    rng = random.Random(7)
    checked = 0
    for program, target, wrt in triples:
        source = (CORPUS / program).read_text()
        np_ = normalize(parse(source, name=program))
        if not classify(np_, wrt).admissible:
            continue
        mono = parse_monomial(target)
        via_diff = parameter_sensitivity(np_, mono, wrt, method="diff").closed_form
        via_rec = parameter_sensitivity(np_, mono, wrt, method="sensrec").closed_form
        probes = 0
        while probes < 20:
            point = {
                name: Fraction(rng.randint(1, 19), 20) for name in sorted(np_.params)
            }
            try:
                for n in range(0, 9):
                    a = ep_eval(via_diff, point, n)
                    b = ep_eval(via_rec, point, n)
                    if isinstance(a, Fraction) and isinstance(b, Fraction):
                        assert a == b, (program, target, point, n, a, b)
                    else:
                        assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
            except SingularParameterError:
                continue
            probes += 1
        checked += 1
    assert checked >= 10, f"only {checked} admissible program/target pairs exercised"
    _report(7, f"diff and sensrec agree exactly on {checked} admissible program/target pairs")


# ---------------------------------------------------------------------------
# 8. parameter-independent monomials have identically-zero sensitivity
# ---------------------------------------------------------------------------


def test_criterion_08_parameter_independent_sensitivities_vanish():
    checked = 0
    for path in sorted(CORPUS.glob("*.prob")):
        prog = parse(path.read_text(), name=path.stem)
        np_ = normalize(prog)
        graph = build_graph(np_)
        names = sorted(prog.variables)
        for param in sorted(np_.params):
            cls = classify(np_, param, graph=graph)
            if not (cls.admissible or cls.thm2_ok):
                continue  # the analysis itself refuses this parameter
            dependent = graph.p_dependent(param)
            free = [v for v in names if v not in dependent]
            monomials = [parse_monomial(v) for v in free]
            monomials += [parse_monomial(f"{v}**2") for v in free]
            monomials += [
                parse_monomial(f"{a}*{b}")
                for i, a in enumerate(free)
                for b in free[i + 1 :]
            ]
            for mono in monomials:
                result = parameter_sensitivity(np_, mono, param)
                assert _identically_zero(result.closed_form), (
                    path.stem, param, str(mono), result.method,
                )
                checked += 1
    assert checked >= 20, f"only {checked} parameter-independent monomials found"
    _report(8, f"all {checked} parameter-independent monomials report the zero closed form")


# ---------------------------------------------------------------------------
# 9. negative controls through the command line
# ---------------------------------------------------------------------------


def test_criterion_09_cli_negative_controls():
    env = {**os.environ, cli.CAP_ENV_VAR: "40"}
    capped = subprocess.run(
        [
            sys.executable, "-m", "probsens", "dump-recurrences",
            str(CORPUS / "non_admissible.prob"), "--target", "w",
        ],
        capture_output=True, text=True, env=env,
    )
    assert capped.returncode == 5, capped.stderr
    assert "cap" in capped.stderr

    tainted = subprocess.run(
        [
            sys.executable, "-m", "probsens", "analyze",
            str(CORPUS / "thm2_violation.prob"),
            "--target", "v", "--wrt", "p", "--method", "sensrec",
        ],
        capture_output=True, text=True,
    )
    assert tainted.returncode == 3, tainted.stderr
    assert "v =p=> x" in tainted.stderr
    _report(9, "moment path on the divergent target exits 5; tainted dependency exits 3 with its witness edge")


# ---------------------------------------------------------------------------
# 10. randomized solver property suite
# ---------------------------------------------------------------------------


def test_criterion_10_random_cfinite_systems():
    solved_count = 0
    seed = 0
    while solved_count < 100:
        seed += 1
        rng = random.Random(seed)
        size = rng.randint(1, 5)
        eqs, init = _random_system(rng, size)
        try:
            solved = solve_system(eqs, init)
        except UnsupportedFactorError:
            continue  # cubic-plus irreducible factor: out of scope by design
        rows = iterate(eqs, init, 30)
        for s in eqs:
            for n in range(31):
                assert ep_value_symbolic(solved[s], n) == rows[n][s], (seed, s, n)
        solved_count += 1
    _report(10, "100 randomized systems: closed forms exact to n = 30")
