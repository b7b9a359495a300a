"""Tests for the linear-recurrence solver: characteristic-polynomial factoring,
closed-form construction, and exact agreement with forward iteration."""

import json
import random
from fractions import Fraction

import pytest
import sympy as sp

from probsens.errors import UnsupportedFactorError
from probsens.solver import ScalarCFinite, factor_charpoly, solve_system
from probsens.symbolic import (
    ParamExpr,
    ep_diff,
    ep_eval,
    ep_value_symbolic,
    exp_polynomial_to_json,
    pe,
    render_exp_polynomial,
)


def expr(text: str) -> ParamExpr:
    return pe(sp.sympify(text, rational=True))


def iterate(equations, initials, steps):
    """Exact forward iteration of a first-order system, rows 0..steps."""
    row = {s: pe(v) for s, v in initials.items()}
    rows = [row]
    for _ in range(steps):
        prev = rows[-1]
        nxt = {}
        for s, terms in equations.items():
            acc = pe(0)
            for c, t in terms:
                acc = acc + pe(c) * prev[t]
            nxt[s] = acc
        rows.append(nxt)
    return rows


# ---------------------------------------------------------------------------
# factor_charpoly
# ---------------------------------------------------------------------------


def test_factor_distinct_linear():
    x = sp.Symbol("x")
    d, vp = sp.symbols("d vp")
    q = (x - 1) * (x - (d - d * vp))
    factors = factor_charpoly(sp.expand(q), x)
    assert len(factors) == 2
    assert all(m == 1 for _, m in factors)
    roots = [sp.solve(f, x)[0] for f, _ in factors]
    assert any(sp.expand(r - 1) == 0 for r in roots)
    assert any(sp.expand(r - (d - d * vp)) == 0 for r in roots)


def test_factor_repeated_root():
    x = sp.Symbol("x")
    factors = factor_charpoly(x**3, x)
    assert factors == [(x, 3)]


def test_factor_irreducible_quadratic():
    x = sp.Symbol("x")
    factors = factor_charpoly(x**2 - 2, x)
    assert len(factors) == 1
    fac, mult = factors[0]
    assert mult == 1 and sp.degree(fac, x) == 2


def test_factor_accepts_poly_objects():
    x = sp.Symbol("x")
    q = sp.Poly(x**2 - 3 * x + 2, x)
    factors = factor_charpoly(q, x)
    assert len(factors) == 2


# ---------------------------------------------------------------------------
# solve_system on hand-picked shapes
# ---------------------------------------------------------------------------


def test_geometric_with_symbolic_ratio():
    eqs = {"u": [(expr("a"), "u"), (pe(1), "one")], "one": [(pe(1), "one")]}
    init = {"u": pe(0), "one": pe(1)}
    solved = solve_system(eqs, init)
    rows = iterate(eqs, init, 8)
    for n in range(9):
        assert ep_value_symbolic(solved["u"], n) == rows[n]["u"]


def test_resonance_constant_forcing():
    # u(n+1) = u(n) + c has the closed form u0 + c*n: the eigenvalue of the
    # forcing coincides with the block's own.
    eqs = {"u": [(pe(1), "u"), (expr("c"), "one")], "one": [(pe(1), "one")]}
    init = {"u": expr("u0"), "one": pe(1)}
    solved = solve_system(eqs, init)
    c, u0 = sp.symbols("c u0")
    for n in range(7):
        assert ep_value_symbolic(solved["u"], n) == pe(u0 + c * n)


def test_nilpotent_shift_register():
    # a <- b <- 0: both sequences vanish after a transient.
    eqs = {"a": [(pe(1), "b")], "b": []}
    init = {"a": pe(5), "b": pe(7)}
    solved = solve_system(eqs, init)
    assert solved["b"].is_zero or all(
        ep_value_symbolic(solved["b"], n) == pe(0) for n in range(1, 4)
    )
    assert ep_value_symbolic(solved["a"], 0) == pe(5)
    assert ep_value_symbolic(solved["a"], 1) == pe(7)
    assert ep_value_symbolic(solved["a"], 2) == pe(0)


def test_irreducible_quadratic_block():
    # u(n+1) = v(n), v(n+1) = 2 u(n): characteristic polynomial x**2 - 2.
    eqs = {"u": [(pe(1), "v")], "v": [(pe(2), "u")]}
    init = {"u": pe(1), "v": pe(3)}
    solved = solve_system(eqs, init)
    rows = iterate(eqs, init, 12)
    for n in range(13):
        assert ep_value_symbolic(solved["u"], n) == rows[n]["u"]
        assert ep_value_symbolic(solved["v"], n) == rows[n]["v"]
    assert solved["u"].quad_terms


def test_unsupported_cubic_factor():
    # Companion of x**3 - 2, irreducible over the rationals.
    eqs = {"a": [(pe(1), "b")], "b": [(pe(1), "c")], "c": [(pe(2), "a")]}
    init = {"a": pe(1), "b": pe(0), "c": pe(0)}
    with pytest.raises(UnsupportedFactorError):
        solve_system(eqs, init)


def test_open_system_rejected():
    eqs = {"u": [(pe(1), "ghost")]}
    with pytest.raises(ValueError, match="not closed"):
        solve_system(eqs, {"u": pe(0)})


def test_missing_initial_rejected():
    eqs = {"u": [(pe(1), "u")]}
    with pytest.raises(ValueError):
        solve_system(eqs, {})


# ---------------------------------------------------------------------------
# ScalarCFinite views
# ---------------------------------------------------------------------------


def test_scalar_view_satisfies_own_recurrence():
    eqs = {
        "u": [(pe(2), "u"), (pe(1), "v")],
        "v": [(pe(1), "v"), (pe(1), "one")],
        "one": [(pe(1), "one")],
    }
    init = {"u": pe(0), "v": pe(1), "one": pe(1)}
    forms: dict = {}
    solved = solve_system(eqs, init, scalar_forms=forms)
    rows = iterate(eqs, init, 16)
    for s in eqs:
        sc = forms[s]
        assert isinstance(sc, ScalarCFinite)
        # seeds sit at the stated base
        for i, seed in enumerate(sc.seeds):
            assert seed == rows[sc.base + i][s]
        # and the recurrence itself holds well past the seeds
        for n in range(sc.base, 12 - sc.order):
            acc = pe(0)
            for i, c in enumerate(sc.coefficients):
                acc = acc + c * rows[n + i][s]
            assert acc == rows[n + sc.order][s]
        # the closed form agrees everywhere
        for n in range(13):
            assert ep_value_symbolic(solved[s], n) == rows[n][s]


def test_scalar_cfinite_values_and_charpoly():
    sc = ScalarCFinite((pe(-1), pe(2)), (pe(0), pe(1)))  # u(n+2) = 2u(n+1) - u(n)
    assert sc.order == 2
    vals = sc.values(6)
    assert [str(v) for v in vals] == ["0", "1", "2", "3", "4", "5", "6"]
    x = sp.Symbol("x")
    assert sp.expand(sc.char_poly(x) - (x**2 - 2 * x + 1)) == 0


# ---------------------------------------------------------------------------
# Randomized block-triangular systems, checked against brute force
# ---------------------------------------------------------------------------


def _random_system(rng: random.Random, size: int):
    names = [f"s{i}" for i in range(size)]
    a = [[0] * size for _ in range(size)]
    i = 0
    while i < size:
        if i + 1 < size and rng.random() < 0.4:
            for r in (i, i + 1):
                for c in (i, i + 1):
                    a[r][c] = rng.randint(-3, 3)
            i += 2
        else:
            a[i][i] = rng.randint(-3, 3)
            i += 1
    for r in range(size):
        for c in range(r):
            if rng.random() < 0.5:
                a[r][c] = rng.randint(-3, 3)
    eqs = {}
    for r in range(size):
        terms = [(pe(a[r][c]), names[c]) for c in range(size) if a[r][c] != 0]
        eqs[names[r]] = terms or [(pe(0), names[r])]
    init = {nm: pe(rng.randint(-4, 4)) for nm in names}
    return eqs, init


@pytest.mark.parametrize("seed", [20260816, 7, 99])
def test_random_systems_match_iteration(seed):
    rng = random.Random(seed)
    for _ in range(12):
        size = rng.randint(1, 5)
        eqs, init = _random_system(rng, size)
        try:
            solved = solve_system(eqs, init)
        except UnsupportedFactorError:
            continue  # a 2x2 block coupled below the diagonal can go cubic+
        rows = iterate(eqs, init, 30)
        for s in eqs:
            for n in range(31):
                assert ep_value_symbolic(solved[s], n) == rows[n][s], (s, n)


def test_defining_recurrence_at_random_probes():
    rng = random.Random(4242)
    eqs = {
        "u": [(expr("a"), "u"), (pe(1), "v")],
        "v": [(expr("1/2"), "v"), (pe(3), "one")],
        "one": [(pe(1), "one")],
    }
    init = {"u": pe(1), "v": expr("a"), "one": pe(1)}
    solved = solve_system(eqs, init)
    probes = 0
    while probes < 20:
        n = rng.randint(0, 25)
        a_val = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if a_val in (Fraction(1), Fraction(1, 2)):
            continue  # eigenvalue collision with the forcing: singular point
        probes += 1
        vals = {"a": a_val}
        lhs = ep_eval(solved["u"], vals, n + 1)
        rhs = a_val * ep_eval(solved["u"], vals, n) + ep_eval(solved["v"], vals, n)
        assert lhs == rhs



# ---------------------------------------------------------------------------
# Conjugate-pair rendering, pinned
# ---------------------------------------------------------------------------


def test_forced_rotation_renders_conjugate_pairs_exactly():
    # Two rotations by (a, b): characteristic polynomial x**2 - 2*a*x + a**2 + b**2,
    # irreducible over Q(a, b).  u is forced by a constant, w by u, so w's
    # pair has multiplicity 2.  The strings pin the text of the quad path.
    a, b = pe("a"), pe("b")
    eqs = {
        "u": [(a, "u"), (-b, "v"), (pe(1), "one")],
        "v": [(b, "u"), (a, "v")],
        "w": [(a, "w"), (-b, "x"), (pe(1), "u")],
        "x": [(b, "w"), (a, "x")],
        "one": [(pe(1), "one")],
    }
    init = {"u": pe(1), "v": pe(0), "w": pe(0), "x": pe(1), "one": pe(1)}
    solved = solve_system(eqs, init)
    assert render_exp_polynomial(solved["u"]) == (
        '(1 - a)/(a**2 - 2*a + b**2 + 1) + ((a**2 + b**2)/(2*a**2 - 4*a + 2*b**2 + '
        '2))*s[n] + (-1/(2*a**2 - 4*a + 2*b**2 + 2))*s[n+1] where s[k+1] = (2*a)*s[k] '
        '+ (-a**2 - b**2)*s[k-1], s[0] = 2, s[1] = 2*a'
    )
    assert json.dumps(exp_polynomial_to_json(solved["u"])) == (
        '{"prefix": [], "terms": [{"poly": ["(1 - a)/(a**2 - 2*a + b**2 + 1)"], '
        '"base": "1"}], "quad_terms": [{"p": ["(a**2 + b**2)/(2*a**2 - 4*a + 2*b**2 + '
        '2)"], "q": ["-1/(2*a**2 - 4*a + 2*b**2 + 2)"], "beta": "2*a", "gamma": "-a**2 '
        '- b**2"}]}'
    )
    assert render_exp_polynomial(solved["w"]) == (
        '(a**2 - 2*a + 1)/(a**4 - 4*a**3 + 2*a**2*b**2 + 6*a**2 - 4*a*b**2 - 4*a + '
        'b**4 + 2*b**2 + 1) + ((-2*a**5*b + a**5 + 8*a**4*b - 3*a**4 - 4*a**3*b**3 + '
        '2*a**3*b**2 - 12*a**3*b + 3*a**3 + 8*a**2*b**3 - 7*a**2*b**2 + 8*a**2*b - '
        'a**2 - 2*a*b**5 + a*b**4 - 4*a*b**3 + 7*a*b**2 - 2*a*b - 2*b**2)/(4*a**4*b**2 '
        '- 16*a**3*b**2 + 8*a**2*b**4 + 24*a**2*b**2 - 16*a*b**4 - 16*a*b**2 + 4*b**6 '
        '+ 8*b**4 + 4*b**2) + ((2*a - 1)/(4*a**2 - 8*a + 4*b**2 + 4))*n)*s[n] + '
        '((2*a**4*b - a**4 - 8*a**3*b + 3*a**3 + 4*a**2*b**3 - 2*a**2*b**2 + 12*a**2*b '
        '- 3*a**2 - 8*a*b**3 + 5*a*b**2 - 8*a*b + a + 2*b**5 - b**4 + 4*b**3 - 3*b**2 '
        '+ 2*b)/(4*a**4*b**2 - 16*a**3*b**2 + 8*a**2*b**4 + 24*a**2*b**2 - 16*a*b**4 - '
        '16*a*b**2 + 4*b**6 + 8*b**4 + 4*b**2) + (-1/(4*a**2 - 8*a + 4*b**2 + '
        '4))*n)*s[n+1] where s[k+1] = (2*a)*s[k] + (-a**2 - b**2)*s[k-1], s[0] = 2, '
        's[1] = 2*a'
    )
    assert json.dumps(exp_polynomial_to_json(solved["w"])) == (
        '{"prefix": [], "terms": [{"poly": ["(a**2 - 2*a + 1)/(a**4 - 4*a**3 + '
        '2*a**2*b**2 + 6*a**2 - 4*a*b**2 - 4*a + b**4 + 2*b**2 + 1)"], "base": "1"}], '
        '"quad_terms": [{"p": ["(-2*a**5*b + a**5 + 8*a**4*b - 3*a**4 - 4*a**3*b**3 + '
        '2*a**3*b**2 - 12*a**3*b + 3*a**3 + 8*a**2*b**3 - 7*a**2*b**2 + 8*a**2*b - '
        'a**2 - 2*a*b**5 + a*b**4 - 4*a*b**3 + 7*a*b**2 - 2*a*b - 2*b**2)/(4*a**4*b**2 '
        '- 16*a**3*b**2 + 8*a**2*b**4 + 24*a**2*b**2 - 16*a*b**4 - 16*a*b**2 + 4*b**6 '
        '+ 8*b**4 + 4*b**2)", "(2*a - 1)/(4*a**2 - 8*a + 4*b**2 + 4)"], "q": '
        '["(2*a**4*b - a**4 - 8*a**3*b + 3*a**3 + 4*a**2*b**3 - 2*a**2*b**2 + '
        '12*a**2*b - 3*a**2 - 8*a*b**3 + 5*a*b**2 - 8*a*b + a + 2*b**5 - b**4 + 4*b**3 '
        '- 3*b**2 + 2*b)/(4*a**4*b**2 - 16*a**3*b**2 + 8*a**2*b**4 + 24*a**2*b**2 - '
        '16*a*b**4 - 16*a*b**2 + 4*b**6 + 8*b**4 + 4*b**2)", "-1/(4*a**2 - 8*a + '
        '4*b**2 + 4)"], "beta": "2*a", "gamma": "-a**2 - b**2"}]}'
    )
    assert render_exp_polynomial(ep_diff(solved["u"], "b")) == (
        '(2*a*b - 2*b)/(a**4 - 4*a**3 + 2*a**2*b**2 + 6*a**2 - 4*a*b**2 - 4*a + b**4 + '
        '2*b**2 + 1) + ((a**3 - 2*a**2 - 3*a*b**2 + a + 2*b**2)/(2*a**4*b - 8*a**3*b + '
        '4*a**2*b**3 + 12*a**2*b - 8*a*b**3 - 8*a*b + 2*b**5 + 4*b**3 + 2*b) + ((-a**2 '
        '+ a + b**2)/(2*a**2*b - 4*a*b + 2*b**3 + 2*b))*n)*s[n] + ((-a**2 + 2*a + b**2 '
        '- 1)/(2*a**4*b - 8*a**3*b + 4*a**2*b**3 + 12*a**2*b - 8*a*b**3 - 8*a*b + '
        '2*b**5 + 4*b**3 + 2*b) + ((a - 1)/(2*a**2*b - 4*a*b + 2*b**3 + '
        '2*b))*n)*s[n+1] where s[k+1] = (2*a)*s[k] + (-a**2 - b**2)*s[k-1], s[0] = 2, '
        's[1] = 2*a'
    )
