"""Tests for the linear-recurrence solver: characteristic-polynomial factoring,
closed-form construction, and exact agreement with forward iteration."""

import json
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import QQ

import probsens.solver as solver
from probsens.errors import SeedSystemError, UnsupportedFactorError
from probsens.moments import MomentContext
from probsens.normalize import normalize
from probsens.parser import parse, parse_monomial
from probsens.sensitivity import sensitivity_system
from probsens.solver import ForwardIterator, factor_charpoly, solve_system
from probsens.symbolic import (
    ExpPolynomial,
    ParamExpr,
    ep_diff,
    ep_eval,
    ep_make,
    ep_value_symbolic,
    exp_polynomial_to_json,
    from_sympy,
    pe,
    render_exp_polynomial,
    sympy_domain,
)
from probsens.polys import gens_of

CORPUS = Path(solver.__file__).parent / "benchmarks"


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
    gens = gens_of(["d", "vp"])
    domain = sympy_domain(gens)
    d, vp = domain.field.gens
    lam = d - d * vp
    # (x - 1) * (x - lam), leading coefficient first
    factors = factor_charpoly([domain.one, -(1 + lam), lam], domain)
    assert len(factors) == 2
    assert all(m == 1 and len(f) == 2 for f, m in factors)
    roots = [from_sympy(-f[1] / f[0], domain, gens) for f, _ in factors]
    assert any(r == pe(1) for r in roots)
    assert any(r == pe("d") - pe("d") * pe("vp") for r in roots)
    # x**2 - 3*x + 2 over the rationals
    assert len(factor_charpoly([QQ(1), QQ(-3), QQ(2)], QQ)) == 2


def test_factor_repeated_root():
    factors = factor_charpoly([QQ(1), QQ(0), QQ(0), QQ(0)], QQ)  # x**3
    assert factors == [([QQ(1), QQ(0)], 3)]


def test_factor_irreducible_quadratic():
    factors = factor_charpoly([QQ(1), QQ(0), QQ(-2)], QQ)  # x**2 - 2
    assert len(factors) == 1
    fac, mult = factors[0]
    assert mult == 1 and len(fac) - 1 == 2


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
    assert any(len(polys) == 2 for polys in solved["u"].terms.values())


def test_unsupported_cubic_factor():
    # Companion of x**3 - 2, irreducible over the rationals.
    eqs = {"a": [(pe(1), "b")], "b": [(pe(1), "c")], "c": [(pe(2), "a")]}
    init = {"a": pe(1), "b": pe(0), "c": pe(0)}
    with pytest.raises(UnsupportedFactorError) as exc:
        solve_system(eqs, init)
    assert exc.value.factor == "x**3 - 2"
    assert str(exc.value).endswith(": x**3 - 2")


def test_open_system_rejected():
    eqs = {"u": [(pe(1), "ghost")]}
    with pytest.raises(ValueError, match="not closed"):
        solve_system(eqs, {"u": pe(0)})


def test_missing_initial_rejected():
    eqs = {"u": [(pe(1), "u")]}
    with pytest.raises(ValueError):
        solve_system(eqs, {})


def test_blocks_come_dependencies_first():
    eqs = {
        "a": [(pe(1), "b")],
        "b": [(pe(1), "c"), (pe(1), "d")],
        "c": [(pe(1), "b")],
        "d": [],
    }
    assert solver._sccs(eqs) == [["d"], ["c", "b"], ["a"]]


@given(st.integers(1, 9).flatmap(
    lambda size: st.lists(st.lists(st.integers(0, size - 1), max_size=4), min_size=size, max_size=size)
))
@settings(max_examples=300, deadline=None)
def test_blocks_match_sympys_components(successors):
    # same blocks, same block order and same member order as sympy's
    # Tarjan, which the solver used before it had its own
    from sympy.utilities.iterables import strongly_connected_components

    eqs = {f"s{i}": [(pe(1), f"s{j}") for j in succ] for i, succ in enumerate(successors)}
    edges = [(s, t) for s, terms in eqs.items() for _, t in terms]
    want = [comp[::-1] for comp in strongly_connected_components((list(eqs), edges))]
    assert solver._sccs(eqs) == want


def test_closed_forms_of_a_forced_chain_match_iteration():
    eqs = {
        "u": [(pe(2), "u"), (pe(1), "v")],
        "v": [(pe(1), "v"), (pe(1), "one")],
        "one": [(pe(1), "one")],
    }
    init = {"u": pe(0), "v": pe(1), "one": pe(1)}
    solved = solve_system(eqs, init)
    rows = iterate(eqs, init, 16)
    for s in eqs:
        for n in range(13):
            assert ep_value_symbolic(solved[s], n) == rows[n][s]


# ---------------------------------------------------------------------------
# Randomized block-triangular systems, checked against brute force
# ---------------------------------------------------------------------------


def _random_system(rng: random.Random, size: int, scales=None):
    """A block-triangular system with blocks of one or two symbols and
    small integer coefficients, each multiplied by one of ``scales``
    (expression texts) if given."""
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
        terms = [(_scaled(a[r][c], rng, scales), names[c]) for c in range(size) if a[r][c] != 0]
        eqs[names[r]] = terms or [(pe(0), names[r])]
    init = {nm: pe(rng.randint(-4, 4)) for nm in names}
    return eqs, init


#: Coefficient scales whose sums run over several denominators, some
#: dividing others, and over a numerator that is not 1.
_DENOMINATOR_SCALES = ["1/(1 + a)", "1/(1 + a)**2", "1/((1 + a)*(a - b))", "a/(a + b)", "1/b"]


def _scaled(k: int, rng: random.Random, scales) -> ParamExpr:
    return pe(k) * expr(rng.choice(scales)) if scales else pe(k)


@pytest.mark.parametrize(
    "seed, scales",
    [
        *(pytest.param(seed, None, id=str(seed)) for seed in (20260816, 7, 99)),
        pytest.param(20260816, _DENOMINATOR_SCALES, id="denominators"),
    ],
)
def test_random_systems_match_iteration(seed, scales):
    rng = random.Random(seed)
    for _ in range(12):
        size = rng.randint(1, 5)
        eqs, init = _random_system(rng, size, scales)
        try:
            solved = solve_system(eqs, init)
        except UnsupportedFactorError:
            continue  # a 2x2 block coupled below the diagonal can go cubic+
        if scales:
            # exact values at a point: comparing all 12 systems symbolically
            # to n = 12 takes about 8 s on a 2-core machine, three quarters
            # of it one four-symbol system's polynomial products and exact
            # divisions; the first system is compared symbolically in
            # test_symbolic_values_over_two_parameters_match_iteration
            point = {"a": Fraction(2, 7), "b": Fraction(3, 11)}
            rows = ForwardIterator(eqs, init, point).rows(12)
            values = [{s: ep_eval(solved[s], point, n) for s in eqs} for n in range(13)]
        else:
            rows = iterate(eqs, init, 30)
            values = [{s: ep_value_symbolic(solved[s], n) for s in eqs} for n in range(31)]
        for s in eqs:
            for n, row in enumerate(rows):
                assert values[n][s] == row[s], (s, n)


def test_symbolic_values_over_two_parameters_match_iteration():
    # s2 of the first "denominators" system (blocks of 1, 1, 2 and 1 symbols
    # over Q(a, b)): from n = 9 on, its values once stalled the gcd
    rng = random.Random(20260816)
    eqs, init = _random_system(rng, rng.randint(1, 5), _DENOMINATOR_SCALES)
    solved = solve_system(eqs, init)
    rows = ForwardIterator(eqs, init).rows(12)
    for n in (9, 10, 12):
        assert ep_value_symbolic(solved["s2"], n) == rows[n]["s2"], n


def test_two_parametric_eigenvalues_in_one_block():
    # u' = (1-a)u + a v, v' = u: characteristic polynomial (x - 1)(x + a).
    # The factors are ordered by the sympy sort key of x - 1 and x + a, so
    # the (-a)**n term comes first.
    a = pe("a")
    eqs = {"u": [(1 - a, "u"), (a, "v")], "v": [(pe(1), "u")]}
    init = {"u": pe(1), "v": pe(0)}
    solved = solve_system(eqs, init)
    rows = iterate(eqs, init, 12)
    for s in eqs:
        assert [str(base) for base in solved[s].terms] == ["-a", "1"]
        for n in range(13):
            assert ep_value_symbolic(solved[s], n) == rows[n][s], (s, n)
    assert render_exp_polynomial(solved["u"]) == "(a/(a + 1))*(-a)**n + 1/(a + 1)"
    assert render_exp_polynomial(solved["v"]) == "(-1/(a + 1))*(-a)**n + 1/(a + 1)"


def test_solving_builds_no_sympy_polynomial_expressions(monkeypatch):
    # Factoring runs on dense lists over the system's field, so the solver
    # needs none of sympy's expression-level polynomial entry points.
    def forbidden(*args, **kwargs):
        raise AssertionError("the solver called a sympy expression routine")

    for name in ("factor_list", "Poly", "together"):
        monkeypatch.setattr(sp, name, forbidden)
    eqs, init = _forced_rotation()
    solved = solve_system(eqs, init)
    rows = iterate(eqs, init, 8)
    for n in range(9):
        assert ep_value_symbolic(solved["w"], n) == rows[n]["w"]
    for seed in range(1, 21):  # the first systems of acceptance criterion 10
        rng = random.Random(seed)
        eqs, init = _random_system(rng, rng.randint(1, 5))
        try:
            solved = solve_system(eqs, init)
        except UnsupportedFactorError:
            continue
        rows = iterate(eqs, init, 12)
        for s in eqs:
            for n in range(13):
                assert ep_value_symbolic(solved[s], n) == rows[n][s], (seed, s, n)


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


def _forced_rotation():
    """Two rotations by (a, b): characteristic polynomial
    x**2 - 2*a*x + a**2 + b**2, irreducible over Q(a, b).  u is forced by a
    constant, w by u, so w's pair has multiplicity 2."""
    a, b = pe("a"), pe("b")
    eqs = {
        "u": [(a, "u"), (-b, "v"), (pe(1), "one")],
        "v": [(b, "u"), (a, "v")],
        "w": [(a, "w"), (-b, "x"), (pe(1), "u")],
        "x": [(b, "w"), (a, "x")],
        "one": [(pe(1), "one")],
    }
    init = {"u": pe(1), "v": pe(0), "w": pe(0), "x": pe(1), "one": pe(1)}
    return eqs, init


def test_forced_rotation_renders_conjugate_pairs_exactly():
    # The strings pin the text of the quad path.
    solved = solve_system(*_forced_rotation())
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


# ---------------------------------------------------------------------------
# The check of every solved block: residual identity and value at n0
# ---------------------------------------------------------------------------


def _nilpotent_pair():
    """u(n+1) = v(n), v(n+1) = 0: two nilpotent blocks, v's solved first."""
    return {"u": [(pe(1), "v")], "v": []}, {"u": pe(5), "v": pe(7)}


def _forced_one_symbol():
    """u(n+1) = a*u(n) + 1: the forcing base 1 differs from u's own a."""
    eqs = {"u": [(expr("a"), "u"), (pe(1), "one")], "one": [(pe(1), "one")]}
    return eqs, {"u": pe(2), "one": pe(1)}


def _resonant_one_symbol():
    """u(n+1) = u(n) + c*n + c: the forcing base is u's own 1, twice over."""
    eqs = {
        "u": [(pe(1), "u"), (expr("c"), "k"), (expr("c"), "one")],
        "k": [(pe(1), "k"), (pe(1), "one")],
        "one": [(pe(1), "one")],
    }
    return eqs, {"u": expr("u0"), "k": pe(0), "one": pe(1)}


def _zero_forced_one_symbol():
    """u(n+1) = 2*v(n) with v geometric: u's own coefficient is 0."""
    eqs = {"u": [(pe(2), "v")], "v": [(expr("a"), "v")]}
    return eqs, {"u": pe(5), "v": pe(1)}


def _rotation_forced_one_symbol():
    """w(n+1) = a*w(n) + x(n), with x in the rotation x' = x - y,
    y' = x + y (characteristic polynomial x**2 - 2*x + 2)."""
    eqs = {
        "w": [(expr("a"), "w"), (pe(1), "x")],
        "x": [(pe(1), "x"), (pe(-1), "y")],
        "y": [(pe(1), "x"), (pe(1), "y")],
    }
    return eqs, {"w": pe(0), "x": pe(1), "y": pe(0)}


def _chained_rotations():
    """w(n+1) = w(n)/2 + x3(n), forced through three chained rotations by
    (a, b): x_d(n+1) = a*x_d(n) - b*y_d(n) + x_(d-1)(n),
    y_d(n+1) = b*x_d(n) + a*y_d(n), with x0 constant.  The pair term has
    multiplicity 3 in x3, so w's residual sums fractions over several
    denominators, each smaller one a factor of a larger one."""
    a, b = expr("a"), expr("b")
    eqs = {"x0": [(pe(1), "x0")], "w": [(pe(Fraction(1, 2)), "w"), (pe(1), "x3")]}
    init = {"x0": pe(1), "w": pe(0)}
    for d in (1, 2, 3):
        eqs[f"x{d}"] = [(a, f"x{d}"), (-b, f"y{d}"), (pe(1), f"x{d - 1}")]
        eqs[f"y{d}"] = [(b, f"x{d}"), (a, f"y{d}")]
        init[f"x{d}"], init[f"y{d}"] = pe(1), pe(0)
    return eqs, init


CHECKED_SYSTEMS = {
    "rotation": _forced_rotation,
    "nilpotent": _nilpotent_pair,
    "forced": _forced_one_symbol,
    "resonant": _resonant_one_symbol,
    "zero-forced": _zero_forced_one_symbol,
    "rotation-forced": _rotation_forced_one_symbol,
    "chained-rotations": _chained_rotations,
}

#: The block each system is named after; its first symbol's closed form is
#: the one the tests spoil.
TARGETS = {"rotation": ("u", "v"), "rotation-forced": ("w",), "chained-rotations": ("w",)}


def _spoil_before_the_check(monkeypatch, target, spoil) -> None:
    """Replace the closed form of ``target`` by ``spoil`` of it just before
    its block is checked, on either solving path."""
    original = solver._check_block

    def spoiled(block, n0, matrix, forcing, closed, iterator):
        if target in block:
            closed = {**closed, target: spoil(closed[target])}
        return original(block, n0, matrix, forcing, closed, iterator)

    monkeypatch.setattr(solver, "_check_block", spoiled)


def _with_spurious_term(closed):
    # no system has the base 3
    return ep_make(closed.prefix, {**closed.terms, pe(3): ([pe(1)],)})


def _with_own_power_added(closed):
    first, *rest = closed.terms.items()
    base, (poly,) = first
    return ep_make(closed.prefix, dict([(base, ([poly[0] + 1, *poly[1:]],)), *rest]))


@pytest.mark.parametrize("system", CHECKED_SYSTEMS, ids=CHECKED_SYSTEMS.keys())
def test_a_wrong_closed_form_fails_verification(monkeypatch, system):
    block = TARGETS.get(system, ("u",))
    _spoil_before_the_check(monkeypatch, block[0], _with_spurious_term)
    with pytest.raises(SeedSystemError, match="fails verification: it does not satisfy") as exc:
        solve_system(*CHECKED_SYSTEMS[system]())
    # in a block of two, the other symbol's recurrence reads the spoilt one
    assert any(str(exc.value).startswith(f"closed form for {s!r} ") for s in block)


@pytest.mark.parametrize("system", ["forced", "resonant"])
def test_a_wrong_multiple_of_the_own_power_fails_at_n0(monkeypatch, system):
    # K*a**n solves the homogeneous recurrence, so adding a**n to u's own
    # term leaves the residual zero; only the value at n0 catches it.
    _spoil_before_the_check(monkeypatch, "u", _with_own_power_added)
    with pytest.raises(SeedSystemError, match="closed form for 'u' fails verification at n = 0"):
        solve_system(*CHECKED_SYSTEMS[system]())


def _record_checks(monkeypatch) -> dict:
    """Map each solved symbol to the n0 of its block, as the solver hands it
    to the check."""
    original = solver._check_block
    windows: dict = {}

    def recording(block, n0, *args):
        windows.update((s, n0) for s in block)
        return original(block, n0, *args)

    monkeypatch.setattr(solver, "_check_block", recording)
    return windows


@pytest.mark.parametrize("system", CHECKED_SYSTEMS.values(), ids=CHECKED_SYSTEMS.keys())
def test_every_symbol_is_verified_after_its_seed_window(monkeypatch, system):
    # one residual check and one value at n0 per symbol, on either path
    original_value, original_residual = solver.ep_value_symbolic, solver._residual
    indices = []
    residuals = []

    def counting(f, n):
        indices.append(n)
        return original_value(f, n)

    def recording(s, *args):
        residuals.append(s)
        return original_residual(s, *args)

    monkeypatch.setattr(solver, "ep_value_symbolic", counting)
    monkeypatch.setattr(solver, "_residual", recording)
    windows = _record_checks(monkeypatch)
    eqs, init = system()
    solve_system(eqs, init)
    assert sorted(residuals) == sorted(eqs)
    assert windows.keys() == eqs.keys()
    assert sorted(indices) == sorted(windows.values())


def test_nilpotent_blocks_are_prefixes_with_empty_seed_windows(monkeypatch):
    windows = _record_checks(monkeypatch)
    eqs, init = _nilpotent_pair()
    solved = solve_system(eqs, init)
    assert solved["v"] == ExpPolynomial(prefix=(pe(7),))
    assert solved["u"] == ExpPolynomial(prefix=(pe(5), pe(7)))
    assert windows == {"v": 1, "u": 2}


# ---------------------------------------------------------------------------
# One-symbol blocks: solved directly, the same as by the seed path
# ---------------------------------------------------------------------------


def _by_seeds(s, a, forcing, start, iterator):
    """A one-symbol block solved the way every larger block is: factored
    characteristic polynomial and seed system."""
    return solver._solve_by_seeds([s], {s: {s: a}}, {s: forcing}, start, iterator)


_SCALE = st.sampled_from(["1", "a", "b", "1/(1 + a)", "a/(a + b)", "a*b - 1/2"])
_COEFFICIENT = st.builds(
    lambda k, d, scale: pe(Fraction(k, d)) * expr(scale),
    st.integers(-3, 3),
    st.integers(1, 4),
    _SCALE,
)


@settings(max_examples=60, deadline=None)
@given(
    self_terms=st.lists(_COEFFICIENT, max_size=3),
    cancel=st.booleans(),
    forcing=st.sampled_from(["none", "same", "other", "pair"]),
    late=st.booleans(),
    start=_COEFFICIENT,
)
@example(self_terms=[pe(Fraction(1, 2))], cancel=False, forcing="same", late=False, start=pe(1))
def test_one_symbol_shortcut_matches_the_general_path(self_terms, cancel, forcing, late, start):
    # u(n+1) = (sum of self_terms) * u(n) + v(n).  v is geometric with
    # ratio u's own self-coefficient a ("same", which merges into an
    # n*a**n term) or another value, or is the rotation x' = x - y,
    # y' = x + y ("pair"), or is absent.  With ``late``, v is also forced by
    # a nilpotent w, so v and u start after a prefix.
    if cancel and self_terms:
        self_terms = [*self_terms, -sum(self_terms[1:], self_terms[0])]  # a == 0
    a = sum(self_terms, pe(0))
    eqs = {"u": [(c, "u") for c in self_terms]}
    init = {"u": start}
    if forcing == "pair":
        eqs["v"] = [(pe(1), "v"), (pe(-1), "y")]
        eqs["y"] = [(pe(1), "v"), (pe(1), "y")]
        init["y"] = pe(0)
    elif forcing != "none":
        eqs["v"] = [({"same": a, "other": a + 2}[forcing], "v")]
    if "v" in eqs:
        eqs["u"].append((pe(1), "v"))
        init["v"] = pe(1)
        if late:
            eqs["v"].append((pe(3), "w"))
            eqs["w"] = []
            init["w"] = pe(2)

    seeded = []
    original = solver._solve_seed_system

    def recording(seed_matrix, symbols, *args):
        seeded.extend(symbols)
        return original(seed_matrix, symbols, *args)

    with mock.patch.object(solver, "_solve_seed_system", recording):
        shortcut = solve_system(eqs, init)
        assert "u" not in seeded
        with mock.patch.object(solver, "_solve_one_symbol", _by_seeds):
            general = solve_system(eqs, init)
        assert "u" in seeded
    assert shortcut == general
    assert {s: render_exp_polynomial(f) for s, f in shortcut.items()} == {
        s: render_exp_polynomial(f) for s, f in general.items()
    }
    if "v" in eqs and late:
        assert shortcut["u"].start >= 1
    if forcing == "same" and not a.is_zero and not late:
        ((base, (poly,)),) = shortcut["u"].terms.items()
        assert base == a and len(poly) == 2  # (c0 + c1*n) * a**n
    if forcing == "pair":
        assert any(len(polys) == 2 for polys in shortcut["u"].terms.values())


def _bimodal_sensitivity_system():
    """d/dp E[x**2] of bimodal.prob: every block is one symbol."""
    name = "bimodal.prob"
    ctx = MomentContext(normalize(parse((CORPUS / name).read_text(), name=name)))
    system = sensitivity_system(ctx, parse_monomial("x**2"), "p")
    return system.equations, system.initials


def test_a_triangular_system_is_solved_without_factoring(monkeypatch):
    eqs, init = _bimodal_sensitivity_system()
    assert all(len(block) == 1 for block in solver._sccs(eqs))

    def forbidden(*args):
        raise AssertionError("a one-symbol block was factored")

    monkeypatch.setattr(solver, "factor_charpoly", forbidden)
    monkeypatch.setattr(solver, "_charpoly", forbidden)
    solved = solve_system(eqs, init)
    rows = iterate(eqs, init, 10)
    for s in eqs:
        for n in range(11):
            assert ep_value_symbolic(solved[s], n) == rows[n][s], (s, n)


def test_blocks_of_two_or_more_symbols_are_still_factored(monkeypatch):
    original = solver.factor_charpoly
    degrees = []

    def recording(coeffs, domain):
        degrees.append(len(coeffs) - 1)
        return original(coeffs, domain)

    monkeypatch.setattr(solver, "factor_charpoly", recording)
    solve_system(*_forced_rotation())  # blocks {one}, {u, v}, {w, x}
    assert degrees == [2, 2]


# ---------------------------------------------------------------------------
# Forward iteration over one common denominator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "coefficients, initials",
    [
        (["1/(1 + p)", "p/(1 + p)", "-p", "1/(2 - p)"], ["p/(2 + p)", "1", "-1/q"]),
        (["3/4", "p/6", "-2*q", "5"], ["1/3", "q/5", "-2"]),
        (["3/(4*(1 + p))", "p/3", "1/(p + 2)", "-7/10"], ["1/3", "1/(1 - p)", "p/4"]),
        (["3/4", "-5/6", "7/5", "-1"], ["1/3", "2", "-9/4"]),
    ],
    ids=["polynomial-denominators", "integer-denominators", "mixed", "parameter-free"],
)
def test_forward_iteration_matches_reduced_iteration(coefficients, initials):
    c0, c1, c2, c3 = (expr(c) for c in coefficients)
    # triangular, like the corpus systems, so that the values the reference
    # iteration reduces at every step stay small enough to test 30 steps
    eqs = {
        "u": [(c0, "u"), (c1, "v"), (c3, "w")],
        "v": [(c2, "v"), (c3, "w"), (c0, "v")],
        "w": [(pe(1), "w")],
    }
    init = dict(zip(eqs, (expr(v) for v in initials)))
    iterator = ForwardIterator(eqs, init)
    assert (iterator.gens == ()) == (coefficients[0] == "3/4" and coefficients[1] == "-5/6")
    rows = iterate(eqs, init, 30)

    def check(got, want):
        assert isinstance(got, ParamExpr)
        assert got == want and hash(got) == hash(want) and str(got) == str(want)

    for s in eqs:  # the last index first: values are handed out in any order
        check(iterator.value(s, 30), rows[30][s])
    for n in range(31):
        row = iterator.row(n)
        assert row.keys() == eqs.keys()
        for s in eqs:
            check(row[s], rows[n][s])
            check(iterator.value(s, n), rows[n][s])
    assert iterator.rows(30) == rows


def test_chained_rotations_match_iteration():
    eqs, init = _chained_rotations()
    solved = solve_system(eqs, init)
    point = {"a": Fraction(2, 7), "b": Fraction(3, 11)}
    rows = ForwardIterator(eqs, init, point).rows(10)
    for s in eqs:
        for n in range(11):
            assert ep_eval(solved[s], point, n) == rows[n][s], (s, n)
