"""Tests for exact parameter expressions and exponential-polynomial closed forms."""

import json
import operator
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import probsens.polys as polys
import probsens.symbolic as symbolic
from probsens.errors import SingularParameterError
from probsens.normalize import normalize
from probsens.parser import parse, parse_monomial
from probsens.sensitivity import parameter_sensitivity
from probsens.symbolic import (
    ExpPolynomial,
    ParamExpr,
    ep_add,
    ep_diff,
    ep_eval,
    ep_make,
    ep_scale,
    ep_value_symbolic,
    pe,
    render_exp_polynomial,
)

from sympy_views import as_expr, from_expr

P = ParamExpr("p")
Q = ParamExpr("q")
D = ParamExpr("d")
VP = ParamExpr("vp")
A = ParamExpr("a")


# ---------------------------------------------------------------------------
# ParamExpr
# ---------------------------------------------------------------------------


def test_basic_arithmetic_normalizes():
    half = ParamExpr(Fraction(1, 2))
    assert (P + P**2) * half == P * half + P**2 * half
    assert A / A == ParamExpr(1)
    assert (D - D * VP) - D * (ParamExpr(1) - VP) == ParamExpr(0)


def test_construction_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        ParamExpr(0.5)
    with pytest.raises(TypeError):
        ParamExpr(True)


def test_diff():
    f = (P + P**2) / 2
    assert f.diff("p") == (ParamExpr(1) + 2 * P) / 2
    assert f.diff("q").is_zero


def test_division_by_identically_zero_raises():
    with pytest.raises(ZeroDivisionError):
        P / (A - A)


def test_eval_fraction():
    f = (P + P**2) / 2
    assert f.eval_fraction({"p": Fraction(1, 3)}) == Fraction(2, 9)
    with pytest.raises(ValueError, match="unassigned"):
        f.eval_fraction({})


def test_eval_fraction_singular_denominator_is_named():
    # 1 / (d*vp - d + 1) vanishes when d = 1, vp = 0
    f = ParamExpr(1) / (D * VP - D + 1)
    with pytest.raises(SingularParameterError) as exc:
        f.eval_fraction({"d": Fraction(1), "vp": Fraction(0)})
    msg = str(exc.value)
    assert "d" in msg and "vp" in msg


def test_free_params_and_rational():
    assert (P * D).free_params() == frozenset({"p", "d"})
    assert ParamExpr(Fraction(3, 4)).is_rational
    assert ParamExpr(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    assert not P.is_rational


# ---------------------------------------------------------------------------
# Constants behave as the Fraction they hold
# ---------------------------------------------------------------------------

big_fractions = st.builds(
    Fraction,
    st.one_of(st.just(0), st.integers(-(10**30), 10**30)),
    st.integers(1, 10**12),
)


def assert_is_fraction(got: ParamExpr, want: Fraction) -> None:
    assert got.gens == ()
    assert (got.num, got.den) == (want.numerator, want.denominator)
    assert got == want and want == got and hash(got) == hash(want)
    assert str(got) == str(want)
    assert bool(got) == bool(want)


@given(big_fractions, big_fractions, st.integers(-3, 5))
@example(Fraction(0), Fraction(0), -1)
@example(Fraction(-7, 12), Fraction(7, 12), 0)
@settings(max_examples=300, deadline=None)
def test_constants_behave_as_fraction(a, b, k):
    x, y = ParamExpr(a), ParamExpr(b)
    assert_is_fraction(x, a)
    assert_is_fraction(x + y, a + b)
    assert_is_fraction(x - y, a - b)
    assert_is_fraction(x * y, a * b)
    assert_is_fraction(-x, -a)
    if b:
        assert_is_fraction(x / y, a / b)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    if a or k >= 0:
        assert_is_fraction(x**k, a**k)
    else:
        with pytest.raises(ZeroDivisionError):
            x**k


def test_constants_meet_ints():
    assert ParamExpr(3) == 3 and 3 == ParamExpr(3)
    assert {ParamExpr(3): 1}[3] == 1
    assert {3: 1}[ParamExpr(3)] == 1
    assert {Fraction(1, 2): 1}[ParamExpr(Fraction(1, 2))] == 1
    assert ParamExpr(3) != ParamExpr("p") and ParamExpr(0) != 1


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)


@st.composite
def param_exprs(draw):
    """Small random expressions over two parameters."""
    depth = draw(st.integers(0, 2))

    def build(d):
        if d == 0:
            return draw(
                st.one_of(
                    rationals.map(ParamExpr),
                    st.sampled_from([P, D]),
                )
            )
        op = draw(st.sampled_from(["+", "-", "*"]))
        lhs, rhs = build(d - 1), build(d - 1)
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        return lhs * rhs

    return build(depth)


@given(param_exprs(), param_exprs(), param_exprs())
@settings(max_examples=150, deadline=None)
def test_field_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x - x == ParamExpr(0)


@given(param_exprs(), rationals, rationals)
@settings(max_examples=100, deadline=None)
def test_eval_is_a_homomorphism(x, pv, dv):
    sigma = {"p": pv, "d": dv}
    assert (x + x).eval_fraction(sigma) == 2 * x.eval_fraction(sigma)
    assert (x * x).eval_fraction(sigma) == x.eval_fraction(sigma) ** 2


# ---------------------------------------------------------------------------
# ParamExpr against sympy's cancelled form, across parameter fields
# ---------------------------------------------------------------------------

SYMS = {"p": sp.Symbol("p"), "q": sp.Symbol("q")}


def cancelled(e: sp.Expr) -> sp.Expr:
    return sp.cancel(sp.together(e))


@st.composite
def paired_fractions(draw):
    """A random rational function over one of {}, {p}, {q}, {p, q}, built
    twice: as a ParamExpr and as a plain sympy expression."""
    names = draw(st.sampled_from([(), ("p",), ("q",), ("p", "q")]))
    leaves = [rationals.map(lambda r: (ParamExpr(r), sp.Rational(r.numerator, r.denominator)))]
    if names:
        leaves.append(st.sampled_from([(ParamExpr(n), SYMS[n]) for n in names]))
    leaf = st.one_of(*leaves)

    def build(depth):
        if depth == 0:
            return draw(leaf)
        (x, ex), (y, ey) = build(depth - 1), build(depth - 1)
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        if op == "+":
            return x + y, ex + ey
        if op == "-":
            return x - y, ex - ey
        if op == "*":
            return x * y, ex * ey
        if y.is_zero:
            return x, ex
        return x / y, ex / ey

    return build(draw(st.integers(0, 3)))


def assert_same(got: ParamExpr, expr: sp.Expr) -> None:
    want = cancelled(expr)
    assert got == from_expr(want)
    assert str(got) == str(want)


@given(paired_fractions(), paired_fractions(), st.integers(-3, 3))
@settings(max_examples=120, deadline=None)
def test_arithmetic_matches_sympy_cancel(a, b, k):
    (x, ex), (y, ey) = a, b
    assert_same(x, ex)
    assert_same(from_expr(ex), ex)
    assert_same(x + y, ex + ey)
    assert_same(x - y, ex - ey)
    assert_same(x * y, ex * ey)
    if y.is_zero:
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert_same(x / y, ex / ey)
    if k < 0 and x.is_zero:
        with pytest.raises(ZeroDivisionError):
            x**k
    else:
        assert_same(x**k, ex**k)
    assert hash(x + y) == hash(y + x)


@given(paired_fractions(), rationals, rationals)
@settings(max_examples=120, deadline=None)
def test_diff_and_eval_match_sympy(a, pv, qv):
    x, ex = a
    for name, sym in SYMS.items():
        assert_same(x.diff(name), sp.diff(ex, sym))
    num, den = cancelled(ex).as_numer_denom()
    point = {SYMS["p"]: sp.Rational(pv.numerator, pv.denominator),
             SYMS["q"]: sp.Rational(qv.numerator, qv.denominator)}
    if den.subs(point) == 0:
        with pytest.raises(SingularParameterError):
            x.eval_fraction({"p": pv, "q": qv})
    else:
        want = num.subs(point) / den.subs(point)
        assert x.eval_fraction({"p": pv, "q": qv}) == Fraction(int(want.p), int(want.q))


def test_equal_values_hash_equal_across_fields():
    q = ParamExpr("q")
    assert P / P == ParamExpr(1) and hash(P / P) == hash(ParamExpr(1))
    assert P - P == ParamExpr(0) and hash(P - P) == hash(ParamExpr(0))
    p_in_pq = P * q / q  # p, held in the field over {p, q}
    assert p_in_pq == P and hash(p_in_pq) == hash(P)
    table = {ParamExpr(1): "one", P: "p", P + 1: "p + 1"}
    assert table[P / P] == "one"
    assert table[p_in_pq] == "p"
    assert table[(P * q + q) / q] == "p + 1"
    assert p_in_pq.free_params() == frozenset({"p"})


def test_division_by_difference_to_zero_raises():
    with pytest.raises(ZeroDivisionError):
        P / (P - P)
    with pytest.raises(ZeroDivisionError):
        1 / (P - P)


def test_singular_point_and_missing_parameter():
    f = 1 / (P - 1)
    with pytest.raises(SingularParameterError):
        f.eval_fraction({"p": Fraction(1)})
    assert f.eval_fraction({"p": Fraction(3)}) == Fraction(1, 2)
    with pytest.raises(ValueError, match=r"^unassigned parameter\(s\): p$"):
        (f * ParamExpr("q")).eval_fraction({"q": Fraction(1)})
    with pytest.raises(ValueError, match=r"^unassigned parameter\(s\): p, q$"):
        (P * ParamExpr("q") + 1).eval_fraction({})


# ---------------------------------------------------------------------------
# Sums and products that need no polynomial gcd
# ---------------------------------------------------------------------------

OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


@st.composite
def gcd_free_operands(draw):
    """A polynomial with integer coefficients over {p}, {p, q} or {a, p},
    an integer, a rational, or a fraction whose denominator may carry an
    integer content (p/2, (p + 1)/(2*q + 2))."""
    names = draw(st.sampled_from([("p",), ("p", "q"), ("a", "p")]))
    gens = [ParamExpr(n) for n in names]

    def polynomial():
        acc = ParamExpr(0)
        for _ in range(draw(st.integers(0, 3))):
            term = ParamExpr(draw(st.integers(-4, 4)))
            for g in gens:
                term = term * g ** draw(st.integers(0, 2))
            acc = acc + term
        return acc

    kind = draw(st.sampled_from(["polynomial", "integer", "rational", "fraction"]))
    if kind == "integer":
        return ParamExpr(draw(st.integers(-6, 6)))
    if kind == "rational":
        return ParamExpr(Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 6))))
    if kind == "fraction":
        den = polynomial() * draw(st.integers(1, 6))
        return polynomial() / (den if not den.is_zero else ParamExpr(draw(st.integers(2, 6))))
    return polynomial()


def _has_denominator_one(v: ParamExpr) -> bool:
    return polys.is_one(v.den) if v.gens else v.den == 1


def _pair(v: ParamExpr):
    return (v.gens, dict(v.num), dict(v.den)) if v.gens else (None, v.as_fraction(), None)


def _sympy_result(x: ParamExpr, y: ParamExpr, op):
    """``op`` on sympy's field elements over both operands' parameters, as
    sympy computes and cancels it, in the form of ``_pair``."""
    gens = symbolic.common_gens([x, y])
    domain = symbolic.sympy_domain(gens)
    f = op(symbolic.to_sympy(x, domain, gens), symbolic.to_sympy(y, domain, gens))
    if not gens:
        return None, Fraction(int(f.numerator), int(f.denominator)), None
    if f.numer.is_ground and f.denom.is_ground:
        return None, Fraction(int(f.numer.LC), int(f.denom.LC)), None
    return gens, *({m: int(c) for m, c in p.items()} for p in (f.numer, f.denom))


@given(gcd_free_operands(), gcd_free_operands(), st.sampled_from(sorted(OPERATIONS)))
@settings(max_examples=300, deadline=None)
def test_gcd_free_results_match_sympy(x, y, name):
    # Nothing but integers can cancel when both denominators are 1 or one
    # operand is a constant, so no polynomial gcd runs.
    op = OPERATIONS[name]
    gcd_free = (_has_denominator_one(x) and _has_denominator_one(y)) or x.is_rational or y.is_rational
    if gcd_free:
        with mock.patch.object(polys, "cofactors", side_effect=AssertionError("cancelled")):
            got = op(x, y)
    else:
        got = op(x, y)
    gens, num, den = _sympy_result(x, y, op)
    want = ParamExpr(num) if gens is None else symbolic.cancel(polys.Poly(num), polys.Poly(den), gens)
    assert _pair(got) == (gens, num, den)
    assert got == want and hash(got) == hash(want)
    assert str(got) == str(want) == str(as_expr(got))


@pytest.mark.parametrize(
    "value, want",
    [
        ((1 - P) + P, ParamExpr(1)),
        (P - P, ParamExpr(0)),
        ((P + Q) * 0, ParamExpr(0)),
        ((P - 1) * (P + 1) - P**2, ParamExpr(-1)),
        (2 * (P / 2), P),
        (3 * ((P + 1) / (2 * Q + 2)), (3 * P + 3) / (2 * Q + 2)),
        (4 * ((P + 1) / (2 * Q + 2)), (2 * P + 2) / (Q + 1)),
        (-1 - 1 / P, (-P - 1) / P),
    ],
)
def test_gcd_free_results_are_reduced(value, want):
    assert _pair(value) == _pair(want)
    assert str(value) == str(as_expr(value))
    if not value.free_params():
        assert value.gens == ()


# ---------------------------------------------------------------------------
# Printing: str(v) is built from v's terms and must equal str(as_expr(v))
# ---------------------------------------------------------------------------

# name orders: {a, p} and {x, b, p} differ from sympy's generator order, and
# p10 sorts before p2 as a string
NAME_SETS = [("p",), ("a", "p"), ("x", "b", "p"), ("p1", "p2", "p10")]


@st.composite
def printed_fractions(draw):
    """A reduced fraction over one of NAME_SETS with a constant or a
    non-constant denominator."""
    names = draw(st.sampled_from(NAME_SETS))
    gens = [ParamExpr(n) for n in names]
    coeffs = st.one_of(st.sampled_from([1, -1, 2, -2, 3]), st.integers(-60, 60))

    def polynomial():
        acc = ParamExpr(0)
        for _ in range(draw(st.integers(1, 4))):
            term = ParamExpr(draw(coeffs))
            for g in gens:
                term = term * g ** draw(st.integers(0, 3))
            acc = acc + term
        return acc

    num = polynomial()
    if draw(st.booleans()):
        den = ParamExpr(draw(st.integers(1, 12)))
    else:
        den = polynomial()
    return num if den.is_zero else num / den


@given(printed_fractions())
@settings(max_examples=300, deadline=None)
def test_printing_matches_sympy(v):
    for w in (v, -v, v / 2, v + 1, v - Fraction(1, 3)):
        assert str(w) == str(as_expr(w))
    if not v.is_zero:
        assert str(1 / v) == str(as_expr(1 / v))


@pytest.mark.parametrize(
    "value, text",
    [
        (1 - P, "1 - p"),
        (1 - P * Q, "-p*q + 1"),
        ((1 - P) / 2, "1/2 - p/2"),
        ((P + 1) / 2, "p/2 + 1/2"),
        ((1 - P**2) / Q, "(1 - p**2)/q"),
        ((-P - 1) / Q, "(-p - 1)/q"),
        (2 * P / (3 * Q + 3), "2*p/(3*q + 3)"),
        ((P + 1) / (2 * Q), "(p + 1)/(2*q)"),
        (1 / P**2, "p**(-2)"),
        (-1 / P**2, "-1/p**2"),
        (1 / (2 * P**2), "1/(2*p**2)"),
        (ParamExpr(Fraction(-3, 4)), "-3/4"),
    ],
)
def test_printing_pinned(value, text):
    assert str(value) == text == str(as_expr(value))
    assert repr(value) == f"ParamExpr({text})"


CORPUS = Path(__file__).resolve().parent.parent / "src" / "probsens" / "benchmarks"


def _coefficients(result):
    """Every coefficient a report prints: the equations, the combination and
    the closed form."""
    system, closed = result.system, result.closed_form
    out = [c for terms in system.equations.values() for c, _ in terms]
    out += [c for c, _ in system.combination] + list(closed.prefix)
    for key, polys in closed.terms.items():
        out += [c for poly in polys for c in poly]
        out += list(key) if len(polys) == 2 else [key]
    return out


@pytest.mark.parametrize(
    "program, target, wrt, method",
    [
        ("vaccination.prob", "infected_prob", "vax_param", "diff"),
        ("bimodal.prob", "x**2", "p", "diff"),
        ("non_admissible_3.prob", "z1**2", "p", "sensrec"),
        ("gamblers_ruin.prob", "capital**2", "p", "sensrec"),
    ],
)
def test_printing_matches_sympy_on_manifest_rows(program, target, wrt, method):
    rows = json.loads((CORPUS / "manifest.json").read_text())["rows"]
    assert (program, target, wrt, method) in {
        (r["program"], r["target"], r["wrt"], r["method"]) for r in rows
    }
    prog = normalize(parse((CORPUS / program).read_text(), name=program))
    result = parameter_sensitivity(prog, parse_monomial(target), wrt, method=method)
    coefficients = _coefficients(result)
    assert any(not c.is_rational for c in coefficients)
    for c in coefficients:
        assert str(c) == str(as_expr(c))


# ---------------------------------------------------------------------------
# Exponential polynomials: the term map, evaluation, combination
# ---------------------------------------------------------------------------


def _n(*coeffs) -> list:
    """A polynomial in n from its coefficients, lowest degree first."""
    return [pe(c) for c in coeffs]


def test_term_map_trims_evaluates_differentiates_and_adds():
    one, two = pe(1), pe(2)
    pair = (one, one)
    f = ep_make((), {pair: (_n(0), _n(1, 0)), two: (_n(1, P, Fraction(1, 2), 0, 0),), P: (_n(0, 0),)})
    # 1 + p*n + n**2/2 times 2**n, then the pair: trailing zeros trimmed,
    # the zero term dropped, bases before pairs
    assert f.terms == {two: (tuple(_n(1, P, Fraction(1, 2))),), pair: ((), (one,))}
    assert list(f.terms) == [two, pair]
    lucas = [2, 1, 3, 4, 7]
    assert ep_eval(f, {"p": Fraction(2)}, 3) == (1 + 6 + Fraction(9, 2)) * 8 + lucas[4]
    assert ep_diff(f, "p").terms == {two: (tuple(_n(0, 1)),)}
    g = ep_make((), {P: (_n(1),)})  # p**n: its derivative brings down n/p
    assert ep_diff(g, "p").terms == {P: ((pe(0), 1 / P),)}
    assert ep_add(f, ep_scale(f, -1)).is_zero
    assert ep_add(f, ep_scale(f, -1)).terms == {}
    assert ep_add(g, f).terms == {P: ((one,),), **f.terms}


def _geo(base, coeff=1) -> ExpPolynomial:
    return ep_make((), {pe(base): (_n(coeff),)})


def test_ep_eval_exponential():
    f = _geo(Fraction(1, 2), coeff=3)  # 3 * (1/2)^n
    assert ep_eval(f, {}, 0) == 3
    assert ep_eval(f, {}, 5) == Fraction(3, 32)


def test_ep_eval_with_prefix():
    f = ep_make((pe(7), pe(9)), {pe(2): (_n(0, 1),)})  # n * 2^n from n=2
    assert ep_eval(f, {}, 0) == 7
    assert ep_eval(f, {}, 1) == 9
    assert ep_eval(f, {}, 2) == 8
    assert ep_eval(f, {}, 4) == 64


def test_ep_eval_quad_term_matches_root_power_sum():
    # s(n) for x^2 - x - 1 (beta=1, gamma=1) is the Lucas sequence
    f = ep_make((), {(pe(1), pe(1)): (_n(1), ())})
    lucas = [2, 1, 3, 4, 7, 11, 18, 29]
    for n, want in enumerate(lucas):
        assert ep_eval(f, {}, n) == want


def test_ep_add_aligns_prefixes():
    f = ep_make((pe(1),), {pe(2): (_n(1),)})
    g = _geo(3)
    h = ep_add(f, g)
    for n in range(6):
        assert ep_eval(h, {}, n) == ep_eval(f, {}, n) + ep_eval(g, {}, n)


def test_ep_add_merges_equal_bases():
    h = ep_add(_geo(2), _geo(2, coeff=4))
    assert len(h.terms) == 1
    assert ep_eval(h, {}, 3) == 40


def test_ep_scale_and_zero():
    f = _geo(5)
    assert ep_scale(f, pe(0)).is_zero
    g = ep_scale(f, P)
    assert ep_eval(g, {"p": Fraction(2, 3)}, 2) == Fraction(50, 3)


def test_adding_a_zero_prefix_preserves_values():
    f = _geo(Fraction(2, 3))
    g = ep_add(f, ExpPolynomial(prefix=(pe(0),) * 3))
    assert g.start == 3
    for n in range(8):
        assert ep_eval(g, {}, n) == ep_eval(f, {}, n)


def test_ep_value_symbolic():
    f = ep_make((), {pe(2): ([P**2],)})
    assert ep_value_symbolic(f, 3) == 8 * P**2


def _random_coeff(rng: random.Random) -> ParamExpr:
    c = pe(rng.randint(-3, 3)) + pe(rng.randint(-2, 2)) * P + pe(rng.randint(-1, 1)) * P * Q
    return c / (P + rng.randint(1, 3)) if rng.random() < 0.3 else c


def _random_counter_poly(rng: random.Random) -> list:
    return [_random_coeff(rng) for _ in range(rng.randint(1, 3))]


def _random_closed_form(rng: random.Random) -> ExpPolynomial:
    prefix = tuple(_random_coeff(rng) for _ in range(rng.randint(0, 3)))
    terms = {}
    for _ in range(rng.randint(0, 3)):
        base = pe(Fraction(rng.randint(1, 4), rng.randint(1, 3))) + P * rng.randint(0, 1)
        terms[base] = (_random_counter_poly(rng),)
    for _ in range(rng.randint(0, 2)):
        p_poly, q_poly = _random_counter_poly(rng), _random_counter_poly(rng)
        shape = rng.choice(["p", "q", "both"])
        pair = (P + rng.randint(-2, 2), pe(rng.randint(1, 3)) + Q)
        terms[pair] = (p_poly if shape != "q" else [], q_poly if shape != "p" else [])
    return ep_make(prefix, terms)


@pytest.mark.parametrize("seed", range(12))
def test_ep_eval_agrees_with_ep_value_symbolic(seed):
    rng = random.Random(seed)
    f = _random_closed_form(rng)
    values = {"p": Fraction(rng.randint(1, 9), 10), "q": Fraction(rng.randint(-5, 5), 7)}
    for n in range(11):
        assert ep_eval(f, values, n) == ep_value_symbolic(f, n).eval_fraction(values), (seed, n)


def test_ep_eval_names_the_first_unassigned_coefficient():
    f = ep_make((), {pe(1): ([Q, P],)})  # q + p*n
    with pytest.raises(ValueError, match=r"^unassigned parameter\(s\): q$"):
        ep_eval(f, {}, 3)


# ---------------------------------------------------------------------------
# Differentiation with respect to a parameter
# ---------------------------------------------------------------------------


def test_ep_diff_simple_coefficient():
    # d/dp [p^2 * 2^n] = 2p * 2^n
    f = ep_make((), {pe(2): ([P**2],)})
    g = ep_diff(f, "p")
    assert g.terms == {ParamExpr(2): ((2 * P,),)}  # one term, and no pair


def test_ep_diff_base_brings_down_n():
    # d/dp [p^n] = n * p^(n-1) = (n/p) * p^n
    f = _geo(P)
    g = ep_diff(f, "p")
    for n in range(1, 7):
        got = ep_eval(g, {"p": Fraction(1, 3)}, n)
        want = n * Fraction(1, 3) ** (n - 1)
        assert got == want


def test_ep_diff_parameter_free_is_zero():
    f = ep_make((pe(1),), {pe(3): (_n(1, 2),)})
    assert ep_diff(f, "p").is_zero


def _fd_check(f: ExpPolynomial, param: str, sigma_base: dict, ns=range(0, 8)):
    """Compare ep_diff against an exact-rational central difference."""
    g = ep_diff(f, param)
    eps = Fraction(1, 10**6)
    for n in ns:
        hi = dict(sigma_base)
        lo = dict(sigma_base)
        hi[param] = sigma_base[param] + eps
        lo[param] = sigma_base[param] - eps
        fd = (ep_eval(f, hi, n) - ep_eval(f, lo, n)) / (2 * eps)
        sym = ep_eval(g, sigma_base, n)
        tol = Fraction(1, 10**6) * (1 + abs(sym))
        assert abs(fd - sym) <= tol, (n, float(fd), float(sym))


def test_ep_diff_matches_finite_differences_exp_terms():
    f = ep_make((P * P,), {P + 1: ([pe(1), P],), pe(Fraction(1, 2)): ([P**2],)})
    _fd_check(f, "p", {"p": Fraction(2, 5)})


def test_ep_diff_matches_finite_differences_quad_terms():
    # beta and gamma both depend on p
    f = ep_make((), {(P, P + 1): ([pe(1), P], [P])})
    _fd_check(f, "p", {"p": Fraction(1, 3)})


def test_ep_diff_matches_finite_differences_quad_gamma_only():
    # beta parameter-free, gamma depends on p
    f = ep_make((), {(pe(1), P): (_n(1), ())})
    _fd_check(f, "p", {"p": Fraction(3, 7)})


def test_ep_diff_matches_finite_differences_mixed():
    f = ep_make((pe(0), P), {2 * P: ([P],), (P + 1, P): ([P**2], _n(1))})
    _fd_check(f, "p", {"p": Fraction(2, 7)})


def test_ep_diff_linearity():
    f = _geo(P)
    g = ep_make((), {(P, pe(1)): ([P], ())})
    lhs = ep_diff(ep_add(f, g), "p")
    rhs = ep_add(ep_diff(f, "p"), ep_diff(g, "p"))
    for n in range(8):
        assert ep_eval(lhs, {"p": Fraction(1, 4)}, n) == ep_eval(rhs, {"p": Fraction(1, 4)}, n)


def test_ep_diff_prefix_is_differentiated():
    f = ep_make((P**3,), {pe(2): (_n(1),)})
    g = ep_diff(f, "p")
    assert ep_eval(g, {"p": Fraction(2)}, 0) == 12
    assert ep_eval(g, {"p": Fraction(2)}, 1) == 0


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_render_mentions_prefix_and_terms():
    f = ep_make((pe(0),), {pe(2): ([P],)})
    text = render_exp_polynomial(f)
    assert "2**n" in text
    assert "0" in text


def test_render_quad_describes_recurrence():
    f = ep_make((), {(pe(1), pe(1)): (_n(1), ())})
    text = render_exp_polynomial(f)
    assert "s[n]" in text
    assert "s[0] = 2" in text
