"""Tests for exact parameter expressions and exponential-polynomial closed forms."""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from probsens.errors import SingularParameterError
from probsens.symbolic import (
    CounterPoly,
    ExpPolynomial,
    ExpTerm,
    ParamExpr,
    QuadTerm,
    ep_add,
    ep_diff,
    ep_eval,
    ep_extend_prefix,
    ep_scale,
    ep_value_symbolic,
    pe,
    render_exp_polynomial,
)

P = ParamExpr("p")
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
    assert got == ParamExpr(want)
    assert str(got) == str(want)


@given(paired_fractions(), paired_fractions(), st.integers(-3, 3))
@settings(max_examples=120, deadline=None)
def test_arithmetic_matches_sympy_cancel(a, b, k):
    (x, ex), (y, ey) = a, b
    assert_same(x, ex)
    assert_same(ParamExpr(ex), ex)
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
# CounterPoly
# ---------------------------------------------------------------------------


def test_counter_poly():
    f = CounterPoly.make([1, P, Fraction(1, 2)])  # 1 + p*n + n^2/2
    assert f.degree == 2
    assert f.eval_fraction(3, {"p": Fraction(2)}) == 1 + 6 + Fraction(9, 2)
    assert f.shift_up().degree == 3
    assert f.diff_param("p") == CounterPoly.make([0, 1])
    assert (f + f.scale(-1)).is_zero


# ---------------------------------------------------------------------------
# Exponential polynomials: evaluation, combination
# ---------------------------------------------------------------------------


def _geo(base, coeff=1) -> ExpPolynomial:
    return ExpPolynomial(terms=(ExpTerm(CounterPoly.const(coeff), pe(base)),))


def test_ep_eval_exponential():
    f = _geo(Fraction(1, 2), coeff=3)  # 3 * (1/2)^n
    assert ep_eval(f, {}, 0) == 3
    assert ep_eval(f, {}, 5) == Fraction(3, 32)


def test_ep_eval_with_prefix():
    f = ExpPolynomial(
        prefix=(pe(7), pe(9)),
        terms=(ExpTerm(CounterPoly.make([0, 1]), pe(2)),),  # n * 2^n from n=2
    )
    assert ep_eval(f, {}, 0) == 7
    assert ep_eval(f, {}, 1) == 9
    assert ep_eval(f, {}, 2) == 8
    assert ep_eval(f, {}, 4) == 64


def test_ep_eval_quad_term_matches_root_power_sum():
    # s(n) for x^2 - x - 1 (beta=1, gamma=1) is the Lucas sequence
    f = ExpPolynomial(quad_terms=(QuadTerm(CounterPoly.const(1), CounterPoly(()), pe(1), pe(1)),))
    lucas = [2, 1, 3, 4, 7, 11, 18, 29]
    for n, want in enumerate(lucas):
        assert ep_eval(f, {}, n) == want


def test_ep_add_aligns_prefixes():
    f = ExpPolynomial(prefix=(pe(1),), terms=(ExpTerm(CounterPoly.const(1), pe(2)),))
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


def test_ep_extend_prefix_preserves_values():
    f = _geo(Fraction(2, 3))
    g = ep_extend_prefix(f, 3)
    assert g.start == 3
    for n in range(8):
        assert ep_eval(g, {}, n) == ep_eval(f, {}, n)


def test_ep_value_symbolic():
    f = ExpPolynomial(terms=(ExpTerm(CounterPoly.const(P**2), pe(2)),))
    assert ep_value_symbolic(f, 3) == 8 * P**2


# ---------------------------------------------------------------------------
# Differentiation with respect to a parameter
# ---------------------------------------------------------------------------


def test_ep_diff_simple_coefficient():
    # d/dp [p^2 * 2^n] = 2p * 2^n
    f = ExpPolynomial(terms=(ExpTerm(CounterPoly.const(P**2), pe(2)),))
    g = ep_diff(f, "p")
    assert len(g.terms) == 1
    assert g.terms[0].base == ParamExpr(2)
    assert g.terms[0].poly == CounterPoly.const(2 * P)
    assert not g.quad_terms


def test_ep_diff_base_brings_down_n():
    # d/dp [p^n] = n * p^(n-1) = (n/p) * p^n
    f = _geo(P)
    g = ep_diff(f, "p")
    for n in range(1, 7):
        got = ep_eval(g, {"p": Fraction(1, 3)}, n)
        want = n * Fraction(1, 3) ** (n - 1)
        assert got == want


def test_ep_diff_parameter_free_is_zero():
    f = ExpPolynomial(prefix=(pe(1),), terms=(ExpTerm(CounterPoly.make([1, 2]), pe(3)),))
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
    f = ExpPolynomial(
        prefix=(P * P,),
        terms=(
            ExpTerm(CounterPoly.make([1, P]), P + 1),
            ExpTerm(CounterPoly.const(P**2), pe(Fraction(1, 2))),
        ),
    )
    _fd_check(f, "p", {"p": Fraction(2, 5)})


def test_ep_diff_matches_finite_differences_quad_terms():
    # beta and gamma both depend on p
    f = ExpPolynomial(
        quad_terms=(
            QuadTerm(CounterPoly.make([1, P]), CounterPoly.const(P), P, P + 1),
        ),
    )
    _fd_check(f, "p", {"p": Fraction(1, 3)})


def test_ep_diff_matches_finite_differences_quad_gamma_only():
    # beta parameter-free, gamma depends on p
    f = ExpPolynomial(
        quad_terms=(QuadTerm(CounterPoly.const(1), CounterPoly(()), pe(1), P),),
    )
    _fd_check(f, "p", {"p": Fraction(3, 7)})


def test_ep_diff_matches_finite_differences_mixed():
    f = ExpPolynomial(
        prefix=(pe(0), P),
        terms=(ExpTerm(CounterPoly.const(P), 2 * P),),
        quad_terms=(QuadTerm(CounterPoly.const(P**2), CounterPoly.const(1), P + 1, P),),
    )
    _fd_check(f, "p", {"p": Fraction(2, 7)})


def test_ep_diff_linearity():
    f = _geo(P)
    g = ExpPolynomial(quad_terms=(QuadTerm(CounterPoly.const(P), CounterPoly(()), P, pe(1)),))
    lhs = ep_diff(ep_add(f, g), "p")
    rhs = ep_add(ep_diff(f, "p"), ep_diff(g, "p"))
    for n in range(8):
        assert ep_eval(lhs, {"p": Fraction(1, 4)}, n) == ep_eval(rhs, {"p": Fraction(1, 4)}, n)


def test_ep_diff_prefix_is_differentiated():
    f = ExpPolynomial(prefix=(P**3,), terms=(ExpTerm(CounterPoly.const(1), pe(2)),))
    g = ep_diff(f, "p")
    assert ep_eval(g, {"p": Fraction(2)}, 0) == 12
    assert ep_eval(g, {"p": Fraction(2)}, 1) == 0


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_render_mentions_prefix_and_terms():
    f = ExpPolynomial(
        prefix=(pe(0),),
        terms=(ExpTerm(CounterPoly.const(P), pe(2)),),
    )
    text = render_exp_polynomial(f)
    assert "2**n" in text
    assert "0" in text


def test_render_quad_describes_recurrence():
    f = ExpPolynomial(quad_terms=(QuadTerm(CounterPoly.const(1), CounterPoly(()), pe(1), pe(1)),))
    text = render_exp_polynomial(f)
    assert "s[n]" in text
    assert "s[0] = 2" in text
