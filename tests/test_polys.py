"""Tests for the exact parameter-fraction backend against sympy, which stays
installed as a test dependency: the gcd, the reduced normal form, and the
field operations as ``ParamExpr`` exposes them."""

import random
from fractions import Fraction
from unittest import mock

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.rings import ring

import probsens.polys as polys
from probsens.errors import SingularParameterError
from probsens.polys import Frac, Poly, gens_of
from probsens.symbolic import ParamExpr

# ---------------------------------------------------------------------------
# The gcd
# ---------------------------------------------------------------------------


@st.composite
def poly_pairs(draw):
    """Two nonzero polynomials in 1 to 3 variables, often with a common
    factor, as ``Poly``s."""
    nvars = draw(st.integers(1, 3))

    def poly(max_terms, coeff):
        terms = draw(st.lists(
            st.tuples(st.tuples(*[st.integers(0, 3)] * nvars), st.integers(-coeff, coeff)),
            min_size=1, max_size=max_terms,
        ))
        out: dict = {}
        for m, c in terms:
            out[m] = out.get(m, 0) + c
        return Poly({m: c for m, c in out.items() if c})

    a, b = poly(5, 9), poly(5, 9)
    if draw(st.booleans()):
        g = poly(4, 5)
        a, b = a * g, b * g
    return nvars, a, b


def _sympy_ring(nvars):
    return ring(",".join(f"x{i}" for i in range(nvars)), sp.ZZ)[0]


def _check_cofactors(nvars, a, b, h, qa, qb):
    R = _sympy_ring(nvars)

    def to_sympy(p):
        return R.from_dict({m: sp.ZZ(c) for m, c in p.items()})

    want = to_sympy(a).gcd(to_sympy(b))
    assert to_sympy(h) in (want, -want)
    assert h * qa == a and h * qb == b


@given(poly_pairs())
@settings(max_examples=200, deadline=None)
def test_cofactors_match_sympy_gcd(pair):
    nvars, a, b = pair
    if not a or not b:
        return
    _check_cofactors(nvars, a, b, *polys.cofactors(a, b))


def stress_pairs(seed: int, count: int) -> list:
    """``count`` seeded pairs h*a, h*b as ``(nvars, f, g)``: 1 to 3
    variables, degree 2 to 12, coefficients up to 3 or 1000, h squared in
    about 30 % of them and a carrying another factor h in about 30 %."""
    rng = random.Random(seed)

    def poly(nvars, degree, coeff):
        out: dict = {}
        for _ in range(rng.randint(degree, 3 * degree)):
            m = [0] * nvars
            for _ in range(rng.randint(0, degree)):
                m[rng.randrange(nvars)] += 1
            out[tuple(m)] = out.get(tuple(m), 0) + rng.randint(-coeff, coeff)
        return Poly({m: c for m, c in out.items() if c}) or polys.constant(1, nvars)

    pairs = []
    for _ in range(count):
        nvars, degree, coeff = rng.randint(1, 3), rng.randint(2, 12), rng.choice((3, 1000))
        h = poly(nvars, degree, coeff)
        if rng.random() < 0.3:
            h = h * h
        a, b = poly(nvars, degree, coeff), poly(nvars, degree, coeff)
        if rng.random() < 0.3:
            a = a * h
        pairs.append((nvars, h * a, h * b))
    return pairs


def test_cofactors_match_sympy_gcd_on_the_stress_set():
    # GCDHEU steps xi until a candidate divides both inputs; some of these
    # pairs need images of more than 6000 bits (the length of xi times the
    # degree in the evaluated variable), where GCDHEU used to give up
    seen = []
    real = polys._evaluate_first

    def recording(p, xi):
        seen.append((p, xi))
        return real(p, xi)

    patch = mock.patch.object(polys, "_evaluate_first", recording)
    with patch:
        for nvars, a, b in stress_pairs(1, 48):
            _check_cofactors(nvars, a, b, *polys.cofactors(a, b))
    assert max(xi.bit_length() * max(m[0] for m in p) for p, xi in seen) > 6000

    # (x + 1) * x * (x - 1) and (x + 1) * (x + 2): the image gcd at the
    # first xi, 4, is 30 = h(4) * 6 and gives the candidate 2x**2 - x + 2;
    # at 10 it is 66 = h(10) * 6 and gives x**2 - 3x - 4; at 27 it is
    # h(27) = 28, and the candidate is x + 1
    h = Poly({(1,): 1, (0,): 1})
    a, b = h * Poly({(3,): 1, (1,): -1}), h * Poly({(1,): 1, (0,): 2})
    seen.clear()
    with patch:
        got = polys.cofactors(a, b)
    assert sorted({xi for _, xi in seen}) == [4, 10, 27]
    _check_cofactors(1, a, b, *got)


def test_heuristic_finds_the_gcd_of_large_images():
    # (x**40 + 3) * (x + 2) and (x**40 + 3) * (x - 5): an image at xi has
    # about 40 * log2(xi) bits
    common = Poly({(40,): 1, (0,): 3})
    a, b = common * Poly({(1,): 1, (0,): 2}), common * Poly({(1,): 1, (0,): -5})
    h, qa, qb = polys.cofactors(a, b)
    assert h in (common, -common)
    assert h * qa == a and h * qb == b


def test_divide_is_exact_or_none():
    x_plus_1 = Poly({(1, 0): 1, (0, 0): 1})
    y = Poly({(0, 1): 1})
    assert polys.divide(x_plus_1 * y * 3, x_plus_1) == y * 3
    assert polys.divide(x_plus_1 * y, y * 2) is None
    assert polys.divide(x_plus_1, y) is None
    assert polys.divide(x_plus_1 * x_plus_1 + y, x_plus_1) is None


# ---------------------------------------------------------------------------
# Generator order and the normal form
# ---------------------------------------------------------------------------


def test_generator_order_is_sympys():
    names = ["vax_param", "decline", "contact_param", "var", "a", "q2", "p10", "p2", "p1", "x"]
    assert gens_of(names) == ("x", "p1", "p2", "p10", "q2", "a", "contact_param", "decline", "var", "vax_param")
    symbols = [sp.Symbol(n) for n in names]
    assert tuple(s.name for s in sp.polys.polyutils._sort_gens(symbols)) == gens_of(names)
    assert gens_of({"p", "q"}) is gens_of(("q", "p"))


def test_denominator_sign_and_content_follow_the_generator_order():
    # the leading term in lex order over (x, p, b) is x's, whatever the
    # names sort to as strings
    x, p, b = (ParamExpr(n) for n in ("x", "p", "b"))
    f = (2 * b + 2) / (4 * p - 4 * x)
    assert f.elem.gens == ("x", "p", "b")
    assert dict(f.elem.num) == {(0, 0, 1): -1, (0, 0, 0): -1}
    assert dict(f.elem.den) == {(1, 0, 0): 2, (0, 1, 0): -2}
    assert str(f) == str(f.e) == "(-b - 1)/(-2*p + 2*x)"


# ---------------------------------------------------------------------------
# ParamExpr on the backend against sympy's cancel
# ---------------------------------------------------------------------------

NAME_SETS = [("p",), ("p", "q"), ("a", "p"), ("x", "b", "p"), ("p1", "p2", "p10"), ("contact_param", "decline")]

rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def built_twice(draw, count=1):
    """The name set and ``count`` random rational functions over it, each
    as a ``ParamExpr`` and as a sympy expression."""
    names = draw(st.sampled_from(NAME_SETS))
    leaf = st.one_of(
        rationals.map(lambda r: (ParamExpr(r), sp.Rational(r.numerator, r.denominator))),
        st.sampled_from([(ParamExpr(n), sp.Symbol(n)) for n in names]),
    )

    def build(depth):
        if depth == 0:
            return draw(leaf)
        (x, ex), (y, ey) = build(depth - 1), build(depth - 1)
        op = draw(st.sampled_from("+-*/"))
        if op == "+":
            return x + y, ex + ey
        if op == "-":
            return x - y, ex - ey
        if op == "*":
            return x * y, ex * ey
        return (x, ex) if y.is_zero else (x / y, ex / ey)

    return names, *(build(draw(st.integers(1, 3))) for _ in range(count))


def _named(poly, gens):
    return frozenset((tuple((gens[i], k) for i, k in enumerate(m) if k), int(c)) for m, c in poly.items())


def assert_same_as_sympy(got: ParamExpr, expr, names) -> None:
    """``got`` has the named numerator and denominator terms of sympy's
    cancelled ``expr``, and the same ``==``, ``hash`` and ``str``."""
    gens = gens_of(names)
    field = sp.ZZ.frac_field(*map(sp.Symbol, gens)).field
    f = field.from_expr(expr)
    ref = field.new(f.numer, f.denom)  # cancelled, sign normalized
    if ref.numer.is_ground and ref.denom.is_ground:
        assert got.elem == Fraction(int(ref.numer.LC), int(ref.denom.LC))
        assert type(got.elem) is Fraction
    else:
        assert type(got.elem) is Frac
        assert got.elem.named_terms() == (_named(ref.numer, gens), _named(ref.denom, gens))
    want = ParamExpr(sp.cancel(sp.together(expr)))
    assert got == want and hash(got) == hash(want)
    assert str(got) == str(sp.cancel(sp.together(expr))) == str(got.e)


@given(built_twice(count=2), st.integers(-3, 3))
@settings(max_examples=80, deadline=None)
def test_field_operations_match_sympy(operands, k):
    names, (x, ex), (y, ey) = operands
    assert_same_as_sympy(x, ex, names)
    assert_same_as_sympy(x + y, ex + ey, names)
    assert_same_as_sympy(x - y, ex - ey, names)
    assert_same_as_sympy(x * y, ex * ey, names)
    if not y.is_zero:
        assert_same_as_sympy(x / y, ex / ey, names)
    if k >= 0 or not x.is_zero:
        assert_same_as_sympy(x**k, ex**k, names)


@given(built_twice(), st.lists(rationals, min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_diff_and_eval_fraction_match_sympy(a, values):
    names, (x, ex) = a
    for n in names:
        assert_same_as_sympy(x.diff(n), sp.diff(ex, sp.Symbol(n)), names)
    point = dict(zip(names, values))
    num, den = sp.cancel(sp.together(ex)).as_numer_denom()
    subs = {sp.Symbol(n): sp.Rational(v.numerator, v.denominator) for n, v in point.items()}
    if den.subs(subs) == 0:
        with pytest.raises(SingularParameterError):
            x.eval_fraction(point)
    else:
        want = num.subs(subs) / den.subs(subs)
        assert x.eval_fraction(point) == Fraction(int(want.p), int(want.q))
