"""Exact symbolic arithmetic: rational functions of parameters and
exponential polynomials in the loop counter.

``ParamExpr`` is an element of Q(params), the field of rational functions
of the parameters, held as a reduced fraction of integer polynomials, or
of two ints when the value is constant, so every operation is field
arithmetic and equality is exact.  The field operations (:func:`add`,
:func:`mul`, :func:`inverse`, ...) take and return ``ParamExpr`` values and
cancel with ``polys.cofactors``.  Closed forms of moment sequences are
``ExpPolynomial`` values: an explicit transient prefix plus a sum of
``P(n) * base**n`` terms and of joint terms for conjugate root pairs, held
in one term map whose layout ``ExpPolynomial`` documents.  The solver builds
and sums closed forms in that same map, and the ``ep_*`` algebra, the
printer and the evaluator read it.

sympy is imported only on demand, by the conversions that the solver's
blocks of two or more symbols use (:func:`sympy_domain`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Union

from . import polys
from .errors import SingularParameterError
from .polys import Poly, constant, content, gens_of, is_ground, is_one, lc, quo_ground, relayout


def common_gens(values: Iterable["ParamExpr"]) -> tuple:
    """The generators of the smallest parameter field holding ``values``."""
    return gens_of(n for v in values for n in v.gens)


# -- the sympy boundary -------------------------------------------------------


def sympy_domain(gens: tuple):
    """Q(gens) as a sympy domain with the generators in the same order
    (``QQ`` when there are none).  Imports sympy."""
    import sympy as sp

    return sp.ZZ.frac_field(*map(sp.Symbol, gens)) if gens else sp.QQ


def to_sympy(value: "ParamExpr", domain, gens: tuple):
    """``value`` as an element of ``sympy_domain(gens)``: both sides keep
    the same normal form, so nothing is cancelled."""
    if not gens:
        return domain(value.num, value.den)
    ring = domain.field.ring
    num, den = numer_denom(value, gens)
    return domain.field.raw_new(ring.from_dict(dict(num)), ring.from_dict(dict(den)))


def from_sympy(x, domain, gens: tuple) -> "ParamExpr":
    """An element of ``sympy_domain(gens)`` as a ``ParamExpr``."""
    if not gens:
        return ParamExpr(Fraction(int(x.numerator), int(x.denominator)))
    num, den = (Poly({m: int(c) for m, c in p.items()}) for p in (x.numer, x.denom))
    return cancel(num, den, gens)


def _used(poly: Poly, names) -> list[str]:
    return [n for i, n in enumerate(names) if any(m[i] for m in poly)]


def _require(poly, names, values) -> None:
    missing = sorted(n for n in _used(poly, names) if n not in values)
    if missing:
        raise ValueError(f"unassigned parameter(s): {', '.join(missing)}")


# Printing builds the text sympy's ``StrPrinter`` gives for a value as a sympy
# expression, from the terms of the reduced numerator and denominator, with
# integer and exponent-tuple work only.  The tests hold the sympy view of a
# ``ParamExpr`` that it must match.


def _terms(poly, names, den: int = 1) -> list:
    """The terms of ``poly / den`` as ``(numerator, denominator, powers)``,
    in sympy's order for a sum: descending lex over the names sorted as
    strings, which need not be the field's generator order."""
    order = sorted(range(len(names)), key=names.__getitem__)
    rows = []
    for monom, c in poly.items():
        g = gcd(c, den)
        key = tuple(monom[i] for i in order)
        powers = [names[i] if monom[i] == 1 else f"{names[i]}**{monom[i]}" for i in order if monom[i]]
        rows.append((key, c // g, den // g, powers))
    rows.sort(key=lambda row: row[0], reverse=True)
    return [row[1:] for row in rows]


def _product(num: int, den: int, top: list[str], bottom: list[str]) -> str:
    """The text of ``num/den * top / bottom``, with ``top`` and ``bottom``
    lists of factor texts: the sign first, the coefficient's numerator and
    denominator leading their sides, and a denominator of two or more factors
    in parentheses."""
    a = ([str(abs(num))] if abs(num) != 1 else []) + top
    b = ([str(den)] if den != 1 else []) + bottom
    text = ("-" if num < 0 else "") + ("*".join(a) or "1")
    if not b:
        return text
    return f"{text}/{b[0]}" if len(b) == 1 else f"{text}/({'*'.join(b)})"


def _sum(rows: list) -> str:
    """The text of a sum of two or more ``_terms`` rows.  A positive constant
    goes first when the one other term is a negative multiple of a single
    power (``1 - p``, but ``-p*q + 1``)."""
    if len(rows) == 2 and not rows[1][2] and rows[1][0] > 0 and rows[0][0] < 0 and len(rows[0][2]) == 1:
        rows = rows[::-1]
    texts = [_product(n, d, powers, []) for n, d, powers in rows]
    out = [texts[0]]
    for t in texts[1:]:
        out.append(f" - {t[1:]}" if t[0] == "-" else f" + {t}")
    return "".join(out)


def _poly_text(poly, names, den: int = 1) -> str:
    rows = _terms(poly, names, den)
    return _sum(rows) if len(rows) > 1 else _product(*rows[0], [])


def _text(f: "ParamExpr") -> str:
    """The text sympy prints for ``f``.  The fraction is reduced, so a
    monomial over a monomial has coprime coefficients."""
    if not f.gens:
        return _product(f.num, f.den, [], [])
    names = f.gens
    if len(f.den) == 1 and not any(next(iter(f.den))):
        # sympy spreads a rational factor over a sum: (p + 1)/2 is p/2 + 1/2
        return _poly_text(f.num, names, next(iter(f.den.values())))
    top, bottom = _terms(f.num, names), _terms(f.den, names)
    if len(bottom) > 1:
        below = f"({_sum(bottom)})"
        if len(top) > 1:
            return f"({_sum(top)})/{below}"
        n, _, powers = top[0]
        return _product(n, 1, powers, [below])
    dc, _, below = bottom[0]
    if len(top) > 1:
        return _product(1, dc, [f"({_sum(top)})"], below)
    n, _, powers = top[0]
    if n == dc == 1 and not powers and len(below) == 1 and "**" in below[0]:
        name, k = below[0].split("**")
        return f"{name}**(-{k})"  # a lone power, not a quotient
    return _product(n, dc, powers, below)


class ParamExpr:
    """An exact rational function of the symbolic parameters.

    The value is ``num / den`` over the generators ``gens``, in the order of
    ``polys.gens_of``.  A constant has ``gens == ()`` and ``num`` and ``den``
    coprime ints with ``den > 0``, as a ``Fraction`` holds them.  Any other
    value holds ``Poly`` numerator and denominator over the parameters it
    was built from, in the normal form sympy's ``cancel`` gives:

    - gcd(num, den) = 1 over ZZ, so the integer content is divided out of
      both together;
    - the leading coefficient of ``den``, in lex order over the generators,
      is positive.

    A value is unique in that form, so any correct gcd gives the same pair.
    Operands over different parameters meet over the union of their
    parameter names.  ``==`` and ``hash`` are exact and independent of the
    parameters a value is held over, and a constant compares and hashes as
    its ``Fraction``.  ``str`` prints from the terms of the fraction, once per
    object.  The constructor takes an int, a ``Fraction``, a parameter name
    or a ``ParamExpr``; arithmetic builds its results without it.
    """

    __slots__ = ("num", "den", "gens", "_hash", "_text")

    def __init__(self, value: Union[int, Fraction, str, "ParamExpr"]):
        if isinstance(value, ParamExpr):
            num, den, gens = value.num, value.den, value.gens
        elif isinstance(value, bool):
            raise TypeError("boolean is not a parameter expression")
        elif isinstance(value, int):
            num, den, gens = int(value), 1, ()
        elif isinstance(value, Fraction):
            num, den, gens = value.numerator, value.denominator, ()
        elif isinstance(value, str):
            num, den, gens = Poly({(1,): 1}), Poly({(0,): 1}), gens_of((value,))
        elif isinstance(value, float):
            raise TypeError("floats are not exact; pass Fraction or int")
        else:
            raise TypeError(f"cannot build a parameter expression from {value!r}")
        self.num = num
        self.den = den
        self.gens = gens
        self._hash = None
        self._text = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero() -> "ParamExpr":
        return _PE_ZERO

    @staticmethod
    def one() -> "ParamExpr":
        return _PE_ONE

    # -- arithmetic -----------------------------------------------------------

    # ``+`` and ``*`` run in the assembly's inner loops, so they test the
    # operand's type inline instead of calling ``pe``.

    def __add__(self, other) -> "ParamExpr":
        return add(self, other if type(other) is ParamExpr else ParamExpr(other))

    __radd__ = __add__

    def __sub__(self, other) -> "ParamExpr":
        return add(self, neg(pe(other)))

    def __rsub__(self, other) -> "ParamExpr":
        return add(pe(other), neg(self))

    def __mul__(self, other) -> "ParamExpr":
        return mul(self, other if type(other) is ParamExpr else ParamExpr(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ParamExpr":
        return mul(self, inverse(pe(other)))

    def __rtruediv__(self, other) -> "ParamExpr":
        return mul(pe(other), inverse(self))

    def __pow__(self, k: int) -> "ParamExpr":
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            if self.is_zero:
                raise ZeroDivisionError("zero raised to a negative power")
            return power(inverse(self), -k)
        return power(self, k)

    def __neg__(self) -> "ParamExpr":
        return neg(self)

    # -- predicates & queries ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_one(self) -> bool:
        return not self.gens and self.num == 1 and self.den == 1

    @property
    def is_rational(self) -> bool:
        return not self.gens

    def free_params(self) -> frozenset[str]:
        if not self.gens:
            return frozenset()
        return frozenset(_used(self.num, self.gens) + _used(self.den, self.gens))

    def diff(self, param: str) -> "ParamExpr":
        return derivative(self, param)

    def as_fraction(self) -> Fraction:
        if self.gens:
            raise ValueError(f"{self} is not a plain rational number")
        return Fraction(self.num, self.den)

    def eval_fraction(self, values: Mapping[str, Fraction]) -> Fraction:
        """Evaluate exactly at rational parameter values.

        Raises ``SingularParameterError`` if the denominator vanishes there.
        """
        names = self.gens
        if not names:
            return Fraction(self.num, self.den)
        point = [values.get(n) for n in names]
        _require(self.den, names, values)
        den_num, den_den = polys.evaluate(self.den, point)
        if not den_num:
            raise SingularParameterError(_poly_text(self.den, names))
        _require(self.num, names, values)
        num, num_den = polys.evaluate(self.num, point)
        return Fraction(num * den_den, num_den * den_num)

    # -- dunder plumbing --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamExpr):
            if isinstance(other, (int, Fraction)):
                return not self.gens and self.num == other.numerator and self.den == other.denominator
            return NotImplemented
        if self.gens is other.gens:
            return self.num == other.num and self.den == other.den
        return bool(self.gens and other.gens) and _named_terms(self) == _named_terms(other)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            if self.gens:
                h = hash(_named_terms(self))
            else:
                h = hash(self.num) if self.den == 1 else hash(Fraction(self.num, self.den))
            self._hash = h
        return h

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = self._text = _text(self)
        return text

    def __repr__(self) -> str:
        return f"ParamExpr({self})"


def pe(value) -> ParamExpr:
    """Shorthand constructor used throughout the package."""
    return value if isinstance(value, ParamExpr) else ParamExpr(value)


# ---------------------------------------------------------------------------
# Field operations
# ---------------------------------------------------------------------------

def _new(num, den, gens: tuple) -> ParamExpr:
    """The value ``num / den`` over ``gens``, already in normal form."""
    x = object.__new__(ParamExpr)
    x.num = num
    x.den = den
    x.gens = gens
    x._hash = None
    x._text = None
    return x


def _named_terms(x: ParamExpr) -> tuple:
    """The numerator and denominator terms of a non-constant value with
    names for exponents, which ``==`` and ``hash`` compare across fields."""
    gens = x.gens
    return tuple(
        frozenset((tuple((gens[i], k) for i, k in enumerate(m) if k), c) for m, c in p.items())
        for p in (x.num, x.den)
    )


def _make(num: Poly, den: Poly, gens: tuple) -> ParamExpr:
    """The value ``num / den`` for a reduced pair with nonzero ``den``, its
    sign not yet normalized."""
    if not num:
        return _PE_ZERO
    if lc(den) < 0:
        num, den = -num, -den
    if is_ground(num) and is_ground(den):
        return _new(next(iter(num.values())), next(iter(den.values())), ())
    return _new(num, den, gens)


def cancel(num: Poly, den: Poly, gens: tuple) -> ParamExpr:
    """The value ``num / den`` for any pair with nonzero ``den``."""
    if not num:
        return _PE_ZERO
    _, num, den = polys.cofactors(num, den)
    return _make(num, den, gens)


def numer_denom(x: ParamExpr, gens: tuple) -> tuple[Poly, Poly]:
    """The numerator and denominator of ``x`` over ``gens``, which must hold
    its generators."""
    if not x.gens:
        k = len(gens)
        return constant(x.num, k), constant(x.den, k)
    return relayout(x.num, x.gens, gens), relayout(x.den, x.gens, gens)


def _unify(a: ParamExpr, b: ParamExpr) -> tuple[Poly, Poly, Poly, Poly, tuple]:
    gens = a.gens
    if gens is b.gens:
        return a.num, a.den, b.num, b.den, gens
    gens = gens_of(gens + b.gens)
    return (*numer_denom(a, gens), *numer_denom(b, gens), gens)


def _add_ground(f: ParamExpr, n: int, d: int) -> ParamExpr:
    """``f + n/d`` for a non-constant ``f``: with D = g*D' and n/d = n/(g*d')
    for g = gcd(content(D), d), the sum is (N*d' + n*D') / (D'*d) with only
    an integer left to cancel."""
    if not n:
        return f
    num, den = f.num, f.den
    if d == 1:
        return _new(num + den * n, den, f.gens)
    g = gcd(content(den), d)
    den1 = quo_ground(den, g)
    t = num * (d // g) + den1 * n
    g2 = gcd(content(t), g)
    return _new(quo_ground(t, g2), den1 * (d // g2), f.gens)


def _mul_ground(f: ParamExpr, n: int, d: int) -> ParamExpr:
    """``f * n/d`` for a non-constant ``f``: only gcd(n, content(D)) and
    gcd(content(N), d) can cancel."""
    if not n:
        return _PE_ZERO
    if n == 1 and d == 1:
        return f
    g1 = gcd(n, content(f.den))
    g2 = gcd(content(f.num), d)
    return _new(quo_ground(f.num, g2) * (n // g1), quo_ground(f.den, g1) * (d // g2), f.gens)


def add(a: ParamExpr, b: ParamExpr) -> ParamExpr:
    """``a + b``.  For a/b + c/d with g = gcd(b, d), the sum is
    (a*(d/g) + c*(b/g)) / (b*d/g), and only a factor of g can cancel
    (Henrici's method; Knuth, TAOCP vol. 2, 4.5.1).  Two constants take it
    with int gcds, as ``Fraction`` does; when b = d, g is b itself and needs
    no gcd."""
    if not a.gens:
        if b.gens:
            return _add_ground(b, a.num, a.den)
        an, ad, bn, bd = a.num, a.den, b.num, b.den
        if ad == 1 and bd == 1:
            return _new(an + bn, 1, ())
        g = gcd(ad, bd)
        s = ad // g
        t = an * (bd // g) + bn * s
        g2 = gcd(t, g)
        return _new(t // g2, s * (bd // g2), ())
    if not b.gens:
        return _add_ground(a, b.num, b.den)
    an, ad, bn, bd, gens = _unify(a, b)
    if ad == bd:
        t = an + bn
        if is_one(ad):
            return _make(t, ad, gens)
        return cancel(t, ad, gens)
    g, ad1, bd1 = polys.cofactors(ad, bd)
    if is_one(g):
        return _make(an * bd + bn * ad, ad * bd, gens)
    t = an * bd1 + bn * ad1
    if not t:
        return _PE_ZERO
    _, t, g1 = polys.cofactors(t, g)
    return _make(t, ad1 * bd1 * g1, gens)


def neg(a: ParamExpr) -> ParamExpr:
    return _new(-a.num, a.den, a.gens)


def mul(a: ParamExpr, b: ParamExpr) -> ParamExpr:
    """``a * b``.  For (a/b) * (c/d) only gcd(a, d) and gcd(c, b) can
    cancel."""
    if not a.gens:
        if b.gens:
            return _mul_ground(b, a.num, a.den)
        an, ad, bn, bd = a.num, a.den, b.num, b.den
        if ad == 1 and bd == 1:
            return _new(an * bn, 1, ())
        g1, g2 = gcd(an, bd), gcd(bn, ad)
        return _new((an // g1) * (bn // g2), (ad // g2) * (bd // g1), ())
    if not b.gens:
        return _mul_ground(a, b.num, b.den)
    an, ad, bn, bd, gens = _unify(a, b)
    if not is_one(bd):
        _, an, bd = polys.cofactors(an, bd)
    if not is_one(ad):
        _, bn, ad = polys.cofactors(bn, ad)
    return _make(an * bn, ad * bd, gens)


def inverse(a: ParamExpr) -> ParamExpr:
    """``1 / a``."""
    if not a.num:
        raise ZeroDivisionError("division by an identically zero expression")
    if a.gens:
        return _make(a.den, a.num, a.gens)
    return _new(a.den, a.num, ()) if a.num > 0 else _new(-a.den, -a.num, ())


def power(a: ParamExpr, k: int) -> ParamExpr:
    """``a ** k`` for an int k >= 0: N**k / D**k is reduced as it is."""
    if not k:
        return _PE_ONE
    return _new(a.num**k, a.den**k, a.gens)


def derivative(a: ParamExpr, name: str) -> ParamExpr:
    """d a / d name."""
    if name not in a.gens:
        return _PE_ZERO
    i = a.gens.index(name)
    num, den = a.num, a.den
    dnum = polys.diff(num, i)
    if is_ground(den):
        return cancel(dnum, den, a.gens)
    return cancel(dnum * den - num * polys.diff(den, i), den * den, a.gens)


_PE_ZERO = _new(0, 1, ())
_PE_ONE = _new(1, 1, ())
_PE_TWO = _new(2, 1, ())


# ---------------------------------------------------------------------------
# Exponential polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpPolynomial:
    """Closed form of a sequence: explicit prefix values for n < len(prefix),
    and a sum of terms valid from n = len(prefix) on.

    ``terms`` is a dict, the one layout of a closed form's terms:

    - a base b, a nonzero ``ParamExpr``, maps to ``(P,)``, the term
      P(n)*b**n;
    - a pair (beta, gamma) maps to ``(p, q)``, the joint term
      p(n)*s(n) + q(n)*s(n+1) of the conjugate roots of
      x**2 - beta*x - gamma, where s is their power sum: s(0) = 2,
      s(1) = beta, s(k+1) = beta*s(k) + gamma*s(k-1).  Its values are
      rational in the parameters even though the roots are not.

    A polynomial in n is a tuple of ``ParamExpr`` coefficients, lowest degree
    first, with no trailing zero, so the zero polynomial is ``()``; no term
    is zero.  Bases come before pairs, each in the order they were met,
    which is the order the terms print in.  :func:`ep_make` builds every
    closed form, the solver's included; while the solver and
    :func:`accumulate_terms` sum terms, they hold polynomials as lists.
    """

    prefix: tuple[ParamExpr, ...] = ()
    terms: dict = field(default_factory=dict)

    @property
    def start(self) -> int:
        return len(self.prefix)

    @property
    def is_zero(self) -> bool:
        return not self.terms and all(v.is_zero for v in self.prefix)

    def __str__(self) -> str:
        return render_exp_polynomial(self)


def _trim(poly) -> tuple:
    end = len(poly)
    while end and poly[end - 1].is_zero:
        end -= 1
    return tuple(poly[:end])


def ep_make(prefix: Iterable, terms: Mapping) -> ExpPolynomial:
    """The closed form with the given prefix and terms, in the layout of
    ``ExpPolynomial.terms`` with any sequences as polynomials: trailing zero
    coefficients trimmed, zero terms dropped, bases before pairs."""
    bases: dict = {}
    pairs: dict = {}
    for key, polys in terms.items():
        trimmed = tuple(map(_trim, polys))
        if any(trimmed):
            (bases if len(trimmed) == 1 else pairs)[key] = trimmed
    return ExpPolynomial(tuple(prefix), {**bases, **pairs})


def ep_zero() -> ExpPolynomial:
    return ExpPolynomial()


def _axpy(acc: list, c: ParamExpr, poly, shift: int = 0) -> None:
    """``acc += c * n**shift * poly`` in place, for polynomials in n as
    coefficient lists, lowest degree first; ``acc`` grows as needed."""
    acc.extend([_PE_ZERO] * (len(poly) + shift - len(acc)))
    for k, x in enumerate(poly, shift):
        if not x.is_zero:
            acc[k] = acc[k] + c * x


def accumulate_terms(acc: dict, terms: Mapping, c: ParamExpr) -> dict:
    """``acc += c * terms`` in place and returns ``acc``, a terms dict whose
    polynomials are lists.  A new key goes last, and the two polynomials of
    a pair are padded with zeros to one length."""
    for key, polys in terms.items():
        slots = acc.get(key)
        if slots is None:
            slots = acc[key] = tuple([] for _ in polys)
        for slot, poly in zip(slots, polys):
            _axpy(slot, c, poly)
        width = max(map(len, slots))
        for slot in slots:
            slot.extend([_PE_ZERO] * (width - len(slot)))
    return acc


def _horner(poly, n: int, value):
    """The value at n of a nonzero polynomial in n, in the ring that
    ``value`` maps each coefficient into.  Coefficients are mapped lowest
    first, and a constant costs no ring operation."""
    mapped = [value(c) for c in poly]
    acc = mapped.pop()
    while mapped:
        acc = acc * n + mapped.pop()
    return acc


def _lucas_values(beta, gamma, upto: int, two) -> list:
    """s(0..upto) for s(k+1) = beta*s(k) + gamma*s(k-1), s(0)=2, s(1)=beta,
    with ``two`` the 2 of the ring that ``beta`` and ``gamma`` live in."""
    vals = [two, beta]
    while len(vals) <= upto:
        vals.append(beta * vals[-1] + gamma * vals[-2])
    return vals


def _ep_value(f: ExpPolynomial, n: int, value, two):
    """The value of ``f`` at index n in the ring that ``value`` maps each
    coefficient into, with ``two`` that ring's 2.  Coefficients are mapped
    term by term, a base after its polynomial and a pair's beta and gamma
    before its polynomials, so the first unassigned or singular one is the
    one reported."""
    if n < 0:
        raise ValueError("sequence index must be >= 0")
    if n < len(f.prefix):
        return value(f.prefix[n])
    parts = []
    for key, polys in f.terms.items():
        if len(polys) == 1:
            poly, base = _horner(polys[0], n, value), value(key)
            parts.append(poly * base ** n if n else poly)
            continue
        s = _lucas_values(value(key[0]), value(key[1]), n + 1, two)
        parts += [_horner(c, n, value) * s[n + k] for k, c in enumerate(polys) if c]
    return sum(parts[1:], parts[0]) if parts else value(_PE_ZERO)


def ep_value_symbolic(f: ExpPolynomial, n: int) -> ParamExpr:
    """Exact value at integer n as a ParamExpr."""
    return _ep_value(f, n, pe, _PE_TWO)


def ep_eval(f: ExpPolynomial, values: Mapping[str, Fraction], n: int) -> Fraction:
    """Exact rational evaluation at a parameter assignment and index n."""
    return _ep_value(f, n, lambda c: c.eval_fraction(values), Fraction(2))


def ep_add(f: ExpPolynomial, g: ExpPolynomial) -> ExpPolynomial:
    prefix = [ep_value_symbolic(f, n) + ep_value_symbolic(g, n) for n in range(max(f.start, g.start))]
    terms = accumulate_terms({}, f.terms, _PE_ONE)
    return ep_make(prefix, accumulate_terms(terms, g.terms, _PE_ONE))


def ep_scale(f: ExpPolynomial, c) -> ExpPolynomial:
    c = pe(c)
    if c.is_zero:
        return ExpPolynomial()
    terms = {key: tuple([x * c for x in poly] for poly in polys) for key, polys in f.terms.items()}
    return ep_make([v * c for v in f.prefix], terms)


def ep_diff(f: ExpPolynomial, param: str) -> ExpPolynomial:
    """Differentiate the closed form with respect to a parameter.

    For a term P(n)*b**n the derivative regroups as
    (P' + n*(b'/b)*P)(n) * b**n.  For a conjugate pair term written against
    the power sums s(n), s(n+1) of x**2 - beta*x - gamma, the chain rule gives
    d s(n) = n*(v*s(n) + u*s(n+1)) with
        u = (2*gamma*beta' - beta*gamma') / (gamma*disc)
        v = (gamma'*(beta**2 + 2*gamma) - beta*gamma*beta') / (gamma*disc)
    where disc = beta**2 + 4*gamma; both gamma and disc are nonzero because
    the quadratic is irreducible.
    """
    terms: dict = {}
    for key, polys in f.terms.items():
        new = terms[key] = tuple([c.diff(param) for c in poly] for poly in polys)
        if len(polys) == 1:
            db = key.diff(param)
            if not db.is_zero:
                _axpy(new[0], db / key, polys[0], 1)
            continue
        beta, gamma = key
        dbeta, dgamma = beta.diff(param), gamma.diff(param)
        if dbeta.is_zero and dgamma.is_zero:
            continue
        disc = beta * beta + gamma * 4
        u = (gamma * dbeta * 2 - beta * dgamma) / (gamma * disc)
        v = (dgamma * (beta * beta + gamma * 2) - beta * gamma * dbeta) / (gamma * disc)
        p, q = polys
        # d(p*s(n)) -> s(n): n*p*v ; s(n+1): n*p*u
        # d(q*s(n+1)) -> s(n): (n+1)*q*u*gamma ; s(n+1): (n+1)*q*(v + u*beta)
        for slot, on_p, on_q in ((new[0], v, u * gamma), (new[1], u, v + u * beta)):
            _axpy(slot, on_p, p, 1)
            _axpy(slot, on_q, q, 1)
            _axpy(slot, on_q, q)
    return ep_make([x.diff(param) for x in f.prefix], terms)


# ---------------------------------------------------------------------------
# Rendering / serialization
# ---------------------------------------------------------------------------


def _paren(s: str) -> str:
    if s.startswith("-") or any(op in s for op in (" + ", " - ", "/", "*", " ")):
        return f"({s})"
    return s


def _counter_text(poly) -> str:
    """The text of a polynomial in n; ``0`` when it is zero."""
    parts = []
    for i, c in enumerate(poly):
        if c.is_zero:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            power = "n" if i == 1 else f"n**{i}"
            parts.append(power if c.is_one else f"({c})*{power}")
    return " + ".join(parts) or "0"


def render_exp_polynomial(f: ExpPolynomial) -> str:
    parts = []
    for key, polys in f.terms.items():
        texts = [_counter_text(poly) for poly in polys]
        if len(polys) == 2:
            beta, gamma = (str(x) for x in key)
            parts.append(
                f"{_paren(texts[0])}*s[n] + {_paren(texts[1])}*s[n+1] "
                f"where s[k+1] = {_paren(beta)}*s[k] + {_paren(gamma)}*s[k-1], "
                f"s[0] = 2, s[1] = {beta}"
            )
        elif key.is_one:
            parts.append(texts[0] if len(polys[0]) == 1 else _paren(texts[0]))
        else:
            parts.append(f"{_paren(texts[0])}*{_paren(str(key))}**n")
    body = " + ".join(parts) if parts else "0"
    if not f.prefix:
        return body
    vals = ", ".join(f"{n}: {v}" for n, v in enumerate(f.prefix))
    return f"[{vals}]; for n >= {len(f.prefix)}: {body}"


def exp_polynomial_to_json(f: ExpPolynomial) -> dict:
    terms, pairs = [], []
    for key, polys in f.terms.items():
        texts = [[str(c) for c in poly] for poly in polys]
        if len(polys) == 1:
            terms.append({"poly": texts[0], "base": str(key)})
        else:
            pairs.append({"p": texts[0], "q": texts[1], "beta": str(key[0]), "gamma": str(key[1])})
    return {"prefix": [str(v) for v in f.prefix], "terms": terms, "quad_terms": pairs}
