"""Exact symbolic arithmetic: rational functions of parameters and
exponential polynomials in the loop counter.

``ParamExpr`` holds an element of Q(params), the field of rational functions
of the parameters, as a reduced fraction of integer polynomials
(``polys.Frac``), or as a plain ``Fraction`` when the value is constant, so
every operation is field arithmetic and equality is exact.  Closed forms of
moment sequences are ``ExpPolynomial`` values: an explicit transient prefix
plus a sum of ``P(n) * base**n`` terms, where conjugate algebraic base pairs
are represented jointly by ``QuadTerm`` (coefficients stay rational).

sympy is imported only on demand: by ``ParamExpr.e``, by a ``ParamExpr``
built from a sympy expression, and by the conversions that the solver's
blocks of two or more symbols use (:func:`sympy_domain`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Union

from . import polys
from .errors import SingularParameterError
from .polys import Frac, Poly, gens_of

# Field operations on bare elements (``Fraction`` or ``Frac``), for callers
# that skip the ``ParamExpr`` wrapper in their inner loops.
_add = polys.add
_sub = polys.sub
_mul = polys.mul


def common_gens(values: Iterable["ParamExpr"]) -> tuple:
    """The generators of the smallest parameter field holding ``values``."""
    names: set[str] = set()
    for v in values:
        if type(v.elem) is Frac:
            names.update(v.elem.gens)
    return gens_of(names)


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
        f = value.elem
        return domain(f.numerator, f.denominator)
    ring = domain.field.ring
    num, den = polys.numer_denom(value.elem, gens)
    return domain.field.raw_new(ring.from_dict(dict(num)), ring.from_dict(dict(den)))


def from_sympy(x, domain, gens: tuple) -> "ParamExpr":
    """An element of ``sympy_domain(gens)`` as a ``ParamExpr``."""
    if not gens:
        return ParamExpr(Fraction(int(x.numerator), int(x.denominator)))
    num, den = (Poly({m: int(c) for m, c in p.items()}) for p in (x.numer, x.denom))
    return ParamExpr(polys.cancel(num, den, gens))


def _from_expr(value):
    """The field element of a sympy expression."""
    if value.is_Rational:
        return Fraction(int(value.p), int(value.q))
    gens = gens_of(s.name for s in value.free_symbols)
    domain = sympy_domain(gens)
    return from_sympy(domain.field.from_expr(value), domain, gens).elem


def _element(value):
    """The exact field element for a non-``ParamExpr`` operand."""
    t = type(value)
    if t is Frac or t is Fraction:
        return value
    if t is int:
        return Fraction(value)
    if isinstance(value, bool):
        raise TypeError("boolean is not a parameter expression")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return polys.variable(value)
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass Fraction or int")
    sympy = sys.modules.get("sympy")  # a sympy expression implies sympy is loaded
    if sympy is not None and isinstance(value, sympy.Expr):
        return _from_expr(value)
    raise TypeError(f"cannot build a parameter expression from {value!r}")


def _used(poly: Poly, names) -> list[str]:
    return [n for i, n in enumerate(names) if any(m[i] for m in poly)]


def _require(poly, names, values) -> None:
    missing = sorted(n for n in _used(poly, names) if n not in values)
    if missing:
        raise ValueError(f"unassigned parameter(s): {', '.join(missing)}")


# Printing builds the text sympy's ``StrPrinter`` gives for ``v.e`` from the
# terms of the reduced numerator and denominator, with integer and
# exponent-tuple work only; ``ParamExpr.e`` is the sympy view it must match.


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


def _text(f) -> str:
    """The text sympy prints for the field element ``f``.  The fraction is
    reduced, so a monomial over a monomial has coprime coefficients."""
    if type(f) is Fraction:
        return _product(f.numerator, f.denominator, [], [])
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

    ``elem`` is a reduced ``polys.Frac`` over the parameters it was built
    from, or a ``Fraction`` when the value is constant.  Operands over
    different parameters meet over the union of their parameter names.
    ``==`` and ``hash`` are exact and independent of the parameters a value
    is held over.  ``str`` prints from the terms of the fraction, once per
    object; ``e`` is a sympy view built on demand, the reference that
    printing is tested against.
    """

    __slots__ = ("elem", "_hash", "_text")

    def __init__(self, value: Union[int, Fraction, str, "ParamExpr"]):
        self.elem = value.elem if isinstance(value, ParamExpr) else _element(value)
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

    def __add__(self, other) -> "ParamExpr":
        return ParamExpr(_add(self.elem, _operand(other)))

    __radd__ = __add__

    def __sub__(self, other) -> "ParamExpr":
        return ParamExpr(_sub(self.elem, _operand(other)))

    def __rsub__(self, other) -> "ParamExpr":
        return ParamExpr(_sub(_operand(other), self.elem))

    def __mul__(self, other) -> "ParamExpr":
        return ParamExpr(_mul(self.elem, _operand(other)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ParamExpr":
        return ParamExpr(_div(self.elem, _operand(other)))

    def __rtruediv__(self, other) -> "ParamExpr":
        return ParamExpr(_div(_operand(other), self.elem))

    def __pow__(self, k: int) -> "ParamExpr":
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            if self.is_zero:
                raise ZeroDivisionError("zero raised to a negative power")
            return ParamExpr(polys.power(polys.inverse(self.elem), -k))
        return ParamExpr(polys.power(self.elem, k))

    def __neg__(self) -> "ParamExpr":
        return ParamExpr(polys.neg(self.elem))

    # -- predicates & queries ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.elem

    @property
    def is_one(self) -> bool:
        f = self.elem
        return type(f) is Fraction and f == 1

    @property
    def is_rational(self) -> bool:
        return type(self.elem) is Fraction

    @property
    def e(self):
        """The value as a sympy expression, in ``sp.cancel`` form, built from
        the numerator and denominator terms.  Imports sympy."""
        import sympy as sp

        f = self.elem
        if type(f) is Fraction:
            return sp.Rational(f.numerator, f.denominator)
        symbols = [sp.Symbol(n) for n in f.gens]

        def as_expr(poly):
            return sp.Add(*(
                sp.Mul(sp.Integer(c), *(s**k for s, k in zip(symbols, m) if k)) for m, c in poly.items()
            ))

        return as_expr(f.num) / as_expr(f.den)

    def free_params(self) -> frozenset[str]:
        f = self.elem
        if type(f) is Fraction:
            return frozenset()
        return frozenset(_used(f.num, f.gens) + _used(f.den, f.gens))

    def diff(self, param: str) -> "ParamExpr":
        return ParamExpr(polys.derivative(self.elem, param))

    def as_fraction(self) -> Fraction:
        f = self.elem
        if type(f) is not Fraction:
            raise ValueError(f"{self} is not a plain rational number")
        return f

    def eval_fraction(self, values: Mapping[str, Fraction]) -> Fraction:
        """Evaluate exactly at rational parameter values.

        Raises ``SingularParameterError`` if the denominator vanishes there.
        """
        f = self.elem
        if type(f) is Fraction:
            return f
        names = f.gens
        point = [values.get(n) for n in names]
        _require(f.den, names, values)
        den_num, den_den = polys.evaluate(f.den, point)
        if not den_num:
            raise SingularParameterError(_poly_text(f.den, names))
        _require(f.num, names, values)
        num, num_den = polys.evaluate(f.num, point)
        return Fraction(num * den_den, num_den * den_num)

    # -- dunder plumbing --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, ParamExpr):
            b = other.elem
        elif isinstance(other, (int, Fraction)):
            b = _element(other)
        else:
            return NotImplemented
        return self.elem == b

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self.elem)
        return h

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = self._text = _text(self.elem)
        return text

    def __repr__(self) -> str:
        return f"ParamExpr({self})"


def _div(a, b):
    if not b:
        raise ZeroDivisionError("division by an identically zero expression")
    return polys.div(a, b)


def _operand(value):
    return value.elem if isinstance(value, ParamExpr) else _element(value)


_PE_ZERO = ParamExpr(0)
_PE_ONE = ParamExpr(1)
_PE_TWO = ParamExpr(2)


def pe(value) -> ParamExpr:
    """Shorthand constructor used throughout the package."""
    return value if isinstance(value, ParamExpr) else ParamExpr(value)


# ---------------------------------------------------------------------------
# Polynomials in the loop counter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterPoly:
    """Polynomial in the loop counter n with ParamExpr coefficients.

    ``coeffs[i]`` multiplies ``n**i``; trailing zero coefficients are stripped,
    so the zero polynomial has an empty tuple.
    """

    coeffs: tuple[ParamExpr, ...]

    @staticmethod
    def make(coeffs: Iterable) -> "CounterPoly":
        cs = [pe(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        return CounterPoly(tuple(cs))

    @staticmethod
    def const(c) -> "CounterPoly":
        return CounterPoly.make([c])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __add__(self, other: "CounterPoly") -> "CounterPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else ParamExpr.zero()
            b = other.coeffs[i] if i < len(other.coeffs) else ParamExpr.zero()
            out.append(a + b)
        return CounterPoly.make(out)

    def scale(self, c) -> "CounterPoly":
        c = pe(c)
        if c.is_zero:
            return CounterPoly(())
        return CounterPoly.make([a * c for a in self.coeffs])

    def shift_up(self) -> "CounterPoly":
        """Multiply by n."""
        if self.is_zero:
            return self
        return CounterPoly.make([ParamExpr.zero(), *self.coeffs])

    def diff_param(self, param: str) -> "CounterPoly":
        return CounterPoly.make([c.diff(param) for c in self.coeffs])

    def evaluate(self, n: int, value=pe):
        """The value at ``n`` by Horner's rule, in the ring that ``value``
        maps each coefficient into (``ParamExpr`` by default).  Coefficients
        are mapped lowest first, and a constant costs no ring operation."""
        mapped = [value(c) for c in self.coeffs] or [value(ParamExpr.zero())]
        acc = mapped.pop()
        while mapped:
            acc = acc * n + mapped.pop()
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            cs = str(c)
            if i == 0:
                parts.append(cs)
            else:
                np_ = "n" if i == 1 else f"n**{i}"
                parts.append(np_ if c.is_one else f"({cs})*{np_}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Exponential polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpTerm:
    """``poly(n) * base**n`` with a nonzero base in the parameter field."""

    poly: CounterPoly
    base: ParamExpr


@dataclass(frozen=True)
class QuadTerm:
    """Joint contribution of a conjugate root pair of x**2 - beta*x - gamma.

    Represents ``p(n)*s(n) + q(n)*s(n+1)`` where ``s`` is the root power sum:
    s(0) = 2, s(1) = beta, s(k+1) = beta*s(k) + gamma*s(k-1).  All values are
    rational in the parameters even though the individual roots are not.
    """

    p: CounterPoly
    q: CounterPoly
    beta: ParamExpr
    gamma: ParamExpr


@dataclass(frozen=True)
class ExpPolynomial:
    """Closed form of a sequence: explicit prefix values for n < len(prefix),
    and a sum of exponential-polynomial terms valid from n = len(prefix) on.
    """

    prefix: tuple[ParamExpr, ...] = ()
    terms: tuple[ExpTerm, ...] = ()
    quad_terms: tuple[QuadTerm, ...] = ()

    @property
    def start(self) -> int:
        return len(self.prefix)

    @property
    def is_zero(self) -> bool:
        return (
            not self.terms
            and not self.quad_terms
            and all(v.is_zero for v in self.prefix)
        )

    def __str__(self) -> str:
        return render_exp_polynomial(self)


def ep_zero() -> ExpPolynomial:
    return ExpPolynomial()


def _lucas_values(beta, gamma, upto: int, two) -> list:
    """s(0..upto) for s(k+1) = beta*s(k) + gamma*s(k-1), s(0)=2, s(1)=beta,
    with ``two`` the 2 of the ring that ``beta`` and ``gamma`` live in."""
    vals = [two, beta]
    while len(vals) <= upto:
        vals.append(beta * vals[-1] + gamma * vals[-2])
    return vals


def _ep_value(f: ExpPolynomial, n: int, value, two):
    """The value of ``f`` at index n in the ring that ``value`` maps each
    coefficient into, with ``two`` that ring's 2.  Coefficients are mapped in
    the order ``f`` holds them (a quad term's ``beta`` and ``gamma`` first),
    so the first unassigned or singular one is the one reported."""
    if n < 0:
        raise ValueError("sequence index must be >= 0")
    if n < len(f.prefix):
        return value(f.prefix[n])
    parts = []
    for t in f.terms:
        poly, base = t.poly.evaluate(n, value), value(t.base)
        parts.append(poly * base ** n if n else poly)
    for qt in f.quad_terms:
        s = _lucas_values(value(qt.beta), value(qt.gamma), n + 1, two)
        parts += [
            c.evaluate(n, value) * s[n + k] for k, c in enumerate((qt.p, qt.q)) if not c.is_zero
        ]
    return sum(parts[1:], parts[0]) if parts else value(ParamExpr.zero())


def ep_value_symbolic(f: ExpPolynomial, n: int) -> ParamExpr:
    """Exact value at integer n as a ParamExpr."""
    return _ep_value(f, n, pe, _PE_TWO)


def ep_eval(f: ExpPolynomial, values: Mapping[str, Fraction], n: int) -> Fraction:
    """Exact rational evaluation at a parameter assignment and index n."""
    return _ep_value(f, n, lambda c: c.eval_fraction(values), Fraction(2))


def _merge_terms(terms: Iterable[ExpTerm]) -> tuple[ExpTerm, ...]:
    by_base: dict[ParamExpr, CounterPoly] = {}
    for t in terms:
        poly = by_base.get(t.base)
        by_base[t.base] = t.poly if poly is None else poly + t.poly
    return tuple(ExpTerm(poly, base) for base, poly in by_base.items() if not poly.is_zero)


def _merge_quad_terms(terms: Iterable[QuadTerm]) -> tuple[QuadTerm, ...]:
    by_key: dict[tuple[ParamExpr, ParamExpr], tuple[CounterPoly, CounterPoly]] = {}
    for t in terms:
        key = (t.beta, t.gamma)
        pq = by_key.get(key)
        by_key[key] = (t.p, t.q) if pq is None else (pq[0] + t.p, pq[1] + t.q)
    return tuple(
        QuadTerm(p, q, beta, gamma)
        for (beta, gamma), (p, q) in by_key.items()
        if not (p.is_zero and q.is_zero)
    )


def ep_add(f: ExpPolynomial, g: ExpPolynomial) -> ExpPolynomial:
    n0 = max(len(f.prefix), len(g.prefix))
    prefix = tuple(
        ep_value_symbolic(f, n) + ep_value_symbolic(g, n) for n in range(n0)
    )
    return ExpPolynomial(
        prefix=prefix,
        terms=_merge_terms((*f.terms, *g.terms)),
        quad_terms=_merge_quad_terms((*f.quad_terms, *g.quad_terms)),
    )


def ep_scale(f: ExpPolynomial, c) -> ExpPolynomial:
    c = pe(c)
    if c.is_zero:
        return ExpPolynomial()
    return ExpPolynomial(
        prefix=tuple(v * c for v in f.prefix),
        terms=tuple(ExpTerm(t.poly.scale(c), t.base) for t in f.terms),
        quad_terms=tuple(QuadTerm(t.p.scale(c), t.q.scale(c), t.beta, t.gamma) for t in f.quad_terms),
    )


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
    prefix = tuple(v.diff(param) for v in f.prefix)

    terms: list[ExpTerm] = []
    for t in f.terms:
        db = t.base.diff(param)
        new_poly = t.poly.diff_param(param)
        if not db.is_zero:
            ratio = db / t.base
            new_poly = new_poly + t.poly.scale(ratio).shift_up()
        if not new_poly.is_zero:
            terms.append(ExpTerm(new_poly, t.base))

    quad_terms: list[QuadTerm] = []
    for t in f.quad_terms:
        beta, gamma = t.beta, t.gamma
        dbeta, dgamma = beta.diff(param), gamma.diff(param)
        p_new = t.p.diff_param(param)
        q_new = t.q.diff_param(param)
        if not (dbeta.is_zero and dgamma.is_zero):
            disc = beta * beta + gamma * 4
            u = (gamma * dbeta * 2 - beta * dgamma) / (gamma * disc)
            v = (dgamma * (beta * beta + gamma * 2) - beta * gamma * dbeta) / (gamma * disc)
            np_ = t.p.shift_up()          # n*P
            nq_plus_q = t.q.shift_up() + t.q  # (n+1)*Q
            # d(P*s(n)) -> s(n): n*P*v ; s(n+1): n*P*u
            # d(Q*s(n+1)) -> s(n): (n+1)*Q*u*gamma ; s(n+1): (n+1)*Q*(v + u*beta)
            p_new = p_new + np_.scale(v) + nq_plus_q.scale(u * gamma)
            q_new = q_new + np_.scale(u) + nq_plus_q.scale(v + u * beta)
        if not (p_new.is_zero and q_new.is_zero):
            quad_terms.append(QuadTerm(p_new, q_new, beta, gamma))

    return ExpPolynomial(
        prefix=prefix, terms=_merge_terms(terms), quad_terms=_merge_quad_terms(quad_terms)
    )


# ---------------------------------------------------------------------------
# Rendering / serialization
# ---------------------------------------------------------------------------


def _paren(s: str) -> str:
    if s.startswith("-") or any(op in s for op in (" + ", " - ", "/", "*", " ")):
        return f"({s})"
    return s


def render_exp_polynomial(f: ExpPolynomial) -> str:
    parts = []
    for t in f.terms:
        poly = str(t.poly)
        if t.base.is_one:
            parts.append(poly if t.poly.degree <= 0 else _paren(poly))
        else:
            parts.append(f"{_paren(poly)}*{_paren(str(t.base))}**n")
    for qt in f.quad_terms:
        parts.append(
            f"{_paren(str(qt.p))}*s[n] + {_paren(str(qt.q))}*s[n+1] "
            f"where s[k+1] = {_paren(str(qt.beta))}*s[k] + {_paren(str(qt.gamma))}*s[k-1], "
            f"s[0] = 2, s[1] = {str(qt.beta)}"
        )
    body = " + ".join(parts) if parts else "0"
    if not f.prefix:
        return body
    vals = ", ".join(f"{n}: {v}" for n, v in enumerate(f.prefix))
    return f"[{vals}]; for n >= {len(f.prefix)}: {body}"


def exp_polynomial_to_json(f: ExpPolynomial) -> dict:
    return {
        "prefix": [str(v) for v in f.prefix],
        "terms": [
            {"poly": [str(c) for c in t.poly.coeffs], "base": str(t.base)}
            for t in f.terms
        ],
        "quad_terms": [
            {
                "p": [str(c) for c in t.p.coeffs],
                "q": [str(c) for c in t.q.coeffs],
                "beta": str(t.beta),
                "gamma": str(t.gamma),
            }
            for t in f.quad_terms
        ],
    }
