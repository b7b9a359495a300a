"""Exact symbolic arithmetic: rational functions of parameters and
exponential polynomials in the loop counter.

``ParamExpr`` wraps a sympy expression kept in cancelled p/q form, so
structural equality coincides with mathematical equality.  Closed forms of
moment sequences are ``ExpPolynomial`` values: an explicit transient prefix
plus a sum of ``P(n) * base**n`` terms, where conjugate algebraic base pairs
are represented jointly by ``QuadTerm`` (coefficients stay rational).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

import sympy as sp

from .errors import SingularParameterError

_ZERO = sp.Integer(0)
_ONE = sp.Integer(1)


def _to_sympy(value) -> sp.Expr:
    if isinstance(value, ParamExpr):
        return value.e
    if isinstance(value, bool):
        raise TypeError("boolean is not a parameter expression")
    if isinstance(value, int):
        return sp.Integer(value)
    if isinstance(value, Fraction):
        return sp.Rational(value.numerator, value.denominator)
    if isinstance(value, str):
        return sp.Symbol(value)
    if isinstance(value, sp.Expr):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass Fraction or int")
    raise TypeError(f"cannot build a parameter expression from {value!r}")


class ParamExpr:
    """An exact rational function of the symbolic parameters.

    The wrapped sympy expression is always ``sp.cancel``-ed, i.e. kept as a
    reduced fraction of expanded polynomials, which makes ``==`` and ``hash``
    agree with mathematical equality.
    """

    __slots__ = ("e",)

    def __init__(self, value: Union[int, Fraction, str, sp.Expr, "ParamExpr"]):
        e = _to_sympy(value)
        if not (e.is_Symbol or e.is_Rational):
            e = sp.cancel(sp.together(e))
        object.__setattr__(self, "e", e)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero() -> "ParamExpr":
        return _PE_ZERO

    @staticmethod
    def one() -> "ParamExpr":
        return _PE_ONE

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "ParamExpr":
        return ParamExpr(self.e + _to_sympy(other))

    __radd__ = __add__

    def __sub__(self, other) -> "ParamExpr":
        return ParamExpr(self.e - _to_sympy(other))

    def __rsub__(self, other) -> "ParamExpr":
        return ParamExpr(_to_sympy(other) - self.e)

    def __mul__(self, other) -> "ParamExpr":
        return ParamExpr(self.e * _to_sympy(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ParamExpr":
        d = _to_sympy(other)
        if sp.cancel(d) == _ZERO:
            raise ZeroDivisionError("division by an identically zero expression")
        return ParamExpr(self.e / d)

    def __rtruediv__(self, other) -> "ParamExpr":
        return ParamExpr(_to_sympy(other)) / self

    def __pow__(self, k: int) -> "ParamExpr":
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0 and self.is_zero:
            raise ZeroDivisionError("zero raised to a negative power")
        return ParamExpr(self.e ** k)

    def __neg__(self) -> "ParamExpr":
        return ParamExpr(-self.e)

    # -- predicates & queries ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.e == _ZERO

    @property
    def is_one(self) -> bool:
        return self.e == _ONE

    @property
    def is_rational(self) -> bool:
        return self.e.is_Rational

    def free_params(self) -> frozenset[str]:
        return frozenset(s.name for s in self.e.free_symbols)

    def diff(self, param: str) -> "ParamExpr":
        return ParamExpr(sp.diff(self.e, sp.Symbol(param)))

    def as_fraction(self) -> Fraction:
        if not self.e.is_Rational:
            raise ValueError(f"{self.e} is not a plain rational number")
        return Fraction(int(self.e.p), int(self.e.q))

    def eval_fraction(self, values: Mapping[str, Fraction]) -> Fraction:
        """Evaluate exactly at rational parameter values.

        Raises ``SingularParameterError`` if the denominator vanishes there.
        """
        subs = {
            sp.Symbol(name): sp.Rational(v.numerator, v.denominator)
            for name, v in values.items()
        }
        num, den = self.e.as_numer_denom()
        den_v = den.subs(subs)
        if not den_v.is_Rational:
            missing = sorted(s.name for s in den_v.free_symbols)
            raise ValueError(f"unassigned parameter(s): {', '.join(missing)}")
        if den_v == _ZERO:
            raise SingularParameterError(str(den))
        num_v = num.subs(subs)
        if not num_v.is_Rational:
            missing = sorted(s.name for s in num_v.free_symbols)
            raise ValueError(f"unassigned parameter(s): {', '.join(missing)}")
        return Fraction(int(num_v.p), int(num_v.q)) / Fraction(int(den_v.p), int(den_v.q))

    # -- dunder plumbing --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamExpr(other)
        if not isinstance(other, ParamExpr):
            return NotImplemented
        if self.e == other.e:
            return True
        # The cancelled form is canonical in practice; fall back to an exact
        # difference check so equality never silently depends on ordering.
        return sp.cancel(self.e - other.e) == _ZERO

    def __hash__(self) -> int:
        return hash(self.e)

    def __str__(self) -> str:
        return str(self.e)

    def __repr__(self) -> str:
        return f"ParamExpr({self.e})"


_PE_ZERO = ParamExpr(0)
_PE_ONE = ParamExpr(1)


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

    def eval_symbolic(self, n: int) -> ParamExpr:
        acc = ParamExpr.zero()
        for i, c in enumerate(self.coeffs):
            acc = acc + c * (n ** i)
        return acc

    def eval_fraction(self, n: int, values: Mapping[str, Fraction]) -> Fraction:
        acc = Fraction(0)
        for i, c in enumerate(self.coeffs):
            acc += c.eval_fraction(values) * Fraction(n) ** i
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


def _lucas_values_symbolic(beta: ParamExpr, gamma: ParamExpr, upto: int) -> list[ParamExpr]:
    """s(0..upto) for s(k+1) = beta*s(k) + gamma*s(k-1), s(0)=2, s(1)=beta."""
    vals = [ParamExpr(2), beta]
    while len(vals) <= upto:
        vals.append(beta * vals[-1] + gamma * vals[-2])
    return vals


def _lucas_values_fraction(beta: Fraction, gamma: Fraction, upto: int) -> list[Fraction]:
    vals = [Fraction(2), beta]
    while len(vals) <= upto:
        vals.append(beta * vals[-1] + gamma * vals[-2])
    return vals


def ep_value_symbolic(f: ExpPolynomial, n: int) -> ParamExpr:
    """Exact value at integer n as a ParamExpr."""
    if n < 0:
        raise ValueError("sequence index must be >= 0")
    if n < len(f.prefix):
        return f.prefix[n]
    acc = ParamExpr.zero()
    for t in f.terms:
        acc = acc + t.poly.eval_symbolic(n) * (t.base ** n)
    for qt in f.quad_terms:
        s = _lucas_values_symbolic(qt.beta, qt.gamma, n + 1)
        acc = acc + qt.p.eval_symbolic(n) * s[n] + qt.q.eval_symbolic(n) * s[n + 1]
    return acc


def ep_eval(f: ExpPolynomial, values: Mapping[str, Fraction], n: int) -> Fraction:
    """Exact rational evaluation at a parameter assignment and index n."""
    if n < 0:
        raise ValueError("sequence index must be >= 0")
    if n < len(f.prefix):
        return f.prefix[n].eval_fraction(values)
    acc = Fraction(0)
    for t in f.terms:
        acc += t.poly.eval_fraction(n, values) * t.base.eval_fraction(values) ** n
    for qt in f.quad_terms:
        s = _lucas_values_fraction(
            qt.beta.eval_fraction(values), qt.gamma.eval_fraction(values), n + 1
        )
        acc += qt.p.eval_fraction(n, values) * s[n]
        acc += qt.q.eval_fraction(n, values) * s[n + 1]
    return acc


def _merge_terms(terms: Iterable[ExpTerm]) -> tuple[ExpTerm, ...]:
    by_base: dict[ParamExpr, CounterPoly] = {}
    order: list[ParamExpr] = []
    for t in terms:
        if t.base not in by_base:
            by_base[t.base] = t.poly
            order.append(t.base)
        else:
            by_base[t.base] = by_base[t.base] + t.poly
    return tuple(
        ExpTerm(by_base[b], b) for b in order if not by_base[b].is_zero
    )


def _merge_quad_terms(terms: Iterable[QuadTerm]) -> tuple[QuadTerm, ...]:
    by_key: dict[tuple[ParamExpr, ParamExpr], tuple[CounterPoly, CounterPoly]] = {}
    order: list[tuple[ParamExpr, ParamExpr]] = []
    for t in terms:
        key = (t.beta, t.gamma)
        if key not in by_key:
            by_key[key] = (t.p, t.q)
            order.append(key)
        else:
            p0, q0 = by_key[key]
            by_key[key] = (p0 + t.p, q0 + t.q)
    out = []
    for key in order:
        p0, q0 = by_key[key]
        if p0.is_zero and q0.is_zero:
            continue
        out.append(QuadTerm(p0, q0, key[0], key[1]))
    return tuple(out)


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


def ep_extend_prefix(f: ExpPolynomial, n0: int) -> ExpPolynomial:
    """Return an equal sequence whose closed-form terms start at index >= n0."""
    if n0 <= len(f.prefix):
        return f
    prefix = tuple(ep_value_symbolic(f, n) for n in range(n0))
    return ExpPolynomial(prefix=prefix, terms=f.terms, quad_terms=f.quad_terms)


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
