"""Closed forms for linear recurrence systems with constant coefficients.

A closed system ``s(n+1) = A·s(n) + forcing`` is condensed into strongly
connected blocks processed in dependency order.  Each block contributes a
scalar annihilator — its characteristic polynomial times one factor per
eigenvalue of the already-solved forcing inputs — whose roots fix the
exponential-polynomial shape of every symbol in the block.  A block of one
symbol has the characteristic polynomial x - a, with ``a`` the sum of the
symbol's coefficients on itself, so its eigenvalue is read off directly;
only larger blocks build and factor a characteristic polynomial.  The
remaining undetermined coefficients are solved against exact seed values
obtained by iterating the full system symbolically, over one common
denominator, then double-checked on three extra indices.  All of this is
exact linear algebra in one field: Q(params), the rational functions of the
system's parameters.

Zero eigenvalues (nilpotent behaviour) and forcing inputs that are only
valid from some index onward both turn into an explicit prefix of tabulated
values; the ansatz applies from the first index where every ingredient is
in closed form.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce
from typing import Hashable, Iterable, Mapping, Sequence

import sympy as sp
from sympy import QQ
from sympy.polys.factortools import dup_factor_list
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError
from sympy.utilities.iterables import strongly_connected_components

from .errors import SeedSystemError, UnsupportedFactorError
from .symbolic import (
    CounterPoly,
    ExpPolynomial,
    ExpTerm,
    ParamExpr,
    QuadTerm,
    _lucas_values,
    common_domain,
    ep_value_symbolic,
    pe,
    to_domain,
)

__all__ = [
    "ForwardIterator",
    "factor_charpoly",
    "solve_system",
]

#: Number of indices beyond the seed window on which every solved closed
#: form is re-checked against direct iteration.
VERIFICATION_POINTS = 3

#: The variable in which a factor of a characteristic polynomial is printed.
_X = sp.Symbol("x")


# ---------------------------------------------------------------------------
# Characteristic-polynomial factoring
# ---------------------------------------------------------------------------


def factor_charpoly(coeffs: Sequence, domain) -> list[tuple[list, int]]:
    """Factor a dense polynomial (leading coefficient first) over ``domain``,
    the field of parameter fractions.

    Returns ``[(factor, multiplicity), ...]`` with every factor a dense list
    over ``domain``, irreducible there; any irreducible factor of degree >= 3
    is returned as-is (the caller decides whether that is fatal).  Constant
    factors are dropped as units.  Two or more factors are ordered by degree,
    then by the sympy sort key of the factor in ``x``, which fixes the order
    of the closed-form terms.
    """
    out = [(f, m) for f, m in dup_factor_list(coeffs, domain)[1] if len(f) > 1]
    if len(out) > 1:
        out.sort(key=lambda fm: (len(fm[0]), sp.default_sort_key(_as_expr(fm[0], domain))))
    return out


def _as_expr(f: Sequence, domain) -> sp.Expr:
    """The dense polynomial ``f`` over ``domain`` as a sympy expression in x."""
    deg = len(f) - 1
    return sp.Add(*(domain.to_sympy(c) * _X ** (deg - i) for i, c in enumerate(f)))


def _classify_factors(factors: Sequence[tuple[list, int]], domain):
    """Split factors into zero roots, eigenvalues and irreducible quadratics
    (as x**2 - beta*x - gamma), read off their coefficients in ``domain``.
    Eigenvalues and quadratics map to their multiplicities, in the order of
    ``factors``.  A factor of degree 3 or more raises
    ``UnsupportedFactorError``."""
    zero_mult = 0
    linear: dict[ParamExpr, int] = {}
    quads: dict[tuple[ParamExpr, ParamExpr], int] = {}
    for f, mult in factors:
        if len(f) == 2:
            if f[1]:
                _accumulate(linear, ParamExpr(-f[1] / f[0]), mult)
            else:
                zero_mult += mult
        elif len(f) == 3:
            key = (ParamExpr(-f[1] / f[0]), ParamExpr(-f[2] / f[0]))
            _accumulate(quads, key, mult)
        else:
            raise UnsupportedFactorError(str(_as_expr(f, domain)))
    return zero_mult, linear, quads


def _accumulate(entries: dict, key, mult: int, combine=operator.add) -> None:
    """Combine ``mult`` into the entry for ``key``, else add it last: the
    order of the entries is the order of the closed-form terms."""
    entries[key] = combine(entries[key], mult) if key in entries else mult


# ---------------------------------------------------------------------------
# Dependency condensation
# ---------------------------------------------------------------------------


def _sccs(eqs: Mapping) -> list[list]:
    """Strongly connected components of the system's dependency graph,
    dependencies before dependents.  Each lists its members in the reverse
    of the order a depth-first search from the first symbol of ``eqs``
    reaches them; a block's forcing eigenvalues are collected in that order."""
    edges = [(s, t) for s, terms in eqs.items() for _, t in terms]
    return [comp[::-1] for comp in strongly_connected_components((list(eqs), edges))]


class ForwardIterator:
    """Exact forward iteration of a closed system, memoized row by row.

    ``equations`` maps each symbol to its ``(coefficient, symbol)`` terms and
    ``initials`` gives every value at n = 0, all as ``ParamExpr``.  Values are
    handed out in ``domain``, the parameter field of the whole system (``raw``),
    or as ``ParamExpr`` (``value``, ``row``), but iterated over one common
    denominator: with ``D`` the lcm of the coefficients' denominators and
    ``E`` the lcm of the initial values', the value at n is
    ``U(n) / (E * D**n)``, where the numerators follow
    ``U_s(n+1) = sum((c.numer * D / c.denom) * U_t(n))`` in the ring of
    ``domain`` (``ZZ[params]``, or ``ZZ`` when there are no parameters) and
    no step cancels.  A value is cancelled once, when it is first handed out.
    With ``values``, every coefficient and initial value is evaluated once at
    those rational parameter values and the rows hold ``Fraction``s.
    """

    def __init__(self, equations, initials, values: Mapping[str, Fraction] | None = None):
        symbols = list(equations)
        if values is None:
            coefficients = [c for terms in equations.values() for c, _ in terms]
            starts = [pe(initials[s]) for s in symbols]
            self.domain = domain = common_domain([*coefficients, *starts])
            coefficients, self._step = _over_common_denominator(coefficients, domain)
            starts, start_den = _over_common_denominator(starts, domain)
            self._zero = domain.get_ring().zero
            self._fraction = QQ.new if domain is QQ else domain.field.new
            self._denominators = [start_den]
            self._reduced: dict = {}
            self._rows: list[dict] = []
        else:
            self.domain = None
            self._zero = Fraction(0)
            coefficients = [c.eval_fraction(values) for terms in equations.values() for c, _ in terms]
            starts = [initials[s].eval_fraction(values) for s in symbols]
        scaled = iter(coefficients)
        self._eq = {s: tuple((next(scaled), t) for _, t in terms) for s, terms in equations.items()}
        self._num = [dict(zip(symbols, starts))]

    def _advance(self, n: int) -> None:
        while len(self._num) <= n:
            prev = self._num[-1]
            nxt = {}
            for s, terms in self._eq.items():
                acc = self._zero
                for c, t in terms:
                    acc = acc + c * prev[t]
                nxt[s] = acc
            self._num.append(nxt)

    def raw(self, sym, n: int):
        """The value at ``n`` as an element of ``domain`` (or a Fraction)."""
        self._advance(n)
        if self.domain is None:
            return self._num[n][sym]
        out = self._reduced.get((sym, n))
        if out is None:
            dens = self._denominators
            while len(dens) <= n:
                dens.append(dens[-1] * self._step)
            out = self._reduced[sym, n] = self._fraction(self._num[n][sym], dens[n])
        return out

    def row(self, n: int) -> dict:
        self._advance(n)
        if self.domain is None:
            return self._num[n]
        while len(self._rows) <= n:
            k = len(self._rows)
            self._rows.append({s: ParamExpr(self.raw(s, k)) for s in self._eq})
        return self._rows[n]

    def rows(self, steps: int) -> list[dict]:
        """Rows 0..steps."""
        return [self.row(n) for n in range(steps + 1)]

    def value(self, sym, n: int):
        v = self.raw(sym, n)
        return v if self.domain is None else ParamExpr(v)


def _over_common_denominator(values: Sequence[ParamExpr], domain) -> tuple[list, object]:
    """``values`` as numerators over their least common denominator L, all
    in the ring of ``domain``: returns the numerators and L."""
    ring = domain.get_ring()
    fractions = [to_domain(v, domain) for v in values]
    dens = {domain.denom(f) for f in fractions}
    lcm = reduce(ring.lcm, dens, ring.one)
    scale = {den: ring.exquo(lcm, den) for den in dens}
    return [domain.numer(f) * scale[domain.denom(f)] for f in fractions], lcm


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------


def solve_system(
    equations: Mapping[Hashable, Iterable[tuple]],
    initials: Mapping[Hashable, object],
) -> dict:
    """Closed forms for every sequence of a closed linear system.

    ``equations`` maps each symbol to the terms of its recurrence — pairs
    ``(coefficient, symbol)`` meaning ``s(n+1) = sum(c_i * t_i(n))`` — and
    ``initials`` gives every symbol's value at n = 0.  Coefficients must be
    constant in n (parameters are fine).  Returns a map from symbol to
    :class:`ExpPolynomial`.
    """
    eqs: dict = {
        s: tuple((pe(c), t) for c, t in terms) for s, terms in equations.items()
    }
    for s, terms in eqs.items():
        for _, t in terms:
            if t not in eqs:
                raise ValueError(f"system is not closed: no equation for {t!r}")
    for s in eqs:
        if s not in initials:
            raise ValueError(f"missing initial value for {s!r}")

    iterator = ForwardIterator(eqs, initials)
    solved: dict = {}
    for block in _sccs(eqs):
        _solve_block(block, eqs, iterator, solved)
    return solved


def _solve_seed_system(seed_matrix, symbols, iterator, n0, order) -> list[list]:
    """Solve the Vandermonde-like seed system for every symbol in a block.

    ``seed_matrix`` is a ``DomainMatrix`` over the system's parameter field,
    and elimination runs in that field, so every intermediate entry is a
    reduced fraction.  Returns the solution rows, one column per symbol.
    """
    domain = iterator.domain
    rhs = DomainMatrix(
        [[iterator.raw(s, n0 + i) for s in symbols] for i in range(order)],
        (order, len(symbols)),
        domain,
    )
    try:
        solution = seed_matrix.lu_solve(rhs)
    except DMNonInvertibleMatrixError as exc:  # must never happen
        raise SeedSystemError(
            f"seed system for block {symbols!r} is singular: {exc}"
        ) from exc
    return solution.to_list()


def _charpoly(block, eqs, domain) -> list:
    """det(x*I - A) of the block's own coefficient matrix A, as a dense list
    over ``domain`` with the leading coefficient first."""
    m = len(block)
    pos = {s: i for i, s in enumerate(block)}
    rows = [[domain.zero] * m for _ in range(m)]
    for s in block:
        for c, t in eqs[s]:
            if t in pos:
                rows[pos[s]][pos[t]] += to_domain(c, domain)
    return DomainMatrix(rows, (m, m), domain).charpoly()


def _one_symbol_factors(s, eqs, domain):
    """What ``_classify_factors`` reads off the factors of the characteristic
    polynomial of the block of ``s`` alone.  That polynomial is x - a, with
    ``a`` the sum of the coefficients of ``s`` on itself; being linear, it is
    its own one irreducible factor, so it needs no determinant and no
    factoring."""
    a = sum((to_domain(c, domain) for c, t in eqs[s] if t == s), domain.zero)
    return (0, {ParamExpr(a): 1}, {}) if a else (1, {}, {})


def _solve_block(block, eqs, iterator, solved) -> None:
    bset = set(block)
    domain = iterator.domain
    if len(block) == 1:
        zero_mult, linear, quads = _one_symbol_factors(block[0], eqs, domain)
    else:
        chi = _charpoly(block, eqs, domain)
        zero_mult, linear, quads = _classify_factors(factor_charpoly(chi, domain), domain)

    # Forcing inputs are already in closed form; their eigenvalues join the
    # annihilator (multiplicities combine by max across inputs, since the
    # forcing annihilator is the lcm of the inputs'), and their prefixes delay
    # the index from which the ansatz is valid — by one extra step per zero
    # eigenvalue, because a nilpotent level forwards the off-pattern values.
    prefix_need = 0
    forced_linear: dict = {}
    forced_quads: dict = {}
    for s in block:
        for c, t in eqs[s]:
            if t in bset or c.is_zero:
                continue
            f = solved[t]
            prefix_need = max(prefix_need, f.start)
            for term in f.terms:
                _accumulate(forced_linear, term.base, term.poly.degree + 1, max)
            for qt in f.quad_terms:
                _accumulate(
                    forced_quads,
                    (qt.beta, qt.gamma),
                    max(qt.p.degree, qt.q.degree) + 1,
                    max,
                )
    for lam, mult in forced_linear.items():
        _accumulate(linear, lam, mult)
    for key, mult in forced_quads.items():
        _accumulate(quads, key, mult)

    n0 = zero_mult + prefix_need
    order = sum(linear.values()) + 2 * sum(quads.values())

    # One basis column per undetermined coefficient, evaluated on the seed
    # window n0 .. n0+order-1, in the system's field.  A nilpotent block has
    # none: its 0x0 seed system leaves a closed form that is only a prefix.
    columns: list[tuple] = []
    powers: dict = {}
    for lam, mult in linear.items():
        powers[lam] = to_domain(lam, domain)
        for j in range(mult):
            columns.append(("lin", lam, j))
    for (beta, gamma), mult in quads.items():
        powers[(beta, gamma)] = _lucas_values(
            to_domain(beta, domain), to_domain(gamma, domain), n0 + order, domain.convert(2)
        )
        for j in range(mult):
            columns.append(("quad_s", (beta, gamma), j))
            columns.append(("quad_s1", (beta, gamma), j))

    def column_value(col, n: int):
        kind, payload, j = col
        if kind == "lin":
            value = powers[payload] ** n
        else:
            value = powers[payload][n if kind == "quad_s" else n + 1]
        return value * n ** j if j else value

    seed_matrix = DomainMatrix(
        [[column_value(col, n0 + i) for col in columns] for i in range(order)],
        (order, order),
        domain,
    )
    symbols = list(block)
    solution = _solve_seed_system(seed_matrix, symbols, iterator, n0, order)
    for j, s in enumerate(symbols):
        coeffs = [ParamExpr(solution[k][j]) for k in range(order)]
        closed = _assemble(
            tuple(iterator.value(s, k) for k in range(n0)), linear, quads, coeffs
        )
        for extra in range(VERIFICATION_POINTS):
            n = n0 + order + extra
            if ep_value_symbolic(closed, n) != iterator.value(s, n):
                raise SeedSystemError(
                    f"closed form for {s!r} fails verification at n = {n}"
                )
        solved[s] = closed


def _assemble(prefix, linear, quads, coeffs) -> ExpPolynomial:
    """The closed form whose coefficients ``coeffs`` are laid out as the seed
    columns are: ``mult`` per eigenvalue, then ``2 * mult`` per quadratic
    factor, alternating its ``s`` and ``s1`` columns."""
    terms = []
    pos = 0
    for lam, mult in linear.items():
        poly = CounterPoly.make(coeffs[pos : pos + mult])
        pos += mult
        if not poly.is_zero:
            terms.append(ExpTerm(poly, lam))
    quad_terms = []
    for (beta, gamma), mult in quads.items():
        window = coeffs[pos : pos + 2 * mult]
        pos += 2 * mult
        p_poly, q_poly = CounterPoly.make(window[0::2]), CounterPoly.make(window[1::2])
        if not (p_poly.is_zero and q_poly.is_zero):
            quad_terms.append(QuadTerm(p_poly, q_poly, beta, gamma))
    return ExpPolynomial(prefix=prefix, terms=tuple(terms), quad_terms=tuple(quad_terms))
