"""Closed forms for linear recurrence systems with constant coefficients.

A closed system ``s(n+1) = A·s(n) + forcing`` is condensed into strongly
connected blocks processed in dependency order.  Each block contributes a
scalar annihilator — its characteristic polynomial times one factor per
eigenvalue of the already-solved forcing inputs — whose roots fix the
exponential-polynomial shape of every symbol in the block.  The remaining
undetermined coefficients are solved against exact seed values obtained by
iterating the full system symbolically, then double-checked on three extra
indices.  All of this is exact linear algebra in one field: Q(params), the
rational functions of the system's parameters.

Zero eigenvalues (nilpotent behaviour) and forcing inputs that are only
valid from some index onward both turn into an explicit prefix of tabulated
values; the ansatz applies from the first index where every ingredient is
in closed form.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

import sympy as sp
from sympy.polys.densearith import dup_mul
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

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
    "ScalarCFinite",
    "factor_charpoly",
    "solve_system",
]

#: Number of indices beyond the seed window on which every solved closed
#: form is re-checked against direct iteration.
VERIFICATION_POINTS = 3


@dataclass(frozen=True)
class ScalarCFinite:
    """A single sequence satisfying a linear recurrence with constant
    coefficients:

        u(base + n + order) = sum_i coefficients[i] * u(base + n + i)

    for all n >= 0, together with the seed values u(base), ...,
    u(base + order - 1) that pin down the solution.
    """

    coefficients: tuple[ParamExpr, ...]
    seeds: tuple[ParamExpr, ...]
    base: int = 0

    def __post_init__(self):
        if len(self.seeds) != len(self.coefficients):
            raise ValueError("need exactly one seed per recurrence order")

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def char_poly(self, x: sp.Symbol) -> sp.Expr:
        """x**order - c_{order-1}*x**(order-1) - ... - c_0."""
        acc: sp.Expr = x ** self.order
        for i, c in enumerate(self.coefficients):
            acc -= c.e * x ** i
        return sp.expand(acc)

    def values(self, upto: int) -> list[ParamExpr]:
        """u(base), ..., u(base + upto) by direct iteration."""
        vals = list(self.seeds)
        while len(vals) <= upto:
            acc = ParamExpr.zero()
            for i, c in enumerate(self.coefficients):
                acc = acc + c * vals[len(vals) - self.order + i]
            vals.append(acc)
        return vals[: upto + 1]


# ---------------------------------------------------------------------------
# Characteristic-polynomial factoring
# ---------------------------------------------------------------------------


def factor_charpoly(q, x: sp.Symbol) -> list[tuple[sp.Expr, int]]:
    """Factor a polynomial in ``x`` over the field of parameter fractions.

    Returns ``[(factor, multiplicity), ...]`` with every factor monic-able in
    ``x`` and irreducible over the rational functions of the parameters; any
    irreducible factor of degree >= 3 is returned as-is (the caller decides
    whether that is fatal).  Factors free of ``x`` are dropped as units.
    """
    expr = q.as_expr() if isinstance(q, (sp.Poly, sp.PurePoly)) else sp.sympify(q)
    num, _den = sp.fraction(sp.together(sp.expand(expr)))
    out: list[tuple[sp.Expr, int]] = []
    for fac, mult in sp.factor_list(num)[1]:
        if sp.degree(fac, x) > 0:
            out.append((fac, int(mult)))
    out.sort(key=lambda fm: (sp.degree(fm[0], x), sp.default_sort_key(fm[0])))
    return out


def _classify_factors(factors: Sequence[tuple[sp.Expr, int]], x: sp.Symbol):
    """Split factors into zero roots, rational eigenvalues, irreducible
    quadratics (as x**2 - beta*x - gamma), and anything harder.  Eigenvalues
    and quadratics map to their multiplicities, in the order of ``factors``."""
    zero_mult = 0
    linear: dict[ParamExpr, int] = {}
    quads: dict[tuple[ParamExpr, ParamExpr], int] = {}
    hard: list[tuple[sp.Expr, int]] = []
    for fac, mult in factors:
        p = sp.Poly(fac, x)
        deg = p.degree()
        cs = [pe(c) for c in p.all_coeffs()]
        if deg == 1:
            lam = -cs[1] / cs[0]
            if lam.is_zero:
                zero_mult += mult
            else:
                _accumulate(linear, lam, mult)
        elif deg == 2:
            _accumulate(quads, (-cs[1] / cs[0], -cs[2] / cs[0]), mult)
        else:
            hard.append((fac, mult))
    return zero_mult, linear, quads, hard


def _accumulate(entries: dict, key, mult: int, combine=operator.add) -> None:
    """Combine ``mult`` into the entry for ``key``, else add it last: the
    order of the entries is the order of the closed-form terms."""
    entries[key] = combine(entries[key], mult) if key in entries else mult


# ---------------------------------------------------------------------------
# Dependency condensation
# ---------------------------------------------------------------------------


def _sccs(nodes: Sequence, successors: Mapping) -> list[list]:
    """Strongly connected components, dependencies before dependents."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    out: list[list] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(successors[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(successors[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                out.append(comp)
    return out


class ForwardIterator:
    """Exact forward iteration of a closed system, memoized row by row.

    ``equations`` maps each symbol to its ``(coefficient, symbol)`` terms and
    ``initials`` gives every value at n = 0, all as ``ParamExpr``.  The rows
    are computed in ``domain``, the parameter field of the whole system, and
    handed out as ``ParamExpr``.  With ``values``, every coefficient and
    initial value is evaluated once at those rational parameter values and
    the rows hold ``Fraction``s.
    """

    def __init__(self, equations, initials, values: Mapping[str, Fraction] | None = None):
        if values is None:
            initials = {s: pe(initials[s]) for s in equations}
            coefficients = [c for terms in equations.values() for c, _ in terms]
            self.domain = common_domain([*coefficients, *initials.values()])
            self._zero = self.domain.zero
        else:
            self.domain = None
            self._zero = Fraction(0)

        def convert(c):
            return to_domain(c, self.domain) if values is None else c.eval_fraction(values)

        self._eq = {
            s: tuple((convert(c), t) for c, t in terms) for s, terms in equations.items()
        }
        self._raw = [{s: convert(initials[s]) for s in equations}]
        self._rows: list[dict] = []

    def _advance(self, n: int) -> None:
        while len(self._raw) <= n:
            prev = self._raw[-1]
            nxt = {}
            for s, terms in self._eq.items():
                acc = self._zero
                for c, t in terms:
                    acc = acc + c * prev[t]
                nxt[s] = acc
            self._raw.append(nxt)

    def raw(self, sym, n: int):
        """The value at ``n`` as an element of ``domain`` (or a Fraction)."""
        self._advance(n)
        return self._raw[n][sym]

    def row(self, n: int) -> dict:
        self._advance(n)
        if self.domain is None:
            return self._raw[n]
        while len(self._rows) <= n:
            raw = self._raw[len(self._rows)]
            self._rows.append({s: ParamExpr(v) for s, v in raw.items()})
        return self._rows[n]

    def rows(self, steps: int) -> list[dict]:
        """Rows 0..steps."""
        return [self.row(n) for n in range(steps + 1)]

    def value(self, sym, n: int):
        v = self.raw(sym, n)
        return v if self.domain is None else ParamExpr(v)


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------


def solve_system(
    equations: Mapping[Hashable, Iterable[tuple]],
    initials: Mapping[Hashable, object],
    *,
    scalar_forms: dict | None = None,
) -> dict:
    """Closed forms for every sequence of a closed linear system.

    ``equations`` maps each symbol to the terms of its recurrence — pairs
    ``(coefficient, symbol)`` meaning ``s(n+1) = sum(c_i * t_i(n))`` — and
    ``initials`` gives every symbol's value at n = 0.  Coefficients must be
    constant in n (parameters are fine).  Returns a map from symbol to
    :class:`ExpPolynomial`; if ``scalar_forms`` is a dict, it is filled with
    the :class:`ScalarCFinite` each symbol was solved through.
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

    successors = {s: [t for _, t in eqs[s]] for s in eqs}
    iterator = ForwardIterator(eqs, initials)
    solved: dict = {}
    x = sp.Dummy("x")
    for block in _sccs(list(eqs), successors):
        _solve_block(block, eqs, iterator, solved, x, scalar_forms)
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


def _charpoly(block, eqs, domain, x: sp.Symbol) -> sp.Expr:
    """det(x*I - A) of the block's own coefficient matrix A."""
    m = len(block)
    pos = {s: i for i, s in enumerate(block)}
    rows = [[domain.zero] * m for _ in range(m)]
    for s in block:
        for c, t in eqs[s]:
            if t in pos:
                rows[pos[s]][pos[t]] += to_domain(c, domain)
    coeffs = DomainMatrix(rows, (m, m), domain).charpoly()  # leading first
    return sp.Add(*(domain.to_sympy(c) * x ** (m - i) for i, c in enumerate(coeffs)))


def _solve_block(block, eqs, iterator, solved, x, scalar_forms) -> None:
    bset = set(block)
    domain = iterator.domain
    chi = _charpoly(block, eqs, domain, x)
    zero_mult, linear, quads, hard = _classify_factors(factor_charpoly(chi, x), x)
    if hard:
        raise UnsupportedFactorError(str(hard[0][0]))

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

    if order == 0:
        # Purely nilpotent: everything dies after the prefix.
        for s in block:
            prefix = tuple(iterator.value(s, k) for k in range(n0))
            for extra in range(VERIFICATION_POINTS):
                if iterator.raw(s, n0 + extra):
                    raise SeedSystemError(
                        f"sequence {s!r} does not vanish after its transient"
                    )
            solved[s] = ExpPolynomial(prefix=prefix)
            if scalar_forms is not None:
                scalar_forms[s] = ScalarCFinite((), (), base=n0)
        return

    # One basis column per undetermined coefficient, evaluated on the seed
    # window n0 .. n0+order-1, in the system's field.
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
    if scalar_forms is not None:
        annihilator = _expanded_annihilator(linear, quads, domain)
    for j, s in enumerate(symbols):
        coeffs = [ParamExpr(solution[k][j]) for k in range(order)]
        closed = _assemble(
            tuple(iterator.value(s, k) for k in range(n0)), columns, coeffs
        )
        for extra in range(VERIFICATION_POINTS):
            n = n0 + order + extra
            if ep_value_symbolic(closed, n) != iterator.value(s, n):
                raise SeedSystemError(
                    f"closed form for {s!r} fails verification at n = {n}"
                )
        solved[s] = closed
        if scalar_forms is not None:
            scalar_forms[s] = ScalarCFinite(
                annihilator,
                tuple(iterator.value(s, n0 + i) for i in range(order)),
                base=n0,
            )


def _expanded_annihilator(linear, quads, domain) -> tuple[ParamExpr, ...]:
    """Coefficients c_i of the (monic) nonzero-eigenvalue annihilator,
    arranged as u(n+order) = sum_i c_i * u(n+i), multiplied out in
    ``domain[x]``."""
    one = domain.one
    acc = [one]  # leading coefficient first
    for lam, mult in linear.items():
        for _ in range(mult):
            acc = dup_mul(acc, [one, -to_domain(lam, domain)], domain)
    for (beta, gamma), mult in quads.items():
        factor = [one, -to_domain(beta, domain), -to_domain(gamma, domain)]
        for _ in range(mult):
            acc = dup_mul(acc, factor, domain)
    return tuple(ParamExpr(-c) for c in reversed(acc[1:]))


def _assemble(prefix, columns, coeffs) -> ExpPolynomial:
    by_lam: dict = {}
    lam_order: list = []
    by_quad: dict = {}
    quad_order: list = []
    for col, c in zip(columns, coeffs):
        kind, payload, j = col
        if kind == "lin":
            key = payload
            if key not in by_lam:
                by_lam[key] = []
                lam_order.append(key)
            _set_coeff(by_lam[key], j, c)
        else:
            if payload not in by_quad:
                by_quad[payload] = ([], [])
                quad_order.append(payload)
            which = 0 if kind == "quad_s" else 1
            _set_coeff(by_quad[payload][which], j, c)
    terms = []
    for lam in lam_order:
        poly = CounterPoly.make(by_lam[lam])
        if not poly.is_zero:
            terms.append(ExpTerm(poly, lam))
    quad_terms = []
    for beta, gamma in quad_order:
        p_c, q_c = by_quad[(beta, gamma)]
        p_poly = CounterPoly.make(p_c)
        q_poly = CounterPoly.make(q_c)
        if not (p_poly.is_zero and q_poly.is_zero):
            quad_terms.append(QuadTerm(p_poly, q_poly, beta, gamma))
    return ExpPolynomial(prefix=prefix, terms=tuple(terms), quad_terms=tuple(quad_terms))


def _set_coeff(buf: list, j: int, value: ParamExpr) -> None:
    while len(buf) <= j:
        buf.append(ParamExpr.zero())
    buf[j] = value
