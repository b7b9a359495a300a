"""Closed forms for linear recurrence systems with constant coefficients.

A closed system ``s(n+1) = A·s(n)`` is condensed into strongly connected
blocks, solved in dependency order.  The terms of a block's equations on
symbols of earlier blocks, whose closed forms are known, add up to one
forcing exponential polynomial g_s(n) per symbol, valid from the latest
start of its inputs.  The forcings, the residuals and the closed forms are
all held in the term map of :class:`~probsens.symbolic.ExpPolynomial`.
Everything is exact arithmetic in one field: Q(params), the rational
functions of the system's parameters.

A block of one symbol, s(n+1) = a·s(n) + g(n), is solved by undetermined
coefficients (Kauers and Paule, *The Concrete Tetrahedron*, on C-finite
sequences).  A forcing term P(n)·bⁿ has the particular term Q(n)·bⁿ with
b·Q(n+1) − a·Q(n) = P(n); its coefficients follow from the top down, one
division each, and deg Q = deg P + 1 when b = a.  A conjugate-pair
term takes a 2×2 system per degree, whose determinant is never zero.  The
coefficient of aⁿ comes from the value at n0; when a is 0 there is none,
and the closed form starts one step later.  Every block of the corpus
systems has one symbol.

A block of two or more symbols builds its characteristic polynomial,
factors it, and solves a Vandermonde-like seed system against iterated
values on a window of indices.  Zero eigenvalues (nilpotent behaviour) and
forcing inputs that are only valid from some index onward both delay n0,
the index from which the exponential polynomial holds; the values before it
are an explicit prefix.

Every block's closed forms are checked by one rule.  The residual
S(n+1) − A·S(n) − g(n) must be zero term by term, and S(n0) must equal the
iterated value.  Since the functions nʲbⁿ with distinct nonzero b are
linearly independent, the two together prove the closed form for all
n ≥ n0.  The residual is computed in the field like everything else, each
coefficient a reduced fraction compared with zero, and the value at n0
comes from the one evaluator of closed forms.  Forward iteration, one
reduced step at a time, is needed only for the prefixes, the values at n0
and the seed windows.

Only blocks of two or more symbols use sympy (its dense polynomial
factoring and its matrices over the parameter field), imported on the
first such block; their entries cross to sympy and back only inside
:func:`_solve_by_seeds` and the helpers it calls.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import comb
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import SeedSystemError, UnsupportedFactorError
from .symbolic import (
    ParamExpr,
    _ep_value,
    _lucas_values,
    accumulate_terms,
    common_gens,
    ep_make,
    ep_value_symbolic,
    from_sympy,
    pe,
    sympy_domain,
    to_sympy,
)

__all__ = [
    "ForwardIterator",
    "factor_charpoly",
    "solve_system",
]

_ZERO = ParamExpr.zero()
_MINUS_ONE = pe(-1)
_TWO = pe(2)


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
    import sympy as sp
    from sympy.polys.factortools import dup_factor_list

    out = [(f, m) for f, m in dup_factor_list(coeffs, domain)[1] if len(f) > 1]
    if len(out) > 1:
        out.sort(key=lambda fm: (len(fm[0]), sp.default_sort_key(_as_expr(fm[0], domain))))
    return out


def _as_expr(f: Sequence, domain):
    """The dense polynomial ``f`` over ``domain`` as a sympy expression in x,
    the variable a factor is printed in."""
    import sympy as sp

    x = sp.Symbol("x")
    deg = len(f) - 1
    return sp.Add(*(domain.to_sympy(c) * x ** (deg - i) for i, c in enumerate(f)))


def _classify_factors(factors: Sequence[tuple[list, int]], domain, gens: tuple):
    """Split factors into zero roots, eigenvalues and irreducible quadratics
    (as x**2 - beta*x - gamma), read off their coefficients in ``domain``,
    which is ``sympy_domain(gens)``.  Eigenvalues and quadratics map to their
    multiplicities, in the order of ``factors``.  A factor of degree 3 or
    more raises ``UnsupportedFactorError``."""
    zero_mult = 0
    linear: dict[ParamExpr, int] = {}
    quads: dict[tuple[ParamExpr, ParamExpr], int] = {}
    for f, mult in factors:
        if len(f) == 2:
            if f[1]:
                _accumulate(linear, from_sympy(-f[1] / f[0], domain, gens), mult)
            else:
                zero_mult += mult
        elif len(f) == 3:
            key = (from_sympy(-f[1] / f[0], domain, gens), from_sympy(-f[2] / f[0], domain, gens))
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
    dependencies before dependents, by Tarjan's algorithm without recursion.
    Each lists its members in the reverse of the order a depth-first search
    from the first symbol of ``eqs`` reaches them; a block's forcing
    eigenvalues are collected in that order."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    work: list = []  # (node, its successors not yet visited)
    out: list[list] = []

    def visit(node) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter([t for _, t in eqs[node]])))

    for root in eqs:
        if root in index:
            continue
        visit(root)
        while work:
            node, successors = work[-1]
            for nxt in successors:
                if nxt not in index:
                    visit(nxt)
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while not comp or comp[-1] != node:
                        comp.append(stack.pop())
                        on_stack.discard(comp[-1])
                    out.append(comp)
    return out


class ForwardIterator:
    """Exact forward iteration of a closed system, memoized row by row.

    ``equations`` maps each symbol to its ``(coefficient, symbol)`` terms and
    ``initials`` gives every value at n = 0, all as ``ParamExpr``.  Each step
    is reduced field arithmetic, and the rows hold ``ParamExpr``s; ``gens``
    are the parameters of the whole system, over which the solver works.
    With ``values``, every coefficient and initial value is evaluated once
    at those rational parameter values and the rows hold ``Fraction``s.
    """

    def __init__(self, equations, initials, values: Mapping[str, Fraction] | None = None):
        if values is None:
            convert = pe
        else:
            def convert(c):
                return pe(c).eval_fraction(values)

        self._eq = {s: tuple((convert(c), t) for c, t in terms) for s, terms in equations.items()}
        self._rows = [{s: convert(initials[s]) for s in equations}]
        self._zero = convert(ParamExpr.zero())
        coefficients = [c for terms in self._eq.values() for c, _ in terms]
        self.gens = common_gens([*coefficients, *self._rows[0].values()]) if values is None else None

    def row(self, n: int) -> dict:
        rows = self._rows
        while len(rows) <= n:
            prev = rows[-1]
            nxt = {}
            for s, terms in self._eq.items():
                acc = self._zero
                for c, t in terms:
                    acc = acc + c * prev[t]
                nxt[s] = acc
            rows.append(nxt)
        return rows[n]

    def rows(self, steps: int) -> list[dict]:
        """Rows 0..steps."""
        return [self.row(n) for n in range(steps + 1)]

    def value(self, sym, n: int):
        return self.row(n)[sym]


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
    :class:`~probsens.symbolic.ExpPolynomial`.
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


def _solve_block(block, eqs, iterator, solved: dict) -> None:
    """Solve and check one block, and add its closed forms to ``solved``."""
    matrix, forcing, start = _block_parts(block, eqs, solved)
    if len(block) == 1:
        (s,) = block
        closed, n0 = _solve_one_symbol(s, matrix[s].get(s, _ZERO), forcing[s], start, iterator)
    else:
        closed, n0 = _solve_by_seeds(block, matrix, forcing, start, iterator)
    solved.update(_check_block(block, n0, matrix, forcing, closed, iterator))


def _block_parts(block, eqs, solved):
    """What the rest of the system contributes to a block.

    Returns the block's own coefficient matrix A (``{s: {t: A_st}}``), each
    symbol's forcing g_s(n), the terms of the sum of ``c * T(n)`` over its
    terms on solved symbols, and the first index from which all of those are
    in closed form.  A base whose contributions cancel keeps its place with
    zero coefficients.
    """
    bset = set(block)
    matrix: dict = {}
    forcing: dict = {}
    start = 0
    for s in block:
        row = matrix[s] = {}
        sums = forcing[s] = {}
        for c, t in eqs[s]:
            if t in bset:
                row[t] = row[t] + c if t in row else c
            elif not c.is_zero:
                start = max(start, solved[t].start)
                accumulate_terms(sums, solved[t].terms, c)
    return matrix, forcing, start


# ---------------------------------------------------------------------------
# One-symbol blocks: undetermined coefficients
# ---------------------------------------------------------------------------


def _solve_one_symbol(s, a, forcing: dict, start: int, iterator):
    """The closed form of s(n+1) = a*s(n) + g(n), with g the ``forcing``
    valid from ``start`` on; returns it, as a one-entry map, with its n0.

    Each forcing term P(n)*b**n gets the particular term Q(n)*b**n with
    b*Q(n+1) - a*Q(n) = P(n), and each pair term its (u, v) likewise; the
    general solution adds K*a**n, fixed by the iterated value at n0.  When
    a is 0 there is no K, and the same formulas hold one step later.
    """
    parts: dict = {a: ([_ZERO],)} if not a.is_zero else {}
    for key, polys in forcing.items():
        if len(polys) == 2:
            parts[key] = _particular_pair(*polys, key, a)
            continue
        parts[key] = (_particular_coefficients(polys[0], key, a),)
    n0 = start + a.is_zero
    if not a.is_zero:
        # K*a**n0 + (the particular terms at n0) = s(n0)
        particular = _ep_value(ep_make((), parts), n0, pe, _TWO)
        parts[a][0][0] = (iterator.value(s, n0) - particular) / a**n0
    prefix = tuple(iterator.value(s, k) for k in range(n0))
    return {s: ep_make(prefix, parts)}, n0


def _particular_coefficients(poly: list, b, a) -> list:
    """Q with b*Q(n+1) - a*Q(n) = P(n), from the top coefficient down.  The
    n**k coefficient reads (b - a)*q_k + b*sum(C(j, k)*q_j for j > k) = p_k.
    When b = a the first term vanishes: the equation fixes q_(k+1) instead,
    Q is one degree above P, and q_0 is 0."""
    resonant = b == a
    out: list = [_ZERO] * (len(poly) + resonant)
    diff = b - a
    for k in range(len(poly) - 1, -1, -1):
        j = k + resonant  # the coefficient the n**k equation fixes
        rest = poly[k] - b * _binomial_tail(out, k, j + 1)
        out[j] = rest / (b * (k + 1) if resonant else diff)
    return out


def _particular_pair(p: list, q: list, pair, a) -> tuple[list, list]:
    """(u, v) with u(n)*s(n) + v(n)*s(n+1) the particular term of the pair
    term p(n)*s(n) + q(n)*s(n+1), where ``pair`` is (beta, gamma) and
    s(n+2) = beta*s(n+1) + gamma*s(n).  Matching s(n) and s(n+1) gives, per
    degree k, from the top down,

        -a*u_k + gamma*v_k     = p_k - gamma*V_k
        u_k + (beta - a)*v_k   = q_k - U_k - beta*V_k

    with U_k and V_k the sums over higher degrees j of C(j, k)*u_j and
    C(j, k)*v_j.  The determinant is minus the pair's quadratic
    x**2 - beta*x - gamma at a, never zero: the quadratic is irreducible."""
    beta, gamma = pair
    size = len(p)
    u: list = [None] * size
    v: list = [None] * size
    shifted = beta - a
    det = -a * shifted - gamma
    for k in range(size - 1, -1, -1):
        tail_u, tail_v = (_binomial_tail(c, k, k + 1) for c in (u, v))
        r1 = p[k] - gamma * tail_v
        r2 = q[k] - tail_u - beta * tail_v
        u[k] = (r1 * shifted - gamma * r2) / det
        v[k] = (-a * r2 - r1) / det
    return u, v


def _binomial_tail(coeffs: list, k: int, first: int) -> ParamExpr:
    """sum(C(j, k) * coeffs[j] for j >= first)."""
    return sum((coeffs[j] * comb(j, k) for j in range(first, len(coeffs))), _ZERO)


# ---------------------------------------------------------------------------
# Blocks of two or more symbols: factors and the seed system, in sympy
# ---------------------------------------------------------------------------


def _charpoly(block, matrix, domain, gens: tuple) -> list:
    """det(x*I - A) of the block's own coefficient matrix A, as a dense list
    over ``domain`` (``sympy_domain(gens)``) with the leading coefficient
    first."""
    from sympy.polys.matrices import DomainMatrix

    m = len(block)
    rows = [[to_sympy(matrix[s].get(t, _ZERO), domain, gens) for t in block] for s in block]
    return DomainMatrix(rows, (m, m), domain).charpoly()


def _solve_by_seeds(block, matrix, forcing, start, iterator):
    """Closed forms for a block from its factored characteristic polynomial
    and a seed system; returns them with the block's n0.  Everything from
    the characteristic polynomial to the seed solution is a sympy domain
    element; the eigenvalues and the solved coefficients come back as
    ``ParamExpr``s."""
    from sympy.polys.matrices import DomainMatrix

    gens = iterator.gens
    domain = sympy_domain(gens)
    chi = _charpoly(block, matrix, domain, gens)
    zero_mult, linear, quads = _classify_factors(factor_charpoly(chi, domain), domain, gens)

    # The forcing's bases join the annihilator, each with the largest
    # multiplicity any symbol's forcing needs; a zero eigenvalue delays the
    # ansatz by one step, because a nilpotent level forwards the off-pattern
    # values.
    forced_linear: dict = {}
    forced_quads: dict = {}
    for s in block:
        for key, polys in forcing[s].items():
            _accumulate(forced_linear if len(polys) == 1 else forced_quads, key, len(polys[0]), max)
    for lam, mult in forced_linear.items():
        _accumulate(linear, lam, mult)
    for key, mult in forced_quads.items():
        _accumulate(quads, key, mult)

    n0 = zero_mult + start
    order = sum(linear.values()) + 2 * sum(quads.values())

    # One basis column per undetermined coefficient, evaluated on the seed
    # window n0 .. n0+order-1, in the system's field.  A nilpotent block has
    # none: its 0x0 seed system leaves a closed form that is only a prefix.
    columns: list[tuple] = []
    powers: dict = {}
    for lam, mult in linear.items():
        powers[lam] = to_sympy(lam, domain, gens)
        for j in range(mult):
            columns.append(("lin", lam, j))
    for (beta, gamma), mult in quads.items():
        powers[(beta, gamma)] = _lucas_values(
            to_sympy(beta, domain, gens), to_sympy(gamma, domain, gens), n0 + order, domain.convert(2)
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
    closed = {}
    for j, s in enumerate(symbols):
        # The coefficients are laid out as the columns are: ``mult`` per
        # eigenvalue, then ``2 * mult`` per pair, alternating s and s1.
        coeffs = iter(from_sympy(row[j], domain, gens) for row in solution)
        parts: dict = {lam: ([next(coeffs) for _ in range(mult)],) for lam, mult in linear.items()}
        for key, mult in quads.items():
            window = [next(coeffs) for _ in range(2 * mult)]
            parts[key] = (window[0::2], window[1::2])
        prefix = tuple(iterator.value(s, k) for k in range(n0))
        closed[s] = ep_make(prefix, parts)
    return closed, n0


def _solve_seed_system(seed_matrix, symbols, iterator, n0, order) -> list[list]:
    """Solve the Vandermonde-like seed system for every symbol in a block.

    ``seed_matrix`` is a ``DomainMatrix`` over the system's parameter field,
    and elimination runs in that field, so every intermediate entry is a
    reduced fraction.  Returns the solution rows, one column per symbol.
    """
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

    domain, gens = seed_matrix.domain, iterator.gens
    rhs = DomainMatrix(
        [[to_sympy(iterator.value(s, n0 + i), domain, gens) for s in symbols] for i in range(order)],
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


# ---------------------------------------------------------------------------
# The check every block's closed forms pass
# ---------------------------------------------------------------------------


def _check_block(block, n0, matrix, forcing, closed, iterator) -> dict:
    """Prove the block's closed forms for every n >= n0, or raise
    ``SeedSystemError``; returns them.

    For each symbol the residual S(n+1) - A*S(n) - g(n) must be the zero
    exponential polynomial, and S(n0) must equal the iterated value.  The
    functions n**j * b**n (and the pair terms) are linearly independent, so
    the first makes the recurrence hold at every n >= n0, and the second
    starts the induction.  Values before n0 are the prefix, read off the
    iteration.
    """
    for s in block:
        residual = _residual(s, matrix[s], closed, forcing[s])
        if any(not x.is_zero for polys in residual.values() for poly in polys for x in poly):
            raise SeedSystemError(
                f"closed form for {s!r} fails verification: it does not satisfy its recurrence"
            )
        if ep_value_symbolic(closed[s], n0) != iterator.value(s, n0):
            raise SeedSystemError(f"closed form for {s!r} fails verification at n = {n0}")
    return closed


def _residual(s, row, closed, forcing) -> dict:
    """The terms of S_s(n+1) - sum(A_st * S_t(n)) - g_s(n), every coefficient
    reduced in the field.  ``row`` maps each block symbol t to A_st,
    ``closed`` holds the block's closed forms and ``forcing`` is g_s."""
    sums = _step(closed[s].terms, row.get(s, _ZERO))
    for t, c in row.items():
        if t != s:
            accumulate_terms(sums, closed[t].terms, -c)
    return accumulate_terms(sums, forcing, _MINUS_ONE)


def _step(parts: dict, a: ParamExpr) -> dict:
    """S(n+1) - a*S(n) for the terms ``parts`` of S(n).  A term
    Q(n)*b**n becomes ((b - a)*Q(n) + b*(Q(n+1) - Q(n)))*b**n, which is one
    product per coefficient when Q is constant.  A pair term
    u(n)*s(n) + v(n)*s(n+1) becomes (gamma*v(n+1) - a*u(n))*s(n) +
    (u(n+1) + beta*v(n+1) - a*v(n))*s(n+1), since
    s(n+2) = beta*s(n+1) + gamma*s(n)."""
    out = {}
    for key, polys in parts.items():
        if len(polys) == 1:
            (q,) = polys
            b_a = key - a
            out[key] = ([b_a * x + key * d for x, d in zip(q, _binomial_sums(q, 1))],)
            continue
        beta, gamma = key
        width = max(map(len, polys))
        u, v = ([*c, *[_ZERO] * (width - len(c))] for c in polys)
        u1, v1 = _binomial_sums(u, 0), _binomial_sums(v, 0)
        out[key] = (
            [gamma * y1 - a * x for x, y1 in zip(u, v1)],
            [x1 + beta * y1 - a * y for x1, y1, y in zip(u1, v1, v)],
        )
    return out


def _binomial_sums(poly: list, offset: int) -> list:
    """sum(C(j, k) * p_j for j >= k + offset) for each k: the coefficients
    of P(n+1) for offset 0, of P(n+1) - P(n) for offset 1."""
    return [_binomial_tail(poly, k, k + offset) for k in range(len(poly))]
