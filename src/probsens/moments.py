"""Exact one-step recurrences for expectations of state monomials.

For a monomial M over the loop variables, ``MomentContext.recurrence`` expresses
E[M after one body pass] as a linear combination of expectations of monomials
of the state before the pass.  The derivation walks the normalized body
backward, replacing each assigned variable's powers by the expectation of the
assignment's right-hand side; guards become their exact truth polynomials
(interpolated over the finite value sets of the condition variables), and any
power of a finite-valued variable that meets or exceeds its value-set size is
rewritten to the canonical lower-degree polynomial agreeing with it pointwise.

That last canonicalization step is what makes products of guard indicators
collapse exactly (an indicator squared is itself), so chains of branch writes
cancel their "keep the old value" residues.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import add, itemgetter
from typing import Iterable, Optional

from .dependency import (
    Classification,
    DependencyGraph,
    build_graph,
    classify,
    variable_supports,
)
from .errors import (
    GuardNotSupportedError,
    NonFiniteGuardError,
    UninitializedVariableError,
)
from .normalize import normalize
from .parser import parse
from .symbolic import ParamExpr, pe
from .syntax import (
    BExpr,
    BTrue,
    DistDraw,
    NormalizedProgram,
    PolyExpr,
    VarMonomial,
    bexpr_eval,
    bexpr_params,
    bexpr_vars,
)

DEFAULT_EQUATION_CAP = 500
_GUARD_POINT_CAP = 100_000


def _lagrange_basis_poly(name: str, point: Fraction, values: Iterable[Fraction]) -> PolyExpr:
    """Polynomial in ``name`` that is 1 at ``point`` and 0 on the rest of ``values``."""
    acc = PolyExpr.const(Fraction(1))
    x = PolyExpr.var(name)
    for s in values:
        if s != point:
            acc = acc * (x - PolyExpr.const(s)).scale(pe(Fraction(1, 1) / (point - s)))
    return acc


def dist_moment(kind: str, args: tuple[ParamExpr, ...], k: int) -> ParamExpr:
    """k-th raw moment of a primitive distribution, exactly."""
    if k < 0:
        raise ValueError("moment order must be non-negative")
    if k == 0:
        return pe(1)
    if kind == "Bernoulli":
        return args[0]
    if kind == "Uniform":
        a, b = args
        return (b ** (k + 1) - a ** (k + 1)) / ((b - a) * pe(k + 1))
    if kind == "DiscreteUniform":
        lo, hi = (arg.as_fraction() for arg in args)
        if lo.denominator != 1 or hi.denominator != 1 or hi < lo:
            raise ValueError(f"DiscreteUniform bounds must be integers, got {lo}, {hi}")
        total = sum(Fraction(i) ** k for i in range(int(lo), int(hi) + 1))
        return pe(total / (hi - lo + 1))
    if kind == "Normal":
        mean, var = args
        prev2, prev1 = pe(1), mean
        for j in range(2, k + 1):
            prev2, prev1 = prev1, mean * prev1 + pe(j - 1) * var * prev2
        return prev1
    raise ValueError(f"unknown distribution {kind!r}")


#: Sorts after every exponent in a monomial's key: an absent variable.
_ABSENT = float("inf")


_ONE = ParamExpr.one()


def _accumulate(acc: dict, key, c) -> None:
    prev = acc.get(key)
    acc[key] = c if prev is None else prev + c


def _nonzero(terms: dict) -> dict:
    return {t: c for t, c in terms.items() if c}


class MomentContext:
    """Shared caches for deriving recurrences of one normalized program,
    including its dependency graph and its classification per parameter, so
    one analysis classifies the program once.

    Inside the context a polynomial is a dict from exponent tuples, one slot
    per variable in sorted name order, to ``ParamExpr`` coefficients, so a
    product of monomials is a sum of tuples.  The public methods take and
    return ``PolyExpr`` and ``VarMonomial`` values and convert monomials to
    tuples and back once, at the boundary.
    """

    def __init__(self, program: NormalizedProgram):
        self.program = program
        self.supports = variable_supports(program)
        self._graph: Optional[DependencyGraph] = None
        self._classifications: dict[str, Classification] = {}
        self._basis: dict[tuple[str, Fraction], PolyExpr] = {}
        self._recurrences: dict[VarMonomial, PolyExpr] = {}
        self._initials: dict[VarMonomial, ParamExpr] = {}
        self._coeffs: dict[ParamExpr, ParamExpr] = {}
        self._derivatives: dict[tuple[ParamExpr, str], ParamExpr] = {}
        names = set(program.all_variables)
        for _, rhs in program.init:
            names |= rhs.variables()
        for ga in program.body:
            names |= ga.rhs.variables() | bexpr_vars(ga.guard)
        self._set_order(names)

    def _set_order(self, names: Iterable[str]) -> None:
        """Lay exponent tuples out over ``names``, sorted; every cache of
        tuples starts empty."""
        self._order = tuple(sorted(names))
        self._slot = {v: i for i, v in enumerate(self._order)}
        self._one = (0,) * len(self._order)
        self._caps = [
            (i, len(s)) for i, v in enumerate(self._order) if (s := self.supports.get(v))
        ]
        self._tuples: dict[VarMonomial, tuple] = {}
        self._monomials: dict[tuple, tuple[tuple, VarMonomial]] = {}
        self._power_reps: dict[tuple[int, int], list] = {}
        self._truth_terms: dict[BExpr, dict] = {}
        self._powers: dict[tuple[int, int], dict[int, dict]] = {}
        self._power_values: dict[tuple[int, int], dict] = {}
        self._replacements: dict[tuple[int, int], dict] = {}

    def _admit(self, names: Iterable[str]) -> None:
        """Make room for variables the program does not mention."""
        if not self._slot.keys() >= set(names):
            self._set_order({*self._order, *names})

    # -- dependency facts ---------------------------------------------------

    @property
    def graph(self) -> DependencyGraph:
        if self._graph is None:
            self._graph = build_graph(self.program)
        return self._graph

    def classification(self, param: str) -> Classification:
        """The program's verdict with respect to ``param``, computed once."""
        cls = self._classifications.get(param)
        if cls is None:
            cls = classify(self.program, param, graph=self.graph, supports=self.supports)
            self._classifications[param] = cls
        return cls

    # -- exponent tuples ------------------------------------------------------

    def _tuple(self, mono: VarMonomial) -> tuple:
        t = self._tuples.get(mono)
        if t is None:
            exps = list(self._one)
            for v, e in mono.powers:
                exps[self._slot[v]] = e
            t = self._tuples[mono] = tuple(exps)
        return t

    def _terms(self, poly: PolyExpr) -> dict:
        return {self._tuple(m): c for m, c in poly.terms}

    def _monomial(self, t: tuple) -> tuple[tuple, VarMonomial]:
        """The monomial of ``t`` and its sort key.  The key orders as
        ``VarMonomial.deglex_key`` does: degree first, then the variables
        in name order, where a smaller exponent comes first and an absent
        variable last (``a, b, a*b, a**2, b**2``)."""
        hit = self._monomials.get(t)
        if hit is None:
            names = self._order
            mono = VarMonomial(tuple((names[i], e) for i, e in enumerate(t) if e))
            key = (sum(t), tuple(e or _ABSENT for e in t))
            hit = self._monomials[t] = (key, mono)
            self._tuples.setdefault(mono, t)
        return hit

    def _poly(self, terms: dict, intern: bool = False) -> PolyExpr:
        rows = [(*self._monomial(t), c) for t, c in terms.items()]
        rows.sort(key=itemgetter(0))
        return PolyExpr(tuple((mono, self.intern(c) if intern else c) for _, mono, c in rows))

    # -- canonicalization over finite value sets ----------------------------

    def _lagrange_basis(self, v: str, point: Fraction) -> PolyExpr:
        key = (v, point)
        cached = self._basis.get(key)
        if cached is None:
            cached = _lagrange_basis_poly(v, point, sorted(self.supports[v]))
            self._basis[key] = cached
        return cached

    def _power_rep(self, i: int, e: int) -> list:
        """The terms ``(j, c)`` of the polynomial of degree < |values| in
        slot ``i``'s variable that equals its ``e``-th power on its values."""
        key = (i, e)
        cached = self._power_reps.get(key)
        if cached is None:
            v = self._order[i]
            acc: dict = {}
            for point in sorted(self.supports[v]):
                scale = pe(point**e)
                for m, c in self._lagrange_basis(v, point).terms:
                    _accumulate(acc, m.degree, c * scale)
            cached = self._power_reps[key] = list(_nonzero(acc).items())
        return cached

    def _reduce(self, terms: dict, out: dict) -> dict:
        """Add ``terms`` to ``out`` with every over-high variable power
        rewritten to its canonical form; ``out`` needs no rewriting."""
        caps = self._caps
        work = list(terms.items())
        while work:
            t, c = work.pop()
            for i, size in caps:
                if t[i] >= size:
                    head, tail = t[:i], t[i + 1:]
                    work.extend(
                        ((*head, j, *tail), c * r) for j, r in self._power_rep(i, t[i])
                    )
                    break
            else:
                _accumulate(out, t, c)
        return _nonzero(out)

    def reduce(self, poly: PolyExpr) -> PolyExpr:
        """Rewrite every over-high variable power to its canonical form."""
        self._admit(poly.variables())
        return self._poly(self._reduce(self._terms(poly), {}))

    def _truth_of(self, guard: BExpr) -> dict:
        cached = self._truth_terms.get(guard)
        if cached is not None:
            return cached
        if isinstance(guard, BTrue):
            return {self._one: _ONE}
        params = bexpr_params(guard)
        if params:
            raise GuardNotSupportedError(
                f"condition {sorted(params)} compares against parameters; "
                "expectations over such branches have no polynomial form"
            )
        names = sorted(bexpr_vars(guard))
        sets = []
        points = 1
        for v in names:
            s = self.supports[v]
            if s is None:
                raise NonFiniteGuardError((v,))
            points *= len(s)
            if points > _GUARD_POINT_CAP:
                raise GuardNotSupportedError(
                    f"condition over {names} spans {points} value combinations"
                )
            sets.append(sorted(s))
        acc: dict = {}
        for combo in product(*sets):
            if bexpr_eval(guard, dict(zip(names, combo))):
                piece = {self._one: _ONE}
                for v, point in zip(names, combo):
                    piece = self._product(piece, self._terms(self._lagrange_basis(v, point)))
                for t, c in piece.items():
                    _accumulate(acc, t, c)
        cached = self._truth_terms[guard] = self._reduce(_nonzero(acc), {})
        return cached

    # -- one-step substitution ----------------------------------------------

    @staticmethod
    def _product(a: dict, b: dict) -> dict:
        out: dict = {}
        for ta, ca in a.items():
            for tb, cb in b.items():
                _accumulate(out, tuple(map(add, ta, tb)), ca * cb)
        return _nonzero(out)

    def _power_value(self, rhs, k: int) -> dict:
        """E[(assigned value)**k] in the pre-assignment state.

        Memoized by the identity of ``rhs``, which the program keeps alive.
        Each choice's powers are memoized by exponent, and ``poly**k`` is
        ``poly**m`` times ``poly**(k-m)``, m the largest memoized exponent
        below k: one product for k = m + 1, and for each square of a
        squaring loop."""
        key = (id(rhs), k)
        cached = self._power_values.get(key)
        if cached is not None:
            return cached
        if isinstance(rhs, DistDraw):
            cached = _nonzero({self._one: dist_moment(rhs.kind, rhs.args, k)})
        else:
            cached = {}
            for j, (poly, prob) in enumerate(rhs.choices):
                powers = self._powers.get((id(rhs), j))
                if powers is None:
                    powers = self._powers[id(rhs), j] = {0: {self._one: _ONE}, 1: self._terms(poly)}
                chain, e = [], k
                while e not in powers:
                    m = max(x for x in powers if x < e)
                    chain.append((e, m))
                    e -= m
                for e, m in reversed(chain):
                    powers[e] = self._product(powers[m], powers[e - m])
                for t, c in powers[k].items():
                    _accumulate(cached, t, c * prob)
            cached = _nonzero(cached)
        self._power_values[key] = cached
        return cached

    def _replacement(self, index: int, k: int) -> dict:
        """E[target**k] after the guarded assignment ``body[index]``."""
        key = (index, k)
        cached = self._replacements.get(key)
        if cached is not None:
            return cached
        ga = self.program.body[index]
        value = self._power_value(ga.rhs, k)
        if isinstance(ga.guard, BTrue):
            cached = value
        else:
            truth = self._truth_of(ga.guard)
            kept = list(self._one)
            kept[self._slot[ga.else_source]] = k
            untrue = {self._one: _ONE}
            for t, c in truth.items():
                _accumulate(untrue, t, -c)
            cached = self._product(truth, value)
            for t, c in self._product(_nonzero(untrue), {tuple(kept): _ONE}).items():
                _accumulate(cached, t, c)
            cached = _nonzero(cached)
        self._replacements[key] = cached
        return cached

    @staticmethod
    def _split(terms: dict, i: int, value_of) -> tuple[dict, dict]:
        """The terms free of slot ``i``, and the sum of the others with
        slot ``i``'s power k replaced by the terms ``value_of(k)``."""
        kept, new = {}, {}
        for t, c in terms.items():
            k = t[i]
            if not k:
                kept[t] = c
                continue
            rest = t[:i] + (0,) + t[i + 1:]
            for m, r in value_of(k).items():
                _accumulate(new, tuple(map(add, rest, m)), c * r)
        return kept, _nonzero(new)

    def _substitute(self, terms: dict, index: int) -> dict:
        """``terms``, already reduced, with the target of ``body[index]``
        replaced; only the replaced terms need reducing again."""
        i = self._slot[self.program.body[index].target]
        kept, new = self._split(terms, i, lambda k: self._replacement(index, k))
        return self._reduce(new, kept)

    def recurrence(self, monomial: VarMonomial) -> PolyExpr:
        """E[monomial] after one body pass, linear in pre-pass expectations."""
        cached = self._recurrences.get(monomial)
        if cached is not None:
            return cached
        self._admit(monomial.variables())
        terms = self._reduce({self._tuple(monomial): _ONE}, {})
        for index in reversed(range(len(self.program.body))):
            terms = self._substitute(terms, index)
        poly = self._poly(terms, intern=True)
        self._recurrences[monomial] = poly
        return poly

    def intern(self, coeff: ParamExpr) -> ParamExpr:
        """The context's one object for ``coeff``'s value.

        Recurrences of one program repeat a few coefficient values many
        times; sharing one object per value shares its printed form too."""
        return self._coeffs.setdefault(coeff, coeff)

    def derivative(self, coeff: ParamExpr, param: str) -> ParamExpr:
        """``coeff.diff(param)``, interned, computed once per value."""
        key = (coeff, param)
        d = self._derivatives.get(key)
        if d is None:
            d = self._derivatives[key] = self.intern(coeff.diff(param))
        return d

    def initial(self, monomial: VarMonomial) -> ParamExpr:
        """E[monomial] before the first iteration.

        No canonicalization happens here: a variable first written inside the
        loop has no initial value, and silently projecting it onto its
        eventual value set would manufacture one.
        """
        cached = self._initials.get(monomial)
        if cached is not None:
            return cached
        self._admit(monomial.variables())
        terms = {self._tuple(monomial): _ONE}
        for v, rhs in reversed(self.program.init):
            terms, new = self._split(terms, self._slot[v], lambda k: self._power_value(rhs, k))
            for t, c in new.items():
                _accumulate(terms, t, c)
            terms = _nonzero(terms)
        missing = {self._order[i] for t in terms for i, e in enumerate(t) if e}
        if missing:
            raise UninitializedVariableError(tuple(sorted(missing)))
        value = terms.get(self._one, ParamExpr.zero())
        self._initials[monomial] = value
        return value


def _as_context(program) -> MomentContext:
    if isinstance(program, MomentContext):
        return program
    if isinstance(program, str):
        program = normalize(parse(program))
    return MomentContext(program)
