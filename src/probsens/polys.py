"""Sparse integer polynomials in named parameters, with no dependency beyond
the standard library.

A polynomial in ZZ[x_1, ..., x_k] is a ``Poly``: a dict from exponent tuples,
one slot per generator, to nonzero ints.  A polynomial does not know its
generators; whoever holds one keeps them as a tuple of names in the order of
:func:`gens_of`, and :func:`relayout` moves a polynomial to a larger tuple.
The field of fractions of these polynomials, Q(params), is
``symbolic.ParamExpr``, whose field operations cancel with :func:`cofactors`.

The gcd is the heuristic one of Char, Geddes and Gonnet ("GCDHEU: Heuristic
polynomial GCD algorithm based on integer GCD computation", J. Symbolic
Computation 7, 1989), and it is the only one: evaluate the first variable at
an integer xi, take the gcd of the two images, rebuild a candidate from the
xi-adic expansion of that gcd, and keep it if it divides both inputs, else
take a larger xi.  Past a bound on xi a candidate that divides both is the
gcd, and only finitely many values of xi give a candidate that does not, so
the loop ends with the gcd (see :func:`_heu`).  Operands of one term, the
common case, take a direct path.
"""

from __future__ import annotations

from math import gcd
from operator import add as _plus, sub as _minus

__all__ = [
    "Poly",
    "cofactors",
    "constant",
    "content",
    "diff",
    "divide",
    "evaluate",
    "gens_of",
    "is_ground",
    "is_one",
    "lc",
    "quo_ground",
    "relayout",
]


class Poly(dict):
    """A sparse polynomial over ZZ: exponent tuple -> nonzero int.

    Treated as immutable once built.  ``+``, ``-`` and ``*`` take two
    polynomials over the same generators; ``*`` also takes an int."""

    __slots__ = ()

    def __add__(self, other: "Poly") -> "Poly":
        out = Poly(self)
        get = out.get
        for m, c in other.items():
            c += get(m, 0)
            if c:
                out[m] = c
            else:
                del out[m]
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.items()})

    def __mul__(self, other) -> "Poly":
        if type(other) is int:
            if other == 1:
                return self
            return Poly({m: c * other for m, c in self.items()}) if other else Poly()
        if len(self) < len(other):
            self, other = other, self
        if len(other) == 1:
            ((m2, c2),) = other.items()
            if not any(m2):
                return self * c2
            return Poly({tuple(map(_plus, m, m2)): c * c2 for m, c in self.items()})
        out: dict = {}
        get = out.get
        for m1, c1 in self.items():
            for m2, c2 in other.items():
                m = tuple(map(_plus, m1, m2))
                out[m] = get(m, 0) + c1 * c2
        return Poly({m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result if result is not None else constant(1, len(next(iter(self))))

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))


def constant(c: int, nvars: int) -> Poly:
    """``c`` as a polynomial in ``nvars`` variables."""
    return Poly({(0,) * nvars: c}) if c else Poly()


def is_one(p: Poly) -> bool:
    if len(p) != 1:
        return False
    ((m, c),) = p.items()
    return c == 1 and not any(m)


def is_ground(p: Poly) -> bool:
    return not p or (len(p) == 1 and not any(next(iter(p))))


def content(p: Poly) -> int:
    """The positive gcd of the coefficients."""
    return gcd(*p.values())


def quo_ground(p: Poly, c: int) -> Poly:
    return p if c == 1 else Poly({m: v // c for m, v in p.items()})


def lc(p: Poly) -> int:
    """The leading coefficient in lex order (slot 0 most significant)."""
    return p[max(p)]


# ---------------------------------------------------------------------------
# The gcd
# ---------------------------------------------------------------------------


def cofactors(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """``(h, a/h, b/h)`` with h a gcd of the nonzero polynomials a and b over
    ZZ (unique up to sign), which includes the gcd of their contents."""
    if len(b) == 1:
        h, b1, a1 = _monomial_cofactors(b, a)
        return h, a1, b1
    if len(a) == 1:
        return _monomial_cofactors(a, b)
    return _heu(a, b)


def _monomial_cofactors(mono: Poly, other: Poly) -> tuple[Poly, Poly, Poly]:
    """``(h, mono/h, other/h)`` when ``mono`` has one term: h is the gcd of
    its coefficient with the content of ``other``, times the smallest power
    of each variable that divides both."""
    ((m0, c0),) = mono.items()
    cg = gcd(c0, content(other))
    e = tuple(map(min, m0, *other)) if len(other) > 1 else tuple(map(min, m0, next(iter(other))))
    if not any(e):
        if cg == 1:
            return Poly({e: 1}), mono, other
        return Poly({e: cg}), Poly({m0: c0 // cg}), quo_ground(other, cg)
    return (
        Poly({e: cg}),
        Poly({tuple(map(_minus, m0, e)): c0 // cg}),
        Poly({tuple(map(_minus, m, e)): c // cg for m, c in other.items()}),
    )


def _int_cofactors(a: int, b: int) -> tuple[Poly, Poly, Poly]:
    h = gcd(a, b)
    return Poly({(): h}), Poly({(): a // h}), Poly({(): b // h})


def divide(a: Poly, b: Poly):
    """``a / b`` when the nonzero ``b`` divides ``a`` exactly over ZZ, else
    None.  Each step cancels the lex-leading term of the remainder."""
    if len(b) == 1:
        ((mb, cb),) = b.items()
        out = {}
        for m, c in a.items():
            q, r = divmod(c, cb)
            e = tuple(map(_minus, m, mb))
            if r or min(e, default=0) < 0:
                return None
            out[e] = q
        return Poly(out)
    lm = max(b)
    lc = b[lm]
    rest = [(m, c) for m, c in b.items() if m != lm]
    r = dict(a)
    q = {}
    get = r.get
    while r:
        m = max(r)
        qc, rem = divmod(r.pop(m), lc)
        qm = tuple(map(_minus, m, lm))
        if rem or min(qm, default=0) < 0:
            return None
        q[qm] = qc
        for mb, cb in rest:
            k = tuple(map(_plus, qm, mb))
            v = get(k, 0) - qc * cb
            if v:
                r[k] = v
            else:
                del r[k]
    return Poly(q)


def _heu(f: Poly, g: Poly):
    """``(h, f/h, g/h)`` by GCDHEU, or None when f or g is zero (an image
    at a bad value of xi vanishes, and the caller steps xi).

    With f and g primitive, xi starts at 2*min(|f|, |g|) + 2 (|.| the
    largest coefficient) and only grows, and from there on a candidate
    that divides both f and g is their gcd h (Char, Geddes and Gonnet's
    theorem).  Such a candidate always comes: with f = h*f' and g = h*g',
    the image gcd at xi is h(xi) * d, where d divides the resultant of f'
    and g' in the first variable, a fixed nonzero polynomial in the others.
    A nonconstant factor of it can divide d for only finitely many xi
    (else it would divide f' and g'), and the content k of d divides the
    resultant's, so once xi passes those values and 2*k*|h| + 1, the
    candidate is h.  xi grows geometrically, so it gets there."""
    if not (f and g):
        return None
    if not next(iter(f)):  # no variables left: integers
        return _int_cofactors(f[()], g[()])
    cf, cg = content(f), content(g)
    c = gcd(cf, cg)
    f, g = quo_ground(f, cf), quo_ground(g, cg)
    if not any(m[0] for m in f) and not any(m[0] for m in g):
        # the first variable is absent: the gcd is one in the others
        h, qf, qg = (_prepend(x, 0) for x in _heu(_drop_first(f), _drop_first(g)))
    else:
        xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
        while True:
            r = _heu(_evaluate_first(f, xi), _evaluate_first(g, xi))
            if r is not None:
                h = _from_images(r[0], xi)
                h = quo_ground(h, content(h))
                qf = divide(f, h)
                qg = None if qf is None else divide(g, h)
                if qg is not None:
                    break
            xi = xi * 73794 // 27011  # about xi * (1 + sqrt(3)), as the paper steps it
    return h * c, qf * (cf // c), qg * (cg // c)


def _evaluate_first(p: Poly, xi: int) -> Poly:
    """``p`` with its first variable set to ``xi``."""
    out: dict = {}
    get = out.get
    powers = [1]
    for m, c in p.items():
        k = m[0]
        while len(powers) <= k:
            powers.append(powers[-1] * xi)
        rest = m[1:]
        out[rest] = get(rest, 0) + c * powers[k]
    return Poly({m: c for m, c in out.items() if c})


def _from_images(gamma: Poly, xi: int) -> Poly:
    """The polynomial whose first variable's coefficients are the digits of
    ``gamma``'s coefficients in the symmetric base-xi expansion."""
    out = {}
    half = xi // 2
    for m, c in gamma.items():
        i = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[(i, *m)] = d
            c = (c - d) // xi
            i += 1
    return Poly(out)


def _drop_first(p: Poly) -> Poly:
    return Poly({m[1:]: c for m, c in p.items()})


def _prepend(p: Poly, k: int) -> Poly:
    return Poly({(k, *m): c for m, c in p.items()})


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

# The generator order sympy's ``_sort_gens`` gives: a name's key is (rank,
# stem, index), with the stem the name without its trailing digits and the
# index those digits as an integer, or 0.  A one-letter stem ranks x, y, z
# first, then p to w, then a to o; any other stem ranks last.  The name
# itself breaks a tie (p and p0), which sympy leaves to the input order.
_RANK = {c: i for i, c in enumerate("xyzpqrstuvwabcdefghijklmno")}

_GENS: dict[frozenset, tuple] = {frozenset(): ()}
_LAYOUTS: dict[tuple, list] = {}


def _gen_key(name: str) -> tuple:
    stem = name.rstrip("0123456789")
    digits = name[len(stem):]
    return (_RANK.get(stem, 1000) if len(stem) == 1 else 1000, stem, int(digits) if digits else 0, name)


def gens_of(names) -> tuple:
    """The generators over ``names`` in sorted order, one shared tuple per
    set of names (so two values over the same names share it)."""
    key = frozenset(names)
    gens = _GENS.get(key)
    if gens is None:
        gens = _GENS[key] = tuple(sorted(key, key=_gen_key))
    return gens


def relayout(p: Poly, src: tuple, dst: tuple) -> Poly:
    """``p`` over generators ``src`` rewritten over ``dst``, a superset."""
    if src is dst:
        return p
    take = _LAYOUTS.get((src, dst))
    if take is None:
        take = _LAYOUTS[src, dst] = [src.index(n) if n in src else len(src) for n in dst]
    out = {}
    for m, c in p.items():
        m = (*m, 0)
        out[tuple([m[i] for i in take])] = c
    return Poly(out)


def evaluate(p: Poly, point) -> tuple[int, int]:
    """``p`` at a rational point (one value per generator; one that ``p``
    does not use may be None) as an unreduced pair of ints.  With each
    value a/b and D p's degree in its generator, every term is brought over
    b**D, so the sum takes integer products only."""
    tables = []
    den = 1
    for v, d in zip(point, [max(col) for col in zip(*p)]):
        if d:
            a, b = v.numerator, v.denominator
            pa, pb = [1], [1]
            for _ in range(d):
                pa.append(pa[-1] * a)
                pb.append(pb[-1] * b)
            tables.append((pa, pb, d))
            den *= pb[d]
        else:
            tables.append(None)
    num = 0
    for m, c in p.items():
        for table, k in zip(tables, m):
            if table is not None:
                pa, pb, d = table
                c *= pa[k] * pb[d - k]
        num += c
    return num, den


def diff(p: Poly, i: int) -> Poly:
    """d p / d (generator ``i``)."""
    out = {}
    for m, c in p.items():
        k = m[i]
        if k:
            out[(*m[:i], k - 1, *m[i + 1:])] = c * k
    return Poly(out)
