"""sympy views of ``ParamExpr`` values, for the tests that check exact
arithmetic and its printing against sympy."""

from __future__ import annotations

import sympy as sp

from probsens.polys import gens_of
from probsens.symbolic import ParamExpr, from_sympy, sympy_domain, to_sympy


def as_expr(value: ParamExpr) -> sp.Expr:
    """``value`` as a sympy expression in ``sp.cancel`` form, built from the
    numerator and denominator terms."""
    domain = sympy_domain(value.gens)
    return domain.to_sympy(to_sympy(value, domain, value.gens))


def from_expr(value: sp.Expr) -> ParamExpr:
    """The ``ParamExpr`` of a rational function given as a sympy expression."""
    gens = gens_of(s.name for s in value.free_symbols)
    domain = sympy_domain(gens)
    return from_sympy(domain.from_sympy(value), domain, gens)


def expr(text: str) -> ParamExpr:
    """The ``ParamExpr`` of arithmetic notation such as ``"p*(1 - p)/2"``."""
    return from_expr(sp.sympify(text, rational=True))
