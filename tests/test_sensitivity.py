"""Tests for the sensitivity engine: recurrence assembly, the pruning rules,
equation counts on the benchmark loops, and agreement between the two
analysis paths."""

import sys
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from probsens.errors import (
    ClassificationError,
    EquationCapError,
    SingularParameterError,
)
from probsens.normalize import normalize
from probsens.oracle import fd_sensitivity
from probsens.parser import parse, parse_monomial
from probsens.sensitivity import (
    MOMENT_ONE,
    Recurrence,
    SequenceSymbol,
    moment_closure,
    parameter_sensitivity,
    sensitivity_by_differentiation,
    sensitivity_by_recurrences,
    sensitivity_recurrence,
    sensitivity_system,
    with_power_variable,
)
from probsens.symbolic import ParamExpr, ep_eval, pe
from probsens.syntax import VarMonomial

from test_dependency import MIXED, MIXED_TAINTED
from test_moments import BRANCHY_COUNTER
from test_normalize import EPIDEMIC

# Three-chain loop: a squaring pair (x1, x2-ish), a mutually-recursive pair
# with a product of variables, and a clean linear chain carrying the
# parameter p — only the last is reachable from p.
TRIPLE_CHAIN = """
cnt, total = 0, 0
x1, x2 = 1, 2
y1, y2 = 0, 3
z1, z2 = 1, 5
while true:
    cnt = cnt + 1
    x1 = x1**2 + q*x2
    x2 = y1 + cnt + q
    y1 = r*(y1 - cnt) + y2*cnt
    y2 = r*y1 + 5
    z1 = cnt**2 - cnt + p*z1
    z2 = z1*3 - 5*(z2 - p)
    total = x2 + y2 + z2
end
"""

# Simultaneous update of a coupled pair, squared feedback, and two parameters
# reaching different variables.
PAIRED_UPDATE = """
x, y, z, var = 1, 2, a, 0
d1, d2 = 5, 3
run = -1
while true:
    run = 2*run + z**2
    z = z + 1
    d1, d2 = d1*d2 + 3, d1 + z
    x = 3*x + d2 + par**2*z + run*z
    y = 3*(x - y) + par**2*run
end
"""


def norm(src, name="<program>"):
    return normalize(parse(src, name=name))


def mono(text):
    return parse_monomial(text)


def expr(text):
    return pe(sp.sympify(text, rational=True))


EPIDEMIC_VALS = {
    "contact_param": Fraction(7, 10),
    "vax_param": Fraction(1, 10),
    "decline": Fraction(9, 10),
}


# ---------------------------------------------------------------------------
# Sequence symbols
# ---------------------------------------------------------------------------


def test_symbol_kinds_and_rendering():
    m = SequenceSymbol.moment(mono("x*y**2"))
    s = SequenceSymbol.sensitivity(mono("x"), "p")
    assert m.is_moment and not s.is_moment
    assert str(m) == "E(x*y**2)"
    assert s.indexed("n+1") == "d/dp E(x | n+1)"
    assert MOMENT_ONE.is_constant
    assert not m.is_constant


def test_symbol_ordering_degree_first_moment_before_sensitivity():
    keys = [
        SequenceSymbol.moment(mono("x")).sort_key(),
        SequenceSymbol.sensitivity(mono("x"), "p").sort_key(),
        SequenceSymbol.moment(mono("x**2")).sort_key(),
    ]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# Single-recurrence assembly and the two pruning rules
# ---------------------------------------------------------------------------


def test_sensitivity_recurrence_drops_parameter_free_coefficients():
    from probsens.dependency import build_graph
    from probsens.moments import MomentContext

    np_ = norm(MIXED)
    ctx = MomentContext(np_)
    graph = build_graph(np_)
    rec = sensitivity_recurrence(ctx, graph, mono("u"), "p")
    # E(u | n+1) = E(x) + p*E(y*z): the coefficient of E(x) is constant in p
    # and x itself is p-independent, so the x term vanishes entirely.
    assert all("x" not in str(s.monomial) for _, s in rec.terms)
    coeff = {str(s): c for c, s in rec.terms}
    assert coeff["E(y*z)"] == pe(1)
    assert coeff["d/dp E(y*z)"] == expr("p")


def test_sensitivity_recurrence_debug_keeps_everything():
    from probsens.dependency import build_graph
    from probsens.moments import MomentContext

    np_ = norm(MIXED)
    ctx = MomentContext(np_)
    graph = build_graph(np_)
    rec = sensitivity_recurrence(ctx, graph, mono("u"), "p", debug=True)
    names = {str(s) for _, s in rec.terms}
    assert "E(x)" in names and "d/dp E(x)" in names
    # but never a derivative of the constant sequence
    assert "d/dp E(1)" not in names


# ---------------------------------------------------------------------------
# Whole-system assembly: equation counts on the benchmark loops
# ---------------------------------------------------------------------------


def test_mixed_u_system_is_exactly_nine_equations():
    s = sensitivity_system(norm(MIXED), mono("u"), "p")
    assert s.size == 9
    sens = {str(m) for m in s.monomials("sensitivity")}
    moms = {str(m) for m in s.monomials("moment")}
    assert sens == {"z", "y", "u", "y*z", "z**2"}
    assert moms == {"z", "y", "y*z", "z**2"}


def test_mixed_u_sensitivity_equation_coefficients():
    s = sensitivity_system(norm(MIXED), mono("u"), "p")
    rec = s.equations[SequenceSymbol.sensitivity(mono("u"), "p")]
    got = {}
    for c, sym in rec.terms:
        key = ("E(%s)" % sym.monomial) if sym.is_moment else ("S(%s)" % sym.monomial)
        got[key] = c
    assert got == {
        "E(z**2)": expr("-10*p"),
        "E(y*z)": pe(1),
        "E(z)": expr("-20*p**3 - 15*p**2"),
        "E(y)": expr("3*p**2/2 + p"),
        "E(1)": expr("-15*p**5 - 10*p**3"),
        "S(z**2)": expr("-5*p**2"),
        "S(y*z)": expr("p"),
        "S(z)": expr("-5*p**4 - 5*p**3"),
        "S(y)": expr("p**3/2 + p**2/2"),
    }


@pytest.mark.parametrize(
    "src,target,wrt,size",
    [
        (MIXED, "u", "p", 9),
        (MIXED, "y**2", "p", 9),
        (PAIRED_UPDATE, "y", "par", 5),
        (PAIRED_UPDATE, "x*z", "par", 4),
        (TRIPLE_CHAIN, "total", "p", 6),
        (TRIPLE_CHAIN, "z1**2", "p", 12),
        (BRANCHY_COUNTER, "z", "p1", 4),
        (BRANCHY_COUNTER, "cnt**2", "p1", 3),
        (EPIDEMIC, "infected_prob", "vax_param", 3),
        (EPIDEMIC, "infected_prob**2", "vax_param", 3),
    ],
)
def test_equation_counts(src, target, wrt, size):
    assert sensitivity_system(norm(src), mono(target), wrt).size == size


def test_triple_chain_worklists():
    s = sensitivity_system(norm(TRIPLE_CHAIN), mono("total"), "p")
    assert {str(m) for m in s.monomials("sensitivity")} == {"total", "z2", "z1"}
    assert {str(m) for m in s.monomials("moment")} == {"z1", "cnt**2", "cnt"}


def test_branchy_counter_worklists():
    s = sensitivity_system(norm(BRANCHY_COUNTER), mono("z"), "p1")
    assert {str(m) for m in s.monomials("sensitivity")} == {"z", "cnt**2", "cnt"}
    assert {str(m) for m in s.monomials("moment")} == {"cnt"}


def test_moment_closure_counts():
    assert moment_closure(norm(EPIDEMIC), mono("infected_prob")).size == 2
    assert moment_closure(norm(EPIDEMIC), mono("infected_prob**2")).size == 2


# ---------------------------------------------------------------------------
# Trivial systems and identically-zero sensitivities
# ---------------------------------------------------------------------------


def test_parameter_independent_target_gives_empty_system():
    s = sensitivity_system(norm(MIXED), mono("w"), "p")
    assert s.size == 0
    assert s.combination == ()
    assert s.closed_form().is_zero


def test_parameter_independent_monomials_solve_to_zero():
    np_ = norm(TRIPLE_CHAIN)
    for target in ("cnt", "cnt**2", "y2"):
        res = sensitivity_by_recurrences(np_, mono(target), "p")
        assert res.closed_form.is_zero, target


# ---------------------------------------------------------------------------
# Guard rails
# ---------------------------------------------------------------------------


def test_influenced_defective_variable_rejected_with_witness():
    with pytest.raises(ClassificationError) as exc:
        sensitivity_system(norm(MIXED_TAINTED), mono("v"), "p")
    assert "v =p=> x" in str(exc.value)


def test_differentiation_path_requires_closing_moments():
    with pytest.raises(ClassificationError):
        sensitivity_by_differentiation(norm(MIXED), mono("u"), "p")


def test_equation_cap():
    with pytest.raises(EquationCapError) as exc:
        sensitivity_system(norm(TRIPLE_CHAIN), mono("z1**2"), "p", cap=5)
    assert exc.value.cap == 5


def test_auto_dispatch():
    r1 = parameter_sensitivity(norm(EPIDEMIC), mono("infected_prob"), "vax_param")
    assert r1.method == "diff"
    r2 = parameter_sensitivity(norm(MIXED), mono("u"), "p")
    assert r2.method == "sensrec"
    with pytest.raises(ClassificationError):
        parameter_sensitivity(norm(MIXED_TAINTED), mono("v"), "p")
    with pytest.raises(ValueError):
        parameter_sensitivity(norm(EPIDEMIC), mono("vax"), "vax_param", method="nope")


@pytest.mark.parametrize(
    "src, target, wrt",
    [(EPIDEMIC, "infected_prob", "vax_param"), (MIXED, "u", "p")],
    ids=["diff", "sensrec"],
)
def test_auto_runs_the_value_set_fixpoint_once(monkeypatch, src, target, wrt):
    import probsens.dependency as dependency

    original = dependency.variable_supports
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "probsens" or name.startswith("probsens."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    parameter_sensitivity(norm(src), mono(target), wrt, method="auto")
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# The recurrences really are the derivative of the moment recurrences
# ---------------------------------------------------------------------------


def test_symbolic_derivative_agreement_epidemic():
    np_ = norm(EPIDEMIC)
    mom = moment_closure(np_, mono("infected_prob"))
    sen = sensitivity_system(np_, mono("infected_prob"), "vax_param")
    rows_m = mom.iterate(8)
    rows_s = sen.iterate(8)
    for n in range(9):
        total_m = pe(0)
        for c, s in mom.combination:
            total_m = total_m + c * rows_m[n][s]
        total_s = pe(0)
        for c, s in sen.combination:
            total_s = total_s + c * rows_s[n][s]
        assert (total_m.diff("vax_param") - total_s).is_zero


def test_debug_mode_agrees_at_probes():
    np_ = norm(EPIDEMIC)
    lean = sensitivity_by_recurrences(np_, mono("infected_prob"), "vax_param")
    full = sensitivity_by_recurrences(np_, mono("infected_prob"), "vax_param", debug=True)
    assert full.equation_count >= lean.equation_count
    for n in range(13):
        a = ep_eval(lean.closed_form, EPIDEMIC_VALS, n)
        b = ep_eval(full.closed_form, EPIDEMIC_VALS, n)
        assert a == b


# ---------------------------------------------------------------------------
# Agreement between the two analysis paths and with brute-force enumeration
# ---------------------------------------------------------------------------


def test_cross_method_agreement_epidemic_fixed_probe():
    np_ = norm(EPIDEMIC)
    diff = sensitivity_by_differentiation(np_, mono("infected_prob"), "vax_param")
    rec = sensitivity_by_recurrences(np_, mono("infected_prob"), "vax_param")
    for n in range(13):
        assert ep_eval(diff.closed_form, EPIDEMIC_VALS, n) == ep_eval(
            rec.closed_form, EPIDEMIC_VALS, n
        )


@st.composite
def epidemic_probe(draw):
    def frac(lo=1, hi=19):
        return Fraction(draw(st.integers(lo, hi)), 20)

    return {"contact_param": frac(), "vax_param": frac(), "decline": frac()}


_EPIDEMIC_FORMS = {}


def _epidemic_closed_forms():
    if not _EPIDEMIC_FORMS:
        np_ = norm(EPIDEMIC)
        _EPIDEMIC_FORMS["diff"] = sensitivity_by_differentiation(
            np_, mono("infected_prob"), "vax_param"
        ).closed_form
        _EPIDEMIC_FORMS["rec"] = sensitivity_by_recurrences(
            np_, mono("infected_prob"), "vax_param"
        ).closed_form
    return _EPIDEMIC_FORMS


@given(vals=epidemic_probe(), n=st.integers(0, 10))
@settings(max_examples=20, deadline=None)
def test_cross_method_agreement_epidemic_random_probes(vals, n):
    forms = _epidemic_closed_forms()
    try:
        a = ep_eval(forms["diff"], vals, n)
        b = ep_eval(forms["rec"], vals, n)
    except SingularParameterError:
        assume(False)
    assert a == b


def test_solved_sensitivity_matches_finite_differences():
    np_ = norm(MIXED)
    res = sensitivity_by_recurrences(np_, mono("u"), "p")
    sigma = {"p": Fraction(3, 10)}
    for n in range(1, 7):
        got = float(ep_eval(res.closed_form, sigma, n))
        ref = float(fd_sensitivity(np_, mono("u"), n, "p", sigma).value)
        assert abs(got - ref) <= 1e-3 * max(1.0, abs(ref)), n


# ---------------------------------------------------------------------------
# Higher moments through a tracking variable
# ---------------------------------------------------------------------------


def test_power_variable_construction():
    np_ = norm(EPIDEMIC)
    ext, name = with_power_variable(np_, "infected_prob", 2)
    assert name == "infected_prob_pow2"
    assert name in ext.variables
    assert len(ext.body) == len(np_.body) + 1
    # collision handling: extending again picks a fresh name
    ext2, name2 = with_power_variable(ext, "infected_prob", 2)
    assert name2 != name
    with pytest.raises(ValueError):
        with_power_variable(np_, "nonexistent", 2)
    with pytest.raises(ValueError):
        with_power_variable(np_, "infected_prob", 0)


def test_power_variable_tracks_second_moment():
    np_ = norm(EPIDEMIC)
    ext, name = with_power_variable(np_, "infected_prob", 2)
    via_track = parameter_sensitivity(ext, mono(name), "vax_param", method="sensrec")
    direct = sensitivity_by_differentiation(np_, mono("infected_prob**2"), "vax_param")
    for n in range(10):
        assert ep_eval(via_track.closed_form, EPIDEMIC_VALS, n) == ep_eval(
            direct.closed_form, EPIDEMIC_VALS, n
        )


# ---------------------------------------------------------------------------
# System plumbing
# ---------------------------------------------------------------------------


def test_render_mentions_every_equation():
    s = sensitivity_system(norm(EPIDEMIC), mono("infected_prob"), "vax_param")
    text = s.render()
    assert "d/dvax_param E(infected_prob | n+1)" in text
    assert text.count("=") == s.size


def test_iterate_with_values_matches_symbolic():
    s = sensitivity_system(norm(EPIDEMIC), mono("infected_prob"), "vax_param")
    sym_rows = s.iterate(5)
    num_rows = s.iterate(5, EPIDEMIC_VALS)
    for n in range(6):
        for key, v in num_rows[n].items():
            assert sym_rows[n][key].eval_fraction(EPIDEMIC_VALS) == v


def test_initials_are_derivatives_of_moment_initials():
    s = sensitivity_system(norm(MIXED), mono("u"), "p")
    for sym in s.symbols:
        if sym.is_constant:
            assert s.initial(sym) == pe(1)
        elif not sym.is_moment:
            base = s.context.initial(sym.monomial)
            assert s.initial(sym) == base.diff("p")
