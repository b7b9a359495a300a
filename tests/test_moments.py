"""Tests for the expectation-recurrence engine.

Hand-derived recurrences for the fixture loops are asserted exactly; beyond
those, the engine is validated against the exact path-enumeration oracle:
applying a derived recurrence to oracle moments at step n must reproduce the
oracle moment at step n+1, for every fixture and for random programs.
"""

from fractions import Fraction as F
from itertools import combinations_with_replacement, product
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probsens.errors import (
    EquationCapError,
    GuardNotSupportedError,
    NonFiniteGuardError,
    UninitializedVariableError,
)
from probsens.moments import MomentContext, _lagrange_basis_poly, dist_moment
from probsens.normalize import normalize
from probsens.oracle import moment_exact
from probsens.parser import parse, parse_monomial as pm
from probsens.sensitivity import SequenceSymbol, moment_closure
from probsens.symbolic import pe
from probsens.syntax import (
    BTrue,
    DistDraw,
    PolyExpr,
    VarMonomial,
    bexpr_eval,
    bexpr_vars,
)

from sympy_views import expr
from test_dependency import MIXED
from test_normalize import EPIDEMIC, random_programs

CORPUS = Path(__file__).resolve().parent.parent / "src" / "probsens" / "benchmarks"

BRANCHY_COUNTER = """
y = 0
x = 0
z = 0
cnt = 0
while true:
    x = DiscreteUniform(1, 5)
    if x < 3:
        inc = Bernoulli(p1)
        cnt = cnt + inc
    else:
        inc = Bernoulli(p2)
        cnt = cnt - inc
    end
    f = DiscreteUniform(0, 10)
    y = y**2 + x * f
    z = cnt**2 - 3*y**2 + x**3
end
"""


def ctx_of(src):
    return MomentContext(normalize(parse(src)))


# ---------------------------------------------------------------------------
# Primitive distribution moments
# ---------------------------------------------------------------------------


def test_dist_moments():
    q = pe("q")
    assert dist_moment("Bernoulli", (q,), 1) == q
    assert dist_moment("Bernoulli", (q,), 5) == q
    assert dist_moment("Bernoulli", (q,), 0) == pe(1)
    assert dist_moment("Uniform", (pe(0), pe(1)), 2) == pe(F(1, 3))
    assert dist_moment("DiscreteUniform", (pe(1), pe(6)), 1) == pe(F(7, 2))
    assert dist_moment("DiscreteUniform", (pe(0), pe(10)), 2) == pe(35)
    m, v = pe("m"), pe("v")
    assert dist_moment("Normal", (m, v), 2) == m**2 + v
    assert dist_moment("Normal", (m, v), 4) == m**4 + pe(6) * m**2 * v + pe(3) * v**2


# ---------------------------------------------------------------------------
# Hand-checked recurrences
# ---------------------------------------------------------------------------


def test_vaccination_mean_recurrences():
    ctx = ctx_of(EPIDEMIC)
    eff, ip, one = pm("efficiency"), pm("infected_prob"), VarMonomial.one()
    rec_ip = ctx.recurrence(ip)
    assert rec_ip.coefficient(eff) == expr("-contact_param")
    assert rec_ip.coefficient(one) == pe("contact_param")
    assert rec_ip.coefficient(ip) == pe(0)
    rec_eff = ctx.recurrence(eff)
    assert rec_eff.coefficient(eff) == expr("decline - decline*vax_param")
    assert rec_eff.coefficient(one) == expr("3*vax_param/4")


def test_vaccination_square_collapses_to_binary_state():
    # efficiency only takes 0/1, so its square reduces and the second moment
    # closes over the same two symbols as the first
    ctx = ctx_of(EPIDEMIC)
    rec = ctx.recurrence(pm("infected_prob**2"))
    assert rec.coefficient(pm("efficiency")) == expr("-contact_param**2")
    assert rec.coefficient(VarMonomial.one()) == expr("contact_param**2")
    sys2 = moment_closure(ctx, pm("infected_prob**2"))
    assert set(sys2.monomials("moment")) == {pm("infected_prob**2"), pm("efficiency")}
    assert sys2.size == 2


def test_five_variable_loop_recurrences():
    ctx = ctx_of(MIXED)
    one = VarMonomial.one()
    rec_z = ctx.recurrence(pm("z"))
    assert rec_z.coefficient(pm("z")) == pe(1)
    assert rec_z.coefficient(one) == expr("p/2 + p**2/2")
    rec_y = ctx.recurrence(pm("y"))
    assert rec_y.coefficient(pm("y")) == pe(1)
    assert rec_y.coefficient(pm("z")) == expr("-5*p")
    assert rec_y.coefficient(one) == expr("-5*p**2/2 - 5*p**3/2")
    rec_w = ctx.recurrence(pm("w"))
    assert rec_w.coefficient(pm("w")) == pe(5)
    assert rec_w.coefficient(pm("x**2")) == pe(1)
    rec_x = ctx.recurrence(pm("x"))
    assert rec_x.coefficient(pm("w")) == pe(5)
    assert rec_x.coefficient(pm("x**2")) == pe(1)
    assert rec_x.coefficient(pm("x")) == pe(1)
    assert rec_x.coefficient(one) == pe(5)


def test_branch_counter_recurrence_is_exact():
    # the increment variable is drawn fresh in both branches; its leftover
    # "keep the old value" reads must cancel exactly
    ctx = ctx_of(BRANCHY_COUNTER)
    one = VarMonomial.one()
    rec = ctx.recurrence(pm("cnt"))
    assert rec.coefficient(pm("cnt")) == pe(1)
    assert rec.coefficient(one) == expr("2*p1/5 - 3*p2/5")
    assert len(rec.terms) == 2
    rec2 = ctx.recurrence(pm("cnt**2"))
    assert rec2.coefficient(pm("cnt**2")) == pe(1)
    assert rec2.coefficient(pm("cnt")) == expr("4*p1/5 - 6*p2/5")
    assert rec2.coefficient(one) == expr("2*p1/5 + 3*p2/5")


def test_fresh_draw_products_use_independence():
    ctx = ctx_of(BRANCHY_COUNTER)
    rec = ctx.recurrence(pm("z"))
    # E(x'^3) = 45, E(x'^2)E(f'^2) = 11 * 35
    assert rec.coefficient(VarMonomial.one()) == expr("2*p1/5 + 3*p2/5 - 1110")
    assert rec.coefficient(pm("y**2")) == pe(-90)
    assert rec.coefficient(pm("y**4")) == pe(-3)


# ---------------------------------------------------------------------------
# Truth polynomials and canonicalization
# ---------------------------------------------------------------------------


def _indicator_context(text, draws):
    """A context whose loop body first sets y to the indicator of the guard
    ``text`` and only then redraws each variable of ``draws`` (a map from
    name to distribution), so E[y] after one pass is the guard's truth
    polynomial over the pre-pass values."""
    init = "".join(f"{v} = 0\n" for v in draws)
    redraws = "".join(f"    {v} = {draw}\n" for v, draw in draws.items())
    return ctx_of(
        f"{init}y = 0\nwhile true:\n"
        f"    if {text}:\n        y = 1\n    else:\n        y = 0\n    end\n"
        f"{redraws}end\n"
    )


def test_truth_polynomial_matches_condition_pointwise():
    draws = {"x": "DiscreteUniform(0, 4)", "d": "DiscreteUniform(1, 3)"}
    conds = ["x < 3", "x == 2", "x != 0", "x >= d", "x < 2 or d == 3", "not (x > 1 and d < 3)"]
    for text in conds:
        cond = parse_guard(text)
        poly = _indicator_context(text, draws).recurrence(VarMonomial.var("y"))
        for xv in range(0, 5):
            for dv in range(1, 4):
                state = {"x": F(xv), "d": F(dv)}
                assert poly.eval_with_params(state, {}) == (1 if bexpr_eval(cond, state) else 0), text


def parse_guard(text):
    # reuse the statement parser: wrap the condition in a one-armed branch
    prog = parse(
        "x = 0\nd = 0\ny = 0\nwhile true:\n"
        "    x = DiscreteUniform(0, 4)\n    d = DiscreteUniform(1, 3)\n"
        f"    if {text}:\n        y = 1\n    end\nend\n"
    )
    return prog.body[-1].branches[0][0]


def test_guard_indicators_are_idempotent():
    ctx = _indicator_context("x < 3", {"x": "DiscreteUniform(0, 4)"})
    tr = ctx.recurrence(VarMonomial.var("y"))
    assert ctx.reduce(tr * tr) == tr
    complement = PolyExpr.const(F(1)) - tr
    assert ctx.reduce(tr * complement) == PolyExpr.zero()


def test_power_reduction_is_pointwise_exact():
    src = "x = 0\nwhile true:\n    x = DiscreteUniform(1, 5)\nend\n"
    ctx = ctx_of(src)
    reduced = ctx.reduce(PolyExpr.monomial(pm("x**9")))
    assert reduced.degree <= 5  # six support values: 0..5
    for v in range(0, 6):
        assert reduced.eval_with_params({"x": F(v)}, {}) == F(v) ** 9


def test_singleton_support_becomes_constant():
    src = "c = 7\nx = 0\nwhile true:\n    x = x + c {1/2} x\nend\n"
    ctx = ctx_of(src)
    assert ctx.reduce(PolyExpr.monomial(pm("c"))) == PolyExpr.const(F(7))
    rec = ctx.recurrence(pm("x"))
    assert rec.coefficient(pm("x")) == pe(1)
    assert rec.coefficient(VarMonomial.one()) == pe(F(7, 2))


# ---------------------------------------------------------------------------
# Initial moments
# ---------------------------------------------------------------------------


def test_initial_moments_follow_initialization_order():
    ctx = ctx_of(MIXED)
    assert ctx.initial(pm("z")) == pe(4)
    assert ctx.initial(pm("x**2*y")) == pe(12)
    assert ctx.initial(pm("u")) == pe(0)


def test_initial_moment_of_random_initialization():
    src = "x = DiscreteUniform(1, 3)\ny = x + 1\nwhile true:\n    y = y + x\nend\n"
    ctx = ctx_of(src)
    assert ctx.initial(pm("x**2")) == pe(F(14, 3))
    # y is x+1 with the same x: E(y_0 * x_0) = E(x^2 + x) = 14/3 + 2
    assert ctx.initial(pm("x*y")) == pe(F(20, 3))


def test_initial_moment_with_parameters():
    src = "x = 1 {q} 0\nwhile true:\n    x = x\nend\n"
    ctx = ctx_of(src)
    assert ctx.initial(pm("x")) == pe("q")


def test_initial_moment_of_loop_local_variable_is_undefined():
    ctx = ctx_of(BRANCHY_COUNTER)
    with pytest.raises(UninitializedVariableError):
        ctx.initial(pm("inc"))


# ---------------------------------------------------------------------------
# Guards the engine refuses
# ---------------------------------------------------------------------------


def test_parameter_comparison_guard_is_rejected():
    src = """
x = 0
y = 0
while true:
    x = Bernoulli(q)
    if x < q:
        y = y + 1
    end
end
"""
    ctx = ctx_of(src)
    with pytest.raises(GuardNotSupportedError):
        ctx.recurrence(pm("y"))


def test_unbounded_guard_variable_is_rejected():
    src = """
x = 0
y = 0
while true:
    x = x + 1
    if x < 3:
        y = y + 1
    end
end
"""
    ctx = ctx_of(src)
    with pytest.raises(NonFiniteGuardError):
        ctx.recurrence(pm("y"))


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------


def test_vaccination_mean_system():
    sys_ = moment_closure(ctx_of(EPIDEMIC), pm("infected_prob"))
    assert set(sys_.monomials("moment")) == {pm("infected_prob"), pm("efficiency")}
    assert sys_.size == 2
    sigma = {"contact_param": F(1, 2), "vax_param": F(1, 3), "decline": F(9, 10)}
    rows = sys_.iterate(2, sigma)
    ip = SequenceSymbol.moment(pm("infected_prob"))
    assert rows[0][ip] == F(0)
    assert rows[1][ip] == F(1, 2)
    assert rows[2][ip] == F(1, 2) - F(1, 2) * F(1, 4)


def test_five_variable_mean_values_by_iteration():
    sys_ = moment_closure(ctx_of(MIXED), pm("z"))
    rows = sys_.iterate(1, {"p": F(3, 10)})
    assert rows[1][SequenceSymbol.moment(pm("z"))] == F(4) + F(39, 200)


def test_defective_moments_hit_the_equation_cap():
    with pytest.raises(EquationCapError) as err:
        moment_closure(ctx_of(MIXED), pm("w"), cap=20)
    assert err.value.cap == 20


def test_coin_flips_50_second_moment_reaches_the_cap():
    # total**2 over 50 coins needs 1276 equations against the default cap
    # of 500; linear-time assembly gets there in seconds.
    ctx = ctx_of((CORPUS / "coin_flips_50.prob").read_text())
    with pytest.raises(EquationCapError) as err:
        moment_closure(ctx, pm("total**2"))
    assert err.value.cap == 500


def test_moment_system_is_deterministic():
    a = moment_closure(ctx_of(BRANCHY_COUNTER), pm("cnt**2"))
    b = moment_closure(ctx_of(BRANCHY_COUNTER), pm("cnt**2"))
    assert list(a.equations) == list(b.equations)
    assert a.render() == b.render()


# ---------------------------------------------------------------------------
# Agreement with the enumeration oracle
# ---------------------------------------------------------------------------


def _check_one_step(src, targets, sigma, steps=2):
    np_ = normalize(parse(src))
    ctx = MomentContext(np_)
    for t in targets:
        rec = ctx.recurrence(pm(t))
        for n in range(steps):
            predicted = F(0)
            for mono, coeff in rec.terms:
                base = F(1) if mono.is_one else moment_exact(np_, mono, n, sigma)
                predicted += coeff.eval_fraction(sigma) * base
            actual = moment_exact(np_, pm(t), n + 1, sigma)
            assert predicted == actual, f"{t} at step {n + 1}"


def test_recurrences_match_oracle_on_fixtures():
    _check_one_step(
        EPIDEMIC,
        ["infected_prob", "efficiency", "infected_prob**2", "efficiency*vax"],
        {"contact_param": F(1, 2), "vax_param": F(1, 3), "decline": F(9, 10)},
        steps=3,
    )
    _check_one_step(MIXED, ["z", "y", "w", "x", "u", "z**2"], {"p": F(1, 3)}, steps=3)
    _check_one_step(
        BRANCHY_COUNTER,
        ["cnt", "cnt**2", "z"],
        {"p1": F(1, 4), "p2": F(2, 3)},
        steps=1,
    )


@given(random_programs(), st.sampled_from(["a", "b", "c", "a*b", "c**2"]))
@settings(max_examples=30, deadline=None)
def test_recurrences_match_oracle_on_random_programs(src, target):
    np_ = normalize(parse(src))
    ctx = MomentContext(np_)
    try:
        rec = ctx.recurrence(pm(target))
    except NonFiniteGuardError:
        return  # branching over an unbounded variable is out of scope
    for n in range(2):
        predicted = F(0)
        for mono, coeff in rec.terms:
            base = F(1) if mono.is_one else moment_exact(np_, mono, n, {})
            predicted += coeff.eval_fraction({}) * base
        assert predicted == moment_exact(np_, pm(target), n + 1, {})


def test_powers_requested_out_of_order_give_the_same_recurrences():
    # poly**k is the largest memoized power below k times poly**(k - m): a
    # fresh context builds every power up from poly**1, the shared one takes
    # 5 * 3 for 8, 8 * 5 for 13 and 8 * 4 for 12
    src = "x = 1\ny = 0\nwhile true:\n  y = y + 1 {1/2} y\n  x = x*y + 2 {p} x - y\nend\n"
    ks = [5, 2, 8, 3, 13, 1, 12]
    fresh = [ctx_of(src).recurrence(pm(f"x**{k}")) for k in ks]
    shared = ctx_of(src)
    assert [shared.recurrence(pm(f"x**{k}")) for k in ks] == fresh


# ---------------------------------------------------------------------------
# Assembly against the reference that grows each polynomial by ``+``
# ---------------------------------------------------------------------------


def _folded_recurrence(np_, monomial):
    """Reference: the one-step recurrence of ``monomial``, with every
    polynomial grown one term at a time by ``PolyExpr.__add__`` and nothing
    memoized."""
    supports = MomentContext(np_).supports

    def basis(v, point):
        return _lagrange_basis_poly(v, point, sorted(supports[v]))

    def reduce(poly):
        work, out = list(poly.terms), PolyExpr.zero()
        while work:
            mono, coeff = work.pop()
            for v, e in mono.powers:
                s = supports.get(v)
                if s and e >= len(s):
                    rep = PolyExpr.zero()
                    for point in sorted(s):
                        rep = rep + basis(v, point).scale(pe(point**e))
                    _, rest = mono.split(v)
                    work.extend((rep * PolyExpr.monomial(rest, coeff)).terms)
                    break
            else:
                out = out + PolyExpr.monomial(mono, coeff)
        return out

    def truth(guard):
        names = sorted(bexpr_vars(guard))
        poly = PolyExpr.zero()
        for combo in product(*(sorted(supports[v]) for v in names)):
            if bexpr_eval(guard, dict(zip(names, combo))):
                piece = PolyExpr.const(F(1))
                for v, point in zip(names, combo):
                    piece = piece * basis(v, point)
                poly = poly + piece
        return reduce(poly)

    def power_value(rhs, k):
        if isinstance(rhs, DistDraw):
            return PolyExpr.monomial(VarMonomial.one(), dist_moment(rhs.kind, rhs.args, k))
        out = PolyExpr.zero()
        for poly, prob in rhs.choices:
            out = out + (poly**k).scale(prob)
        return out

    poly = reduce(PolyExpr.monomial(monomial))
    for ga in reversed(np_.body):
        out = PolyExpr.zero()
        for mono, coeff in poly.terms:
            k, rest = mono.split(ga.target)
            if k == 0:
                out = out + PolyExpr.monomial(mono, coeff)
                continue
            repl = power_value(ga.rhs, k)
            if not isinstance(ga.guard, BTrue):
                t = truth(ga.guard)
                kept = PolyExpr.var(ga.else_source) ** k
                repl = t * repl + (PolyExpr.const(F(1)) - t) * kept
            out = out + PolyExpr.monomial(rest, coeff) * repl
        poly = reduce(out)
    return poly


def _folded_initial(np_, monomial):
    """Reference: E[monomial] before the first iteration, by ``PolyExpr``
    arithmetic."""
    poly = PolyExpr.monomial(monomial)
    for v, rhs in reversed(np_.init):
        out = PolyExpr.zero()
        for mono, coeff in poly.terms:
            k, rest = mono.split(v)
            if k == 0:
                out = out + PolyExpr.monomial(mono, coeff)
                continue
            value = PolyExpr.zero()
            for choice, prob in rhs.choices:
                value = value + (choice**k).scale(prob)
            out = out + PolyExpr.monomial(rest, coeff) * value
        poly = out
    return poly.constant_value()


@given(random_programs(), st.sampled_from(["a", "b", "c", "a*b", "c**2", "a*b*c"]))
@settings(max_examples=40, deadline=None)
def test_recurrence_matches_folded_reference_on_random_programs(src, target):
    np_ = normalize(parse(src))
    ctx = MomentContext(np_)
    try:
        rec = ctx.recurrence(pm(target))
    except NonFiniteGuardError:
        return  # branching over an unbounded variable is out of scope
    want = _folded_recurrence(np_, pm(target))
    assert rec == want
    assert [m for m, _ in rec.terms] == [m for m, _ in want.terms]
    assert str(rec) == str(want)
    for mono, _ in rec.terms:
        assert ctx.initial(mono) == _folded_initial(np_, mono)


def test_recurrence_terms_are_in_deglex_order():
    # degree first, then by name, a smaller exponent first and an absent
    # variable last: neither plain nor negated exponent tuples give this
    ctx = ctx_of(
        "a = 1\nb = 2\nt = 0\nwhile true:\n"
        "    t = b**2 + a**2 + b + a*b + a\n    a = a + 1\n    b = b + 1\nend\n"
    )
    rec = ctx.recurrence(pm("t"))
    assert [str(m) for m, _ in rec.terms] == ["a", "b", "a*b", "a**2", "b**2"]
    assert [m.deglex_key for m, _ in rec.terms] == sorted(m.deglex_key for m, _ in rec.terms)
    assert str(rec) == "b**2 + a**2 + a*b + b + a"


def test_monomials_over_variables_the_program_does_not_mention():
    ctx = ctx_of(BRANCHY_COUNTER)
    before = ctx.recurrence(pm("cnt**2"))
    assert ctx.recurrence(pm("w*cnt")) == PolyExpr.monomial(pm("w")) * ctx.recurrence(pm("cnt"))
    with pytest.raises(UninitializedVariableError):
        ctx.initial(pm("w"))
    fresh = ctx_of(BRANCHY_COUNTER)
    assert ctx.recurrence(pm("cnt**2")) is before
    assert ctx.recurrence(pm("z")) == fresh.recurrence(pm("z"))


@pytest.mark.parametrize(
    "name, target",
    [("bimodal.prob", "x**2"), ("grammar_zoo.prob", "a*b"), ("vaccination.prob", "infected_prob**2")],
)
def test_recurrence_matches_folded_reference_on_corpus(name, target):
    np_ = normalize(parse((CORPUS / name).read_text()))
    assert MomentContext(np_).recurrence(pm(target)) == _folded_recurrence(np_, pm(target))


# ---------------------------------------------------------------------------
# Assembly against the reference that copies every term through every step
# ---------------------------------------------------------------------------


def _copying_split(terms, i, value_of):
    """The terms free of slot ``i``, and the sum of the others with slot
    ``i``'s power k replaced by ``value_of(k)``, both as new dicts."""
    kept, new = {}, {}
    for t, c in terms.items():
        if not t[i]:
            kept[t] = c
            continue
        rest = t[:i] + (0,) + t[i + 1:]
        for m, r in value_of(t[i]).items():
            key = tuple(map(add, rest, m))
            new[key] = new[key] + c * r if key in new else c * r
    return kept, {t: c for t, c in new.items() if c}


def _copying_reduce(ctx, terms, out):
    """A new dict: ``out`` plus ``terms`` with over-high powers rewritten."""
    out, work = dict(out), list(terms.items())
    while work:
        t, c = work.pop()
        for i, size in ctx._caps:
            if t[i] >= size:
                work.extend(((*t[:i], j, *t[i + 1:]), c * r) for j, r in ctx._power_rep(i, t[i]))
                break
        else:
            out[t] = out[t] + c if t in out else c
    return {t: c for t, c in out.items() if c}


def _copying_recurrence(ctx, monomial):
    """Reference: ``ctx.recurrence`` with every statement of the body split
    and reduced into new dicts, whether it touches a term or not."""
    ctx._admit(monomial.variables())
    terms = _copying_reduce(ctx, {ctx._tuple(monomial): pe(1)}, {})
    for step in reversed(ctx.facts.body):
        i = ctx._slot[step.target]
        kept, new = _copying_split(terms, i, lambda k: ctx._replacement(step, k))
        terms = _copying_reduce(ctx, new, kept)
    return ctx._poly(terms)


def _copying_initial(ctx, monomial):
    """Reference: ``ctx.initial`` with every initial assignment split into
    new dicts."""
    ctx._admit(monomial.variables())
    terms = {ctx._tuple(monomial): pe(1)}
    for v, rhs in reversed(ctx.program.init):
        kept, new = _copying_split(terms, ctx._slot[v], lambda k: ctx._power_value(rhs, k))
        for t, c in new.items():
            kept[t] = kept[t] + c if t in kept else c
        terms = {t: c for t, c in kept.items() if c}
    missing = {ctx._order[i] for t in terms for i, e in enumerate(t) if e}
    if missing:
        raise UninitializedVariableError(tuple(sorted(missing)))
    return terms.get(ctx._one, pe(0))


def _outcome(f, *args):
    try:
        return f(*args)
    except (NonFiniteGuardError, UninitializedVariableError) as e:
        return type(e), str(e)


@given(random_programs())
@settings(max_examples=40, deadline=None)
def test_assembly_matches_the_copying_reference_on_random_programs(src):
    # every monomial of degree <= 2, asked of one context in one order and
    # of another in the reverse order: a cached dict that assembly changed
    # in place would change the answers that come after it
    np_ = normalize(parse(src))
    names = np_.all_variables
    monomials = [VarMonomial.one()] + [
        pm("*".join(pair)) for d in (1, 2) for pair in combinations_with_replacement(names, d)
    ]
    reference = MomentContext(np_)
    want = {
        m: (_outcome(_copying_recurrence, reference, m), _outcome(_copying_initial, reference, m))
        for m in monomials
    }
    for order in (monomials, monomials[::-1]):
        ctx = MomentContext(np_)
        got = {m: (_outcome(ctx.recurrence, m), _outcome(ctx.initial, m)) for m in order}
        assert got == want


def test_recurrence_coefficients_are_interned():
    ctx = ctx_of(BRANCHY_COUNTER)
    coeffs = [c for t in ("cnt**2", "z", "y**2") for _, c in ctx.recurrence(pm(t)).terms]
    assert len({id(c) for c in coeffs}) == len(set(coeffs)) < len(coeffs)
