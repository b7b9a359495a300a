"""Tests for dependency analysis and program classification.

The closure relations are checked against brute-force definitional fixpoints
on small synthetic graphs, and the finite-value analysis against plain
simulation of the loop.
"""

import pickle
import random
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings

import probsens.dependency as dependency
from probsens.dependency import (
    VALUE_SET_CAP,
    _BIT_CAP,
    _POINT_CAP,
    build_graph,
    classify,
    variable_supports,
)
from probsens.normalize import normalize
from probsens.parser import parse
from probsens.symbolic import pe
from probsens.syntax import (
    Assignment,
    BTrue,
    Categorical,
    Comparison,
    DistDraw,
    GuardedAssignment,
    NormalizedProgram,
    PolyExpr,
    VarMonomial,
    bexpr_eval,
    bexpr_vars,
)

from test_normalize import EPIDEMIC, TRICKY_PROGRAMS, random_programs

CORPUS = Path(__file__).resolve().parent.parent / "src" / "probsens" / "benchmarks"

# A loop mixing a defective pair (w, x feed each other through a square) with
# a parameter-dependent chain (z, y, u) that never touches it.
MIXED = """
u, w, x, y, z = 0, 1, 2, 3, 4
while true:
    z = z + p**2 {1/2} z + p
    y = y - 5*p*z
    w = 5*w + x**2
    x = 5 + w + x
    u = x + p*z*y
end
"""

# Same loop plus one assignment whose p-scaled term reads the defective x.
MIXED_TAINTED = """
u, w, x, y, z = 0, 1, 2, 3, 4
v = 0
while true:
    z = z + p**2 {1/2} z + p
    y = y - 5*p*z
    w = 5*w + x**2
    x = 5 + w + x
    u = x + p*z*y
    v = v + p*x
end
"""


def norm(src):
    return normalize(parse(src))


def depends(g, x, y):
    """x depends on y over a path of at least one direct edge."""
    return any(y in g.reach(z) for z in g.direct[x])


# ---------------------------------------------------------------------------
# Direct relations on hand-checked programs
# ---------------------------------------------------------------------------


def test_direct_and_nonlinear_edges():
    g = build_graph(norm(MIXED))
    assert "z" in g.direct["y"]
    assert "x" in g.nonlinear["w"]
    assert g.depends_nonlinear("u", "w")
    assert not g.nonlinear["y"]
    assert not g.nonlinear["x"]  # 5 + w + x is linear


def test_a_classified_program_pickles_without_its_facts():
    np_ = norm(MIXED)
    verdict = classify(np_, "p")
    copy = pickle.loads(pickle.dumps(np_))
    assert copy == np_ and "_facts" not in vars(copy)
    assert classify(copy, "p") == verdict


def test_defective_variables():
    g = build_graph(norm(MIXED))
    assert g.defective == {"w", "x"}


def test_defective_witness_paths():
    g = build_graph(norm(MIXED))
    assert g.defective_witness("w") == "w =N=> x => w : defective"
    assert g.defective_witness("x") == "x => w =N=> x : defective"


def test_parameter_dependent_variables():
    g = build_graph(norm(MIXED))
    assert g.p_dependent("p") == {"z", "y", "u"}


def test_classify_defective_but_parameter_clean():
    c = classify(norm(MIXED), "p")
    assert not c.admissible
    assert c.thm2_ok
    assert c.defective == ("w", "x")
    assert any("defective" in w for w in c.witnesses)


def test_parameter_influenced_path_to_defective_is_flagged():
    c = classify(norm(MIXED_TAINTED), "p")
    assert not c.admissible
    assert not c.thm2_ok
    assert any("v =p=> x" in w for w in c.witnesses)


def test_guard_edges_connect_condition_variables():
    np_ = norm(EPIDEMIC)
    g = build_graph(np_)
    assert "vax" in g.direct["efficiency"]
    assert depends(g, "infected_prob", "vax")
    c = classify(np_, "vax_param")
    assert c.admissible and c.thm2_ok
    assert c.defective == ()


def test_parameter_dependence_respects_direction():
    g = build_graph(norm(EPIDEMIC))
    assert "infected_prob" in g.p_dependent("decline")
    assert "efficiency" in g.p_dependent("decline")
    assert "vax" not in g.p_dependent("decline")
    assert {"vax", "efficiency", "infected_prob"} <= g.p_dependent("vax_param")


def test_parameter_in_initialization_counts():
    np_ = norm("x = p\ny = 0\nwhile true:\n    y = y + x\nend\n")
    g = build_graph(np_)
    assert "x" in g.p_dependent("p")
    assert "y" in g.p_dependent("p")


def test_influenced_edge_reasons():
    g = build_graph(norm(MIXED_TAINTED))
    assert g.edge_reason("v", "x", "p") == "term"
    infl = g.influenced_edges("p")
    assert infl["v"] == {"x"}
    assert infl["u"] == {"z", "y"}


def test_guard_over_parameter_dependent_variable_influences():
    src = """
flip = 0
x = 0
while true:
    flip = 1 {p} 0
    if flip == 1:
        x = x + 1
    end
end
"""
    g = build_graph(norm(src))
    infl = g.influenced_edges("p")
    assert "x" in g.p_dependent("p")
    # the kept value is itself selected by a p-dependent condition
    assert "x" in infl["x"]
    assert g.edge_reason("x", "x", "p") == "guard"


def test_probability_edges_influence_choice_variables():
    src = "x = 0\nwhile true:\n    x = x + 1 {p} x - 1\nend\n"
    g = build_graph(norm(src))
    assert g.influenced_edges("p")["x"] == {"x"}
    assert g.edge_reason("x", "x", "p") == "probability"


# ---------------------------------------------------------------------------
# Value-set analysis
# ---------------------------------------------------------------------------


def test_finite_value_sets_of_binary_state():
    sup = variable_supports(norm(EPIDEMIC))
    assert sup["vax"] == {F(0), F(1)}
    assert sup["efficiency"] == {F(0), F(1)}
    assert sup["infected_prob"] is None  # parameters in the coefficients


def test_counter_is_not_finite():
    np_ = norm("x = 0\nwhile true:\n    x = x + 1\nend\n")
    assert variable_supports(np_)["x"] is None


def test_bernoulli_complement_is_finite():
    np_ = norm("b = 0\nc = 0\nwhile true:\n    b = Bernoulli(p)\n    c = 1 - b\nend\n")
    sup = variable_supports(np_)
    assert sup["b"] == {F(0), F(1)}
    assert sup["c"] == {F(0), F(1)}


def test_discrete_uniform_support():
    np_ = norm("x = 0\nwhile true:\n    x = DiscreteUniform(1, 5)\nend\n")
    # initial value plus the draw's range
    assert variable_supports(np_)["x"] == {F(k) for k in range(0, 6)}


def test_continuous_draws_are_not_finite():
    np_ = norm("g = 0\nu = 0\nwhile true:\n    g = Normal(0, 1)\n    u = Uniform(0, 1)\nend\n")
    sup = variable_supports(np_)
    assert sup["g"] is None and sup["u"] is None


def test_value_cap_gives_up_on_growing_sets():
    np_ = norm("x = 1\nwhile true:\n    x = 2*x {1/2} x\nend\n")
    assert variable_supports(np_)["x"] is None


def test_classify_rejects_unbounded_guard_variable():
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
    c = classify(norm(src), "p")
    assert not c.admissible
    assert not c.thm2_ok
    assert not c.guard_vars_finite
    assert any("guard variable 'x'" in w for w in c.witnesses)


def test_simulated_values_stay_within_reported_supports():
    cases = [
        (EPIDEMIC, {"contact_param": F(1, 2), "vax_param": F(1, 3), "decline": F(9, 10)}),
        (TRICKY_PROGRAMS[2], {}),  # die roll steering a counter
        ("b = 0\nc = 0\nwhile true:\n    b = Bernoulli(1/3)\n    c = 1 - b\nend\n", {}),
    ]
    for src, sigma in cases:
        np_ = norm(src)
        sup = variable_supports(np_)
        seen = _simulate_values(np_, sigma, iterations=10_000, seed=7)
        for v, s in sup.items():
            if s is not None:
                assert seen[v] <= s, f"{v} escaped its value set in {src!r}"


def _simulate_values(np_, sigma, iterations, seed):
    rng = random.Random(seed)
    state = {v: F(0) for v in np_.all_variables}
    seen = {v: set() for v in np_.all_variables}

    def draw(rhs):
        if isinstance(rhs, DistDraw):
            if rhs.kind == "Bernoulli":
                q = rhs.args[0].eval_fraction(sigma)
                return F(1) if rng.random() < q else F(0)
            if rhs.kind == "DiscreteUniform":
                a, b = (int(arg.eval_fraction(sigma)) for arg in rhs.args)
                return F(rng.randint(a, b))
            raise AssertionError("finite-value tests use discrete draws only")
        r = rng.random()
        acc = 0.0
        for poly, prob in rhs.choices:
            acc += float(prob.eval_fraction(sigma))
            if r < acc:
                return poly.eval_with_params(state, sigma)
        return rhs.choices[-1][0].eval_with_params(state, sigma)

    for v, rhs in np_.init:
        state[v] = draw(rhs)
        seen[v].add(state[v])
    for _ in range(iterations):
        for ga in np_.body:
            if bexpr_eval(ga.guard, state, sigma):
                val = draw(ga.rhs)
            else:
                val = state[ga.else_source]
            state[ga.target] = val
            seen[ga.target].add(val)
    return seen


# ---------------------------------------------------------------------------
# Value sets against the naive fixpoint
# ---------------------------------------------------------------------------


def _naive_supports(np_, cap=VALUE_SET_CAP, point_cap=_POINT_CAP):
    """Reference: every pass evaluates every right-hand side over the whole
    cross product of the current supports, until no support changes."""

    def join(a, b):
        return None if a is None or b is None or len(a | b) > cap else a | b

    def poly_values(poly, sup):
        if not all(c.is_rational for _, c in poly.terms):
            return None
        names, points = sorted(poly.variables()), 1
        for v in names:
            if sup[v] is None:
                return None
            points *= len(sup[v])
            if points > point_cap:
                return None
        out = {poly.eval_with_params(dict(zip(names, combo)), {}) for combo in product(*(sup[v] for v in names))}
        return None if len(out) > cap else frozenset(out)

    def rhs_values(rhs, sup):
        if isinstance(rhs, DistDraw):
            if rhs.kind == "Bernoulli":
                return frozenset({F(0), F(1)})
            if rhs.kind != "DiscreteUniform" or not all(a.is_rational for a in rhs.args):
                return None
            lo, hi = (a.as_fraction() for a in rhs.args)
            if lo.denominator != 1 or hi.denominator != 1 or hi < lo:
                return None
            return join(frozenset(), frozenset(F(k) for k in range(int(lo), int(hi) + 1)))
        acc = frozenset()
        for poly, _ in rhs.choices:
            acc = join(acc, poly_values(poly, sup))
        return acc

    sup = {v: frozenset() for v in np_.all_variables}
    for v, rhs in np_.init:
        sup[v] = join(sup[v], rhs_values(rhs, sup))
    while True:
        before = dict(sup)
        for ga in np_.body:
            vals = rhs_values(ga.rhs, sup)
            if ga.else_source is not None:
                vals = join(vals, sup[ga.else_source])
            sup[ga.target] = join(sup[ga.target], vals)
        if sup == before:
            return sup


def _coin_program(k):
    """k sticky coins and their sum, in the form of coin_flips_50.prob."""
    names = [f"c{i}" for i in range(1, k + 1)]
    lines = [", ".join(names) + " = " + ", ".join("0" for _ in names), "total = 0", "while true:"]
    lines += [f"    {c} = 1 {{p}} {c}" for c in names]
    lines += ["    total = " + " + ".join(names), "end"]
    return "\n".join(lines) + "\n"


@given(random_programs())
@settings(max_examples=60, deadline=None)
def test_supports_match_naive_fixpoint_on_random_programs(src):
    np_ = norm(src)
    assert variable_supports(np_) == _naive_supports(np_)
    # small caps, so that both give-up rules fire often
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dependency, "VALUE_SET_CAP", 4)
        mp.setattr(dependency, "_POINT_CAP", 9)
        assert variable_supports(np_) == _naive_supports(np_, 4, 9)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.prob")), ids=lambda p: p.stem)
def test_supports_match_naive_fixpoint_on_corpus(path):
    np_ = norm(path.read_text())
    assert variable_supports(np_) == _naive_supports(np_)


@pytest.mark.parametrize("k", range(9, 14))
def test_supports_match_naive_fixpoint_on_coins(k):
    np_ = norm(_coin_program(k))
    assert variable_supports(np_) == _naive_supports(np_)


def test_value_cap_boundary():
    base = "a = 0\nb = 0\ns = 0\nwhile true:\n    a = DiscreteUniform(0, 7)\n    b = DiscreteUniform(0, 7)\n"
    exactly_cap = norm(base + "    s = 8*a + b\nend\n")  # 0..63
    assert variable_supports(exactly_cap)["s"] == {F(k) for k in range(64)}
    one_over = norm(base + "    s = 8*a + b + 1\nend\n")  # 0..64
    assert variable_supports(one_over)["s"] is None
    product_form = norm(base + "    s = a*b + a + 8*b + 1\nend\n")  # (a + 8)(b + 1) - 7
    assert variable_supports(product_form) == _naive_supports(product_form)


def test_reads_that_grow_together_meet_in_new_combinations():
    # s and t are evaluated before x and y grow, so x = 1 and y = 1 arrive
    # in the same pass and only the pair (1, 1) gives 11 and 3.
    np_ = norm(
        "x = 0\ny = 0\ns = 0\nt = 0\nwhile true:\n"
        "    s = x + 10*y\n    t = x*y + 2*x\n    x = 1\n    y = 1\nend\n"
    )
    sup = variable_supports(np_)
    assert sup["s"] == {F(0), F(1), F(10), F(11)}
    assert sup["t"] == {F(0), F(2), F(3)}


def test_point_cap_boundary_on_coin_sums():
    assert variable_supports(norm(_coin_program(12)))["total"] == {F(k) for k in range(13)}
    # 2^13 combinations exceed the point cap although only 14 sums exist
    assert variable_supports(norm(_coin_program(13)))["total"] is None


def test_parameter_coefficient_is_not_finite():
    np_ = norm("b = 0\nx = 0\nwhile true:\n    b = Bernoulli(1/2)\n    x = p*b\nend\n")
    sup = variable_supports(np_)
    assert sup["b"] == {F(0), F(1)}
    assert sup["x"] is None


def test_branch_only_variable_keeps_its_empty_set():
    # t is never initialized and only written under a guard from its own
    # value, so no value ever reaches it; u reads it in a product.
    one = Categorical.sure(PolyExpr.const(F(1)))
    x_is_zero = Comparison(PolyExpr.var("x"), "==", PolyExpr.const(F(0)))
    np_ = NormalizedProgram(
        params=frozenset(),
        init=(("x", one), ("u", one)),
        body=(
            GuardedAssignment("t", Categorical.sure(PolyExpr.var("t") + PolyExpr.const(F(1))), x_is_zero, "t"),
            GuardedAssignment("u", Categorical.sure(PolyExpr.var("t") * PolyExpr.var("x")), BTrue(), None),
        ),
        variables=("t", "u", "x"),
        temporaries=(),
        temp_origin=(),
        name="branch_only",
    )
    sup = variable_supports(np_)
    assert sup == {"t": frozenset(), "u": {F(1)}, "x": {F(1)}}
    assert sup == _naive_supports(np_)


NON_INTEGRAL = [
    ("x = 1\nwhile true:\n    x = x/2 {1/2} 1\nend\n", "x", None),
    (
        "a = 0\nb = 0\nh = 0\nwhile true:\n    a = DiscreteUniform(1, 3)\n"
        "    b = DiscreteUniform(1, 2)\n    h = a/2 + b/3\nend\n",
        "h",
        {F(a, 2) + F(b, 3) for a in range(4) for b in range(3)},  # a = b = 0 at the start
    ),
    # halves that sum to integers again
    (
        "a = 0\nb = 0\ns = 0\nwhile true:\n    a = Bernoulli(1/2)\n    b = Bernoulli(1/3)\n"
        "    s = a/2 + b/2 {1/3} 3*s/2 - s/2\nend\n",
        "s",
        {F(0), F(1, 2), F(1)},
    ),
    (
        "y = 1/3\nz = 0\nwhile true:\n    y = 1 - y {1/2} 1/3\n    z = 3*y**2 + y\nend\n",
        "z",
        {F(0), F(2, 3), F(2)},
    ),
]


@pytest.mark.parametrize("src, var, expected", NON_INTEGRAL, ids=["halving", "sum", "back_to_ints", "thirds"])
def test_non_integral_values_match_naive_fixpoint(src, var, expected):
    np_ = norm(src)
    sup = variable_supports(np_)
    assert sup == _naive_supports(np_)
    assert sup[var] == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dependency, "VALUE_SET_CAP", 4)
        mp.setattr(dependency, "_POINT_CAP", 9)
        small = variable_supports(np_)
    assert small == _naive_supports(np_, 4, 9)
    for s in (sup, small):
        assert all(type(x) is F for values in s.values() if values is not None for x in values)


SQUARING = "x = 2\nwhile true:\n    x = x*x\nend\n"


def test_squaring_loop_stops_at_the_bit_cap():
    # 2**(2**k) passes 4096 bits at k = 12, long before 64 values
    assert variable_supports(norm(SQUARING))["x"] is None


@pytest.mark.parametrize("sign", [1, -1])
def test_bit_cap_boundary(sign):
    def support(value):
        return variable_supports(norm(f"x = 0\nwhile true:\n    x = {value}\nend\n"))["x"]

    widest = 2**_BIT_CAP - 1
    assert support(sign * widest) == {F(0), F(sign * widest)}
    assert support(sign * (widest + 1)) is None
    assert support(f"{sign}/{widest}") == {F(0), F(sign, widest)}
    assert support(f"{sign}/{widest + 1}") is None


# ---------------------------------------------------------------------------
# Closure relations against a brute-force fixpoint
# ---------------------------------------------------------------------------


def _synthetic_program(seed):
    """Random single-assignment loop realizing an arbitrary small edge set."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(rng.randint(2, 8))]
    init = tuple(
        (v, Categorical.sure(PolyExpr.const(F(rng.randint(0, 3))))) for v in names
    )
    body = []
    for t in names:
        reads = rng.sample(names, rng.randint(0, min(3, len(names))))
        poly = PolyExpr.const(F(1))
        for y in reads:
            exp = rng.choice([1, 1, 2])
            coeff = pe("p") if rng.random() < 0.3 else pe(rng.randint(1, 3))
            poly = poly + PolyExpr.monomial(VarMonomial.var(y, exp), coeff)
        if rng.random() < 0.5:
            rhs = Categorical(((poly, pe(1) - pe("p")), (PolyExpr.const(F(0)), pe("p"))))
        else:
            rhs = Categorical.sure(poly)
        if rng.random() < 0.3:
            guard = Comparison(PolyExpr.var(rng.choice(names)), "<", PolyExpr.const(F(2)))
            body.append(GuardedAssignment(t, rhs, guard, rng.choice(names)))
        else:
            body.append(GuardedAssignment(t, rhs, BTrue(), None))
    return NormalizedProgram(
        params=frozenset({"p"}),
        init=init,
        body=tuple(body),
        variables=tuple(names),
        temporaries=(),
        temp_origin=(),
        name=f"synthetic{seed}",
    )


def _bf_transitive(pairs):
    rel = set(pairs)
    while True:
        extra = {(a, d) for (a, b) in rel for (c, d) in rel if b == c} - rel
        if not extra:
            return rel
        rel |= extra


def _bf_marked_closure(direct_pairs, marked_pairs):
    """Paths crossing at least one marked edge: marked edges composed with
    plain transitive dependency on either side."""
    plus = _bf_transitive(direct_pairs)
    rel = set(marked_pairs)
    while True:
        extra = set()
        for a, b in rel:
            for c, d in plus:
                if b == c:
                    extra.add((a, d))
                if d == a:
                    extra.add((c, b))
        extra -= rel
        if not extra:
            return rel
        rel |= extra


@pytest.mark.parametrize("seed", range(40))
def test_closures_match_bruteforce(seed):
    np_ = _synthetic_program(seed)
    g = build_graph(np_)
    nodes = g.variables
    direct_pairs = {(x, y) for x in nodes for y in g.direct[x]}
    nl_pairs = {(x, y) for x in nodes for y in g.nonlinear[x]}
    infl = g.influenced_edges("p")
    infl_pairs = {(x, y) for x in nodes for y in infl[x]}

    plus = _bf_transitive(direct_pairs)
    nl_plus = _bf_marked_closure(direct_pairs, nl_pairs)
    infl_plus = _bf_marked_closure(direct_pairs, infl_pairs)

    for x in nodes:
        for y in nodes:
            assert depends(g, x, y) == ((x, y) in plus)
            assert g.depends_nonlinear(x, y) == ((x, y) in nl_plus)
            # some dependency path from x to y crosses a p-influenced edge
            crosses = any(y in g.reach(b) for a in g.reach(x) for b in infl[a])
            assert crosses == ((x, y) in infl_plus)
    assert g.defective == frozenset(x for x in nodes if (x, x) in nl_plus)


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("src", [EPIDEMIC, MIXED, MIXED_TAINTED, *TRICKY_PROGRAMS[1:3]])
def test_influence_and_nonlinearity_stay_within_dependency(src):
    np_ = norm(src)
    g = build_graph(np_)
    for x in g.variables:
        assert g.nonlinear[x] <= g.direct[x]
        for p in sorted(np_.params) or ["p"]:
            assert g.influenced_edges(p)[x] <= g.direct[x]


@given(random_programs())
@settings(max_examples=40, deadline=None)
def test_admissible_implies_sensitivity_ready(src):
    np_ = norm(src)
    for p in sorted(np_.params) or ["p"]:
        c = classify(np_, p)
        if c.admissible:
            assert c.thm2_ok
        if not c.guard_vars_finite:
            assert not c.admissible and not c.thm2_ok


def _surface_read_edges(prog):
    """Dependency edges read off the original branching program: assigned
    variable -> right-hand-side variables and enclosing condition variables.

    Only reads of the *previous iteration's* value are collected: a read of y
    that may follow a same-iteration write of y resolves to that write's
    expression instead, so the normalized graph legitimately drops the edge
    to y itself.
    """
    edges = set()

    def walk(stmts, cond_vars, written):
        # cond_vars: (variable, read-before-any-write) pairs of enclosing guards
        for st in stmts:
            if isinstance(st, Assignment):
                for t, rhs in zip(st.targets, st.rhss):
                    for y in rhs.variables():
                        if y not in written:
                            edges.add((t, y))
                    for y, fresh in cond_vars:
                        if fresh:
                            edges.add((t, y))
                written |= set(st.targets)
            else:
                entry_written = frozenset(written)
                conds = list(cond_vars)
                branch_writes = set()
                for cond, body in st.branches:
                    conds.extend((y, y not in entry_written) for y in bexpr_vars(cond))
                    bw = set(entry_written)
                    walk(body, tuple(conds), bw)
                    branch_writes |= bw
                if st.else_body is not None:
                    bw = set(entry_written)
                    walk(st.else_body, tuple(conds), bw)
                    branch_writes |= bw
                written |= branch_writes

    walk(prog.body, (), set())
    return edges


def _project_over_temporaries(g, np_):
    """Surface-level edges: for each original variable, the union of edges of
    every normalized assignment derived from it (its own plus renamed
    intermediate writes), with temporaries flattened away."""
    temps = set(np_.temporaries)
    writers = {v: [v] for v in np_.variables}
    for temp, origin in np_.temp_origin:
        writers[origin].append(temp)
    proj = {}
    for x in np_.variables:
        out = set()
        stack = [w for writer in writers[x] for w in g.direct[writer]]
        visited = set(stack)
        while stack:
            w = stack.pop()
            if w in temps:
                for z in g.direct[w]:
                    if z not in visited:
                        visited.add(z)
                        stack.append(z)
            else:
                out.add(w)
        proj[x] = out
    return proj


@pytest.mark.parametrize("src", TRICKY_PROGRAMS)
def test_normalization_preserves_surface_dependencies(src):
    prog = parse(src)
    np_ = normalize(prog)
    proj = _project_over_temporaries(build_graph(np_), np_)
    for t, y in _surface_read_edges(prog):
        assert y in proj[t], f"lost dependency {t} -> {y}"


@given(random_programs())
@settings(max_examples=40, deadline=None)
def test_normalization_preserves_surface_dependencies_random(src):
    prog = parse(src)
    np_ = normalize(prog)
    proj = _project_over_temporaries(build_graph(np_), np_)
    for t, y in _surface_read_edges(prog):
        assert y in proj[t]
