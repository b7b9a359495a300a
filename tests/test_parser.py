"""Tests for the loop-language parser and validator."""

from fractions import Fraction

import pytest

from probsens.errors import ParseError
from probsens.parser import parse, parse_monomial, validate
from probsens.symbolic import ParamExpr
from probsens.syntax import (
    Assignment,
    BTrue,
    Categorical,
    Comparison,
    DistDraw,
    IfStatement,
    PolyExpr,
    VarMonomial,
    program_to_source,
)

FIVE_VAR = """
x = 0
y = 0
z = 0
u = 0
w = 1
while true:
    u = u + 5*x - 5*p**2*z**2 + p*z*y
    w = 5*w + x**2
    x = x + 1 {1/2} x - 1
    y = y - 5*p*z
    z = Bernoulli(p)
end
"""

EPIDEMIC = """
efficiency = 0
infected_prob = 0
vax = 0
while true:
    infected_prob = contact_param - contact_param*efficiency
    vax = 1 {vax_param} 0
    if vax == 1:
        efficiency = 1 {3/4} 0
    else:
        efficiency = efficiency {decline} 0
    end
end
"""


def test_five_var_structure():
    prog = parse(FIVE_VAR)
    assert prog.variables == ("u", "w", "x", "y", "z")
    assert prog.params == frozenset({"p"})
    assert len(prog.init) == 5
    assert len(prog.body) == 5
    assert isinstance(prog.guard, BTrue)
    x_assign = prog.body[2]
    assert isinstance(x_assign, Assignment)
    assert x_assign.targets == ("x",)
    cat = x_assign.rhss[0]
    assert isinstance(cat, Categorical)
    assert len(cat.choices) == 2
    assert cat.choices[0][1] == ParamExpr(Fraction(1, 2))
    assert cat.choices[1][1] == ParamExpr(Fraction(1, 2))
    z_assign = prog.body[4]
    assert isinstance(z_assign.rhss[0], DistDraw)
    assert z_assign.rhss[0].kind == "Bernoulli"


def test_epidemic_structure():
    prog = parse(EPIDEMIC)
    assert prog.params == frozenset({"contact_param", "vax_param", "decline"})
    assert prog.variables == ("efficiency", "infected_prob", "vax")
    branch_stmt = prog.body[2]
    assert isinstance(branch_stmt, IfStatement)
    assert len(branch_stmt.branches) == 1
    assert branch_stmt.else_body is not None


def test_omitted_probability_is_complement():
    prog = parse("x = 0\nwhile true:\n  x = 1 {p} 0\nend\n")
    cat = prog.body[0].rhss[0]
    p = ParamExpr("p")
    assert cat.choices[0][1] == p
    assert cat.choices[1][1] == ParamExpr(1) - p


def test_three_way_choice_with_trailing_probability():
    prog = parse("x = 0\nwhile true:\n  x = x + 1 {1/4} x - 1 {1/4} x {1/2}\nend\n")
    cat = prog.body[0].rhss[0]
    assert [c[1].as_fraction() for c in cat.choices] == [
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(1, 2),
    ]


def test_decimals_become_exact_fractions():
    prog = parse("x = 0.25\nwhile true:\n  x = x {0.1} 0\nend\n")
    init_rhs = prog.init[0].rhss[0]
    assert init_rhs.choices[0][0] == PolyExpr.const(Fraction(1, 4))
    assert prog.body[0].rhss[0].choices[0][1] == ParamExpr(Fraction(1, 10))


def test_guarded_loop_desugars_to_conditional_body():
    prog = parse("x = 0\nwhile x < 10:\n  x = x + 1\nend\n")
    assert isinstance(prog.guard, BTrue)
    assert len(prog.body) == 1
    wrapper = prog.body[0]
    assert isinstance(wrapper, IfStatement)
    cond = wrapper.branches[0][0]
    assert isinstance(cond, Comparison)
    assert cond.op == "<"
    inner = wrapper.branches[0][1]
    assert isinstance(inner[0], Assignment)


def test_simultaneous_assignment():
    prog = parse("x = 0\ny = 1\nwhile true:\n  x, y = y, x + y\nend\n")
    st = prog.body[0]
    assert st.targets == ("x", "y")
    assert len(st.rhss) == 2


def test_roundtrip_print_then_parse():
    for src in (FIVE_VAR, EPIDEMIC):
        prog = parse(src)
        again = parse(program_to_source(prog))
        assert again.body == prog.body
        assert again.init == prog.init
        assert again.params == prog.params


def test_unicode_operator_aliases():
    prog = parse("x = 0\nwhile ⋆:\n  if x ≠ 3 and x ≤ 9 or x ≥ 11:\n    x = x + 1\n  end\nend\n")
    cond = prog.body[0].branches[0][0]
    assert "!=" in str(cond)


def test_single_equals_is_equality_in_conditions():
    prog = parse("x = 0\nwhile true:\n  if x = 0:\n    x = 1\n  end\nend\n")
    cond = prog.body[0].branches[0][0]
    assert cond.op == "=="


def test_parenthesized_boolean_groups():
    prog = parse(
        "x = 0\ny = 0\nwhile true:\n"
        "  if (x < 1 or y > 2) and not y = 5:\n    x = 1\n  end\n"
        "  y = (x + 1)*(x - 1)\nend\n"
    )
    cond = prog.body[0].branches[0][0]
    assert "or" in str(cond)
    rhs = prog.body[1].rhss[0].choices[0][0]
    assert rhs == PolyExpr.var("x") ** 2 - PolyExpr.const(1)


def test_else_if_chain():
    prog = parse(
        "x = 0\ny = 0\nwhile true:\n"
        "  x = DiscreteUniform(1, 6)\n"
        "  if x < 3:\n    y = 1\n  else if x < 5:\n    y = 2\n  else:\n    y = 3\n  end\n"
        "end\n"
    )
    st = prog.body[1]
    assert len(st.branches) == 2
    assert st.else_body is not None


def test_comments_and_blank_lines_ignored():
    prog = parse("# leading\n\nx = 0  # trailing\n\nwhile true:\n  # inner\n  x = x + 1\nend\n# after\n")
    assert prog.variables == ("x",)


def test_leading_comments_keep_first_statement_targets():
    prog = parse("# leading\n\n   \n# more\ny = 0\nx = y\nwhile true:\n  x = x + y\nend\n")
    assert prog.variables == ("x", "y")
    assert prog.params == frozenset()


def test_names_assigned_in_same_line_branch_bodies_are_variables():
    prog = parse("x = 0\nwhile true:\n  if x < 1: z = 1\n  else: z = 2\n  end\n  x = z\nend\n")
    assert prog.variables == ("x", "z")
    assert prog.params == frozenset()
    (if_st, assign) = prog.body
    assert [body[0].targets for _, body in if_st.branches] == [("z",)]
    assert if_st.else_body[0].targets == ("z",)
    assert assign.rhss[0].choices[0][0] == PolyExpr.var("z")


def test_parameter_whose_terms_cancel_stays_a_parameter():
    prog = parse("x = 0\nwhile true:\n  x = x + p - p\nend\n")
    assert prog.params == frozenset({"p"})
    assert prog.body[0].rhss[0].choices[0][0] == PolyExpr.var("x")


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


def test_read_before_assignment_in_init():
    with pytest.raises(ParseError, match="read before assignment"):
        parse("x = y\ny = 0\nwhile true:\n  x = x\nend\n")


def test_read_before_assignment_in_body():
    with pytest.raises(ParseError, match="read before assignment"):
        parse("x = 0\nwhile true:\n  x = t\n  t = 1\nend\n")


def test_conditional_only_assignment_needs_prior_value():
    with pytest.raises(ParseError, match="no prior value"):
        parse("x = 0\nwhile true:\n  if x < 1:\n    y = 2\n  end\n  x = x + 1\nend\n")


def test_conditional_assignment_fine_with_prior_value():
    prog = parse("x = 0\ny = 0\nwhile true:\n  if x < 1:\n    y = 2\n  end\n  x = x + y\nend\n")
    assert "y" in prog.variables


def test_assignment_in_all_branches_counts_as_definite():
    prog = parse(
        "x = 0\nwhile true:\n"
        "  if x < 1:\n    y = 2\n  else:\n    y = 3\n  end\n"
        "  x = x + y\nend\n"
    )
    assert "y" in prog.variables


def test_double_initialization_rejected():
    with pytest.raises(ParseError, match="initialized twice"):
        parse("x = 0\nx = 1\nwhile true:\n  x = x\nend\n")


def test_conditional_before_loop_rejected():
    with pytest.raises(ParseError, match="before the loop"):
        parse("x = 0\nif x < 1:\n  x = 2\nend\nwhile true:\n  x = x\nend\n")


def test_two_omitted_probabilities_rejected():
    with pytest.raises(ParseError, match="omitted"):
        parse("x = 0\nwhile true:\n  x = 1 {1/2} 2 3\nend\n")


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("x = 0\nwhile true:\n  x = +\nend\n")
    assert exc.value.line == 3


def test_division_by_variable_rejected():
    with pytest.raises(ParseError, match="division"):
        parse("x = 1\nwhile true:\n  x = 1/x\nend\n")


def test_division_by_parameter_allowed():
    prog = parse("x = 1\nwhile true:\n  x = x/q + 1/2\nend\n")
    assert prog.params == frozenset({"q"})


def test_division_by_zero_rejected():
    with pytest.raises(ParseError, match="division by zero"):
        parse("x = 1\nwhile true:\n  x = x/0\nend\n")


def test_variable_in_probability_rejected():
    with pytest.raises(ParseError, match="probability"):
        parse("x = 1\nwhile true:\n  x = 1 {x} 0\nend\n")


def test_variable_in_distribution_argument_rejected():
    with pytest.raises(ParseError, match="distribution argument"):
        parse("x = 1\nwhile true:\n  x = Normal(x, 1)\nend\n")


def test_guard_variable_must_be_initialized():
    with pytest.raises(ParseError, match="loop guard"):
        parse("while y < 3:\n  y = 1\nend\n")


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError, match="natural"):
        parse("x = 1\nwhile true:\n  x = x**1.5\nend\n")


def test_second_loop_rejected():
    with pytest.raises(ParseError, match="one loop"):
        parse("x = 0\nwhile true:\n  x = x\nend\nwhile true:\n  x = x\nend\n")


def test_target_count_mismatch():
    with pytest.raises(ParseError, match="target"):
        parse("x = 0\ny = 0\nwhile true:\n  x, y = 1\nend\n")


def test_duplicate_simultaneous_target():
    with pytest.raises(ParseError, match="duplicate"):
        parse("x = 0\nwhile true:\n  x, x = 1, 2\nend\n")


# ---------------------------------------------------------------------------
# parse_monomial
# ---------------------------------------------------------------------------


def test_parse_monomial():
    assert parse_monomial("x") == VarMonomial.var("x")
    assert parse_monomial("x*y**2") == VarMonomial.from_map({"x": 1, "y": 2})
    assert parse_monomial("x**2") == VarMonomial.var("x", 2)


def test_parse_monomial_rejects_sums_and_constants():
    with pytest.raises(ParseError):
        parse_monomial("x + y")
    with pytest.raises(ParseError):
        parse_monomial("2*x")
    with pytest.raises(ParseError):
        parse_monomial("3")


# ---------------------------------------------------------------------------
# validate()
# ---------------------------------------------------------------------------


def _diag_messages(prog):
    return [str(d) for d in validate(prog)]


def test_validate_accepts_good_program():
    assert validate(parse(FIVE_VAR)) == []
    # Symbolic probabilities warn (validity assumed), but nothing errors.
    diags = validate(parse(EPIDEMIC))
    assert all(d.severity == "warning" for d in diags)


def test_validate_numeric_probabilities_must_sum_to_one():
    prog = parse("x = 0\nwhile true:\n  x = 1 {1/2} 0 {1/3}\nend\n")
    msgs = _diag_messages(prog)
    assert any("sum" in m and "error" in m for m in msgs)


def test_validate_probability_out_of_range():
    prog = parse("x = 0\nwhile true:\n  x = 1 {3/2} 0 {-1/2}\nend\n")
    msgs = _diag_messages(prog)
    assert any("outside" in m for m in msgs)


def test_validate_symbolic_probability_warns():
    prog = parse("x = 0\nwhile true:\n  x = 1 {p} 0\nend\n")
    diags = validate(prog)
    assert len(diags) == 1
    assert diags[0].severity == "warning"
    assert "symbolic probability" in diags[0].message


def test_validate_discrete_uniform_needs_integer_literals():
    prog = parse("x = 0\nwhile true:\n  x = DiscreteUniform(1/2, 3)\nend\n")
    assert any("integer" in m for m in _diag_messages(prog))
    prog = parse("x = 0\nwhile true:\n  x = DiscreteUniform(5, 3)\nend\n")
    assert any("order" in m for m in _diag_messages(prog))
    prog = parse("x = 0\nwhile true:\n  x = DiscreteUniform(-2, 2)\nend\n")
    assert validate(prog) == []


def test_validate_distribution_arity():
    prog = parse("x = 0\nwhile true:\n  x = Bernoulli(1/2, 1/3)\nend\n")
    assert any("argument" in m for m in _diag_messages(prog))


def test_validate_uniform_empty_range():
    prog = parse("x = 0\nwhile true:\n  x = Uniform(2, 2)\nend\n")
    assert any("empty" in m for m in _diag_messages(prog))
