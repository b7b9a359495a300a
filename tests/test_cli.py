"""End-to-end tests of the command-line interface.

Covers the report formats, the exit-code taxonomy, the equation-cap
environment variable, and a round trip over the packaged program corpus.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import probsens.cli as cli
import probsens.errors as errors
from probsens.cli import main
from probsens.normalize import normalize
from probsens.parser import parse, parse_monomial, validate
from probsens.sensitivity import moment_closure, sensitivity_system
from probsens.syntax import program_to_source

from test_dependency import _coin_program

CORPUS = Path(cli.__file__).parent / "benchmarks"
MANIFEST = CORPUS / "manifest.json"

FIG_SINGLE = str(CORPUS / "vaccination.prob")
FIG_PAIR = str(CORPUS / "non_admissible.prob")
TAINTED = str(CORPUS / "thm2_violation.prob")

EPIDEMIC_POINT = "decline=9/10,contact_param=7/10,vax_param=1/10"


@pytest.fixture()
def runner():
    return CliRunner()


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_json_nine_equations(runner):
    result = runner.invoke(
        main,
        ["analyze", FIG_PAIR, "--target", "u", "--wrt", "p", "--method", "sensrec", "--format", "json"],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["schema_version"] == "1"
    assert report["rec"] == 9
    assert len(report["equations"]) == 9
    assert report["method"] == "sensrec"
    assert report["classification"]["admissible"] is False
    assert report["classification"]["thm2_ok"] is True
    lhs = {eq["lhs"] for eq in report["equations"]}
    assert "d/dp E(u | n+1)" in lhs
    assert report["closed_form_text"]


def test_analyze_text_epidemic_probe(runner):
    result = runner.invoke(
        main,
        [
            "analyze",
            FIG_SINGLE,
            "--target",
            "infected_prob",
            "--wrt",
            "vax_param",
            "--eval",
            EPIDEMIC_POINT,
            "--at-n",
            "11",
        ],
    )
    assert result.exit_code == 0, result.output
    assert "classification: admissible; sensitivity-closable" in result.output
    assert "n=11:" in result.output


def test_analyze_json_epidemic_probe_value(runner):
    result = runner.invoke(
        main,
        [
            "analyze",
            FIG_SINGLE,
            "--target",
            "infected_prob",
            "--wrt",
            "vax_param",
            "--eval",
            EPIDEMIC_POINT,
            "--at-n",
            "11",
            "--format",
            "json",
        ],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    (ev,) = report["evaluations"]
    assert ev["n"] == 11
    value = Fraction(ev["value"])
    assert abs(value + Fraction(17, 10)) <= Fraction(5, 100)
    assert ev["float"] == pytest.approx(float(value))


def test_analyze_parameter_independent_target(runner):
    result = runner.invoke(
        main,
        ["analyze", FIG_PAIR, "--target", "w", "--wrt", "p", "--method", "sensrec", "--format", "json"],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["rec"] == 0
    assert report["equations"] == []
    assert report["closed_form"]["terms"] == []

    text = runner.invoke(
        main, ["analyze", FIG_PAIR, "--target", "w", "--wrt", "p", "--method", "sensrec"]
    )
    assert "(target does not depend on the parameter)" in text.output


@pytest.mark.parametrize(
    "program, target, wrt",
    [(FIG_SINGLE, "infected_prob", "vax_param"), (FIG_PAIR, "u", "p")],
    ids=["diff", "sensrec"],
)
def test_analyze_auto_classifies_once(runner, monkeypatch, program, target, wrt):
    import probsens.dependency as dependency

    original = dependency.classify
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "probsens" or name.startswith("probsens."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    result = runner.invoke(
        main, ["analyze", program, "--target", target, "--wrt", wrt, "--format", "json"]
    )
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


def test_classify_runs_the_value_set_fixpoint_once(runner, monkeypatch):
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
    hawk_dove = str(CORPUS / "hawk_dove.prob")  # parameters p and q
    result = runner.invoke(main, ["classify", hawk_dove, "--format", "json"])
    assert result.exit_code == 0, result.output
    assert [c["parameter"] for c in json.loads(result.output)["classifications"]] == ["p", "q"]
    assert len(calls) == 1


def test_analyze_explain_builds_one_dependency_graph(runner, monkeypatch):
    import probsens.dependency as dependency

    original = dependency.DependencyGraph.__init__
    calls = []

    def counting(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(dependency.DependencyGraph, "__init__", counting)
    result = runner.invoke(
        main, ["analyze", FIG_PAIR, "--target", "u", "--wrt", "p", "--explain", "u"]
    )
    assert result.exit_code == 0, result.output
    assert "reads:" in result.output
    assert len(calls) == 1


def test_analyze_dump_normalized_and_explain(runner):
    result = runner.invoke(
        main,
        [
            "analyze",
            FIG_PAIR,
            "--target",
            "u",
            "--wrt",
            "p",
            "--method",
            "sensrec",
            "--dump-normalized",
            "--explain",
            "u",
        ],
    )
    assert result.exit_code == 0, result.output
    assert "init:" in result.output
    assert "body:" in result.output
    assert "u:" in result.output
    assert "reads:" in result.output


def test_analyze_unknown_parameter_exits_3(runner):
    result = runner.invoke(main, ["analyze", FIG_SINGLE, "--target", "infected_prob", "--wrt", "nope"])
    assert result.exit_code == 3
    assert "not a parameter" in result.output


def test_analyze_unknown_target_variable_exits_3(runner):
    result = runner.invoke(main, ["analyze", FIG_SINGLE, "--target", "ghost", "--wrt", "vax_param"])
    assert result.exit_code == 3
    assert "unknown variable" in result.output


def test_dump_recurrences_unknown_target_variable_exits_3():
    proc = _run_cli("dump-recurrences", str(CORPUS / "random_walk_1d.prob"), "--target", "zz")
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["error: unknown variable(s) in target: zz"]
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "--wrt", "contact_param", "--method", "diff"],
        ["analyze", "--wrt", "vax_param"],
        ["dump-recurrences", "--wrt", "vax_param"],
        ["dump-recurrences"],
    ],
    ids=["analyze-diff", "analyze-auto", "dump-sensitivity", "dump-moments"],
)
def test_normalization_temporary_is_not_a_target(runner, args):
    assert "_t1" in cli._load_normalized(FIG_SINGLE).temporaries
    command, *options = args
    result = runner.invoke(main, [command, FIG_SINGLE, "--target", "_t1", *options])
    assert result.exit_code == 3
    assert result.stderr == "error: unknown variable(s) in target: _t1\n"
    assert result.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", FIG_SINGLE, "--target", "infected_prob"],
        ["classify", FIG_SINGLE],
        ["dump-recurrences", FIG_SINGLE, "--target", "infected_prob"],
    ],
    ids=["analyze", "classify", "dump-recurrences"],
)
def test_unknown_parameter_names_the_programs_parameters(runner, args):
    result = runner.invoke(main, [*args, "--wrt", "nope"])
    assert result.exit_code == 3
    assert result.stderr == (
        "error: 'nope' is not a parameter of the program "
        "(parameters: contact_param, decline, vax_param)\n"
    )
    assert result.stdout == ""


def _error_classes(cls=errors.ProbsensError) -> set[type]:
    return {cls}.union(*(_error_classes(sub) for sub in cls.__subclasses__()))


#: One instance of every error class of ``probsens.errors``.
ANALYZER_ERRORS = [
    errors.ProbsensError("internal check failed"),
    errors.ParseError("unexpected token", line=3, col=4),
    errors.ClassificationError("not admissible"),
    errors.NonFiniteGuardError(("x",)),
    errors.GuardNotSupportedError("guard compares parameters"),
    errors.UninitializedVariableError(("x", "y")),
    errors.EquationCapError(30, 31, ("E(x)",)),
    errors.UnsupportedFactorError("x**3 - p"),
    errors.SingularParameterError("p - 1"),
    errors.SeedSystemError("seed system is inconsistent"),
    errors.OracleError("state budget exceeded"),
    errors.InputError("bad input"),
]


def test_every_error_class_is_exercised():
    assert {type(e) for e in ANALYZER_ERRORS} == {
        cls for cls in _error_classes() if cls.__module__ == errors.__name__
    }


@pytest.mark.parametrize("error", ANALYZER_ERRORS, ids=lambda e: type(e).__name__)
def test_analyzer_error_exits_with_its_class_code(runner, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "parameter_sensitivity", fail)
    result = runner.invoke(main, ["analyze", FIG_SINGLE, "--target", "infected_prob", "--wrt", "vax_param"])
    assert result.exit_code == type(error).exit_code
    assert result.stderr == f"error: {error}\n"
    assert result.stdout == ""


def test_analyze_eval_requires_at_n(runner):
    result = runner.invoke(
        main,
        ["analyze", FIG_SINGLE, "--target", "infected_prob", "--wrt", "vax_param", "--eval", EPIDEMIC_POINT],
    )
    assert result.exit_code == 2
    assert "--at-n" in result.output


def test_parse_error_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.prob"
    bad.write_text("x = = 3\nwhile true:\n    x = x\nend\n")
    result = runner.invoke(main, ["analyze", str(bad), "--target", "x", "--wrt", "p"])
    assert result.exit_code == 2
    assert "error:" in result.output


def test_influenced_defective_dependency_exits_3(runner):
    result = runner.invoke(
        main, ["analyze", TAINTED, "--target", "v", "--wrt", "p", "--method", "sensrec"]
    )
    assert result.exit_code == 3
    assert "v =p=> x" in result.output


def test_diff_method_rejects_non_admissible(runner):
    result = runner.invoke(
        main, ["analyze", FIG_PAIR, "--target", "u", "--wrt", "p", "--method", "diff"]
    )
    assert result.exit_code == 3
    assert "admissible" in result.output


def test_singular_evaluation_exits_6(runner):
    result = runner.invoke(
        main,
        [
            "analyze",
            FIG_SINGLE,
            "--target",
            "infected_prob",
            "--wrt",
            "vax_param",
            "--eval",
            "decline=1,contact_param=7/10,vax_param=0",
            "--at-n",
            "3",
        ],
    )
    assert result.exit_code == 6
    assert "error:" in result.output


def test_unassigned_evaluation_parameter_exits_2_without_traceback():
    walk = str(CORPUS / "random_walk_1d.prob")
    proc = subprocess.run(
        [sys.executable, "-m", "probsens", "analyze", walk, "--target", "x**2", "--wrt", "p",
         "--eval", "q=1/2", "--at-n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: unassigned parameter(s): p"]


@pytest.mark.parametrize(
    "program, target, point, message",
    [
        ("random_walk_1d.prob", "x", "p=3/2,q=1/2", "choice probability 3/2 outside [0, 1]"),
        ("grammar_zoo.prob", "acc", "p=1/2,q=-1/4,r=1/2", "Bernoulli probability -1/4 outside [0, 1]"),
    ],
    ids=["choice", "bernoulli"],
)
def test_evaluation_probability_out_of_range_exits_2_without_traceback(program, target, point, message):
    proc = subprocess.run(
        [sys.executable, "-m", "probsens", "analyze", str(CORPUS / program), "--target", target,
         "--wrt", "p", "--eval", point, "--at-n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [f"error: {message}"]
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# equation cap
# ---------------------------------------------------------------------------


def test_cap_option_exits_5(runner):
    result = runner.invoke(
        main, ["dump-recurrences", FIG_PAIR, "--target", "w", "--cap", "30"]
    )
    assert result.exit_code == 5
    assert "cap" in result.output


def test_non_closing_moments_exit_5_at_the_default_cap(runner):
    # E[u] needs ever higher moments of w and x; the queued ones count
    # against the cap, so the command stops well before 500 equations exist
    result = runner.invoke(main, ["dump-recurrences", FIG_PAIR, "--target", "u"])
    assert result.exit_code == 5
    assert "exceeded the equation cap" in result.output
    assert "> 500)" in result.output


def test_cap_env_var_exits_5(runner, monkeypatch):
    monkeypatch.setenv(cli.CAP_ENV_VAR, "30")
    result = runner.invoke(main, ["dump-recurrences", FIG_PAIR, "--target", "w"])
    assert result.exit_code == 5


def test_cap_option_overrides_env(runner, monkeypatch):
    monkeypatch.setenv(cli.CAP_ENV_VAR, "30")
    result = runner.invoke(
        main,
        ["dump-recurrences", FIG_PAIR, "--target", "u", "--wrt", "p", "--cap", "500"],
    )
    assert result.exit_code == 0, result.output
    assert "equations: 9" in result.output


def test_cap_env_var_must_be_integer(runner, monkeypatch):
    monkeypatch.setenv(cli.CAP_ENV_VAR, "lots")
    result = runner.invoke(main, ["dump-recurrences", FIG_PAIR, "--target", "u", "--wrt", "p"])
    assert result.exit_code == 2
    assert cli.CAP_ENV_VAR in result.output


def _run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "probsens", *args], capture_output=True, text=True, env=env
    )


def _error_line(proc) -> str:
    """The one error line of a failed command; no traceback is allowed."""
    assert "Traceback" not in proc.stderr
    lines = [ln for ln in proc.stderr.splitlines() if ln.lower().startswith("error:")]
    assert len(lines) == 1, proc.stderr
    return lines[0]


@pytest.mark.parametrize("cap", ["-3", "0"])
def test_cap_below_one_is_a_usage_error(cap):
    walk = str(CORPUS / "random_walk_1d.prob")
    proc = _run_cli("analyze", walk, "--target", "x", "--wrt", "p", "--cap", cap)
    assert proc.returncode == 2
    assert _error_line(proc) == f"Error: Invalid value for '--cap': {cap} is not in the range x>=1."
    assert proc.stdout == ""


def test_cap_env_var_below_one_is_a_usage_error():
    walk = str(CORPUS / "random_walk_1d.prob")
    env = {**os.environ, cli.CAP_ENV_VAR: "0"}
    proc = _run_cli("analyze", walk, "--target", "x", "--wrt", "p", env=env)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: {cli.CAP_ENV_VAR} must be at least 1, got 0"]
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# dump-recurrences
# ---------------------------------------------------------------------------


def test_dump_moment_system_text(runner):
    result = runner.invoke(main, ["dump-recurrences", FIG_SINGLE, "--target", "infected_prob"])
    assert result.exit_code == 0, result.output
    assert "equations: 2" in result.output
    assert "E(infected_prob | n+1) =" in result.output
    assert "E(efficiency | n+1) =" in result.output


@pytest.mark.parametrize(
    "program, target, wrt",
    [("coin_flips_13", "total**2", "p"), ("bimodal.prob", "x**2", "p"), ("bimodal.prob", "x**2", None)],
)
def test_rendered_coefficients_match_their_str(runner, tmp_path, program, target, wrt):
    # One print table serves a whole rendered system; every coefficient it
    # prints must still read exactly as str(c).
    if program.startswith("coin_flips_"):
        path = tmp_path / f"{program}.prob"
        path.write_text(_coin_program(int(program.rsplit("_", 1)[1])))
    else:
        path = CORPUS / program
    np_ = normalize(parse(path.read_text(), name=path.name))
    mono = parse_monomial(target)
    system = sensitivity_system(np_, mono, wrt) if wrt else moment_closure(np_, mono)
    equations = [rec for s, rec in system.equations.items() if not s.is_constant]

    args = ["dump-recurrences", str(path), "--target", target, "--format", "json"]
    result = runner.invoke(main, args + (["--wrt", wrt] if wrt else []))
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)["equations"]
    assert len(report) == len(equations)
    for eq, rec in zip(report, equations):
        assert [t["coeff"] for t in eq["terms"]] == [str(c) for c, _ in rec.terms]
        assert eq["text"] == rec.render()
    assert system.render() == "\n".join(rec.render() for rec in equations)


def test_dump_text_json_numeric_content_matches(runner):
    args = ["dump-recurrences", FIG_SINGLE, "--target", "infected_prob", "--wrt", "vax_param"]
    text = runner.invoke(main, args)
    data = runner.invoke(main, args + ["--format", "json"])
    assert text.exit_code == 0 and data.exit_code == 0
    report = json.loads(data.output)
    assert report["rec"] == 3
    # every rendered equation line appears verbatim in the text output
    for eq in report["equations"]:
        assert eq["text"] in text.output
    assert f"equations: {report['rec']}" in text.output
    # initial values are exact rationals
    for value in report["initials"].values():
        Fraction(value)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_text(runner):
    result = runner.invoke(main, ["classify", FIG_PAIR])
    assert result.exit_code == 0, result.output
    assert "admissible: no" in result.output
    assert "defective:" in result.output
    assert "wrt p: sensitivity recurrences close" in result.output


def test_classify_reports_witness(runner):
    result = runner.invoke(main, ["classify", TAINTED, "--wrt", "p"])
    assert result.exit_code == 0, result.output
    assert "do not close" in result.output
    assert "v =p=> x" in result.output


def test_classify_json(runner):
    result = runner.invoke(main, ["classify", FIG_PAIR, "--format", "json"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    (record,) = [c for c in report["classifications"] if c["parameter"] == "p"]
    assert record["admissible"] is False
    assert record["thm2_ok"] is True
    assert set(record["defective"]) >= {"w", "x"}


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_exact(runner):
    result = runner.invoke(
        main,
        [
            "simulate",
            FIG_SINGLE,
            "--monomial",
            "infected_prob",
            "--n",
            "3",
            "--param",
            EPIDEMIC_POINT,
        ],
    )
    assert result.exit_code == 0, result.output
    out = json.loads(result.output)
    assert out["mode"] == "exact"
    assert out["stderr"] == 0.0
    assert out["value"] == pytest.approx(float(Fraction(out["value_exact"])))


def test_simulate_fd(runner):
    result = runner.invoke(
        main,
        ["simulate", FIG_PAIR, "--monomial", "u", "--n", "4", "--param", "p=3/10", "--fd", "p"],
    )
    assert result.exit_code == 0, result.output
    out = json.loads(result.output)
    assert out["fd"] == {"parameter": "p", "eps": "1/10000"}
    assert out["mode"] == "exact"
    assert isinstance(out["value"], float)


def test_simulate_sampled(runner):
    result = runner.invoke(
        main,
        [
            "simulate",
            FIG_SINGLE,
            "--monomial",
            "infected_prob",
            "--n",
            "3",
            "--param",
            EPIDEMIC_POINT,
            "--trials",
            "2000",
            "--seed",
            "1",
        ],
    )
    assert result.exit_code == 0, result.output
    out = json.loads(result.output)
    assert out["mode"] == "sampled"
    assert out["trials"] == 2000
    assert out["stderr"] > 0.0


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("fd", [[], ["--fd", "p:1/10"]])
def test_simulate_one_trial_prints_strict_json(fd):
    # one trial has no standard error: it is printed as null, not Infinity
    walk = str(CORPUS / "random_walk_1d.prob")
    proc = _run_cli("simulate", walk, "--monomial", "x", "--n", "2", "--param", "p=1/3", "--trials", "1", *fd)
    assert proc.returncode == 0, proc.stderr
    out = _strict_json(proc.stdout)
    assert out["trials"] == 1
    assert out["stderr"] is None


@pytest.mark.parametrize("trials", ["0", "10"])
def test_simulate_overflowing_value_prints_null(trials):
    # x1 = x1**2 + q*x2 passes float64's range within 12 iterations
    proc = _run_cli(
        "simulate", str(CORPUS / "non_admissible_3.prob"), "--monomial", "x1", "--n", "12",
        "--param", "p=1/3,q=1/3,r=1/3", "--trials", trials,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    out = _strict_json(proc.stdout)
    assert out["value"] is None
    if trials == "0":
        assert out["stderr"] == 0.0
        assert Fraction(out["value_exact"]) > sys.float_info.max
    else:
        assert out["stderr"] is None and out["trials"] == 10


def test_simulate_missing_parameter_value_is_usage_error(runner):
    result = runner.invoke(
        main, ["simulate", FIG_SINGLE, "--monomial", "infected_prob", "--n", "2"]
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("option, value", [("--n", "-1"), ("--trials", "-5")], ids=["n", "trials"])
def test_simulate_negative_count_is_a_usage_error(option, value):
    args = {"--n": "2", "--trials": "0", option: value}
    proc = _run_cli(
        "simulate", str(CORPUS / "random_walk_1d.prob"), "--monomial", "x", "--param", "p=1/3",
        *(arg for pair in args.items() for arg in pair),
    )
    assert proc.returncode == 2
    assert _error_line(proc) == (
        f"Error: Invalid value for '{option}': {value} is not in the range x>=0."
    )
    assert "negative dimensions" not in proc.stderr
    assert proc.stdout == ""


def test_simulate_negative_normal_variance_is_an_oracle_error():
    proc = _run_cli(
        "simulate", str(CORPUS / "bimodal.prob"), "--monomial", "x", "--n", "2",
        "--param", "p=1/3,q2=1/3,var=-2", "--trials", "10",
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: Normal variance -2 is negative"]
    assert "math domain error" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "program, monomial, point, message",
    [
        ("random_walk_1d.prob", "x", "p=3/2", "choice probability 3/2 outside [0, 1]"),
        ("grammar_zoo.prob", "acc", "p=1/2,q=-1/4,r=1/2", "Bernoulli probability -1/4 outside [0, 1]"),
    ],
    ids=["choice", "bernoulli"],
)
def test_sampling_probability_out_of_range_is_an_oracle_error(program, monomial, point, message):
    proc = _run_cli(
        "simulate", str(CORPUS / program), "--monomial", monomial, "--n", "2",
        "--param", point, "--trials", "100",
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"error: {message}"]
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args, message",
    [
        (["--monomial", "x", "--fd", "p:0"], "central-difference step must be nonzero"),
        (["--monomial", "x", "--fd", "q"], "no value for parameter 'q' to differentiate at"),
        (["--monomial", "zz"], "unknown variable(s) in monomial: zz"),
    ],
    ids=["fd-zero-step", "fd-unbound-parameter", "unknown-monomial-variable"],
)
def test_simulate_bad_fd_or_monomial_is_a_usage_error(args, message):
    proc = _run_cli(
        "simulate", str(CORPUS / "random_walk_1d.prob"), "--n", "2", "--param", "p=1/3", *args
    )
    assert proc.returncode == 2
    assert _error_line(proc) == f"Error: {message}"
    assert "KeyError" not in proc.stderr and "ZeroDivisionError" not in proc.stderr
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_filtered_rows_match(runner):
    result = runner.invoke(
        main, ["bench", "--only", "vaccination", "--format", "json", "--strict"]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["total"] >= 2
    assert report["ok"] == report["total"]
    for row in report["rows"]:
        assert row["status"] == "ok"
        assert row["match"] is True


def test_bench_reports_factor_and_parse_error_rows(runner, tmp_path):
    (tmp_path / "cycle.prob").write_text(
        "u = 1\nv = 0\nw = 0\nwhile true:\n    u, v, w = v, w, 2*u {p} u {1 - p}\nend\n"
    )
    (tmp_path / "bad.prob").write_text("x = = 3\nwhile true:\n    x = x\nend\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            {
                "rows": [
                    {"program": "cycle.prob", "target": "u", "wrt": "p", "expect_status": "factor"},
                    {"program": "bad.prob", "target": "x", "wrt": "p", "expect_status": "error(2)"},
                ]
            }
        )
    )
    result = runner.invoke(main, ["bench", "--manifest", str(manifest), "--format", "json"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.stdout)
    assert [row["status"] for row in report["rows"]] == ["factor", "error(2)"]
    assert report["ok"] == report["total"] == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"rows": [', "is not valid JSON"),
        ("{}", "has no list of rows"),
        ('{"rows": [{"program": "a.prob", "target": "x"}]}', "manifest row 1 has no wrt text"),
        ('{"rows": [{"program": "a.prob", "target": "x", "wrt": "p", "method": 5}]}',
         "manifest row 1 has no method text"),
        ('{"rows": [3]}', "manifest row 1 has no program text"),
    ],
    ids=["truncated", "no-rows", "row-without-wrt", "numeric-method", "row-not-an-object"],
)
def test_bench_malformed_manifest_exits_2(tmp_path, text, message):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    proc = _run_cli("bench", "--manifest", str(manifest))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [_error_line(proc)]
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert proc.stdout == ""


def test_bench_text_table(runner):
    result = runner.invoke(main, ["bench", "--only", "thm2_violation"])
    assert result.exit_code == 0, result.output
    assert "classification" in result.output
    assert "rows as expected" in result.output


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "probsens", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for name in ["analyze", "bench", "classify", "dump-recurrences", "simulate"]:
        assert name in proc.stdout


def test_console_script_version():
    proc = subprocess.run(
        [sys.executable, "-m", "probsens", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0


def test_cli_import_loads_no_scipy():
    code = (
        "import probsens.cli, sys; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# corpus round trip
# ---------------------------------------------------------------------------


def _corpus_programs():
    return sorted(CORPUS.glob("*.prob"))


@pytest.mark.parametrize("path", _corpus_programs(), ids=lambda p: p.stem)
def test_corpus_parses_normalizes_classifies(path):
    from probsens.dependency import classify

    prog = parse(path.read_text(), name=path.stem)
    assert not [d for d in validate(prog) if d.severity == "error"]
    np_ = normalize(prog)
    for param in sorted(np_.params):
        classify(np_, param)
    # pretty-printed source parses back to the same variable set
    reparsed = normalize(parse(program_to_source(prog)))
    assert set(reparsed.all_variables) == set(np_.all_variables)


def test_manifest_rows_reference_real_programs():
    spec = json.loads(MANIFEST.read_text())
    assert spec["schema_version"] == "1"
    for row in spec["rows"]:
        assert (CORPUS / row["program"]).exists()
        parse_monomial(row["target"])
        assert ("expect_rec" in row) != ("expect_status" in row)
