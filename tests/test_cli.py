"""End-to-end tests of the command-line interface.

Covers the report formats, the exit-code taxonomy, the equation-cap
environment variable, and a round trip over the packaged program corpus.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import probsens.cli as cli
from probsens.cli import main
from probsens.normalize import normalize
from probsens.parser import parse, parse_monomial, validate
from probsens.syntax import program_to_source

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


# ---------------------------------------------------------------------------
# equation cap
# ---------------------------------------------------------------------------


def test_cap_option_exits_5(runner):
    result = runner.invoke(
        main, ["dump-recurrences", FIG_PAIR, "--target", "w", "--cap", "30"]
    )
    assert result.exit_code == 5
    assert "cap" in result.output


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


# ---------------------------------------------------------------------------
# dump-recurrences
# ---------------------------------------------------------------------------


def test_dump_moment_system_text(runner):
    result = runner.invoke(main, ["dump-recurrences", FIG_SINGLE, "--target", "infected_prob"])
    assert result.exit_code == 0, result.output
    assert "equations: 2" in result.output
    assert "E(infected_prob | n+1) =" in result.output
    assert "E(efficiency | n+1) =" in result.output


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


def test_simulate_missing_parameter_value_is_usage_error(runner):
    result = runner.invoke(
        main, ["simulate", FIG_SINGLE, "--monomial", "infected_prob", "--n", "2"]
    )
    assert result.exit_code == 2


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
