"""Command-line front end.

``analyze`` derives and solves sensitivity recurrences for a target monomial,
``dump-recurrences`` prints the assembled systems, ``classify`` reports the
dependency-analysis verdict, ``simulate`` runs the enumeration/sampling
oracle, and ``bench`` replays a manifest of programs and compares equation
counts.

Exit codes: 0 success, 2 parse/usage, 3 rejected by classification,
4 unsupported characteristic factor, 5 equation cap exceeded, 6 evaluation at
a singular parameter point.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import click

from . import __version__
from .dependency import build_graph, classify as classify_program
from .errors import (
    ClassificationError,
    EquationCapError,
    GuardNotSupportedError,
    NonFiniteGuardError,
    NormalizationError,
    OracleError,
    ParseError,
    SingularParameterError,
    UninitializedVariableError,
    UnsupportedFactorError,
)
from .normalize import normalize
from .oracle import fd_sensitivity, moment_exact, sample_moment
from .parser import parse, parse_monomial, validate
from .sensitivity import (
    moment_closure,
    parameter_sensitivity,
    sensitivity_system,
)
from .symbolic import exp_polynomial_to_json, render_exp_polynomial, ep_eval

SCHEMA_VERSION = "1"
DEFAULT_CAP = 500
CAP_ENV_VAR = "PROBSENS_EQ_CAP"

EXIT_PARSE = 2
EXIT_CLASSIFICATION = 3
EXIT_FACTOR = 4
EXIT_CAP = 5
EXIT_SINGULAR = 6


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _run_guarded(body):
    """Map the analyzer's error taxonomy onto process exit codes."""
    try:
        return body()
    except ParseError as e:
        _fail(EXIT_PARSE, str(e))
    except NormalizationError as e:
        _fail(EXIT_PARSE, str(e))
    except (
        ClassificationError,
        NonFiniteGuardError,
        GuardNotSupportedError,
        UninitializedVariableError,
    ) as e:
        _fail(EXIT_CLASSIFICATION, str(e))
    except UnsupportedFactorError as e:
        _fail(EXIT_FACTOR, str(e))
    except EquationCapError as e:
        _fail(EXIT_CAP, str(e))
    except SingularParameterError as e:
        _fail(EXIT_SINGULAR, str(e))


def _load_program(path: str):
    source = Path(path).read_text()
    prog = parse(source, name=Path(path).stem)
    errors = [d for d in validate(prog) if d.severity == "error"]
    if errors:
        raise ParseError("; ".join(d.message for d in errors))
    return prog


def _resolve_cap(option_value: int | None) -> int:
    if option_value is not None:
        return option_value
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        _fail(EXIT_PARSE, f"{CAP_ENV_VAR} must be an integer, got {raw!r}")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"not a number: {text!r}")


def _parse_bindings(pairs) -> dict[str, Fraction]:
    values: dict[str, Fraction] = {}
    for chunk in pairs:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise click.UsageError(f"expected name=value, got {item!r}")
            name, _, raw = item.partition("=")
            values[name.strip()] = _parse_fraction(raw.strip())
    return values


def _classification_json(cls) -> dict:
    return {
        "parameter": cls.parameter,
        "admissible": cls.admissible,
        "thm2_ok": cls.thm2_ok,
        "guard_vars_finite": cls.guard_vars_finite,
        "defective": list(cls.defective),
        "p_dependent": list(cls.p_dependent),
        "witnesses": list(cls.witnesses),
    }


def _system_equations_json(system) -> list[dict]:
    out = []
    for sym, rec in system.equations.items():
        if sym.is_constant:
            continue
        out.append(
            {
                "lhs": sym.indexed("n+1"),
                "terms": [{"coeff": str(c), "symbol": str(s)} for c, s in rec.terms],
                "text": rec.render(),
            }
        )
    return out


@click.group()
@click.version_option(version=__version__)
def main():
    """Exact parameter sensitivities for moments of probabilistic loops."""


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


@main.command()
@click.argument("program", type=click.Path(exists=True, dir_okay=False))
@click.option("--target", required=True, help="Monomial of loop variables, e.g. x or x*y**2.")
@click.option("--wrt", required=True, help="Parameter to differentiate with respect to.")
@click.option(
    "--method",
    type=click.Choice(["auto", "diff", "sensrec"]),
    default="auto",
    show_default=True,
    help="diff: solve the moment system and differentiate the closed form; "
    "sensrec: derive recurrences for the sensitivity itself.",
)
@click.option(
    "--eval",
    "eval_values",
    multiple=True,
    metavar="NAME=VALUE[,...]",
    help="Parameter values for numeric evaluation (exact rationals; 0.7 means 7/10).",
)
@click.option(
    "--at-n",
    "at_n",
    type=int,
    multiple=True,
    help="Iteration indices to evaluate the sensitivity at (requires --eval).",
)
@click.option("--cap", type=int, default=None, help=f"Equation cap (default: ${CAP_ENV_VAR} or {DEFAULT_CAP}).")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
@click.option("--dump-normalized", is_flag=True, help="Print the normalized loop before the report.")
@click.option("--explain", "explain_var", metavar="VAR", default=None, help="Print dependency facts for one variable.")
@click.option("--keep-all-terms", is_flag=True, hidden=True, help="Disable the two pruning rules (diagnostic).")
def analyze(program, target, wrt, method, eval_values, at_n, cap, fmt, dump_normalized, explain_var, keep_all_terms):
    """Derive, solve, and report d/dWRT E[TARGET] for a loop program."""

    def body():
        prog = _load_program(program)
        np_ = normalize(prog)
        if wrt not in np_.params:
            raise ClassificationError(
                f"{wrt!r} is not a parameter of the program "
                f"(parameters: {', '.join(sorted(np_.params)) or 'none'})"
            )
        target_mono = parse_monomial(target)
        unknown = sorted(target_mono.variables() - set(np_.all_variables))
        if unknown:
            raise ClassificationError(f"unknown variable(s) in target: {', '.join(unknown)}")

        values = _parse_bindings(eval_values)
        if at_n and not values:
            raise click.UsageError("--at-n needs --eval to supply parameter values")
        if values and not at_n:
            raise click.UsageError("--eval needs --at-n to pick iteration indices")

        if dump_normalized:
            click.echo(np_.to_source())
            click.echo()
        if explain_var:
            _explain(np_, explain_var, wrt)

        started = time.perf_counter()
        result = parameter_sensitivity(
            np_, target_mono, wrt, method=method, cap=_resolve_cap(cap), debug=keep_all_terms
        )
        wall_ms = (time.perf_counter() - started) * 1000.0

        evaluations = []
        for n in at_n:
            try:
                v = ep_eval(result.closed_form, values, n)
            except ValueError as e:  # an unassigned parameter or a negative index
                _fail(EXIT_PARSE, str(e))
            evaluations.append({"n": n, "value": str(v), "float": float(v)})

        report = {
            "schema_version": SCHEMA_VERSION,
            "program": np_.name,
            "path": str(program),
            "target": str(target_mono),
            "parameter": wrt,
            "method": result.method,
            "classification": _classification_json(result.classification),
            "rec": result.equation_count,
            "equations": _system_equations_json(result.system),
            "closed_form": exp_polynomial_to_json(result.closed_form),
            "closed_form_text": render_exp_polynomial(result.closed_form),
            "evaluations": evaluations,
            "wall_ms": wall_ms,
        }
        if fmt == "json":
            click.echo(json.dumps(report, indent=2))
        else:
            _print_analysis_text(report)

    _run_guarded(body)


def _print_analysis_text(report: dict) -> None:
    cls = report["classification"]
    click.echo(f"program: {report['program']} ({report['path']})")
    click.echo(
        f"target: {report['target']}   parameter: {report['parameter']}   method: {report['method']}"
    )
    flags = []
    flags.append("admissible" if cls["admissible"] else "not admissible")
    flags.append("sensitivity-closable" if cls["thm2_ok"] else "not sensitivity-closable")
    click.echo(f"classification: {'; '.join(flags)}")
    if cls["defective"]:
        click.echo(f"defective: {', '.join(cls['defective'])}")
    if cls["p_dependent"]:
        click.echo(f"depends on {report['parameter']}: {', '.join(cls['p_dependent'])}")
    click.echo(f"equations: {report['rec']}")
    for eq in report["equations"]:
        click.echo(f"  {eq['text']}")
    if report["rec"] == 0 and not report["equations"]:
        click.echo("  (target does not depend on the parameter)")
    click.echo(f"closed form: {report['closed_form_text']}")
    for ev in report["evaluations"]:
        click.echo(f"  n={ev['n']}: {ev['value']} (= {ev['float']:.6g})")
    click.echo(f"wall: {report['wall_ms']:.1f} ms")


def _explain(np_, var: str, wrt: str) -> None:
    graph = build_graph(np_)
    if var not in graph.variables:
        raise ClassificationError(f"unknown variable {var!r}")
    click.echo(f"{var}:")
    direct = sorted(graph.direct.get(var, frozenset()))
    click.echo(f"  reads: {', '.join(direct) if direct else '(nothing)'}")
    if var in graph.defective:
        click.echo(f"  defective: {graph.defective_witness(var)}")
    else:
        click.echo("  defective: no")
    pdep = graph.p_dependent(wrt)
    click.echo(f"  depends on {wrt}: {'yes' if var in pdep else 'no'}")
    for tgt in sorted(graph.influenced_edges(wrt).get(var, frozenset())):
        reason = graph.edge_reason(var, tgt, wrt)
        click.echo(f"  {wrt}-influenced edge {var} -> {tgt}: {reason}")
    click.echo()


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


@main.command("classify")
@click.argument("program", type=click.Path(exists=True, dir_okay=False))
@click.option("--wrt", default=None, help="Restrict the report to one parameter.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def classify_cmd(program, wrt, fmt):
    """Report admissibility and sensitivity-closability of a program."""

    def body():
        prog = _load_program(program)
        np_ = normalize(prog)
        params = [wrt] if wrt else sorted(np_.params)
        if wrt and wrt not in np_.params:
            raise ClassificationError(f"{wrt!r} is not a parameter of the program")
        records = [classify_program(np_, p) for p in params] or [classify_program(np_)]
        if fmt == "json":
            click.echo(
                json.dumps(
                    {
                        "schema_version": SCHEMA_VERSION,
                        "program": np_.name,
                        "classifications": [_classification_json(c) for c in records],
                    },
                    indent=2,
                )
            )
            return
        click.echo(f"program: {np_.name}")
        base = records[0]
        click.echo(f"admissible: {'yes' if base.admissible else 'no'}")
        if base.defective:
            click.echo(f"defective: {', '.join(base.defective)}")
        for c in records:
            if c.parameter is None:
                continue
            click.echo(
                f"wrt {c.parameter}: sensitivity recurrences "
                f"{'close' if c.thm2_ok else 'do not close'}; "
                f"dependent variables: {', '.join(c.p_dependent) or '(none)'}"
            )
            for w in c.witnesses:
                click.echo(f"  {w}")

    _run_guarded(body)


# ---------------------------------------------------------------------------
# dump-recurrences
# ---------------------------------------------------------------------------


@main.command("dump-recurrences")
@click.argument("program", type=click.Path(exists=True, dir_okay=False))
@click.option("--target", required=True, help="Monomial whose system to assemble.")
@click.option("--wrt", default=None, help="Dump the sensitivity system for this parameter (default: moment system).")
@click.option("--cap", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def dump_recurrences(program, target, wrt, cap, fmt):
    """Print the recurrence system a target needs, without solving it."""

    def body():
        prog = _load_program(program)
        np_ = normalize(prog)
        target_mono = parse_monomial(target)
        limit = _resolve_cap(cap)
        if wrt is None:
            system = moment_closure(np_, target_mono, cap=limit)
        else:
            if wrt not in np_.params:
                raise ClassificationError(f"{wrt!r} is not a parameter of the program")
            system = sensitivity_system(np_, target_mono, wrt, cap=limit)
        if fmt == "json":
            click.echo(
                json.dumps(
                    {
                        "schema_version": SCHEMA_VERSION,
                        "program": np_.name,
                        "target": str(target_mono),
                        "parameter": wrt,
                        "rec": system.size,
                        "equations": _system_equations_json(system),
                        "initials": {
                            str(s): str(v) for s, v in system.initials.items()
                        },
                    },
                    indent=2,
                )
            )
            return
        for sym, rec in system.equations.items():
            if sym.is_constant:
                continue
            click.echo(rec.render())
        click.echo(f"equations: {system.size}")

    _run_guarded(body)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@main.command()
@click.argument("program", type=click.Path(exists=True, dir_okay=False))
@click.option("--monomial", required=True, help="Monomial to estimate the expectation of.")
@click.option("--n", "steps", type=int, required=True, help="Number of loop iterations.")
@click.option("--param", "params", multiple=True, metavar="NAME=VALUE", help="Parameter values.")
@click.option("--trials", type=int, default=0, show_default=True, help="Monte Carlo trials; 0 = exact enumeration.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--fd", default=None, metavar="PARAM[:EPS]", help="Central-difference sensitivity instead of the plain moment.")
def simulate(program, monomial, steps, params, trials, seed, fd):
    """Estimate E[monomial] after n iterations by enumeration or sampling."""

    def body():
        prog = _load_program(program)
        mono = parse_monomial(monomial)
        sigma = _parse_bindings(params)
        out = {
            "schema_version": SCHEMA_VERSION,
            "program": Path(program).stem,
            "monomial": str(mono),
            "n": steps,
        }
        try:
            if fd is not None:
                name, _, eps_raw = fd.partition(":")
                eps = _parse_fraction(eps_raw) if eps_raw else Fraction(1, 10**4)
                est = fd_sensitivity(
                    prog,
                    mono,
                    steps,
                    name.strip(),
                    sigma,
                    eps=eps,
                    exact=trials == 0,
                    trials=trials or 200_000,
                    seed=seed,
                )
                out["fd"] = {"parameter": name.strip(), "eps": str(eps)}
            elif trials == 0:
                exact = moment_exact(prog, mono, steps, sigma)
                est = None
                out.update(
                    {"mode": "exact", "value": float(exact), "value_exact": str(exact),
                     "stderr": 0.0, "trials": 0}
                )
            else:
                est = sample_moment(prog, mono, steps, trials, seed, sigma)
            if est is not None:
                out.update(
                    {
                        "mode": est.mode,
                        "value": float(est.value),
                        "stderr": est.stderr,
                        "trials": est.trials,
                    }
                )
                if isinstance(est.value, Fraction):
                    out["value_exact"] = str(est.value)
        except (ValueError, KeyError) as e:
            raise click.UsageError(str(e))
        except OracleError as e:
            _fail(1, str(e))
        click.echo(json.dumps(out, indent=2))

    _run_guarded(body)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


@main.command()
@click.option(
    "--manifest",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="Benchmark manifest [default: the packaged corpus].",
)
@click.option("--timeout", type=float, default=120.0, show_default=True, help="Per-row wall-clock budget in seconds.")
@click.option("--only", default=None, help="Run only rows whose program name contains this substring.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
@click.option("--strict", is_flag=True, help="Exit non-zero if a hard row deviates from its expectation.")
def bench(manifest, timeout, only, fmt, strict):
    """Replay a manifest of programs and compare equation counts.

    Deviations are table entries, not errors: rows marked soft record
    re-authored programs whose equation count has no pinned ground truth.
    """
    if manifest is None:
        manifest = Path(__file__).parent / "benchmarks" / "manifest.json"
    spec = json.loads(Path(manifest).read_text())
    base = Path(manifest).parent
    rows = []
    for row in spec["rows"]:
        if only and only not in row["program"]:
            continue
        rows.append(_bench_row(base, row, timeout))
    report = {
        "schema_version": SCHEMA_VERSION,
        "manifest": str(manifest),
        "rows": rows,
        "ok": sum(1 for r in rows if r["match"]),
        "total": len(rows),
    }
    if fmt == "json":
        click.echo(json.dumps(report, indent=2))
    else:
        _print_bench_text(report)
    if strict and any(r["hard"] and not r["match"] for r in rows):
        sys.exit(1)


def _bench_row(base: Path, row: dict, timeout: float) -> dict:
    cmd = [
        sys.executable,
        "-m",
        "probsens",
        "analyze",
        str(base / row["program"]),
        "--target",
        row["target"],
        "--wrt",
        row["wrt"],
        "--method",
        row.get("method", "auto"),
        "--format",
        "json",
    ]
    started = time.perf_counter()
    status = "ok"
    rec = None
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        if proc.returncode == 0:
            rec = json.loads(proc.stdout)["rec"]
        elif proc.returncode == EXIT_CAP:
            status = "cap"
        elif proc.returncode == EXIT_CLASSIFICATION:
            status = "classification"
        elif proc.returncode == EXIT_FACTOR:
            status = "factor"
        else:
            status = f"error({proc.returncode})"
    except subprocess.TimeoutExpired:
        status = "timeout"
    wall = time.perf_counter() - started

    expect_status = row.get("expect_status", "ok")
    expect_rec = row.get("expect_rec")
    match = status == expect_status and (
        status != "ok" or expect_rec is None or rec == expect_rec
    )
    return {
        "program": row["program"],
        "target": row["target"],
        "wrt": row["wrt"],
        "method": row.get("method", "auto"),
        "hard": bool(row.get("hard", False)),
        "expect_status": expect_status,
        "expect_rec": expect_rec,
        "table_rec": row.get("table_rec"),
        "status": status,
        "rec": rec,
        "seconds": round(wall, 3),
        "match": match,
        "note": row.get("note"),
    }


def _print_bench_text(report: dict) -> None:
    headers = ["program", "target", "wrt", "method", "expect", "got", "time", "verdict"]
    lines = [headers]
    for r in report["rows"]:
        expect = str(r["expect_rec"]) if r["expect_status"] == "ok" else r["expect_status"]
        got = str(r["rec"]) if r["status"] == "ok" else r["status"]
        verdict = "ok" if r["match"] else ("soft-diff" if not r["hard"] else "MISMATCH")
        lines.append(
            [
                r["program"],
                r["target"],
                r["wrt"],
                r["method"],
                expect,
                got,
                f"{r['seconds']:.2f}s",
                verdict,
            ]
        )
    widths = [max(len(row[i]) for row in lines) for i in range(len(headers))]
    for i, row in enumerate(lines):
        click.echo("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0:
            click.echo("  ".join("-" * w for w in widths))
    click.echo(f"{report['ok']}/{report['total']} rows as expected")


if __name__ == "__main__":
    main()
