"""Command-line front end.

``analyze`` derives and solves sensitivity recurrences for a target monomial,
``dump-recurrences`` prints the assembled systems, ``classify`` reports the
dependency-analysis verdict, ``simulate`` runs the enumeration/sampling
oracle, and ``bench`` replays a manifest of programs and compares equation
counts.

An analyzer error ends a command with one ``error:`` line on stderr and the
exit code of its class; ``errors.py`` holds that table from error to exit code.
Click's own usage errors exit 2.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import (
    ClassificationError,
    EquationCapError,
    InputError,
    ParseError,
    ProbsensError,
    UnsupportedFactorError,
)
from .moments import DEFAULT_EQUATION_CAP, MomentContext
from .normalize import normalize
from .oracle import fd_sensitivity, moment_exact, sample_moment
from .parser import parse, parse_monomial, validate
from .sensitivity import (
    coeff_text,
    moment_closure,
    parameter_sensitivity,
    sensitivity_system,
)
from .symbolic import exp_polynomial_to_json, render_exp_polynomial, ep_eval
from .syntax import DistDraw

SCHEMA_VERSION = "1"
CAP_ENV_VAR = "PROBSENS_EQ_CAP"


def _load_program(path: str):
    source = Path(path).read_text()
    prog = parse(source, name=Path(path).stem)
    errors = [d for d in validate(prog) if d.severity == "error"]
    if errors:
        raise ParseError("; ".join(d.message for d in errors))
    return prog


def _load_normalized(path: str):
    return normalize(_load_program(path))


def _check_parameter(np_, wrt: str) -> None:
    if wrt not in np_.params:
        raise ClassificationError(
            f"{wrt!r} is not a parameter of the program "
            f"(parameters: {', '.join(sorted(np_.params)) or 'none'})"
        )


def _resolve_cap(option_value: int | None) -> int:
    if option_value is not None:
        return option_value
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_EQUATION_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise InputError(f"{CAP_ENV_VAR} must be at least 1, got {cap}")
    return cap


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


def _target_monomial(np_, text: str):
    """The target monomial, each of whose variables the program must have
    (a temporary of normalization is not one of them)."""
    mono = parse_monomial(text)
    unknown = sorted(mono.variables() - set(np_.variables))
    if unknown:
        raise ClassificationError(f"unknown variable(s) in target: {', '.join(unknown)}")
    return mono


def _check_probabilities(np_, values: dict[str, Fraction]) -> None:
    """Every Bernoulli argument and choice probability of the program whose
    parameters ``values`` assigns must lie in [0, 1] there."""
    for rhs in [rhs for _, rhs in np_.init] + [ga.rhs for ga in np_.body]:
        if isinstance(rhs, DistDraw):
            probabilities = [("Bernoulli", rhs.args[0])] if rhs.kind == "Bernoulli" else []
        else:
            probabilities = [("choice", prob) for _, prob in rhs.choices]
        for kind, prob in probabilities:
            if prob.free_params() <= values.keys():
                q = prob.eval_fraction(values)
                if q < 0 or q > 1:
                    raise InputError(f"{kind} probability {q} outside [0, 1]")


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
    names: dict = {}  # one print table for the whole system
    out = []
    for sym, rec in system.equations.items():
        if sym.is_constant:
            continue
        out.append(
            {
                "lhs": sym.indexed("n+1"),
                "terms": [
                    {"coeff": coeff_text(c, names), "symbol": str(s)} for c, s in rec.terms
                ],
                "text": rec.render(names),
            }
        )
    return out


class _ReportingGroup(click.Group):
    """Ends a command that raises an analyzer error with one ``error:`` line
    and the exit code of the error's class."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ProbsensError as e:
            click.echo(f"error: {e}", err=True)
            ctx.exit(e.exit_code)


@click.group(cls=_ReportingGroup)
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
@click.option(
    "--cap",
    type=click.IntRange(min=1),
    default=None,
    help=f"Equation cap (default: ${CAP_ENV_VAR} or {DEFAULT_EQUATION_CAP}).",
)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
@click.option("--dump-normalized", is_flag=True, help="Print the normalized loop before the report.")
@click.option("--explain", "explain_var", metavar="VAR", default=None, help="Print dependency facts for one variable.")
def analyze(program, target, wrt, method, eval_values, at_n, cap, fmt, dump_normalized, explain_var):
    """Derive, solve, and report d/dWRT E[TARGET] for a loop program."""
    np_ = _load_normalized(program)
    _check_parameter(np_, wrt)
    target_mono = _target_monomial(np_, target)

    values = _parse_bindings(eval_values)
    if at_n and not values:
        raise click.UsageError("--at-n needs --eval to supply parameter values")
    if values and not at_n:
        raise click.UsageError("--eval needs --at-n to pick iteration indices")
    if values:
        _check_probabilities(np_, values)

    if dump_normalized:
        click.echo(np_.to_source())
        click.echo()
    started = time.perf_counter()
    ctx = MomentContext(np_)
    if explain_var:
        _explain(ctx.graph, explain_var, wrt)
    result = parameter_sensitivity(ctx, target_mono, wrt, method=method, cap=_resolve_cap(cap))
    wall_ms = (time.perf_counter() - started) * 1000.0

    evaluations = []
    for n in at_n:
        try:
            v = ep_eval(result.closed_form, values, n)
        except ValueError as e:  # an unassigned parameter or a negative index
            raise InputError(str(e)) from e
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


def _explain(graph, var: str, wrt: str) -> None:
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
    np_ = _load_normalized(program)
    if wrt:
        _check_parameter(np_, wrt)
    params = [wrt] if wrt else sorted(np_.params)
    ctx = MomentContext(np_)
    records = [ctx.classification(p) for p in params or [None]]
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


# ---------------------------------------------------------------------------
# dump-recurrences
# ---------------------------------------------------------------------------


@main.command("dump-recurrences")
@click.argument("program", type=click.Path(exists=True, dir_okay=False))
@click.option("--target", required=True, help="Monomial whose system to assemble.")
@click.option("--wrt", default=None, help="Dump the sensitivity system for this parameter (default: moment system).")
@click.option("--cap", type=click.IntRange(min=1), default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def dump_recurrences(program, target, wrt, cap, fmt):
    """Print the recurrence system a target needs, without solving it."""
    np_ = _load_normalized(program)
    target_mono = _target_monomial(np_, target)
    limit = _resolve_cap(cap)
    if wrt is None:
        system = moment_closure(np_, target_mono, cap=limit)
    else:
        _check_parameter(np_, wrt)
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
    text = system.render()
    if text:
        click.echo(text)
    click.echo(f"equations: {system.size}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@main.command()
@click.argument("program", type=click.Path(exists=True, dir_okay=False))
@click.option("--monomial", required=True, help="Monomial to estimate the expectation of.")
@click.option("--n", "steps", type=click.IntRange(min=0), required=True, help="Number of loop iterations.")
@click.option("--param", "params", multiple=True, metavar="NAME=VALUE", help="Parameter values.")
@click.option("--trials", type=click.IntRange(min=0), default=0, show_default=True, help="Monte Carlo trials; 0 = exact enumeration.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--fd", default=None, metavar="PARAM[:EPS]", help="Central-difference sensitivity instead of the plain moment.")
def simulate(program, monomial, steps, params, trials, seed, fd):
    """Estimate E[monomial] after n iterations by enumeration or sampling."""
    prog = _load_program(program)
    mono = parse_monomial(monomial)
    unknown = sorted(mono.variables() - set(prog.variables))
    if unknown:
        raise click.UsageError(f"unknown variable(s) in monomial: {', '.join(unknown)}")
    sigma = _parse_bindings(params)
    out = {
        "schema_version": SCHEMA_VERSION,
        "program": Path(program).stem,
        "monomial": str(mono),
        "n": steps,
    }
    try:
        # sampled values may overflow float64 (see _json_number)
        with np.errstate(over="ignore", invalid="ignore"):
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
                    {"mode": "exact", "value": _json_number(exact), "value_exact": str(exact),
                     "stderr": 0.0, "trials": 0}
                )
            else:
                est = sample_moment(prog, mono, steps, trials, seed, sigma)
        if est is not None:
            out.update(
                {
                    "mode": est.mode,
                    "value": _json_number(est.value),
                    # undefined for one trial (and NaN once samples overflow)
                    "stderr": _json_number(est.stderr),
                    "trials": est.trials,
                }
            )
            if isinstance(est.value, Fraction):
                out["value_exact"] = str(est.value)
    except (ValueError, KeyError) as e:
        raise click.UsageError(str(e))
    click.echo(json.dumps(out, indent=2))


def _json_number(x) -> float | None:
    """``x`` as a float, or None where strict JSON has no number for it: an
    exact value too large for a float, or an infinity or NaN, such as the
    mean of sampled values that overflowed."""
    try:
        f = float(x)
    except OverflowError:
        return None
    return f if math.isfinite(f) else None


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
    base = Path(manifest).parent
    rows = [
        _bench_row(base, row, timeout)
        for row in _manifest_rows(manifest)
        if not only or only in row["program"]
    ]
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


def _manifest_rows(manifest) -> list[dict]:
    """The rows of a benchmark manifest, each of which names a program, a
    target, a parameter and, optionally, a method."""
    try:
        spec = json.loads(Path(manifest).read_text())
    except ValueError as e:
        raise InputError(f"manifest {manifest} is not valid JSON: {e}") from e
    rows = spec.get("rows") if isinstance(spec, dict) else None
    if not isinstance(rows, list):
        raise InputError(f"manifest {manifest} has no list of rows")
    for i, row in enumerate(rows, 1):
        fields = {"method": "auto", **row} if isinstance(row, dict) else {}
        for key in ("program", "target", "wrt", "method"):
            if not isinstance(fields.get(key), str):
                raise InputError(f"manifest row {i} has no {key} text")
    return rows


#: A failed row's status, by the exit code ``analyze`` ended with.
_BENCH_STATUS = {
    EquationCapError.exit_code: "cap",
    ClassificationError.exit_code: "classification",
    UnsupportedFactorError.exit_code: "factor",
}


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
        else:
            status = _BENCH_STATUS.get(proc.returncode, f"error({proc.returncode})")
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
