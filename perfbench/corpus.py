"""``corpus``: every manifest row, as ``analyze --eval ... --at-n ...`` runs it.

Solving and ``ParamExpr`` canonicalization are nearly all of this workload's
time; a few heavy rows set ``wall_s`` and the many cheap rows, where
dependency analysis is a large share, set ``op_p50_s``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from functools import partial
from pathlib import Path

import probsens.dependency as D
import probsens.normalize as N
import probsens.oracle as O
import probsens.parser as P
import probsens.sensitivity as S
import probsens.symbolic as Y
from probsens.errors import ClassificationError, ParseError

import refs
from common import CORPUS_DIR, DEFAULT_CAP, Op, Workload, load_manifest, point

#: Each assembly attempt of this row runs into the bench timeout (see FOUND in
#: CHANGES.md), so it is left out.
SKIP = {("coin_flips_50.prob", "total**2", "p", "diff")}

#: Fails every time at the parent commit: the diff path does not prune the
#: parameter-independent target and then raises UninitializedVariableError.
#: The right answer is the zero closed form that sensrec returns.
EXTRA_ROWS = [
    {"program": "bimodal.prob", "target": "g", "wrt": "p", "method": "diff",
     "expect_zero": True, "expect_failure": True},
]

#: Iteration indices each operation evaluates its closed form at.
AT_N = (1, 2, 3, 8)

#: Discrete programs whose row parameter is only ever a probability:
#: program -> (parameter thresholds per iteration, indices checked against
#: the oracle).  The degree of E[M_n] in the parameter is at most
#: thresholds * n.
ORACLE_CHECKED = {
    "component_health.prob": (1, (1, 2, 3)),
    "gamblers_ruin.prob": (2, (1, 2, 3)),
    "hawk_dove.prob": (1, (1, 2, 3)),
    "las_vegas_search.prob": (1, (1, 2, 3)),
    "non_admissible_4.prob": (1, (1,)),
    "random_walk_1d.prob": (1, (1, 2, 3)),
    "random_walk_2d.prob": (1, (1, 2, 3)),
    "randomized_response.prob": (1, (1, 2, 3)),
    "umbrella.prob": (1, (1, 2, 3)),
    "vaccination.prob": (1, (1, 2, 3)),
}
FD_EPS = F(1, 10**6)


@dataclass
class Analysis:
    status: str  # "ok" | "classification"
    rec: int | None
    witnesses: tuple
    point: int
    evals: dict
    closed_form: object = None
    report_chars: int = 0


def analyze(text: str, name: str, row: dict, point_index: int) -> Analysis:
    """What ``probsens analyze --format json --eval ... --at-n ...`` does."""
    prog = P.parse(text, name=name)
    errors = [d for d in P.validate(prog) if d.severity == "error"]
    if errors:
        raise ParseError("; ".join(d.message for d in errors))
    np_ = N.normalize(prog)
    mono = P.parse_monomial(row["target"])
    try:
        D.classify(np_, row["wrt"])
        result = S.parameter_sensitivity(
            np_, mono, row["wrt"], method=row["method"], cap=DEFAULT_CAP
        )
    except ClassificationError as exc:
        return Analysis("classification", None, exc.witnesses, point_index, {})
    values = point(row["program"], point_index)
    evals = {n: Y.ep_eval(result.closed_form, values, n) for n in AT_N}
    report = (
        result.system.render()
        + Y.render_exp_polynomial(result.closed_form)
        + str(Y.exp_polynomial_to_json(result.closed_form))
    )
    return Analysis("ok", result.equation_count, (), point_index, evals, result.closed_form, len(report))


def label(row: dict) -> str:
    return f"{Path(row['program']).stem}:{row['target']}:{row['wrt']}:{row['method']}"


def build(seed: int, root: Path) -> Workload:
    rows = [
        r for r in load_manifest(root)
        if (r["program"], r["target"], r["wrt"], r["method"]) not in SKIP
    ] + EXTRA_ROWS
    texts = {r["program"]: (root / CORPUS_DIR / r["program"]).read_text() for r in rows}
    rng = random.Random(seed)
    ops = []
    for row in rows:
        run = partial(analyze, texts[row["program"]], Path(row["program"]).stem, row, rng.randrange(3))
        ops.append(Op(label(row), run, expect_failure=row.get("expect_failure", False)))
    warm_row = {"program": "hawk_dove.prob", "target": "payoff", "wrt": "p", "method": "diff"}
    warmup = partial(analyze, texts[warm_row["program"]], "hawk_dove", warm_row, 0)
    return Workload(ops, partial(verify, rows, texts), warmup=warmup)


def _value(out: Analysis, row: dict, index: int, n: int) -> F:
    if index == out.point:
        return out.evals[n]
    return Y.ep_eval(out.closed_form, point(row["program"], index), n)


def verify(rows: list[dict], texts: dict, rounds: list[dict]) -> list[str]:
    outs = rounds[0]
    problems = []
    by_key: dict[tuple, dict[str, tuple]] = {}
    for row in rows:
        out = outs[label(row)]
        if out is None:
            continue  # counted as failed by the harness
        tag = label(row)
        want = row.get("expect_status", "ok")
        if out.status != want:
            problems.append(f"{tag}: status {out.status}, manifest expects {want}")
            continue
        if want == "classification" and not out.witnesses:
            problems.append(f"{tag}: rejected without a witness")
        if "expect_rec" in row and out.rec != row["expect_rec"]:
            problems.append(f"{tag}: rec {out.rec}, manifest expects {row['expect_rec']}")
        if row.get("expect_zero") and any(v != 0 for v in out.evals.values()):
            problems.append(f"{tag}: closed form is not zero")
        if out.status == "ok":
            by_key.setdefault((row["program"], row["target"], row["wrt"]), {})[row["method"]] = (row, out)

    # diff and sensrec must agree exactly at every point and index
    for key, methods in by_key.items():
        if {"diff", "sensrec"} <= set(methods):
            (rd, od), (rs, os_) = methods["diff"], methods["sensrec"]
            for i in range(3):
                for n in AT_N:
                    a, b = _value(od, rd, i, n), _value(os_, rs, i, n)
                    if a != b:
                        problems.append(f"{key}: diff {a} != sensrec {b} at point {i}, n={n}")

    # random_walk_1d: d/dp E[x_n] = d/dp n(2p-1) = 2n
    for row, out in by_key.get(("random_walk_1d.prob", "x", "p"), {}).values():
        for n, v in out.evals.items():
            if v != refs.walk_d_x(F(0), n):
                problems.append(f"random_walk_1d x: {v} != 2n at n={n}")

    # closed forms against the oracle's exact central difference
    programs = {}
    for (prog_name, target, wrt), methods in by_key.items():
        if prog_name not in ORACLE_CHECKED:
            continue
        thresholds, ns = ORACLE_CHECKED[prog_name]
        prog = programs.setdefault(prog_name, P.parse(texts[prog_name]))
        mono = P.parse_monomial(target)
        for row, out in methods.values():
            sigma = point(prog_name, out.point)
            length = 1 - sigma["q"] if prog_name == "hawk_dove.prob" else F(1)
            for n in ns:
                dist = O.enumerate_distribution(prog, mono, n, sigma)
                bound = max(abs(v) for v in dist)
                fd = O.fd_sensitivity(prog, mono, n, wrt, sigma, eps=FD_EPS).value
                tol = refs.central_difference_bound(FD_EPS, thresholds * n, length, bound)
                if abs(fd - out.evals[n]) > tol:
                    problems.append(
                        f"{label(row)}: closed form {float(out.evals[n]):.9g} vs oracle "
                        f"{float(fd):.9g} at n={n}, beyond {float(tol):.3g}"
                    )
    return problems
