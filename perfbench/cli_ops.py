"""``cli``: one fresh ``python -m probsens`` process per command.

Process start and import are most of each call (``scipy.stats`` alone is
over half of it); every CLI call and every ``probsens bench`` row pays that.
The rows chosen need at most about 0.3 s of in-process work.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction as F
from functools import partial
from pathlib import Path

import refs
from common import CORPUS_DIR, Op, Workload, child_env, load_manifest, point

EXIT_OK = 0
EXIT_CLASSIFICATION = 3
TIMEOUT_S = 120
AT_N = (1, 3, 8)
SIMULATE_N = 6


@dataclass
class Call:
    returncode: int
    stdout: str
    wall: float


def run_cli(root: Path, args: list[str]) -> Call:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "probsens", *args],
        cwd=root, env=child_env(root), capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    return Call(proc.returncode, proc.stdout, time.perf_counter() - t0)


def _binding(sigma: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sigma.items())


def build(seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    corpus = CORPUS_DIR  # paths relative to the checkout, where the children run
    walk = point("random_walk_1d.prob", rng.randrange(3))
    at_n = [a for n in AT_N for a in ("--at-n", str(n))]
    commands = {
        "analyze_walk": (
            ["analyze", str(corpus / "random_walk_1d.prob"), "--target", "x", "--wrt", "p",
             "--method", "diff", "--format", "json", "--eval", _binding(walk), *at_n],
            EXIT_OK),
        "analyze_thm2": (
            ["analyze", str(corpus / "thm2_violation.prob"), "--target", "v", "--wrt", "p",
             "--method", "sensrec", "--format", "json"],
            EXIT_CLASSIFICATION),
        "classify_thm2": (
            ["classify", str(corpus / "thm2_violation.prob"), "--wrt", "p", "--format", "json"],
            EXIT_OK),
        "dump_response": (
            ["dump-recurrences", str(corpus / "randomized_response.prob"), "--target", "answers**2",
             "--wrt", "p", "--format", "json"],
            EXIT_OK),
        "simulate_walk": (
            ["simulate", str(corpus / "random_walk_1d.prob"), "--monomial", "x**2",
             "--n", str(SIMULATE_N), "--param", _binding(walk)],
            EXIT_OK),
    }
    rows = load_manifest(root)
    expect_rec = {
        "analyze_walk": _rec(rows, "random_walk_1d.prob", "x", "diff"),
        "dump_response": _rec(rows, "randomized_response.prob", "answers**2", "sensrec"),
    }
    ops = [Op(label, partial(run_cli, root, args), cold=False) for label, (args, _) in commands.items()]
    codes = {label: code for label, (_, code) in commands.items()}
    return Workload(
        ops,
        partial(verify, codes, expect_rec, walk),
        layer_metrics=layer_metrics,
        children=True,
    )


def _rec(rows, program, target, method) -> int:
    for r in rows:
        if (r["program"], r["target"], r["method"]) == (program, target, method):
            return r["expect_rec"]
    raise KeyError((program, target, method))


def verify(codes, expect_rec, walk, rounds: list[dict]) -> list[str]:
    problems = []
    for outputs in rounds:
        for label, call in outputs.items():
            if call is None:
                continue
            if call.returncode != codes[label]:
                problems.append(f"{label}: exit code {call.returncode}, expected {codes[label]}")
                continue
            if call.returncode != EXIT_OK:
                continue
            report = json.loads(call.stdout)
            if label in expect_rec and report["rec"] != expect_rec[label]:
                problems.append(f"{label}: rec {report['rec']}, manifest expects {expect_rec[label]}")
            if label == "analyze_walk":
                # d/dp E[x_n] = d/dp n(2p - 1) = 2n
                got = {ev["n"]: F(ev["value"]) for ev in report["evaluations"]}
                if got != {n: F(2 * n) for n in AT_N}:
                    problems.append(f"{label}: evaluations {got}, expected 2n")
            if label == "classify_thm2":
                (cls,) = report["classifications"]
                if cls["thm2_ok"] or not cls["witnesses"]:
                    problems.append(f"{label}: thm2_violation not rejected with a witness")
            if label == "simulate_walk":
                want = refs.walk_x_sq(walk["p"], SIMULATE_N)
                if F(report["value_exact"]) != want:
                    problems.append(f"{label}: {report['value_exact']} != {want}")
    return problems


def layer_metrics(rounds: list[dict]) -> dict:
    process = reported = 0.0
    for outputs in rounds:
        for call in outputs.values():
            if call is None:
                continue
            process += call.wall
            if call.returncode == EXIT_OK and '"wall_ms"' in call.stdout:
                reported += json.loads(call.stdout)["wall_ms"] / 1000.0
    return {"cli.process_s": process, "cli.reported_wall_s": reported}
