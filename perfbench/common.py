"""Shared pieces of the workloads: operations, workloads and fixed inputs."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path
from typing import Any, Callable

CORPUS_DIR = Path("src") / "probsens" / "benchmarks"

#: The analyzer's default equation cap (``probsens.cli.DEFAULT_CAP``).
DEFAULT_CAP = 500

#: Parameters of each corpus program, in the order the points below assign them.
PARAMS = {
    "bimodal.prob": ("p", "q2", "var"),
    "coin_flips_50.prob": ("p",),
    "component_health.prob": ("p1", "p2"),
    "gamblers_ruin.prob": ("p",),
    "grammar_zoo.prob": ("p", "q", "r"),
    "hawk_dove.prob": ("p", "q"),
    "las_vegas_search.prob": ("p",),
    "non_admissible.prob": ("p",),
    "non_admissible_2.prob": ("a", "par"),
    "non_admissible_3.prob": ("p", "q", "r"),
    "non_admissible_4.prob": ("p1", "p2"),
    "random_walk_1d.prob": ("p",),
    "random_walk_2d.prob": ("p",),
    "randomized_response.prob": ("p", "q"),
    "thm2_violation.prob": ("p",),
    "umbrella.prob": ("p", "q"),
    "vaccination.prob": ("contact_param", "decline", "vax_param"),
}

#: Rational parameter points; the corpus uses the first three, the oracle all
#: six.  Every value is below 1/3, so any two or three probabilities of one
#: choice still sum to at most 1, and the values of one point have distinct
#: prime denominators, so no two eigenvalues of a corpus system meet there.
POINT_VALUES = (
    (F(2, 7), F(3, 11), F(4, 13)),
    (F(3, 13), F(2, 11), F(5, 17)),
    (F(1, 5), F(4, 17), F(3, 19)),
    (F(3, 17), F(2, 13), F(1, 7)),
    (F(4, 19), F(3, 23), F(2, 11)),
    (F(5, 23), F(1, 11), F(3, 29)),
)


def point(program: str, index: int) -> dict[str, F]:
    return dict(zip(PARAMS[program], POINT_VALUES[index]))


@dataclass
class Op:
    """One timed operation.  ``cold`` clears sympy's cache before it runs."""

    label: str
    run: Callable[[], Any]
    cold: bool = True
    expect_failure: bool = False


@dataclass
class Workload:
    ops: list[Op]
    #: rounds (op label -> output, None for a failed op) -> mismatch messages
    verify: Callable[[list[dict]], list[str]]
    #: per-layer metrics the workload measures itself, summed over all rounds
    layer_metrics: Callable[[list[dict]], dict] = field(default=lambda rounds: {})
    #: whether the operations run in child processes
    children: bool = False
    #: one cheap in-process operation run untimed before the first round
    warmup: Callable[[], Any] | None = None


def child_env(root: Path) -> dict:
    """The environment for a child interpreter that imports ``root/src``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load_manifest(root: Path) -> list[dict]:
    return json.loads((root / CORPUS_DIR / "manifest.json").read_text())["rows"]


def same_rounds(rounds: list[dict]) -> list[str]:
    """Later rounds must reproduce the first one exactly."""
    problems = []
    for i, outputs in enumerate(rounds[1:], start=2):
        for label, out in outputs.items():
            if out != rounds[0][label]:
                problems.append(f"round {i} of {label} differs from round 1")
    return problems
