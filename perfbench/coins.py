"""``coins``: k-coin programs assembled as ``dump-recurrences`` does, unsolved.

Recurrence assembly in ``moments``/``PolyExpr`` is nearly all of this
workload's time and the solver is idle.  Equation counts grow quadratically
in k, so a per-term cost that grows with the number of terms shows.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from functools import partial
from pathlib import Path

import probsens.normalize as N
import probsens.parser as P
import probsens.sensitivity as S
from probsens.errors import ParseError

import refs
from common import DEFAULT_CAP, Op, Workload

KS = (6, 9, 13)
TARGETS = ("total", "total**2")
#: Forward-iteration indices checked against the coin formulas.
STEPS = 3
P_POOL = (F(2, 7), F(3, 11), F(4, 13), F(1, 5))


def dump(text: str, target: str, wrt: str | None):
    """What ``probsens dump-recurrences PROGRAM --target T [--wrt p]`` does."""
    prog = P.parse(text, name="coins")
    errors = [d for d in P.validate(prog) if d.severity == "error"]
    if errors:
        raise ParseError("; ".join(d.message for d in errors))
    np_ = N.normalize(prog)
    mono = P.parse_monomial(target)
    if wrt is None:
        system = S.moment_closure(np_, mono, cap=DEFAULT_CAP)
    else:
        system = S.sensitivity_system(np_, mono, wrt, cap=DEFAULT_CAP)
    system.render()
    return system


def build(seed: int, root: Path) -> Workload:
    ops = []
    for k in KS:
        text = refs.coin_program(k)
        for target in TARGETS:
            for wrt in (None, "p"):
                kind = "sens" if wrt else "moment"
                ops.append(Op(f"k{k}:{target}:{kind}", partial(dump, text, target, wrt)))
    p = random.Random(seed).choice(P_POOL)
    warmup = partial(dump, refs.coin_program(KS[0]), "total**2", None)
    return Workload(ops, partial(verify, p), warmup=warmup)


def expected_size(k: int, target: str, kind: str) -> int:
    if target == "total":
        return k + 1 if kind == "moment" else 2 * k + 1
    return k * (k + 1) // 2 + 1 if kind == "moment" else k * (k + 1) + 1


REFERENCE = {
    ("total", "moment"): refs.coin_total,
    ("total", "sens"): refs.coin_d_total,
    ("total**2", "moment"): refs.coin_total_sq,
    ("total**2", "sens"): refs.coin_d_total_sq,
}


def verify(p: F, rounds: list[dict]) -> list[str]:
    problems = []
    for label, system in rounds[0].items():
        if system is None:
            continue
        k_text, target, kind = label.split(":")
        k = int(k_text[1:])
        if system.size != expected_size(k, target, kind):
            problems.append(f"{label}: {system.size} equations, expected {expected_size(k, target, kind)}")
            continue
        values = {"p": p}
        coeffs = [(c.eval_fraction(values), s) for c, s in system.combination]
        for n, row in enumerate(system.iterate(STEPS, values)):
            got = sum((c * row[s] for c, s in coeffs), F(0))
            want = REFERENCE[(target, kind)](k, p, n)
            if got != want:
                problems.append(f"{label}: {got} at n={n}, p={p}; formula gives {want}")
    return problems
