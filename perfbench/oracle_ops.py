"""``oracle``: exact enumeration, common-random-number sampling and central
differences, with no recurrence solving.

This workload runs ``Fraction`` state enumeration, numpy sampling and
``ParamExpr.eval_fraction`` at rational points.  A coefficient type that
speeds up canonicalization but slows evaluation shows here.
"""

from __future__ import annotations

from fractions import Fraction as F
from functools import partial
from pathlib import Path

import probsens.normalize as N
import probsens.oracle as O
import probsens.parser as P
import probsens.sensitivity as S
import probsens.symbolic as Y

import refs
from common import CORPUS_DIR, Op, Workload, point, same_rounds

MOMENT_TRIALS = 20_000
FD_TRIALS = 50_000
EXACT_EPS = F(1, 10**6)
SAMPLED_EPS = F(1, 10)
COINS = 4

#: Each kind runs at all six parameter points, so every kind is a cluster of
#: six operations of nearly equal cost.  The kinds are ordered by cost, which
#: puts the median (operations 27 and 28 of 54) inside the fifth cluster and
#: the tail (the eleventh slowest) inside the eighth, away from the edges
#: where a little noise would swap one kind of operation for another.
POINTS = 6

# (label, program, monomial, n, kind, parameter)
SPECS = [
    ("walk_x2_sample", "random_walk_1d.prob", "x**2", 12, "sample", None),
    ("coins_sample", "coins", "total", 3, "sample", None),
    ("bimodal_x_sample", "bimodal.prob", "x", 6, "sample", None),
    ("umbrella_exact", "umbrella.prob", "umbrella", 8, "exact", None),
    ("walk_fd_sample", "random_walk_1d.prob", "x", 8, "fd_sample", "p"),
    ("hawk_fd_sample", "hawk_dove.prob", "payoff", 6, "fd_sample", "p"),
    ("bimodal_fd_sample", "bimodal.prob", "x", 6, "fd_sample", "var"),
    ("coins_x2_exact", "coins", "total**2", 4, "exact", None),
    ("hawk_fd_exact", "hawk_dove.prob", "payoff", 6, "fd_exact", "p"),
]

#: Hand-derived E[M_n] and d/dp E[M_n]: (program, monomial) -> (value, derivative)
HAND = {
    ("random_walk_1d.prob", "x"): (
        lambda s, n: refs.walk_x(s["p"], n), lambda s, n: refs.walk_d_x(s["p"], n)),
    ("random_walk_1d.prob", "x**2"): (lambda s, n: refs.walk_x_sq(s["p"], n), None),
    ("hawk_dove.prob", "payoff"): (
        lambda s, n: refs.hawk_payoff(s["p"], s["q"], n),
        lambda s, n: refs.hawk_d_payoff(s["p"], s["q"], n)),
    ("coins", "total"): (lambda s, n: refs.coin_total(COINS, s["p"], n), None),
    ("coins", "total**2"): (lambda s, n: refs.coin_total_sq(COINS, s["p"], n), None),
    ("bimodal.prob", "x"): (lambda s, n: refs.bimodal_x(s["p"], s["q2"], n), lambda s, n: F(0)),
}

#: For sampled differences of discrete programs: (largest |M_n|, thresholds
#: per iteration that move with the parameter); see refs.sampled_difference_tolerance.
SAMPLED_BOUNDS = {
    ("random_walk_1d.prob", "x"): (lambda n: n, 1),
    ("hawk_dove.prob", "payoff"): (lambda n: 2 * n, 2),
}

#: Programs whose probability parameter is only valid on part of [0, 1].
VALID_LENGTH = {"hawk_dove.prob": lambda s: 1 - s["q"]}

#: Degree of E[M_n] in the parameter per iteration (thresholds per iteration).
DEGREE_PER_STEP = {"hawk_dove.prob": 1}


def run_op(prog, kind: str, mono, n: int, sigma: dict, param, seed: int):
    if kind == "exact":
        return O.moment_exact(prog, mono, n, sigma)
    if kind == "sample":
        return O.sample_moment(prog, mono, n, MOMENT_TRIALS, seed, sigma)
    if kind == "fd_exact":
        return O.fd_sensitivity(prog, mono, n, param, sigma, eps=EXACT_EPS).value
    return O.fd_sensitivity(
        prog, mono, n, param, sigma, eps=SAMPLED_EPS, exact=False, trials=FD_TRIALS, seed=seed
    )


def build(seed: int, root: Path) -> Workload:
    texts = {"coins": refs.coin_program(COINS)}
    for _, name, *_ in SPECS:
        if name not in texts:
            texts[name] = (root / CORPUS_DIR / name).read_text()
    programs = {name: P.parse(text, name=name) for name, text in texts.items()}
    ops, inputs = [], {}
    for spec_label, name, monomial, n, kind, param in SPECS:
        mono = P.parse_monomial(monomial)
        for index in range(POINTS):
            sigma = point("coin_flips_50.prob" if name == "coins" else name, index)
            label = f"{spec_label}@{index}"
            inputs[label] = (name, monomial, n, kind, param, sigma)
            ops.append(Op(label, partial(run_op, programs[name], kind, mono, n, sigma, param, seed)))
    return Workload(ops, partial(verify, texts, programs, inputs))


def verify(texts, programs, inputs, rounds: list[dict]) -> list[str]:
    problems = same_rounds(rounds)
    closed_forms = {}
    for label, out in rounds[0].items():
        if out is None:
            continue
        name, monomial, n, kind, param, sigma = inputs[label]
        prog, mono = programs[name], P.parse_monomial(monomial)
        value_ref, deriv_ref = HAND.get((name, monomial), (None, None))
        if value_ref is None:  # a corpus closed form, solved by the pipeline
            key = (name, monomial)
            if key not in closed_forms:
                np_ = N.normalize(P.parse(texts[name]))
                closed_forms[key] = S.moment_closure(np_, mono).closed_form()
            value_ref = lambda s, m, cf=closed_forms[key]: Y.ep_eval(cf, s, m)  # noqa: E731

        if kind == "exact":
            dist = O.enumerate_distribution(prog, mono, n, sigma)
            if sum(dist.values()) != 1:
                problems.append(f"{label}: enumerated weights sum to {sum(dist.values())}")
            if out != value_ref(sigma, n):
                problems.append(f"{label}: {out} != reference {value_ref(sigma, n)}")
        elif kind == "sample":
            exact = value_ref(sigma, n)
            if abs(out.value - float(exact)) > 5 * out.stderr:
                problems.append(
                    f"{label}: sampled {out.value:.6g} vs exact {float(exact):.6g}, "
                    f"beyond 5 standard errors ({out.stderr:.3g})"
                )
        elif kind == "fd_exact":
            bound = max(abs(v) for v in O.enumerate_distribution(prog, mono, n, sigma))
            length = VALID_LENGTH.get(name, lambda s: F(1))(sigma)
            tol = refs.central_difference_bound(EXACT_EPS, DEGREE_PER_STEP[name] * n, length, bound)
            if abs(out - deriv_ref(sigma, n)) > tol:
                problems.append(f"{label}: {float(out):.9g} vs {float(deriv_ref(sigma, n)):.9g} beyond {float(tol):.3g}")
        else:  # fd_sample
            if name == "bimodal.prob":
                want = 0.0
                tol = 5 * refs.bimodal_x_noise_sd(float(sigma[param]), float(SAMPLED_EPS), n, FD_TRIALS)
            else:
                hi, lo = dict(sigma), dict(sigma)
                hi[param] += SAMPLED_EPS
                lo[param] -= SAMPLED_EPS
                want = float((value_ref(hi, n) - value_ref(lo, n)) / (2 * SAMPLED_EPS))
                largest, thresholds = SAMPLED_BOUNDS[(name, monomial)]
                tol = refs.sampled_difference_tolerance(largest(n), thresholds, n, SAMPLED_EPS, FD_TRIALS)
            if abs(out.value - want) > tol:
                problems.append(f"{label}: sampled difference {out.value:.6g} vs {want:.6g} beyond {tol:.3g}")
    return problems
