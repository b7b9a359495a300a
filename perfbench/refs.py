"""References derived by hand, with no code shared with probsens.

All values are exact ``Fraction``s unless a name says otherwise.  The
derivations are in README.md ("Correctness references").
"""

from __future__ import annotations

import math
from fractions import Fraction as F


# -- k independent sticky coins (coin_flips_50.prob and its k-coin family) --


def coin_q(p: F, n: int) -> F:
    """P(a coin is heads after n rounds) = 1 - (1-p)^n."""
    return 1 - (1 - p) ** n


def coin_dq(p: F, n: int) -> F:
    return n * (1 - p) ** (n - 1) if n > 0 else F(0)


def coin_total(k: int, p: F, n: int) -> F:
    return k * coin_q(p, n)


def coin_total_sq(k: int, p: F, n: int) -> F:
    q = coin_q(p, n)
    return k * q + k * (k - 1) * q * q


def coin_d_total(k: int, p: F, n: int) -> F:
    return k * coin_dq(p, n)


def coin_d_total_sq(k: int, p: F, n: int) -> F:
    q, dq = coin_q(p, n), coin_dq(p, n)
    return k * dq + 2 * k * (k - 1) * q * dq


def coin_program(k: int) -> str:
    """The k-coin program in the form of coin_flips_50.prob."""
    names = [f"c{i}" for i in range(1, k + 1)]
    lines = [", ".join(names) + " = " + ", ".join("0" for _ in names), "total = 0", "while true:"]
    lines += [f"    {c} = 1 {{p}} {c}" for c in names]
    lines += ["    total = " + " + ".join(names), "end"]
    return "\n".join(lines) + "\n"


# -- random_walk_1d.prob: x += 1 w.p. p, else -1 -------------------------------


def walk_x(p: F, n: int) -> F:
    return n * (2 * p - 1)


def walk_x_sq(p: F, n: int) -> F:
    return 4 * n * p * (1 - p) + n * n * (2 * p - 1) ** 2


def walk_d_x(p: F, n: int) -> F:
    return F(2 * n)


# -- hawk_dove.prob: payoff += 2 w.p. p, -1 w.p. q, else 0 ----------------------


def hawk_payoff(p: F, q: F, n: int) -> F:
    return n * (2 * p - q)


def hawk_d_payoff(p: F, q: F, n: int) -> F:
    return F(2 * n)


# -- bimodal.prob: r sticky in {-1, 2, r}, x = 0.9 x + 5 r^2 - 5 + N(0, var) ---


def bimodal_x(p: F, q2: F, n: int) -> F:
    r2, x = F(0), F(0)
    for _ in range(n):
        r2 = p + 4 * q2 + (1 - p - q2) * r2
        x = F(9, 10) * x + 5 * r2 - 5
    return x


def bimodal_x_noise_sd(var: float, eps: float, n: int, trials: int) -> float:
    """Standard deviation of the common-random-number central difference of
    E[x_n] in ``var``: x_hi - x_lo = (sqrt(var+eps) - sqrt(var-eps)) * S with
    S ~ N(0, sum_j 0.81^j), so the difference quotient has mean 0."""
    delta = math.sqrt(var + eps) - math.sqrt(var - eps)
    spread = sum(0.81**j for j in range(n))
    return delta / (2 * float(eps)) * math.sqrt(spread / trials)


# -- error bounds ---------------------------------------------------------------


def central_difference_bound(eps: F, degree: int, length: F, bound: F) -> F:
    """|(f(p+eps) - f(p-eps)) / (2 eps) - f'(p)| for a polynomial f of the
    given degree with |f| <= bound on an interval of the given length:
    eps^2/6 * max|f'''|, and by the Markov brothers' inequality
    max|f'''| <= (2/length)^3 * d^2 (d^2-1) (d^2-4) / 15 * bound."""
    d2 = degree * degree
    markov = F(max(0, d2 * (d2 - 1) * (d2 - 4)), 15)
    return eps * eps / 6 * (2 / length) ** 3 * markov * bound


def sampled_difference_tolerance(bound: F, boundaries: int, n: int, eps: F, trials: int) -> float:
    """Five standard errors of a common-random-number central difference of a
    discrete program: one trial's quotient is at most 2*bound/(2 eps) in size,
    and is non-zero only if some uniform falls within eps of one of the
    ``boundaries`` thresholds per iteration that move with the parameter, which
    happens with probability at most 2 eps * boundaries * n."""
    second_moment = (float(bound) / float(eps)) ** 2 * 2 * float(eps) * boundaries * n
    return 5 * math.sqrt(second_moment / trials)
