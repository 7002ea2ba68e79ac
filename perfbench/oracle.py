"""Independent reference for exact p-values, plus small output checks.

The oracle shares no code with exactlex: every hypergeometric term comes from
math.lgamma and every tail from math.fsum, in log space. lgamma of a number
near N carries an absolute error of a few ulps of lgamma(N+1), which is why
the tolerance grows with N (1.4e-4 relative at N = 10^9, 1.3e-7 at the
paper's N = 1.38e6).
"""

from __future__ import annotations

import math

EPS = 2.0 ** -52
TINY = 1e-300  # p-values below this count as an agreed underflow
TIE_REL_TOL = 1e-7  # the documented two-sided tie slack of the exact test


def _log_choose(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _log_sum_exp(values: list[float]) -> float:
    if not values:
        return -math.inf
    peak = max(values)
    return peak + math.log(math.fsum(math.exp(v - peak) for v in values))


def rel_tol(n_total: int) -> float:
    return 32 * EPS * math.lgamma(n_total + 1) + 1e-10


def fisher_oracle(n11: int, row1: int, col1: int, n_total: int) -> dict[str, float]:
    """Left, right and bracketed two-sided p-values of the observed n11."""
    lo = max(0, row1 + col1 - n_total)
    hi = min(row1, col1)
    base = _log_choose(n_total, row1)
    rest = n_total - col1
    logs = [_log_choose(col1, k) + _log_choose(rest, row1 - k) - base for k in range(lo, hi + 1)]
    norm = _log_sum_exp(logs)
    logs = [v - norm for v in logs]
    idx = n11 - lo
    # The program keeps a term in the two-sided sum when its log-pmf is within
    # the tie slack of the observed one; the oracle's own log error can move a
    # term across that line, so bound the two-sided value from both sides.
    slack = 4 * rel_tol(n_total)
    cutoff = logs[idx] + math.log1p(TIE_REL_TOL)
    return {
        "left": math.exp(_log_sum_exp(logs[: idx + 1])),
        "right": math.exp(_log_sum_exp(logs[idx:])),
        "two_lo": math.exp(_log_sum_exp([v for v in logs if v <= cutoff - slack])),
        "two_hi": math.exp(_log_sum_exp([v for v in logs if v <= cutoff + slack])),
    }


def close(p: float, q: float, tol: float, abs_tol: float = 0.0) -> bool:
    return abs(p - q) <= tol * max(abs(p), abs(q)) + abs_tol + TINY


def check_fisher(left: float, right: float, two: float, n11: int, row1: int, col1: int,
                 n_total: int, abs_tol: float = 0.0) -> str | None:
    """None when the program's p-values agree with the oracle, else a reason.

    abs_tol covers p-values the program printed rounded (0.0005 for three
    decimals)."""
    ref = fisher_oracle(n11, row1, col1, n_total)
    tol = rel_tol(n_total)
    if not close(left, min(1.0, ref["left"]), tol, abs_tol):
        return f"left {left!r} vs oracle {ref['left']!r}"
    if not close(right, min(1.0, ref["right"]), tol, abs_tol):
        return f"right {right!r} vs oracle {ref['right']!r}"
    lo, hi = min(1.0, ref["two_lo"]), min(1.0, ref["two_hi"])
    if not lo * (1 - tol) - abs_tol - TINY <= two <= hi * (1 + tol) + abs_tol + TINY:
        return f"two-sided {two!r} outside oracle [{lo!r}, {hi!r}]"
    return None


RANKED_P = {"exact": "exact_two_p", "g2": "g2_p", "x2": "x2_p", "t": "t_p"}


def ranks_are_permutations(records: list[dict]) -> str | None:
    """Ranks of the records that have a p-value for a test must be exactly 1..k."""
    for key, p_field in RANKED_P.items():
        ranks = [r[f"{key}_rank"] for r in records if r[p_field] is not None]
        if sorted(ranks) != list(range(1, len(ranks) + 1)):
            return f"{key} ranks are not a permutation of 1..{len(ranks)}"
        if any(r[f"{key}_rank"] is not None for r in records if r[p_field] is None):
            return f"{key} rank given to a record without a p-value"
    return None
