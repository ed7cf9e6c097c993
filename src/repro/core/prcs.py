"""Probability of correct selection: pairwise estimates and combination.

Section 4 of the paper: having picked the configuration with the
smallest estimated cost, the probability that this choice is correct
with respect to one alternative ``C_j`` is assessed through the
standardized statistic ``Delta_{l,j} ~ N(0,1)``.  Operationally, with
observed gap ``g = X_j - X_l >= 0`` (the selected configuration looked
better by ``g``) and estimated standard error ``se`` of the difference
estimator, the selection is wrong only if the true difference exceeds
the sensitivity ``delta`` in the other direction, hence

    Pr(CS_{l,j}) = Phi((g + delta) / se).

For ``k > 2`` configurations, the Bonferroni inequality (equation 3)
gives ``Pr(CS) >= 1 - sum_j (1 - Pr(CS_{l,j}))``.

The same normal machinery inverts into *target variances*: the
variance the difference estimator must reach so that a pair meets its
share of the overall target probability — the quantity the progressive
stratification algorithm's ``#Samples`` estimates are built on (§5.1).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.special import ndtr
from scipy.stats import norm

__all__ = [
    "pairwise_prcs",
    "pairwise_prcs_many",
    "bonferroni",
    "per_pair_alpha",
    "pair_target_variance",
]


def pairwise_prcs_many(
    gap: np.ndarray, variance: np.ndarray, delta: float = 0.0
) -> np.ndarray:
    """``Pr(CS_{l,j})`` for many pairs at once (see :func:`pairwise_prcs`).

    One ``ndtr`` pass over the standardized margins — the same float
    ``norm.cdf`` returns for each of them.  Degenerate variances keep
    their exact answers; a NaN gap or variance gives 0.
    """
    gap = np.asarray(gap, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    margin = gap + delta
    with np.errstate(divide="ignore", invalid="ignore"):
        p = ndtr(margin / np.sqrt(variance))
    # Exhaustive or degenerate sample: the estimate is exact.
    exact = np.where(margin > 0, 1.0, np.where(margin < 0, 0.0, 0.5))
    p = np.where(variance <= 0.0, exact, p)
    unknown = np.isinf(variance) | np.isnan(variance) | np.isnan(margin)
    return np.where(unknown, 0.0, p)


def pairwise_prcs(gap: float, variance: float, delta: float = 0.0) -> float:
    """``Pr(CS_{l,j})`` for one pair.

    Parameters
    ----------
    gap:
        Observed estimate of ``Cost(WL, C_j) - Cost(WL, C_l)`` where
        ``C_l`` is the selected configuration (usually positive).
    variance:
        Estimated variance of the difference estimator (``Var(X_l) +
        Var(X_j)`` for Independent Sampling, ``Var(X_{l,j})`` for Delta
        Sampling).  Infinite or NaN variance (and a NaN gap) give 0:
        nothing is known about the pair.
    delta:
        The sensitivity parameter: differences below ``delta`` do not
        count as incorrect selections.
    """
    return float(pairwise_prcs_many(gap, variance, delta))


def bonferroni(pairwise: Sequence[float]) -> float:
    """Lower bound on ``Pr(CS)`` from pairwise probabilities (eq. 3).

    Summed left to right; a NaN pairwise probability counts as 0.
    """
    total = 1.0 - sum(1.0 - p if p == p else 1.0 for p in pairwise)
    return max(0.0, min(1.0, total))


def per_pair_alpha(alpha: float, k_active: int) -> float:
    """Per-pair probability target that Bonferroni-combines to ``alpha``.

    With ``k_active`` configurations still in play there are
    ``k_active - 1`` comparisons against the selected one; requiring
    each at ``1 - (1 - alpha)/(k_active - 1)`` suffices.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if k_active < 2:
        return alpha
    return 1.0 - (1.0 - alpha) / (k_active - 1)


def pair_target_variance(
    gap: float, delta: float, alpha_pair: float
) -> float:
    """Variance the difference estimator must reach for one pair.

    Inverts :func:`pairwise_prcs`: ``Phi((gap + delta)/sqrt(V)) >=
    alpha_pair`` iff ``V <= ((gap + delta)/z)^2`` with
    ``z = Phi^{-1}(alpha_pair)``.  Returns ``0`` when the pair cannot
    be separated at this gap (forcing a full evaluation of the pair —
    typically prevented by the sensitivity ``delta``), and ``inf`` when
    any variance suffices.
    """
    margin = gap + delta
    # norm.ppf is the dominant cost of a target-variance evaluation
    # and alpha_pair takes a handful of distinct values per selection
    # (it only moves when a configuration is eliminated), so the
    # quantile is memoized — same float, bit for bit.
    try:
        z = _PPF_CACHE[alpha_pair]
    except KeyError:
        z = _PPF_CACHE[alpha_pair] = float(norm.ppf(alpha_pair))
        if len(_PPF_CACHE) > 1024:  # pragma: no cover - safety valve
            _PPF_CACHE.clear()
            _PPF_CACHE[alpha_pair] = z
    if z <= 0:
        return float("inf")
    if margin <= 0:
        return 0.0
    return (margin / z) ** 2


_PPF_CACHE: dict = {}
