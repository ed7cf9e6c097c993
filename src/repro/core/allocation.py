"""Next-sample selection policies (Section 5.2) and batched allocation kernels.

Ideally the next (query, configuration) evaluation would maximize
``Pr(CS)``; the paper uses the tractable greedy surrogate of minimizing
the *sum of estimator variances*, assuming sample means and variances
stay unchanged.  Adding one sample to stratum ``h`` (current allocation
``n_h``) changes that stratum's variance contribution from

    |WL_h|^2 * s_h^2 / n_h * (1 - n_h/|WL_h|)

to the same expression at ``n_h + 1``; the policy picks the
(configuration and) stratum with the largest reduction.  For Delta
Sampling, the sampled query is evaluated in every configuration, so
only the stratum is chosen — by the largest reduction summed over the
active pairwise difference estimators.

When per-evaluation optimizer overheads differ, the reduction is
divided by the expected overhead of the stratum/configuration pair
(``overheads`` argument), matching the paper's closing remark in §5.2.

This module also hosts the *batched* allocation kernels behind
``#Samples`` (footnote 3): :func:`neyman_allocation_batch`,
:func:`allocation_variance_batch` and :func:`samples_needed_batch` run
many independent (stratification, variance-profile) problems through
one vectorized binary search.  Per problem they are bit-identical to
the scalar functions in :mod:`repro.core.stratification` (which are
thin wrappers over the batch kernels): every per-element floating-point
operation keeps the scalar op order, and the eq. 5 sum accumulates
stratum-by-stratum in index order exactly as the historical ``zip``
loop did.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "variance_reduction",
    "variance_reduction_many",
    "pick_independent",
    "pick_delta_stratum",
    "DeltaStratumScorer",
    "batch_multiplier",
    "neyman_allocation_batch",
    "allocation_variance_batch",
    "samples_needed_batch",
]


def variance_reduction(
    size: float, s2: float, n: int
) -> float:
    """Variance drop from sampling one more query in a stratum."""
    if s2 <= 0 or size <= 1 or n >= size:
        return 0.0
    if n <= 0:
        return float("inf")
    current = size * size * s2 / n * (1.0 - n / size)
    nxt = size * size * s2 / (n + 1) * (1.0 - (n + 1) / size)
    return max(0.0, current - nxt)


def variance_reduction_many(
    sizes: np.ndarray, variances: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Elementwise :func:`variance_reduction` over aligned arrays.

    Bit-identical per element to the scalar function (same operation
    order, same edge semantics: zero for empty/exhausted/degenerate
    strata, ``inf`` for unsampled strata with positive variance).
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    s2 = np.asarray(variances, dtype=np.float64)
    n = np.asarray(counts, dtype=np.float64)
    zero = (s2 <= 0.0) | (sizes <= 1.0) | (n >= sizes)
    with np.errstate(divide="ignore", invalid="ignore"):
        n1 = n + 1.0
        numer = sizes * sizes * s2
        current = numer / n * (1.0 - n / sizes)
        nxt = numer / n1 * (1.0 - n1 / sizes)
        diff = current - nxt
        # Python's max(0.0, x) keeps 0.0 unless x compares greater —
        # np.where on the same predicate reproduces that exactly (NaN
        # maps to 0.0, as the scalar path does).
        red = np.where(diff > 0.0, diff, 0.0)
    return np.where(zero, 0.0, np.where(n <= 0.0, np.inf, red))


def pick_independent(
    stratum_sizes: np.ndarray,
    stratum_vars: Sequence[np.ndarray],
    stratum_counts: Sequence[np.ndarray],
    exhausted: Sequence[np.ndarray],
    overheads: Optional[Sequence[np.ndarray]] = None,
) -> Optional[Tuple[int, int]]:
    """Choose ``(configuration, stratum)`` for Independent Sampling.

    Parameters
    ----------
    stratum_sizes:
        ``|WL_h|`` per stratum (shared across configurations).
    stratum_vars / stratum_counts:
        Per configuration: per-stratum sample variance and sample
        count arrays.
    exhausted:
        Per configuration: boolean array marking strata with no
        unsampled queries left for that configuration.
    overheads:
        Optional per (configuration, stratum) expected evaluation
        overheads; reductions are divided by them.

    Returns
    -------
    (config, stratum) or None
        ``None`` when every stratum of every configuration is
        exhausted.
    """
    sizes = np.asarray(stratum_sizes, dtype=np.float64)
    best: Optional[Tuple[int, int]] = None
    best_score = -1.0
    for config, (vars_h, counts_h, done_h) in enumerate(
        zip(stratum_vars, stratum_counts, exhausted)
    ):
        done_h = np.asarray(done_h, dtype=bool)
        if done_h.all():
            continue
        red = variance_reduction_many(sizes, vars_h, counts_h)
        if overheads is not None:
            red = red / np.maximum(1e-12, np.asarray(
                overheads[config], dtype=np.float64
            ))
        scores = np.where(done_h, -np.inf, red)
        h = int(np.argmax(scores))
        if scores[h] > best_score:
            best_score = float(scores[h])
            best = (config, h)
    return best


def batch_multiplier(
    prev: int,
    batch_rounds: int,
    growth: float,
    tolerance: float,
    calls_used: int,
    round_calls: int,
) -> int:
    """How many allocation rounds to coalesce into the next batch.

    The round-level draw-ahead plans ``m`` variance-greedy rounds at
    once (one termination/elimination/split re-check per batch instead
    of per round).  ``m`` grows geometrically from the previous batch
    (``ceil(prev * growth)``), clamped by two bounds:

    * ``batch_rounds`` — the configured hard cap (1 disables batching
      and reproduces the serial schedule bit-identically);
    * the re-check tolerance — the calls a batch spends beyond its
      first, serially scheduled round (``(m - 1) * round_calls``) may
      not exceed ``tolerance`` times the calls already spent, so even
      when termination lands mid-batch the overshoot against the
      serial schedule stays within tolerance.
    """
    if batch_rounds <= 1:
        return 1
    m = min(batch_rounds, int(math.ceil(prev * growth)))
    if round_calls > 0:
        m = min(m, 1 + int(tolerance * calls_used / round_calls))
    return max(1, m)


def pick_delta_stratum(
    stratum_sizes: np.ndarray,
    pair_stratum_vars: Sequence[np.ndarray],
    stratum_counts: np.ndarray,
    exhausted: np.ndarray,
    overheads: Optional[np.ndarray] = None,
) -> Optional[int]:
    """Choose the stratum for Delta Sampling.

    ``pair_stratum_vars`` holds, for each active pairwise difference
    estimator, its per-stratum sample variances; reductions are summed
    over pairs (minimizing the sum of the variances of all estimators,
    §5.2).  Ties break toward the lowest stratum index, as the
    historical per-stratum loop did.
    """
    exhausted = np.asarray(exhausted, dtype=bool)
    if exhausted.all():
        return None
    sizes = np.asarray(stratum_sizes, dtype=np.float64)
    pairs = list(pair_stratum_vars)
    if pairs:
        # One elementwise reduction over a (pairs, strata) stack; the
        # cumulative sum accumulates pair by pair in the same order as
        # the historical inner loop (cumsum is a sequential scan).
        stacked = np.stack(pairs).astype(np.float64, copy=False)
        red = variance_reduction_many(sizes, stacked, stratum_counts)
        total = np.cumsum(red, axis=0)[-1]
    else:
        total = np.zeros(len(sizes), dtype=np.float64)
    if overheads is not None:
        total = total / np.maximum(
            1e-12, np.asarray(overheads, dtype=np.float64)
        )
    scores = np.where(exhausted, -1.0, total)
    best = int(np.argmax(scores))
    return None if exhausted[best] else best


class DeltaStratumScorer:
    """Incremental §5.2 stratum scores across planned rounds.

    Bit-identical to calling :func:`pick_delta_stratum` once per
    planned round: between rounds only the picked stratum's count
    changes, :func:`variance_reduction_many` is elementwise, and the
    over-pairs cumulative sum is per-column — so only the touched
    column's score is recomputed instead of the full (pairs, strata)
    stack.  ``stratum_counts`` is held by reference: mutate it, then
    call :meth:`refresh` with the touched stratum.
    """

    def __init__(
        self,
        stratum_sizes: np.ndarray,
        pair_stratum_vars: Sequence[np.ndarray],
        stratum_counts: np.ndarray,
        overheads: Optional[np.ndarray] = None,
    ) -> None:
        self._sizes = np.asarray(stratum_sizes, dtype=np.float64)
        stacked = np.asarray(pair_stratum_vars, dtype=np.float64)
        self._stacked = stacked if len(stacked) else None
        self._counts = stratum_counts
        self._over = (
            None if overheads is None
            else np.maximum(1e-12, np.asarray(overheads, dtype=np.float64))
        )
        if self._stacked is not None:
            red = variance_reduction_many(
                self._sizes, self._stacked, self._counts
            )
            total = np.cumsum(red, axis=0)[-1]
        else:
            total = np.zeros(len(self._sizes), dtype=np.float64)
        if self._over is not None:
            total = total / self._over
        self._total = total
        self._dirty: Optional[int] = None

    def refresh(self, h: int) -> None:
        """Note stratum ``h``'s count changed (recomputed lazily)."""
        if self._dirty is not None and self._dirty != h:
            self._flush()
        self._dirty = h

    def _flush(self) -> None:
        h = self._dirty
        self._dirty = None
        if h is None or self._stacked is None:
            return
        red = variance_reduction_many(
            self._sizes[h], self._stacked[:, h], self._counts[h]
        )
        score = np.cumsum(red)[-1]
        if self._over is not None:
            score = score / self._over[h]
        self._total[h] = score

    def pick(self, exhausted: np.ndarray) -> Optional[int]:
        """Best non-exhausted stratum (ties toward the lowest index)."""
        if self._dirty is not None:
            self._flush()
        scores = np.where(exhausted, -1.0, self._total)
        best = int(np.argmax(scores))
        return None if exhausted[best] else best


# ----------------------------------------------------------------------
# Batched allocation kernels (footnote 3's #Samples, many problems at
# once).  The scalar wrappers in repro.core.stratification delegate
# here with B=1, so there is exactly one implementation to keep
# bit-identical.
#
# The bisection in samples_needed_batch probes the same (sizes,
# variances, floors) rows a dozen-plus times with different totals, so
# everything that depends only on the rows — clamped floors, Neyman
# weights (with the degenerate-row replacement), eq. 5 numerators and
# active masks, row sums — is hoisted into a prep step shared by every
# probe.  The per-probe cores below consume the prepped arrays.
# ----------------------------------------------------------------------
#: Probe-invariant row state shared by every bisection probe.  The
#: stored ``weights`` already have the strata that start at their cap
#: (``floors >= sizes``, e.g. fully sampled strata) masked to zero —
#: exactly the masked weight vector the redistribution loop's first
#: pass would otherwise rebuild per probe.  ``wzero`` marks the
#: zero-weight strata: masking one out replaces a ``0.0`` with a
#: ``0.0``, so the fast no-masking path stays valid while only
#: zero-weight strata are closed (initially saturated strata, and the
#: zero-size padding column the split search appends to fold its
#: baseline row into the batch).  ``worder`` is the per-row descending
#: weight order the hand-out fallback walks.  ``no_degenerate`` and
#: ``fb_free`` are plain bools hoisted out of the iteration loop:
#: ``no_degenerate`` says no row has an all-nonpositive weight sum;
#: ``fb_free`` additionally says no initially-open stratum has zero
#: weight, so the masked weight sum of any row with an open stratum
#: left stays positive and the degenerate-weights fallback can never
#: fire (both remain valid — conservatively — for any row subset).
_NeymanPrep = namedtuple(
    "_NeymanPrep",
    "sizes sizes_f weights wsum_all wsum_nonpos wzero worder floors_c "
    "floors_sum sizes_sum no_degenerate fb_free",
)


def _neyman_prep(
    sizes: np.ndarray,
    std_devs: np.ndarray,
    floors: np.ndarray,
) -> _NeymanPrep:
    """Probe-invariant state for :func:`_neyman_core`.

    ``sizes``/``floors`` are int64 ``(B, L)``; ``std_devs`` float.
    The degenerate-row weight replacement is applied first (same
    expressions, in the same order, as the historical per-call
    prologue — the degeneracy test reads the unmasked weight sum),
    then the initially-closed strata are masked out.
    """
    sizes_f = sizes.astype(np.float64)
    floors_c = np.minimum(floors, sizes)
    floors_sum = floors_c.sum(axis=1)
    sizes_sum = sizes.sum(axis=1)
    weights = sizes_f * std_devs
    wsum_all = weights.sum(axis=1)
    degenerate = wsum_all <= 0
    if degenerate.any():
        weights = np.where(degenerate[:, None], sizes_f, weights)
        wsum_all = np.where(degenerate, sizes_f.sum(axis=1), wsum_all)
    open0 = floors_c < sizes
    if not open0.all():
        weights = np.where(open0, weights, 0.0)
        wsum_all = weights.sum(axis=1)
    wsum_nonpos = wsum_all <= 0
    wzero = weights == 0.0
    no_degenerate = not bool(wsum_nonpos.any())
    fb_free = no_degenerate and not bool((wzero & open0).any())
    return _NeymanPrep(
        sizes, sizes_f, weights, wsum_all, wsum_nonpos,
        wzero, np.argsort(-weights, axis=1),
        floors_c, floors_sum, sizes_sum, no_degenerate, fb_free,
    )


def _neyman_core(
    prep: _NeymanPrep,
    totals: np.ndarray,
    pre_clamped: bool = False,
) -> np.ndarray:
    """Lockstep iterative Neyman redistribution over prepped rows.

    Bit-identical per row to the scalar
    :func:`repro.core.stratification.neyman_allocation`: the common
    all-rows-active / all-strata-open iterations skip the masking and
    fancy-indexing machinery but compute the exact same values.
    ``pre_clamped`` skips the totals clamp when the caller already
    guarantees ``floors_sum <= totals <= sizes_sum`` (the bisection
    only probes inside that interval).
    """
    sizes = prep.sizes
    sizes_f = prep.sizes_f
    weights = prep.weights
    if pre_clamped:
        totals = np.asarray(totals)
    else:
        totals = np.minimum(
            np.maximum(totals, prep.floors_sum), prep.sizes_sum
        )
    alloc = prep.floors_c.copy()
    remaining = totals - prep.floors_sum
    fast = True

    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            act = remaining > 0
            n_act = int(act.sum())
            if n_act == 0:
                break
            open_mask = alloc < sizes
            if fast and (open_mask | prep.wzero).all():
                w = weights
                wsum = prep.wsum_all
                fallback = None
                if not prep.no_degenerate:
                    fb = act & prep.wsum_nonpos
                    fallback = fb if fb.any() else None
            else:
                # Allocations only grow, so once a positive-weight
                # stratum closes the no-masking path is gone for good
                # and its test stops being re-evaluated.  No per-row
                # all-strata-closed deactivation is needed either:
                # such a row has alloc == sizes everywhere and totals
                # are clamped to sizes_sum, so its remaining is
                # already <= 0 and the row is inactive.
                fast = False
                w = np.where(open_mask, weights, 0.0)
                wsum = w.sum(axis=1)
                if prep.fb_free:
                    # An active row always has an open stratum left,
                    # every open stratum kept a positive weight, and
                    # nonnegative floats only sum to zero when all are
                    # zero — the fallback cannot fire.  (Inactive rows
                    # may divide by a zero wsum below; their garbage
                    # shares are zeroed out exactly as the fallback
                    # path would leave them.)
                    fallback = None
                else:
                    nonpos = wsum <= 0.0
                    fallback = act & nonpos if nonpos.any() else None
            if fallback is not None:
                w = np.where(
                    fallback[:, None], np.where(open_mask, sizes_f, 0.0), w
                )
                wsum = np.where(fallback, w.sum(axis=1), wsum)
            # int64 truncation == floor here: active rows have
            # remaining > 0, w >= 0 and wsum > 0, so every kept
            # quotient is nonnegative; inactive rows are zeroed below.
            share = (
                remaining[:, None] * w / wsum[:, None]
            ).astype(np.int64)
            if n_act < act.size:
                share[~act] = 0
                handout = act & (share.sum(axis=1) == 0)
            else:
                handout = share.sum(axis=1) == 0
            n_handout = int(handout.sum())
            if n_handout < n_act:
                # Inactive and hand-out rows carry an all-zero share,
                # so the capped update is an exact integer no-op for
                # them: the whole batch updates unconditionally
                # without row-fancy indexing.
                new_alloc = np.minimum(alloc + share, sizes)
                remaining = remaining - (new_alloc - alloc).sum(axis=1)
                alloc = new_alloc
            if n_handout == 0:
                continue
            # Scalar fallback: walk strata by descending weight, give
            # one sample to each open stratum until the remainder is
            # spent.  Each stratum is visited at most once per pass, so
            # "the first `remaining` open strata in weight order" is
            # the exact same hand-out.  While ``w`` is the prepped
            # weight vector the prepped argsort is that same order.
            rows = np.flatnonzero(handout)
            if w is weights:
                order = prep.worder[rows]
            else:
                order = np.argsort(-w[rows], axis=1)
            open_in_order = np.take_along_axis(
                open_mask[rows], order, axis=1
            )
            rank = np.cumsum(open_in_order, axis=1)
            give_in_order = open_in_order & (
                rank <= remaining[rows][:, None]
            )
            give = np.zeros_like(give_in_order)
            np.put_along_axis(give, order, give_in_order, axis=1)
            alloc[rows] += give.astype(np.int64)
            remaining[rows] -= give.sum(axis=1)
    return alloc


def neyman_allocation_batch(
    sizes: np.ndarray,
    std_devs: np.ndarray,
    totals: np.ndarray,
    floors: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Neyman allocation for ``B`` independent problems at once.

    ``sizes``/``std_devs``/``floors`` are ``(B, L)``; ``totals`` is
    ``(B,)``.  Row ``b`` of the result equals the scalar
    :func:`repro.core.stratification.neyman_allocation` on row ``b``'s
    inputs, bit for bit: the iterative redistribution runs all rows in
    lockstep, masking rows that converged, and the one-at-a-time
    hand-out fallback is reproduced with a per-row argsort over the
    same weight vector the scalar loop sorts.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.ndim != 2:
        raise ValueError(f"sizes must be 2-D (B, L), got {sizes.shape}")
    std_devs = np.asarray(std_devs, dtype=np.float64)
    totals = np.asarray(totals, dtype=np.int64).reshape(-1)
    if floors is None:
        floors = np.zeros_like(sizes)
    else:
        floors = np.asarray(floors, dtype=np.int64)
    prep = _neyman_prep(sizes, std_devs, floors)
    return _neyman_core(prep, totals)


def _alloc_variance_core(
    sizes_f: np.ndarray,
    numerators: np.ndarray,
    active: np.ndarray,
    alloc_f: np.ndarray,
    assume_fed: bool = False,
) -> np.ndarray:
    """Eq. 5 variance from prepped numerators and active masks.

    ``numerators`` is ``sizes^2 * variances``; ``active`` marks strata
    with positive variance and size ``> 1``.  Per row bit-identical to
    the historical sequential ``zip`` loop: the cumulative sum along
    axis 1 accumulates column by column in stratum order (cumsum is a
    sequential scan), adding an exact ``0.0`` for every masked
    stratum.  ``assume_fed`` skips the starved-stratum bookkeeping
    when the caller guarantees every active stratum is allocated at
    least one sample (the bisection's floors enforce exactly that), in
    which case no row can be ``inf``.
    """
    if assume_fed:
        with np.errstate(divide="ignore", invalid="ignore"):
            # alloc <= sizes makes the correction nonnegative already
            # (IEEE division of a <= s never rounds above 1), so the
            # max-with-zero of the general branch is an exact no-op.
            fpc = 1.0 - alloc_f / sizes_f
            terms = numerators / alloc_f * fpc
        terms = np.where(active, terms, 0.0)
        if terms.shape[1]:
            return np.cumsum(terms, axis=1)[:, -1]
        return np.zeros(len(terms), dtype=np.float64)
    starved = active & (alloc_f <= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        fpc = np.maximum(0.0, 1.0 - alloc_f / sizes_f)
        terms = numerators / alloc_f * fpc
    terms = np.where(active & ~starved, terms, 0.0)
    if terms.shape[1]:
        out = np.cumsum(terms, axis=1)[:, -1]
    else:
        out = np.zeros(len(terms), dtype=np.float64)
    out[starved.any(axis=1)] = np.inf
    return out


def allocation_variance_batch(
    sizes: np.ndarray,
    variances: np.ndarray,
    alloc: np.ndarray,
) -> np.ndarray:
    """Equation 5 variance for ``B`` allocations at once.

    Strata with nonpositive variance or size ``<= 1`` contribute
    nothing; an unsampled stratum with positive variance makes the row
    ``inf`` (the scalar worst-case semantics).  The sum accumulates
    column by column in stratum order — adding an exact ``0.0`` for
    every skipped stratum — so each row is bit-identical to the
    historical sequential ``zip`` loop.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.ndim != 2:
        raise ValueError(f"sizes must be 2-D (B, L), got {sizes.shape}")
    variances = np.asarray(variances, dtype=np.float64)
    alloc = np.asarray(alloc, dtype=np.float64)
    active = (variances > 0.0) & (sizes > 1.0)
    numerators = sizes * sizes * variances
    return _alloc_variance_core(sizes, numerators, active, alloc)


def samples_needed_batch(
    sizes: np.ndarray,
    variances: np.ndarray,
    targets: np.ndarray,
    floors: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``#Samples`` for ``B`` problems in one vectorized binary search.

    Row ``b`` equals the scalar
    :func:`repro.core.stratification.samples_needed` on row ``b``'s
    inputs: the per-row probe sequence (lo check, hi check, bisection
    midpoints) is identical, each probe running the batched Neyman
    allocation and eq. 5 variance over the rows still searching.  Row
    invariants are prepped once and carried compacted alongside the
    still-active row set, so a probe only does the totals-dependent
    work.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.ndim != 2:
        raise ValueError(f"sizes must be 2-D (B, L), got {sizes.shape}")
    B = sizes.shape[0]
    variances = np.asarray(variances, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    if floors is None:
        floors = np.zeros_like(sizes)
    else:
        floors = np.asarray(floors, dtype=np.int64)
    std_devs = np.sqrt(np.maximum(0.0, variances))
    eff_floors = np.maximum(floors, np.minimum(1, sizes))

    # Probe-invariant row state, kept compacted in lockstep with the
    # set of rows still searching.  Every bisection probe stays inside
    # [lo, hi] = [floors_sum, sizes_sum] and the effective floors feed
    # at least one sample to every stratum of size >= 1, so the cores
    # may skip the totals clamp and the starved-stratum bookkeeping.
    state = {
        "prep": _neyman_prep(sizes, std_devs, eff_floors),
        "targets": targets,
    }
    # The scalar search brackets at [min(max(floors, 1), sizes).sum(),
    # sizes.sum()]; elementwise min(max(f, 1), s) == min(max(f,
    # min(1, s)), s) for integer s >= 0, so both ends are already in
    # the prep.
    lo = state["prep"].floors_sum
    hi = state["prep"].sizes_sum
    sizes_f = state["prep"].sizes_f
    state["numerators"] = sizes_f * sizes_f * variances
    state["active"] = (variances > 0.0) & (sizes_f > 1.0)

    def var_at(totals: np.ndarray) -> np.ndarray:
        alloc = _neyman_core(state["prep"], totals, pre_clamped=True)
        return _alloc_variance_core(
            state["prep"].sizes_f, state["numerators"], state["active"],
            alloc.astype(np.float64), assume_fed=True,
        )

    def compress(keep: np.ndarray) -> None:
        if keep.all():
            return
        p = state["prep"]
        state["prep"] = _NeymanPrep(
            p.sizes[keep], p.sizes_f[keep], p.weights[keep],
            p.wsum_all[keep], p.wsum_nonpos[keep], p.wzero[keep],
            p.worder[keep], p.floors_c[keep], p.floors_sum[keep],
            p.sizes_sum[keep], p.no_degenerate, p.fb_free,
        )
        state["numerators"] = state["numerators"][keep]
        state["active"] = state["active"][keep]
        state["targets"] = state["targets"][keep]

    result = np.empty(B, dtype=np.int64)
    rows = np.arange(B)
    at_lo = var_at(lo) <= targets
    result[at_lo] = lo[at_lo]
    rows = rows[~at_lo]
    compress(~at_lo)
    lo_c = lo[rows]
    hi_c = hi[rows]
    if rows.size:
        # At full sampling every stratum's correction ``1 - n/|WL|``
        # is exactly zero, so with finite eq. 5 numerators the hi-side
        # variance is an exact 0.0 (finite / positive * 0.0): against
        # a nonnegative target the hi check can never trigger and its
        # probe is skipped.
        if (
            np.isfinite(state["numerators"]).all()
            and (targets >= 0.0).all()
        ):
            at_hi = np.zeros(rows.size, dtype=bool)
        else:
            at_hi = var_at(hi_c) > state["targets"]
            result[rows[at_hi]] = hi_c[at_hi]
            keep = ~at_hi
            rows = rows[keep]
            lo_c = lo_c[keep]
            hi_c = hi_c[keep]
            compress(keep)
    # The brackets ride compacted beside the row set; the integer
    # np.where updates write the same midpoints the per-row fancy
    # assignments would.
    while rows.size:
        finished = lo_c >= hi_c
        if finished.any():
            result[rows[finished]] = lo_c[finished]
            keep = ~finished
            rows = rows[keep]
            lo_c = lo_c[keep]
            hi_c = hi_c[keep]
            compress(keep)
            if not rows.size:
                break
        mid = (lo_c + hi_c) // 2
        ok = var_at(mid) <= state["targets"]
        hi_c = np.where(ok, mid, hi_c)
        lo_c = np.where(ok, lo_c, mid + 1)
    return result
