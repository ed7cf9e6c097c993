"""Sampling state and estimators for Independent and Delta sampling.

Implements Section 4 of the paper:

* **Independent Sampling** (§4.1) draws a separate uniform sample per
  configuration and estimates each total cost
  ``X_i = N / |SL_i| * sum Cost(q, C_i)`` (stratified generalization:
  ``X_i = sum_h |WL_h| * mean_h``).
* **Delta Sampling** (§4.2) draws a *single* shared sample, evaluates
  it in every (active) configuration and estimates cost differences
  ``X_{l,j}`` directly, profiting from the positive covariance of query
  costs across configurations.

Bookkeeping is per (configuration, template): templates are the atoms
of every stratification (§5), so stratum-level statistics pool template
accumulators and re-stratification costs nothing — matching the paper's
claim that "all necessary counters and measurements can be maintained
incrementally at constant cost".

Every estimator is a whole-array pass.  Per-template moments live in
dense ``(rows, T)`` arrays; one pass pools them into ``(rows, L)``
stratum moments (row reductions on the contiguous axis, which are the
same pairwise sums as a 1-D reduction of one row) and one more turns
those into stratified totals and variances (accumulated stratum by
stratum, in stratum order).  Delta Sampling keeps its shared sample in
one dense cost store; pairwise difference moments against an anchor
configuration come in two flavors, selected by
``DeltaState(estimator=...)``:

* ``"buffer"`` (exact): a template's difference moments are recomputed
  from the stored costs whenever its aligned length changed.
* ``"welford"`` (incremental): running Welford accumulators fold in
  only the newly aligned draws; they agree with the buffer reduction
  to floating-point accumulation order (~1e-12 relative).

Costs enter through :meth:`DeltaState.ingest_batch` /
:meth:`IndependentState.ingest_batch`, which reject NaN, infinite and
negative costs: an estimate built on them would look confident and be
meaningless.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .sources import CostSource
from .stratification import Stratification

__all__ = [
    "TemplateSampler",
    "MomentGrid",
    "StratumStats",
    "IndependentState",
    "DeltaState",
]


def _reject_bad_costs(
    values: np.ndarray, pair_of: Callable[[int], Tuple[int, int]]
) -> None:
    """Raise ``ValueError`` naming the first NaN, infinite or negative
    cost of a batch; ``pair_of(i)`` maps a batch position to its
    ``(query, config)``."""
    if not values.size or (np.minimum.reduce(values) >= 0.0
                           and np.maximum.reduce(values) < np.inf):
        return
    ok = np.isfinite(values) & (values >= 0.0)
    if not ok.all():
        i = int(np.argmin(ok))
        query, config = pair_of(i)
        raise ValueError(
            f"cost of query {query} in configuration {config} is "
            f"{float(values[i])!r}; costs must be finite and "
            f"non-negative"
        )


class TemplateSampler:
    """Uniform without-replacement sampling from templates and strata.

    Each template's query positions are shuffled once; a cursor walks
    the shuffle.  Drawing from a stratum picks a member template with
    probability proportional to its *remaining* unsampled queries,
    which makes the stratum draw a simple random sample of the stratum
    — and, restricted to any template, a simple random sample of the
    template, so samples survive re-stratification unchanged.

    Cursors and template sizes are dense arrays indexed by template id
    (:meth:`drawn_counts` / :meth:`remaining_counts`), so per-stratum
    counts are one :meth:`Stratification.member_sums` call.
    """

    def __init__(
        self,
        indices_by_template: Dict[int, np.ndarray],
        rng: np.random.Generator,
    ) -> None:
        n = max(indices_by_template, default=-1) + 1
        self._order: Dict[int, np.ndarray] = {}
        self._size = np.zeros(n, dtype=np.int64)
        self._cursor = np.zeros(n, dtype=np.int64)
        for tid, indices in indices_by_template.items():
            self._order[tid] = rng.permutation(np.asarray(indices))
            self._size[tid] = len(self._order[tid])

    def has_template(self, template_id: int) -> bool:
        """Whether this sampler knows the template at all."""
        return template_id in self._order

    def remaining(self, template_id: int) -> int:
        """Unsampled queries left in one template."""
        return int(self._size[template_id] - self._cursor[template_id])

    def drawn(self, template_id: int) -> int:
        """Number of queries drawn so far from one template."""
        return int(self._cursor[template_id])

    def drawn_counts(self) -> np.ndarray:
        """Draws so far per template id (read-only view)."""
        view = self._cursor.view()
        view.flags.writeable = False
        return view

    def remaining_counts(self) -> np.ndarray:
        """Unsampled queries left per template id."""
        return self._size - self._cursor

    def drawn_order(self, template_id: int) -> np.ndarray:
        """The query positions drawn so far, in draw order."""
        return self._order[template_id][: self._cursor[template_id]]

    def mark_drawn(self, template_id: int, n: int) -> int:
        """Advance the cursor by ``n`` draws without reading positions.

        Used when importing samples carried over from a previous
        selector run (warm start): the carried costs stand in for the
        first ``n`` draws of the template, so those positions must be
        consumed to keep the without-replacement accounting (and the
        finite-population corrections downstream) honest.  Returns the
        number of positions actually consumed, clamped to what is
        left.
        """
        if n < 0:
            raise ValueError(f"cannot mark {n} draws")
        consumed = min(n, self.remaining(template_id))
        self._cursor[template_id] += consumed
        return consumed

    def draw_from_template(self, template_id: int) -> Optional[int]:
        """Next unsampled query of a template (``None`` if exhausted)."""
        cur = int(self._cursor[template_id])
        if cur >= len(self._order[template_id]):
            return None
        self._cursor[template_id] = cur + 1
        return int(self._order[template_id][cur])

    def draw_from_stratum(
        self, templates: Sequence[int], rng: np.random.Generator
    ) -> Optional[Tuple[int, int]]:
        """Uniformly draw one unsampled query from a union of templates.

        Returns ``(query_idx, template_id)`` or ``None`` when the
        stratum is exhausted.
        """
        tids = np.asarray(templates, dtype=np.int64)
        weights = (self._size[tids] - self._cursor[tids]).astype(
            np.float64
        )
        total = weights.sum()
        if total <= 0:
            return None
        pick = int(rng.choice(len(tids), p=weights / total))
        tid = int(tids[pick])
        qidx = self.draw_from_template(tid)
        assert qidx is not None
        return qidx, tid

    # ------------------------------------------------------------------
    # checkpoint snapshot/restore
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Dict[str, object]]:
        """JSON-serializable snapshot of every shuffle and cursor.

        Unlike the warm-start export (which carries only costs and
        lets a fresh run re-shuffle), the checkpoint snapshot pins the
        exact permutations, so a resumed run draws the *same queries
        in the same order* as the uninterrupted one.
        """
        return {
            str(t): {
                "order": [int(q) for q in order],
                "cursor": int(self._cursor[t]),
            }
            for t, order in self._order.items()
        }

    def restore_state(self, payload: Dict[str, Dict[str, object]]) -> None:
        """Inverse of :meth:`state_dict`.

        The sampler must cover exactly the checkpointed templates
        (same workload); anything else is a corrupt resume.
        """
        templates = {int(t) for t in payload}
        if templates != set(self._order):
            raise ValueError(
                "checkpoint covers different templates than this "
                "workload"
            )
        for key, entry in payload.items():
            t = int(key)
            order = np.asarray(entry["order"], dtype=np.int64)
            if len(order) != len(self._order[t]):
                raise ValueError(
                    f"template {t} has {len(self._order[t])} queries, "
                    f"checkpoint recorded {len(order)}"
                )
            cursor = int(entry["cursor"])
            if not (0 <= cursor <= len(order)):
                raise ValueError(
                    f"template {t} cursor {cursor} out of range"
                )
            self._order[t] = order
            self._cursor[t] = cursor

    def draw_many(
        self,
        templates: Sequence[int],
        rng: np.random.Generator,
        n: int,
    ) -> List[Tuple[int, int]]:
        """Up to ``n`` consecutive stratum draws (the draw-ahead batch).

        Consumes the generator exactly as ``n`` successive
        :meth:`draw_from_stratum` calls would, so a draw-ahead schedule
        is RNG-identical to the serial one.  Stops early when the
        stratum runs dry; an exhausted attempt consumes no randomness.
        """
        tids = np.asarray(templates, dtype=np.int64)
        out: List[Tuple[int, int]] = []
        for _ in range(n):
            drawn = self.draw_from_stratum(tids, rng)
            if drawn is None:
                break
            out.append(drawn)
        return out


class MomentGrid:
    """Welford accumulators per (configuration, template).

    Stores count / mean / M2 in dense ``(k, T)`` arrays so stratum
    pooling is vectorized across configurations.
    """

    def __init__(self, n_configs: int, n_templates: int) -> None:
        self.count = np.zeros((n_configs, n_templates), dtype=np.int64)
        self.mean = np.zeros((n_configs, n_templates), dtype=np.float64)
        self.m2 = np.zeros((n_configs, n_templates), dtype=np.float64)
        # Flat views: one index per cell instead of a (row, column)
        # pair keeps each gather and scatter of an update to one pass.
        self._width = n_templates
        self._flat = (
            self.count.reshape(-1), self.mean.reshape(-1),
            self.m2.reshape(-1),
        )

    def add(self, config, template, value):
        """Welford update of one value per cell; returns the cells'
        counts before the update.

        ``config``, ``template`` and ``value`` may be aligned (or
        broadcastable) arrays naming distinct cells: every cell then
        takes the same float operations as a scalar update.
        """
        count, mean_, m2 = self._flat
        cells = config * self._width + template
        prev = count[cells]
        n = prev + 1
        count[cells] = n
        mean = mean_[cells]
        delta = value - mean
        mean = mean + delta / n
        mean_[cells] = mean
        m2[cells] = m2[cells] + delta * (value - mean)
        return prev

    def template_counts(self, config: int) -> np.ndarray:
        """Per-template sample counts for one configuration."""
        return self.count[config]


class StratumStats:
    """Pooled per-stratum sample statistics for one configuration."""

    def __init__(
        self, n: np.ndarray, mean: np.ndarray, var: np.ndarray
    ) -> None:
        self.n = n          #: samples per stratum
        self.mean = mean    #: sample mean per stratum
        self.var = var      #: sample variance (s^2) per stratum


# ----------------------------------------------------------------------
# whole-array estimator kernels over (rows, T) per-template moments
# ----------------------------------------------------------------------
def _pool_strata(
    count: np.ndarray, mean: np.ndarray, m2: np.ndarray,
    strat: Stratification,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pool per-template moments into ``(rows, L)`` stratum moments.

    Per stratum: the sample count, the plain sample mean and the exact
    within-stratum sum of squared deviations (0 below two samples).
    Strata without samples get a NaN mean.  Member columns are
    gathered with ``np.take``, so every row reduction runs over a
    contiguous row.
    """
    rows, L = count.shape[0], strat.stratum_count
    n = np.empty((rows, L), dtype=np.int64)
    mu = np.empty((rows, L), dtype=np.float64)
    m2h = np.empty((rows, L), dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for h, tids in enumerate(strat.tid_arrays):
            c = np.take(count, tids, axis=1)
            mt = np.take(mean, tids, axis=1)
            m2t = np.take(m2, tids, axis=1)
            n_h = c.sum(axis=1)
            m_h = (c * mt).sum(axis=1) / n_h
            n[:, h] = n_h
            mu[:, h] = m_h
            m2h[:, h] = (m2t + c * (mt - m_h[:, None]) ** 2).sum(axis=1)
    m2h[n < 2] = 0.0
    return n, mu, m2h


def _overall_variance(
    count: np.ndarray, mean: np.ndarray, m2: np.ndarray
) -> np.ndarray:
    """Per row, the sample variance pooled over all templates (0 below
    two samples) — the stand-in for strata holding a single sample, so
    they never report zero variance."""
    total_n = count.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        overall = (count * mean).sum(axis=1) / total_n
        var = (
            m2 + count * (mean - overall[:, None]) ** 2
        ).sum(axis=1) / (total_n - 1)
    return np.where(total_n >= 2, var, 0.0)


def _stratified(
    n: np.ndarray, mean: np.ndarray, var: np.ndarray, sizes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Stratified totals and their variances (equation 5), per row.

    Strata with no samples contribute the size-weighted average of the
    row's observed stratum means (unbiased fallback only during
    transient states; the selection procedure pilots every new stratum
    before relying on the estimate) and make the variance infinite,
    which prevents premature termination.  Both sums accumulate stratum
    by stratum in stratum order (``cumsum``), starting from ``0.0``.
    """
    sizes = sizes.astype(np.float64)
    observed = n > 0
    partial = np.flatnonzero(~observed.all(axis=1))
    if len(partial):
        mean = mean.copy()
        for r in partial:
            seen = observed[r]
            fallback = (
                float(np.average(mean[r, seen], weights=sizes[seen]))
                if seen.any() else 0.0
            )
            mean[r, ~seen] = fallback
    terms = sizes * mean
    terms[:, 0] += 0.0  # 0.0 + x, as an accumulation from zero starts
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = 1.0 - n / sizes
        fpc = np.where(frac > 0.0, frac, 0.0)
        vterms = sizes * sizes * var / n * fpc
    vterms = np.where(observed & (sizes > 1) & (var > 0), vterms, 0.0)
    total = np.cumsum(terms, axis=1)[:, -1]
    variance = np.cumsum(vterms, axis=1)[:, -1]
    variance[partial] = np.inf
    return total, variance


def _stratum_variances(
    n: np.ndarray, m2h: np.ndarray,
    count: np.ndarray, mean: np.ndarray, m2: np.ndarray,
) -> np.ndarray:
    """``s^2_h = M2_h / (n_h - 1)`` from pooled ``(rows, L)`` moments.

    A stratum holding a single sample takes its row's
    :func:`_overall_variance` over the per-template moments — computed
    only for rows that have one.  Strata without samples are left to
    the caller.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        s2 = m2h / (n - 1)
    single = np.flatnonzero((n == 1).any(axis=1))
    if len(single):
        fallback = _overall_variance(
            count[single], mean[single], m2[single]
        )
        s2[single] = np.where(
            n[single] >= 2, s2[single], fallback[:, None]
        )
    return s2


class IndependentState:
    """Sampling state for Independent Sampling (§4.1).

    Every configuration owns an independent :class:`TemplateSampler`
    (its own shuffles) and its own accumulators; sample sizes per
    configuration may differ.
    """

    def __init__(
        self,
        n_configs: int,
        n_templates: int,
        indices_by_template: Dict[int, np.ndarray],
        rng: np.random.Generator,
    ) -> None:
        self.n_configs = n_configs
        self.n_templates = n_templates
        self.grid = MomentGrid(n_configs, n_templates)
        self.samplers = [
            TemplateSampler(indices_by_template, rng)
            for _ in range(n_configs)
        ]

    def ingest_batch(
        self,
        config: int,
        draws: Sequence[Tuple[int, int]],
        values: Sequence[float],
    ) -> None:
        """Fold one configuration's ``cost_many`` batch in, in draw
        order; NaN, infinite or negative costs raise ``ValueError``."""
        values = np.asarray(values, dtype=np.float64)
        _reject_bad_costs(values, lambda i: (draws[i][0], config))
        for (_qidx, tid), value in zip(draws, values.tolist()):
            self.grid.add(config, tid, value)

    def sample_one(
        self,
        config: int,
        stratum_templates: Sequence[int],
        source: CostSource,
        rng: np.random.Generator,
    ) -> bool:
        """Draw and evaluate one query for ``config`` from a stratum.

        Returns ``False`` when the stratum is exhausted for this
        configuration.
        """
        drawn = self.samplers[config].draw_from_stratum(
            stratum_templates, rng
        )
        if drawn is None:
            return False
        self.ingest_batch(config, [drawn], [source.cost(drawn[0], config)])
        return True

    def sample_count(self, config: int) -> int:
        """Total queries sampled for one configuration."""
        return int(self.grid.count[config].sum())

    def stratum_stats(
        self, config: int, strat: Stratification
    ) -> StratumStats:
        """Pooled per-stratum statistics for one configuration.

        Strata without samples report a NaN mean and infinite variance.
        """
        row = slice(config, config + 1)
        count = self.grid.count[row]
        mean = self.grid.mean[row]
        m2 = self.grid.m2[row]
        n, mu, m2h = _pool_strata(count, mean, m2, strat)
        var = _stratum_variances(n, m2h, count, mean, m2)
        var[n == 0] = np.inf
        return StratumStats(n[0], mu[0], var[0])

    def estimate(
        self, config: int, strat: Stratification
    ) -> Tuple[float, float]:
        """``(X_i, Var(X_i))`` under the given stratification."""
        stats = self.stratum_stats(config, strat)
        total, variance = _stratified(
            stats.n[None], stats.mean[None], stats.var[None], strat.sizes
        )
        return float(total[0]), float(variance[0])

    # ------------------------------------------------------------------
    # checkpoint snapshot/restore (exact, including sampler shuffles)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable exact snapshot for mid-run checkpoints.

        Captures the per-configuration sampler shuffles/cursors and
        the raw Welford moments; :meth:`restore_state` reproduces the
        state bit for bit (floats round-trip exactly through JSON's
        shortest-repr encoding).
        """
        touched = [
            t for t in range(self.n_templates)
            if self.grid.count[:, t].any()
        ]
        return {
            "samplers": [s.state_dict() for s in self.samplers],
            "moments": {
                str(t): [
                    [
                        int(self.grid.count[c, t]),
                        float(self.grid.mean[c, t]),
                        float(self.grid.m2[c, t]),
                    ]
                    for c in range(self.n_configs)
                ]
                for t in touched
            },
        }

    def restore_state(self, payload: dict) -> None:
        """Inverse of :meth:`state_dict`; requires a fresh state."""
        if self.grid.count.any():
            raise RuntimeError(
                "restore_state requires a state with no samples"
            )
        samplers = payload["samplers"]
        if len(samplers) != self.n_configs:
            raise ValueError(
                f"checkpoint carries {len(samplers)} samplers for "
                f"{self.n_configs} configurations"
            )
        for key, per_config in payload["moments"].items():
            t = int(key)
            if len(per_config) != self.n_configs:
                raise ValueError(
                    f"template {t} carries {len(per_config)} "
                    f"configurations, expected {self.n_configs}"
                )
            for c, (count, mean, m2) in enumerate(per_config):
                self.grid.count[c, t] = int(count)
                self.grid.mean[c, t] = float(mean)
                self.grid.m2[c, t] = float(m2)
        for sampler, state in zip(self.samplers, samplers):
            sampler.restore_state(state)

    # ------------------------------------------------------------------
    # warm-start snapshot/restore
    # ------------------------------------------------------------------
    def export_moments(self) -> Dict[int, List[Tuple[int, float, float]]]:
        """Per-template ``(count, mean, M2)`` per configuration.

        Only templates with at least one sample in any configuration
        are included.
        """
        out: Dict[int, List[Tuple[int, float, float]]] = {}
        for t in range(self.n_templates):
            if not self.grid.count[:, t].any():
                continue
            out[t] = [
                (
                    int(self.grid.count[c, t]),
                    float(self.grid.mean[c, t]),
                    float(self.grid.m2[c, t]),
                )
                for c in range(self.n_configs)
            ]
        return out

    def import_moments(
        self, moments: Dict[int, List[Tuple[int, float, float]]]
    ) -> int:
        """Seed accumulators with moments from a previous run.

        Must be called before any sampling.  Templates unknown to the
        current workload are skipped; carried counts are clamped to
        the template's population in the current workload (preserving
        the sample variance) so the finite-population correction never
        sees more samples than queries.  Returns the number of carried
        samples (summed over configurations).
        """
        carried = 0
        for t, per_config in moments.items():
            if len(per_config) != self.n_configs:
                raise ValueError(
                    f"template {t} carries {len(per_config)} "
                    f"configurations, expected {self.n_configs}"
                )
            for c, (count, mean, m2) in enumerate(per_config):
                if count <= 0:
                    continue
                if not self.samplers[c].has_template(t):
                    continue
                kept = self.samplers[c].mark_drawn(t, count)
                if kept == 0:
                    continue
                if kept < count and count >= 2:
                    # Clamp the count but keep s^2 = M2/(n-1) invariant.
                    m2 = m2 / (count - 1) * max(0, kept - 1)
                self.grid.count[c, t] = kept
                self.grid.mean[c, t] = mean
                self.grid.m2[c, t] = m2 if kept >= 2 else 0.0
                carried += kept
        return carried


class _PairMoments:
    """Per-template difference moments of every pair against one anchor.

    Row ``j`` of the dense ``(k, T)`` arrays holds the pair
    ``(anchor, j)`` in its *canonical* direction ``lo - hi`` with
    ``lo < hi``; the anchor's own row stays empty.  ``version`` is the
    store version the rows were last caught up to.
    """

    __slots__ = ("count", "mean", "m2", "version")

    def __init__(self, n_configs: int, n_templates: int) -> None:
        self.count = np.zeros((n_configs, n_templates), dtype=np.int64)
        self.mean = np.zeros((n_configs, n_templates), dtype=np.float64)
        self.m2 = np.zeros((n_configs, n_templates), dtype=np.float64)
        self.version = -1


#: Columns the dense cost store starts with, and slots per template in
#: its position index; both double when full.
_INITIAL_CAPACITY = 64
_INITIAL_SLOTS = 8


class DeltaState:
    """Sampling state for Delta Sampling (§4.2): one dense store.

    One shared sample; every drawn query is evaluated in all *active*
    configurations.  Costs live in a ``(k, capacity)`` float64 array
    whose capacity doubles when full.  Each draw of template ``t``
    appends one column to ``t``'s slot index; a configuration's
    ``i``-th evaluated draw of ``t`` sits in column ``_slots[t, i]``,
    so its first ``grid.count[c, t]`` slots are its aligned prefix (the
    shared draw order for a configuration that was active throughout;
    one that is eliminated and later rejoins as best continues its own
    slots, as its cost list did before).
    The per-(configuration, template) Welford grid serves the totals;
    difference moments against an anchor are caught up lazily from the
    store and pooled for all pairs at once.

    Parameters
    ----------
    estimator:
        ``"buffer"`` (default) recomputes a template's difference
        moments from the stored costs whenever its aligned length
        changed.  ``"welford"`` folds each newly aligned draw into
        running accumulators — agreeing with the buffer reduction to
        floating-point accumulation order.
    """

    def __init__(
        self,
        n_configs: int,
        n_templates: int,
        indices_by_template: Dict[int, np.ndarray],
        rng: np.random.Generator,
        estimator: str = "buffer",
    ) -> None:
        if estimator not in ("buffer", "welford"):
            raise ValueError(f"unknown estimator mode {estimator!r}")
        self.estimator = estimator
        self.n_configs = n_configs
        self.n_templates = n_templates
        self.grid = MomentGrid(n_configs, n_templates)
        self.sampler = TemplateSampler(indices_by_template, rng)
        self._costs = np.full((n_configs, _INITIAL_CAPACITY), np.nan)
        self._columns = 0
        #: ``_slots[t, i]`` is the column of template ``t``'s i-th draw.
        self._slots = np.zeros((n_templates, _INITIAL_SLOTS),
                               dtype=np.int64)
        self._slot_count = [0] * n_templates
        #: Bumped by every ingest; memoized passes are keyed by it.
        self._version = 0
        self._anchors: Dict[int, _PairMoments] = {}
        self._totals_memo: Optional[Tuple] = None
        self._pairs_memo: Optional[Tuple] = None

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def _new_columns(self, tids: Sequence[int]) -> None:
        """One fresh column per draw, appended to its template's slots
        in draw order."""
        start = self._columns
        end = start + len(tids)
        if end > self._costs.shape[1]:
            grown = np.full(
                (self.n_configs, max(end, 2 * self._costs.shape[1])),
                np.nan,
            )
            grown[:, :start] = self._costs[:, :start]
            self._costs = grown
        self._columns = end
        used = self._slot_count
        slots = self._slots
        width = slots.shape[1]
        for col, t in enumerate(tids, start):
            i = used[t]
            if i == width:
                width *= 2
                grown = np.zeros((self.n_templates, width), dtype=np.int64)
                grown[:, :i] = slots
                self._slots = slots = grown
            slots[t, i] = col
            used[t] = i + 1

    def _append(self, configs, tids, values) -> None:
        """Store each value in its configuration's next slot of its
        template and fold it into the grid (distinct cells)."""
        prev = self.grid.add(configs, tids, values)
        self._costs[configs, self._slots[tids, prev]] = values

    def ingest_batch(
        self,
        draws: Sequence[Tuple[int, int]],
        active_configs: Sequence[int],
        values,
    ) -> None:
        """Fold a ``cost_many`` batch in.

        ``values`` is laid out query-major: the active configurations'
        costs of the first draw, then of the second, and so on.  The
        whole batch is checked first — a NaN, infinite or negative cost
        raises ``ValueError`` naming its ``(query, config)`` pair and
        nothing is ingested.  Draws of distinct templates fold in
        together; a template drawn again within the batch folds in
        draw order, so every grid cell sees its values in the serial
        order.
        """
        configs = np.asarray(active_configs, dtype=np.int64)
        k_a = len(configs)
        values = np.asarray(values, dtype=np.float64)
        _reject_bad_costs(
            values,
            lambda i: (draws[i // k_a][0], int(configs[i % k_a])),
        )
        values = values.reshape(len(draws), k_a)
        tids = [t for _q, t in draws]
        self._new_columns(tids)
        # Wave w holds each template's w-th draw of the batch.
        waves: List[List[int]] = []
        seen: Dict[int, int] = {}
        for d, t in enumerate(tids):
            w = seen.get(t, 0)
            seen[t] = w + 1
            if w == len(waves):
                waves.append([])
            waves[w].append(d)
        tids = np.asarray(tids)
        for rows in waves:
            rows = np.asarray(rows)
            self._append(configs, tids[rows][:, None], values[rows])
        self._version += 1

    def ingest(
        self,
        qidx: int,
        tid: int,
        active_configs: Sequence[int],
        values: Sequence[float],
    ) -> None:
        """Fold one drawn query's per-config costs into the state.

        ``values`` is aligned with ``active_configs``.
        """
        self.ingest_batch([(qidx, tid)], active_configs, values)

    def sample_one(
        self,
        stratum_templates: Sequence[int],
        source: CostSource,
        rng: np.random.Generator,
        active_configs: Sequence[int],
    ) -> bool:
        """Draw one shared query and evaluate it in all active configs.

        Returns ``False`` when the stratum is exhausted.
        """
        drawn = self.sampler.draw_from_stratum(stratum_templates, rng)
        if drawn is None:
            return False
        qidx, tid = drawn
        self.ingest(
            qidx, tid, active_configs,
            [source.cost(qidx, c) for c in active_configs],
        )
        return True

    def sample_count(self) -> int:
        """Total shared queries sampled so far."""
        return int(self.sampler.drawn_counts().sum())

    def _load(
        self, items: Sequence[Tuple[int, Sequence[Sequence[float]], int]]
    ) -> int:
        """Seed templates with per-configuration cost lists.

        ``items`` holds ``(template, per_config, shared)``: each list is
        cut to ``shared`` values, the template gets ``shared`` columns,
        and every cell replays its values through the grid in order
        (the i-th values of all cells fold in together).  Returns the
        number of values loaded.
        """
        cells = [
            (c, t, values[:shared])
            for t, per_config, shared in items
            for c, values in enumerate(per_config)
            if len(values) and shared
        ]
        self._new_columns(
            [t for t, _per_config, shared in items for _ in range(shared)]
        )
        if not cells:
            return 0
        lengths = np.array([len(v) for _c, _t, v in cells])
        rows = np.array([c for c, _t, _v in cells], dtype=np.int64)
        cols = np.array([t for _c, t, _v in cells], dtype=np.int64)
        padded = np.full((len(cells), int(lengths.max())), np.nan)
        for i, (_c, _t, values) in enumerate(cells):
            padded[i, :len(values)] = values
        for i in range(padded.shape[1]):
            live = lengths > i
            self._append(rows[live], cols[live], padded[live, i])
        self._version += 1
        return int(lengths.sum())

    def _aligned_costs(self, config: int, template: int) -> List[float]:
        """A configuration's costs of a template, in its slot order."""
        n = int(self.grid.count[config, template])
        return self._costs[config, self._slots[template, :n]].tolist()

    def _touched(self) -> List[int]:
        """Templates holding at least one draw, ascending."""
        return [t for t, used in enumerate(self._slot_count) if used]

    # ------------------------------------------------------------------
    # checkpoint snapshot/restore (exact, including sampler shuffle)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable exact snapshot for mid-run checkpoints.

        Captures the shared sampler's shuffles/cursors plus every
        configuration's costs per template in slot order.
        :meth:`restore_state` replays them through the same per-cell
        Welford updates the original ingestion performed — each grid
        cell sees its values in the same order, so every accumulator
        is restored bit for bit; the lazily rebuilt pairwise moments
        then reproduce identical floats in both estimator modes.
        """
        return {
            "sampler": self.sampler.state_dict(),
            "values": {
                str(t): [
                    self._aligned_costs(c, t)
                    for c in range(self.n_configs)
                ]
                for t in self._touched()
            },
        }

    def restore_state(self, payload: dict) -> None:
        """Inverse of :meth:`state_dict`; requires a fresh state."""
        if self._columns:
            raise RuntimeError(
                "restore_state requires a state with no samples"
            )
        items = []
        for key, per_config in payload["values"].items():
            t = int(key)
            if len(per_config) != self.n_configs:
                raise ValueError(
                    f"template {t} carries {len(per_config)} "
                    f"configurations, expected {self.n_configs}"
                )
            items.append(
                (t, per_config, max((len(v) for v in per_config),
                                    default=0))
            )
        self._load(items)
        self.sampler.restore_state(payload["sampler"])

    # ------------------------------------------------------------------
    # warm-start snapshot/restore
    # ------------------------------------------------------------------
    def export_samples(self) -> Dict[int, List[List[float]]]:
        """Per-template cost lists, per configuration.

        ``{template_id: [costs_of_config_0, costs_of_config_1, ...]}``
        where each inner list follows the shared draw order (shorter
        for configurations eliminated mid-run).  Only touched
        templates are included.
        """
        return {
            t: [self._aligned_costs(c, t) for c in range(self.n_configs)]
            for t in self._touched()
        }

    def import_samples(
        self, samples: Dict[int, List[List[float]]]
    ) -> int:
        """Seed the store with a previous run's samples.

        Must be called before any sampling.  For each template the
        carried costs stand in for the first draws of the (fresh)
        shared permutation — valid because both the carried sample and
        the permutation prefix are uniform without-replacement samples
        of the template.  Carried draws are clamped to the template's
        population in the current workload.  Templates unknown to the
        current workload are skipped.  Returns the number of carried
        samples (summed over configurations).
        """
        items = []
        for t, per_config in samples.items():
            if len(per_config) != self.n_configs:
                raise ValueError(
                    f"template {t} carries {len(per_config)} "
                    f"configurations, expected {self.n_configs}"
                )
            if not self.sampler.has_template(t):
                continue
            shared = max((len(v) for v in per_config), default=0)
            items.append((t, per_config, self.sampler.mark_drawn(t, shared)))
        return self._load(items)

    # ------------------------------------------------------------------
    # whole-array estimators
    # ------------------------------------------------------------------
    def totals(
        self, strat: Stratification
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stratified ``(X_i, Var(X_i))`` of every configuration — one
        ``(k, L)`` pass over the grid, memoized until the next ingest."""
        memo = self._totals_memo
        if memo is not None and memo[0] is strat \
                and memo[1] == self._version:
            return memo[2]
        g = self.grid
        n, mu, m2h = _pool_strata(g.count, g.mean, g.m2, strat)
        var = _stratum_variances(n, m2h, g.count, g.mean, g.m2)
        out = _stratified(n, mu, var, strat.sizes)
        self._totals_memo = (strat, self._version, out)
        return out

    def estimate_total(
        self, config: int, strat: Stratification
    ) -> Tuple[float, float]:
        """Stratified ``(X_i, Var(X_i))`` from the shared sample."""
        totals, variances = self.totals(strat)
        return float(totals[config]), float(variances[config])

    def _diffs(self, anchor: int, rows: np.ndarray, template: int,
               lo: int, hi: int) -> np.ndarray:
        """Canonical-direction cost differences of the pairs
        ``(anchor, rows)`` over slots ``lo:hi`` of a template."""
        cols = self._slots[template, lo:hi]
        a = self._costs[anchor, cols]
        b = self._costs[rows[:, None], cols]
        return np.where((rows > anchor)[:, None], a - b, b - a)

    def _recompute(self, pm: _PairMoments, anchor: int, template: int,
                   rows: np.ndarray, new: np.ndarray) -> None:
        """Buffer mode: reduce each pair's whole aligned prefix."""
        for m in np.unique(new).tolist():
            r = rows[new == m]
            diff = self._diffs(anchor, r, template, 0, m)
            mu = diff.mean(axis=1)
            pm.count[r, template] = m
            pm.mean[r, template] = mu
            pm.m2[r, template] = (
                ((diff - mu[:, None]) ** 2).sum(axis=1) if m >= 2 else 0.0
            )

    def _fold(self, pm: _PairMoments, anchor: int, template: int,
              rows: np.ndarray, new: np.ndarray) -> None:
        """Welford mode: fold the newly aligned draws in, slot by slot."""
        start = pm.count[rows, template]
        lo, hi = int(start.min()), int(new.max())
        diff = self._diffs(anchor, rows, template, lo, hi)
        n = start.copy()
        mean = pm.mean[rows, template]
        m2 = pm.m2[rows, template]
        ragged = not ((start == lo).all() and (new == hi).all())
        with np.errstate(invalid="ignore"):
            for i in range(lo, hi):
                d = diff[:, i - lo]
                n1 = n + 1
                delta = d - mean
                mean1 = mean + delta / n1
                m21 = m2 + delta * (d - mean1)
                if ragged:
                    live = (start <= i) & (i < new)
                    n1 = np.where(live, n1, n)
                    mean1 = np.where(live, mean1, mean)
                    m21 = np.where(live, m21, m2)
                n, mean, m2 = n1, mean1, m21
        pm.count[rows, template] = n
        pm.mean[rows, template] = mean
        pm.m2[rows, template] = m2

    def _pair_moments(self, anchor: int) -> _PairMoments:
        """The anchor's per-template pair moments, caught up.

        A pair's changed templates are those where its aligned length
        ``min(count[anchor], count[j])`` moved since the last catch-up;
        only those are revisited.
        """
        pm = self._anchors.get(anchor)
        if pm is None:
            pm = self._anchors[anchor] = _PairMoments(
                self.n_configs, self.n_templates
            )
        if pm.version == self._version:
            return pm
        count = self.grid.count
        aligned = np.minimum(count[anchor], count)
        aligned[anchor] = 0
        changed = aligned != pm.count
        advance = self._recompute if self.estimator == "buffer" \
            else self._fold
        for t in np.flatnonzero(changed.any(axis=0)).tolist():
            rows = np.flatnonzero(changed[:, t])
            advance(pm, anchor, t, rows, aligned[rows, t])
        pm.version = self._version
        return pm

    def _pairs(self, anchor: int, strat: Stratification) -> Tuple:
        """``(others, n, mean, m2h, (count, mean, m2))`` of every pair
        ``(anchor, j)``, memoized until the next ingest; the last item
        holds the pairs' canonical per-template rows."""
        memo = self._pairs_memo
        if memo is not None and memo[0] == anchor and memo[1] is strat \
                and memo[2] == self._version:
            return memo[3]
        pm = self._pair_moments(anchor)
        others = np.delete(np.arange(self.n_configs), anchor)
        rows = (pm.count[others], pm.mean[others], pm.m2[others])
        n, mu, m2h = _pool_strata(*rows, strat)
        mu = np.where((others < anchor)[:, None], -mu, mu)
        mu = np.where(n > 0, mu, 0.0)
        out = (others, n, mu, m2h, rows)
        self._pairs_memo = (anchor, strat, self._version, out)
        return out

    def pair_moments(
        self, anchor: int, strat: Stratification
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every pair ``(anchor, j)`` at once, ``j`` ascending.

        Returns ``(others, n, mean, m2)``: the ``P = k - 1`` other
        configurations and their ``(P, L)`` pooled stratum moments of
        ``Cost(q, C_anchor) - Cost(q, C_j)`` over the aligned samples
        (``mean`` in that direction, zero where a stratum has no
        aligned sample; ``M2`` is direction-free).  Memoized until the
        next ingest.
        """
        return self._pairs(anchor, strat)[:4]

    def pair_estimates(
        self, anchor: int, strat: Stratification
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(others, X_{anchor,j}, Var(X_{anchor,j}))`` for every pair.

        ``X_{anchor,j}`` estimates ``Cost(WL,C_anchor) - Cost(WL,C_j)``;
        negative means the anchor looks better.
        """
        others, n, mean, m2h, rows = self._pairs(anchor, strat)
        est, var = _stratified(
            n, mean, _stratum_variances(n, m2h, *rows), strat.sizes
        )
        return others, est, var

    def _row(self, l: int, j: int) -> int:
        if l == j:
            raise ValueError(f"pair ({l}, {j}) compares a configuration "
                             "with itself")
        return j if j < l else j - 1

    def pair_estimate(
        self, l: int, j: int, strat: Stratification
    ) -> Tuple[float, float]:
        """``(X_{l,j}, Var(X_{l,j}))`` under the given stratification.

        ``X_{l,j}`` estimates ``Cost(WL,C_l) - Cost(WL,C_j)``; negative
        means ``C_l`` looks better.
        """
        _others, est, var = self.pair_estimates(l, strat)
        row = self._row(l, j)
        return float(est[row]), float(var[row])

    def pair_stratum_moments(
        self, l: int, j: int, strat: Stratification
    ) -> List[Tuple[int, float, float]]:
        """Pooled ``(n_h, mean_h, M2_h)`` of the pair per stratum.

        ``mean_h`` follows the ``l - j`` direction; ``M2_h`` is
        direction-free.
        """
        _others, n, mean, m2h = self.pair_moments(l, strat)
        row = self._row(l, j)
        return list(zip(n[row].tolist(), mean[row].tolist(),
                        m2h[row].tolist()))

    def diff_template_moments(
        self, l: int, j: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-template ``(count, mean, M2)`` of ``Cost(q,C_l)-Cost(q,C_j)``.

        Uses the aligned prefix both configurations have evaluated.
        The returned arrays are views maintained by the state — treat
        them as read-only.
        """
        pm = self._pair_moments(l)
        if j < l:
            return pm.count[j], -pm.mean[j], pm.m2[j]
        return pm.count[j], pm.mean[j], pm.m2[j]
