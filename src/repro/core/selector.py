"""The configuration-selection procedure (Algorithm 1 of the paper).

Given a cost source over a workload and ``k`` candidate configurations,
:class:`ConfigurationSelector` incrementally samples queries, estimates
the probability of correct selection after each round and terminates
once the target probability ``alpha`` holds (for a configurable number
of consecutive samples, guarding against oscillation — Section 7.2).

Two sampling schemes (§4) and three stratification modes (§5) are
supported:

==================  ====================================================
``scheme``          ``"independent"`` or ``"delta"``
``stratify``        ``"progressive"`` (Algorithm 2), ``"none"``, or
                    ``"fine"`` (one stratum per template up front —
                    the strawman of Figure 2)
==================  ====================================================

Configurations whose pairwise ``Pr(CS_{l,j})`` exceeds an elimination
threshold are dropped from further sampling (the large-``k``
optimization of §5); they keep contributing their frozen estimates to
the Bonferroni combination.

Budgets are measured in *optimizer calls* — the unit the paper
minimizes.  One Delta-Sampling draw costs one call per active
configuration; one Independent-Sampling draw costs one call.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .allocation import (
    DeltaStratumScorer,
    batch_multiplier,
    pick_delta_stratum,
    variance_reduction_many,
)
from .checkpoint import (
    load_checkpoint,
    restore_rng,
    rng_state,
    save_checkpoint,
)
from .estimators import DeltaState, IndependentState
from .prcs import (
    bonferroni,
    pair_target_variance,
    pairwise_prcs_many,
    per_pair_alpha,
)
from .progressive import propose_split, propose_split_reference
from .sources import CostSource
from .stratification import Stratification

__all__ = [
    "SelectorOptions",
    "SelectionResult",
    "SelectorState",
    "ConfigurationSelector",
]


def _jsonify_options(options: "SelectorOptions") -> dict:
    """Options as the plain dict a JSON checkpoint round-trips.

    Every field is a scalar (int/float/str/None), all of which
    round-trip exactly through JSON, so dict equality doubles as an
    options-compatibility check on resume.
    """
    return asdict(options)


class _PairStats(NamedTuple):
    """Every pair ``(best, j)`` of one evaluation round, ``j`` ascending.

    ``mean`` estimates ``Cost(WL, C_best) - Cost(WL, C_j)`` (negative
    while ``best`` looks better), ``var`` its variance and ``prcs`` the
    pair's ``Pr(CS_{best,j})``.
    """

    others: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    prcs: np.ndarray


def _pair_stats(others: np.ndarray, mean: np.ndarray, var: np.ndarray,
                delta: float) -> _PairStats:
    return _PairStats(
        others, mean, var, pairwise_prcs_many(-mean, var, delta)
    )


class _HeldPairs:
    """Pair estimates of eliminated configurations, held per round key.

    An eliminated configuration stops sampling, so the first estimate
    of its pair with ``best`` under one ``(best, stratification
    version)`` key is held and reused until the key changes — also
    when the pair's aligned samples still grow meanwhile (a best whose
    carried warm-start lists are shorter keeps extending the pair).
    Selection decisions depend on the held values, so they are kept.
    """

    def __init__(self, n_configs: int) -> None:
        self.key: Optional[Tuple[int, int]] = None
        self.held = np.zeros(n_configs, dtype=bool)
        self.mean = np.zeros(n_configs)
        self.var = np.zeros(n_configs)

    def apply(self, key: Tuple[int, int], others: np.ndarray,
              mean: np.ndarray, var: np.ndarray,
              inactive: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if key != self.key:
            self.key = key
            self.held[:] = False
        held = self.held[others]
        use = inactive & held
        mean = np.where(use, self.mean[others], mean)
        var = np.where(use, self.var[others], var)
        store = inactive & ~held
        fresh = others[store]
        self.mean[fresh] = mean[store]
        self.var[fresh] = var[store]
        self.held[fresh] = True
        return mean, var


class _NullTimer:
    """No-op stand-in for :class:`repro.experiments.profiling.PhaseTimer`.

    The selector times its round phases (plan/draw/cost/ingest/
    evaluate) through whatever object with a ``phase(name)`` context
    manager it is given; without one, timing costs nothing.
    """

    def phase(self, name: str):
        return nullcontext()


@dataclass
class SelectorState:
    """Portable snapshot of a selector's estimator state.

    Produced by :meth:`ConfigurationSelector.export_state` after a run
    and consumed via the ``warm_state`` constructor argument of a
    later selector over the *same candidate configurations* (possibly
    a different workload window sharing the template registry).  Two
    uses:

    * **Warm-started re-selection** — the online tuning service
      carries still-valid per-template cost samples from the previous
      run forward, so only templates whose mix changed need fresh
      optimizer calls (:mod:`repro.service.session`).
    * **Checkpointing** — :meth:`to_dict` / :meth:`from_dict` are
      JSON-round-trippable, so long selections can be snapshotted and
      resumed across processes.

    The payload depends on the scheme: Delta Sampling stores the
    aligned per-template cost buffers (``values``); Independent
    Sampling stores per-(configuration, template) Welford moments
    (``moments``).
    """

    scheme: str
    n_configs: int
    #: Delta: ``{template_id: [per-config aligned cost lists]}``.
    values: Dict[int, List[List[float]]] = field(default_factory=dict)
    #: Independent: ``{template_id: [(count, mean, M2) per config]}``.
    moments: Dict[int, List[Tuple[int, float, float]]] = field(
        default_factory=dict
    )
    #: The run's final stratification (template-id groups).  A warm
    #: run resumes from these groups: carried per-template counts are
    #: proportional *within* them (that is the stratification they
    #: were drawn under), which keeps the count-weighted stratum means
    #: unbiased.  Pooling carried templates any other way would not be.
    strata: Optional[List[List[int]]] = None

    def sample_count(self) -> int:
        """Total carried samples, summed over configurations."""
        if self.scheme == "delta":
            return sum(
                len(v) for cfgs in self.values.values() for v in cfgs
            )
        return sum(
            int(c) for cfgs in self.moments.values() for c, _m, _s in cfgs
        )

    def template_ids(self) -> Tuple[int, ...]:
        """Templates with carried state, ascending."""
        store = self.values if self.scheme == "delta" else self.moments
        return tuple(sorted(store))

    def template_counts(self, reduce: str = "max") -> Dict[int, int]:
        """Carried samples per template, aggregated over configurations.

        ``reduce="max"`` suits Delta Sampling (shared draws, so active
        configurations hold equally many); ``"min"`` is the
        conservative choice for Independent Sampling, where every
        configuration samples on its own.
        """
        agg = max if reduce == "max" else min
        if self.scheme == "delta":
            return {
                t: agg((len(v) for v in cfgs), default=0)
                for t, cfgs in self.values.items()
            }
        return {
            t: agg((int(c) for c, _m, _s in cfgs), default=0)
            for t, cfgs in self.moments.items()
        }

    def drop_templates(self, template_ids) -> "SelectorState":
        """A copy without the given templates (to force resampling)."""
        drop = set(int(t) for t in template_ids)
        strata = None
        if self.strata is not None:
            strata = [
                kept for kept in (
                    [t for t in group if t not in drop]
                    for group in self.strata
                ) if kept
            ]
        return SelectorState(
            scheme=self.scheme,
            n_configs=self.n_configs,
            values={
                t: [list(v) for v in cfgs]
                for t, cfgs in self.values.items() if t not in drop
            },
            moments={
                t: [tuple(m) for m in cfgs]
                for t, cfgs in self.moments.items() if t not in drop
            },
            strata=strata,
        )

    def to_dict(self) -> dict:
        """JSON-serializable snapshot."""
        return {
            "scheme": self.scheme,
            "n_configs": self.n_configs,
            "values": {
                str(t): [[float(x) for x in v] for v in cfgs]
                for t, cfgs in self.values.items()
            },
            "moments": {
                str(t): [
                    [int(c), float(m), float(s)] for c, m, s in cfgs
                ]
                for t, cfgs in self.moments.items()
            },
            "strata": (
                None if self.strata is None
                else [[int(t) for t in group] for group in self.strata]
            ),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SelectorState":
        """Inverse of :meth:`to_dict`."""
        return cls(
            scheme=str(payload["scheme"]),
            n_configs=int(payload["n_configs"]),
            values={
                int(t): [[float(x) for x in v] for v in cfgs]
                for t, cfgs in payload.get("values", {}).items()
            },
            moments={
                int(t): [
                    (int(c), float(m), float(s)) for c, m, s in cfgs
                ]
                for t, cfgs in payload.get("moments", {}).items()
            },
            strata=(
                None if payload.get("strata") is None
                else [
                    [int(t) for t in group]
                    for group in payload["strata"]
                ]
            ),
        )


@dataclass(frozen=True)
class SelectorOptions:
    """Tunables of the selection procedure.

    Attributes
    ----------
    alpha:
        Target probability of correct selection.
    delta:
        Sensitivity: cost differences below ``delta`` never count as
        incorrect selections (expressed in absolute cost units).
    scheme:
        ``"delta"`` (default, §4.2) or ``"independent"`` (§4.1).
    stratify:
        ``"progressive"`` (default), ``"none"`` or ``"fine"``.
    n_min:
        Pilot/minimum stratum sample size (the paper's rule of thumb
        is 30).
    consecutive:
        The termination condition must hold for this many consecutive
        samples (§7.2 uses 10).
    eliminate:
        Drop configurations once their pairwise probability exceeds
        ``elimination_threshold``.
    elimination_threshold:
        Pairwise ``Pr(CS_{l,j})`` beyond which ``C_j`` stops being
        sampled (§7.2 uses 0.995).
    max_calls:
        Optional hard budget of optimizer calls; ``None`` means run to
        termination (bounded by full evaluation).
    reeval_every:
        Recompute estimates/allocation every this many draws (1
        reproduces the paper exactly; larger values trade a slightly
        stale allocation for speed in Monte Carlo runs).
    split_check_every:
        How often (in draws) Algorithm 2 is consulted.
    batch_rounds:
        Maximum number of variance-greedy allocation rounds coalesced
        into one draw-ahead batch (drawn, costed via
        ``CostSource.cost_many`` and ingested together, with a single
        termination/elimination/split re-check per batch).  ``1`` (the
        default) disables coalescing and is bit-identical to the
        serial schedule under a fixed seed.
    batch_growth:
        Geometric growth factor of the batch size: each batch plans up
        to ``ceil(previous * batch_growth)`` rounds (clamped by
        ``batch_rounds`` and the call tolerance).  Must be >= 1.
    batch_call_tolerance:
        Bound on the optimizer calls batching may spend beyond the
        serial schedule: a batch's rounds past its first may cost at
        most this fraction of the calls already spent, so PRCS is
        re-checked often enough that termination overshoot stays
        within tolerance.
    estimator:
        Pairwise difference estimator mode for Delta Sampling:
        ``"buffer"`` (exact aligned-buffer reductions), ``"welford"``
        (incremental accumulators, O(1) per ingested sample), or
        ``"auto"`` (default — ``"buffer"`` when ``batch_rounds == 1``
        so serial runs stay bit-identical, ``"welford"`` otherwise).
    split_scoring:
        Algorithm 2 split-search implementation: ``"incremental"``
        (default — count-stamped per-stratum prefix-sum aggregates,
        all cuts scored through one batched ``#Samples`` search) or
        ``"reference"`` (the historical per-cut recompute, kept for
        parity testing and benchmarking).  Both produce the same
        decisions on the pinned scenarios (golden fixture).
    """

    alpha: float = 0.9
    delta: float = 0.0
    scheme: str = "delta"
    stratify: str = "progressive"
    n_min: int = 30
    consecutive: int = 10
    eliminate: bool = True
    elimination_threshold: float = 0.995
    max_calls: Optional[int] = None
    reeval_every: int = 1
    split_check_every: int = 1
    batch_rounds: int = 1
    batch_growth: float = 2.0
    batch_call_tolerance: float = 0.05
    estimator: str = "auto"
    split_scoring: str = "incremental"

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.scheme not in ("delta", "independent"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.stratify not in ("progressive", "none", "fine"):
            raise ValueError(f"unknown stratify mode {self.stratify!r}")
        if self.n_min < 2:
            raise ValueError(f"n_min must be >= 2, got {self.n_min}")
        if self.reeval_every < 1:
            raise ValueError(
                f"reeval_every must be >= 1, got {self.reeval_every}"
            )
        if self.split_check_every < 1:
            raise ValueError(
                f"split_check_every must be >= 1, got "
                f"{self.split_check_every}"
            )
        if self.batch_rounds < 1:
            raise ValueError(
                f"batch_rounds must be >= 1, got {self.batch_rounds}"
            )
        if not self.batch_growth >= 1.0:
            raise ValueError(
                f"batch_growth must be >= 1, got {self.batch_growth}"
            )
        if not self.batch_call_tolerance >= 0.0:
            raise ValueError(
                f"batch_call_tolerance must be >= 0, got "
                f"{self.batch_call_tolerance}"
            )
        if self.estimator not in ("auto", "buffer", "welford"):
            raise ValueError(
                f"unknown estimator mode {self.estimator!r}"
            )
        if self.split_scoring not in ("incremental", "reference"):
            raise ValueError(
                f"unknown split_scoring mode {self.split_scoring!r}"
            )


@dataclass
class SelectionResult:
    """Outcome of a selection run.

    Attributes
    ----------
    best_index:
        The selected configuration.
    prcs:
        The final estimated probability of correct selection.
    optimizer_calls:
        What-if calls spent (the paper's efficiency metric).
    estimates:
        Final estimated total costs per configuration.
    eliminated:
        Configurations dropped by the large-``k`` optimization.
    stratum_counts:
        Per-stratum workload sizes of the final stratification (Delta)
        or per-configuration stratum counts (Independent).
    terminated_by:
        ``"alpha"``, ``"max_calls"`` or ``"exhausted"``.
    history:
        ``(calls, Pr(CS))`` after each evaluation round.
    queries_sampled:
        Distinct workload queries drawn (per configuration for
        Independent Sampling, shared count for Delta Sampling).
    final_strata:
        The final stratification as tuples of template ids (Delta) —
        used by the Table 2/3 allocation baselines.
    """

    best_index: int
    prcs: float
    optimizer_calls: int
    estimates: np.ndarray
    eliminated: List[int]
    stratum_counts: Dict[int, int]
    terminated_by: str
    history: List[Tuple[int, float]] = field(default_factory=list)
    queries_sampled: int = 0
    final_strata: Tuple[Tuple[int, ...], ...] = ()


class ConfigurationSelector:
    """Algorithm 1: sample until ``Pr(CS) > alpha``.

    Parameters
    ----------
    source:
        Where costs come from (live optimizer or precomputed matrix).
    template_ids:
        Per-query template id (length ``source.n_queries``); templates
        are the stratification atoms.
    options:
        Procedure tunables.
    rng:
        Random generator driving all sampling.
    warm_state:
        Optional :class:`SelectorState` from a previous run over the
        same candidate configurations.  Carried samples seed the
        estimators before any sampling, so templates whose state is
        carried forward need few (often zero) fresh optimizer calls.
        The scheme and configuration count must match.
    timer:
        Optional :class:`repro.experiments.profiling.PhaseTimer` (any
        object with a ``phase(name)`` context manager): rounds are
        instrumented as ``plan`` (allocation), ``draw`` (RNG draws),
        ``cost`` (cost-source evaluation), ``ingest`` (accumulator
        updates) and ``evaluate`` (estimates + PRCS).
    checkpoint_path:
        When given, the complete round state (estimators, sampler
        shuffles, stratification, RNG, loop counters) is snapshotted
        to this path between rounds (atomic ``os.replace`` publish).
        A later selector over the same workload/options can
        :meth:`resume` from it and finish the run **bit-identically**
        to an uninterrupted one.  Snapshotting is a pure read of the
        state — it consumes no randomness and changes no float — so
        runs with and without a checkpoint path are identical.
    checkpoint_every:
        Snapshot every this many evaluation rounds (default 1).
    """

    def __init__(
        self,
        source: CostSource,
        template_ids: np.ndarray,
        options: SelectorOptions = SelectorOptions(),
        rng: Optional[np.random.Generator] = None,
        template_overheads: Optional[np.ndarray] = None,
        warm_state: Optional[SelectorState] = None,
        timer=None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.source = source
        self.options = options
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self._timer = timer if timer is not None else _NullTimer()
        self._round_mult = 1
        if warm_state is not None:
            if warm_state.scheme != options.scheme:
                raise ValueError(
                    f"warm state is for scheme {warm_state.scheme!r}, "
                    f"options use {options.scheme!r}"
                )
            if warm_state.n_configs != source.n_configs:
                raise ValueError(
                    f"warm state carries {warm_state.n_configs} "
                    f"configurations, source has {source.n_configs}"
                )
        self.warm_state = warm_state
        self.carried_samples = 0
        # Per-owner Algorithm 2 split caches (stratum tuple -> stamped
        # aggregates; see repro.core.progressive).  Delta Sampling keys
        # by the *directed* binding pair — diff_template_moments negates
        # means with direction, which flips the cut ordering —
        # Independent Sampling by configuration.
        self._split_caches: Dict[Tuple, Dict] = {}
        self._delta_state: Optional[DeltaState] = None
        self._independent_state: Optional[IndependentState] = None
        self._final_strata: Optional[Tuple[Tuple[int, ...], ...]] = None
        self.template_overheads = (
            np.asarray(template_overheads, dtype=np.float64)
            if template_overheads is not None else None
        )
        self.rng = rng if rng is not None else np.random.default_rng()
        template_ids = np.asarray(template_ids, dtype=np.int64)
        if len(template_ids) != source.n_queries:
            raise ValueError(
                f"template_ids has {len(template_ids)} entries for "
                f"{source.n_queries} queries"
            )
        self.template_ids = template_ids
        order = np.argsort(template_ids, kind="stable")
        sorted_ids = template_ids[order]
        boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
        groups = np.split(order, boundaries)
        self.indices_by_template: Dict[int, np.ndarray] = {
            int(template_ids[g[0]]): g for g in groups
        }
        self.template_sizes: Dict[int, int] = {
            t: len(g) for t, g in self.indices_by_template.items()
        }
        self.n_templates = (
            int(template_ids.max()) + 1 if len(template_ids) else 0
        )
        self._template_size_arr = np.zeros(self.n_templates, dtype=np.int64)
        for t, size in self.template_sizes.items():
            self._template_size_arr[t] = size
        self._warm_strata: Optional[List[Tuple[int, ...]]] = None
        if self.warm_state is not None:
            self._normalize_warm_state()

    def _normalize_warm_state(self) -> None:
        """Trim the warm state to the groups worth resuming from.

        Carried counts are only unbiased to pool within the strata
        they were drawn under, so each carried group of the previous
        run's final stratification becomes a stratum of this run.  A
        group is kept only when it carries at least ``n_min`` samples
        — it then skips the pilot entirely and starts with a solid
        variance estimate.  Thinner groups cost more than they save
        (pilot top-up plus a permanent extra stratum), so their
        samples are dropped and their templates resample in the
        pooled fresh stratum.
        """
        reduce = "min" if self.options.scheme == "independent" else "max"
        counts = self.warm_state.template_counts(reduce)
        carried = set(self.warm_state.template_ids())
        carried &= set(self.template_sizes)
        groups = self.warm_state.strata
        if groups is None:
            # Old checkpoints without strata: per-template groups are
            # the only allocation-free resumption.
            groups = [[t] for t in sorted(carried)]
        kept_strata: List[Tuple[int, ...]] = []
        drop = set(self.warm_state.template_ids()) - carried
        for group in groups:
            kept = tuple(t for t in group if t in carried)
            if not kept:
                continue
            if sum(counts.get(t, 0) for t in kept) >= self.options.n_min:
                kept_strata.append(kept)
            else:
                drop.update(kept)
        if not kept_strata:
            self.warm_state = None
            return
        if drop:
            self.warm_state = self.warm_state.drop_templates(drop)
        self._warm_strata = kept_strata

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self) -> SelectionResult:
        """Run Algorithm 1 to termination."""
        if self.options.scheme == "delta":
            return self._run_delta()
        return self._run_independent()

    def resume(self, path: Optional[str] = None) -> SelectionResult:
        """Continue a checkpointed run to termination.

        Loads the checkpoint at ``path`` (default: this selector's
        ``checkpoint_path``), restores the complete round state —
        estimator accumulators, sampler shuffles and cursors,
        stratification, elimination set, PRCS history, RNG — and
        re-enters the round loop.  The continuation is bit-identical
        to the uninterrupted run: same draws, same floats, same
        decisions (pinned by the golden-fixture resume tests).

        The selector must be constructed over the same workload with
        the same options as the checkpointing run; mismatches raise
        ``ValueError``.  Spent optimizer calls are carried: budgets
        and the ``(calls, Pr(CS))`` history continue from the
        checkpointed counts whether this process's source already
        performed those calls or starts fresh.
        """
        path = path if path is not None else self.checkpoint_path
        if path is None:
            raise ValueError("no checkpoint path to resume from")
        payload = load_checkpoint(path)
        if payload is None:
            raise FileNotFoundError(f"no checkpoint at {path}")
        if payload.get("kind") != "selector":
            raise ValueError(
                f"checkpoint {path} is not a selector checkpoint"
            )
        if payload["scheme"] != self.options.scheme:
            raise ValueError(
                f"checkpoint is for scheme {payload['scheme']!r}, "
                f"options use {self.options.scheme!r}"
            )
        if int(payload["n_configs"]) != self.source.n_configs:
            raise ValueError(
                f"checkpoint carries {payload['n_configs']} "
                f"configurations, source has {self.source.n_configs}"
            )
        if int(payload["n_queries"]) != self.source.n_queries:
            raise ValueError(
                f"checkpoint is over {payload['n_queries']} queries, "
                f"source has {self.source.n_queries}"
            )
        recorded = payload.get("options")
        if recorded != _jsonify_options(self.options):
            raise ValueError(
                "checkpoint was written under different selector "
                "options; resuming would not be bit-identical"
            )
        if self.options.scheme == "delta":
            return self._run_delta(resume=payload)
        return self._run_independent(resume=payload)

    # ------------------------------------------------------------------
    # checkpoint plumbing
    # ------------------------------------------------------------------
    def _checkpoint_due(self, round_idx: int) -> bool:
        return (
            self.checkpoint_path is not None
            and round_idx % self.checkpoint_every == 0
        )

    def _checkpoint_common(self, round_idx: int, calls_used: int,
                           active: Sequence[int],
                           eliminated: Sequence[int], consec: int,
                           history: Sequence[Tuple[int, float]]) -> dict:
        """Scheme-independent part of a checkpoint payload.

        Pure state read: captures the RNG without consuming it and
        floats without transforming them, so writing a checkpoint can
        never perturb the run it snapshots.
        """
        return {
            "kind": "selector",
            "scheme": self.options.scheme,
            "n_configs": int(self.source.n_configs),
            "n_queries": int(self.source.n_queries),
            "options": _jsonify_options(self.options),
            "rng": rng_state(self.rng),
            "round": int(round_idx),
            "calls_used": int(calls_used),
            "carried_samples": int(self.carried_samples),
            "round_mult": int(self._round_mult),
            "active": [int(j) for j in active],
            "eliminated": [int(j) for j in eliminated],
            "consec": int(consec),
            "history": [[int(c), float(p)] for c, p in history],
        }

    def export_state(self) -> SelectorState:
        """Snapshot the estimator state of the completed (or
        in-progress) run for warm starts and checkpointing.

        Raises ``RuntimeError`` before the first :meth:`run`.
        """
        strata = (
            None if self._final_strata is None
            else [[int(t) for t in group] for group in self._final_strata]
        )
        if self._delta_state is not None:
            return SelectorState(
                scheme="delta",
                n_configs=self.source.n_configs,
                values=self._delta_state.export_samples(),
                strata=strata,
            )
        if self._independent_state is not None:
            return SelectorState(
                scheme="independent",
                n_configs=self.source.n_configs,
                moments=self._independent_state.export_moments(),
                strata=strata,
            )
        raise RuntimeError("no run to export state from")

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _initial_stratification(self) -> Stratification:
        if self.options.stratify == "fine":
            return Stratification(
                [(t,) for t in sorted(self.template_sizes)],
                self.template_sizes,
            )
        # A warm run resumes from the previous run's final strata
        # (normalized in _normalize_warm_state): carried counts are
        # proportional to template sizes within those groups — the
        # stratification they were drawn under — which is exactly the
        # condition for count-weighted stratum means to stay unbiased.
        # Everything else — new templates, invalidated ones, thinly
        # carried groups — pools into one fresh stratum whose draws
        # are all fresh and uniform, keeping the pilot as cheap as a
        # cold run's.
        if self.warm_state is not None and self._warm_strata:
            strata = list(self._warm_strata)
            assigned = {t for group in strata for t in group}
            fresh = tuple(
                t for t in sorted(self.template_sizes)
                if t not in assigned
            )
            if fresh:
                strata.append(fresh)
            return Stratification(strata, self.template_sizes)
        return Stratification.single(self.template_sizes)

    def _stratum_overheads(self, strat: Stratification) -> Optional[
            np.ndarray]:
        """Expected per-draw optimization overhead of each stratum.

        The size-weighted mean of the member templates' overheads
        (Section 5.2's closing remark: select the stratum maximizing
        variance reduction *relative to the expected overhead*).
        """
        if self.template_overheads is None:
            return None
        out = np.empty(strat.stratum_count)
        for h, stratum in enumerate(strat.strata):
            tids = np.fromiter(stratum, dtype=np.int64)
            sizes = self._template_size_arr[tids].astype(np.float64)
            total = sizes.sum()
            if total <= 0:
                out[h] = 1.0
                continue
            out[h] = float(
                (sizes * self.template_overheads[tids]).sum() / total
            )
        return out

    def _budget_left(self, calls: int) -> bool:
        return (
            self.options.max_calls is None
            or calls < self.options.max_calls
        )

    def _estimator_mode(self) -> str:
        """Resolve the pairwise-estimator mode (``"auto"`` dispatch)."""
        if self.options.estimator != "auto":
            return self.options.estimator
        return "buffer" if self.options.batch_rounds == 1 else "welford"

    def _chunk_allowance(self, pending: int, per_draw: int) -> int:
        """Draws affordable right now under the serial budget check.

        Serially the budget is re-checked before every draw; a draw is
        allowed while spent calls stay strictly below ``max_calls``.
        With at most ``per_draw`` calls per draw, the next
        ``ceil(left / per_draw)`` draws are each serially allowed, so
        they can be drawn ahead and costed in one batch; callers loop,
        re-reading the true call counter between chunks, until
        ``pending`` is used up or the budget binds — reproducing the
        serial truncation point exactly even when cache hits make
        draws cheaper than ``per_draw``.
        """
        if self.options.max_calls is None:
            return pending
        left = self.options.max_calls - (
            self.source.calls - self._start_calls
        )
        if left <= 0:
            return 0
        return min(pending, -(-left // per_draw))

    def _next_batch_rounds(self, calls_used: int, round_calls: int,
                           consec: int) -> int:
        """Allocation rounds to coalesce into the next draw-ahead batch.

        Once the termination condition starts holding (``consec > 0``)
        the schedule drops back to serial so the consecutive-round
        confirmation tail costs exactly what it costs serially.
        """
        if consec > 0:
            self._round_mult = 1
            return 1
        mult = batch_multiplier(
            self._round_mult,
            self.options.batch_rounds,
            self.options.batch_growth,
            self.options.batch_call_tolerance,
            calls_used,
            round_calls,
        )
        self._round_mult = mult
        return mult

    # ------------------------------------------------------------------
    # Delta Sampling driver
    # ------------------------------------------------------------------
    def _run_delta(self, resume: Optional[dict] = None) -> SelectionResult:
        opts = self.options
        k = self.source.n_configs
        state = DeltaState(
            k, self.n_templates, self.indices_by_template, self.rng,
            estimator=self._estimator_mode(),
        )
        self._delta_state = state
        if resume is not None:
            # Restore overwrites the fresh shuffles and RNG state the
            # construction above consumed; from here on every draw and
            # every float matches the uninterrupted run.
            state.restore_state(resume["state"])
            restore_rng(self.rng, resume["rng"])
            self.carried_samples = int(resume["carried_samples"])
            self._round_mult = int(resume["round_mult"])
            strat = Stratification(
                [tuple(int(t) for t in g) for g in resume["strata"]],
                self.template_sizes,
            )
            active = [int(j) for j in resume["active"]]
            eliminated = [int(j) for j in resume["eliminated"]]
            consec = int(resume["consec"])
            history = [
                (int(c), float(p)) for c, p in resume["history"]
            ]
            strat_version = int(resume["strat_version"])
            round_idx = int(resume["round"])
            # Budget/history accounting continues from the recorded
            # spend whether this process's source already made those
            # calls or starts fresh (sampling is without replacement,
            # so no checkpointed pair is ever re-requested).
            start_calls = self.source.calls - int(resume["calls_used"])
        else:
            self._round_mult = 1
            if self.warm_state is not None:
                self.carried_samples = state.import_samples(
                    self.warm_state.values
                )
            strat = self._initial_stratification()
            active = list(range(k))
            eliminated = []
            consec = 0
            history = []
            strat_version = 0
            round_idx = 0
            start_calls = self.source.calls
        self._start_calls = start_calls
        terminated_by = "exhausted"

        def calls_used() -> int:
            return self.source.calls - start_calls

        if resume is None:
            # Pilot: n_min draws per stratum (shared across configs).
            self._delta_pilot(state, strat, active)

        held = _HeldPairs(k)
        while True:
            if self._checkpoint_due(round_idx):
                payload = self._checkpoint_common(
                    round_idx, calls_used(), active, eliminated,
                    consec, history,
                )
                payload["strata"] = [
                    [int(t) for t in group] for group in strat.strata
                ]
                payload["strat_version"] = int(strat_version)
                payload["state"] = state.state_dict()
                save_checkpoint(self.checkpoint_path, payload)
            round_idx += 1
            # --- evaluate: all totals, then every pair against best ---
            with self._timer.phase("evaluate"):
                totals = state.totals(strat)[0]
                best = int(np.argmin(np.where(np.isfinite(totals), totals,
                                              np.inf)))
                others, mean_diff, var_diff = state.pair_estimates(
                    best, strat
                )
                is_active = np.zeros(k, dtype=bool)
                is_active[active] = True
                mean_diff, var_diff = held.apply(
                    (best, strat_version), others, mean_diff, var_diff,
                    ~is_active[others],
                )
                pairs = _pair_stats(others, mean_diff, var_diff, opts.delta)
                prcs = (
                    bonferroni(pairs.prcs.tolist()) if len(pairs.others)
                    else 1.0
                )
            history.append((calls_used(), prcs))

            # --- terminate? ---
            if prcs > opts.alpha:
                consec += 1
            else:
                consec = 0
            if consec >= opts.consecutive:
                terminated_by = "alpha"
                break
            if not self._budget_left(calls_used()):
                terminated_by = "max_calls"
                break

            # --- eliminate ---
            if opts.eliminate:
                active = self._eliminate(active, eliminated, best, pairs)

            # --- progressive stratification (Algorithm 2) ---
            if opts.stratify == "progressive":
                with self._timer.phase("split"):
                    new_strat = self._delta_split(
                        state, strat, best, pairs, len(active)
                    )
                if new_strat is not strat:
                    strat = new_strat
                    strat_version += 1

            # --- draw the next batch of samples ---
            rounds = self._next_batch_rounds(
                calls_used(),
                max(1, opts.reeval_every) * max(1, len(active)),
                consec,
            )
            if not self._delta_draw(state, strat, best, active, rounds):
                # Workload exhausted: estimates are now exact.
                terminated_by = "exhausted"
                prcs = 1.0
                break

        # The totals pass is memoized per stratification and sample
        # version, so this reads the last evaluation's (or, after
        # exhaustion, one fresh) pass.
        totals = state.totals(strat)[0].copy()
        best = int(np.argmin(totals))
        self._final_strata = strat.strata
        return SelectionResult(
            best_index=best,
            prcs=prcs,
            optimizer_calls=calls_used(),
            estimates=totals,
            eliminated=eliminated,
            stratum_counts={h: int(n) for h, n in enumerate(strat.sizes)},
            terminated_by=terminated_by,
            history=history,
            queries_sampled=state.sample_count(),
            final_strata=strat.strata,
        )

    def _eliminate(self, active: List[int], eliminated: List[int],
                   best: int, pairs: _PairStats) -> List[int]:
        """Drop active configurations whose pair with ``best`` clears
        the elimination threshold (appended to ``eliminated`` in active
        order); ``best`` always stays."""
        prcs = np.zeros(self.source.n_configs)
        prcs[pairs.others] = pairs.prcs
        act = np.asarray(active, dtype=np.int64)
        drop = (act != best) & (
            prcs[act] > self.options.elimination_threshold
        )
        eliminated.extend(act[drop].tolist())
        still = act[~drop].tolist()
        if best not in still:
            still.append(best)
        return still

    def _delta_pilot(
        self,
        state: DeltaState,
        strat: Stratification,
        active: Sequence[int],
    ) -> None:
        """Fill every stratum to ``n_min`` shared samples (or exhaust).

        Carried warm-start samples count toward the target, so a
        well-carried stratum costs the pilot nothing.  Each stratum's
        deficit is drawn ahead and costed in one ``cost_many`` batch
        (chunked only where the call budget may bind).
        """
        active = list(active)
        per_draw = max(1, len(active))
        drawn_by_stratum = strat.member_sums(state.sampler.drawn_counts())
        for h, tids in enumerate(strat.tid_arrays):
            drawn = int(drawn_by_stratum[h])
            target = min(self.options.n_min, int(strat.sizes[h]))
            while drawn < target:
                chunk = self._chunk_allowance(target - drawn, per_draw)
                if chunk <= 0:
                    return
                with self._timer.phase("draw"):
                    draws = state.sampler.draw_many(tids, self.rng, chunk)
                if draws:
                    self._delta_ingest(state, draws, active)
                    drawn += len(draws)
                if len(draws) < chunk:
                    break

    def _delta_ingest(
        self,
        state: DeltaState,
        draws: Sequence[Tuple[int, int]],
        active: Sequence[int],
    ) -> None:
        """Cost a draw-ahead batch in one call and fold it in.

        Pairs are laid out query-major (every active configuration of
        a draw back to back), so ingestion replays the serial
        accumulator-update order exactly.
        """
        configs = np.asarray(active, dtype=np.int64)
        k_a = len(configs)
        qs = np.fromiter(
            (q for q, _t in draws), dtype=np.int64, count=len(draws)
        )
        pairs = np.empty((len(draws) * k_a, 2), dtype=np.int64)
        pairs[:, 0] = np.repeat(qs, k_a)
        pairs[:, 1] = np.tile(configs, len(draws))
        with self._timer.phase("cost"):
            values = self.source.cost_many(pairs)
        with self._timer.phase("ingest"):
            state.ingest_batch(draws, configs, values)

    def _delta_split(
        self,
        state: DeltaState,
        strat: Stratification,
        best: int,
        pairs: _PairStats,
        k_active: int,
    ) -> Stratification:
        """Consult Algorithm 2 using the binding pair's difference stats."""
        binding = self._binding_pair(pairs, k_active)
        if binding is None:
            return strat
        j, target_var = binding
        counts, means, m2s = state.diff_template_moments(best, j)
        t_vars = np.where(counts >= 2, m2s / np.maximum(1, counts - 1), 0.0)
        decision = self._propose_split(
            ("delta", best, j),
            strat,
            counts,
            means,
            t_vars,
            target_var,
        )
        if decision is None:
            return strat
        new_strat = strat.split(
            decision.stratum_idx, decision.left, decision.right
        )
        # Line 8 of Algorithm 1: pilot the refreshed strata — in every
        # configuration, eliminated ones included.
        self._delta_pilot(state, new_strat, range(self.source.n_configs))
        return new_strat

    def _propose_split(
        self,
        owner: Tuple,
        strat: Stratification,
        counts: np.ndarray,
        means: np.ndarray,
        t_vars: np.ndarray,
        target_var: float,
    ):
        """Dispatch Algorithm 2 per ``options.split_scoring``.

        The incremental kernel reuses one cache per moment owner;
        entries are stamped by stratum sample counts, so only strata
        that ingested samples since the owner's last check rebuild.
        """
        if self.options.split_scoring == "reference":
            return propose_split_reference(
                strat, self._template_size_arr, counts, means, t_vars,
                target_var, self.options.n_min,
            )
        cache = self._split_caches.setdefault(owner, {})
        return propose_split(
            strat, self._template_size_arr, counts, means, t_vars,
            target_var, self.options.n_min, cache=cache,
        )

    def _binding_pair(
        self, pairs: _PairStats, k_active: int
    ) -> Optional[Tuple[int, float]]:
        """The pair needing the smallest (hardest) target variance."""
        alpha_pair = per_pair_alpha(self.options.alpha, max(2, k_active))
        best_j: Optional[int] = None
        best_target = math.inf
        for j, mean_diff in zip(pairs.others.tolist(), pairs.mean.tolist()):
            target = pair_target_variance(
                -mean_diff, self.options.delta, alpha_pair
            )
            if 0 < target < best_target:
                best_target = target
                best_j = j
        if best_j is None:
            return None
        return best_j, best_target

    def _delta_draw(
        self,
        state: DeltaState,
        strat: Stratification,
        best: int,
        active: Sequence[int],
        rounds: int = 1,
    ) -> bool:
        """Plan up to ``rounds`` §5.2 stratum picks ahead, then draw.

        Each planned round re-runs the variance-greedy stratum choice
        against the simulated (post-draw) counts, so a batch follows
        the same allocation trajectory the serial schedule would; the
        whole plan is then drawn, costed via ``cost_many`` and
        ingested.  ``rounds=1`` reproduces the serial behavior
        bit-identically (one pick, up to ``reeval_every`` draws, the
        serial budget-truncation arithmetic).
        """
        with self._timer.phase("plan"):
            sizes = strat.sizes
            counts = strat.member_sums(state.sampler.drawn_counts())
            remaining = strat.member_sums(state.sampler.remaining_counts())
            exhausted = remaining == 0
            if exhausted.all():
                return False
            # Per-pair per-stratum variances for the variance-sum
            # heuristic: the (pairs, strata) moments of this round's
            # evaluation, unless a split's pilot has moved them since.
            _others, n, _mean, m2h = state.pair_moments(best, strat)
            with np.errstate(divide="ignore", invalid="ignore"):
                pair_vars = np.where(n >= 2, m2h / (n - 1), 0.0)
            overheads = self._stratum_overheads(strat)
            per_round = max(1, self.options.reeval_every)
            # Round-to-round only the picked stratum's count moves, so
            # the variance-greedy scores are maintained incrementally
            # (bit-identical to a per-round pick_delta_stratum call).
            scorer = (
                DeltaStratumScorer(
                    sizes, pair_vars, counts, overheads=overheads
                )
                if len(pair_vars) else None
            )
            plan: List[Tuple[int, int]] = []
            for _ in range(max(1, rounds)):
                if exhausted.all():
                    break
                if scorer is not None:
                    pick = scorer.pick(exhausted)
                else:
                    pick = int(np.argmax(np.where(exhausted, -1, sizes)))
                if pick is None:
                    break
                n_draws = int(min(per_round, remaining[pick]))
                if n_draws <= 0:
                    exhausted[pick] = True
                    continue
                if plan and plan[-1][0] == pick:
                    plan[-1] = (pick, plan[-1][1] + n_draws)
                else:
                    plan.append((pick, n_draws))
                counts[pick] += n_draws
                remaining[pick] -= n_draws
                if remaining[pick] == 0:
                    exhausted[pick] = True
                if scorer is not None:
                    scorer.refresh(pick)
        # Draw/cost/ingest the plan, chunked where the budget may bind.
        active = list(active)
        per_draw = max(1, len(active))
        drew_any = False
        for pick, n_draws in plan:
            tids = strat.tid_arrays[pick]
            pending = n_draws
            while pending > 0:
                chunk = self._chunk_allowance(pending, per_draw)
                if chunk <= 0 and not drew_any:
                    # Serially, the round's first draw skips the budget
                    # check (possible after a split's pilot spent it).
                    chunk = 1
                if chunk <= 0:
                    return drew_any
                with self._timer.phase("draw"):
                    draws = state.sampler.draw_many(tids, self.rng, chunk)
                if draws:
                    self._delta_ingest(state, draws, active)
                    drew_any = True
                    pending -= len(draws)
                if len(draws) < chunk:
                    break
        return drew_any

    # ------------------------------------------------------------------
    # Independent Sampling driver
    # ------------------------------------------------------------------
    def _run_independent(
        self, resume: Optional[dict] = None
    ) -> SelectionResult:
        opts = self.options
        k = self.source.n_configs
        state = IndependentState(
            k, self.n_templates, self.indices_by_template, self.rng
        )
        self._independent_state = state
        if resume is not None:
            state.restore_state(resume["state"])
            restore_rng(self.rng, resume["rng"])
            self.carried_samples = int(resume["carried_samples"])
            self._round_mult = int(resume["round_mult"])
            strats = [
                Stratification(
                    [tuple(int(t) for t in g) for g in groups],
                    self.template_sizes,
                )
                for groups in resume["strats"]
            ]
            active = [int(j) for j in resume["active"]]
            eliminated = [int(j) for j in resume["eliminated"]]
            consec = int(resume["consec"])
            history = [
                (int(c), float(p)) for c, p in resume["history"]
            ]
            last_sampled = (
                None if resume["last_sampled"] is None
                else int(resume["last_sampled"])
            )
            round_idx = int(resume["round"])
            start_calls = self.source.calls - int(resume["calls_used"])
        else:
            self._round_mult = 1
            if self.warm_state is not None:
                self.carried_samples = state.import_moments(
                    self.warm_state.moments
                )
            strats = [
                self._initial_stratification() for _ in range(k)
            ]
            active = list(range(k))
            eliminated = []
            consec = 0
            history = []
            last_sampled = None
            round_idx = 0
            start_calls = self.source.calls
        self._start_calls = start_calls
        terminated_by = "exhausted"

        def calls_used() -> int:
            return self.source.calls - start_calls

        if resume is None:
            for c in range(k):
                self._independent_pilot(state, strats[c], c)

        while True:
            if self._checkpoint_due(round_idx):
                payload = self._checkpoint_common(
                    round_idx, calls_used(), active, eliminated,
                    consec, history,
                )
                payload["strats"] = [
                    [[int(t) for t in group] for group in s.strata]
                    for s in strats
                ]
                payload["last_sampled"] = (
                    None if last_sampled is None else int(last_sampled)
                )
                payload["state"] = state.state_dict()
                save_checkpoint(self.checkpoint_path, payload)
            round_idx += 1
            with self._timer.phase("evaluate"):
                ests = [state.estimate(c, strats[c]) for c in range(k)]
                totals = np.array([e[0] for e in ests])
                variances = np.array([e[1] for e in ests])
                best = int(np.argmin(np.where(np.isfinite(totals), totals,
                                              np.inf)))
                others = np.delete(np.arange(k), best)
                gap = totals[others] - totals[best]
                pairs = _pair_stats(
                    others, -gap, variances[others] + variances[best],
                    opts.delta,
                )
                prcs = (
                    bonferroni(pairs.prcs.tolist()) if len(others)
                    else 1.0
                )
            history.append((calls_used(), prcs))

            if prcs > opts.alpha:
                consec += 1
            else:
                consec = 0
            if consec >= opts.consecutive:
                terminated_by = "alpha"
                break
            if not self._budget_left(calls_used()):
                terminated_by = "max_calls"
                break

            if opts.eliminate:
                active = self._eliminate(active, eliminated, best, pairs)

            # Progressive stratification for the last-sampled config.
            if opts.stratify == "progressive" and last_sampled is not None \
                    and last_sampled in active:
                with self._timer.phase("split"):
                    strats[last_sampled] = self._independent_split(
                        state, strats[last_sampled], last_sampled,
                        pairs, len(active),
                    )

            # Plan up to `rounds` greedy (configuration, stratum) picks
            # ahead; pending draws feed back into the scores so the
            # batch follows the serial allocation trajectory.
            rounds = self._next_batch_rounds(
                calls_used(), max(1, opts.reeval_every), consec
            )
            per_round = max(1, opts.reeval_every)
            with self._timer.phase("plan"):
                plan: List[Tuple[int, int, int]] = []
                pending: Dict[Tuple[int, int], int] = {}
                for _ in range(max(1, rounds)):
                    pick = self._independent_pick(
                        state, strats, active, pending
                    )
                    if pick is None:
                        break
                    config, stratum_idx = pick
                    already = pending.get((config, stratum_idx), 0)
                    tids = strats[config].tid_arrays[stratum_idx]
                    avail = int(
                        state.samplers[config].remaining_counts()[tids]
                        .sum()
                    ) - already
                    n = int(min(per_round, avail))
                    if n <= 0:
                        break
                    plan.append((config, stratum_idx, n))
                    pending[(config, stratum_idx)] = already + n
            if not plan:
                terminated_by = "exhausted"
                prcs = 1.0
                break
            drew_any = False
            budget_bound = False
            for config, stratum_idx, n in plan:
                tids = strats[config].tid_arrays[stratum_idx]
                remaining = n
                while remaining > 0:
                    chunk = self._chunk_allowance(remaining, 1)
                    if chunk <= 0 and not drew_any:
                        # Serially, the round's first draw skips the
                        # budget check (possible after a split pilot).
                        chunk = 1
                    if chunk <= 0:
                        budget_bound = True
                        break
                    with self._timer.phase("draw"):
                        draws = state.samplers[config].draw_many(
                            tids, self.rng, chunk
                        )
                    if draws:
                        self._independent_ingest(state, config, draws)
                        drew_any = True
                        last_sampled = config
                        remaining -= len(draws)
                    if len(draws) < chunk:
                        break
                if budget_bound:
                    break
            if not drew_any:
                # Raced into exhaustion; try again next round.
                continue

        ests = [state.estimate(c, strats[c]) for c in range(k)]
        totals = np.array([e[0] for e in ests])
        best = int(np.argmin(totals))
        self._final_strata = strats[best].strata
        return SelectionResult(
            best_index=best,
            prcs=prcs,
            optimizer_calls=calls_used(),
            estimates=totals,
            eliminated=eliminated,
            stratum_counts={
                c: strats[c].stratum_count for c in range(k)
            },
            terminated_by=terminated_by,
            history=history,
            queries_sampled=sum(
                state.sample_count(c) for c in range(k)
            ),
            final_strata=strats[best].strata,
        )

    def _independent_pilot(
        self, state: IndependentState, strat: Stratification, config: int
    ) -> None:
        for h, tids in enumerate(strat.tid_arrays):
            drawn = int(state.grid.count[config, tids].sum())
            target = min(self.options.n_min, int(strat.sizes[h]))
            while drawn < target:
                chunk = self._chunk_allowance(target - drawn, 1)
                if chunk <= 0:
                    return
                with self._timer.phase("draw"):
                    draws = state.samplers[config].draw_many(
                        tids, self.rng, chunk
                    )
                if draws:
                    self._independent_ingest(state, config, draws)
                    drawn += len(draws)
                if len(draws) < chunk:
                    break

    def _independent_ingest(
        self,
        state: IndependentState,
        config: int,
        draws: Sequence[Tuple[int, int]],
    ) -> None:
        """Cost one configuration's draw-ahead batch and fold it in."""
        pairs = np.empty((len(draws), 2), dtype=np.int64)
        pairs[:, 0] = np.fromiter(
            (q for q, _t in draws), dtype=np.int64, count=len(draws)
        )
        pairs[:, 1] = config
        with self._timer.phase("cost"):
            values = self.source.cost_many(pairs)
        with self._timer.phase("ingest"):
            state.ingest_batch(config, draws, values)

    def _independent_split(
        self,
        state: IndependentState,
        strat: Stratification,
        config: int,
        pairs: _PairStats,
        k_active: int,
    ) -> Stratification:
        binding = self._binding_pair(pairs, k_active)
        if binding is None:
            return strat
        _j, pair_target = binding
        # Per-config target: half the pair's variance budget (the pair
        # variance is the sum of two per-config variances).
        target_var = pair_target / 2.0
        counts = state.grid.count[config]
        means = state.grid.mean[config]
        m2s = state.grid.m2[config]
        t_vars = np.where(counts >= 2, m2s / np.maximum(1, counts - 1), 0.0)
        decision = self._propose_split(
            ("independent", config),
            strat,
            counts,
            means,
            t_vars,
            target_var,
        )
        if decision is None:
            return strat
        new_strat = strat.split(
            decision.stratum_idx, decision.left, decision.right
        )
        self._independent_pilot(state, new_strat, config)
        return new_strat

    def _independent_pick(
        self,
        state: IndependentState,
        strats: Sequence[Stratification],
        active: Sequence[int],
        pending: Optional[Dict[Tuple[int, int], int]] = None,
    ) -> Optional[Tuple[int, int]]:
        """Greedy (configuration, stratum) choice per §5.2.

        ``pending`` maps ``(config, stratum)`` to draws already planned
        (but not yet taken) by the current draw-ahead batch; they are
        treated as taken, so successive picks of one batch follow the
        same trajectory a serial re-pick after each round would.
        """
        best_pick: Optional[Tuple[int, int]] = None
        best_score = -1.0
        for config in active:
            strat = strats[config]
            stats = state.stratum_stats(config, strat)
            overheads = self._stratum_overheads(strat)
            planned = np.zeros(strat.stratum_count, dtype=np.int64)
            for (c, h), p in (pending or {}).items():
                if c == config:
                    planned[h] = p
            open_mask = strat.member_sums(
                state.samplers[config].remaining_counts()
            ) - planned > 0
            if not open_mask.any():
                continue
            n_eff = np.asarray(stats.n, dtype=np.int64) + planned
            s2 = np.where(np.isfinite(stats.var), stats.var, 0.0)
            red = variance_reduction_many(strat.sizes, s2, n_eff)
            if overheads is not None:
                red = red / np.maximum(1e-12, overheads)
            red = np.where(n_eff == 0, math.inf, red)
            scores = np.where(open_mask, red, -math.inf)
            h = int(np.argmax(scores))
            if scores[h] > best_score:
                best_score = float(scores[h])
                best_pick = (config, h)
        return best_pick
