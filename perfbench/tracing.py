"""Per-layer instrumentation for the traced benchmark run.

Every hook wraps a public call from outside the package, so nothing
under ``src/`` changes to be measured:

* :class:`TimedCostSource` is a proxy ``CostSource`` around the real one;
* each selection gets a ``PhaseTimer`` through the selector's ``timer=``
  (service retunes report theirs as ``RetuneOutcome.phase_seconds``);
* :meth:`LayerTrace.optimizer` times ``WhatIfOptimizer.cost`` by
  shadowing the method on an optimizer the benchmark created;
* :meth:`LayerTrace.patched` wraps ``save_checkpoint`` and
  ``save_service_checkpoint`` as the selector and service modules import
  them, ``propose_split`` as the selector imports it (to count splits),
  and the exhaustive ``cost_matrix`` builder;
* :class:`PerfEventLog` is an ``EventLog`` whose ``emit`` is timed with
  ``perf_counter``.

The untraced run uses none of these, so its timings carry no
instrumentation.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import repro.core.selector as selector_module
import repro.optimizer.batch as batch_module
import repro.service.runner as runner_module
from repro.core.sources import CostSource
from repro.service.events import EventLog

from checks import RETUNE_ENDS, retune_seconds

#: The phases ``ConfigurationSelector`` books on its timer.
SELECTOR_PHASES = ("plan", "draw", "cost", "ingest", "evaluate", "split")


class LayerTrace:
    """Busy times and counters of one traced run, by layer."""

    def __init__(self) -> None:
        self.phases: Dict[str, float] = {}
        self.cost_s = 0.0
        self.cost_batches = 0
        self.cost_pairs = 0
        self.optimizer_s = 0.0
        self.optimizer_calls = 0
        self.optimizer_cache_hits = 0
        self.optimizer_fingerprint_hits = 0
        self.matrix_s = 0.0
        self.matrix_cells = 0
        self.checkpoint_writes = 0
        self.checkpoint_s = 0.0
        self.checkpoint_bytes = 0
        self.splits = 0
        self.events_emitted = 0
        self.events_s = 0.0
        #: ``(kind, perf_counter)`` of every retune start and end.
        self.retune_marks: List[Tuple[str, float]] = []
        #: Module attributes a hook could not find (their layer reads 0).
        self.missing_hooks: List[str] = []

    def add_phases(self, seconds: Dict[str, float]) -> None:
        """Fold one selection's phase times in."""
        for name, value in seconds.items():
            self.phases[name] = self.phases.get(name, 0.0) + value

    def source(self, inner: CostSource) -> "TimedCostSource":
        """The real cost source behind a timing proxy."""
        return TimedCostSource(inner, self)

    def optimizer(self, optimizer):
        """Time every ``optimizer.cost`` call, cache hits included."""
        cost = optimizer.cost

        def timed_cost(query, config):
            start = time.perf_counter()
            value = cost(query, config)
            self.optimizer_s += time.perf_counter() - start
            return value

        optimizer.cost = timed_cost
        return optimizer

    def count_optimizer(self, optimizer) -> None:
        """Add the counters of an optimizer whose work is done."""
        self.optimizer_calls += optimizer.calls
        self.optimizer_cache_hits += optimizer.cache_hits
        self.optimizer_fingerprint_hits += optimizer.fingerprint_hits

    def event_log(self, path: str) -> "PerfEventLog":
        """A JSONL event log at ``path`` that times its ``emit``."""
        return PerfEventLog(path, self)

    @contextmanager
    def patched(self) -> Iterator["LayerTrace"]:
        """Route the module-level hooks through this trace, then restore."""
        hooks = (
            (selector_module, "save_checkpoint", self._timed_save),
            (runner_module, "save_service_checkpoint", self._timed_save),
            (selector_module, "propose_split", self._counted_split),
            (batch_module, "cost_matrix", self._timed_matrix),
        )
        restore = []
        for module, name, wrap in hooks:
            original = getattr(module, name, None)
            if original is None:
                self.missing_hooks.append(f"{module.__name__}.{name}")
                continue
            restore.append((module, name, original))
            setattr(module, name, wrap(original))
        try:
            yield self
        finally:
            for module, name, original in restore:
                setattr(module, name, original)

    def _timed_save(self, save):
        def timed_save(path, payload):
            start = time.perf_counter()
            save(path, payload)
            self.checkpoint_s += time.perf_counter() - start
            self.checkpoint_writes += 1
            self.checkpoint_bytes += os.path.getsize(path)

        return timed_save

    def _counted_split(self, propose):
        def counted_split(*args, **kwargs):
            decision = propose(*args, **kwargs)
            if decision is not None:
                self.splits += 1
            return decision

        return counted_split

    def _timed_matrix(self, build):
        def timed_matrix(workload, configurations, optimizer, *args,
                         **kwargs):
            start = time.perf_counter()
            matrix = build(workload, configurations, optimizer, *args,
                           **kwargs)
            self.matrix_s += time.perf_counter() - start
            self.matrix_cells += matrix.size
            return matrix

        return timed_matrix


class TimedCostSource(CostSource):
    """Proxy cost source: times and counts every call into the real one."""

    def __init__(self, inner: CostSource, trace: LayerTrace) -> None:
        self.inner = inner
        self._trace = trace

    @property
    def n_queries(self) -> int:
        return self.inner.n_queries

    @property
    def n_configs(self) -> int:
        return self.inner.n_configs

    @property
    def calls(self) -> int:
        return self.inner.calls

    def cost(self, query_idx: int, config_idx: int) -> float:
        start = time.perf_counter()
        value = self.inner.cost(query_idx, config_idx)
        self._record(start, 1)
        return value

    def cost_many(self, pairs):
        start = time.perf_counter()
        values = self.inner.cost_many(pairs)
        self._record(start, len(values))
        return values

    def _record(self, start: float, pairs: int) -> None:
        trace = self._trace
        trace.cost_s += time.perf_counter() - start
        trace.cost_batches += 1
        trace.cost_pairs += pairs


class PerfEventLog(EventLog):
    """An ``EventLog`` whose ``emit`` is timed with ``perf_counter``."""

    def __init__(self, path: str, trace: LayerTrace) -> None:
        super().__init__(path)
        self._trace = trace

    def emit(self, kind: str, **fields):
        start = time.perf_counter()
        event = super().emit(kind, **fields)
        trace = self._trace
        trace.events_s += time.perf_counter() - start
        trace.events_emitted += 1
        if kind == "retune_start" or kind in RETUNE_ENDS:
            trace.retune_marks.append((kind, start))
        return event


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: LayerTrace, run, untraced_wall_s: float) -> dict:
    """Per-layer metrics of a traced run, by ``BENCHMARK.json`` name.

    Totals cover the run's measured operations; a layer that does no
    work in a workload reads 0.
    """
    selections = run.selections
    calls = sum(s.calls for s in selections)
    phases = trace.phases
    named = sum(phases.get(name, 0.0) for name in SELECTOR_PHASES)
    lookups = trace.optimizer_calls + trace.optimizer_cache_hits
    service = run.service
    retunes = sum(r["retunes"] for r in service)
    retune_s = sum(retune_seconds(trace.retune_marks))
    return {
        "optimizer.calls": trace.optimizer_calls,
        "optimizer.us_per_call": _ratio(
            trace.optimizer_s * 1e6, trace.optimizer_calls
        ),
        "optimizer.pair_hit_rate": _ratio(trace.optimizer_cache_hits, lookups),
        "optimizer.fingerprint_hit_rate": _ratio(
            trace.optimizer_fingerprint_hits, trace.optimizer_calls
        ),
        "setup.matrix_us_per_cell": _ratio(
            trace.matrix_s * 1e6, trace.matrix_cells
        ),
        "cost.s": trace.cost_s,
        "cost.batches": trace.cost_batches,
        "cost.pairs_per_batch": _ratio(trace.cost_pairs, trace.cost_batches),
        "selector.rounds": sum(s.rounds for s in selections),
        "selector.evaluate_s": phases.get("evaluate", 0.0),
        "selector.evaluate_us_per_call": _ratio(
            phases.get("evaluate", 0.0) * 1e6, calls
        ),
        "selector.plan_s": phases.get("plan", 0.0),
        "selector.split_s": phases.get("split", 0.0),
        "selector.ingest_s": phases.get("ingest", 0.0),
        "selector.draw_s": phases.get("draw", 0.0),
        # Selection wall time outside the named phases: checkpoint
        # writes, termination and elimination checks, result assembly.
        "selector.other_s": sum(s.wall_s for s in selections) - named,
        "selector.reeliminated": sum(s.reeliminated for s in selections),
        "progressive.splits": trace.splits,
        "checkpoint.writes": trace.checkpoint_writes,
        "checkpoint.s": trace.checkpoint_s,
        "checkpoint.bytes_per_write": _ratio(
            trace.checkpoint_bytes, trace.checkpoint_writes
        ),
        "checkpoint.bytes_per_call": _ratio(trace.checkpoint_bytes, calls),
        "service.retunes": retunes,
        "service.warm_share": _ratio(sum(r["warm"] for r in service), retunes),
        "service.carried_per_retune": _ratio(
            sum(r["carried"] for r in service), retunes
        ),
        "service.drift_checks": sum(r["drift_checks"] for r in service),
        "service.retune_s": retune_s,
        # Replay time outside retunes: ingest, drift checks, events and
        # service checkpoints.
        "service.loop_s": (
            sum(r["wall_s"] for r in service) - retune_s if service else 0.0
        ),
        "events.emitted": trace.events_emitted,
        "events.s": trace.events_s,
        "events.bytes": sum(r["event_bytes"] for r in service),
        "trace.overhead_pct": (run.wall_s / untraced_wall_s - 1.0) * 100.0,
    }
