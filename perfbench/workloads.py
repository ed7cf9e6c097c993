"""The benchmark's workloads: set-up, measured operations, checks.

Each workload is a closed loop inside one process: the next selection
(or service replay) starts only after the previous one returned.  Its
set-up is a fixed fixture that builds ground truth live; the seed drives
the randomness of the procedure being measured.

A run repeats passes over a fixed panel of operations: the first pass
always runs, and further passes run while the next one still fits in
``--seconds`` of measured time.  Every pass sees the same inputs, so
decisions and call counts repeat exactly at a given seed, and later
passes must decide exactly as the first.  ``operations(seconds)`` sizes
a panel so that one pass takes about ``seconds`` on a 2-CPU x86-64 box.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

import repro.optimizer.batch as batch
from repro.core import ConfigurationSelector, MatrixCostSource, SelectorOptions
from repro.experiments import crm_setup
from repro.experiments.profiling import PhaseTimer
from repro.optimizer import WhatIfOptimizer
from repro.physical import Configuration, build_pool, enumerate_configurations
from repro.service import EventLog, ServiceConfig, run_service
from repro.workload import Workload, tpcd_generator, tpcd_schema

from checks import (
    Selection,
    digest,
    judge_selection,
    retune_seconds,
    service_failures,
)

#: The Table 3 protocol as ``multi_config_table`` runs it.
TABLE3_OPTIONS = SelectorOptions(
    alpha=0.9, delta=0.0, n_min=30, consecutive=10, eliminate=True,
    reeval_every=4, batch_rounds=1,
)


def trial_seeds(seed: int, count: int) -> List[int]:
    """The per-selection RNG seeds of one run."""
    return [1000 * seed + i for i in range(count)]


@dataclass
class Run:
    """What the passes over a workload's operations measured."""

    selections: List[Selection] = field(default_factory=list)
    #: Seconds inside the measured operations.
    wall_s: float = 0.0
    #: ``(seconds, selections, statements)`` of each operation: a
    #: selection, or a whole service replay.
    operations: List[tuple] = field(default_factory=list)
    passes: int = 0
    #: The first pass's decision fingerprints.
    decisions: Optional[list] = None
    #: Passes whose decisions differ from the first pass's.
    mismatches: List[str] = field(default_factory=list)
    #: Service replays made.  Each is an operation of its own, whose
    #: event log and checkpoint are checked.
    replays: int = 0
    #: One entry per replay that raised or whose artefacts failed a check.
    replay_failures: List[str] = field(default_factory=list)
    #: Per-replay service counters.
    service: List[dict] = field(default_factory=list)

    def add_selection(self, record: Selection, statements: int) -> None:
        """Record a selection that is an operation of its own."""
        self.selections.append(record)
        self.wall_s += record.wall_s
        self.operations.append((record.wall_s, 1, statements))

    @property
    def attempted(self) -> int:
        return len(self.selections) + self.replays

    @property
    def failed(self) -> int:
        failed = sum(1 for s in self.selections if s.failures or s.defects)
        return failed + len(self.replay_failures)

    def failures(self) -> List[str]:
        """Why measurements cannot be trusted: selections, replays, passes."""
        reasons = [f for s in self.selections for f in s.failures]
        return reasons + self.replay_failures + self.mismatches

    def defects(self) -> List[str]:
        """Wrong answers the selections reported with confidence."""
        return [d for s in self.selections for d in s.defects]

    def digest(self) -> str:
        """One hash over the first pass's decisions."""
        return digest(self.decisions or [])


def measure(workload, setup, seed: int, count: int, trace, workdir: Path,
            seconds: Optional[float] = None,
            passes: Optional[int] = None) -> Run:
    """Repeat passes over ``count`` operations of ``workload``.

    Without ``passes``, passes continue while the next one, as long as
    the last, still fits in ``seconds`` of measured time.  A traced run
    is given the untraced run's pass count, so both time the same work.
    """
    run = Run()
    while True:
        first, before = len(run.selections), run.wall_s
        workload.run_pass(setup, seed, count, trace, workdir, run)
        decisions = [s.fingerprint for s in run.selections[first:]]
        if run.decisions is None:
            run.decisions = decisions
        elif decisions != run.decisions:
            run.mismatches.append(
                f"pass {run.passes} decided differently from pass 0"
            )
        run.passes += 1
        if passes is not None:
            if run.passes >= passes:
                return run
        elif run.wall_s + (run.wall_s - before) > seconds:
            return run


def _select(source, template_ids, options, seed, trace,
            totals) -> Selection:
    """Run one selection to termination and judge its result."""
    timer = PhaseTimer() if trace is not None else None
    measured = trace.source(source) if trace is not None else source
    start = time.perf_counter()
    try:
        result = ConfigurationSelector(
            measured, template_ids, options,
            rng=np.random.default_rng(seed), timer=timer,
        ).run()
    except Exception as exc:  # a failed operation, not a failed run
        traceback.print_exc()
        return Selection(
            wall_s=time.perf_counter() - start, failures=[f"raised {exc!r}"]
        )
    wall_s = time.perf_counter() - start
    if trace is not None:
        trace.add_phases(timer.as_dict())
    return judge_selection(result, source.calls, wall_s, totals,
                           options.delta)


class Table3:
    """Table 3 Monte Carlo trials over the live-built CRM k=50 matrix."""

    name = "table3-crm-k50"
    #: Seconds one selection takes on the reference box.
    nominal_s = 2.1

    def operations(self, seconds: float) -> int:
        return max(2, round(seconds / self.nominal_s))

    def seeds(self, seed: int, count: int) -> List[int]:
        return trial_seeds(seed, count)

    def setup(self, seed: int):
        # A fixed fixture, as in the paper's tables: the seed picks the
        # trials, not the matrix.
        return crm_setup(n_queries=2_000, k=50, seed=0)

    def run_pass(self, setup, seed: int, count: int, trace, workdir: Path,
                 run: Run) -> None:
        for trial in trial_seeds(seed, count):
            record = _select(
                MatrixCostSource(setup.matrix), setup.workload.template_ids,
                TABLE3_OPTIONS, trial, trace, setup.true_totals,
            )
            run.add_selection(record, setup.workload.size)


#: Service knobs: warm retunes over a 400-statement window, at most one
#: retune per 200 statements, drift threshold 0.04.  The relative
#: invalidation tolerance is the replay experiment's.
WINDOW = 400
SERVICE_KNOBS = dict(
    window_size=WINDOW, cooldown=200, drift_threshold=0.04,
    invalidate_rel_tol=0.5, warm=True,
)
TRACE_SIZE = 40_000
FLIP_EVERY = 800
#: Retunes of the first replay audited against their snapshot's
#: exhaustive costs.
AUDITS = 8


def flip_trace(generator, n: int, period: int,
               rng: np.random.Generator) -> Workload:
    """A trace whose template mix flips between two mixes every ``period``.

    The partial rotation of ``repro.experiments.replay``: a stable core of
    templates keeps its share while two groups of movers swap hot and
    cold, so warm retunes both carry and invalidate samples.
    """
    templates = generator.templates
    count = len(templates)
    core = max(2, count // 3)
    movers = max(1, count // 6)
    rest = count - core - 2 * movers
    mix_a = np.array([1.0] * core + [1.0] * movers + [0.05] * movers
                     + [0.05] * rest)
    mix_b = np.array([1.0] * core + [0.05] * movers + [1.0] * movers
                     + [0.05] * rest)
    mixes = (mix_a / mix_a.sum(), mix_b / mix_b.sum())
    queries, names = [], []
    for start in range(0, n, period):
        picks = rng.choice(count, size=min(period, n - start),
                           p=mixes[(start // period) % 2])
        for pick in picks:
            template = templates[int(pick)]
            queries.append(generator.instantiate(template, rng))
            names.append(template.name)
    return Workload(queries, template_names=names)


@dataclass
class ServeFixture:
    """A drifting trace, its candidates and the service's selector knobs."""

    schema: object
    trace: Workload
    configurations: list
    options: SelectorOptions


class Serve:
    """Replays of ``run_service`` over a flipping TPC-D trace."""

    name = "serve-tpcd-flip"
    #: Seconds one replay takes on the reference box.
    nominal_s = 4.5

    def operations(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_s))

    def seeds(self, seed: int, count: int) -> List[list]:
        return [[seed, index] for index in range(count)]

    def setup(self, seed: int) -> ServeFixture:
        # A fixed trace, like the other fixtures: the seed drives the
        # service's reservoirs and retune draws, not the statements.
        schema = tpcd_schema()
        generator = tpcd_generator(schema=schema)
        rng = np.random.default_rng(0)
        trace = flip_trace(generator, TRACE_SIZE, FLIP_EVERY, rng)
        optimizer = WhatIfOptimizer(schema)
        pool = build_pool(trace.queries[:300], optimizer)
        configurations = enumerate_configurations(pool, 8, rng)
        # delta is 2% of a window's cost, as in the replay experiment:
        # near-ties are not worth a retune's calls.
        pilot = trace.subset(range(200))
        per_statement = pilot.total_cost(
            optimizer, Configuration(name="pilot-base")
        ) / pilot.size
        options = SelectorOptions(delta=0.02 * per_statement * WINDOW,
                                  n_min=15)
        return ServeFixture(schema, trace, configurations, options)

    def run_pass(self, setup: ServeFixture, seed: int, count: int, trace,
                 workdir: Path, run: Run) -> None:
        # Each replay of a pass draws from its own stream, so a run's
        # median covers several draws of the service's randomness.
        for index, stream in enumerate(self.seeds(seed, count)):
            records, info, failures = self._replay(
                setup, stream, f"{run.passes}-{index}", trace, workdir,
                audit=run.passes == 0 and index == 0,
            )
            run.selections.extend(records)
            run.wall_s += info["wall_s"]
            run.operations.append(
                (info["wall_s"], len(records), setup.trace.size)
            )
            run.replays += 1
            run.service.append(info)
            if failures:
                run.replay_failures.append(
                    f"replay {stream}: " + "; ".join(failures)
                )

    def _replay(self, setup: ServeFixture, stream: list, name: str, trace,
                workdir: Path, audit: bool):
        events_path = workdir / f"events-{name}.jsonl"
        checkpoint_path = workdir / f"service-{name}.json"
        optimizer = WhatIfOptimizer(setup.schema)
        if trace is not None:
            trace.optimizer(optimizer)
        events = (
            trace.event_log(str(events_path)) if trace is not None
            else EventLog(str(events_path))
        )
        snapshots, first_calls = [], []

        def observe(source):
            # The session builds one cost source per retune.  Keep its
            # snapshot for the audit and the optimizer's counter, which
            # gives each retune's own call count; the source is unchanged.
            snapshots.append(source.workload)
            first_calls.append(optimizer.calls)
            return trace.source(source) if trace is not None else source

        config = ServiceConfig(checkpoint_path=str(checkpoint_path),
                               **SERVICE_KNOBS)
        start = time.perf_counter()
        try:
            report = run_service(
                setup.trace, setup.configurations, optimizer,
                config=config, options=setup.options, events=events,
                rng=np.random.default_rng(stream), fault_injector=observe,
            )
        except Exception as exc:  # a failed replay, not a failed run
            traceback.print_exc()
            info = dict(retunes=0, warm=0, carried=0, drift_checks=0,
                        wall_s=time.perf_counter() - start, event_bytes=0)
            return [], info, [f"raised {exc!r}"]
        finally:
            events.close()
        wall_s = time.perf_counter() - start

        latencies = retune_seconds(
            (event["kind"], event["ts"]) for event in events.events
        )
        ends = first_calls[1:] + [optimizer.calls]
        auditor = WhatIfOptimizer(setup.schema) if audit else None
        step = max(1, len(report.retunes) // AUDITS)
        records = []
        for i, outcome in enumerate(report.retunes):
            latency = latencies[i] if i < len(latencies) else 0.0
            if outcome.selection is None:
                records.append(Selection(
                    wall_s=latency,
                    failures=[f"retune failed: {outcome.error}"],
                ))
                continue
            totals = None
            if auditor is not None and i % step == 0:
                totals = batch.cost_matrix(
                    snapshots[i], setup.configurations, auditor
                ).sum(axis=0)
            records.append(judge_selection(
                outcome.selection, ends[i] - first_calls[i], latency,
                totals, setup.options.delta,
            ))
        if trace is not None:
            trace.count_optimizer(optimizer)
            for outcome in report.retunes:
                trace.add_phases(outcome.phase_seconds)
        failures = service_failures(
            str(events_path), str(checkpoint_path), setup.trace.size
        )
        info = dict(
            retunes=report.retune_count,
            warm=sum(outcome.warm for outcome in report.retunes),
            carried=sum(o.carried_samples for o in report.retunes),
            drift_checks=report.drift_checks,
            wall_s=wall_s,
            event_bytes=events_path.stat().st_size,
        )
        events_path.unlink()
        checkpoint_path.unlink(missing_ok=True)
        return records, info, failures


WORKLOADS = {w.name: w for w in (Table3(), Serve())}
