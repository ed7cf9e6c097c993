"""Output checks: which measured operations failed, and why.

An operation fails when it raises, or when its result contradicts itself
or the ground truth in a way no statistical tolerance excuses:

* its ``best_index`` is in its own ``eliminated`` list;
* it ended ``terminated_by="exhausted"`` -- a census, reported with
  Pr(CS) = 1 -- yet picked a configuration more than delta above the
  true best;
* the chosen configuration's estimate is not finite;
* its ``optimizer_calls`` differs from the cost source's own counter;
* (service) the event log is not gapless, ``retune_start`` and
  ``retune_end`` events do not pair up, or the service checkpoint does
  not load.

The first two are decision defects: wrong answers the selector reports
with confidence.  They are kept apart from the rest, which say that a
measurement cannot be trusted, because the selector still makes them
(see ``test_checker.py``): a run counts them as failed operations but
stays ``correct``.

A wrong pick by a run that stopped on Pr(CS) > alpha is not a failure:
that is what ``true_prcs`` measures.  Duplicate entries in
``eliminated`` are counted (``Selection.reeliminated``), not failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.service import load_service_checkpoint, read_events

#: Event kinds that close a ``retune_start``.
RETUNE_ENDS = ("retune_end", "retune_failed")


@dataclass
class Selection:
    """One selection run -- a retune, in the service -- as measured."""

    wall_s: float
    calls: int = 0
    #: Reasons the measurement cannot be trusted.
    failures: List[str] = field(default_factory=list)
    #: Wrong answers reported with confidence.
    defects: List[str] = field(default_factory=list)
    #: Whether the pick is within delta of the exhaustive best; ``None``
    #: when the run was not audited against ground truth.
    correct: Optional[bool] = None
    regret_pct: Optional[float] = None
    rounds: int = 0
    reeliminated: int = 0
    fingerprint: Optional[dict] = None


def fingerprint(result) -> dict:
    """The decisions of one selection run, exactly."""
    return {
        "best": int(result.best_index),
        "calls": int(result.optimizer_calls),
        "prcs": float(result.prcs).hex(),
        "terminated_by": result.terminated_by,
        "eliminated": [int(j) for j in result.eliminated],
    }


def digest(fingerprints: Sequence[Optional[dict]]) -> str:
    """One SHA-256 over a sequence of decision fingerprints."""
    blob = json.dumps(list(fingerprints), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def judge_selection(
    result,
    source_calls: int,
    wall_s: float,
    totals: Optional[np.ndarray] = None,
    delta: float = 0.0,
) -> Selection:
    """Check one ``SelectionResult``.

    ``source_calls`` is the cost source's own call counter for the run;
    ``totals`` are the exhaustive per-configuration workload costs, when
    the run is audited against ground truth.
    """
    best = int(result.best_index)
    failures, defects = [], []
    if best in result.eliminated:
        defects.append(f"best_index {best} is in its own eliminated list")
    if not math.isfinite(float(result.estimates[best])):
        failures.append(f"the estimate of best_index {best} is not finite")
    if int(result.optimizer_calls) != int(source_calls):
        failures.append(
            f"optimizer_calls {result.optimizer_calls} differs from the "
            f"source's counter {source_calls}"
        )
    record = Selection(
        wall_s=wall_s,
        calls=int(result.optimizer_calls),
        failures=failures,
        defects=defects,
        rounds=len(result.history),
        reeliminated=len(result.eliminated) - len(set(result.eliminated)),
        fingerprint=fingerprint(result),
    )
    if totals is not None:
        truth = float(np.min(totals))
        gap = float(totals[best]) - truth
        # Floating-point equality at the minimum counts as correct, as in
        # the Monte Carlo tables.
        record.correct = gap <= delta + 1e-9 * max(1.0, abs(truth))
        record.regret_pct = gap / truth * 100.0
        if result.terminated_by == "exhausted" and not record.correct:
            defects.append(
                f"census (terminated_by='exhausted', Pr(CS) "
                f"{result.prcs:g}) picked {best}, "
                f"{record.regret_pct:.2f}% above the true best "
                f"{int(np.argmin(totals))}"
            )
    return record


def retune_seconds(marks: Iterable[Tuple[str, float]]) -> List[float]:
    """Seconds from each ``retune_start`` to the event that closes it.

    ``marks`` are ``(kind, time)`` pairs in emission order.
    """
    seconds = []
    start = None
    for kind, at in marks:
        if kind == "retune_start":
            start = at
        elif kind in RETUNE_ENDS and start is not None:
            seconds.append(at - start)
            start = None
    return seconds


def service_failures(
    events_path: str, checkpoint_path: str, statements: int
) -> List[str]:
    """Checks of one service replay's event log and checkpoint."""
    failures = []
    try:
        events = read_events(events_path)
    except (OSError, ValueError) as exc:
        failures.append(f"event log unreadable: {exc}")
        events = []
    if [event.get("seq") for event in events] != list(range(len(events))):
        failures.append("event log seq does not run 0, 1, 2, ... without gaps")
    unpaired = 0
    open_retune = False
    for event in events:
        if event["kind"] == "retune_start":
            unpaired += open_retune
            open_retune = True
        elif event["kind"] in RETUNE_ENDS:
            unpaired += not open_retune
            open_retune = False
    unpaired += open_retune
    if unpaired:
        failures.append(f"{unpaired} unpaired retune_start/retune_end events")
    try:
        state = load_service_checkpoint(checkpoint_path)
    except ValueError as exc:
        failures.append(f"service checkpoint unreadable: {exc}")
    else:
        if state is None:
            failures.append("no service checkpoint was written")
        elif int(state["position"]) != statements:
            failures.append(
                f"service checkpoint is at position {state['position']}, "
                f"the trace has {statements} statements"
            )
    return failures
