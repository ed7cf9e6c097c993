#!/usr/bin/env python3
"""Repository benchmark: Table 3 selection, durable what-if selection and
drift-service replay, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload table3-crm-k50 --seed 1 \\
        --seconds 40 --trace 0

Workload names, metric names, units, bounds and each workload's
rationale are declared in ``BENCHMARK.json``; the workloads themselves
are in ``perfbench/workloads.py``.  Everything runs in this one process,
single-threaded (``REPRO_WORKERS=1``), as a closed loop.

``--trace 0`` times an untraced run and prints the end-to-end metrics.
``--trace 1`` makes the same untraced run, then a traced run of the same
operations, and prints the traced run's per-layer metrics, with
``trace.overhead_pct`` comparing the two runs' wall times.

Standard output ends with two JSON lines.  The first is the report:
context (git sha, source digest, CPU count, Python/NumPy/SciPy
versions, seeds), the set-up times, the untraced and traced wall times,
the decision digest and every selection's decision fingerprint, failure
reasons and decision defects, and figures that are not end-to-end
metrics here (``selections_per_s``, ``statements_per_s``,
``failed_share``, ``max_regret_pct``, ``retune_s_p50`` and
``retune_s_p90``).  The last line
is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
#: Scratch space for checkpoints and event logs, removed on exit.
SCRATCH = ROOT / ".perfbench"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha():
    """The checkout's commit, or ``None`` outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_sha256() -> str:
    """One hash over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def context(seeds) -> dict:
    import numpy
    import scipy

    nproc = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seeds": seeds,
    }


def end_to_end(run, setup_s, peak_rss_mb) -> dict:
    """End-to-end metrics of an untraced run, by ``BENCHMARK.json`` name.

    A selection is one run of the comparison primitive: a trial, or a
    retune in the service.  Speed is ``round_ms``, the measured wall time
    per selector round: a run's selections differ in rounds from seed to
    seed, so selections or statements per second mostly measure which
    trials the seed drew, while the time of a round tracks the code.
    """
    selections = run.selections
    audited = [s.correct for s in selections if s.correct is not None]
    rounds = sum(s.rounds for s in selections)
    if not selections or not audited or not rounds:
        raise RuntimeError("no selection completed; nothing to report")
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "round_ms": run.wall_s / rounds * 1e3,
        "calls_per_selection": (
            sum(s.calls for s in selections) / len(selections)
        ),
        "true_prcs": sum(audited) / len(audited),
    }


def secondary(run) -> dict:
    """Figures reported alongside the metrics, not as metrics."""
    walls = [s.wall_s for s in run.selections]
    regrets = [s.regret_pct for s in run.selections
               if s.regret_pct is not None]
    return {
        "selections_per_s": len(run.selections) / run.wall_s,
        "statements_per_s": (
            sum(statements for _, _, statements in run.operations)
            / run.wall_s
        ),
        "failed_share": run.failed / run.attempted,
        "max_regret_pct": max(regrets) if regrets else None,
        "retune_s_p50": statistics.median(walls) if walls else None,
        # A p90 needs ten samples beyond it.
        "retune_s_p90": (
            statistics.quantiles(walls, n=10)[-1] if len(walls) >= 100
            else None
        ),
        "selections": len(walls),
        "passes": run.passes,
        "audited": len(regrets),
        "reeliminated": sum(s.reeliminated for s in run.selections),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: needs {SRC / 'repro'} and {SPEC}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(why)}", file=sys.stderr)
        return 2
    # One process and one thread, and cold ground truth: no cost-source
    # pool and no matrix cache, so setup_s is the exhaustive what-if pass.
    os.environ["REPRO_WORKERS"] = "1"
    os.environ["REPRO_NO_CACHE"] = "1"
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    count = workload.operations(args.seconds)
    trace = tracing.LayerTrace() if args.trace else None
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=SCRATCH))
    try:
        setup_s = []
        with trace.patched() if trace is not None else nullcontext():
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                setup = workload.setup(args.seed)
                setup_s.append(time.perf_counter() - start)
        gc.collect()
        untraced = workloads.measure(workload, setup, args.seed, count,
                                     None, workdir, seconds=args.seconds)
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        traced = None
        if trace is not None:
            gc.collect()
            with trace.patched():
                traced = workloads.measure(workload, setup, args.seed,
                                           count, trace, workdir,
                                           passes=untraced.passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run's files are still in it

    failures = untraced.failures()
    if traced is None:
        declared, shown = spec["end_to_end"], untraced
        values = end_to_end(untraced, setup_s, peak_rss_mb)
    else:
        declared, shown = spec["per_layer"], traced
        values = tracing.layer_metrics(trace, traced, untraced.wall_s)
        failures += traced.failures()
        if traced.digest() != untraced.digest():
            failures.append("the traced run made different decisions")
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(values) != set(units):
        print(f"perfbench: measured {sorted(values)}, BENCHMARK.json "
              f"declares {sorted(units)}", file=sys.stderr)
        return 3
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
    report = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "context": context(workload.seeds(args.seed, count)),
        "setup_s": setup_s,
        "wall_s": {
            "untraced": untraced.wall_s,
            "traced": None if traced is None else traced.wall_s,
        },
        "missing_hooks": sorted(set(trace.missing_hooks)) if trace else [],
        "decisions": {
            "digest": untraced.digest(),
            "fingerprints": untraced.decisions,
        },
        "failures": failures,
        "defects": untraced.defects(),
        "secondary": secondary(untraced),
        "metrics": metrics,
    }
    print(json.dumps(report, default=float))
    print(json.dumps({
        "correct": not failures,
        "attempted": shown.attempted,
        "failed": shown.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
