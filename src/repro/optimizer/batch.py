"""Batched ground-truth cost-matrix construction.

Monte Carlo experiments (Section 7) replay selection runs against an
``N x k`` matrix of true costs — computing it is exactly the exhaustive
what-if evaluation the paper's primitive avoids, and the slowest step
of every benchmark setup.  :func:`cost_matrix` builds that matrix by
sweeping the configurations for one query at a time (column-major
across the configuration axis): consecutive evaluations share the
query, so the optimizer's fingerprint cache collapses every group of
configurations with the same query-relevant projection into a single
plan search, and the access-path memo shares per-table work between
the remaining groups.

Paper accounting is preserved exactly: every ``(query, configuration)``
cell still counts as one optimizer call (``optimizer.calls`` rises by
``N * k`` for a fresh build); fingerprint sharing only buys wall time.

Plan-search memory is bounded by one query's: the serial sweep never
returns to a query after its row, so it drops the optimizer's
query-keyed plan-search memos after each row
(:meth:`~repro.optimizer.whatif.WhatIfOptimizer.drop_plan_memos`).
The pair and fingerprint caches stay, so every cell and every counter
is what an undropped build gives.  Kept for every query, the memos
grew to gigabytes on paper-size builds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..physical.configuration import Configuration
from ..queries.ast import Query
from .whatif import WhatIfOptimizer

__all__ = ["MatrixBuildStats", "cost_matrix", "cost_matrix_with_stats"]

#: Progress callback signature: ``(queries_done, queries_total)``.
ProgressFn = Callable[[int, int], None]


@dataclass(frozen=True)
class MatrixBuildStats:
    """Instrumentation of one matrix build.

    ``optimizer_calls`` is the paper metric (distinct evaluations);
    ``fingerprint_hits`` of them were served from the fingerprint cache
    and cost no plan search.
    """

    n_queries: int
    n_configs: int
    wall_seconds: float
    optimizer_calls: int
    cache_hits: int
    fingerprint_hits: int

    @property
    def cells(self) -> int:
        """Matrix size ``N * k``."""
        return self.n_queries * self.n_configs

    @property
    def cells_per_second(self) -> float:
        """Build throughput."""
        return self.cells / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def fingerprint_hit_rate(self) -> float:
        """Fraction of optimizer calls served by the fingerprint layer."""
        if self.optimizer_calls == 0:
            return 0.0
        return self.fingerprint_hits / self.optimizer_calls

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly summary (used in benchmark output)."""
        return {
            "n_queries": self.n_queries,
            "n_configs": self.n_configs,
            "cells": self.cells,
            "wall_seconds": self.wall_seconds,
            "cells_per_second": self.cells_per_second,
            "optimizer_calls": self.optimizer_calls,
            "cache_hits": self.cache_hits,
            "fingerprint_hits": self.fingerprint_hits,
            "fingerprint_hit_rate": self.fingerprint_hit_rate,
        }


def _queries_of(workload) -> Sequence[Query]:
    """Accept a Workload or any sequence of queries."""
    return getattr(workload, "queries", workload)


def cost_matrix_with_stats(
    workload,
    configurations: Sequence[Configuration],
    optimizer: WhatIfOptimizer,
    progress: Optional[ProgressFn] = None,
    progress_every: int = 100,
    workers: Optional[int] = None,
) -> Tuple[np.ndarray, MatrixBuildStats]:
    """Build the ``N x k`` ground-truth matrix, returning build stats.

    Parameters
    ----------
    workload:
        A :class:`repro.workload.workload.Workload` or a plain sequence
        of queries.
    configurations:
        The candidate configurations (matrix columns, in order).
    optimizer:
        The what-if optimizer; its caches persist across calls, so
        rebuilding an overlapping matrix is cheap.
    progress:
        Optional ``(queries_done, queries_total)`` callback, invoked
        every ``progress_every`` queries and once at the end.
    workers:
        Process-pool size for the plan searches, resolved like
        :func:`repro.core.sources.resolve_cost_workers` (``None``
        defers to ``REPRO_WORKERS``, default serial).  With more than
        one worker the build runs through
        :meth:`~repro.core.sources.OptimizerCostSource.cost_many` in
        query stripes; call counters and cell values are identical to
        the serial sweep.
    """
    queries = _queries_of(workload)
    configs = list(configurations)
    n, k = len(queries), len(configs)
    matrix = np.empty((n, k), dtype=np.float64)
    calls0 = optimizer.calls
    hits0 = optimizer.cache_hits
    fp0 = optimizer.fingerprint_hits
    start = time.perf_counter()

    from ..core.sources import OptimizerCostSource, resolve_cost_workers

    if resolve_cost_workers(workers) > 1 and n * k > 0:
        source = OptimizerCostSource(
            workload, configs, optimizer, workers=workers
        )
        try:
            stripe = max(1, progress_every)
            cols = np.arange(k, dtype=np.int64)
            for lo in range(0, n, stripe):
                hi = min(lo + stripe, n)
                rows = np.arange(lo, hi, dtype=np.int64)
                pairs = np.stack(
                    [np.repeat(rows, k), np.tile(cols, hi - lo)], axis=1
                )
                matrix[lo:hi] = source.cost_many(pairs).reshape(
                    hi - lo, k
                )
                if progress is not None and hi < n:
                    progress(hi, n)
        finally:
            source.close()
    else:
        cost = optimizer.cost
        for qi, query in enumerate(queries):
            row = matrix[qi]
            for ci, config in enumerate(configs):
                row[ci] = cost(query, config)
            optimizer.drop_plan_memos()
            if progress is not None and (qi + 1) % progress_every == 0:
                progress(qi + 1, n)
    wall = time.perf_counter() - start
    if progress is not None:
        progress(n, n)
    stats = MatrixBuildStats(
        n_queries=n,
        n_configs=k,
        wall_seconds=wall,
        optimizer_calls=optimizer.calls - calls0,
        cache_hits=optimizer.cache_hits - hits0,
        fingerprint_hits=optimizer.fingerprint_hits - fp0,
    )
    return matrix, stats


def cost_matrix(
    workload,
    configurations: Sequence[Configuration],
    optimizer: WhatIfOptimizer,
    progress: Optional[ProgressFn] = None,
    progress_every: int = 100,
    workers: Optional[int] = None,
) -> np.ndarray:
    """Build the ``N x k`` ground-truth matrix (stats discarded)."""
    matrix, _stats = cost_matrix_with_stats(
        workload, configurations, optimizer,
        progress=progress, progress_every=progress_every,
        workers=workers,
    )
    return matrix
