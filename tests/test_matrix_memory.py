"""Ground truth in bounded memory.

The serial matrix builder drops the optimizer's query-keyed plan-search
memos after every row, and column statistics keep only their histogram.
Neither may change a number:

* ``cost_matrix`` equals a naive per-cell ``optimizer.cost`` loop on a
  fresh optimizer (configuration-major, memos never dropped) bit for
  bit, with equal ``calls``, ``cache_hits`` and ``fingerprint_hits``;
* no plan-search memo holds an earlier query's entry once its row is
  done;
* the N=2000, k=50, seed-0 CRM and TPC-D set-ups hash as pinned;
* a ``ColumnStatistics`` over a million-value column retains
  ``O(buckets)`` memory and the same buckets as before.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.catalog import Column, ColumnStatistics, Histogram
from repro.catalog.zipf import zipf_pmf
from repro.experiments.configs import crm_setup, tpcd_setup
from repro.optimizer import WhatIfOptimizer
from repro.optimizer import batch
from repro.optimizer.batch import cost_matrix_with_stats
from repro.physical import build_pool, enumerate_configurations
from repro.workload.crm import crm_generator, crm_schema
from repro.workload.tpcd import tpcd_generator, tpcd_schema

#: The optimizer's query-keyed plan-search memos.
PLAN_MEMOS = (
    "_plan_memo", "_tbl_ctx", "_path_memo", "_noview_memo", "_view_cand",
    "_view_inter", "_join_ctx", "_fp_refined", "_join_cols",
    "_select_parts",
)


def _tpcd_field(seed):
    schema = tpcd_schema(scale_factor=0.05)
    workload = tpcd_generator(schema=schema, include_dml=True).generate(
        150, np.random.default_rng(seed)
    )
    return schema, workload


def _crm_field(seed):
    schema = crm_schema(seed=3)
    workload = crm_generator(schema=schema).generate(
        120, np.random.default_rng(seed)
    )
    return schema, workload


def _configurations(schema, workload, seed, k=8):
    pool = build_pool(
        workload.queries[:60], WhatIfOptimizer(schema), include_views=True
    )
    return enumerate_configurations(
        pool, k, np.random.default_rng(seed + 100),
        min_indexes=1, max_indexes=6,
    )


FIELDS = [
    pytest.param(_tpcd_field, 0, id="tpcd-0"),
    pytest.param(_tpcd_field, 1, id="tpcd-1"),
    pytest.param(_crm_field, 7, id="crm-7"),
]


@pytest.mark.parametrize("field, seed", FIELDS)
def test_build_equals_naive_per_cell_loop(field, seed):
    schema, workload = field(seed)
    configs = _configurations(schema, workload, seed)
    queries = workload.queries
    naive_opt = WhatIfOptimizer(schema)
    naive = np.empty((len(queries), len(configs)))
    for ci, config in enumerate(configs):
        for qi, query in enumerate(queries):
            naive[qi, ci] = naive_opt.cost(query, config)

    built_opt = WhatIfOptimizer(schema)
    built, stats = cost_matrix_with_stats(workload, configs, built_opt)

    assert built.tobytes() == naive.tobytes()
    counters = (naive_opt.calls, naive_opt.cache_hits,
                naive_opt.fingerprint_hits)
    assert (built_opt.calls, built_opt.cache_hits,
            built_opt.fingerprint_hits) == counters
    assert (stats.optimizer_calls, stats.cache_hits,
            stats.fingerprint_hits) == counters
    # Only the plan-search memos go; the result caches are kept whole.
    assert len(built_opt._cache) == len(naive_opt._cache)
    assert len(built_opt._fp_cache) == len(naive_opt._fp_cache)


@pytest.mark.parametrize("field, seed", FIELDS)
def test_no_memo_outlives_its_row(field, seed):
    schema, workload = field(seed)
    configs = _configurations(schema, workload, seed, k=4)
    optimizer = WhatIfOptimizer(schema)
    cost = optimizer.cost
    queries = list(workload.queries)
    at_row_start, mid_row = [], []

    def watched(query, config):
        memos = {name: len(getattr(optimizer, name)) for name in PLAN_MEMOS}
        if config is configs[0]:
            at_row_start.append(memos)
        else:
            mid_row.append(memos)
        return cost(query, config)

    optimizer.cost = watched
    cost_matrix_with_stats(queries, configs, optimizer, workers=1)

    assert len(at_row_start) == len(queries)
    # Each row starts with no entry of an earlier query ...
    assert all(not any(memos.values()) for memos in at_row_start)
    # ... while within a row the memos do their work,
    assert any(any(memos.values()) for memos in mid_row)
    # and none is left once the build ends.
    assert not any(len(getattr(optimizer, name)) for name in PLAN_MEMOS)


#: SHA-256 of the matrix and the build's (calls, cache_hits,
#: fingerprint_hits) for the N=2000, k=50, seed-0 set-ups.
PINS = {
    "crm": (
        crm_setup,
        "6ed955429e5edff7f847a1caf26511971f25fd78fdaf8a54460202555423cd3e",
        (81200, 18800, 68215),
    ),
    "tpcd": (
        tpcd_setup,
        "082c3d8d5fd8694488396072842d8c1c40629f134aefd513af1026d24e7362a6",
        (83900, 16100, 42543),
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_k50_setups_hash_as_pinned(name, monkeypatch):
    setup_fn, digest, counters = PINS[name]
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    builds = []

    def recorded(workload, configurations, optimizer, **kwargs):
        matrix, stats = cost_matrix_with_stats(
            workload, configurations, optimizer, **kwargs
        )
        builds.append(stats)
        return matrix

    monkeypatch.setattr(batch, "cost_matrix", recorded)
    setup = setup_fn(n_queries=2_000, k=50, seed=0)
    assert len(builds) == 1
    stats = builds[0]
    assert setup.matrix.shape == (2_000, 50)
    assert hashlib.sha256(setup.matrix.tobytes()).hexdigest() == digest
    assert (stats.optimizer_calls, stats.cache_hits,
            stats.fingerprint_hits) == counters


class TestColumnStatisticsMemory:
    N = 1_000_000
    THETA = 1.0

    def test_retains_only_buckets(self):
        column = Column("wide", distinct_count=self.N, zipf_theta=self.THETA)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stats = ColumnStatistics(column)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # The pmf alone is 8 MB; 32 buckets need a few KB.
        assert retained < 64 * 1024
        assert stats.histogram.buckets

    def test_buckets_match_the_pmf_histogram(self):
        column = Column("wide", distinct_count=self.N, zipf_theta=self.THETA)
        stats = ColumnStatistics(column, bucket_count=32)
        expected = Histogram(zipf_pmf(self.N, self.THETA), bucket_count=32)
        assert stats.histogram.buckets == expected.buckets

    def test_exact_selectivities_match_the_pmf(self):
        n, theta = 5_000, 0.8
        stats = ColumnStatistics(
            Column("c", distinct_count=n, zipf_theta=theta)
        )
        pmf = zipf_pmf(n, theta)
        cdf = np.cumsum(pmf)
        for value in (0, 1, 17, n - 1):
            assert stats.exact_eq(value) == float(pmf[value])
        assert stats.exact_eq(n) == 0.0
        assert stats.exact_range(3, 40) == float(cdf[40]) - float(cdf[2])
        assert stats.exact_range(0, n + 5) == float(cdf[n - 1])
