"""The dense Delta-Sampling store against the scalar estimators it replaced.

:class:`repro.core.DeltaState` keeps the shared sample in one dense cost
store and evaluates every total and every pair in whole-array passes.
The oracle below is the scalar implementation those passes replaced:
per-configuration cost lists, a per-pair dict of per-template moments
caught up template by template, per-configuration and per-pair pooling
loops over strata, and ``norm.cdf`` per pair.  Fed the same ingests,
both must agree bit for bit — totals, pooled pair moments, pair
estimates and pairwise ``Pr(CS)`` — under random ingest sequences,
eliminations and rejoins (shorter or gapped aligned prefixes), splits,
warm ``import_samples``, ``state_dict``/``restore_state`` round trips
and both ``estimator=`` modes.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Tuple

import numpy as np
import pytest
from scipy.stats import norm

from repro.core import (
    ConfigurationSelector,
    DeltaState,
    IndependentState,
    MatrixCostSource,
    SelectorOptions,
    Stratification,
)
from repro.core.prcs import bonferroni, pairwise_prcs, pairwise_prcs_many


# ----------------------------------------------------------------------
# the scalar oracle
# ----------------------------------------------------------------------
def oracle_prcs(gap: float, variance: float, delta: float = 0.0) -> float:
    margin = gap + delta
    if math.isinf(variance):
        return 0.0
    if variance <= 0.0:
        if margin > 0:
            return 1.0
        if margin < 0:
            return 0.0
        return 0.5
    return float(norm.cdf(margin / math.sqrt(variance)))


class OracleDelta:
    """Per-config cost lists and per-pair template moments, scalar."""

    def __init__(self, k: int, n_templates: int, estimator: str) -> None:
        self.k = k
        self.estimator = estimator
        self.count = np.zeros((k, n_templates), dtype=np.int64)
        self.mean = np.zeros((k, n_templates))
        self.m2 = np.zeros((k, n_templates))
        self.buffers: List[List[List[float]]] = [
            [[] for _ in range(n_templates)] for _ in range(k)
        ]
        self.touched: set = set()
        self.pairs: Dict[Tuple[int, int], List[np.ndarray]] = {}

    def add(self, c: int, t: int, v: float) -> None:
        n = self.count[c, t] + 1
        self.count[c, t] = n
        delta = v - self.mean[c, t]
        self.mean[c, t] += delta / n
        self.m2[c, t] += delta * (v - self.mean[c, t])
        self.buffers[c][t].append(v)

    def ingest(self, t: int, active, values) -> None:
        self.touched.add(t)
        for c, v in zip(active, values):
            self.add(c, t, float(v))

    def load(self, samples: Dict[int, List[List[float]]]) -> None:
        """Warm import / restore: every list replayed per cell."""
        for t, per_config in samples.items():
            for c, values in enumerate(per_config):
                for v in values:
                    self.add(c, int(t), float(v))
            self.touched.add(int(t))

    # -- totals -------------------------------------------------------
    def pool(self, c: int, strat: Stratification):
        L = strat.stratum_count
        n = np.zeros(L, dtype=np.int64)
        mean = np.zeros(L)
        var = np.zeros(L)
        counts, means, m2s = self.count[c], self.mean[c], self.m2[c]
        total_n = int(counts.sum())
        if total_n >= 2:
            overall = float((counts * means).sum() / total_n)
            fallback_var = float(
                (m2s + counts * (means - overall) ** 2).sum()
            ) / (total_n - 1)
        else:
            fallback_var = 0.0
        for h in range(L):
            tids = strat.tid_arrays[h]
            cnt = counts[tids]
            n_h = int(cnt.sum())
            n[h] = n_h
            if n_h == 0:
                mean[h] = np.nan
                var[h] = np.inf
                continue
            m_h = float((cnt * means[tids]).sum() / n_h)
            m2_h = (
                float((m2s[tids] + cnt * (means[tids] - m_h) ** 2).sum())
                if n_h >= 2 else 0.0
            )
            mean[h] = m_h
            var[h] = m2_h / (n_h - 1) if n_h >= 2 else fallback_var
        return n, mean, var

    @staticmethod
    def stratified(n, mean, var, strat: Stratification):
        sizes = strat.sizes.astype(np.float64)
        total = 0.0
        variance = 0.0
        observed = n > 0
        fallback_mean = (
            float(np.average(mean[observed], weights=sizes[observed]))
            if observed.any() else 0.0
        )
        for h in range(strat.stratum_count):
            size = sizes[h]
            if n[h] == 0:
                total += size * fallback_mean
                variance = float("inf")
                continue
            total += size * mean[h]
            if size > 1 and var[h] > 0:
                fpc = max(0.0, 1.0 - n[h] / size)
                variance += size * size * var[h] / n[h] * fpc
        return total, variance

    def estimate_total(self, c: int, strat: Stratification):
        return self.stratified(*self.pool(c, strat), strat)

    # -- pairs --------------------------------------------------------
    def pair(self, l: int, j: int):
        lo, hi = (l, j) if l < j else (j, l)
        T = self.count.shape[1]
        pd = self.pairs.setdefault(
            (lo, hi),
            [np.zeros(T, dtype=np.int64), np.zeros(T), np.zeros(T)],
        )
        counts, means, m2s = pd
        for t in self.touched:
            m = min(len(self.buffers[lo][t]), len(self.buffers[hi][t]))
            if m == counts[t]:
                continue
            lo_vals, hi_vals = self.buffers[lo][t], self.buffers[hi][t]
            if self.estimator == "welford":
                n, mean, m2 = int(counts[t]), float(means[t]), float(m2s[t])
                for i in range(n, m):
                    d = lo_vals[i] - hi_vals[i]
                    n += 1
                    delta = d - mean
                    mean += delta / n
                    m2 += delta * (d - mean)
                counts[t], means[t], m2s[t] = n, mean, m2
            else:
                diff = (np.asarray(lo_vals[:m], dtype=np.float64)
                        - np.asarray(hi_vals[:m], dtype=np.float64))
                counts[t] = m
                mu = diff.mean()
                means[t] = float(mu)
                m2s[t] = float(((diff - mu) ** 2).sum()) if m >= 2 else 0.0
        return pd, (1.0 if l == lo else -1.0)

    def diff_template_moments(self, l: int, j: int):
        (counts, means, m2s), sign = self.pair(l, j)
        return counts, (-means if sign < 0 else means), m2s

    def pair_stratum_moments(self, l: int, j: int, strat: Stratification):
        (counts, means, m2s), sign = self.pair(l, j)
        out = []
        for h in range(strat.stratum_count):
            tids = strat.tid_arrays[h]
            c = counts[tids]
            n_h = int(c.sum())
            if n_h == 0:
                out.append((0, 0.0, 0.0))
                continue
            m_h = float((c * means[tids]).sum() / n_h)
            m2_h = (
                float((m2s[tids] + c * (means[tids] - m_h) ** 2).sum())
                if n_h >= 2 else 0.0
            )
            out.append((n_h, sign * m_h, m2_h))
        return out

    def pair_estimate(self, l: int, j: int, strat: Stratification):
        (counts, means, m2s), _sign = self.pair(l, j)
        total_n = int(counts.sum())
        if total_n >= 2:
            overall = float((counts * means).sum() / total_n)
            fallback_var = float(
                (m2s + counts * (means - overall) ** 2).sum()
            ) / (total_n - 1)
        else:
            fallback_var = 0.0
        sizes = strat.sizes.astype(np.float64)
        estimate = 0.0
        variance = 0.0
        observed_means, observed_sizes, per_stratum = [], [], []
        for h, (n_h, m_h, m2_h) in enumerate(
            self.pair_stratum_moments(l, j, strat)
        ):
            if n_h == 0:
                per_stratum.append((h, None, None))
                continue
            s2_h = m2_h / (n_h - 1) if n_h >= 2 else fallback_var
            observed_means.append(m_h)
            observed_sizes.append(sizes[h])
            per_stratum.append((h, m_h, (n_h, s2_h)))
        fallback_mean = (
            float(np.average(observed_means, weights=observed_sizes))
            if observed_means else 0.0
        )
        for h, m_h, extra in per_stratum:
            size = sizes[h]
            if m_h is None:
                estimate += size * fallback_mean
                variance = float("inf")
                continue
            n_h, s2_h = extra
            estimate += size * m_h
            if size > 1 and s2_h > 0:
                fpc = max(0.0, 1.0 - n_h / size)
                variance += size * size * s2_h / n_h * fpc
        return estimate, variance


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def bits(x) -> bytes:
    """Exact bit pattern of a float or float array (signed zeros too)."""
    return np.asarray(x, dtype=np.float64).tobytes()


def layout(n_templates: int, rng) -> Tuple[Dict, Dict]:
    sizes = {t: int(rng.integers(5, 40)) for t in range(n_templates)}
    indices, start = {}, 0
    for t, size in sizes.items():
        indices[t] = np.arange(start, start + size)
        start += size
    return indices, sizes


def random_values(rng, draws: int, configs: int) -> np.ndarray:
    """Query-major lognormal costs with exact ties mixed in: some
    draws cost the same in every configuration (a zero difference, as
    for a query no candidate structure touches)."""
    values = rng.lognormal(3.0, 1.0, (draws, configs))
    tie = rng.random(values.shape) < 0.2
    values[tie] = values.flat[0]
    same = rng.random(draws) < 0.3
    values[same] = values[same, :1]
    return np.round(values, int(rng.integers(0, 6))).ravel()


def assert_store_matches(store: DeltaState, oracle: OracleDelta,
                         strat: Stratification, delta: float) -> None:
    k = oracle.k
    totals, variances = store.totals(strat)
    for c in range(k):
        total, variance = oracle.estimate_total(c, strat)
        assert bits(totals[c]) == bits(total), (c, totals[c], total)
        assert bits(variances[c]) == bits(variance)
    for anchor in range(k):
        others, n, mean, m2h = store.pair_moments(anchor, strat)
        assert others.tolist() == [j for j in range(k) if j != anchor]
        _o, est, var = store.pair_estimates(anchor, strat)
        gaps, pair_vars = [], []
        for row, j in enumerate(others.tolist()):
            moments = oracle.pair_stratum_moments(anchor, j, strat)
            assert n[row].tolist() == [m[0] for m in moments]
            assert bits(mean[row]) == bits([m[1] for m in moments])
            assert bits(m2h[row]) == bits([m[2] for m in moments])
            e, v = oracle.pair_estimate(anchor, j, strat)
            assert bits(est[row]) == bits(e), (anchor, j, est[row], e)
            assert bits(var[row]) == bits(v)
            counts, means, m2s = store.diff_template_moments(anchor, j)
            o_counts, o_means, o_m2s = oracle.diff_template_moments(
                anchor, j
            )
            assert counts.tolist() == o_counts.tolist()
            assert bits(means) == bits(o_means)
            assert bits(m2s) == bits(o_m2s)
            gaps.append(-e)
            pair_vars.append(v)
        expected = [oracle_prcs(g, v, delta) for g, v in zip(gaps, pair_vars)]
        got = pairwise_prcs_many(-est, var, delta)
        assert bits(got) == bits(expected)


def random_split(strat: Stratification, rng) -> Stratification:
    splittable = [h for h, s in enumerate(strat.strata) if len(s) >= 2]
    if not splittable:
        return strat
    h = splittable[int(rng.integers(len(splittable)))]
    members = list(strat.strata[h])
    cut = int(rng.integers(1, len(members)))
    return strat.split(h, members[:cut], members[cut:])


def drive(store: DeltaState, oracle: OracleDelta, rng, rounds: int,
          strat: Stratification, delta: float,
          check_every: int = 7) -> Stratification:
    """Random ingests under shrinking/regrowing active sets, with splits
    and interleaved comparisons (so Welford folds really are partial)."""
    k = oracle.k
    active = list(range(k))
    n_templates = oracle.count.shape[1]
    for r in range(rounds):
        if rng.random() < 0.08 and len(active) > 1:
            active.remove(active[int(rng.integers(len(active)))])
        if rng.random() < 0.03:
            # A configuration rejoins (its lists resume where they
            # stopped, as an eliminated best does).
            missing = [c for c in range(k) if c not in active]
            if missing:
                active.append(missing[int(rng.integers(len(missing)))])
        batch = int(rng.integers(1, 4))
        draws = [(r * 10 + d, int(rng.integers(n_templates)))
                 for d in range(batch)]
        values = random_values(rng, batch, len(active))
        store.ingest_batch(draws, active, values)
        for d, (_q, t) in enumerate(draws):
            oracle.ingest(t, active,
                          values[d * len(active):(d + 1) * len(active)])
        if rng.random() < 0.1:
            strat = random_split(strat, rng)
        if r % check_every == 0:
            assert_store_matches(store, oracle, strat, delta)
    assert_store_matches(store, oracle, strat, delta)
    return strat


ESTIMATORS = ("buffer", "welford")


# ----------------------------------------------------------------------
# bit-equality against the oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("seed", range(6))
def test_random_ingest_eliminations_and_splits(estimator, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    n_templates = int(rng.integers(1, 12))
    indices, sizes = layout(n_templates, rng)
    store = DeltaState(k, n_templates, indices, rng, estimator=estimator)
    oracle = OracleDelta(k, n_templates, estimator)
    delta = float(rng.choice([0.0, 5.0]))
    drive(store, oracle, rng, 60, Stratification.single(sizes), delta)


def test_wide_strata_take_pairwise_sums():
    """Strata of 8+ templates and 8+ pairs exercise NumPy's unrolled
    pairwise summation on both sides."""
    rng = np.random.default_rng(11)
    k, n_templates = 12, 40
    indices, sizes = layout(n_templates, rng)
    for estimator in ESTIMATORS:
        store = DeltaState(k, n_templates, indices, rng, estimator=estimator)
        oracle = OracleDelta(k, n_templates, estimator)
        drive(store, oracle, rng, 150, Stratification.single(sizes), 0.0,
              check_every=50)


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_warm_import(estimator):
    rng = np.random.default_rng(21)
    k, n_templates = 4, 6
    indices, sizes = layout(n_templates, rng)
    donor = DeltaState(k, n_templates, indices, rng, estimator=estimator)
    donor_oracle = OracleDelta(k, n_templates, estimator)
    drive(donor, donor_oracle, rng, 40, Stratification.single(sizes), 0.0)
    carried = donor.export_samples()
    # Templates with more carried draws than the new workload holds
    # are clamped, exactly as the import documents.
    store = DeltaState(k, n_templates, indices, rng, estimator=estimator)
    assert store.import_samples(carried) > 0
    oracle = OracleDelta(k, n_templates, estimator)
    oracle.load({
        t: [v[:store.sampler.drawn(t)] for v in per_config]
        for t, per_config in carried.items()
    })
    strat = Stratification.single(sizes)
    assert_store_matches(store, oracle, strat, 0.0)
    drive(store, oracle, rng, 30, strat, 0.0)


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_state_dict_round_trip(estimator):
    rng = np.random.default_rng(31)
    k, n_templates = 5, 7
    indices, sizes = layout(n_templates, rng)
    store = DeltaState(k, n_templates, indices, rng, estimator=estimator)
    oracle = OracleDelta(k, n_templates, estimator)
    strat = drive(store, oracle, rng, 50, Stratification.single(sizes), 0.0)
    payload = json.loads(json.dumps(store.state_dict()))
    restored = DeltaState(k, n_templates, indices, rng, estimator=estimator)
    restored.restore_state(payload)
    fresh_oracle = OracleDelta(k, n_templates, estimator)
    fresh_oracle.load({int(t): v for t, v in payload["values"].items()})
    assert restored.state_dict() == store.state_dict()
    assert_store_matches(restored, fresh_oracle, strat, 0.0)
    # Both continue identically.
    twin_rng = np.random.default_rng(99)
    drive(restored, fresh_oracle, twin_rng, 20, strat, 0.0)


def test_restore_requires_fresh_state():
    rng = np.random.default_rng(0)
    store = DeltaState(2, 1, {0: np.arange(4)}, rng)
    store.ingest(0, 0, [0, 1], [1.0, 2.0])
    with pytest.raises(RuntimeError, match="no samples"):
        store.restore_state(store.state_dict())


def test_memoized_passes_follow_ingests():
    rng = np.random.default_rng(3)
    indices, sizes = layout(3, rng)
    store = DeltaState(3, 3, indices, rng)
    strat = Stratification.single(sizes)
    store.ingest(0, 0, [0, 1, 2], [1.0, 2.0, 3.0])
    store.ingest(1, 0, [0, 1, 2], [2.0, 2.0, 5.0])
    first = store.totals(strat)
    assert store.totals(strat) is first
    store.ingest(2, 1, [0, 1, 2], [4.0, 1.0, 2.0])
    assert store.totals(strat) is not first
    oracle = OracleDelta(3, 3, "buffer")
    oracle.ingest(0, [0, 1, 2], [1.0, 2.0, 3.0])
    oracle.ingest(0, [0, 1, 2], [2.0, 2.0, 5.0])
    oracle.ingest(1, [0, 1, 2], [4.0, 1.0, 2.0])
    assert_store_matches(store, oracle, strat, 0.0)


# ----------------------------------------------------------------------
# Pr(CS) kernels
# ----------------------------------------------------------------------
def test_pairwise_prcs_many_matches_norm_cdf():
    rng = np.random.default_rng(5)
    gaps = np.concatenate([
        rng.normal(0, 50, 400), [0.0, -0.0, 1.0, -1.0, 0.0, 3.0],
    ])
    variances = np.concatenate([
        rng.lognormal(3, 3, 400), [0.0, 0.0, 0.0, 0.0, np.inf, 1e-300],
    ])
    for delta in (0.0, 2.5):
        got = pairwise_prcs_many(gaps, variances, delta)
        expected = [oracle_prcs(g, v, delta)
                    for g, v in zip(gaps.tolist(), variances.tolist())]
        assert bits(got) == bits(expected)
        for g, v, p in zip(gaps.tolist(), variances.tolist(), expected):
            assert bits(pairwise_prcs(g, v, delta)) == bits(p)


def test_nan_inputs_give_zero_probability():
    assert pairwise_prcs(float("nan"), 1.0) == 0.0
    assert pairwise_prcs(1.0, float("nan")) == 0.0
    assert pairwise_prcs(float("nan"), 0.0) == 0.0
    assert bonferroni([float("nan")]) == 0.0
    assert bonferroni([0.99, float("nan"), 0.99]) == 0.0
    assert bonferroni([0.99, 0.98]) == max(0.0, 1.0 - (0.01 + 0.02))


# ----------------------------------------------------------------------
# bad costs fail loudly at the ingest boundary
# ----------------------------------------------------------------------
def _table(seed: int = 0, n: int = 300, k: int = 4):
    rng = np.random.default_rng(seed)
    template_ids = np.sort(rng.integers(0, 6, n))
    matrix = rng.lognormal(3.0, 0.5, (n, k))
    matrix[:, 0] *= 0.9
    return matrix, template_ids


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e9])
@pytest.mark.parametrize("scheme", ["delta", "independent"])
def test_bad_cost_raises_naming_the_pair(bad, scheme):
    """Before, these ran to a confident answer: NaN gave Pr(CS) 1.0,
    +inf 0.958 and -1e9 0.999."""
    matrix, template_ids = _table()
    matrix[:, 2] = bad
    selector = ConfigurationSelector(
        MatrixCostSource(matrix), template_ids,
        SelectorOptions(scheme=scheme), rng=np.random.default_rng(1),
    )
    with pytest.raises(ValueError, match="configuration 2") as info:
        selector.run()
    query = int(str(info.value).split("cost of query ")[1].split()[0])
    assert 0 <= query < len(matrix)
    assert repr(bad) in str(info.value)


def test_bad_cost_batch_is_rejected_whole():
    rng = np.random.default_rng(0)
    store = DeltaState(3, 1, {0: np.arange(10)}, rng)
    with pytest.raises(ValueError, match="query 7 in configuration 1"):
        store.ingest_batch([(4, 0), (7, 0)], [0, 1, 2],
                           [1.0, 2.0, 3.0, 1.0, -0.5, 3.0])
    assert store.state_dict()["values"] == {}
    assert store.totals(Stratification.single({0: 10}))[0].tolist() \
        == [0.0, 0.0, 0.0]
    state = IndependentState(2, 1, {0: np.arange(10)}, rng)
    with pytest.raises(ValueError, match="query 3 in configuration 1"):
        state.ingest_batch(1, [(3, 0)], [float("inf")])
    assert state.grid.count.sum() == 0


def test_zero_costs_are_valid():
    matrix, template_ids = _table()
    matrix[:10, 1] = 0.0
    result = ConfigurationSelector(
        MatrixCostSource(matrix), template_ids, SelectorOptions(),
        rng=np.random.default_rng(1),
    ).run()
    assert np.isfinite(result.estimates).all()


def test_held_pairs_follow_the_round_key():
    """Eliminated pairs keep their first estimate per (best, strata
    version); active pairs are always fresh; a new key starts over."""
    from repro.core.selector import _HeldPairs

    held = _HeldPairs(4)
    others = np.array([0, 1, 3])
    inactive = np.array([True, False, True])
    mean, var = held.apply((2, 0), others, np.array([1.0, 2.0, 3.0]),
                           np.array([0.1, 0.2, 0.3]), inactive)
    assert mean.tolist() == [1.0, 2.0, 3.0]
    mean, var = held.apply((2, 0), others, np.array([5.0, 6.0, 7.0]),
                           np.array([0.5, 0.6, 0.7]), inactive)
    assert mean.tolist() == [1.0, 6.0, 3.0]
    assert var.tolist() == [0.1, 0.6, 0.3]
    mean, var = held.apply((2, 1), others, np.array([5.0, 6.0, 7.0]),
                           np.array([0.5, 0.6, 0.7]), inactive)
    assert mean.tolist() == [5.0, 6.0, 7.0]
