"""Tests for sampling state: samplers, moment grids, estimators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DeltaState,
    IndependentState,
    MatrixCostSource,
    MomentGrid,
    Stratification,
    TemplateSampler,
)


def _groups(template_ids: np.ndarray) -> dict:
    out: dict = {}
    for i, t in enumerate(template_ids):
        out.setdefault(int(t), []).append(i)
    return {t: np.array(v) for t, v in out.items()}


@pytest.fixture
def simple_population(rng):
    """200 queries, 2 templates with very different cost levels."""
    template_ids = np.array([0] * 150 + [1] * 50)
    matrix = np.empty((200, 3))
    base = np.where(template_ids == 0, 10.0, 1000.0)
    matrix[:, 0] = base + rng.normal(0, 1, 200)
    matrix[:, 1] = base * 1.1 + rng.normal(0, 1, 200)
    matrix[:, 2] = base * 1.5 + rng.normal(0, 1, 200)
    return template_ids, np.abs(matrix)


class TestTemplateSampler:
    def test_without_replacement(self, rng):
        sampler = TemplateSampler({0: np.arange(10)}, rng)
        drawn = [sampler.draw_from_template(0) for _ in range(10)]
        assert sorted(drawn) == list(range(10))
        assert sampler.draw_from_template(0) is None
        assert sampler.remaining(0) == 0

    def test_draw_from_stratum_covers_templates(self, rng):
        sampler = TemplateSampler(
            {0: np.arange(5), 1: np.arange(5, 10)}, rng
        )
        seen_templates = set()
        for _ in range(10):
            qidx, tid = sampler.draw_from_stratum([0, 1], rng)
            seen_templates.add(tid)
            if tid == 0:
                assert qidx < 5
            else:
                assert qidx >= 5
        assert seen_templates == {0, 1}
        assert sampler.draw_from_stratum([0, 1], rng) is None

    def test_drawn_order_prefix(self, rng):
        sampler = TemplateSampler({0: np.arange(20)}, rng)
        first = sampler.draw_from_template(0)
        second = sampler.draw_from_template(0)
        assert list(sampler.drawn_order(0)) == [first, second]

    def test_remaining_in(self, rng):
        """Dense per-template counts; a stratum's remaining count is
        their member sum."""
        sampler = TemplateSampler(
            {0: np.arange(3), 1: np.arange(3, 10)}, rng
        )
        strat = Stratification.single({0: 3, 1: 7})
        assert sampler.remaining_counts().tolist() == [3, 7]
        assert strat.member_sums(sampler.remaining_counts()).tolist() == [10]
        sampler.draw_from_template(1)
        assert sampler.remaining_counts().tolist() == [3, 6]
        assert sampler.drawn_counts().tolist() == [0, 1]
        assert strat.member_sums(sampler.remaining_counts()).tolist() == [9]

    def test_drawn_counts_is_read_only(self, rng):
        sampler = TemplateSampler({0: np.arange(5)}, rng)
        sampler.draw_from_template(0)
        counts = sampler.drawn_counts()
        with pytest.raises(ValueError):
            counts[0] = 0
        assert sampler.remaining(0) == 4
        sampler.draw_from_template(0)
        assert counts.tolist() == [2]


class TestMomentGrid:
    def test_welford_matches_numpy(self, rng):
        grid = MomentGrid(1, 1)
        values = rng.normal(50, 10, 100)
        for v in values:
            grid.add(0, 0, float(v))
        assert grid.count[0, 0] == 100
        assert grid.mean[0, 0] == pytest.approx(values.mean())
        assert grid.m2[0, 0] / 99 == pytest.approx(values.var(ddof=1))

    def test_independent_cells(self):
        grid = MomentGrid(2, 2)
        grid.add(0, 0, 5.0)
        grid.add(1, 1, 7.0)
        assert grid.count[0, 1] == 0
        assert grid.template_counts(0).tolist() == [1, 0]


class TestIndependentState:
    def test_estimate_unbiased_at_full_sample(self, simple_population,
                                              rng):
        template_ids, matrix = simple_population
        source = MatrixCostSource(matrix)
        state = IndependentState(
            3, 2, _groups(template_ids), rng
        )
        strat = Stratification.single({0: 150, 1: 50})
        # Exhaust the whole workload for config 0.
        while state.sample_one(0, (0, 1), source, rng):
            pass
        est, var = state.estimate(0, strat)
        assert est == pytest.approx(matrix[:, 0].sum(), rel=1e-9)
        assert var == 0.0  # finite population fully sampled

    def test_stratified_variance_lower(self, simple_population, rng):
        template_ids, matrix = simple_population
        source = MatrixCostSource(matrix)
        state = IndependentState(3, 2, _groups(template_ids), rng)
        single = Stratification.single({0: 150, 1: 50})
        split = single.split(0, [0], [1])
        for _ in range(60):
            state.sample_one(0, (0, 1), source, rng)
        _, var_single = state.estimate(0, single)
        _, var_split = state.estimate(0, split)
        # Templates differ by 100x in cost: stratification must help.
        assert var_split < var_single

    def test_unsampled_stratum_infinite_variance(self, simple_population,
                                                 rng):
        template_ids, matrix = simple_population
        source = MatrixCostSource(matrix)
        state = IndependentState(3, 2, _groups(template_ids), rng)
        split = Stratification.single({0: 150, 1: 50}).split(0, [0], [1])
        # Only sample template 0.
        for _ in range(10):
            state.sample_one(0, (0,), source, rng)
        est, var = state.estimate(0, split)
        assert var == float("inf")
        assert np.isfinite(est)

    def test_sample_counts(self, simple_population, rng):
        template_ids, matrix = simple_population
        source = MatrixCostSource(matrix)
        state = IndependentState(3, 2, _groups(template_ids), rng)
        for _ in range(7):
            state.sample_one(1, (0, 1), source, rng)
        assert state.sample_count(1) == 7
        assert state.sample_count(0) == 0


class TestDeltaState:
    def test_shared_sample_alignment(self, simple_population, rng):
        template_ids, matrix = simple_population
        source = MatrixCostSource(matrix)
        state = DeltaState(3, 2, _groups(template_ids), rng)
        for _ in range(40):
            state.sample_one((0, 1), source, rng, [0, 1, 2])
        counts, means, m2s = state.diff_template_moments(0, 1)
        assert counts.sum() == 40
        # diffs of aligned queries: config1 = 1.1x config0 roughly
        assert means[counts > 0].mean() < 0

    def test_pair_estimate_sign(self, simple_population, rng):
        template_ids, matrix = simple_population
        source = MatrixCostSource(matrix)
        state = DeltaState(3, 2, _groups(template_ids), rng)
        strat = Stratification.single({0: 150, 1: 50})
        for _ in range(60):
            state.sample_one((0, 1), source, rng, [0, 1, 2])
        mean01, var01 = state.pair_estimate(0, 1, strat)
        assert mean01 < 0  # config 0 cheaper than config 1
        assert var01 >= 0
        mean10, _ = state.pair_estimate(1, 0, strat)
        assert mean10 == pytest.approx(-mean01)

    def test_pair_estimate_exact_at_exhaustion(self, simple_population,
                                               rng):
        template_ids, matrix = simple_population
        source = MatrixCostSource(matrix)
        state = DeltaState(3, 2, _groups(template_ids), rng)
        strat = Stratification.single({0: 150, 1: 50})
        while state.sample_one((0, 1), source, rng, [0, 1, 2]):
            pass
        mean, var = state.pair_estimate(0, 2, strat)
        truth = matrix[:, 0].sum() - matrix[:, 2].sum()
        assert mean == pytest.approx(truth, rel=1e-9)
        assert var == 0.0

    def test_eliminated_config_stops_growing(self, simple_population,
                                             rng):
        template_ids, matrix = simple_population
        source = MatrixCostSource(matrix)
        state = DeltaState(3, 2, _groups(template_ids), rng)
        for _ in range(10):
            state.sample_one((0, 1), source, rng, [0, 1, 2])
        for _ in range(10):
            state.sample_one((0, 1), source, rng, [0, 1])  # drop config 2
        counts_02, _, _ = state.diff_template_moments(0, 2)
        counts_01, _, _ = state.diff_template_moments(0, 1)
        assert counts_02.sum() == 10  # aligned prefix only
        assert counts_01.sum() == 20

    def test_delta_variance_below_independent(self, rng):
        """The §4.2 effect: positive covariance shrinks diff variance."""
        N = 400
        template_ids = np.zeros(N, dtype=int)
        base = np.abs(rng.lognormal(3, 1.5, N))
        matrix = np.column_stack([base, base * 1.08])
        source = MatrixCostSource(matrix)
        strat = Stratification.single({0: N})

        d_state = DeltaState(2, 1, _groups(template_ids), rng)
        for _ in range(50):
            d_state.sample_one((0,), source, rng, [0, 1])
        _, var_delta = d_state.pair_estimate(0, 1, strat)

        i_state = IndependentState(2, 1, _groups(template_ids), rng)
        for _ in range(50):
            i_state.sample_one(0, (0,), source, rng)
            i_state.sample_one(1, (0,), source, rng)
        _, var_0 = i_state.estimate(0, strat)
        _, var_1 = i_state.estimate(1, strat)
        assert var_delta < (var_0 + var_1) / 10
