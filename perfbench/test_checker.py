"""The benchmark's output checks, pinned against a known selector defect.

With ``crm_setup(n_queries=2000, k=50, seed=5)``, the Table 3 options
and ``default_rng(1000)``, the selector ends ``exhausted`` with Pr(CS)
1.0 and picks configuration 23 -- which it had also eliminated, and
which costs 2.25% more than the true best, configuration 21.  The
benchmark must count that selection as failed, without crashing.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/test_checker.py
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import ConfigurationSelector, MatrixCostSource
from repro.experiments import crm_setup

from checks import judge_selection, service_failures
from workloads import TABLE3_OPTIONS, Table3, measure

#: Trial seed of the defect; the table3 workload's seed 1 starts there.
DEFECT_TRIAL = 1000


@pytest.fixture(scope="module")
def crm5():
    return crm_setup(n_queries=2000, k=50, seed=5)


def test_exhausted_pick_of_an_eliminated_configuration_fails(crm5):
    source = MatrixCostSource(crm5.matrix)
    result = ConfigurationSelector(
        source, crm5.workload.template_ids, TABLE3_OPTIONS,
        rng=np.random.default_rng(DEFECT_TRIAL),
    ).run()
    assert (result.terminated_by, result.prcs) == ("exhausted", 1.0)
    assert result.best_index == 23 and 23 in result.eliminated
    assert crm5.true_best == 21

    record = judge_selection(
        result, source.calls, 0.0, crm5.true_totals, TABLE3_OPTIONS.delta
    )
    assert record.correct is False
    assert record.regret_pct == pytest.approx(2.25, abs=0.005)
    assert record.failures == []
    assert len(record.defects) == 2
    assert "eliminated list" in record.defects[0]
    assert "exhausted" in record.defects[1]


def test_table3_run_counts_the_defect_as_one_failed_selection(crm5,
                                                              tmp_path):
    run = measure(Table3(), crm5, seed=1, count=1, trace=None,
                  workdir=tmp_path, passes=1)
    assert (run.attempted, run.failed) == (1, 1)
    assert run.decisions[0]["best"] == 23
    assert run.failures() == []


def test_service_checks_flag_gaps_unpaired_retunes_and_no_checkpoint(
        tmp_path):
    events = [
        {"seq": 0, "ts": 0.0, "kind": "service_start"},
        {"seq": 2, "ts": 1.0, "kind": "retune_start"},
    ]
    log = tmp_path / "events.jsonl"
    log.write_text("".join(json.dumps(e) + "\n" for e in events))
    failures = service_failures(str(log), str(tmp_path / "none.json"), 10)
    assert len(failures) == 3
