"""Tests of the benchmark itself: metric names, the correctness gate and
the purity of workload generation.

    python3 -m pytest perfbench
"""

import json
import re
from pathlib import Path

import pytest

import gate
import run
import workloads
from sboxsim.campaign import CampaignConfig, enumerate_scenarios, run_campaign
from sboxsim.gf import DEFAULT_PARAMS
from sboxsim.pipeline import cut_pipeline
from sboxsim.synth import synth_sbox
from tracing import Tracer

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
TINY = [("hfs", CampaignConfig(scheme="hfs", durations=(1, 2),
                               start_cycles=(0, 3), stream=bytes(range(24)),
                               sample=12, seed=7))]


@pytest.fixture(scope="module")
def design():
    return cut_pipeline(synth_sbox(DEFAULT_PARAMS), workloads.N_STAGES)


@pytest.fixture
def tiny_workload(tmp_path, monkeypatch):
    """A 12-scenario workload with its reference recorded under tmp_path."""
    monkeypatch.setattr(workloads, "campaigns", lambda name, seed: TINY)
    monkeypatch.setattr(gate, "REFERENCE_DIR", tmp_path / "reference")
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    seed = workloads.campaign_seed(0)
    gate.write_reference("tiny", seed, run.run_once("tiny", 0).outcomes)
    return seed


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert names and all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
                         for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_traced_run_emits_exactly_the_declared_per_layer_metrics(design):
    with Tracer(deep=True) as tr:
        tr.call("campaign.run_campaign", run_campaign, design, TINY[0][1])
    emitted = set(tr.per_layer()) | {"trace.overhead"}
    assert emitted == {m["name"] for m in SPEC["per_layer"]}


def test_untraced_run_emits_the_declared_end_to_end_metrics(tiny_workload):
    reference = gate.load_reference("tiny", tiny_workload)
    metrics, attempted, failed = run.measure("tiny", 0, 0.001, reference)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert (attempted, failed) == (12, 0)
    assert all(value > 0 for value, _ in metrics.values())


def test_time_sums_each_units_upper_quartile_across_repetitions():
    reps = [[1, 50], [2, 40], [3, 30], [4, 20], [5, 10]]
    assert run.upper_quartile_sum(reps) == 4 + 40
    assert run.upper_quartile_sum([[1, 2, 3]]) == 6


def test_untraced_run_times_every_scenario(tiny_workload):
    rep = run.run_once("tiny", 0)
    assert len(rep.tracer.scenario_ns) == rep.scenarios == 12
    assert 0 < sum(rep.tracer.scenario_ns) / 1e9 < rep.campaign_s


def test_changed_reference_row_fails_the_gate(tiny_workload):
    reference = gate.load_reference("tiny", tiny_workload)
    row = reference["hfs"]["rows"][5]
    reference["hfs"]["rows"][5] = row[:5] + (str(int(row[5]) + 1),)
    metrics, attempted, failed = run.measure("tiny", 0, 0.001, reference)
    assert failed == 1
    assert metrics["passed_share"][0] == pytest.approx(1 - 1 / attempted)


def test_raising_campaign_fails_every_row(tiny_workload, monkeypatch):
    def broken(design, config):
        raise RuntimeError("injected")
    reference = gate.load_reference("tiny", tiny_workload)
    monkeypatch.setattr(run.campaign, "run_campaign", broken)
    _, attempted, failed = run.measure("tiny", 0, 0.001, reference)
    assert failed == attempted == 12


def test_traced_rows_equal_untraced_rows(tiny_workload):
    reference = gate.load_reference("tiny", tiny_workload)
    _, attempted, failed, same_rows = run.measure_traced("tiny", 0, reference)
    assert same_rows and failed == 0 and attempted == 24


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_generation_is_a_pure_function_of_the_seed(workload,
                                                           design):
    first = workloads.campaigns(workload, 3)
    second = workloads.campaigns(workload, 3)
    assert first == second
    for (_, a), (_, b) in zip(first, second):
        assert a.resolved_stream() == b.resolved_stream()
        assert enumerate_scenarios(design, a) == enumerate_scenarios(design, b)
    other = workloads.campaigns(workload, 4)
    assert [c.resolved_stream() for _, c in first] != \
        [c.resolved_stream() for _, c in other]
    assert workloads.campaigns(workload, 3 + len(workloads.PUBLISHED_SEEDS)) \
        == first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_published_seed_has_a_consistent_reference(workload):
    for seed in workloads.PUBLISHED_SEEDS:
        for ref in gate.load_reference(workload, seed).values():
            assert len(ref["rows"]) == ref["total"] == sum(
                ref["counts"].values())
            assert all(len(row) == len(gate.ROW_COLUMNS)
                       for row in ref["rows"])
