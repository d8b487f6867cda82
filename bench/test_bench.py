"""Tests of the benchmark itself: the tracer's wrappers and its metric tables."""

from __future__ import annotations

import json
import os

import pytest

import layers
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sk = workloads.import_sparsekf(ROOT)


def _entries(targets=layers.TARGETS):
    out = {}
    for label, module, path, _ in targets:
        owner, name, _ = layers._resolve(module, path)
        out[label] = (owner, name, vars(owner).get(name, layers._ABSENT))
    return out


def test_wrappers_restore_the_original_functions():
    before = _entries()
    with pytest.raises(RuntimeError, match="inside"):
        with layers.installed(layers.Tracer()):
            for owner, name, original in before.values():
                assert vars(owner).get(name) is not original
            raise RuntimeError("inside the traced block")
    for label, (owner, name, original) in before.items():
        assert vars(owner).get(name, layers._ABSENT) is original, label


def test_missing_target_is_reported_not_raised():
    gone = ("sparse_core.gone", "sparsekf.sparse_core", "no_such_function", "call")
    tracer = layers.Tracer()
    with layers.installed(tracer, layers.TARGETS + (gone,)):
        pass
    assert tracer.missing == ["sparse_core.gone"]


@pytest.mark.parametrize("short", sorted(workloads.FILTERS))
def test_layer_times_of_a_cycle_sum_to_no_more_than_its_wall_time(short):
    kwargs = workloads.config_kwargs(workloads.WORKLOADS["desk-n40"], short, 7)
    config = sk.ExperimentConfig(**dict(kwargs, n_steps=30, n_replicates=1))
    tracer = layers.Tracer()
    with layers.installed(tracer):
        summary = sk.run_experiment(config, workers=1)
    assert summary.n_failed == 0
    assert len(tracer.cycles) == 30
    assert tracer.covariance_checks == 30 and not tracer.failures
    for record in tracer.cycles:
        layer_s = sum(record[label] for label in layers.TIMED_LABELS)
        assert layer_s > 0.0
        assert layer_s + record["self"] <= record["cycle"] * (1 + 1e-9)
        assert 0.0 <= record["self"] <= record["cycle"]


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == table, key
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
