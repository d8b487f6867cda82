"""Harness tests: truth/observations, RMSE, aggregation, CSV, CLI."""

import concurrent.futures
import csv
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import sparsekf.harness as harness
from sparsekf.cli import main, parse_config_file
from sparsekf.models import Lorenz96Model
from sparsekf.harness import (
    RUNS_CSV_HEADER,
    SUMMARY_CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    ReplicateResult,
    aggregate_results,
    generate_truth,
    observation_times,
    rmse,
    run_experiment,
    run_replicate,
    summarize,
    synthesize_observations,
    write_runs_csv,
    write_summary_csv,
)


def _src_env():
    """The environment of a child interpreter that imports sparsekf from this
    checkout's src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def tiny_config(**kw):
    base = dict(filter="sparse_ukf", nsp=5, n_steps=25, n_replicates=3, master_seed=7)
    base.update(kw)
    return ExperimentConfig(**base)


class TestRmse:
    def test_identical_trajectories(self):
        t = np.random.default_rng(0).normal(size=(11, 4))
        assert rmse(t, t) == 0.0

    def test_constant_offset(self):
        t = np.zeros((9, 5))
        assert rmse(t + 0.37, t) == pytest.approx(0.37, abs=1e-12)
        assert rmse(t - 2.0, t) == pytest.approx(2.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(13, 6))
        b = rng.normal(size=(13, 6))
        total = 0.0
        for k in range(13):
            for i in range(6):
                total += (a[k, i] - b[k, i]) ** 2
        expected = math.sqrt(total / (6 * 13))
        assert rmse(a, b) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((3, 2)), np.zeros((4, 2)))


class TestSummarize:
    def test_small_example(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.median == 2.5 and s.mean == 2.5
        assert s.q1 == 1.75 and s.q3 == 3.25

    def test_constant_list(self):
        s = summarize([0.3] * 8)
        assert s.std == 0.0
        assert s.q3 - s.q1 == 0.0
        assert s.whisker_low == s.whisker_high == 0.3

    def test_matches_sorted_scan_oracle(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=37)
        s = summarize(vals)

        def quantile(sorted_vals, q):
            # linear interpolation between order statistics
            pos = q * (len(sorted_vals) - 1)
            lo = int(math.floor(pos))
            hi = int(math.ceil(pos))
            return sorted_vals[lo] + (pos - lo) * (sorted_vals[hi] - sorted_vals[lo])

        sv = np.sort(vals)
        assert s.median == pytest.approx(quantile(sv, 0.5), abs=1e-12)
        assert s.q1 == pytest.approx(quantile(sv, 0.25), abs=1e-12)
        assert s.q3 == pytest.approx(quantile(sv, 0.75), abs=1e-12)
        assert s.mean == pytest.approx(vals.mean(), abs=1e-12)
        assert s.std == pytest.approx(vals.std(ddof=1), abs=1e-12)
        iqr = s.q3 - s.q1
        assert s.whisker_low == pytest.approx(s.q1 - 1.5 * iqr, abs=1e-12)
        assert s.whisker_high == pytest.approx(s.q3 + 1.5 * iqr, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestTruthAndObservations:
    def test_truth_deterministic_and_bounded_start(self):
        cfg = tiny_config(n_steps=50)
        seed = np.random.SeedSequence(42)
        t1 = generate_truth(cfg, seed)
        t2 = generate_truth(cfg, np.random.SeedSequence(42))
        assert np.array_equal(t1, t2)
        assert t1.shape == (51, 40)
        assert np.all(np.abs(t1[0]) <= 1.0)

    def test_zero_noise_observations_exact(self):
        cfg = tiny_config(n_steps=10, r_scale=0.0)
        truth = generate_truth(cfg, 3)
        times, y = synthesize_observations(truth, cfg, 4)
        assert np.array_equal(times, np.arange(1, 11))
        assert y.shape == (10, 20)
        assert np.array_equal(y, truth[1:, ::2])

    def test_observation_noise_moments(self):
        # against a frozen zero trajectory the sample covariance of the
        # observations must be within 3% of R = I
        k = 100_000
        cfg = tiny_config(n_steps=k)
        truth = np.zeros((k + 1, 40))
        _, y = synthesize_observations(truth, cfg, 5)
        cov = y.T @ y / k
        assert np.abs(cov - np.eye(20)).max() <= 0.03

    def test_observation_interval(self):
        cfg = tiny_config(n_steps=20, obs_interval=5)
        assert np.array_equal(observation_times(cfg), [5, 10, 15, 20])
        truth = generate_truth(cfg, 6)
        times, y = synthesize_observations(truth, cfg, 7)
        assert y.shape == (4, 20)


class TestRunReplicate:
    def test_deterministic(self):
        cfg = tiny_config()
        r1 = run_replicate(cfg, 0)
        r2 = run_replicate(cfg, 0)
        assert r1.rmse == r2.rmse
        assert r1.gamma_activations == r2.gamma_activations

    def test_replicates_differ(self):
        cfg = tiny_config()
        assert run_replicate(cfg, 0).rmse != run_replicate(cfg, 1).rmse

    def test_eval_count_identity(self):
        cfg = tiny_config(nsp=7, n_steps=12)
        r = run_replicate(cfg, 0)
        assert r.eval_per_cycle == 600.0

    def test_obs_interval_runs(self):
        cfg = tiny_config(n_steps=12, obs_interval=3)
        r = run_replicate(cfg, 0)
        assert not r.failed
        assert math.isfinite(r.rmse)

    @pytest.mark.parametrize("name", ["progressive_ekf", "enkf", "dense_ukf"])
    def test_all_filters_run(self, name):
        cfg = tiny_config(filter=name, n_steps=15)
        r = run_replicate(cfg, 0)
        assert not r.failed and math.isfinite(r.rmse)

    @pytest.mark.parametrize("name", ["sparse_ukf", "progressive_ekf", "dense_ukf", "enkf"])
    def test_non_finite_covariance_fails_at_its_cycle(self, monkeypatch, name):
        # the filter's cycle in the harness, the array of its output to poison
        # and what the error names: the covariance, or the EnKF's members
        cycle, target, what = {
            "sparse_ukf": ("sparse_ukf_cycle", lambda out: out.Pa.band, "covariance"),
            "progressive_ekf": ("progressive_ekf_cycle", lambda out: out.Pa.band, "covariance"),
            "dense_ukf": ("dense_ukf_cycle", lambda out: out.Pa, "covariance"),
            "enkf": ("enkf_cycle", lambda out: out, "ensemble"),
        }[name]
        real = getattr(harness, cycle)
        cycles = []

        def poisoned(*args):
            out = real(*args)
            cycles.append(out)
            if len(cycles) == 3:
                target(out)[4, 1] = np.nan
            return out

        monkeypatch.setattr(harness, cycle, poisoned)
        r = run_replicate(tiny_config(filter=name, n_steps=10), 0)
        if name != "enkf":
            assert np.isfinite(cycles[2].xa).all()  # the analysis state stays finite
        assert r.failed and math.isnan(r.rmse)
        assert r.error == f"FloatingPointError at cycle 3: non-finite analysis {what}"

    def test_memory_error_fails_the_replicate_at_its_cycle(self, monkeypatch):
        real, calls = harness.sparse_ukf_cycle, []

        def exhausted(*args):
            calls.append(None)
            if len(calls) == 3:
                raise MemoryError("Unable to allocate 512. GiB")
            return real(*args)

        monkeypatch.setattr(harness, "sparse_ukf_cycle", exhausted)
        r = run_replicate(tiny_config(n_steps=10), 0)
        assert r.failed and math.isnan(r.rmse)
        assert r.error == "MemoryError at cycle 3: Unable to allocate 512. GiB"

    def test_overflow_is_reported_without_numpy_warnings(self):
        # p0 = 1000 overflows the forecast; the dense gain's Cholesky factor
        # rejects the non-finite Pyy, and no RuntimeWarning escapes the loop
        config = ExperimentConfig(p0=1000.0, n_replicates=1, n_steps=20).validate()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = run_replicate(config, 0)
        assert r.failed and r.error == ("FactorizationError at cycle 3: "
                                        "cannot factor a matrix with non-finite entries")


class TestNoHiddenState:
    """The repair's warm start lives in each replicate's FilterState: a
    replicate's result does not depend on what ran before it."""

    CONFIG = dict(filter="progressive_ekf", n=640, nsp=7, n_steps=20, n_replicates=2,
                  master_seed=66)

    def test_order_of_replicates_does_not_matter(self):
        config = ExperimentConfig(**self.CONFIG).validate()
        forward = [run_replicate(config, r) for r in (0, 1)]
        backward = [run_replicate(config, r) for r in (1, 0)]
        assert forward == backward[::-1]
        assert all(r.gamma_activations > 0 and not r.failed for r in forward)

    def test_pool_matches_serial(self):
        config = ExperimentConfig(**self.CONFIG).validate()
        serial = run_experiment(config, workers=1).results
        assert run_experiment(config, workers=2).results == serial

    def test_repair_factorizations_add_up_the_cycles(self, monkeypatch):
        real, counts = harness.progressive_ekf_cycle, []

        def record(*args):
            out = real(*args)
            counts.append(out.diagnostics.repair_factorizations)
            return out

        monkeypatch.setattr(harness, "progressive_ekf_cycle", record)
        config = ExperimentConfig(**self.CONFIG).validate()
        assert run_replicate(config, 0).repair_factorizations == sum(counts) > len(counts)


class TestFilterSetUp:
    @pytest.mark.parametrize("name", ["sparse_ukf", "progressive_ekf"])
    def test_set_up_memory_is_linear_in_n(self, name):
        # n = 10240 observes m = 5120 entries: a dense m x m noise matrix
        # alone would take 210 MB
        config = ExperimentConfig(filter=name, n=10240, nsp=7).validate()
        filt = harness.FILTERS[name](Lorenz96Model(config.n), harness.observation_operator(config))
        tracemalloc.start()
        try:
            state = filt.init(config, np.zeros(config.n), np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak
        assert state.Pa.band.shape == (10240, 4)


class TestRunExperiment:
    def test_parallel_matches_serial(self):
        cfg = tiny_config(n_replicates=4)
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=2)
        for a, b in zip(serial.results, parallel.results):
            assert a.replicate == b.replicate
            assert a.rmse == b.rmse
            assert a.gamma_activations == b.gamma_activations
        assert serial.stats.median == parallel.stats.median

    def test_pool_has_at_most_one_worker_per_replicate(self, monkeypatch):
        requested = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kw):
                requested.append(max_workers)
                super().__init__(max_workers=max_workers, **kw)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        cfg = tiny_config(n_replicates=2)
        pooled = run_experiment(cfg, workers=8)
        assert requested == [2]
        assert pooled.results == run_experiment(cfg, workers=1).results

    def test_serial_run_loads_no_process_pool(self):
        script = (
            "import sys\n"
            "import sparsekf\n"
            "from sparsekf.harness import ExperimentConfig, run_experiment\n"
            "run_experiment(ExperimentConfig(n_steps=2, n_replicates=2), workers=1)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
        )
        out = subprocess.run([sys.executable, "-c", script], env=_src_env(), timeout=120,
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "[]"

    def test_summary_consistent_with_results(self):
        cfg = tiny_config(n_replicates=5)
        s = run_experiment(cfg, workers=1)
        recomputed = summarize([r.rmse for r in s.results])
        assert s.stats == recomputed
        assert s.n_failed == 0
        assert s.param == "Nsp=5"

    def test_failed_replicates_excluded_but_counted(self):
        cfg = tiny_config(n_replicates=4)
        results = [
            ReplicateResult(0, 0.5, 600.0, 1, 0),
            ReplicateResult(1, float("nan"), float("nan"), 0, 0, failed=True,
                            error="FactorizationError: test"),
            ReplicateResult(2, 0.7, 600.0, 2, 0),
            ReplicateResult(3, 0.6, 600.0, 0, 0),
        ]
        s = aggregate_results(cfg, results)
        assert s.n_failed == 1
        assert s.stats.n == 3
        assert s.stats.median == 0.6

    def test_all_failed(self):
        cfg = tiny_config(n_replicates=2)
        results = [
            ReplicateResult(i, float("nan"), float("nan"), 0, 0, failed=True, error="x")
            for i in range(2)
        ]
        s = aggregate_results(cfg, results)
        assert s.stats is None and s.n_failed == 2


class TestDefaultWorkers:
    def test_counts_the_cpus_of_the_affinity_mask(self, monkeypatch):
        # a process pinned to one core of a larger host starts one worker
        monkeypatch.delenv("SPARSEKF_WORKERS", raising=False)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        assert harness.default_workers() == 1

    def test_environment_variable_wins(self, monkeypatch):
        monkeypatch.setenv("SPARSEKF_WORKERS", "3")
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert harness.default_workers() == 3

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delenv("SPARSEKF_WORKERS", raising=False)
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 5)
        assert harness.default_workers() == 5


class TestConfig:
    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            tiny_config(nsp=6).validate()
        with pytest.raises(ConfigError):
            tiny_config(nsp=41).validate()
        with pytest.raises(ConfigError):
            tiny_config(filter="nope").validate()
        with pytest.raises(ConfigError):
            tiny_config(obs_interval=0).validate()
        with pytest.raises(ConfigError):
            tiny_config(n_p=0).validate()

    @pytest.mark.parametrize("overrides", [
        dict(kappa=-50.0),
        dict(filter="dense_ukf", kappa=-40.0),
        dict(filter="enkf", loc_radius=0.0),
        dict(filter="enkf", r_scale=0.0),
        dict(master_seed=-1),
        dict(filter="enkf", loc_radius=float("nan")),
        dict(q=float("nan")),
        dict(dt=float("inf")),
        *(dict(**{name: float("nan")}) for name in (
            "forcing", "r_scale", "p0", "delta", "inflation", "kappa")),
    ])
    def test_configurations_that_cannot_run_are_rejected(self, overrides):
        with pytest.raises(ConfigError):
            tiny_config(**overrides).validate()

    def test_kappa_only_constrains_the_ukfs(self):
        tiny_config(filter="progressive_ekf", kappa=-50.0).validate()
        tiny_config(filter="sparse_ukf", kappa=-39.0).validate()
        tiny_config(filter="sparse_ukf", r_scale=0.0).validate()

    def test_paper_scale(self):
        cfg = tiny_config().paper_scale()
        assert cfg.n_steps == 4000 and cfg.n_replicates == 1000

    def test_observed_indices(self):
        op = harness.observation_operator(tiny_config())
        assert op.m == 20 and op.r == 1.0
        assert np.array_equal(op.indices, np.arange(0, 40, 2))
        op = harness.observation_operator(tiny_config(observed_every=3, r_scale=0.25))
        assert op.m == 14 and op.r == 0.25
        assert np.array_equal(op.indices, np.arange(0, 40, 3))

    def test_param_labels(self):
        assert tiny_config(filter="enkf").param_label() == "Nens=10"
        assert tiny_config(filter="progressive_ekf", nsp=11, n_p=2).param_label() == "Nsp=11 np=2"


class TestCsv:
    def test_runs_csv_shape_and_format(self, tmp_path):
        cfg = tiny_config(n_replicates=3)
        s = run_experiment(cfg, workers=1)
        path = tmp_path / "runs.csv"
        write_runs_csv(s, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == RUNS_CSV_HEADER
        assert len(lines) == 4
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert rows[0]["filter"] == "sparse_ukf"
        assert rows[0]["param"] == "Nsp=5"
        # 6 significant digits
        assert len(rows[0]["rmse"].replace(".", "").replace("-", "").lstrip("0")) <= 6

    def test_runs_csv_writes_jitter_activations(self, tmp_path):
        cfg = tiny_config(n_replicates=2)
        s = aggregate_results(cfg, [ReplicateResult(0, 0.5, 600.0, 3, 4),
                                    ReplicateResult(1, 0.6, 600.0, 0, 0)])
        path = tmp_path / "runs.csv"
        write_runs_csv(s, path)
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert RUNS_CSV_HEADER.endswith(",gamma_activations,jitter_activations")
        assert [(r["gamma_activations"], r["jitter_activations"]) for r in rows] == \
            [("3", "4"), ("0", "0")]

    def test_summary_csv(self, tmp_path):
        cfg = tiny_config(n_replicates=3)
        s = run_experiment(cfg, workers=1)
        path = tmp_path / "summary.csv"
        write_summary_csv([s], path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == SUMMARY_CSV_HEADER
        with open(path) as f:
            row = next(csv.DictReader(f))
        assert row["n_replicates"] == "3"
        assert row["n_failed"] == "0"
        assert float(row["median"]) == pytest.approx(s.stats.median, rel=1e-5)


class TestCli:
    def test_truth_subcommand(self, tmp_path):
        out = tmp_path / "truth.csv"
        code = main(["truth", "--n-steps", "5", "--master-seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 7  # header + 6 states
        assert lines[0].startswith("step,x0,")

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "truth.csv"
        subprocess.run([sys.executable, "-m", "sparsekf", "truth", "--n-steps", "3",
                        "--out", str(out)], env=_src_env(), cwd=tmp_path, timeout=120,
                       check=True, capture_output=True)
        assert len(out.read_text().strip().split("\n")) == 5  # header + 4 states

    def test_truth_subcommand_writes_the_truth_of_replicate_0(self, tmp_path, monkeypatch):
        out = tmp_path / "truth.csv"
        assert main(["truth", "--n-steps", "5", "--master-seed", "7", "--out", str(out)]) == 0
        truths = []
        real = harness.generate_truth

        def record(config, seed):
            truths.append(real(config, seed))
            return truths[-1]

        monkeypatch.setattr(harness, "generate_truth", record)
        config = ExperimentConfig(n_steps=5, n_replicates=1, master_seed=7)
        assert not run_replicate(config, 0).failed
        rows = out.read_text().strip().split("\n")[1:]
        assert rows == [f"{k}," + ",".join(f"{v:.6g}" for v in x) for k, x in enumerate(truths[0])]

    def test_run_subcommand(self, capsys):
        code = main(["run", "--filter", "enkf", "--n-steps", "10", "--master-seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rmse" in out

    def test_run_prints_repair_factorizations(self, capsys):
        code = main(["run", "--filter", "progressive_ekf", "--n", "640", "--n-steps", "3"])
        assert code == 0
        config = ExperimentConfig(filter="progressive_ekf", n=640, n_steps=3)
        total = run_replicate(config, 0).repair_factorizations
        assert f"repair factorizations: {total}\n" in capsys.readouterr().out

    def test_bench_subcommand(self, tmp_path):
        runs = tmp_path / "runs.csv"
        summary = tmp_path / "summary.csv"
        code = main([
            "bench", "--filter", "sparse_ukf", "--nsp", "5", "--n-steps", "20",
            "--n-replicates", "2", "--workers", "1",
            "--out", str(runs), "--summary-out", str(summary),
        ])
        assert code == 0
        assert runs.exists() and summary.exists()

    def test_table_subcommand(self, capsys, tmp_path):
        code = main([
            "table", "--table", "1", "--n-steps", "15", "--n-replicates", "2",
            "--workers", "1", "--summary-out", str(tmp_path / "t1.csv"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sparse_ukf" in out and "enkf" in out

    def test_config_file_and_override(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "# experiment\nfilter = enkf\nn_steps = 10\nmaster_seed = 5\n"
        )
        parsed = parse_config_file(cfgfile)
        assert parsed == {"filter": "enkf", "n_steps": 10, "master_seed": 5}
        code = main(["run", "--config", str(cfgfile), "--n-steps", "8"])
        assert code == 0

    def test_non_finite_config_file_value_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "nan.cfg"
        cfgfile.write_text("filter = enkf\nloc_radius = nan\n")
        code = main(["run", "--config", str(cfgfile), "--n-steps", "5"])
        assert code == 2
        assert capsys.readouterr().err == "error: loc_radius must be finite\n"

    def test_unknown_config_key_fails(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("nonsense = 1\n")
        code = main(["run", "--config", str(cfgfile)])
        assert code == 2

    def test_invalid_config_value_fails(self):
        code = main(["run", "--nsp", "6", "--n-steps", "5"])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--kappa", "-50"],
        ["--filter", "enkf", "--loc-radius", "0"],
        ["--filter", "enkf", "--r-scale", "0"],
        ["--master-seed", "-1"],
        ["--filter", "enkf", "--loc-radius", "nan"],
        ["--q", "nan"],
        ["--dt", "inf"],
    ])
    def test_configurations_that_cannot_run_exit_2(self, flags, capsys):
        code = main(["bench", *flags, "--n-steps", "5", "--n-replicates", "2", "--workers", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["truth", "--master-seed", "-3"],
        ["run", "--replicate", "-1"],
    ])
    def test_negative_seed_or_replicate_exits_2(self, argv, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # where truth would write its default truth.csv
        code = main([*argv, "--n-steps", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_integer_worker_count_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("SPARSEKF_WORKERS", "two")
        code = main(["bench", "--n-steps", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: SPARSEKF_WORKERS must be an integer, got 'two'\n"
