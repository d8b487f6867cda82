"""Benchmark of the sparse UKF and the progressive EKF, end to end and layer by layer.

    python3 bench/run.py --workload desk-n40 --seed 1 --seconds 20 --trace 0

Runs whole rounds (one ``run_experiment`` per filter, each in a fresh child
interpreter) for about ``--seconds`` seconds and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` (replicates) and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. Exits nonzero when a check fails or the package cannot
be imported from ``src/``. Details go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import workloads

# One BLAS thread in every child and pool worker. The pool already gives each
# core a process, multi-threaded BLAS on top of it oversubscribes the cores,
# and the thread count changes low-order bits of the results. Set before
# numpy is imported, so environment() reports the count the children use.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 5
RUN_LIMIT_S = 150.0  # no round starts that is expected to end past this
DEADLINE_S = 170.0  # children still running past this are killed, so a run ends within 180 s

# name -> (unit, better); the same as in BENCHMARK.json.
END_TO_END = {
    **{
        f"{f}.{name}": spec
        for f in workloads.FILTERS
        for name, spec in (
            ("cycles_per_s", ("cycles/s", "higher")),
            ("rmse", ("state_units", "lower")),
            ("peak_rss_mib", ("MiB", "lower")),
        )
    },
    "setup_s": ("s", "lower"),
}

_PER_FILTER_LAYER = (
    ("models.step_components_many.ms", ("ms", "lower")),
    ("models.evals_counted", ("count", "lower")),
    ("models.evals_performed", ("count", "lower")),
    ("sparse_core.min_eigenvalue.ms", ("ms", "lower")),
    ("sparse_core.restricted_product.ms", ("ms", "lower")),
    ("sparse_core.dense_n2", ("count", "lower")),
    ("sparse_core.dense_mib", ("MiB", "lower")),
    ("filters.self.ms", ("ms", "lower")),
    ("filters.cycle_ms.p50", ("ms", "lower")),
    ("filters.cycle_ms.p90", ("ms", "lower")),
    ("filters.gamma_rate", ("ratio", "lower")),
    ("harness.pool_efficiency", ("ratio", "higher")),
)
PER_LAYER = {
    **{f"{f}.{name}": spec for f in workloads.FILTERS for name, spec in _PER_FILTER_LAYER},
    "sukf.sparse_core.incomplete_cholesky.ms": ("ms", "lower"),
    "sukf.sparse_core.restricted_outer_accumulate.ms": ("ms", "lower"),
    "harness.generate_truth.ms": ("ms", "lower"),
}


class BenchError(RuntimeError):
    """A child process failed or the run could not finish in time."""


def environment():
    """Versions and the BLAS thread count; the thread count changes low-order bits."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 has no mode argument
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": workloads.nproc(),
    }


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "blas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def child(deadline, *args):
    """Run bench/child.py to completion; returns its JSON line and wall seconds."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *map(str, args)]
    t0 = time.perf_counter()
    timeout = max(1.0, deadline - t0)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[1:])} did not finish in {timeout:.0f} s")
    wall = time.perf_counter() - t0
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(lines[-1]), wall


def run_rounds(workload, seed, seconds, trace, started):
    """Whole rounds, each running every filter once, for about ``seconds``.

    A round starts only when it is expected to end within ``seconds``; the
    first always runs.
    """
    mode = "trace" if trace else "run"
    rounds, spent = [], 0.0
    while True:
        seed_of_round = workloads.master_seed(seed, len(rounds))
        t0 = time.perf_counter()
        rounds.append({
            f: child(started + DEADLINE_S, "--mode", mode, "--workload", workload.name,
                     "--filter", f, "--master-seed", seed_of_round)[0]
            for f in workloads.FILTERS
        })
        spent += time.perf_counter() - t0
        per_round = spent / len(rounds)
        elapsed = time.perf_counter() - started
        if spent + per_round > seconds or elapsed + per_round > RUN_LIMIT_S:
            return rounds


def end_to_end_metrics(workload, rounds, setup_times, failures):
    metrics = {}
    for f in workloads.FILTERS:
        runs = [r[f] for r in rounds]
        rmses = [x for run in runs for x in run["rmse"]]
        if not rmses:
            failures.append(f"{f}: no replicate passed its checks")
            rmses = [0.0]
        rmse = statistics.median(rmses)
        band = workload.rmse_bands.get(f)
        if band and not band[0] <= rmse <= band[1]:
            failures.append(f"{f}: median RMSE {rmse:.4f} outside the reference band {band}")
        metrics[f"{f}.cycles_per_s"] = statistics.median(run["cycles"] / run["wall_s"] for run in runs)
        metrics[f"{f}.rmse"] = rmse
        metrics[f"{f}.peak_rss_mib"] = statistics.median(run["peak_rss_mib"] for run in runs)
    metrics["setup_s"] = statistics.median(setup_times)
    return metrics


def per_layer_metrics(rounds):
    metrics, info = {}, {}
    for f in workloads.FILTERS:
        runs = [r[f] for r in rounds]
        cycles = sum(run["cycles"] for run in runs)
        total = {k: sum(run["sums"][k] for run in runs) for k in runs[0]["sums"]}
        per_cycle = {k: (v / cycles if cycles else 0.0) for k, v in total.items()}
        cycle_ms = [x for run in runs for x in run["cycle_ms"]]
        layer = {
            "models.step_components_many.ms": 1e3 * per_cycle["models.step_components_many"],
            "models.evals_counted": per_cycle["evals_counted"],
            "models.evals_performed": per_cycle["evals_performed"],
            "sparse_core.min_eigenvalue.ms": 1e3 * per_cycle["sparse_core.min_eigenvalue"],
            "sparse_core.restricted_product.ms": 1e3 * per_cycle["sparse_core.restricted_product"],
            "sparse_core.dense_n2": per_cycle["dense_n2"],
            "sparse_core.dense_mib": per_cycle["dense_bytes"] / 2**20,
            "filters.self.ms": 1e3 * per_cycle["self"],
            "filters.cycle_ms.p50": statistics.median(cycle_ms) if cycle_ms else 0.0,
            "filters.cycle_ms.p90": (
                statistics.quantiles(cycle_ms, n=10, method="inclusive")[8]
                if len(cycle_ms) >= 100 else 0.0),
            "filters.gamma_rate": per_cycle["gamma"],
            "harness.pool_efficiency": statistics.median(
                run["pool"]["serial_s"] * run["pool"]["replicates"]
                / (run["pool"]["workers"] * run["pool"]["wall_s"])
                for run in runs
            ),
        }
        if f == "sukf":
            layer["sparse_core.incomplete_cholesky.ms"] = (
                1e3 * per_cycle["sparse_core.incomplete_cholesky"])
            layer["sparse_core.restricted_outer_accumulate.ms"] = (
                1e3 * per_cycle["sparse_core.restricted_outer_accumulate"])
        metrics.update({f"{f}.{k}": v for k, v in layer.items()})
        info[f] = {
            "traced_cycles": cycles,
            "trace_overhead": statistics.median(run["trace_overhead"] for run in runs),
            "covariance_checks": sum(run["covariance_checks"] for run in runs),
            "missing": sorted({m for run in runs for m in run["missing"]}),
        }
    truth_ms = [x for r in rounds for f in workloads.FILTERS for x in r[f]["truth_ms"]]
    metrics["harness.generate_truth.ms"] = statistics.fmean(truth_ms) if truth_ms else 0.0
    return metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    started = time.perf_counter()
    try:
        workloads.import_sparsekf(ROOT)  # fail fast on a checkout without src/
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    print(json.dumps({"env": env}), flush=True)
    failures = []
    try:
        setup_times = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                _, wall = child(started + DEADLINE_S, "--mode", "setup", "--workload",
                                workload.name, "--master-seed", workloads.master_seed(args.seed, 0))
                setup_times.append(wall)
        rounds = run_rounds(workload, args.seed, args.seconds, args.trace, started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for r in rounds:
        for f in workloads.FILTERS:
            failures.extend(f"{f}: {msg}" for msg in r[f]["failures"])
    info = {}
    if args.trace:
        values, info = per_layer_metrics(rounds)
        specs = PER_LAYER
        print(json.dumps({"trace": info}), flush=True)
    else:
        values = end_to_end_metrics(workload, rounds, setup_times, failures)
        specs = END_TO_END
    result = {
        "correct": not failures,
        "attempted": sum(r[f]["attempted"] for r in rounds for f in workloads.FILTERS),
        "failed": sum(r[f]["failed"] for r in rounds for f in workloads.FILTERS),
        "metrics": {name: {"value": values[name], "unit": specs[name][0]} for name in specs},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as f:
        json.dump({"args": vars(args), "env": env, "result": result, "failures": failures,
                   "setup_s": setup_times, "trace": info, "rounds": rounds}, f, indent=1)
    for msg in failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
