"""One filter of one workload in a fresh interpreter; prints one JSON line.

Each filter runs in its own process so that its peak resident memory, and
that of its pool workers, is its own. Modes:

  setup  import sparsekf and run the first cycle of each filter (the parent
         times the whole process)
  run    time ``run_experiment`` untraced and check its outputs
  trace  time the pool and one serial replicate untraced, then run serial
         replicates with every layer wrapped (see layers.py)

    python3 bench/child.py --mode run --workload desk-n40 --filter sukf --master-seed 1000
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from dataclasses import replace

import numpy as np

import layers
import oracle
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRUTH_CHECK_STEPS = 40
TRUTH_TOLERANCE = 1e-10
MIN_TRACED_CYCLES = 100  # enough cycles for a p90 with ten samples beyond it


def peak_rss_mib():
    """Peak RSS of this process or of its largest waited-for child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def check_truth(sk, config, failures):
    """generate_truth against the benchmark's RK4 from the same initial state."""
    s_truth = oracle.replicate_streams(config.master_seed, 0)[0]
    traj = sk.generate_truth(replace(config, n_steps=TRUTH_CHECK_STEPS), s_truth)
    x0, _ = oracle.initial_states(config, 0)
    ref = oracle.trajectory(x0, TRUTH_CHECK_STEPS, config.dt, config.forcing)
    err = float(np.max(np.abs(traj - ref))) if traj.shape == ref.shape else math.inf
    if not err <= TRUTH_TOLERANCE:
        failures.append(f"generate_truth differs from the reference RK4 by {err:.3g}")


def check_summary(summary, config, failures):
    """Per-replicate checks; returns (replicates failed, RMSEs of the good ones)."""
    if len(summary.results) != config.n_replicates:
        failures.append(f"{len(summary.results)} results for {config.n_replicates} replicates")
    expected = oracle.counted_evals_per_cycle(config.filter, config.n, config.nsp, config.n_p)
    ok = [r for r in summary.results if not r.failed]
    free = oracle.free_run_rmse(config, [r.replicate for r in ok])
    noise_sd = math.sqrt(config.r_scale)
    bad, rmses = 0, []
    for r, free_rmse in zip(ok, free):
        problems = []
        if r.eval_per_cycle != expected:
            problems.append(f"{r.eval_per_cycle} evaluations per cycle, closed form {expected}")
        if not r.rmse < noise_sd:
            problems.append(f"RMSE {r.rmse:.4g} not below the noise sd {noise_sd:.4g}")
        if not r.rmse < free_rmse:
            problems.append(f"RMSE {r.rmse:.4g} not below the free run's {free_rmse:.4g}")
        if problems:
            bad += 1
            failures.extend(f"replicate {r.replicate}: {p}" for p in problems)
        else:
            rmses.append(r.rmse)
    for r in summary.results:
        if r.failed:
            failures.append(f"replicate {r.replicate} failed in the program: {r.error}")
    return len(summary.results) - len(ok) + bad, rmses


def timed_experiment(sk, config, workers):
    t0 = time.perf_counter()
    summary = sk.run_experiment(config, workers=workers)
    return summary, time.perf_counter() - t0


def mode_setup(sk, workload, seed_of_round):
    for short in workloads.FILTERS:
        kwargs = workloads.config_kwargs(workload, short, seed_of_round)
        config = sk.ExperimentConfig(**kwargs)
        sk.run_experiment(replace(config, n_steps=1, n_replicates=1), workers=1)
    return {}


def mode_run(sk, workload, config):
    sk.run_experiment(replace(config, n_steps=1, n_replicates=1), workers=1)  # warm caches
    summary, wall = timed_experiment(sk, config, workloads.workers(workload))
    rss = peak_rss_mib()
    failures = []
    check_truth(sk, config, failures)
    failed, rmses = check_summary(summary, config, failures)
    return {
        "attempted": config.n_replicates,
        "failed": failed,
        "cycles": config.n_steps * config.n_replicates,
        "wall_s": wall,
        "rmse": rmses,
        "peak_rss_mib": rss,
        "failures": failures,
    }


def mode_trace(sk, workload, config):
    failures = []
    check_truth(sk, config, failures)
    sk.run_experiment(replace(config, n_steps=1, n_replicates=1), workers=1)  # warm caches
    n_workers = workloads.workers(workload)
    pool_summary, pool_wall = timed_experiment(sk, config, n_workers)
    one = replace(config, n_replicates=1)
    serial_summary, serial_s = timed_experiment(sk, one, 1)

    traced_config = replace(config, n_replicates=math.ceil(MIN_TRACED_CYCLES / config.n_steps))
    tracer = layers.Tracer()
    with layers.installed(tracer):
        traced_summary, traced_wall = timed_experiment(sk, traced_config, 1)

    attempted = failed = 0
    for cfg, summary in ((config, pool_summary), (one, serial_summary),
                         (traced_config, traced_summary)):
        bad, _ = check_summary(summary, cfg, failures)
        attempted += cfg.n_replicates
        failed += bad
    expected = oracle.counted_evals_per_cycle(config.filter, config.n, config.nsp, config.n_p)
    counted = {rec.get("evals_counted") for rec in tracer.cycles}
    if "filters." + config.filter + "_cycle" not in tracer.missing and counted != {expected}:
        failures.append(f"traced cycles counted {sorted(counted)} evaluations, closed form {expected}")
    failures.extend(tracer.failures)

    labels = layers.TIMED_LABELS + ("self", "evals_counted", "evals_performed",
                                    "dense_n2", "dense_bytes", "gamma")
    sums = {k: math.fsum(rec.get(k, 0.0) for rec in tracer.cycles) for k in labels}
    traced_s = traced_wall - tracer.check_s
    return {
        "attempted": attempted,
        "failed": failed,
        "cycles": len(tracer.cycles),
        "sums": sums,
        "cycle_ms": [1e3 * rec["cycle"] for rec in tracer.cycles],
        "truth_ms": [1e3 * t for t in tracer.truth_s],
        "pool": {"serial_s": serial_s, "replicates": config.n_replicates,
                 "workers": n_workers, "wall_s": pool_wall},
        "trace_overhead": traced_s / (traced_config.n_replicates * serial_s),
        "covariance_checks": tracer.covariance_checks,
        "min_lambda": tracer.min_lambda if tracer.covariance_checks else None,
        "missing": tracer.missing,
        "failures": failures,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--filter", choices=sorted(workloads.FILTERS))
    parser.add_argument("--master-seed", type=int, required=True)
    args = parser.parse_args(argv)

    sk = workloads.import_sparsekf(ROOT)
    workload = workloads.WORKLOADS[args.workload]
    if args.mode == "setup":
        out = mode_setup(sk, workload, args.master_seed)
    else:
        if args.filter is None:
            parser.error("--filter is required with --mode run/trace")
        kwargs = workloads.config_kwargs(workload, args.filter, args.master_seed)
        config = sk.ExperimentConfig(**kwargs).validate()
        out = (mode_run if args.mode == "run" else mode_trace)(sk, workload, config)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
