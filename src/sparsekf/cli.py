"""Command-line interface.

Subcommands:
  truth   write the truth trajectory of replicate 0
  run     run a single replicate and print its totals (RMSE, evaluations,
          repairs and their factorizations)
  bench   run a full experiment and write run/summary CSVs
  table   run a preset group of configurations and print a summary table

Every ExperimentConfig key can be set in a flat ``key = value`` config file
(``--config``) and overridden by a CLI flag of the same name.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import (
    ConfigError,
    ExperimentConfig,
    generate_truth,
    replicate_seeds,
    run_experiment,
    run_replicate,
    write_runs_csv,
    write_summary_csv,
)

_CONFIG_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
_COERCE = {"int": int, "float": float, "str": str}


def parse_config_file(path):
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    out = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = _COERCE[_CONFIG_TYPES[key]](value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def _add_config_flags(parser):
    for f in dataclasses.fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, type=_COERCE[f.type], default=None)
    parser.add_argument("--config", default=None, help="flat key=value config file")


def build_config(args):
    values = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for name in _CONFIG_TYPES:
        v = getattr(args, name, None)
        if v is not None:
            values[name] = v
    config = ExperimentConfig(**values)
    if getattr(args, "paper_scale", False):
        config = config.paper_scale()
    return config.validate()


def _cmd_truth(args):
    config = build_config(args)
    traj = generate_truth(config, replicate_seeds(config, 0)[0])
    with open(args.out, "w") as f:
        f.write("step," + ",".join(f"x{i}" for i in range(config.n)) + "\n")
        for k, row in enumerate(traj):
            f.write(f"{k}," + ",".join(f"{v:.6g}" for v in row) + "\n")
    print(f"wrote {traj.shape[0]} states of dimension {config.n} to {args.out}")
    return 0


def _cmd_run(args):
    config = build_config(args)
    if args.replicate < 0:
        raise ConfigError(f"replicate must be nonnegative, got {args.replicate}")
    result = run_replicate(config, args.replicate)
    if result.failed:
        print(f"replicate {result.replicate} FAILED: {result.error}", file=sys.stderr)
        return 1
    rows = (
        ("filter", f"{config.filter} ({config.param_label()})"),
        ("replicate", result.replicate),
        ("steps", config.n_steps),
        ("rmse", f"{result.rmse:.6g}"),
        ("eval per cycle", f"{result.eval_per_cycle:.6g}"),
        ("gamma activations", result.gamma_activations),
        ("jitter activations", result.jitter_activations),
        ("repair factorizations", result.repair_factorizations),
    )
    for label, value in rows:
        print(f"{label:<21}: {value}")
    return 0


def _cmd_bench(args):
    config = build_config(args)
    summary = run_experiment(config, workers=args.workers)
    if args.out:
        write_runs_csv(summary, args.out)
    if args.summary_out:
        write_summary_csv([summary], args.summary_out)
    st = summary.stats
    if st is None:
        print("all replicates failed", file=sys.stderr)
        return 1
    print(
        f"{summary.filter} {summary.param}: median {st.median:.6g} "
        f"mean {st.mean:.6g} std {st.std:.6g} "
        f"({st.n} ok, {summary.n_failed} failed, "
        f"{summary.eval_per_cycle:.6g} evals/cycle)"
    )
    return 0


_TABLE_ROWS = {
    1: [
        {"filter": "enkf"},
        {"filter": "sparse_ukf", "nsp": 7},
        {"filter": "sparse_ukf", "nsp": 11},
    ],
    2: [
        {"filter": "enkf"},
        {"filter": "progressive_ekf", "nsp": 7, "n_p": 1},
        {"filter": "progressive_ekf", "nsp": 11, "n_p": 1},
        {"filter": "progressive_ekf", "nsp": 11, "n_p": 2},
        {"filter": "progressive_ekf", "nsp": 17, "n_p": 2},
    ],
}


def _cmd_table(args):
    base = build_config(args)
    summaries = []
    for overrides in _TABLE_ROWS[args.table]:
        config = dataclasses.replace(base, **overrides).validate()
        summaries.append(run_experiment(config, workers=args.workers))
    print(f"{'Filter':<16}{'Size':<14}{'Evals':>8}{'Median':>10}{'Mean':>10}{'STD':>10}")
    for s in summaries:
        st = s.stats
        med, mean, std = (
            (st.median, st.mean, st.std) if st else (float("nan"),) * 3
        )
        print(
            f"{s.filter:<16}{s.param:<14}{s.eval_per_cycle:>8.6g}"
            f"{med:>10.4f}{mean:>10.4f}{std:>10.4f}"
        )
    if args.summary_out:
        write_summary_csv(summaries, args.summary_out)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sparsekf",
        description="Sparsity-based Kalman filters on the Lorenz-96 twin experiment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_truth = sub.add_parser("truth", help="emit replicate 0's truth trajectory as CSV")
    _add_config_flags(p_truth)
    p_truth.add_argument("--out", default="truth.csv")
    p_truth.set_defaults(func=_cmd_truth)

    p_run = sub.add_parser("run", help="run one replicate and print its totals")
    _add_config_flags(p_run)
    p_run.add_argument("--replicate", type=int, default=0)
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="run a full experiment")
    _add_config_flags(p_bench)
    p_bench.add_argument("--workers", type=int, default=None)
    p_bench.add_argument("--paper-scale", action="store_true")
    p_bench.add_argument("--out", default=None, help="per-replicate CSV path")
    p_bench.add_argument("--summary-out", default=None, help="summary CSV path")
    p_bench.set_defaults(func=_cmd_bench)

    p_table = sub.add_parser("table", help="reproduce a summary table")
    _add_config_flags(p_table)
    p_table.add_argument("--table", type=int, choices=(1, 2), required=True)
    p_table.add_argument("--workers", type=int, default=None)
    p_table.add_argument("--paper-scale", action="store_true")
    p_table.add_argument("--summary-out", default=None)
    p_table.set_defaults(func=_cmd_table)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
