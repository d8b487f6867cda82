"""Twin-experiment harness: truth, observations, replicated runs, statistics.

A twin experiment generates a truth trajectory from a random initial state,
synthesizes noisy observations of it, runs a filter against those
observations and scores the analysis against the known truth. Replicates are
independent work items with RNG streams derived deterministically from
(master seed, replicate index), so results do not depend on the execution
schedule.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .filters import (
    DenseUkfParams,
    EnkfParams,
    FilterState,
    ProgressiveParams,
    UkfParams,
    dense_ukf_cycle,
    enkf_cycle,
    progressive_ekf_cycle,
    sparse_ukf_cycle,
)
from .models import Lorenz96Model, ObservationOperator
from .sparse_core import FactorizationError, SparseSymMatrix, SparsityPattern

WORKERS_ENV_VAR = "SPARSEKF_WORKERS"


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    """All run parameters of a twin experiment.

    Defaults are desk scale (finishes in minutes); ``paper_scale()`` switches
    to the long configuration (1000 replicates of 4000 steps).
    """

    n: int = 40
    forcing: float = 8.0
    dt: float = 0.025
    n_steps: int = 2000
    n_replicates: int = 100
    observed_every: int = 2
    r_scale: float = 1.0
    p0: float = 0.2
    filter: str = "sparse_ukf"
    nsp: int = 7
    n_p: int = 1
    delta: float = 1e-4
    n_ens: int = 10
    loc_radius: float = 9.0
    inflation: float = field(default=math.sqrt(1.08))
    q: float = 0.0
    kappa: float = 0.0
    master_seed: int = 0
    obs_interval: int = 1

    def validate(self):
        # NaN fails every comparison below, so it would pass them all
        bad = [f.name for f in fields(self) if f.type == "float"
               and not math.isfinite(getattr(self, f.name))]
        if bad:
            raise ConfigError(f"{', '.join(bad)} must be finite")
        if self.n < 4:
            raise ConfigError(f"n must be >= 4, got {self.n}")
        if self.filter not in FILTERS:
            raise ConfigError(f"unknown filter {self.filter!r}; choose from {tuple(FILTERS)}")
        if self.nsp % 2 == 0 or self.nsp < 1:
            raise ConfigError(f"nsp must be odd and positive, got {self.nsp}")
        if self.nsp > self.n:
            raise ConfigError(f"nsp must be <= n, got nsp={self.nsp} with n={self.n}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be nonnegative, got {self.master_seed}")
        if self.n_steps < 1 or self.n_replicates < 1:
            raise ConfigError("n_steps and n_replicates must be positive")
        if self.observed_every < 1 or self.observed_every > self.n:
            raise ConfigError(f"observed_every must be in [1, n], got {self.observed_every}")
        if self.obs_interval < 1:
            raise ConfigError("obs_interval must be >= 1")
        if self.r_scale < 0 or self.p0 < 0 or self.q < 0:
            raise ConfigError("r_scale, p0 and q must be nonnegative")
        if self.n_p < 1:
            raise ConfigError("n_p must be >= 1")
        if self.delta <= 0:
            raise ConfigError("delta must be positive")
        if self.n_ens < 2:
            raise ConfigError("n_ens must be >= 2")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.filter in ("sparse_ukf", "dense_ukf") and self.n + self.kappa <= 0:
            raise ConfigError(f"n + kappa must be positive, got n={self.n}, kappa={self.kappa}")
        if self.filter == "enkf":
            if self.loc_radius <= 0:
                raise ConfigError(f"loc_radius must be positive, got {self.loc_radius}")
            if self.r_scale == 0:
                raise ConfigError(
                    "the EnKF perturbs observations with r_scale * I, so r_scale must be positive")
        return self

    def paper_scale(self):
        """The long configuration reported in the source experiments."""
        return replace(self, n_steps=4000, n_replicates=1000)

    @property
    def half_bandwidth(self):
        return (self.nsp - 1) // 2

    def param_label(self):
        """Short parameter tag for report rows."""
        if self.filter == "enkf":
            return f"Nens={self.n_ens}"
        if self.filter == "progressive_ekf":
            return f"Nsp={self.nsp} np={self.n_p}"
        if self.filter == "sparse_ukf":
            return f"Nsp={self.nsp}"
        return "dense"


@dataclass
class ReplicateResult:
    replicate: int
    rmse: float
    eval_per_cycle: float
    gamma_activations: int
    jitter_activations: int
    failed: bool = False
    error: str | None = None


@dataclass
class SummaryStats:
    """Order statistics of a sample of RMSE values."""

    n: int
    median: float
    mean: float
    std: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float


@dataclass
class RunSummary:
    filter: str
    param: str
    results: list
    stats: SummaryStats | None
    n_failed: int
    eval_per_cycle: float
    gamma_activation_rate: float
    jitter_activation_rate: float


def summarize(values):
    """Median, mean, sample std, quartiles and 1.5*IQR whisker bounds."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot summarize an empty list")
    q1, med, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    std = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return SummaryStats(
        n=values.size,
        median=float(med),
        mean=float(np.mean(values)),
        std=std,
        q1=float(q1),
        q3=float(q3),
        whisker_low=float(q1 - 1.5 * iqr),
        whisker_high=float(q3 + 1.5 * iqr),
    )


def rmse(analysis, truth):
    """Root-mean-square error over all state entries and all time steps."""
    analysis = np.asarray(analysis, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if analysis.shape != truth.shape:
        raise ValueError(f"trajectory shapes differ: {analysis.shape} vs {truth.shape}")
    return float(np.sqrt(np.mean((analysis - truth) ** 2)))


def replicate_seeds(config, replicate):
    """The (truth, observation, initial state, filter) seeds of one
    replicate, derived from (master seed, replicate index) only."""
    return np.random.SeedSequence(config.master_seed, spawn_key=(replicate,)).spawn(4)


def observation_operator(config):
    """Every ``observed_every``-th entry, observed with noise ``r_scale * I``."""
    return ObservationOperator(config.n, config.observed_every, config.r_scale)


def generate_truth(config, seed):
    """Truth trajectory: uniform[-1, 1]^n initial state advanced n_steps times."""
    rng = np.random.default_rng(seed)
    model = Lorenz96Model(config.n, config.forcing, config.dt)
    traj = np.empty((config.n_steps + 1, config.n))
    traj[0] = rng.uniform(-1.0, 1.0, config.n)
    for k in range(1, config.n_steps + 1):
        traj[k] = model.step(traj[k - 1])
    return traj


def observation_times(config):
    """Assimilation steps: every obs_interval-th step, starting at the first."""
    return np.arange(config.obs_interval, config.n_steps + 1, config.obs_interval)


def synthesize_observations(truth, config, seed):
    """Noisy observations of the truth at each assimilation time.

    Returns (times, y) where y[k] observes truth[times[k]] with additive
    Gaussian noise of covariance r_scale * I.
    """
    rng = np.random.default_rng(seed)
    obs_op = observation_operator(config)
    times = observation_times(config)
    y = obs_op.observe(truth[times])
    if obs_op.r > 0:
        y = y + math.sqrt(obs_op.r) * rng.standard_normal(y.shape)
    return times, y


class _Filter:
    """One filter as run by ``run_replicate``: ``init(config, xa0, rng)``
    sets the filter up and returns its initial state, and ``cycle(state,
    y)`` returns the next state (``y`` is None on a forecast-only step).
    ``cycle`` raises FloatingPointError when the filter's covariance, or the
    EnKF's members, are no longer finite."""

    def __init__(self, model, obs_op):
        self.model = model
        self.obs_op = obs_op


def _require_finite(values, what):
    if not np.isfinite(values).all():
        raise FloatingPointError(f"non-finite analysis {what}")


class SparseUkf(_Filter):
    """The sparse UKF; ``Pa`` is a SparseSymMatrix on the config's pattern."""

    def init(self, config, xa0, rng):
        pattern = SparsityPattern(config.n, config.half_bandwidth)
        Q = SparseSymMatrix.identity(pattern, config.q) if config.q > 0 else None
        self.params = UkfParams(pattern=pattern, kappa=config.kappa, Q=Q)
        return FilterState(xa0, SparseSymMatrix.identity(pattern, config.p0))

    def cycle(self, state, y):
        state = sparse_ukf_cycle(state, y, self.model, self.obs_op, self.params)
        _require_finite(state.Pa.band, "covariance")
        return state


class ProgressiveEkf(_Filter):
    """The progressive EKF; ``Pa`` is a SparseSymMatrix on the config's pattern."""

    def init(self, config, xa0, rng):
        pattern = SparsityPattern(config.n, config.half_bandwidth)
        Q = SparseSymMatrix.identity(pattern, config.q) if config.q > 0 else None
        self.params = ProgressiveParams(pattern=pattern, delta=config.delta, n_p=config.n_p, Q=Q)
        return FilterState(xa0, SparseSymMatrix.identity(pattern, config.p0))

    def cycle(self, state, y):
        state = progressive_ekf_cycle(state, y, self.model, self.obs_op, self.params)
        _require_finite(state.Pa.band, "covariance")
        return state


class DenseUkf(_Filter):
    """The dense-covariance UKF; ``Pa`` is an n x n array."""

    def init(self, config, xa0, rng):
        Q = config.q * np.eye(config.n) if config.q > 0 else None
        self.params = DenseUkfParams(kappa=config.kappa, Q=Q)
        return FilterState(xa0, config.p0 * np.eye(config.n))

    def cycle(self, state, y):
        state = dense_ukf_cycle(state, y, self.model, self.obs_op, self.params)
        _require_finite(state.Pa, "covariance")
        return state


@dataclass
class EnkfState:
    """The EnKF's members, one per row, and their mean ``xa``, the analysis."""

    xa: np.ndarray
    members: np.ndarray
    diagnostics = None  # the EnKF reports no per-cycle diagnostics


class Enkf(_Filter):
    """The stochastic EnKF; its state is an EnkfState."""

    def init(self, config, xa0, rng):
        self.params = EnkfParams(n_ens=config.n_ens, loc_radius=config.loc_radius,
                                 inflation=config.inflation)
        self.rng = rng  # draws the initial members, then every cycle's perturbed observations
        members = xa0 + math.sqrt(config.p0) * rng.standard_normal((config.n_ens, config.n))
        return EnkfState(members.mean(axis=0), members)

    def cycle(self, state, y):
        members = enkf_cycle(state.members, y, self.model, self.obs_op, self.params, self.rng)
        _require_finite(members, "ensemble")
        return EnkfState(members.mean(axis=0), members)


FILTERS = {"sparse_ukf": SparseUkf, "progressive_ekf": ProgressiveEkf, "enkf": Enkf,
           "dense_ukf": DenseUkf}


def run_replicate(config, replicate):
    """Run one replicate end to end; never raises on numerical failure, and
    silences numpy's floating-point warnings, since the failure is reported."""
    s_truth, s_obs, s_init, s_filter = replicate_seeds(config, replicate)

    truth = generate_truth(config, s_truth)
    times, ys = synthesize_observations(truth, config, s_obs)
    y_at = dict(zip(times.tolist(), ys))

    rng_init = np.random.default_rng(s_init)
    xa0 = truth[0] + math.sqrt(config.p0) * rng_init.standard_normal(config.n)

    model = Lorenz96Model(config.n, config.forcing, config.dt)
    obs_op = observation_operator(config)
    filt = FILTERS[config.filter](model, obs_op)
    state = filt.init(config, xa0, np.random.default_rng(s_filter))

    sq_sum = float(np.sum((state.xa - truth[0]) ** 2))
    gamma_hits = 0
    jitter_hits = 0
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for k in range(1, config.n_steps + 1):
                state = filt.cycle(state, y_at.get(k))
                _require_finite(state.xa, "state")
                sq_sum += float(np.sum((state.xa - truth[k]) ** 2))
                d = state.diagnostics
                if d is not None:
                    gamma_hits += d.gamma > 0.0
                    jitter_hits += d.cholesky_jitter > 0.0
    except (FactorizationError, FloatingPointError, np.linalg.LinAlgError, MemoryError) as exc:
        return ReplicateResult(
            replicate, float("nan"), float("nan"), gamma_hits, jitter_hits,
            failed=True, error=f"{type(exc).__name__} at cycle {k}: {exc}",
        )

    run_rmse = math.sqrt(sq_sum / (config.n * (config.n_steps + 1)))
    eval_per_cycle = model.evaluation_count / config.n_steps
    return ReplicateResult(
        replicate, run_rmse, eval_per_cycle, gamma_hits, jitter_hits
    )


def _worker(args):
    config, replicate = args
    return run_replicate(config, replicate)


def default_workers():
    """Worker count from SPARSEKF_WORKERS, else the CPUs this process may
    run on (its affinity mask where the platform has one)."""
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV_VAR} must be an integer, got {env!r}") from None
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(config, workers=None):
    """Run all replicates of a configuration and aggregate their RMSE.

    Replicates run on a process pool of at most one worker per replicate
    (``workers=1`` forces serial execution, which loads no pool; the default
    comes from the SPARSEKF_WORKERS environment variable or the available
    parallelism). Failed replicates are excluded from aggregates but counted
    in the summary.
    """
    config.validate()
    if workers is None:
        workers = default_workers()
    workers = min(workers, config.n_replicates)
    tasks = [(config, r) for r in range(config.n_replicates)]
    if workers <= 1:
        results = [run_replicate(config, r) for r in range(config.n_replicates)]
    else:
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            results = list(pool.map(_worker, tasks, chunksize=1))
    return aggregate_results(config, results)


def aggregate_results(config, results):
    """Deterministic reduction of per-replicate results into a RunSummary."""
    ok = [r for r in results if not r.failed]
    stats = summarize([r.rmse for r in ok]) if ok else None
    n_cycles = config.n_steps
    return RunSummary(
        filter=config.filter,
        param=config.param_label(),
        results=list(results),
        stats=stats,
        n_failed=len(results) - len(ok),
        eval_per_cycle=float(np.mean([r.eval_per_cycle for r in ok])) if ok else float("nan"),
        gamma_activation_rate=(
            float(np.mean([r.gamma_activations / n_cycles for r in ok])) if ok else float("nan")
        ),
        jitter_activation_rate=(
            float(np.mean([r.jitter_activations / n_cycles for r in ok])) if ok else float("nan")
        ),
    )


def _fmt(x):
    return f"{x:.6g}"


RUNS_CSV_HEADER = (
    "filter,param,replicate,rmse,eval_per_cycle,gamma_activations,jitter_activations")
SUMMARY_CSV_HEADER = "filter,param,median,mean,std,q1,q3,n_replicates,n_failed"


def write_runs_csv(summary, path):
    """Per-replicate CSV; failed replicates appear with rmse=nan."""
    with open(path, "w") as f:
        f.write(RUNS_CSV_HEADER + "\n")
        for r in summary.results:
            f.write(
                f"{summary.filter},{summary.param},{r.replicate},"
                f"{_fmt(r.rmse)},{_fmt(r.eval_per_cycle)},{r.gamma_activations},"
                f"{r.jitter_activations}\n"
            )


def write_summary_csv(summaries, path):
    with open(path, "w") as f:
        f.write(SUMMARY_CSV_HEADER + "\n")
        for s in summaries:
            st = s.stats
            if st is None:
                nan = float("nan")
                row = [nan, nan, nan, nan, nan]
                n_ok = 0
            else:
                row = [st.median, st.mean, st.std, st.q1, st.q3]
                n_ok = st.n
            f.write(
                f"{s.filter},{s.param},"
                + ",".join(_fmt(v) for v in row)
                + f",{n_ok},{s.n_failed}\n"
            )

