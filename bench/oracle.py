"""Reference computations made apart from the package under test.

The benchmark checks the program's outputs against these, never against a
stored copy of its output: an independent Lorenz-96 RK4, the closed forms of
the model evaluations counted per cycle, and the RMSE of a free run (no
assimilation) from the filter's own initial estimate.
"""

from __future__ import annotations

import math

import numpy as np


def l96_rk4(x, dt, forcing):
    """One RK4 step of dx_i/dt = (x_{i+1} - x_{i-2}) x_{i-1} - x_i + F on the last axis."""

    def rhs(v):
        # w[..., j] = v[..., j - 2] (cyclic), so x_{i+1}, x_{i-2}, x_{i-1} are w[i+3], w[i], w[i+1].
        w = np.concatenate([v[..., -2:], v, v[..., :1]], axis=-1)
        n = v.shape[-1]
        return (w[..., 3:] - w[..., :n]) * w[..., 1:n + 1] - v + forcing

    k1 = rhs(x)
    k2 = rhs(x + 0.5 * dt * k1)
    k3 = rhs(x + 0.5 * dt * k2)
    k4 = rhs(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def trajectory(x0, steps, dt, forcing):
    out = np.empty((steps + 1,) + np.shape(x0))
    out[0] = x0
    for k in range(steps):
        out[k + 1] = l96_rk4(out[k], dt, forcing)
    return out


def counted_evals_per_cycle(filter_name, n, nsp, n_p):
    """Model evaluations a cycle counts: n + 2n*Nsp (sparse UKF), n_p(n + n*Nsp) (progressive EKF)."""
    if filter_name == "sparse_ukf":
        return n + 2 * n * nsp
    if filter_name == "progressive_ekf":
        return n_p * (n + n * nsp)
    raise ValueError(f"no closed form for {filter_name!r}")


def replicate_streams(master_seed, replicate):
    """The (truth, observation, initial-state, filter) seeds of one replicate.

    This is the derivation the harness documents: streams come from
    (master seed, replicate index) only, so a replicate's inputs do not
    depend on the schedule it ran on.
    """
    return np.random.SeedSequence(master_seed, spawn_key=(replicate,)).spawn(4)


def initial_states(config, replicate):
    """Initial truth (uniform on [-1, 1]^n) and the filter's initial estimate."""
    s_truth, _, s_init, _ = replicate_streams(config.master_seed, replicate)
    x0 = np.random.default_rng(s_truth).uniform(-1.0, 1.0, config.n)
    xa0 = x0 + math.sqrt(config.p0) * np.random.default_rng(s_init).standard_normal(config.n)
    return x0, xa0


def free_run_rmse(config, replicates):
    """Time-mean RMSE of a free run from each replicate's initial estimate.

    Averaged like the harness's analysis RMSE: over all entries and over the
    steps 0..n_steps.
    """
    starts = [initial_states(config, r) for r in replicates]
    truth = np.array([x0 for x0, _ in starts])
    free = np.array([xa0 for _, xa0 in starts])
    sq = np.sum((free - truth) ** 2, axis=1)
    for _ in range(config.n_steps):
        truth = l96_rk4(truth, config.dt, config.forcing)
        free = l96_rk4(free, config.dt, config.forcing)
        sq += np.sum((free - truth) ** 2, axis=1)
    return np.sqrt(sq / (config.n * (config.n_steps + 1)))
