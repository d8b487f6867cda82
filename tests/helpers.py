"""Shared test fixtures: a linear model, closed-form KF oracles and
dense-path oracles of the sparse filters."""

import numpy as np

from sparsekf.filters import GAMMA_MARGIN, CycleDiagnostics, FilterState, ukf_weights
from sparsekf.models import ComponentModel
from sparsekf.sparse_core import SparseSymMatrix, restricted_outer_accumulate


class LinearModel(ComponentModel):
    """Discrete linear map x -> A @ x with no declared halo: it is only ever
    stepped on whole states.

    Sub-step refinement has no meaning for a discrete map; tests only use
    n_p = 1, where the dt argument is ignored.
    """

    def __init__(self, A, dt=1.0):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        super().__init__(A.shape[0], dt)
        self.A = A

    def advance(self, X, dt):
        # row by row, so that a row of a batch is A @ x bit for bit
        return np.apply_along_axis(lambda x: self.A @ x, -1, X)


def call_counter(monkeypatch, owner, name):
    """Count the calls of ``owner.name``."""
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def scalar_kf(a, r, q, x0, p0, obs):
    """Closed-form scalar Kalman filter for x(k) = a x(k-1), y = x + noise."""
    xs, ps = [], []
    x, p = float(x0), float(p0)
    for y in obs:
        xb = a * x
        pb = a * a * p + q
        k = pb / (pb + r)
        x = xb + k * (float(y) - xb)
        p = (1.0 - k) * pb
        xs.append(x)
        ps.append(p)
    return np.array(xs), np.array(ps)


def dense_kf_cycle(x, P, A, H, Q, R, y):
    """One predict+update of the textbook (dense, linear) Kalman filter."""
    xb = A @ x
    Pb = A @ P @ A.T + Q
    S = H @ Pb @ H.T + R
    K = np.linalg.solve(S, H @ Pb).T
    xa = xb + K @ (y - H @ xb)
    Pa = (np.eye(len(x)) - K @ H) @ Pb
    return xa, Pa


# ---------------------------------------------------------------------------
# Dense-path oracles of the sparse filters: every sigma point and probe is a
# full n-vector stepped with the full model, and every covariance is formed
# from (2n+1) x n deviation matrices or n x n dense matrices. The factor and
# the gamma repair call numpy directly, not the package's kernels, and the
# innovation covariance gets the noise as a dense obs_op.r * I.


def dense_pattern_factor(P, scale):
    """Dense ``np.linalg.cholesky`` of ``scale * P``, zeroed off the pattern."""
    n = P.n
    A = P.to_dense()
    A *= scale
    L = np.linalg.cholesky(A)
    i = np.arange(n)
    dist = np.abs(i[:, None] - i[None, :])
    inside = np.minimum(dist, n - dist) <= P.pattern.half_bandwidth
    return np.where(inside, L, 0.0)


def dense_gamma_repair(E):
    """The gamma repair through numpy's dense eigvalsh, its margin relative
    to max|E|."""
    lam = float(np.linalg.eigvalsh(E.to_dense())[0])
    if lam < 0.0:
        gamma = -lam + GAMMA_MARGIN * float(np.abs(E.band).max())
        return E.add_scaled_identity(gamma), gamma
    return E, 0.0


def dense_path_sparse_ukf_cycle(state, y_obs, model, obs_op, params):
    """Sparse-UKF cycle computed through full-state sigma points."""
    n = model.n
    pattern = params.pattern
    w = ukf_weights(n, params.kappa)
    evals0 = model.evaluation_count

    D = dense_pattern_factor(state.Pa, n + params.kappa)
    xb0 = model.step(state.xa)
    sigma = np.concatenate([state.xa + D.T, state.xa - D.T])  # (2n, n)
    out_idx = np.concatenate([pattern.offset_columns, pattern.offset_columns])
    vals = model.step_components_many(sigma, out_idx)

    merged = np.tile(xb0, (2 * n + 1, 1))
    merged[1:][np.arange(2 * n)[:, None], out_idx] = vals
    xb_mean = w @ merged
    Yb = obs_op.observe(merged)
    yb_mean = w @ Yb
    Xdev = merged - xb_mean
    Ydev = Yb - yb_mean

    Pb = restricted_outer_accumulate(Xdev, w, pattern)
    if params.q:
        Pb = Pb.add_scaled_identity(params.q)
    Pxy = (Xdev * w[:, None]).T @ Ydev
    Pyy = (Ydev * w[:, None]).T @ Ydev + obs_op.r * np.eye(obs_op.m)

    evals = model.evaluation_count - evals0
    if y_obs is None:
        Pa, gamma = dense_gamma_repair(Pb)
        return FilterState(xb_mean, Pa, CycleDiagnostics(gamma, evals, 0.0))

    y_obs = np.asarray(y_obs, dtype=float)
    K = np.linalg.solve(Pyy, Pxy.T).T
    innov = y_obs - yb_mean
    xa = xb_mean + K @ innov
    E = Pb - SparseSymMatrix.from_dense(K @ Pxy.T, pattern)
    Pa, gamma = dense_gamma_repair(E)
    nis = float(innov @ np.linalg.solve(Pyy, innov)) / innov.size
    return FilterState(xa, Pa, CycleDiagnostics(gamma, evals,
                                                float(np.linalg.norm(innov)), nis=nis))


def dense_path_progressive_ekf_cycle(state, y_obs, model, obs_op, params):
    """Progressive-EKF cycle computed through full-state probes and n x n G."""
    n = model.n
    pattern = params.pattern
    cols = pattern.offset_columns
    delta = params.delta
    sub_dt = model.dt / params.n_p
    col_rows = np.arange(n)[:, None]
    evals0 = model.evaluation_count

    x_base = np.asarray(state.xa, dtype=float)
    P = state.Pa
    for _ in range(params.n_p):
        x_next = model.step(x_base, dt=sub_dt)
        Pd = P.to_dense()
        probes = x_base + delta * Pd.T  # row i = x_base + delta * column i of P
        vals = model.step_components_many(probes, cols, dt=sub_dt)
        G = (vals - x_next[cols]) / delta
        Gd = np.zeros((n, n))
        Gd[cols, col_rows] = G
        P = SparseSymMatrix.from_dense(Gd + Gd.T, pattern) - P
        x_base = x_next
    if params.q:
        P = P.add_scaled_identity(params.q)

    xb = x_base
    yb = obs_op.observe(xb)
    evals = model.evaluation_count - evals0
    if y_obs is None:
        Pa, gamma = dense_gamma_repair(P)
        return FilterState(xb, Pa, CycleDiagnostics(gamma, evals, 0.0))

    y_obs = np.asarray(y_obs, dtype=float)
    oi = obs_op.indices
    PHt = P.to_dense()[:, oi]
    S = PHt[oi, :] + obs_op.r * np.eye(obs_op.m)
    K = np.linalg.solve(S, PHt.T).T
    innov = y_obs - yb
    xa = xb + K @ innov
    E = P - SparseSymMatrix.from_dense(K @ PHt.T, pattern)
    Pa, gamma = dense_gamma_repair(E)
    nis = float(innov @ np.linalg.solve(S, innov)) / innov.size
    return FilterState(xa, Pa, CycleDiagnostics(gamma, evals,
                                                float(np.linalg.norm(innov)), nis=nis))


def lorenz96_rhs(x, forcing):
    """Lorenz-96 right-hand side with cyclic indexing (vectorized on the last
    axis), the oracle of the package's windowed stages:

    dx_i/dt = (x_{i+1} - x_{i-2}) * x_{i-1} - x_i + F
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < 4:
        raise ValueError("the advection stencil i-2..i+1 needs n >= 4")
    i = np.arange(x.shape[-1])
    n = i.size
    return (x[..., (i + 1) % n] - x[..., (i - 2) % n]) * x[..., (i - 1) % n] - x + forcing


def ring_rk4(x, dt, forcing=8.0):
    """RK4 step of the Lorenz-96 ring through four cyclic right-hand sides."""
    k1 = lorenz96_rhs(x, forcing)
    k2 = lorenz96_rhs(x + 0.5 * dt * k1, forcing)
    k3 = lorenz96_rhs(x + 0.5 * dt * k2, forcing)
    k4 = lorenz96_rhs(x + dt * k3, forcing)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rmse(analysis, truth):
    """Root-mean-square error over all state entries and all time steps, the
    oracle of ``run_replicate``'s RMSE."""
    analysis = np.asarray(analysis, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if analysis.shape != truth.shape:
        raise ValueError(f"trajectory shapes differ: {analysis.shape} vs {truth.shape}")
    return float(np.sqrt(np.mean((analysis - truth) ** 2)))


def full_step_columns(x, pattern, perturbations, dt, forcing=8.0):
    """Oracle of ``step_columns`` for Lorenz-96: build every perturbed state
    as a full n-vector, take the full RK4 step, restrict to its column."""
    n, oc = pattern.n, pattern.offset_columns
    P = np.asarray(perturbations, dtype=float).reshape(-1, n, pattern.nsp)
    X = np.tile(x, (P.shape[0], n, 1))
    c = np.arange(n)[:, None]
    X[:, c, oc] = x[oc] + P
    Y = ring_rk4(X, dt, forcing)
    return Y[:, c, oc].reshape(np.shape(perturbations))
