"""Assimilation cycles: sparse UKF, progressive EKF, EnKF and dense-UKF baselines.

Each ``*_cycle`` function advances one analysis (state estimate + error
covariance) by one assimilation step and returns a new state; inputs are not
mutated. The sparse filters keep the covariance on a fixed sparsity pattern
and repair indefiniteness by adding gamma*I with gamma just above the
magnitude of the smallest negative eigenvalue.

Passing ``y_obs=None`` performs the forecast half of the cycle only (used
when observations arrive less often than the model steps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .models import step_columns
from .sparse_core import (
    SparseSymMatrix,
    incomplete_cholesky,
    local_outer_sum,
    local_sum_band,
    local_sum_columns,
    min_eigenvalue,
    restricted_outer_accumulate,
    restricted_product,
)

# Margin added on top of |lambda_min| when repairing an indefinite covariance,
# so the repaired matrix is positive definite rather than merely semidefinite.
GAMMA_MARGIN = 1e-8


@dataclass
class CycleDiagnostics:
    """Per-cycle bookkeeping: repair sizes and computational load."""

    gamma: float = 0.0
    cholesky_jitter: float = 0.0
    evaluations: int = 0
    innovation_norm: float = 0.0


@dataclass
class FilterState:
    """Analysis mean and covariance after a cycle, plus its diagnostics.

    ``Pa`` is a SparseSymMatrix for the sparse filters and a dense array for
    the dense UKF.
    """

    xa: np.ndarray
    Pa: object
    diagnostics: CycleDiagnostics | None = None


def ukf_weights(n, kappa=0.0):
    """Sigma-point weights: w_0 = kappa/(n+kappa), w_i = 1/(2(n+kappa))."""
    if n + kappa <= 0:
        raise ValueError("n + kappa must be positive")
    w = np.full(2 * n + 1, 1.0 / (2.0 * (n + kappa)))
    w[0] = kappa / (n + kappa)
    return w


@dataclass(frozen=True)
class UkfParams:
    """Sparse-UKF parameters: pattern, scaling factor and noise covariances."""

    pattern: object
    R: np.ndarray
    kappa: float = 0.0
    Q: SparseSymMatrix | None = None

    def __post_init__(self):
        if self.Q is not None and self.Q.pattern != self.pattern:
            raise ValueError("Q must live on the filter pattern")


@dataclass(frozen=True)
class DenseUkfParams:
    """Dense-UKF parameters; Q is a dense matrix or None."""

    R: np.ndarray
    kappa: float = 0.0
    Q: np.ndarray | None = None


@dataclass(frozen=True)
class ProgressiveParams:
    """Progressive-EKF parameters: finite-difference step and inner sub-steps."""

    pattern: object
    R: np.ndarray
    delta: float = 1e-4
    n_p: int = 1
    Q: SparseSymMatrix | None = None

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.n_p < 1:
            raise ValueError("n_p must be >= 1")
        if self.Q is not None and self.Q.pattern != self.pattern:
            raise ValueError("Q must live on the filter pattern")


@dataclass(frozen=True)
class EnkfParams:
    """Stochastic EnKF parameters: ensemble size, taper radius, inflation.

    ``loc_radius`` is the Gaspari-Cohn half-width: the taper is 1 at distance
    0 and reaches 0 at twice the radius. The default reproduces the reference
    baseline's dispersion (occasional divergent runs on Lorenz-96 with 10
    members); tighter radii make the baseline markedly more stable.
    """

    R: np.ndarray
    n_ens: int = 10
    loc_radius: float | None = 9.0
    inflation: float = field(default=math.sqrt(1.08))

    def __post_init__(self):
        if self.n_ens < 2:
            raise ValueError("n_ens must be >= 2")
        if self.loc_radius is not None and self.loc_radius <= 0:
            raise ValueError("loc_radius must be positive (or None for no taper)")


def gaspari_cohn(dist, radius):
    """Gaspari-Cohn fifth-order taper: 1 at distance 0, 0 beyond 2*radius."""
    r = np.abs(np.asarray(dist, dtype=float)) / radius
    out = np.zeros_like(r)
    inner = r <= 1.0
    ri = r[inner]
    out[inner] = (((-0.25 * ri + 0.5) * ri + 0.625) * ri - 5.0 / 3.0) * ri * ri + 1.0
    outer = (r > 1.0) & (r < 2.0)
    ro = r[outer]
    out[outer] = (
        ((((ro / 12.0 - 0.5) * ro + 0.625) * ro + 5.0 / 3.0) * ro - 5.0) * ro
        + 4.0
        - 2.0 / (3.0 * ro)
    )
    return out if out.shape else float(out)


@lru_cache(maxsize=16)
def _gaspari_cohn_matrix(n, radius):
    idx = np.arange(n)
    diff = np.abs(idx[:, None] - idx[None, :])
    dist = np.minimum(diff, n - diff)
    C = gaspari_cohn(dist, radius)
    C.flags.writeable = False
    return C


def _gamma_repair(E):
    """Eq.-style positivity repair: gamma = |lambda_min| + margin if indefinite."""
    lam = min_eigenvalue(E)
    if lam < 0.0:
        gamma = -lam + GAMMA_MARGIN
        return E.add_scaled_identity(gamma), gamma
    return E, 0.0


def _dense_cholesky_with_jitter(A):
    """Lower Cholesky factor with the same jitter retry schedule as the sparse path."""
    jitter = 0.0
    n = A.shape[0]
    for _ in range(21):
        try:
            M = A if jitter == 0.0 else A + jitter * np.eye(n)
            return np.linalg.cholesky(M), jitter
        except np.linalg.LinAlgError:
            jitter = 1e-10 if jitter == 0.0 else 2.0 * jitter
    from .sparse_core import FactorizationError

    raise FactorizationError(
        f"dense Cholesky failed after 20 jitter retries (last jitter {jitter / 2:g})"
    )


def sparse_ukf_cycle(state, y_obs, model, obs_op, params):
    """One sparse-UKF assimilation cycle.

    Step 1: sigma-point perturbations are the columns of the pattern-
    restricted Cholesky factor of (n+kappa)*Pa. The center point is forecast
    with the full model; each of the 2n perturbed points differs from it only
    on one pattern column and is forecast only there (``step_columns``),
    giving its local deviation S_k from the center forecast xb0 on that
    column. Every other entry of a perturbed forecast is xb0.
    Step 2: with sbar = sum_k w_k S_k (scattered to length n), the mean is
    xb0 + sbar, and since the weights sum to one the sample covariance is
    A - sbar sbar^T with A = sum_k w_k S_k S_k^T, a band of half width 2h
    accumulated from the local deviations alone. Pb is the pattern part of it,
    Pxy its observed columns and Pyy their observed rows plus R; no n-vector
    per sigma point is ever formed.
    Step 3: gain solve, mean update, and pattern-restricted covariance update
    with the adaptive gamma*I positivity repair.
    """
    n = model.n
    pattern = params.pattern
    w1 = ukf_weights(n, params.kappa)[1]  # every perturbed point has this weight
    evals0 = model.evaluation_count

    # Step 1: sigma points and forecast
    factor, jitter = incomplete_cholesky(state.Pa, n + params.kappa)
    F = factor.values.ravel()[pattern.offset_order]
    xb0 = model.step(state.xa)
    S = step_columns(model, state.xa, pattern, np.stack([F, -F]))
    S -= xb0[pattern.offset_columns]  # (2, n, nsp) local deviations

    # Step 2: background covariances from the local deviations
    sbar = w1 * np.bincount(pattern.offset_columns.ravel(), weights=(S[0] + S[1]).ravel(),
                            minlength=n)
    xb_mean = xb0 + sbar
    D = local_outer_sum(S, w1, pattern)  # A = sum_k w_k S_k S_k^T
    Pb = local_sum_band(D, pattern) - restricted_outer_accumulate(sbar[None, :], np.ones(1),
                                                                  pattern)
    if params.Q is not None:
        Pb = Pb + params.Q

    evals = model.evaluation_count - evals0
    if y_obs is None:
        Pa, gamma = _gamma_repair(Pb)
        diag = CycleDiagnostics(gamma, jitter, evals, 0.0)
        return FilterState(xb_mean, Pa, diag)

    # Step 3: Kalman gain and analysis
    oi = obs_op.indices
    Pxy = local_sum_columns(D, pattern, oi) - np.outer(sbar, sbar[oi])
    Pyy = Pxy[oi] + params.R
    y_obs = np.asarray(y_obs, dtype=float)
    K = np.linalg.solve(Pyy, Pxy.T).T
    innov = y_obs - obs_op.observe(xb_mean)
    xa = xb_mean + K @ innov
    E = Pb - restricted_product(K, Pxy.T, pattern)
    Pa, gamma = _gamma_repair(E)

    diag = CycleDiagnostics(gamma, jitter, evals, float(np.linalg.norm(innov)))
    return FilterState(xa, Pa, diag)


def progressive_ekf_cycle(state, y_obs, model, obs_op, params):
    """One progressive-EKF assimilation cycle.

    The background covariance is propagated without square roots: each of the
    n_p sub-steps replaces P by G + G^T - P, where column i of G is the
    finite-difference response (model(x + delta*P_i) - model(x)) / delta
    restricted to pattern column i. Each probe x + delta*P_i differs from x
    only on that column, so it is forecast there alone (``step_columns``),
    and P, its columns and G + G^T stay on the band. Q is added after the
    last sub-step. The analysis covariance (I - KH)Pb is restricted to the
    pattern and repaired with gamma*I when indefinite.
    """
    pattern = params.pattern
    delta = params.delta
    sub_dt = model.dt / params.n_p
    evals0 = model.evaluation_count

    # Steps 1-2: forecast and progressive covariance propagation
    x_base = np.asarray(state.xa, dtype=float)
    P = state.Pa
    for _ in range(params.n_p):
        x_next = model.step(x_base, dt=sub_dt)
        vals = step_columns(model, x_base, pattern, delta * P.column_values(), dt=sub_dt)
        G = (vals - x_next[pattern.offset_columns]) / delta
        P = SparseSymMatrix.from_columns(G, pattern) - P
        x_base = x_next
    if params.Q is not None:
        P = P + params.Q

    xb = x_base
    yb = obs_op.observe(xb)
    evals = model.evaluation_count - evals0

    if y_obs is None:
        Pa, gamma = _gamma_repair(P)
        diag = CycleDiagnostics(gamma, 0.0, evals, 0.0)
        return FilterState(xb, Pa, diag)

    # Step 3: Kalman gain and analysis
    y_obs = np.asarray(y_obs, dtype=float)
    oi = obs_op.indices
    PHt = P.dense_columns(oi)
    S = PHt[oi, :] + params.R
    K = np.linalg.solve(S, PHt.T).T
    innov = y_obs - yb
    xa = xb + K @ innov
    E = P - restricted_product(K, PHt.T, pattern)
    Pa, gamma = _gamma_repair(E)

    diag = CycleDiagnostics(gamma, 0.0, evals, float(np.linalg.norm(innov)))
    return FilterState(xa, Pa, diag)


def enkf_cycle(ensemble, y_obs, model, obs_op, params, rng):
    """One stochastic (perturbed-observation) EnKF cycle.

    Members are forecast fully, deviations are inflated multiplicatively, the
    sample covariance is Schur-tapered with a Gaspari-Cohn factor on cyclic
    distance, and each member is updated against an independently perturbed
    copy of the observation.
    """
    E = np.asarray(ensemble, dtype=float)
    n_ens, n = E.shape
    if n_ens != params.n_ens:
        raise ValueError(f"expected {params.n_ens} members, got {n_ens}")

    Ef = model.step_many(E)
    if y_obs is None:
        return Ef

    mean_f = Ef.mean(axis=0)
    Dev = (Ef - mean_f) * params.inflation
    E_inf = mean_f + Dev

    B = Dev.T @ Dev / (n_ens - 1)
    if params.loc_radius is not None:
        B = B * _gaspari_cohn_matrix(n, float(params.loc_radius))

    oi = obs_op.indices
    PHt = B[:, oi]
    S = PHt[oi, :] + params.R
    K = np.linalg.solve(S, PHt.T).T

    y_obs = np.asarray(y_obs, dtype=float)
    LR = np.linalg.cholesky(params.R)
    Y_pert = y_obs + rng.standard_normal((n_ens, oi.size)) @ LR.T
    return E_inf + (Y_pert - E_inf[:, oi]) @ K.T


def dense_ukf_cycle(state, y_obs, model, obs_op, params):
    """One textbook UKF cycle with a dense covariance (the reference estimator)."""
    n = model.n
    w = ukf_weights(n, params.kappa)
    evals0 = model.evaluation_count

    L, jitter = _dense_cholesky_with_jitter((n + params.kappa) * state.Pa)
    sigma = np.concatenate([state.xa[None, :], state.xa + L.T, state.xa - L.T])
    Xb = model.step_many(sigma)
    xb_mean = w @ Xb
    Yb = obs_op.observe(Xb)
    yb_mean = w @ Yb

    Xdev = Xb - xb_mean
    Ydev = Yb - yb_mean
    Pb = (Xdev * w[:, None]).T @ Xdev
    if params.Q is not None:
        Pb = Pb + params.Q

    evals = model.evaluation_count - evals0
    if y_obs is None:
        diag = CycleDiagnostics(0.0, jitter, evals, 0.0)
        return FilterState(xb_mean, Pb, diag)

    y_obs = np.asarray(y_obs, dtype=float)
    Pxy = (Xdev * w[:, None]).T @ Ydev
    Pyy = (Ydev * w[:, None]).T @ Ydev + params.R
    K = np.linalg.solve(Pyy, Pxy.T).T
    innov = y_obs - yb_mean
    xa = xb_mean + K @ innov
    Pa = Pb - K @ Pxy.T

    diag = CycleDiagnostics(0.0, jitter, evals, float(np.linalg.norm(innov)))
    return FilterState(xa, Pa, diag)
