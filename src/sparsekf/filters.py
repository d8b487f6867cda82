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
    CyclicBandCholesky,
    FactorizationError,
    SparseSymMatrix,
    band_gain,
    cholesky_with_jitter,
    gain_layout,
    incomplete_cholesky,
    local_outer_sum,
    local_sum_band,
    local_sum_columns,
    min_eigenvalue,
    restricted_outer_accumulate,
    restricted_product,
    uses_structured_path,
)

# Margin added on top of |lambda_min| when repairing an indefinite covariance,
# so the repaired matrix is positive definite rather than merely semidefinite.
GAMMA_MARGIN = 1e-8

# Floor of the positive-definiteness test that lets the repair skip the
# eigenvalue, relative to max |E|. It lies far above the rounding of a
# Cholesky factorization or of eigvalsh (about n * 1e-16 relative), so a
# matrix that passes also reads lambda_min >= 0 under numpy's eigvalsh.
PD_FLOOR = 1e-10


@dataclass
class CycleDiagnostics:
    """Per-cycle bookkeeping: repair sizes, computational load, innovation.

    ``repair_factorizations`` counts the Cholesky factorizations the gamma
    repair made (1 when one certified the covariance positive definite, 0
    on the dense path, where the repair is a dense eigvalsh). ``nis`` is the
    normalized innovation squared ``d^T Pyy^-1 d / m`` of the innovation d
    (0.0 for a forecast-only cycle).
    """

    gamma: float = 0.0
    cholesky_jitter: float = 0.0
    evaluations: int = 0
    innovation_norm: float = 0.0
    repair_factorizations: int = 0
    nis: float = 0.0


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


def _freeze_noise(params):
    """Store a read-only copy of ``params.R`` and its diagonal ``r_diag``
    (None if an entry off the diagonal is nonzero), which picks the gain
    path and the nis formula."""
    R = np.array(params.R, dtype=float)
    R.flags.writeable = False
    m = R.shape[0]
    off = R.ravel()[1:].reshape(m - 1, m + 1)[:, :m]  # every off-diagonal entry
    object.__setattr__(params, "R", R)
    object.__setattr__(params, "r_diag", None if off.any() else R.diagonal())


@dataclass(frozen=True)
class UkfParams:
    """Sparse-UKF parameters: pattern, scaling factor and noise covariances."""

    pattern: object
    R: np.ndarray
    kappa: float = 0.0
    Q: SparseSymMatrix | None = None
    r_diag: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.Q is not None and self.Q.pattern != self.pattern:
            raise ValueError("Q must live on the filter pattern")
        _freeze_noise(self)


@dataclass(frozen=True)
class DenseUkfParams:
    """Dense-UKF parameters; Q is a dense matrix or None."""

    R: np.ndarray
    kappa: float = 0.0
    Q: np.ndarray | None = None
    r_diag: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _freeze_noise(self)


@dataclass(frozen=True)
class ProgressiveParams:
    """Progressive-EKF parameters: finite-difference step and inner sub-steps."""

    pattern: object
    R: np.ndarray
    delta: float = 1e-4
    n_p: int = 1
    Q: SparseSymMatrix | None = None
    r_diag: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.n_p < 1:
            raise ValueError("n_p must be >= 1")
        if self.Q is not None and self.Q.pattern != self.pattern:
            raise ValueError("Q must live on the filter pattern")
        _freeze_noise(self)


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
    """Eq.-style positivity repair: gamma = |lambda_min| + margin if indefinite.

    On the structured path (``uses_structured_path``) one factorization
    first tries to certify ``E - tau I`` positive definite, tau = PD_FLOOR *
    max|E|; gamma is then 0 without an eigenvalue. Returns (Pa, gamma,
    factorizations made).
    """
    factorizations = 0
    if uses_structured_path(E.n, E.pattern.half_bandwidth):
        factorizations = 1
        try:
            CyclicBandCholesky(E, shift=-PD_FLOOR * float(np.abs(E.band).max()))
            return E, 0.0, factorizations
        except np.linalg.LinAlgError:
            pass
    info = {}
    lam = min_eigenvalue(E, info)
    factorizations += info["factorizations"]
    if lam < 0.0:
        gamma = -lam + GAMMA_MARGIN
        return E.add_scaled_identity(gamma), gamma, factorizations
    return E, 0.0, factorizations


def _structured_gain(band, k, pattern, obs_op, r, rhs):
    """``band_gain`` on the cyclic band A (half bandwidth k, band array
    ``band``) observed by ``obs_op``, with M = A[oi, oi] + diag(r); None
    where the dense gain applies instead: observations not a regular stride
    dividing n, an observation space too small for ``uses_structured_path``,
    R not diagonal (r None), or an M that does not factor (the dense solve
    then decides)."""
    if r is None:
        return None
    layout = gain_layout(pattern.n, k, pattern.half_bandwidth, obs_op.indices)
    if layout is None:
        return None
    try:
        return band_gain(layout.observed(band, r), layout.local_rows(band), layout, rhs)
    except (np.linalg.LinAlgError, FactorizationError):
        return None


def _dense_gain(Pyy, Pxy, innov, oi, r):
    """Gain K = Pxy Pyy^-1, K innov and Pyy^-1 innov from one dense solve.

    The observed rows of Pxy are Pyy - R, so K[oi] = I - R Pyy^-1 and
    Pyy^-1 innov = R^-1 (innov - (K innov)[oi]). A diagonal (``r``, the
    params' ``r_diag``), nonsingular R needs nothing more; otherwise innov
    joins the solve as one more right-hand side (measured at about 5 % of
    an n = 160 cycle on a 2-core host with one BLAS thread, so it is kept
    off the common case).
    """
    if r is not None and r.all():
        K = np.linalg.solve(Pyy, Pxy.T).T
        Kd = K @ innov
        return K, Kd, (innov - Kd[oi]) / r
    X = np.linalg.solve(Pyy, np.column_stack([Pxy.T, innov]))
    K = X[:, :-1].T
    return K, K @ innov, X[:, -1]


def _analysis(xa, E, jitter, evals, innov, nis):
    """Repair the analysis covariance E and wrap up the cycle."""
    Pa, gamma, factorizations = _gamma_repair(E)
    diag = CycleDiagnostics(gamma, jitter, evals, float(np.linalg.norm(innov)), factorizations,
                            nis)
    return FilterState(xa, Pa, diag)


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
    Step 3: gain, mean update, and pattern-restricted covariance update with
    the adaptive gamma*I positivity repair. Where ``_structured_gain``
    applies, the gain is never formed: the band of Pxy Pyy^-1 Pxy^T and
    Pxy Pyy^-1 innov come from a band factor of A[oi, oi] + R and
    Sherman-Morrison; elsewhere Pxy and Pyy are dense and one dense solve
    gives the gain.
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
        Pa, gamma, factorizations = _gamma_repair(Pb)
        diag = CycleDiagnostics(gamma, jitter, evals, 0.0, factorizations)
        return FilterState(xb_mean, Pa, diag)

    # Step 3: Kalman gain and analysis
    y_obs = np.asarray(y_obs, dtype=float)
    oi = obs_op.indices
    innov = y_obs - obs_op.observe(xb_mean)
    u = sbar[oi]
    # Pyy = M - u u^T with M = A[oi, oi] + R and Pxy = C - sbar u^T with
    # C = A[:, oi]: Sherman-Morrison gives Pyy^-1 from M^-1 when 1 - u^T M^-1 u
    # > 0, and then band(Pxy Pyy^-1 Pxy^T) = band(C M^-1 C^T) + alpha v v^T
    # - sbar sbar^T with v = C M^-1 u - sbar, alpha = 1 / (1 - u^T M^-1 u).
    gain = _structured_gain(D, 2 * pattern.half_bandwidth, pattern, obs_op, params.r_diag,
                            (innov, u))
    if gain is not None:
        CMC, (Cd, Cu), (Md, Mu) = gain  # band(C M^-1 C^T), C M^-1 [d, u], M^-1 [d, u]
        c = float(u @ Mu)
        if c < 1.0:
            alpha = 1.0 / (1.0 - c)
            ud = float(u @ Md)
            v = Cu - sbar
            xa = xb_mean + Cd + (alpha * ud) * v
            rank_one = restricted_outer_accumulate(np.stack([v, sbar]), np.array([alpha, -1.0]),
                                                   pattern)
            E = Pb - CMC - rank_one
            nis = (float(innov @ Md) + alpha * ud * ud) / oi.size
            return _analysis(xa, E, jitter, evals, innov, nis)

    Pxy = local_sum_columns(D, pattern, oi) - np.outer(sbar, sbar[oi])
    Pyy = Pxy[oi] + params.R
    K, Kd, Pyy_d = _dense_gain(Pyy, Pxy, innov, oi, params.r_diag)
    xa = xb_mean + Kd
    E = Pb - restricted_product(K, Pxy.T, pattern)
    return _analysis(xa, E, jitter, evals, innov, float(innov @ Pyy_d) / oi.size)


def progressive_ekf_cycle(state, y_obs, model, obs_op, params):
    """One progressive-EKF assimilation cycle.

    The background covariance is propagated without square roots: each of the
    n_p sub-steps replaces P by G + G^T - P, where column i of G is the
    finite-difference response (model(x + delta*P_i) - model(x)) / delta
    restricted to pattern column i. Each probe x + delta*P_i differs from x
    only on that column, so it is forecast there alone (``step_columns``),
    and P, its columns and G + G^T stay on the band. Q is added after the
    last sub-step. The analysis covariance (I - KH)Pb is restricted to the
    pattern and repaired with gamma*I when indefinite. Where
    ``_structured_gain`` applies, its band and K innov come from a band
    factor of S = P[oi, oi] + R, with no dense PHt, S or K.
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
        Pa, gamma, factorizations = _gamma_repair(P)
        diag = CycleDiagnostics(gamma, 0.0, evals, 0.0, factorizations)
        return FilterState(xb, Pa, diag)

    # Step 3: Kalman gain and analysis
    y_obs = np.asarray(y_obs, dtype=float)
    oi = obs_op.indices
    innov = y_obs - yb
    gain = _structured_gain(P.band, pattern.half_bandwidth, pattern, obs_op, params.r_diag,
                            (innov,))
    if gain is not None:
        KHP, (Kd,), (Sd,) = gain  # band(K PHt^T), K innov and S^-1 innov
        return _analysis(xb + Kd, P - KHP, 0.0, evals, innov, float(innov @ Sd) / oi.size)

    PHt = P.dense_columns(oi)
    S = PHt[oi, :] + params.R
    K, Kd, Sd = _dense_gain(S, PHt, innov, oi, params.r_diag)
    xa = xb + Kd
    E = P - restricted_product(K, PHt.T, pattern)
    return _analysis(xa, E, 0.0, evals, innov, float(innov @ Sd) / oi.size)


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

    L, jitter = cholesky_with_jitter((n + params.kappa) * state.Pa)
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
    innov = y_obs - yb_mean
    K, Kd, Pyy_d = _dense_gain(Pyy, Pxy, innov, obs_op.indices, params.r_diag)
    xa = xb_mean + Kd
    Pa = Pb - K @ Pxy.T

    diag = CycleDiagnostics(0.0, jitter, evals, float(np.linalg.norm(innov)),
                            nis=float(innov @ Pyy_d) / innov.size)
    return FilterState(xa, Pa, diag)
