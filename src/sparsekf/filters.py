"""Assimilation cycles: sparse UKF, progressive EKF, EnKF and dense-UKF baselines.

Each ``*_cycle`` function advances one analysis (state estimate + error
covariance) by one assimilation step and returns a new state; inputs are not
mutated. The sparse filters keep the covariance on a fixed sparsity pattern
and repair indefiniteness by adding gamma*I with gamma just above the
magnitude of the smallest negative eigenvalue.

Passing ``y_obs=None`` performs the forecast half of the cycle only (used
when observations arrive less often than the model steps).

The observation operator carries the noise covariance ``r I``
(``obs_op.r``): the dense gains add r to the diagonal of Pyy or S, the
structured gain to the diagonal of M, and the EnKF scales its observation
perturbations by sqrt(r). No m x m noise matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .models import step_columns
from .sparse_core import (
    CyclicReduction,
    FactorizationError,
    SparseSymMatrix,
    _dense_cholesky,
    band_gain,
    cholesky_with_jitter,
    gain_layout,
    incomplete_cholesky,
    local_outer_sum,
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
    (0.0 for a forecast-only cycle). ``lambda_bound`` is True when the
    repair spent EIGEN_FACTORIZATIONS without certifying lambda_min and
    took gamma from the certified lower bound ``min_eigenvalue`` returned.
    """

    gamma: float = 0.0
    cholesky_jitter: float = 0.0
    evaluations: int = 0
    innovation_norm: float = 0.0
    repair_factorizations: int = 0
    nis: float = 0.0
    lambda_bound: bool = False


@dataclass
class FilterState:
    """Analysis mean and covariance after a cycle, plus its diagnostics.

    ``Pa`` is a SparseSymMatrix for the sparse filters and a dense array for
    the dense UKF. ``eigenvector`` is the unit Ritz vector of the last
    lambda_min the gamma repair computed on the structured path, the warm
    start of the next one; it is None until then.
    """

    xa: np.ndarray
    Pa: object
    diagnostics: CycleDiagnostics | None = None
    eigenvector: np.ndarray | None = None


def ukf_weights(n, kappa=0.0):
    """Sigma-point weights: w_0 = kappa/(n+kappa), w_i = 1/(2(n+kappa))."""
    if n + kappa <= 0:
        raise ValueError("n + kappa must be positive")
    w = np.full(2 * n + 1, 1.0 / (2.0 * (n + kappa)))
    w[0] = kappa / (n + kappa)
    return w


@dataclass(frozen=True)
class UkfParams:
    """Sparse-UKF parameters: pattern, scaling factor and model noise."""

    pattern: object
    kappa: float = 0.0
    Q: SparseSymMatrix | None = None

    def __post_init__(self):
        if self.Q is not None and self.Q.pattern != self.pattern:
            raise ValueError("Q must live on the filter pattern")


@dataclass(frozen=True)
class DenseUkfParams:
    """Dense-UKF parameters; Q is a dense matrix or None."""

    kappa: float = 0.0
    Q: np.ndarray | None = None


@dataclass(frozen=True)
class ProgressiveParams:
    """Progressive-EKF parameters: finite-difference step and inner sub-steps."""

    pattern: object
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

    n_ens: int = 10
    loc_radius: float | None = 9.0
    inflation: float = math.sqrt(1.08)

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


def _gamma_repair(E, start=None):
    """Eq.-style positivity repair: gamma = |lambda_min| + margin if indefinite.

    On the structured path (``uses_structured_path``) one factorization
    first tries to certify ``E - tau I`` positive definite, tau = PD_FLOOR *
    max|E|; gamma is then 0 without an eigenvalue. That factorization is
    skipped when the Rayleigh quotient of ``start`` (the previous repair's
    vector) already lies below -tau, since then it must fail. ``start`` also
    warm-starts ``min_eigenvalue``. Returns (Pa, gamma, factorizations
    made, lambda_bound, vector), the vector the next repair starts from:
    the new Ritz vector, or ``start`` when there is none.
    """
    factorizations = 0
    structured = uses_structured_path(E.n, E.pattern.half_bandwidth)
    if structured:
        tau = PD_FLOOR * float(np.abs(E.band).max())
        if start is None or _rayleigh_quotient(E, start) >= -tau:
            factorizations = 1
            try:
                CyclicReduction(E, shift=-tau)
                return E, 0.0, factorizations, False, start
            except np.linalg.LinAlgError:
                pass
    lam, count, vector = min_eigenvalue(E, start)
    factorizations += count
    bound = structured and vector is None  # lam is a lower bound of lambda_min
    if vector is not None:
        start = vector
    if lam < 0.0:
        gamma = -lam + GAMMA_MARGIN
        return E.add_scaled_identity(gamma), gamma, factorizations, bound, start
    return E, 0.0, factorizations, bound, start


def _rayleigh_quotient(E, x):
    """x^T E x / x^T x for the SparseSymMatrix E."""
    Ex = np.einsum("ij,ij->i", E.column_values(), x[E.pattern.offset_columns])
    return float(x @ Ex) / float(x @ x)


def _indefinite_innovation():
    """The error that fails a cycle whose innovation covariance is not
    positive definite, on either gain."""
    return FactorizationError("innovation covariance is not positive definite")


def _dense_gain(Pyy, Pxy, innov, r):
    """Whitened dense gain (Bierman 1977) from one Cholesky factor of the
    innovation covariance, once the noise r I is added to ``Pyy`` (in place).

    With Pyy = L L^T, W = L^-1 Pxy^T and z = L^-1 innov, the gain is K = W^T
    L^-1, so K innov = W^T z, K Pxy^T = W^T W and innov^T Pyy^-1 innov = z.z.
    Returns (W, W^T z, z.z). Raises FactorizationError when Pyy has a
    non-finite entry or is not positive definite.
    """
    Pyy.flat[::Pyy.shape[0] + 1] += r  # the diagonal, in place
    try:
        L_inv = np.linalg.inv(_dense_cholesky(Pyy))
    except np.linalg.LinAlgError:
        raise _indefinite_innovation() from None
    W, z = L_inv @ Pxy.T, L_inv @ innov
    return W, W.T @ z, float(z @ z)


def _update(xb, Pb, A, innov, obs_op, sbar=None):
    """Kalman update of the background (xb, Pb) by the innovation: (xa, E,
    nis), E the analysis covariance on Pb's pattern before the repair.

    The cross covariance is Pxy = C - sbar u^T with C = A[:, oi] and u =
    sbar[oi], and Pyy = M - u u^T with M = A[oi, oi] + r I. The progressive
    EKF passes A = Pb and no sbar; the sparse UKF passes A = sum_k w_k S_k
    S_k^T and its mean deviation sbar. The geometry alone picks the gain:
    where ``gain_layout`` is None (a stride that does not divide n, or an
    observation space too small for a band factor), Pxy and Pyy are dense,
    and ``_dense_gain`` whitens them with one Cholesky factor of Pyy.
    Elsewhere no gain is formed: ``band_gain`` gives the band of C M^-1 C^T
    and C M^-1 [d, u] from a band factor of M, and for sbar Sherman-Morrison
    gives Pyy^-1 from M^-1, so that band(Pxy Pyy^-1 Pxy^T) = band(C M^-1
    C^T) + alpha v v^T - sbar sbar^T with v = C M^-1 u - sbar, alpha = 1 /
    (1 - c), c = u^T M^-1 u. Pyy = M - u u^T is positive definite iff M is
    and c < 1, so an M that does not factor, or c >= 1, fails the cycle at
    once with the dense gain's FactorizationError.
    """
    pattern = Pb.pattern
    oi = obs_op.indices
    u = None if sbar is None else sbar[oi]
    layout = gain_layout(A.n, A.pattern.half_bandwidth, pattern.half_bandwidth, obs_op.stride)
    if layout is None:
        Pxy = A.dense_columns(oi)
        if u is not None:
            Pxy -= np.outer(sbar, u)
        W, Kd, zz = _dense_gain(Pxy[oi], Pxy, innov, obs_op.r)
        return xb + Kd, Pb - restricted_product(W.T, W, pattern), zz / oi.size

    try:  # band(C M^-1 C^T), C M^-1 [d, u], M^-1 [d, u]
        CMC, (Cd, *Cu), (Md, *Mu) = band_gain(A, obs_op.r, layout,
                                              (innov,) if u is None else (innov, u))
    except np.linalg.LinAlgError:
        raise _indefinite_innovation() from None
    if u is None:
        return xb + Cd, Pb - CMC, float(innov @ Md) / oi.size
    c = float(u @ Mu[0])
    if c >= 1.0:
        raise _indefinite_innovation()
    alpha = 1.0 / (1.0 - c)
    ud = float(u @ Md)
    v = Cu[0] - sbar
    xa = xb + Cd + (alpha * ud) * v
    rank_one = restricted_outer_accumulate(np.stack([v, sbar]), np.array([alpha, -1.0]), pattern)
    return xa, Pb - CMC - rank_one, (float(innov @ Md) + alpha * ud * ud) / oi.size


def _analysis(xa, E, jitter, evals, start, innov=None, nis=0.0):
    """Repair the analysis covariance E, warm-started from the vector
    ``start`` (``FilterState.eigenvector``), and wrap up the cycle (innov
    None: a forecast-only cycle)."""
    Pa, gamma, factorizations, bound, vector = _gamma_repair(E, start)
    innovation_norm = 0.0 if innov is None else float(np.linalg.norm(innov))
    return FilterState(xa, Pa, CycleDiagnostics(gamma, jitter, evals, innovation_norm,
                                                factorizations, nis, bound), vector)


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
    accumulated from the local deviations alone (``local_outer_sum``). Pb
    is the slice of A on the pattern less the pattern part of sbar sbar^T;
    no n-vector per sigma point is ever formed.
    Step 3: the Kalman update ``_update`` of (xb0 + sbar, Pb) from A and
    sbar, and the adaptive gamma*I positivity repair.
    """
    n = model.n
    pattern = params.pattern
    w1 = ukf_weights(n, params.kappa)[1]  # every perturbed point has this weight
    evals0 = model.evaluation_count

    # Step 1: sigma points and forecast
    factor, jitter = incomplete_cholesky(state.Pa, n + params.kappa)
    xb0 = model.step(state.xa)
    S = step_columns(model, state.xa, pattern, np.stack([factor.values, -factor.values]))
    S -= xb0[pattern.offset_columns]  # (2, n, nsp) local deviations

    # Step 2: background covariances from the local deviations
    sbar = w1 * np.bincount(pattern.offset_columns.ravel(), weights=(S[0] + S[1]).ravel(),
                            minlength=n)
    xb_mean = xb0 + sbar
    A = local_outer_sum(S, w1, pattern)  # A = sum_k w_k S_k S_k^T
    Pb = SparseSymMatrix(pattern, A.band[:, :pattern.half_bandwidth + 1]) \
        - restricted_outer_accumulate(sbar[None, :], np.ones(1), pattern)
    if params.Q is not None:
        Pb = Pb + params.Q

    # Step 3: Kalman update and repair
    evals = model.evaluation_count - evals0
    if y_obs is None:
        return _analysis(xb_mean, Pb, jitter, evals, state.eigenvector)
    innov = np.asarray(y_obs, dtype=float) - obs_op.observe(xb_mean)
    xa, E, nis = _update(xb_mean, Pb, A, innov, obs_op, sbar)
    return _analysis(xa, E, jitter, evals, state.eigenvector, innov, nis)


def progressive_ekf_cycle(state, y_obs, model, obs_op, params):
    """One progressive-EKF assimilation cycle.

    The background covariance is propagated without square roots: each of the
    n_p sub-steps replaces P by G + G^T - P, where column i of G is the
    finite-difference response (model(x + delta*P_i) - model(x)) / delta
    restricted to pattern column i. Each probe x + delta*P_i differs from x
    only on that column, so it is forecast there alone (``step_columns``),
    and P, its columns and G + G^T stay on the band. Q is added after the
    last sub-step. The Kalman update ``_update`` restricts the analysis
    covariance (I - KH)Pb to the pattern, and it is repaired with gamma*I
    when indefinite.
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

    evals = model.evaluation_count - evals0
    if y_obs is None:
        return _analysis(x_base, P, 0.0, evals, state.eigenvector)
    innov = np.asarray(y_obs, dtype=float) - obs_op.observe(x_base)
    xa, E, nis = _update(x_base, P, P, innov, obs_op)
    return _analysis(xa, E, 0.0, evals, state.eigenvector, innov, nis)


def enkf_cycle(ensemble, y_obs, model, obs_op, params, rng):
    """One stochastic (perturbed-observation) EnKF cycle.

    Members are forecast fully, deviations are inflated multiplicatively, the
    sample covariance is Schur-tapered with a Gaspari-Cohn factor on cyclic
    distance, and each member is updated against an independently perturbed
    copy of the observation (noise sqrt(r) times a standard normal draw).
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
    S = PHt[oi, :]
    S.flat[::S.shape[0] + 1] += obs_op.r
    K = np.linalg.solve(S, PHt.T).T

    y_obs = np.asarray(y_obs, dtype=float)
    Y_pert = y_obs + math.sqrt(obs_op.r) * rng.standard_normal((n_ens, oi.size))
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
    Pyy = (Ydev * w[:, None]).T @ Ydev
    innov = y_obs - yb_mean
    W, Kd, zz = _dense_gain(Pyy, Pxy, innov, obs_op.r)
    xa = xb_mean + Kd
    Pa = Pb - W.T @ W

    diag = CycleDiagnostics(0.0, jitter, evals, float(np.linalg.norm(innov)),
                            nis=zz / innov.size)
    return FilterState(xa, Pa, diag)
