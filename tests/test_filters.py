"""Filter-cycle tests: oracles, limits, counts, and positivity repairs."""

import math

import numpy as np
import pytest

import sparsekf.filters as filters
import sparsekf.harness as harness
from helpers import (
    LinearModel,
    dense_gamma_repair,
    dense_kf_cycle,
    dense_path_progressive_ekf_cycle,
    dense_path_sparse_ukf_cycle,
    scalar_kf,
)
from sparsekf.filters import (
    DenseUkfParams,
    EnkfParams,
    FilterState,
    ProgressiveParams,
    UkfParams,
    dense_ukf_cycle,
    enkf_cycle,
    gaspari_cohn,
    progressive_ekf_cycle,
    sparse_ukf_cycle,
    ukf_weights,
)
from sparsekf.models import Lorenz96Model, ObservationOperator, rk4_step, step_columns
from sparsekf.sparse_core import (
    FactorizationError,
    SparseSymMatrix,
    SparsityPattern,
    cholesky_with_jitter,
    incomplete_cholesky,
    min_eigenvalue,
)


def lorenz_setup(n=40, nsp=7, r=1.0, p0=0.2, seed=0):
    rng = np.random.default_rng(seed)
    model = Lorenz96Model(n=n)
    obs_op = ObservationOperator(n)
    pattern = SparsityPattern(n, (nsp - 1) // 2)
    x0 = rng.uniform(-1, 1, n)
    for _ in range(300):
        x0 = rk4_step(x0, model.dt, model.forcing)
    state = FilterState(x0 + 0.3 * rng.standard_normal(n),
                        SparseSymMatrix.identity(pattern, p0))
    R = r * np.eye(obs_op.m)
    return model, obs_op, pattern, state, R, x0, rng


class TestWeights:
    @pytest.mark.parametrize("n,kappa", [(1, 0.0), (5, 0.0), (40, 0.0), (10, 3.0)])
    def test_weights_sum_to_one(self, n, kappa):
        w = ukf_weights(n, kappa)
        assert w.size == 2 * n + 1
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_kappa_kills_center(self):
        assert ukf_weights(7, 0.0)[0] == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            ukf_weights(2, -2.0)


class TestSigmaOffsets:
    def test_identity_covariance_offsets(self):
        # sqrt((n + kappa) I) with n=2, kappa=0 gives +-sqrt(2) e_i offsets
        L, jitter = cholesky_with_jitter(2.0 * np.eye(2))
        assert jitter == 0.0
        assert np.allclose(L, math.sqrt(2.0) * np.eye(2))

    def test_jitter_retry(self):
        L, jitter = cholesky_with_jitter(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert jitter > 0.0
        assert np.isfinite(L).all()


class TestScalarKalmanOracle:
    """On a linear model the UKF moments are exact, so every cycle must match
    the closed-form Kalman filter."""

    def _observations(self, a, steps, seed):
        rng = np.random.default_rng(seed)
        x = 1.3
        ys = []
        for _ in range(steps):
            x = a * x
            ys.append(x + rng.standard_normal())
        return np.array(ys)

    def test_dense_ukf_matches_scalar_kf(self):
        a, r, p0, x0 = 0.97, 1.0, 0.2, 1.0
        ys = self._observations(a, 50, 17)
        kf_x, kf_p = scalar_kf(a, r, 0.0, x0, p0, ys)
        model = LinearModel([[a]])
        obs_op = ObservationOperator(1, [0])
        params = DenseUkfParams(R=np.array([[r]]))
        state = FilterState(np.array([x0]), np.array([[p0]]))
        for k, y in enumerate(ys):
            state = dense_ukf_cycle(state, [y], model, obs_op, params)
            assert abs(state.xa[0] - kf_x[k]) <= 1e-10
            assert abs(state.Pa[0, 0] - kf_p[k]) <= 1e-10

    def test_sparse_ukf_full_pattern_matches_scalar_kf(self):
        a, r, p0, x0 = 0.97, 1.0, 0.2, 1.0
        ys = self._observations(a, 50, 18)
        kf_x, kf_p = scalar_kf(a, r, 0.0, x0, p0, ys)
        model = LinearModel([[a]])
        obs_op = ObservationOperator(1, [0])
        pattern = SparsityPattern(1, 0)
        params = UkfParams(pattern=pattern, R=np.array([[r]]))
        state = FilterState(np.array([x0]), SparseSymMatrix.identity(pattern, p0))
        for k, y in enumerate(ys):
            state = sparse_ukf_cycle(state, [y], model, obs_op, params)
            assert abs(state.xa[0] - kf_x[k]) <= 1e-8
            assert abs(state.Pa.to_dense()[0, 0] - kf_p[k]) <= 1e-8


class TestProgressiveCovariance:
    def test_identity_model_gives_exact_background(self):
        # M(x) = x makes the finite-difference response equal P for any delta,
        # so Pb = Pa + Q exactly
        n = 6
        pattern = SparsityPattern(n, n // 2)
        rng = np.random.default_rng(19)
        M = rng.normal(size=(n, n))
        Pa = SparseSymMatrix.from_dense(M @ M.T + n * np.eye(n), pattern)
        Q = SparseSymMatrix.identity(pattern, 0.07)
        model = LinearModel(np.eye(n))
        obs_op = ObservationOperator(n)
        for delta in (1e-6, 1e-4, 1e-1, 1.0):
            params = ProgressiveParams(pattern=pattern, R=np.eye(obs_op.m),
                                       delta=delta, Q=Q)
            out = progressive_ekf_cycle(FilterState(rng.normal(size=n), Pa),
                                        None, model, obs_op, params)
            expected = Pa.to_dense() + 0.07 * np.eye(n)
            assert np.abs(out.Pa.to_dense() - expected).max() <= 1e-9

    def test_near_identity_linear_model_matches_dense_propagation(self):
        # M = I + eps*A: the progressive background drops the eps^2 A P A^T
        # term and the finite difference is exact for a linear model
        n, eps, delta = 5, 1e-3, 1e-4
        rng = np.random.default_rng(20)
        A = rng.normal(size=(n, n))
        M = np.eye(n) + eps * A
        base = rng.normal(size=(n, n))
        Pd = base @ base.T + n * np.eye(n)
        pattern = SparsityPattern(n, n // 2)
        Pa = SparseSymMatrix.from_dense(Pd, pattern)
        model = LinearModel(M)
        obs_op = ObservationOperator(n)
        params = ProgressiveParams(pattern=pattern, R=np.eye(obs_op.m), delta=delta)
        out = progressive_ekf_cycle(FilterState(rng.normal(size=n), Pa),
                                    None, model, obs_op, params)
        oracle = M @ Pd @ M.T
        dropped = eps * eps * np.abs(A @ Pd @ A.T).max()
        err = np.abs(out.Pa.to_dense() - oracle).max()
        assert err <= 2.0 * dropped + 1e-9
        # and the dropped term really is the gap (not a looser error)
        assert err >= 0.1 * dropped


class TestZeroGainLimits:
    def test_sparse_ukf_ignores_observations_when_r_huge(self):
        model, obs_op, pattern, state, _, _, rng = lorenz_setup(seed=23)
        params = UkfParams(pattern=pattern, R=1e12 * np.eye(obs_op.m))
        y = obs_op.observe(rng.normal(size=40))
        analyzed = sparse_ukf_cycle(state, y, model, obs_op, params)
        forecast = sparse_ukf_cycle(state, None, model, obs_op, params)
        scale = np.linalg.norm(forecast.xa)
        assert np.linalg.norm(analyzed.xa - forecast.xa) <= 1e-6 * scale

    def test_enkf_ignores_observations_when_r_huge(self):
        model, obs_op, _, state, _, x0, rng = lorenz_setup(seed=24)
        params = EnkfParams(R=1e12 * np.eye(obs_op.m), n_ens=8)
        members = x0 + 0.3 * rng.standard_normal((8, 40))
        analyzed = enkf_cycle(members, obs_op.observe(x0), model, obs_op, params,
                              np.random.default_rng(1))
        # recompute the inflated forecast with a fresh model
        Ef = Lorenz96Model().step_many(members)
        mf = Ef.mean(axis=0)
        E_inf = mf + (Ef - mf) * params.inflation
        scale = np.abs(E_inf).max()
        assert np.abs(analyzed - E_inf).max() <= 1e-6 * scale


class TestEnkfOracle:
    def test_large_ensemble_matches_dense_kf_mean(self):
        # rho -> infinity (no taper), inflation 1, N >> n: the mean update
        # converges to the dense Kalman filter within sampling error
        n, n_ens = 5, 10_000
        rng = np.random.default_rng(25)
        A = 0.9 * np.linalg.qr(rng.normal(size=(n, n)))[0]
        model = LinearModel(A)
        obs_op = ObservationOperator(n, [0, 2, 4])
        H = np.eye(n)[obs_op.indices]
        R = np.eye(3)
        x0 = rng.normal(size=n)
        P0 = np.eye(n)
        truth = A @ x0
        y = H @ truth + rng.standard_normal(3)

        kf_x, _ = dense_kf_cycle(x0, P0, A, H, np.zeros((n, n)), R, y)
        params = EnkfParams(R=R, n_ens=n_ens, loc_radius=None, inflation=1.0)
        members = x0 + rng.standard_normal((n_ens, n)) @ np.linalg.cholesky(P0).T
        analyzed = enkf_cycle(members, y, model, obs_op, params, rng)
        err = np.linalg.norm(analyzed.mean(axis=0) - kf_x)
        assert err <= 0.05 * (np.linalg.norm(kf_x) + 1.0)


class TestEvaluationCountIdentities:
    @pytest.mark.parametrize("nsp,expected", [(7, 600), (11, 920)])
    def test_sparse_ukf(self, nsp, expected):
        model, obs_op, pattern, state, R, x0, rng = lorenz_setup(nsp=nsp, seed=26)
        params = UkfParams(pattern=pattern, R=R)
        for _ in range(5):
            before = model.evaluation_count
            y = obs_op.observe(x0) + rng.standard_normal(obs_op.m)
            state = sparse_ukf_cycle(state, y, model, obs_op, params)
            assert model.evaluation_count - before == expected
            assert state.diagnostics.evaluations == expected

    @pytest.mark.parametrize("nsp,n_p,expected", [(7, 1, 320), (11, 1, 480),
                                                  (11, 2, 960), (17, 2, 1440)])
    def test_progressive_ekf(self, nsp, n_p, expected):
        model, obs_op, pattern, state, R, x0, rng = lorenz_setup(nsp=nsp, seed=27)
        params = ProgressiveParams(pattern=pattern, R=R, n_p=n_p)
        for _ in range(5):
            before = model.evaluation_count
            y = obs_op.observe(x0) + rng.standard_normal(obs_op.m)
            state = progressive_ekf_cycle(state, y, model, obs_op, params)
            assert model.evaluation_count - before == expected

    def test_enkf(self):
        model, obs_op, _, _, R, x0, rng = lorenz_setup(seed=28)
        params = EnkfParams(R=R, n_ens=10)
        members = x0 + 0.3 * rng.standard_normal((10, 40))
        for _ in range(5):
            before = model.evaluation_count
            y = obs_op.observe(x0) + rng.standard_normal(obs_op.m)
            members = enkf_cycle(members, y, model, obs_op, params, rng)
            assert model.evaluation_count - before == 400

    def test_dense_ukf(self):
        model, obs_op, _, state, R, x0, rng = lorenz_setup(seed=29)
        params = DenseUkfParams(R=R)
        state = FilterState(state.xa, 0.2 * np.eye(40))
        for _ in range(3):
            before = model.evaluation_count
            y = obs_op.observe(x0) + rng.standard_normal(obs_op.m)
            state = dense_ukf_cycle(state, y, model, obs_op, params)
            assert model.evaluation_count - before == 81 * 40


class TestGammaRepair:
    def test_repaired_minimum_eigenvalue_hits_margin(self):
        model, obs_op, pattern, state, R, x0, rng = lorenz_setup(seed=30)
        params = UkfParams(pattern=pattern, R=R)
        truth = x0.copy()
        hit = False
        for _ in range(40):
            truth = Lorenz96Model().step(truth)
            y = obs_op.observe(truth) + rng.standard_normal(obs_op.m)
            state = sparse_ukf_cycle(state, y, model, obs_op, params)
            lam = min_eigenvalue(state.Pa)
            assert lam > 0.0
            if state.diagnostics.gamma > 0.0:
                hit = True
                assert 0.9e-8 <= lam <= 1.2e-8
        assert hit, "gamma repair never activated in 40 cycles"

    def test_certified_cycle_makes_one_factorization(self):
        # n = 640 takes the structured path: the first analysis is positive
        # definite, so one factorization certifies it and no eigenvalue is needed
        model, obs_op, pattern, state, R, x0, rng = lorenz_setup(n=640, seed=35)
        y = obs_op.observe(x0) + rng.standard_normal(obs_op.m)
        out = sparse_ukf_cycle(state, y, model, obs_op, UkfParams(pattern=pattern, R=R))
        assert out.diagnostics.gamma == 0.0
        assert out.diagnostics.repair_factorizations == 1

    def test_certificate_rejects_non_finite_covariance(self):
        E = SparseSymMatrix.identity(SparsityPattern(256, 3))
        E.band[9, 3] = np.nan
        with pytest.raises(FactorizationError):
            filters._gamma_repair(E)

    def test_dense_path_repair_makes_no_factorization(self):
        model, obs_op, pattern, state, R, x0, rng = lorenz_setup(seed=36)
        y = obs_op.observe(x0) + rng.standard_normal(obs_op.m)
        out = progressive_ekf_cycle(state, y, model, obs_op, ProgressiveParams(pattern, R))
        assert out.diagnostics.repair_factorizations == 0

    def test_covariance_symmetric_after_cycles(self):
        model, obs_op, pattern, state, R, x0, rng = lorenz_setup(seed=31)
        params = ProgressiveParams(pattern=pattern, R=R)
        for _ in range(10):
            y = obs_op.observe(x0) + rng.standard_normal(obs_op.m)
            state = progressive_ekf_cycle(state, y, model, obs_op, params)
        D = state.Pa.to_dense()
        assert np.array_equal(D, D.T)


class TestDegeneration:
    def test_full_pattern_sparse_ukf_equals_dense_ukf(self):
        # all-entries pattern on a 6-dim Lorenz-96: both filters see the same
        # sigma points and updates
        n = 6
        model_s = Lorenz96Model(n=n)
        model_d = Lorenz96Model(n=n)
        obs_op = ObservationOperator(n)
        pattern = SparsityPattern(n, n // 2)
        rng = np.random.default_rng(32)
        truth = rng.uniform(-1, 1, n)
        for _ in range(200):
            truth = model_s.step(truth)
        xa0 = truth + 0.3 * rng.standard_normal(n)
        R = np.eye(obs_op.m)
        sparse_state = FilterState(xa0, SparseSymMatrix.identity(pattern, 0.2))
        dense_state = FilterState(xa0.copy(), 0.2 * np.eye(n))
        p_sparse = UkfParams(pattern=pattern, R=R)
        p_dense = DenseUkfParams(R=R)
        for _ in range(10):
            truth = Lorenz96Model(n=n).step(truth)
            y = obs_op.observe(truth) + rng.standard_normal(obs_op.m)
            sparse_state = sparse_ukf_cycle(sparse_state, y, model_s, obs_op, p_sparse)
            dense_state = dense_ukf_cycle(dense_state, y, model_d, obs_op, p_dense)
            assert np.abs(sparse_state.xa - dense_state.xa).max() <= 1e-8
            assert np.abs(sparse_state.Pa.to_dense() - dense_state.Pa).max() <= 1e-8


class TestForecastOnly:
    def test_sparse_ukf_forecast_half_cycle(self):
        model, obs_op, pattern, state, R, _, _ = lorenz_setup(seed=33)
        params = UkfParams(pattern=pattern, R=R)
        out = sparse_ukf_cycle(state, None, model, obs_op, params)
        assert not np.array_equal(out.xa, state.xa)
        assert min_eigenvalue(out.Pa) > 0.0
        assert out.diagnostics.innovation_norm == 0.0

    def test_enkf_forecast_only(self):
        model, obs_op, _, _, R, x0, rng = lorenz_setup(seed=34)
        params = EnkfParams(R=R, n_ens=6)
        members = x0 + 0.3 * rng.standard_normal((6, 40))
        out = enkf_cycle(members, None, model, obs_op, params, rng)
        expected = Lorenz96Model().step_many(members)
        assert np.array_equal(out, expected)


class TestGaspariCohn:
    def test_endpoints(self):
        assert gaspari_cohn(0.0, 4.0) == 1.0
        assert gaspari_cohn(8.0, 4.0) == 0.0
        assert gaspari_cohn(12.0, 4.0) == 0.0

    def test_continuity_at_radius(self):
        # both branches give 5/24 at distance == radius
        left = gaspari_cohn(4.0 - 1e-9, 4.0)
        right = gaspari_cohn(4.0 + 1e-9, 4.0)
        assert abs(left - 5.0 / 24.0) < 1e-6
        assert abs(right - 5.0 / 24.0) < 1e-6

    def test_shape(self):
        d = np.linspace(0, 10, 201)
        t = gaspari_cohn(d, 4.0)
        assert np.all(t <= 1.0) and np.all(t >= 0.0)
        assert np.all(np.diff(t) <= 1e-12)


class TestParamValidation:
    def test_bad_params(self):
        pattern = SparsityPattern(8, 1)
        R = np.eye(4)
        with pytest.raises(ValueError):
            EnkfParams(R=R, n_ens=1)
        with pytest.raises(ValueError):
            EnkfParams(R=R, loc_radius=0.0)
        with pytest.raises(ValueError):
            ProgressiveParams(pattern=pattern, R=R, delta=0.0)
        with pytest.raises(ValueError):
            ProgressiveParams(pattern=pattern, R=R, n_p=0)
        with pytest.raises(ValueError):
            other = SparsityPattern(8, 2)
            UkfParams(pattern=pattern, R=R, Q=SparseSymMatrix.identity(other))


class TestDensePathOracle:
    """The local forecast and accumulation against the dense-path cycles kept
    in helpers.py, where every sigma point and probe is a full n-vector."""

    @pytest.mark.parametrize("n,nsp", [(40, 7), (40, 27), (160, 41)])
    def test_sigma_point_forecasts_are_bit_identical(self, n, nsp):
        model, obs_op, pattern, state, R, _, _ = lorenz_setup(n=n, nsp=nsp, seed=60)
        params = UkfParams(pattern=pattern, R=R)
        for _ in range(3):
            state = sparse_ukf_cycle(state, None, model, obs_op, params)
        factor, _ = incomplete_cholesky(state.Pa, n)
        D = factor.to_dense()
        sigma = np.concatenate([state.xa + D.T, state.xa - D.T])
        cols = np.concatenate([pattern.columns, pattern.columns])
        old = model.step_components_many(sigma, cols)
        F = factor.values.ravel()[pattern.offset_order]
        new = step_columns(model, state.xa, pattern, np.stack([F, -F]))
        # back to the sorted column order of the full-state path
        order = np.argsort(pattern.offset_columns, axis=1)
        assert np.array_equal(np.take_along_axis(new.reshape(2 * n, -1),
                                                 np.tile(order, (2, 1)), axis=1), old)

    @pytest.mark.parametrize("n,nsp,n_p", [(40, 7, 1), (40, 11, 2), (160, 41, 2)])
    def test_progressive_forecast_is_bit_identical(self, n, nsp, n_p):
        model, obs_op, pattern, state, R, x0, rng = lorenz_setup(n=n, nsp=nsp, seed=61)
        params = ProgressiveParams(pattern=pattern, R=R, n_p=n_p)
        for _ in range(3):
            y = obs_op.observe(x0) + rng.standard_normal(obs_op.m)
            state = progressive_ekf_cycle(state, y, model, obs_op, params)
        new = progressive_ekf_cycle(state, None, model, obs_op, params)
        old = dense_path_progressive_ekf_cycle(state, None, model, obs_op, params)
        assert np.array_equal(new.xa, old.xa)
        assert np.array_equal(new.Pa.band, old.Pa.band)
        assert new.diagnostics == old.diagnostics

    @pytest.mark.parametrize("n,kappa,q", [(6, 0.0, 0.0), (7, 0.0, 0.0), (40, 2.0, 0.05),
                                           (40, -20.0, 0.0)])
    def test_sparse_ukf_cycle_matches(self, n, kappa, q):
        # includes full patterns (even and odd n), a nonzero center weight,
        # a negative one, and Q
        nsp = n if n < 10 else 9
        model, obs_op, pattern, state, R, x0, rng = lorenz_setup(n=n, nsp=nsp, seed=62)
        if n < 10:
            pattern = SparsityPattern(n, n // 2)
            state = FilterState(state.xa, SparseSymMatrix.identity(pattern, 0.2))
        Q = SparseSymMatrix.identity(pattern, q) if q else None
        params = UkfParams(pattern=pattern, R=R, kappa=kappa, Q=Q)
        for _ in range(5):
            y = obs_op.observe(x0) + rng.standard_normal(obs_op.m)
            new = sparse_ukf_cycle(state, y, model, obs_op, params)
            old = dense_path_sparse_ukf_cycle(state, y, model, obs_op, params)
            assert np.abs(new.xa - old.xa).max() <= 1e-12
            assert np.abs(new.Pa.band - old.Pa.band).max() <= 1e-12
            assert new.diagnostics.evaluations == old.diagnostics.evaluations
            state = new
        forecast = sparse_ukf_cycle(state, None, model, obs_op, params)
        old = dense_path_sparse_ukf_cycle(state, None, model, obs_op, params)
        assert np.abs(forecast.xa - old.xa).max() <= 1e-12
        assert np.abs(forecast.Pa.band - old.Pa.band).max() <= 1e-12

    @pytest.mark.parametrize("filter_name,n,nsp,n_p", [
        ("sparse_ukf", 40, 7, 1), ("sparse_ukf", 160, 41, 1), ("sparse_ukf", 640, 7, 1),
        ("progressive_ekf", 40, 11, 2), ("progressive_ekf", 160, 41, 2),
        ("progressive_ekf", 640, 7, 1),
    ])
    def test_replicate_rmse_matches_over_50_cycles(self, monkeypatch, filter_name, n, nsp, n_p):
        config = harness.ExperimentConfig(filter=filter_name, n=n, nsp=nsp, n_p=n_p,
                                          n_steps=50, n_replicates=1, master_seed=63)
        new = harness.run_replicate(config.validate(), 0)
        monkeypatch.setattr(harness, "sparse_ukf_cycle", dense_path_sparse_ukf_cycle)
        monkeypatch.setattr(harness, "progressive_ekf_cycle", dense_path_progressive_ekf_cycle)
        old = harness.run_replicate(config, 0)
        assert not new.failed and not old.failed
        assert abs(new.rmse - old.rmse) <= 1e-10
        assert new.eval_per_cycle == old.eval_per_cycle


@pytest.fixture(scope="module")
def recorded_repairs():
    """Every covariance the gamma repair received in 20-cycle n = 640 runs of
    both sparse filters (the structured path), with the repair's output."""
    recorded = []
    real = filters._gamma_repair

    def record(E):
        out = real(E)
        recorded.append((E, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filters, "_gamma_repair", record)
        for name in ("sparse_ukf", "progressive_ekf"):
            config = harness.ExperimentConfig(filter=name, n=640, nsp=7, n_steps=20,
                                              n_replicates=1, master_seed=64)
            assert not harness.run_replicate(config.validate(), 0).failed
    return recorded


class TestRepairOnRecordedCovariances:
    def test_min_eigenvalue_matches_eigvalsh(self, recorded_repairs):
        for E, _ in recorded_repairs:
            expected = np.linalg.eigvalsh(E.to_dense())[0]
            assert abs(min_eigenvalue(E) - expected) <= 1e-12 * np.abs(E.band).max()

    def test_gamma_matches_dense_repair(self, recorded_repairs):
        repairs = 0
        for E, (Pa, gamma, factorizations) in recorded_repairs:
            _, dense_gamma = dense_gamma_repair(E)
            assert abs(gamma - dense_gamma) <= 1e-12
            assert factorizations == 1 if gamma == 0.0 else factorizations > 1
            assert np.linalg.eigvalsh(Pa.to_dense())[0] >= 0.0
            repairs += gamma > 0.0
        assert 0 < repairs < len(recorded_repairs)


def dense_solve_counter(monkeypatch):
    """Count the calls of np.linalg.solve (the dense gain's solve)."""
    calls = []
    real = np.linalg.solve

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", spy)
    return calls


def forbid(monkeypatch, owner, name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} called on the structured gain path")

    monkeypatch.setattr(owner, name, fail)


def filter_params(name, pattern, R, n_p=1):
    if name == "sparse_ukf":
        return sparse_ukf_cycle, dense_path_sparse_ukf_cycle, UkfParams(pattern=pattern, R=R)
    return (progressive_ekf_cycle, dense_path_progressive_ekf_cycle,
            ProgressiveParams(pattern=pattern, R=R, n_p=n_p))


def warmed_up(name, n, nsp, seed, n_p=1, cycles=2):
    """A state after a few analysis cycles, so that the covariance is no
    longer the initial multiple of the identity."""
    model, obs_op, pattern, state, R, x0, rng = lorenz_setup(n=n, nsp=nsp, seed=seed)
    cycle, _, params = filter_params(name, pattern, R, n_p)
    for _ in range(cycles):
        y = obs_op.observe(x0) + rng.standard_normal(obs_op.m)
        state = cycle(state, y, model, obs_op, params)
    return model, obs_op, pattern, state, x0, rng


def assert_matches_oracle(new, old):
    assert np.abs(new.xa - old.xa).max() <= 1e-12
    assert np.abs(new.Pa.band - old.Pa.band).max() <= 1e-12
    assert abs(new.diagnostics.nis - old.diagnostics.nis) <= 1e-12


FILTERS = ["sparse_ukf", "progressive_ekf"]


class TestGainPathSelection:
    """The structured gain applies to a stride dividing n, a diagonal R and
    an observation space large enough for the band factor; every other
    case keeps the dense solve."""

    @pytest.mark.parametrize("name,n,nsp,n_p", [
        ("sparse_ukf", 40, 7, 1), ("progressive_ekf", 40, 11, 2),  # desk-n40
        ("sparse_ukf", 160, 41, 1), ("progressive_ekf", 160, 41, 2),  # wideband-n160
    ])
    def test_bench_desk_and_wide_band_take_the_dense_gain(self, monkeypatch, name, n, nsp, n_p):
        model, obs_op, pattern, state, x0, rng = warmed_up(name, n, nsp, 70, n_p, cycles=1)
        cycle, oracle, params = filter_params(name, pattern, np.eye(obs_op.m), n_p)
        forbid(monkeypatch, filters, "band_gain")
        calls = dense_solve_counter(monkeypatch)
        y = obs_op.observe(x0) + rng.standard_normal(obs_op.m)
        new = cycle(state, y, model, obs_op, params)
        assert calls
        assert_matches_oracle(new, oracle(state, y, model, obs_op, params))

    @pytest.mark.parametrize("name", FILTERS)
    def test_high_dimension_takes_the_structured_gain(self, monkeypatch, name):
        model, obs_op, pattern, state, x0, rng = warmed_up(name, 640, 7, 71)
        cycle, _, params = filter_params(name, pattern, np.eye(obs_op.m))
        kernel_calls = []
        real = filters.band_gain

        def counted(*args):
            kernel_calls.append(1)
            return real(*args)

        monkeypatch.setattr(filters, "band_gain", counted)
        forbid(monkeypatch, np.linalg, "solve")
        forbid(monkeypatch, filters, "local_sum_columns")
        forbid(monkeypatch, SparseSymMatrix, "dense_columns")
        for _ in range(3):
            y = obs_op.observe(x0) + rng.standard_normal(obs_op.m)
            state = cycle(state, y, model, obs_op, params)
        assert len(kernel_calls) == 3

    @pytest.mark.parametrize("name", FILTERS)
    @pytest.mark.parametrize("case", ["stride 3", "irregular", "non-diagonal R",
                                      "M not positive definite"])
    def test_fallbacks_take_the_dense_gain(self, monkeypatch, name, case):
        model, obs_op, pattern, state, x0, rng = warmed_up(name, 640, 7, 72)
        if case == "stride 3":  # 640 % 3 != 0
            obs_op = ObservationOperator(640, np.arange(0, 640, 3))
        elif case == "irregular":
            indices = np.arange(0, 640, 2)
            indices[5] += 1
            obs_op = ObservationOperator(640, indices)
        R = np.eye(obs_op.m)
        if case == "non-diagonal R":
            R += 0.1 * (np.eye(obs_op.m, k=1) + np.eye(obs_op.m, k=-1))
        elif case == "M not positive definite":
            R = -10.0 * R
        cycle, oracle, params = filter_params(name, pattern, R)
        calls = dense_solve_counter(monkeypatch)
        y = obs_op.observe(x0) + rng.standard_normal(obs_op.m)
        new = cycle(state, y, model, obs_op, params)
        assert calls
        assert_matches_oracle(new, oracle(state, y, model, obs_op, params))


class TestStructuredGain:
    @pytest.mark.parametrize("name", FILTERS)
    def test_cycles_match_the_dense_path_oracle(self, name):
        # the oracle forms Pxy/Pyy (PHt/S) densely and solves for the gain
        model, obs_op, pattern, state, R, x0, rng = lorenz_setup(n=640, nsp=7, seed=73)
        cycle, oracle, params = filter_params(name, pattern, R)
        for _ in range(5):
            y = obs_op.observe(x0) + rng.standard_normal(obs_op.m)
            new = cycle(state, y, model, obs_op, params)
            assert_matches_oracle(new, oracle(state, y, model, obs_op, params))
            state = new

    def test_sherman_morrison_breakdown_takes_the_dense_gain(self, monkeypatch):
        # A negative center weight (kappa < 0) lets Pyy = M - u u^T be
        # indefinite: here 1 - u^T M^-1 u is about -0.16, and the dense
        # solve decides.
        model, obs_op, pattern, state, R, x0, rng = lorenz_setup(n=640, nsp=7, p0=500.0,
                                                                 seed=74)
        params = UkfParams(pattern=pattern, R=R, kappa=-639.5)
        recorded = []
        real = filters.band_gain

        def record(M, rows, layout, rhs):
            out = real(M, rows, layout, rhs)
            recorded.append(float(rhs[1] @ out[2][1]))  # u^T M^-1 u
            return out

        monkeypatch.setattr(filters, "band_gain", record)
        calls = dense_solve_counter(monkeypatch)
        y = obs_op.observe(x0) + rng.standard_normal(obs_op.m)
        new = sparse_ukf_cycle(state, y, model, obs_op, params)
        assert len(recorded) == 1 and recorded[0] > 1.0
        assert calls
        # P = 500 I makes both paths round at a larger scale: relative bounds
        old = dense_path_sparse_ukf_cycle(state, y, model, obs_op, params)
        assert np.abs(new.xa - old.xa).max() <= 1e-10 * np.abs(old.xa).max()
        assert np.abs(new.Pa.band - old.Pa.band).max() <= 1e-10 * np.abs(old.Pa.band).max()


class TestNormalizedInnovation:
    """nis = innov @ solve(Pyy, innov) / m, as the dense-path oracle computes it."""

    @pytest.mark.parametrize("name", FILTERS)
    @pytest.mark.parametrize("n", [40, 640])  # dense and structured gain
    def test_matches_dense_solve(self, name, n):
        model, obs_op, pattern, state, x0, rng = warmed_up(name, n, 7, 75)
        cycle, oracle, params = filter_params(name, pattern, np.eye(obs_op.m))
        y = obs_op.observe(x0) + rng.standard_normal(obs_op.m)
        new = cycle(state, y, model, obs_op, params).diagnostics.nis
        old = oracle(state, y, model, obs_op, params).diagnostics.nis
        assert new > 0.0
        assert abs(new - old) <= 1e-12

    @pytest.mark.parametrize("name", FILTERS)
    @pytest.mark.parametrize("noise", ["zero", "non-diagonal"])
    def test_dense_gain_with_singular_or_full_noise(self, name, noise):
        # R = 0 or a full R: innov joins the dense solve as one more
        # right-hand side (R^-1 is not applied)
        model, obs_op, pattern, state, x0, rng = warmed_up(name, 40, 7, 77)
        R = np.zeros((obs_op.m, obs_op.m))
        if noise == "non-diagonal":
            R = np.eye(obs_op.m) + 0.2 * (np.eye(obs_op.m, k=1) + np.eye(obs_op.m, k=-1))
        cycle, oracle, params = filter_params(name, pattern, R)
        y = obs_op.observe(x0) + rng.standard_normal(obs_op.m)
        new = cycle(state, y, model, obs_op, params).diagnostics.nis
        old = oracle(state, y, model, obs_op, params).diagnostics.nis
        assert abs(new - old) <= 1e-12 * max(1.0, abs(old))

    @pytest.mark.parametrize("name", FILTERS)
    @pytest.mark.parametrize("n", [40, 640])
    def test_zero_for_a_forecast_only_cycle(self, name, n):
        model, obs_op, pattern, state, x0, rng = warmed_up(name, n, 7, 76, cycles=1)
        cycle, _, params = filter_params(name, pattern, np.eye(obs_op.m))
        assert cycle(state, None, model, obs_op, params).diagnostics.nis == 0.0

    def test_dense_ukf_matches_scalar_kf(self):
        a, r, p, x, y = 0.97, 1.3, 0.2, 1.0, 0.4
        state = FilterState(np.array([x]), np.array([[p]]))
        out = dense_ukf_cycle(state, [y], LinearModel([[a]]), ObservationOperator(1, [0]),
                              DenseUkfParams(R=np.array([[r]])))
        assert abs(out.diagnostics.nis - (y - a * x) ** 2 / (a * a * p + r)) <= 1e-12
