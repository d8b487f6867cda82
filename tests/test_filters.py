"""Filter-cycle tests: oracles, limits, counts, and positivity repairs."""

import math

import numpy as np
import pytest

import sparsekf.harness as harness
from helpers import (
    LinearModel,
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
    _dense_cholesky_with_jitter,
    dense_ukf_cycle,
    enkf_cycle,
    gaspari_cohn,
    progressive_ekf_cycle,
    sparse_ukf_cycle,
    ukf_weights,
)
from sparsekf.models import Lorenz96Model, ObservationOperator, step_columns
from sparsekf.sparse_core import (
    SparseSymMatrix,
    SparsityPattern,
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
        x0 = model.step(x0)
    model.reset_evaluation_count()
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
        L, jitter = _dense_cholesky_with_jitter(2.0 * np.eye(2))
        assert jitter == 0.0
        assert np.allclose(L, math.sqrt(2.0) * np.eye(2))

    def test_jitter_retry(self):
        L, jitter = _dense_cholesky_with_jitter(np.array([[1.0, 1.0], [1.0, 1.0]]))
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
            assert abs(state.Pa.get(0, 0) - kf_p[k]) <= 1e-8


class TestProgressiveCovariance:
    def test_identity_model_gives_exact_background(self):
        # M(x) = x makes the finite-difference response equal P for any delta,
        # so Pb = Pa + Q exactly
        n = 6
        pattern = SparsityPattern.full(n)
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
        pattern = SparsityPattern.full(n)
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
        H = obs_op.jacobian()
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
        pattern = SparsityPattern.full(n)
        rng = np.random.default_rng(32)
        truth = rng.uniform(-1, 1, n)
        for _ in range(200):
            truth = model_s.step(truth)
        model_s.reset_evaluation_count()
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
            pattern = SparsityPattern.full(n)
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
