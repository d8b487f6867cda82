"""Lorenz-96 dynamics, component evaluation, and observation operator tests."""

import numpy as np
import pytest

from helpers import LinearModel, full_step_columns, ring_rk4
from sparsekf.models import (
    Lorenz96Model,
    ObservationOperator,
    StencilError,
    lorenz96_rhs,
    rk4_step,
    rk4_window,
    step_columns,
)
from sparsekf.sparse_core import SparseVector, SparsityPattern


def attractor_state(n=40, forcing=8.0, dt=0.025, steps=500, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    for _ in range(steps):
        x = rk4_step(x, dt, forcing)
    return x


class TestRhs:
    def test_equilibrium(self):
        x = np.full(40, 8.0)
        assert np.array_equal(lorenz96_rhs(x, 8.0), np.zeros(40))

    def test_zero_state(self):
        assert np.array_equal(lorenz96_rhs(np.zeros(12), 8.0), np.full(12, 8.0))

    def test_hand_computed_n5(self):
        # (x_{i+1} - x_{i-2}) x_{i-1} - x_i + F, cyclic, for x = 1..5, F = 8:
        # entry by entry this gives [-3, 4, 11, 13, -5].
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.array_equal(lorenz96_rhs(x, 8.0), [-3.0, 4.0, 11.0, 13.0, -5.0])

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            lorenz96_rhs(np.zeros(3), 8.0)
        with pytest.raises(ValueError):
            Lorenz96Model(n=3)


class TestRk4:
    def test_equilibrium_fixed_exactly(self):
        x = np.full(40, 8.0)
        assert np.array_equal(rk4_step(x, 0.025, 8.0), x)

    def test_zero_dt_identity(self):
        x = attractor_state()
        assert np.array_equal(rk4_step(x, 0.0, 8.0), x)

    def test_local_order_five(self):
        # one-step error vs a much finer composed reference drops ~2^5 when
        # the step is halved
        x = attractor_state(seed=3)

        def reference(dt):
            y = x.copy()
            for _ in range(100):
                y = rk4_step(y, dt / 100.0, 8.0)
            return y

        e1 = np.linalg.norm(rk4_step(x, 0.05, 8.0) - reference(0.05))
        e2 = np.linalg.norm(rk4_step(x, 0.025, 8.0) - reference(0.025))
        assert 20.0 < e1 / e2 < 48.0


class TestStepComponents:
    def test_full_index_set_equals_step(self):
        model = Lorenz96Model()
        x = attractor_state(seed=1)
        full = model.step(x)
        sv = model.step_components(x, np.arange(40))
        assert np.array_equal(sv.to_dense(), full)

    def test_empty_set(self):
        model = Lorenz96Model()
        before = model.evaluation_count
        sv = model.step_components(attractor_state(), np.array([], dtype=int))
        assert sv.indices.size == 0
        assert model.evaluation_count == before

    def test_single_entry_exact(self):
        model = Lorenz96Model()
        x = attractor_state(seed=2)
        sv = model.step_components(x, [5])
        assert sv[5] == model.step(x)[5]

    def test_random_pairs_exact(self):
        model = Lorenz96Model()
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = rng.normal(scale=4.0, size=40)
            k = int(rng.integers(1, 41))
            idx = np.sort(rng.choice(40, size=k, replace=False))
            sv = model.step_components(x, idx)
            assert np.array_equal(sv.values, model.step(x.copy())[idx])

    def test_sparse_input_with_covered_stencil(self):
        model = Lorenz96Model()
        x = attractor_state(seed=5)
        out = np.array([10, 11, 12])
        needed = np.unique(np.concatenate([model.dependency_stencil(i) for i in out]))
        sv_in = SparseVector(40, needed, x[needed])
        got = model.step_components(sv_in, out)
        # must equal the full step of the zero-filled dense state
        expected = model.step(sv_in.to_dense())[out]
        assert np.array_equal(got.values, expected)

    def test_sparse_input_missing_stencil_raises(self):
        model = Lorenz96Model()
        x = attractor_state(seed=6)
        sv_in = SparseVector(40, [9, 10, 11], x[[9, 10, 11]])
        with pytest.raises(StencilError):
            model.step_components(sv_in, [10])

    def test_batched_matches_single(self):
        model = Lorenz96Model()
        rng = np.random.default_rng(7)
        X = rng.normal(scale=3.0, size=(6, 40))
        idx = np.stack([np.sort(rng.choice(40, size=5, replace=False)) for _ in range(6)])
        vals = model.step_components_many(X, idx)
        for b in range(6):
            sv = model.step_components(X[b], idx[b])
            assert np.array_equal(vals[b], sv.values)


class TestWindowedEvaluation:
    """``step_columns`` steps each perturbed state on its pattern column plus
    the RK4 halo; the kept entries must equal the full step bit for bit."""

    @staticmethod
    def _perturbations(rng, pattern, scale=0.5):
        F = scale * rng.standard_normal((pattern.n, pattern.nsp))
        return np.stack([F, -F])

    def test_window_rk4_is_the_centre_of_the_ring_rk4(self):
        rng = np.random.default_rng(40)
        for width in (13, 14, 19, 31):
            X = rng.normal(scale=4.0, size=(9, width))
            for dt in (0.025, 0.0125):
                assert np.array_equal(rk4_window(X, dt, 8.0), ring_rk4(X, dt)[:, 8:-4])

    @pytest.mark.parametrize("n", [4, 5, 6, 12, 40, 641])
    def test_full_step_is_the_ring_rk4(self, n):
        # rk4_step pads the ring with its halo and steps the window
        rng = np.random.default_rng(n)
        X = rng.normal(scale=4.0, size=(3, n))
        for dt in (0.025, 0.01):
            assert np.array_equal(rk4_step(X, dt, 8.0), ring_rk4(X, dt))
            assert np.array_equal(rk4_step(X[0], dt, 8.0), ring_rk4(X[0], dt))
        with pytest.raises(ValueError):
            rk4_step(np.zeros(3), 0.025, 8.0)

    @pytest.mark.parametrize("n", [16, 40, 160])
    def test_every_bandwidth_matches_full_step(self, n):
        model = Lorenz96Model(n=n)
        rng = np.random.default_rng(41 + n)
        x = attractor_state(n=n, seed=n)
        for h in range(n // 2 + 1):  # windowed, whole-state fallback, full pattern
            pattern = SparsityPattern(n, h)
            P = self._perturbations(rng, pattern)
            for dt in (model.dt, model.dt / 2):
                got = step_columns(model, x, pattern, P, dt=dt)
                assert np.array_equal(got, full_step_columns(x, pattern, P, dt)), (h, dt)

    def test_wrap_columns(self):
        # columns 0 and n-1 gather windows that wrap around the ring
        n = 40
        model = Lorenz96Model(n=n)
        pattern = SparsityPattern(n, 3)
        x = attractor_state(seed=42)
        P = self._perturbations(np.random.default_rng(42), pattern)
        got = step_columns(model, x, pattern, P)
        want = full_step_columns(x, pattern, P, model.dt)
        for c in (0, n - 1):
            assert np.array_equal(got[:, c], want[:, c])
            assert np.array_equal(got[0, c], model.step(x + _scatter(pattern, c, P[0, c]))[
                pattern.offset_columns[c]])

    def test_windows_are_nsp_plus_halo_wide(self):
        n, h = 640, 3
        pattern = SparsityPattern(n, h)
        widths = []

        class Spy(Lorenz96Model):
            def step_components_many(self, X, out_indices, dt=None):
                widths.append(np.shape(X))
                return super().step_components_many(X, out_indices, dt=dt)

        step_columns(Spy(n=n), np.zeros(n), pattern, np.zeros((2, n, pattern.nsp)))
        assert widths == [(2 * n, pattern.nsp + 12)]
        widths.clear()
        wide = SparsityPattern(16, 2)  # 5 + 12 >= 16: whole states
        step_columns(Spy(n=16), np.zeros(16), wide, np.zeros((16, wide.nsp)))
        assert widths == [(16, 16)]

    def test_counts_nsp_per_perturbed_state(self):
        for n, h in ((40, 3), (16, 4)):  # windowed and whole-state
            model = Lorenz96Model(n=n)
            pattern = SparsityPattern(n, h)
            step_columns(model, np.zeros(n), pattern, np.zeros((2, n, pattern.nsp)))
            assert model.evaluation_count == 2 * n * pattern.nsp

    def test_model_without_halo_steps_whole_states(self):
        rng = np.random.default_rng(43)
        n = 7
        A = rng.normal(size=(n, n))
        model = LinearModel(A)
        assert model.halo is None
        pattern = SparsityPattern(n, 2)
        x = rng.normal(size=n)
        P = self._perturbations(rng, pattern)
        got = step_columns(model, x, pattern, P)
        for c in range(n):
            for s in range(2):
                want = A @ (x + _scatter(pattern, c, P[s, c]))
                assert np.array_equal(got[s, c], want[pattern.offset_columns[c]])
        assert model.evaluation_count == 2 * n * pattern.nsp

    def test_window_outputs_must_stay_inside_the_halo(self):
        model = Lorenz96Model()
        X = np.zeros((2, 19))
        model.step_components_many(X, np.array([[8, 14], [9, 10]]))
        with pytest.raises(ValueError):
            model.step_components_many(X, np.array([[7, 8], [9, 10]]))
        with pytest.raises(ValueError):
            model.step_components_many(X, np.array([[8, 15], [9, 10]]))

    def test_shape_validation(self):
        model = Lorenz96Model()
        with pytest.raises(ValueError):
            step_columns(model, np.zeros(40), SparsityPattern(40, 3), np.zeros((40, 5)))


def _scatter(pattern, c, values):
    v = np.zeros(pattern.n)
    v[pattern.offset_columns[c]] = values
    return v


class TestDependencyStencil:
    def test_window_shape(self):
        model = Lorenz96Model()
        st = model.dependency_stencil(20)
        assert np.array_equal(st, np.arange(12, 25))

    def test_outside_stencil_has_no_influence(self):
        model = Lorenz96Model()
        x = attractor_state(seed=8)
        i = 17
        st = set(model.dependency_stencil(i).tolist())
        base = model.step(x)[i]
        for j in range(40):
            x2 = x.copy()
            x2[j] += 0.5
            changed = model.step(x2)[i]
            if j in st:
                assert changed != base
            else:
                assert changed == base


class TestRefinedStep:
    def test_single_substep_is_full_step(self):
        model = Lorenz96Model()
        x = attractor_state(seed=9)
        assert np.array_equal(model.refined_step(x, 1, 1), model.step(x))

    def test_zero_substeps_identity(self):
        model = Lorenz96Model()
        x = attractor_state(seed=10)
        assert np.array_equal(model.refined_step(x, 0, 4), x)

    def test_substep_accumulation_order(self):
        # composed sub-steps approach the fine reference as 1/n_p^4
        model = Lorenz96Model()
        x = attractor_state(seed=11)
        ref = x.copy()
        for _ in range(400):
            ref = rk4_step(ref, 0.025 / 400.0, 8.0)
        errs = [
            np.linalg.norm(model.refined_step(x, n_p, n_p) - ref) for n_p in (1, 2, 4)
        ]
        assert errs[1] < errs[0] / 8.0
        assert errs[2] < errs[1] / 8.0

    def test_invalid_arguments(self):
        model = Lorenz96Model()
        x = np.zeros(40)
        with pytest.raises(ValueError):
            model.refined_step(x, 1, 0)
        with pytest.raises(ValueError):
            model.refined_step(x, 3, 2)


class TestEvaluationCounter:
    def test_accounting(self):
        model = Lorenz96Model()
        x = attractor_state(seed=12)
        assert model.evaluation_count == 0
        model.step(x)
        assert model.evaluation_count == 40
        model.step_components(x, [3, 4, 5])
        assert model.evaluation_count == 43
        model.step_many(np.tile(x, (5, 1)))
        assert model.evaluation_count == 43 + 200
        model.step_components_many(np.tile(x, (2, 1)), np.array([[0, 1], [2, 3]]))
        assert model.evaluation_count == 243 + 4
        model.refined_step(x, 3, 4)
        assert model.evaluation_count == 247 + 120
        model.reset_evaluation_count()
        assert model.evaluation_count == 0


class TestChaos:
    def test_tiny_perturbation_diverges(self):
        model = Lorenz96Model()
        a = attractor_state(seed=13)
        b = a.copy()
        b[0] += 1e-8
        for _ in range(1000):
            a = rk4_step(a, 0.025, 8.0)
            b = rk4_step(b, 0.025, 8.0)
            if np.linalg.norm(a - b) > 1.0:
                break
        assert np.linalg.norm(a - b) > 1.0

    def test_attractor_mean(self):
        # long-run time mean of the state entries sits near 2.3 for F = 8
        x = attractor_state(seed=14)
        total = 0.0
        steps = 100_000
        for _ in range(steps):
            x = rk4_step(x, 0.025, 8.0)
            total += x.mean()
        assert abs(total / steps - 2.3) < 0.5


class TestObservationOperator:
    def test_every_other_selection(self):
        op = ObservationOperator(40)
        x = np.arange(1.0, 41.0)
        assert op.m == 20
        assert np.array_equal(op.observe(x), np.arange(1.0, 41.0, 2.0))

    def test_linearity(self):
        op = ObservationOperator(40)
        rng = np.random.default_rng(15)
        x, y = rng.normal(size=40), rng.normal(size=40)
        assert np.array_equal(op.observe(2.0 * x + 3.0 * y),
                              2.0 * op.observe(x) + 3.0 * op.observe(y))

    def test_jacobian_consistent(self):
        op = ObservationOperator(11, [0, 4, 7])
        rng = np.random.default_rng(16)
        x = rng.normal(size=11)
        assert np.array_equal(op.jacobian() @ x, op.observe(x))

    def test_batched_observe(self):
        op = ObservationOperator(6, [1, 3])
        X = np.arange(12.0).reshape(2, 6)
        assert np.array_equal(op.observe(X), X[:, [1, 3]])

    def test_validation(self):
        with pytest.raises(ValueError):
            ObservationOperator(5, [5])
        with pytest.raises(ValueError):
            ObservationOperator(5, [1, 1])
        with pytest.raises(ValueError):
            ObservationOperator(5, [])
