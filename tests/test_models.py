"""Lorenz-96 dynamics, whole-state and windowed evaluation, and observation operator tests."""

import numpy as np
import pytest

from helpers import LinearModel, full_step_columns, ring_rk4
from sparsekf.models import (
    Lorenz96Model,
    ObservationOperator,
    lorenz96_rhs,
    rk4_step,
    rk4_window,
    step_columns,
)
from sparsekf.sparse_core import SparsityPattern


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
    """``step_components_many`` on whole-state rows: each row's requested
    entries of the full step."""

    def test_full_index_set_equals_step(self):
        model = Lorenz96Model()
        x = attractor_state(seed=1)
        full = model.step(x)
        vals = model.step_components_many(x[None], np.arange(40)[None])
        assert np.array_equal(vals[0], full)

    def test_empty_set(self):
        model = Lorenz96Model()
        before = model.evaluation_count
        vals = model.step_components_many(attractor_state()[None], np.empty((1, 0), dtype=int))
        assert vals.shape == (1, 0)
        assert model.evaluation_count == before

    def test_single_entry_exact(self):
        model = Lorenz96Model()
        x = attractor_state(seed=2)
        vals = model.step_components_many(x[None], [[5]])
        assert vals[0, 0] == model.step(x)[5]

    def test_random_pairs_exact(self):
        model = Lorenz96Model()
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = rng.normal(scale=4.0, size=40)
            k = int(rng.integers(1, 41))
            idx = np.sort(rng.choice(40, size=k, replace=False))
            vals = model.step_components_many(x[None], idx[None])
            assert np.array_equal(vals[0], model.step(x.copy())[idx])

    def test_batched_matches_single(self):
        model = Lorenz96Model()
        rng = np.random.default_rng(7)
        X = rng.normal(scale=3.0, size=(6, 40))
        idx = np.stack([np.sort(rng.choice(40, size=5, replace=False)) for _ in range(6)])
        vals = model.step_components_many(X, idx)
        for b in range(6):
            assert np.array_equal(vals[b], model.step(X[b])[idx[b]])


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

    @pytest.mark.parametrize("n,nsp", [(40, 7), (160, 41), (640, 7)])
    def test_window_centre_equals_its_explicit_indices(self, n, nsp):
        # None asks for every entry the window step keeps, its centre
        rng = np.random.default_rng(n + nsp)
        left, right = Lorenz96Model.halo
        X = rng.normal(scale=3.0, size=(2 * n, nsp + left + right))
        centre = np.broadcast_to(np.arange(left, left + nsp), (2 * n, nsp))
        implicit, explicit = Lorenz96Model(n=n), Lorenz96Model(n=n)
        got = implicit.step_components_many(X, None)
        assert np.array_equal(got, explicit.step_components_many(X, centre))
        assert implicit.evaluation_count == explicit.evaluation_count == 2 * n * nsp

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
    """The halo (left, right) declares that entry i of one step reads only
    entries i-left..i+right; windowed evaluation is exact because of it."""

    def test_window_shape(self):
        # one RK4 step widens the stencil i-2..i+1 of the right-hand side four times
        assert Lorenz96Model.halo == (8, 4)

    def test_outside_stencil_has_no_influence(self):
        model = Lorenz96Model()
        x = attractor_state(seed=8)
        i = 17
        left, right = Lorenz96Model.halo
        st = set(range(i - left, i + right + 1))
        base = model.step(x)[i]
        for j in range(40):
            x2 = x.copy()
            x2[j] += 0.5
            changed = model.step(x2)[i]
            if j in st:
                assert changed != base
            else:
                assert changed == base


class TestEvaluationCounter:
    def test_accounting(self):
        model = Lorenz96Model()
        x = attractor_state(seed=12)
        assert model.evaluation_count == 0
        model.step(x)
        assert model.evaluation_count == 40
        model.step_many(np.tile(x, (5, 1)))
        assert model.evaluation_count == 40 + 200
        model.step_components_many(np.tile(x, (2, 1)), np.array([[0, 1], [2, 3]]))
        assert model.evaluation_count == 240 + 4
        for _ in range(3):  # three of four sub-steps
            x = model.step(x, dt=model.dt / 4)
        assert model.evaluation_count == 244 + 120


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
        assert op.m == 20 and op.stride == 2 and op.r == 1.0
        assert np.array_equal(op.observe(x), np.arange(1.0, 41.0, 2.0))

    def test_linearity(self):
        op = ObservationOperator(40)
        rng = np.random.default_rng(15)
        x, y = rng.normal(size=40), rng.normal(size=40)
        assert np.array_equal(op.observe(2.0 * x + 3.0 * y),
                              2.0 * op.observe(x) + 3.0 * op.observe(y))

    def test_jacobian_consistent(self):
        # observing is multiplying by the constant selection matrix
        op = ObservationOperator(11, 3)
        rng = np.random.default_rng(16)
        x = rng.normal(size=11)
        assert np.array_equal(op.indices, [0, 3, 6, 9])
        assert np.array_equal(np.eye(11)[op.indices] @ x, op.observe(x))

    def test_batched_observe(self):
        op = ObservationOperator(6, 3, r=0.5)
        X = np.arange(12.0).reshape(2, 6)
        assert np.array_equal(op.observe(X), X[:, [0, 3]])

    def test_validation(self):
        for stride in (0, -1):
            with pytest.raises(ValueError, match="stride"):
                ObservationOperator(5, stride)
        assert np.array_equal(ObservationOperator(5, 5).indices, [0])
