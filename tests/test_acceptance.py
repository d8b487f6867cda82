"""Acceptance suite: every exit criterion at its stated tolerance.

Criteria 1-6 are the property suite; criteria 7-11 reproduce the reference
statistics at desk scale (100 replicates x 2000 cycles, fixed master seed)
and share module-scoped experiment fixtures. Each test prints one PASS line
with the measured numbers (visible with ``pytest -s`` or ``-rP``).
"""

import math

import numpy as np
import pytest

from helpers import LinearModel, full_step_columns, scalar_kf
from sparsekf.filters import (
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
from sparsekf.harness import (
    ExperimentConfig,
    generate_truth,
    run_experiment,
    synthesize_observations,
)
from sparsekf.models import Lorenz96Model, ObservationOperator, step_columns
from sparsekf.sparse_core import (
    SparseSymMatrix,
    SparsityPattern,
    incomplete_cholesky,
    min_eigenvalue,
)

MASTER_SEED = 0


def desk_config(**kw):
    base = dict(n_steps=2000, n_replicates=100, master_seed=MASTER_SEED)
    base.update(kw)
    return ExperimentConfig(**base).validate()


def _report(k, msg):
    print(f"[criterion {k:2d}] PASS - {msg}")


# ---------------------------------------------------------------------------
# desk-scale experiments shared by criteria 7-11


@pytest.fixture(scope="module")
def sukf7():
    return run_experiment(desk_config(filter="sparse_ukf", nsp=7))


@pytest.fixture(scope="module")
def sukf11():
    return run_experiment(desk_config(filter="sparse_ukf", nsp=11))


@pytest.fixture(scope="module")
def pekf7_np1():
    return run_experiment(desk_config(filter="progressive_ekf", nsp=7, n_p=1))


@pytest.fixture(scope="module")
def pekf11_np1():
    return run_experiment(desk_config(filter="progressive_ekf", nsp=11, n_p=1))


@pytest.fixture(scope="module")
def pekf11_np2():
    return run_experiment(desk_config(filter="progressive_ekf", nsp=11, n_p=2))


@pytest.fixture(scope="module")
def pekf17_np2():
    return run_experiment(desk_config(filter="progressive_ekf", nsp=17, n_p=2))


@pytest.fixture(scope="module")
def enkf_run():
    return run_experiment(desk_config(filter="enkf"))


# ---------------------------------------------------------------------------
# property suite


def _filter_cycles(filter_name, nsp, n_cycles, seed, per_cycle_check):
    """Drive one twin-experiment stream through a sparse filter."""
    cfg = ExperimentConfig(filter=filter_name, nsp=nsp, n_steps=n_cycles,
                           master_seed=seed)
    truth = generate_truth(cfg, np.random.SeedSequence([seed, 1]))
    _, ys = synthesize_observations(truth, cfg, np.random.SeedSequence([seed, 2]))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    xa0 = truth[0] + math.sqrt(cfg.p0) * rng.standard_normal(cfg.n)

    model = Lorenz96Model(cfg.n, cfg.forcing, cfg.dt)
    obs_op = ObservationOperator(cfg.n, cfg.observed_every, cfg.r_scale)
    pattern = SparsityPattern(cfg.n, cfg.half_bandwidth)
    state = FilterState(xa0, SparseSymMatrix.identity(pattern, cfg.p0))
    if filter_name == "sparse_ukf":
        params = UkfParams(pattern=pattern)
        cycle = sparse_ukf_cycle
    else:
        params = ProgressiveParams(pattern=pattern)
        cycle = progressive_ekf_cycle
    for k in range(n_cycles):
        state = cycle(state, ys[k], model, obs_op, params)
        per_cycle_check(state)


def test_criterion_01_covariance_integrity():
    """10^4 sparse-UKF and progressive-EKF cycles: symmetric by storage and
    min eigenvalue >= 1e-9 after the gamma rule."""
    checked = {"count": 0, "min_lambda": np.inf}

    def check(state):
        assert isinstance(state.Pa, SparseSymMatrix)  # symmetric by storage
        D = state.Pa.to_dense()
        assert np.array_equal(D, D.T)
        lam, _, _ = min_eigenvalue(state.Pa)
        assert lam >= 1e-9
        checked["count"] += 1
        checked["min_lambda"] = min(checked["min_lambda"], lam)

    for rep in (0, 1):
        _filter_cycles("sparse_ukf", 7, 2500, 100 + rep, check)
        _filter_cycles("progressive_ekf", 7, 2500, 200 + rep, check)
    assert checked["count"] == 10_000
    _report(1, f"10^4 cycles, smallest post-repair eigenvalue {checked['min_lambda']:.3e}")


def test_criterion_02_scalar_kalman_equivalence():
    """Sparse UKF (full pattern), dense UKF and progressive EKF match the
    closed-form KF within 1e-8 over 50 cycles on a scalar linear system."""
    a, r, q, x0, p0 = 1.0 + 1e-5, 1.0, 0.0, 1.0, 0.2
    rng = np.random.default_rng(42)
    x_true = x0
    ys = []
    for _ in range(50):
        x_true = a * x_true
        ys.append(x_true + rng.standard_normal())
    kf_x, kf_p = scalar_kf(a, r, q, x0, p0, ys)

    obs_op = ObservationOperator(1, 1, r)
    pattern = SparsityPattern(1, 0)

    s_state = FilterState(np.array([x0]), SparseSymMatrix.identity(pattern, p0))
    d_state = FilterState(np.array([x0]), np.array([[p0]]))
    p_state = FilterState(np.array([x0]), SparseSymMatrix.identity(pattern, p0))
    s_params = UkfParams(pattern=pattern)
    d_params = DenseUkfParams()
    p_params = ProgressiveParams(pattern=pattern, delta=1e-4)

    worst = 0.0
    for k, y in enumerate(ys):
        model = LinearModel([[a]])
        s_state = sparse_ukf_cycle(s_state, [y], model, obs_op, s_params)
        d_state = dense_ukf_cycle(d_state, [y], model, obs_op, d_params)
        p_state = progressive_ekf_cycle(p_state, [y], model, obs_op, p_params)
        errs = [
            abs(s_state.xa[0] - kf_x[k]), abs(s_state.Pa.to_dense()[0, 0] - kf_p[k]),
            abs(d_state.xa[0] - kf_x[k]), abs(d_state.Pa[0, 0] - kf_p[k]),
            abs(p_state.xa[0] - kf_x[k]), abs(p_state.Pa.to_dense()[0, 0] - kf_p[k]),
        ]
        worst = max(worst, *errs)
        assert worst <= 1e-8
    _report(2, f"worst |filter - closed form| over 50 cycles = {worst:.2e}")


def test_criterion_03_degeneration_to_dense_ukf():
    """All-entries pattern reduces the sparse UKF to the dense UKF within
    1e-8 on a 6-dim Lorenz-96 over 10 cycles."""
    n = 6
    model_s, model_d = Lorenz96Model(n=n), Lorenz96Model(n=n)
    obs_op = ObservationOperator(n)
    pattern = SparsityPattern(n, n // 2)
    rng = np.random.default_rng(3)
    truth = rng.uniform(-1, 1, n)
    for _ in range(200):
        truth = model_d.step(truth)
    xa0 = truth + 0.3 * rng.standard_normal(n)
    s_state = FilterState(xa0, SparseSymMatrix.identity(pattern, 0.2))
    d_state = FilterState(xa0.copy(), 0.2 * np.eye(n))
    s_params = UkfParams(pattern=pattern)
    d_params = DenseUkfParams()
    worst = 0.0
    for _ in range(10):
        truth = Lorenz96Model(n=n).step(truth)
        y = obs_op.observe(truth) + rng.standard_normal(obs_op.m)
        s_state = sparse_ukf_cycle(s_state, y, model_s, obs_op, s_params)
        d_state = dense_ukf_cycle(d_state, y, model_d, obs_op, d_params)
        worst = max(worst,
                    np.abs(s_state.xa - d_state.xa).max(),
                    np.abs(s_state.Pa.to_dense() - d_state.Pa).max())
        assert worst <= 1e-8
    _report(3, f"max |sparse - dense| over 10 cycles = {worst:.2e}")


def test_criterion_04_component_model_fidelity():
    """1000 random (state, index set) pairs: component evaluation of the whole
    state (``step_components_many``) equals the restriction of the full RK4
    step, exactly. On the same states, the
    windowed evaluator the filters call (``step_columns``) equals the full
    step of every perturbed state on its column, exactly: every half
    bandwidth from windowed through the whole-state fallback to the full
    pattern, +/- perturbations, full and sub-step dt, and every column,
    including the wrapping columns 0 and n-1. The same holds at n = 16 and
    160 on their own states."""
    model = Lorenz96Model()
    rng = np.random.default_rng(4)
    # half the states from the attractor, half broadly random
    x_att = rng.uniform(-1, 1, 40)
    for _ in range(400):
        x_att = model.step(x_att)
    states = []
    for trial in range(1000):
        if trial % 2 == 0:
            x = rng.normal(scale=5.0, size=40)
        else:
            x_att = model.step(x_att)
            x = x_att
        k = int(rng.integers(0, 41))
        idx = np.sort(rng.choice(40, size=k, replace=False))
        vals = model.step_components_many(x[None], idx[None])
        full = model.step(x.copy())
        assert np.array_equal(vals[0], full[idx])
        states.append(x)

    def check_windowed(n, xs, prng):
        m = Lorenz96Model(n=n)
        patterns = [SparsityPattern(n, h) for h in range(n // 2 + 1)]
        for t, x in enumerate(xs):
            pattern = patterns[t % len(patterns)]
            dt = m.dt if (t // len(patterns)) % 2 == 0 else m.dt / 2
            F = 0.5 * prng.standard_normal((n, pattern.nsp))
            P = np.stack([F, -F])
            got = step_columns(m, x, pattern, P, dt=dt)
            assert np.array_equal(got, full_step_columns(x, pattern, P, dt))

    check_windowed(40, states, rng)
    for n in (16, 160):
        xs = [rng.normal(scale=5.0, size=n) if t % 2 else 8.0 + rng.normal(size=n)
              for t in range(2 * (n // 2 + 1))]
        check_windowed(n, xs, rng)
    _report(4, "1000 pairs bit-identical to the restricted full step; windowed "
               "evaluation bit-identical at n = 16, 40, 160 for every bandwidth")


def test_criterion_05_evaluation_count_identities():
    """Per-cycle component-evaluation counts match the closed forms exactly."""
    rng = np.random.default_rng(5)
    obs_op = ObservationOperator(40)
    x0 = rng.uniform(-1, 1, 40)
    warm = Lorenz96Model()
    for _ in range(200):
        x0 = warm.step(x0)

    def run_cycles(filter_name, nsp, n_p, expected):
        model = Lorenz96Model()
        pattern = SparsityPattern(40, (nsp - 1) // 2)
        state = FilterState(x0 + 0.3 * rng.standard_normal(40),
                            SparseSymMatrix.identity(pattern, 0.2))
        members = x0 + 0.3 * rng.standard_normal((10, 40))
        for _ in range(10):
            y = obs_op.observe(x0) + rng.standard_normal(20)
            before = model.evaluation_count
            if filter_name == "sparse_ukf":
                state = sparse_ukf_cycle(state, y, model, obs_op,
                                         UkfParams(pattern=pattern))
            elif filter_name == "progressive_ekf":
                state = progressive_ekf_cycle(state, y, model, obs_op,
                                              ProgressiveParams(pattern=pattern, n_p=n_p))
            else:
                members = enkf_cycle(members, y, model, obs_op,
                                     EnkfParams(), rng)
            assert model.evaluation_count - before == expected

    run_cycles("sparse_ukf", 7, 1, 600)       # 40 + 80*7
    run_cycles("sparse_ukf", 11, 1, 920)      # 40 + 80*11
    run_cycles("progressive_ekf", 7, 1, 320)  # 1*(40 + 40*7)
    run_cycles("progressive_ekf", 11, 1, 480)
    run_cycles("progressive_ekf", 11, 2, 960)
    run_cycles("enkf", 7, 1, 400)             # 10*40
    _report(5, "sparse UKF 600/920, progressive EKF 320/480/480x2, EnKF 400")


def test_criterion_06_incomplete_cholesky_banded_exactness():
    """On banded non-cyclic SPD matrices (n <= 20) the incomplete factor
    matches the dense Cholesky within 1e-10."""
    worst = 0.0
    for n, h, seed in [(8, 1, 0), (12, 2, 1), (16, 3, 2), (20, 2, 3), (20, 4, 4)]:
        rng = np.random.default_rng(seed)
        band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= h
        A = rng.normal(size=(n, n))
        A = np.where(band, 0.5 * (A + A.T), 0.0)
        A += np.diag(np.abs(A).sum(axis=1) + 1.0)
        pattern = SparsityPattern(n, h)
        L = incomplete_cholesky(SparseSymMatrix.from_dense(A, pattern), 1.0)
        worst = max(worst, np.abs(L.to_dense() - np.linalg.cholesky(A)).max())
        assert worst <= 1e-10
    _report(6, f"max |incomplete - dense Cholesky| = {worst:.2e}")


# ---------------------------------------------------------------------------
# statistical reproduction at desk scale


def test_criterion_07_sparse_ukf_nsp7_statistics(sukf7):
    st = sukf7.stats
    assert sukf7.n_failed == 0
    assert 0.26 <= st.median <= 0.36
    assert st.std < 0.05
    assert sukf7.eval_per_cycle == 600.0
    _report(7, f"Nsp=7: median {st.median:.4f} (ref 0.3061), std {st.std:.4f}")


def test_criterion_08_sparse_ukf_nsp11_statistics(sukf7, sukf11):
    st = sukf11.stats
    assert sukf11.n_failed == 0
    assert 0.22 <= st.median <= 0.32
    assert st.median < sukf7.stats.median
    assert sukf11.eval_per_cycle == 920.0
    _report(8, f"Nsp=11: median {st.median:.4f} (ref 0.2691) < Nsp=7 median "
               f"{sukf7.stats.median:.4f}")


def test_criterion_09_progressive_ekf_statistics(pekf7_np1, pekf11_np1,
                                                 pekf11_np2, pekf17_np2):
    refs = [
        (pekf7_np1, 0.3845, "Nsp=7 np=1"),
        (pekf11_np1, 0.3455, "Nsp=11 np=1"),
        (pekf11_np2, 0.3041, "Nsp=11 np=2"),
        (pekf17_np2, 0.2872, "Nsp=17 np=2"),
    ]
    medians = {}
    for run, ref, label in refs:
        assert run.n_failed == 0
        med = run.stats.median
        assert abs(med - ref) <= 0.06, f"{label}: median {med:.4f} vs ref {ref}"
        medians[label] = med
    assert medians["Nsp=11 np=2"] < medians["Nsp=11 np=1"]
    _report(9, " / ".join(f"{lbl}: {m:.4f}" for lbl, m in medians.items()))


def test_criterion_10_enkf_tail_signature(enkf_run, sukf7):
    """The EnKF baseline keeps a reasonable median but a heavy upper tail:
    std at least 10x the sparse-UKF std and mean well above the median
    (pinned as mean >= 1.3 * median)."""
    st = enkf_run.stats
    assert 0.25 <= st.median <= 0.6
    assert st.std >= 10.0 * sukf7.stats.std
    assert st.mean >= 1.3 * st.median
    assert enkf_run.eval_per_cycle == 400.0
    _report(10, f"median {st.median:.4f}, mean {st.mean:.4f}, std {st.std:.4f} "
                f"(sparse std {sukf7.stats.std:.4f})")


def test_criterion_11_cross_filter_ordering(sukf7, sukf11, pekf7_np1, pekf11_np1):
    assert sukf7.stats.median < pekf7_np1.stats.median
    assert sukf11.stats.median < pekf11_np1.stats.median
    _report(11, f"sparse UKF < progressive EKF at Nsp=7 "
                f"({sukf7.stats.median:.4f} < {pekf7_np1.stats.median:.4f}) and Nsp=11 "
                f"({sukf11.stats.median:.4f} < {pekf11_np1.stats.median:.4f})")
