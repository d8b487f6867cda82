"""Dynamical models stepped whole or on windows, and the observation model.

A model is a batched step of whole states plus a static ``halo``: how far
one step reaches to the left and to the right. The halo is what makes local
evaluation exact. ``step_columns`` steps a state that differs from a base
state only on one pattern column on a gathered window (that column plus the
halo on each side) and keeps the column entries in the window's centre. They
are bit-identical to the same entries of the full step, because the window
runs the same elementwise update. A model with no declared halo, or a window
at least n wide, steps whole states.

Every model keeps a running count of scalar output entries it has evaluated
(the counted evaluations the filters report per cycle). The work actually
performed is the rows x width of the batches the model is handed.

``ObservationOperator(n, stride, r)`` is the whole observation model: it
observes every ``stride``-th entry with noise covariance ``r * I``, so the
filters read the scalar ``r`` and never form an m x m noise matrix.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .sparse_core import SparsityPattern, _read_only


class ComponentModel:
    """Base contract: a step of whole states and of windows, with counted evaluations.

    Subclasses implement ``advance(X, dt)``, one step of states on the last
    axis, and, when they declare ``halo = (left, right)`` (output entry i of
    one step depends only on inputs i-left..i+right, cyclic),
    ``advance_windows(X, dt)``, which steps windows of width W and returns
    their entries left..W-right-1. ``halo = None`` declares nothing. The
    counted ``step``, ``step_many`` and ``step_components_many`` are built on
    them. ``dt`` is the full step size; passing ``dt=`` evaluates one step of
    a different size (used for inner-loop refinement).
    """

    halo = None

    def __init__(self, n, dt):
        self.n = int(n)
        self.dt = float(dt)
        self._evals = 0

    @property
    def evaluation_count(self):
        """Running count of scalar output entries evaluated so far."""
        return self._evals

    def _dt(self, dt):
        return self.dt if dt is None else float(dt)

    def step(self, x, dt=None):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"state must have shape ({self.n},), got {x.shape}")
        self._evals += self.n
        return self.advance(x, self._dt(dt))

    def step_many(self, X, dt=None):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"batch must have shape (B, {self.n}), got {X.shape}")
        self._evals += X.shape[0] * self.n
        return self.advance(X, self._dt(dt))

    def step_components_many(self, X, out_indices, dt=None):
        """Step every row of X and return it at its row of ``out_indices``.

        With ``out_indices`` None the rows are windows gathered from a state
        (see ``step_columns``), stepped by ``advance_windows``, and each
        returns its centre (width - left - right entries). Otherwise the rows
        are states of width n, stepped whole, and row b returns its entries
        ``out_indices[b]``. Each returned entry counts as one evaluation.
        """
        X = np.asarray(X, dtype=float)
        dt = self._dt(dt)
        if out_indices is None:
            Y = self.advance_windows(X, dt)
        else:
            out_indices = np.asarray(out_indices, dtype=np.intp)
            if X.shape != (out_indices.shape[0], self.n):
                raise ValueError(
                    f"explicit indices need one index row per state of width {self.n}")
            Y = np.take_along_axis(self.advance(X, dt), out_indices, axis=1)
        self._evals += Y.size
        return Y


# Stencil of one RK4 step: the one-stage window {i-2..i+1} widened once per
# remaining stage, giving {i-8..i+4} regardless of the step size; rk4_window
# relies on exactly this halo.
_RK4_HALO = (8, 4)


def _rhs_inner(x, forcing):
    """Lorenz-96 right-hand side dx_i/dt = (x_{i+1} - x_{i-2}) x_{i-1} - x_i
    + F at positions 2..W-2 of windows of width W (last axis): the same
    arithmetic as the cyclic right-hand side, without wrapping."""
    return (x[..., 3:] - x[..., :-3]) * x[..., 1:-2] - x[..., 2:-1] + forcing


def rk4_window(x, dt, forcing):
    """RK4 step of windows of width W (last axis), exact at positions 8..W-5.

    Each stage loses the entries whose stencil leaves the window, so the
    result holds the W-12 positions whose whole RK4 stencil lies inside.
    Every kept entry sees the same operations as in four cyclic
    right-hand-side stages of the state the window was gathered from, so
    it is bit-identical to that step.
    """
    k1 = _rhs_inner(x, forcing)  # positions 2..W-2
    k2 = _rhs_inner(x[..., 2:-1] + 0.5 * dt * k1, forcing)  # 4..W-3
    k3 = _rhs_inner(x[..., 4:-2] + 0.5 * dt * k2, forcing)  # 6..W-4
    k4 = _rhs_inner(x[..., 6:-3] + dt * k3, forcing)  # 8..W-5
    return x[..., 8:-4] + (dt / 6.0) * (
        k1[..., 6:-3] + 2.0 * k2[..., 4:-2] + 2.0 * k3[..., 2:-1] + k4
    )


@lru_cache(maxsize=8)
def _halo_padding(n):
    """Gather index that pads a length-n ring with the RK4 halo on each side."""
    return _read_only(np.arange(-_RK4_HALO[0], n + _RK4_HALO[1]) % n)


def rk4_step(x, dt, forcing):
    """Classical 4th-order Runge-Kutta step of the Lorenz-96 ODE (last axis).

    The cyclic state is padded with its own halo entries and stepped by
    ``rk4_window``, which is the same arithmetic as four cyclic
    right-hand-side stages with one gather instead of three per stage.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < 4:
        raise ValueError("the advection stencil i-2..i+1 needs n >= 4")
    return rk4_window(x[..., _halo_padding(x.shape[-1])], dt, forcing)


class Lorenz96Model(ComponentModel):
    """Cyclic Lorenz-96 dynamics advanced with RK4 steps.

    One RK4 step of entry i reads entries i-8..i+4, so the halo is (8, 4).
    States are stepped by ``rk4_step`` and windows by ``rk4_window``; the
    entries a window keeps are bit-identical to the full step.
    """

    halo = _RK4_HALO

    def __init__(self, n=40, forcing=8.0, dt=0.025):
        if n < 4:
            raise ValueError(f"Lorenz-96 needs n >= 4, got {n}")
        super().__init__(n, dt)
        self.forcing = float(forcing)

    def advance(self, X, dt):
        return rk4_step(X, dt, self.forcing)

    def advance_windows(self, X, dt):
        return rk4_window(X, dt, self.forcing)


@lru_cache(maxsize=16)
def _column_windows(n, half_bandwidth, left, right):
    """(n, nsp + left + right) window of every pattern column plus the halo."""
    pattern = SparsityPattern(n, half_bandwidth)
    first = pattern.offset_columns[:, :1] - left
    return _read_only((first + np.arange(pattern.nsp + left + right)) % n)


@lru_cache(maxsize=8)
def _last_axis_first(ndim):
    """Axes that move the last of ``ndim`` axes to the front, for ``transpose``."""
    return (ndim - 1,) + tuple(range(ndim - 1))


def step_columns(model, x, pattern, perturbations, dt=None):
    """Step ``x + p`` for perturbations p that each live on one pattern column.

    ``perturbations`` has shape (..., n, nsp): entry [..., i, k] perturbs
    ``x`` at ``pattern.offset_columns[i, k]``. Returns an array of the same
    shape holding each stepped state at the entries of its own column. With a
    declared halo (left, right) every perturbed state is stepped on a window
    of nsp + left + right entries, whose kept centre is the column; a model
    with no halo, or a window at least n wide, steps whole states. Either way
    the values equal the restriction of the full step bit for bit, and the
    model counts nsp evaluations per perturbed state.
    """
    x = np.asarray(x, dtype=float)
    P = np.asarray(perturbations, dtype=float)
    n, nsp = pattern.n, pattern.nsp
    if P.ndim < 2 or P.shape[-2:] != (n, nsp):
        raise ValueError(f"perturbations must end in shape ({n}, {nsp}), got {P.shape}")
    halo = model.halo
    if halo is None or nsp + halo[0] + halo[1] >= n:
        rows = P.reshape(-1, nsp)
        out = np.broadcast_to(pattern.offset_columns, P.shape).reshape(-1, nsp)
        X = np.tile(x, (rows.shape[0], 1))
        X[np.arange(rows.shape[0])[:, None], out] += rows
    else:
        left, right = halo
        windows = _column_windows(n, pattern.half_bandwidth, left, right)
        width = windows.shape[1]
        # Window position first and the batch last, so that every stage of
        # the step runs over contiguous memory; X is the (batch, width) view.
        Xt = np.empty((width,) + P.shape[:-1])
        Xt[...] = x[windows.T].reshape((width,) + (1,) * (P.ndim - 2) + (n,))
        Xt[left:left + nsp] += P.transpose(_last_axis_first(P.ndim))
        X = Xt.reshape(width, -1).T
        out = None  # the window centre is the column
    return model.step_components_many(X, out, dt=dt).reshape(P.shape)


class ObservationOperator:
    """Every ``stride``-th state entry, starting at the first, observed with
    noise covariance ``r * I``.

    The default observes every other entry with unit noise, i.e. for n = 40
    the 20 odd positions in 1-based counting.
    """

    def __init__(self, n, stride=2, r=1.0):
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.n, self.stride, self.r = int(n), int(stride), float(r)
        self.indices = _read_only(np.arange(0, self.n, self.stride))

    @property
    def m(self):
        return self.indices.size

    def observe(self, x):
        """Select observed entries; works on a state or a batch of states."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n:
            raise ValueError(f"state dimension must be {self.n}, got {x.shape[-1]}")
        return x[..., self.indices]
