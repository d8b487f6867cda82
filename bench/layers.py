"""Per-layer tracing from outside the package.

``installed(tracer)`` wraps the public functions of each layer where the
filters call them and restores the originals on exit. Each wrapped call is a
span; spans nest on a stack, and the spans inside one assimilation cycle are
summed into that cycle's record. A target that no longer exists is reported
in ``tracer.missing`` and its metrics read 0; it is not an error.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (label, module, attribute path, kind). Functions are patched in the module
# that looks them up at call time: the cycles in the harness (its closures
# call them by global name), the sparse_core kernels in the filters (which
# import them by name), and methods on their classes.
TARGETS = (
    ("filters.sparse_ukf_cycle", "sparsekf.harness", "sparse_ukf_cycle", "cycle"),
    ("filters.progressive_ekf_cycle", "sparsekf.harness", "progressive_ekf_cycle", "cycle"),
    ("harness.generate_truth", "sparsekf.harness", "generate_truth", "truth"),
    ("sparse_core.incomplete_cholesky", "sparsekf.filters", "incomplete_cholesky", "call"),
    ("sparse_core.min_eigenvalue", "sparsekf.filters", "min_eigenvalue", "call"),
    ("sparse_core.restricted_outer_accumulate", "sparsekf.filters",
     "restricted_outer_accumulate", "call"),
    ("sparse_core.restricted_product", "sparsekf.filters", "restricted_product", "call"),
    ("models.step", "sparsekf.models", "Lorenz96Model.step", "model"),
    ("models.step_many", "sparsekf.models", "Lorenz96Model.step_many", "model"),
    ("models.step_components_many", "sparsekf.models",
     "Lorenz96Model.step_components_many", "model"),
    ("sparse_core.SparseSymMatrix.to_dense", "sparsekf.sparse_core",
     "SparseSymMatrix.to_dense", "to_dense"),
    ("sparse_core.SparseSymMatrix.from_dense", "sparsekf.sparse_core",
     "SparseSymMatrix.from_dense", "from_dense"),
    ("sparse_core.SparseColumns.to_dense", "sparsekf.sparse_core",
     "SparseColumns.to_dense", "to_dense"),
    ("sparse_core.SparseColumns.from_dense", "sparsekf.sparse_core",
     "SparseColumns.from_dense", "from_dense"),
)

# Timed labels reported as per-layer metrics; none of them calls another.
TIMED_LABELS = (
    "models.step_components_many",
    "sparse_core.min_eigenvalue",
    "sparse_core.incomplete_cholesky",
    "sparse_core.restricted_outer_accumulate",
    "sparse_core.restricted_product",
)

_ABSENT = object()


class Tracer:
    """Span stack plus one record per traced cycle.

    A cycle record maps each label to the seconds spent in it (inclusive of
    nested spans), and holds ``cycle`` (wall seconds), ``self`` (wall seconds
    not covered by a direct child span), ``evals_counted`` (the model's
    ``evaluation_count`` delta), ``evals_performed`` (rows x width of the
    batches passed to the model), ``dense_n2`` and ``dense_bytes`` (n x n
    materialisations through to_dense/from_dense) and ``gamma`` (1 if the
    returned diagnostics show a gamma repair).
    """

    def __init__(self):
        self._stack = []  # open spans: [start, seconds covered by direct children]
        self._cycle = None  # record of the cycle in progress; spans outside cycles are not kept
        self.cycles = []
        self.truth_s = []
        self.missing = []
        self.check_s = 0.0  # time spent in the covariance check, outside every span
        self.covariance_checks = 0
        self.min_lambda = float("inf")
        self.failures = []

    def _enter(self):
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame):
        duration = time.perf_counter() - frame[0]
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def _check_covariance(self, state):
        """Symmetric, with smallest eigenvalue >= 0, by numpy's eigvalsh."""
        P = getattr(state, "Pa", None)
        if P is None:
            return
        t0 = time.perf_counter()
        try:
            A = P.to_dense() if hasattr(P, "to_dense") else np.asarray(P, dtype=float)
            if A.ndim != 2 or A.shape[0] != A.shape[1]:
                return  # an ensemble, not a covariance
            symmetric = np.array_equal(A, A.T)
            lam = float(np.linalg.eigvalsh(A)[0])
        finally:
            self.check_s += time.perf_counter() - t0
        self.covariance_checks += 1
        self.min_lambda = min(self.min_lambda, lam)
        if not (symmetric and lam >= 0.0) and len(self.failures) < 10:
            self.failures.append(
                f"cycle {len(self.cycles)}: analysis covariance "
                f"symmetric={symmetric}, smallest eigenvalue {lam:.3g}"
            )

    # -- wrapper factories, one per kind --

    def _wrap_cycle(self, label, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            model = next((a for a in args if hasattr(a, "evaluation_count")), None)
            before = model.evaluation_count if model is not None else 0
            record = self._cycle = defaultdict(float)
            frame = self._enter()
            try:
                state = fn(*args, **kwargs)
            finally:
                record["cycle"] = self._leave(frame)
                self._cycle = None
            record["self"] = record["cycle"] - frame[1]
            if model is not None:
                record["evals_counted"] = model.evaluation_count - before
            diagnostics = getattr(state, "diagnostics", None)
            record["gamma"] = float(getattr(diagnostics, "gamma", 0.0) > 0.0)
            self.cycles.append(record)
            self._check_covariance(state)
            return state

        return wrapper

    def _wrap_truth(self, label, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.truth_s.append(time.perf_counter() - t0)

        return wrapper

    def _wrap_span(self, label, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._cycle
            if record is None:
                return fn(*args, **kwargs)
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[label] += self._leave(frame)
            if count is not None:
                count(record, args, result)
            return result

        return wrapper

    def wrap(self, label, kind, fn):
        if kind == "cycle":
            return self._wrap_cycle(label, fn)
        if kind == "truth":
            return self._wrap_truth(label, fn)
        return self._wrap_span(label, fn, _COUNTERS.get(kind))


def _count_model(record, args, result):
    # args = (self, X, ...): the batch is rows x width, a single state 1 x n.
    shape = np.shape(args[1])
    record["evals_performed"] += int(np.prod(shape[:-1], dtype=np.int64)) * shape[-1]


def _count_to_dense(record, args, result):
    record["dense_n2"] += 1
    record["dense_bytes"] += np.asarray(result).nbytes


def _count_from_dense(record, args, result):
    # args = (cls, dense, ...) for the from_dense classmethods.
    record["dense_n2"] += 1
    record["dense_bytes"] += np.asarray(args[1]).nbytes


_COUNTERS = {"model": _count_model, "to_dense": _count_to_dense, "from_dense": _count_from_dense}


def _resolve(module, path):
    owner = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if name in vars(klass):
                return owner, name, vars(klass)[name]
        raise AttributeError(f"{path} not found in {module}")
    return owner, name, getattr(owner, name)


@contextmanager
def installed(tracer, targets=TARGETS):
    """Patch every target with the tracer's wrapper; restore all on exit."""
    saved = []  # (owner, name, original entry of vars(owner) or _ABSENT)
    tracer.missing = []
    try:
        for label, module, path, kind in targets:
            try:
                owner, name, descriptor = _resolve(module, path)
            except (ImportError, AttributeError):
                tracer.missing.append(label)
                continue
            saved.append((owner, name, vars(owner).get(name, _ABSENT)))
            if isinstance(descriptor, (classmethod, staticmethod)):
                wrapped = type(descriptor)(tracer.wrap(label, kind, descriptor.__func__))
            else:
                wrapped = tracer.wrap(label, kind, descriptor)
            setattr(owner, name, wrapped)
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            if original is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
