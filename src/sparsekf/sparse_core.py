"""Fixed-pattern sparse symmetric linear algebra.

Everything in this module operates on a *fixed* sparsity pattern: a cyclic
band of admissible entries around the diagonal of an n x n symmetric matrix.
The pattern never grows: products evaluate admissible entries only, and the
factorization discards any fill-in from its output.

Contents:
  - SparsityPattern: cyclic-band admissibility rule and per-column index sets
  - SparseVector, SparseColumns, SparseSymMatrix: the sparse containers
  - merge: sparse-over-dense vector combination
  - restricted_outer_accumulate / restricted_product: pattern-limited products
  - local_outer_sum, local_sum_band / local_sum_columns: sums of outer
    products of column-local vectors, read back on the pattern or by column
  - incomplete_cholesky: pattern-restricted factorization with jitter retries
  - min_eigenvalue: smallest eigenvalue of the represented symmetric matrix
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided


class FactorizationError(RuntimeError):
    """Incomplete Cholesky failed even after the jitter retry schedule."""


class SparsityPattern:
    """Cyclic banded sparsity pattern on a periodic n-dimensional state space.

    Entry (i, j) is admissible iff the cyclic distance
    min(|i-j|, n-|i-j|) is at most ``half_bandwidth``. Every column then has
    ``nsp = min(2*half_bandwidth + 1, n)`` admissible entries, centered (in
    the cyclic sense) on the diagonal. ``half_bandwidth = n // 2`` makes the
    pattern dense.
    """

    def __init__(self, n, half_bandwidth):
        n = int(n)
        h = int(half_bandwidth)
        if n < 1:
            raise ValueError(f"state dimension must be positive, got {n}")
        if h < 0 or h > n // 2:
            raise ValueError(
                f"half bandwidth must be in [0, n//2] = [0, {n // 2}], got {h}"
            )
        self.n = n
        self.half_bandwidth = h
        # Offsets of admissible entries relative to the diagonal.  For even n
        # with h == n/2 the offsets -n/2 and +n/2 alias the same entry; keep
        # one of them so every column index appears exactly once.
        if 2 * h == n:
            offsets = np.arange(-h + 1, h + 1)
        else:
            offsets = np.arange(-h, h + 1)
        self.offsets = offsets
        # (n, nsp): row i = column i indices in offset order, i.e. i + offsets
        # (mod n); consecutive entries are cyclic neighbours.
        self.offset_columns = (np.arange(n)[:, None] + offsets[None, :]) % n
        self.columns = np.sort(self.offset_columns, axis=1)  # row i = column i, sorted
        # (n, h+1): column (i + d) mod n of band slot (i, d), see SparseSymMatrix
        self.band_columns = (np.arange(n)[:, None] + np.arange(h + 1)[None, :]) % n

    @property
    def nsp(self):
        """Number of admissible entries per column."""
        return self.columns.shape[1]

    @classmethod
    def full(cls, n):
        """Pattern admitting every entry (half bandwidth n // 2)."""
        return cls(n, n // 2)

    def cyclic_distance(self, i, j):
        d = abs(int(i) - int(j))
        return min(d, self.n - d)

    def contains(self, i, j):
        return self.cyclic_distance(i, j) <= self.half_bandwidth

    def column_indices(self, i):
        """Sorted indices of admissible entries in column i."""
        return self.columns[i].copy()

    @cached_property
    def offset_order(self):
        """Flat indices that reorder (n, nsp) values aligned with ``columns``
        into offset order: ``values.ravel()[offset_order]`` is aligned with
        ``offset_columns``."""
        rank = np.argsort(np.argsort(self.offset_columns, axis=1), axis=1)
        return _read_only(np.arange(self.n)[:, None] * self.nsp + rank)

    @cached_property
    def column_slots(self):
        """Flat band indices of every column in offset order.

        ``band.ravel()[column_slots][i, k]`` is the value that ``to_dense``
        puts at row ``offset_columns[i, k]`` of column i.
        """
        n, h = self.n, self.half_bandwidth
        i = np.arange(n)[:, None]
        off = self.offsets[None, :]
        return _read_only(np.where(off >= 0, i * (h + 1) + off, ((i + off) % n) * (h + 1) - off))

    def __eq__(self, other):
        return (
            isinstance(other, SparsityPattern)
            and self.n == other.n
            and self.half_bandwidth == other.half_bandwidth
        )

    def __repr__(self):
        return f"SparsityPattern(n={self.n}, half_bandwidth={self.half_bandwidth})"


class SparseVector:
    """Length-n vector with explicit entries only at a set of indices.

    Reads outside the index set are exactly zero.
    """

    __slots__ = ("n", "indices", "values")

    def __init__(self, n, indices, values):
        self.n = int(n)
        indices = np.asarray(indices, dtype=np.intp).ravel()
        values = np.asarray(values, dtype=float).ravel()
        if indices.shape != values.shape:
            raise ValueError("indices and values must have the same length")
        if indices.size:
            if indices.min() < 0 or indices.max() >= self.n:
                raise ValueError("index out of range")
            if np.unique(indices).size != indices.size:
                raise ValueError("duplicate indices")
            order = np.argsort(indices)
            indices = indices[order]
            values = values[order]
        self.indices = indices
        self.values = values

    @classmethod
    def empty(cls, n):
        return cls(n, np.empty(0, dtype=np.intp), np.empty(0))

    def to_dense(self):
        out = np.zeros(self.n)
        out[self.indices] = self.values
        return out

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        k = np.searchsorted(self.indices, i)
        if k < self.indices.size and self.indices[k] == i:
            return float(self.values[k])
        return 0.0


def merge(x, y):
    """Combine sparse ``x`` over dense ``y``: take x where defined, y elsewhere."""
    y = np.asarray(y, dtype=float)
    if y.shape != (x.n,):
        raise ValueError(f"dimension mismatch: sparse has n={x.n}, dense has shape {y.shape}")
    out = y.copy()
    out[x.indices] = x.values
    return out


class SparseSymMatrix:
    """Symmetric matrix stored only at pattern entries.

    Storage is one slot per unordered admissible pair: ``band[i, d]`` holds
    the value at (i, (i+d) % n) for forward cyclic offsets d = 0..h, so the
    footprint is n*(h+1) scalars. Reads outside the pattern return exactly 0,
    and symmetry holds by construction (a single slot backs both triangles).
    """

    __slots__ = ("pattern", "band")

    def __init__(self, pattern, band):
        self.pattern = pattern
        band = np.asarray(band, dtype=float)
        expected = (pattern.n, pattern.half_bandwidth + 1)
        if band.shape != expected:
            raise ValueError(f"band must have shape {expected}, got {band.shape}")
        self.band = band

    @classmethod
    def zeros(cls, pattern):
        return cls(pattern, np.zeros((pattern.n, pattern.half_bandwidth + 1)))

    @classmethod
    def identity(cls, pattern, scale=1.0):
        band = np.zeros((pattern.n, pattern.half_bandwidth + 1))
        band[:, 0] = scale
        return cls(pattern, band)

    @classmethod
    def from_dense(cls, dense, pattern):
        """Pattern-restricted (and symmetrized) copy of a dense matrix."""
        dense = np.asarray(dense, dtype=float)
        n, h = pattern.n, pattern.half_bandwidth
        if dense.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got {dense.shape}")
        band = np.empty((n, h + 1))
        idx = np.arange(n)
        for d in range(h + 1):
            j = (idx + d) % n
            band[:, d] = 0.5 * (dense[idx, j] + dense[j, idx])
        return cls(pattern, band)

    @classmethod
    def from_columns(cls, C, pattern):
        """Pattern part of ``M + M^T`` where column i of M holds ``C[i]`` at
        rows ``pattern.offset_columns[i]`` and is zero elsewhere."""
        lo, hi = _transpose_slots(pattern.n, pattern.half_bandwidth)
        C = np.asarray(C, dtype=float).ravel()
        return cls(pattern, C[lo] + C[hi])

    @property
    def n(self):
        return self.pattern.n

    def column_values(self):
        """(n, nsp) values of every column at its rows, in offset order."""
        return self.band.ravel()[self.pattern.column_slots]

    def dense_columns(self, cols):
        """Dense columns ``to_dense()[:, cols]`` without forming the n x n matrix."""
        cols = np.asarray(cols, dtype=np.intp)
        out = np.zeros((self.pattern.n, cols.size))
        out[self.pattern.offset_columns[cols], np.arange(cols.size)[:, None]] = \
            self.column_values()[cols]
        return out

    def get(self, i, j):
        """Value at (i, j); exactly 0.0 outside the pattern."""
        n, h = self.pattern.n, self.pattern.half_bandwidth
        d = (j - i) % n
        if d <= h:
            return float(self.band[i, d])
        d = (i - j) % n
        if d <= h:
            return float(self.band[j, d])
        return 0.0

    def __getitem__(self, ij):
        return self.get(*ij)

    def to_dense(self):
        n, h = self.pattern.n, self.pattern.half_bandwidth
        out = np.zeros((n, n))
        idx = np.arange(n)
        for d in range(h + 1):
            j = (idx + d) % n
            out[idx, j] = self.band[:, d]
            out[j, idx] = self.band[:, d]
        return out

    def diagonal(self):
        return self.band[:, 0].copy()

    def add_scaled_identity(self, c):
        band = self.band.copy()
        band[:, 0] += c
        return SparseSymMatrix(self.pattern, band)

    def copy(self):
        return SparseSymMatrix(self.pattern, self.band.copy())

    def _check_same_pattern(self, other):
        if self.pattern != other.pattern:
            raise ValueError("patterns differ")

    def __add__(self, other):
        self._check_same_pattern(other)
        return SparseSymMatrix(self.pattern, self.band + other.band)

    def __sub__(self, other):
        self._check_same_pattern(other)
        return SparseSymMatrix(self.pattern, self.band - other.band)

    def __mul__(self, c):
        return SparseSymMatrix(self.pattern, self.band * float(c))

    __rmul__ = __mul__


class SparseColumns:
    """A set of n sparse column vectors sharing one pattern.

    Column i is supported on the pattern's column-i index set; ``values[i]``
    is aligned with ``pattern.columns[i]``.
    """

    __slots__ = ("pattern", "values")

    def __init__(self, pattern, values):
        self.pattern = pattern
        values = np.asarray(values, dtype=float)
        if values.shape != pattern.columns.shape:
            raise ValueError(
                f"values must have shape {pattern.columns.shape}, got {values.shape}"
            )
        self.values = values

    @classmethod
    def from_dense(cls, dense, pattern):
        """Extract pattern-column entries of a dense matrix (column i of each)."""
        dense = np.asarray(dense, dtype=float)
        vals = dense[pattern.columns, np.arange(pattern.n)[:, None]]
        return cls(pattern, vals)

    def column(self, i):
        return SparseVector(self.pattern.n, self.pattern.columns[i], self.values[i])

    def to_dense(self):
        n = self.pattern.n
        out = np.zeros((n, n))
        out[self.pattern.columns, np.arange(n)[:, None]] = self.values
        return out


def restricted_outer_accumulate(columns, weights, pattern):
    """Weighted sum of outer products, evaluated only at pattern entries.

    result(i, j) = sum_k w_k * c_k[i] * c_k[j] for admissible (i, j); entries
    outside the pattern are never computed.
    """
    C = np.atleast_2d(np.asarray(columns, dtype=float))
    w = np.asarray(weights, dtype=float).ravel()
    n, h = pattern.n, pattern.half_bandwidth
    if C.shape[1] != n:
        raise ValueError(f"columns must have length {n}, got {C.shape[1]}")
    if w.shape[0] != C.shape[0]:
        raise ValueError("one weight per column required")
    Cw = C * w[:, None]
    return SparseSymMatrix(pattern, np.einsum("ki,kid->id", Cw, C[:, pattern.band_columns]))


def restricted_product(A, B, pattern):
    """Pattern entries of the (symmetric in exact arithmetic) product A @ B.

    The result is symmetrized entrywise: value at admissible (i, j) is
    0.5 * ((A@B)[i, j] + (A@B)[j, i]). The caller is responsible for A @ B
    being symmetric up to rounding. Only the 2 n (h+1) row-column dot
    products behind the band are computed, never the dense product.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, h = pattern.n, pattern.half_bandwidth
    if A.ndim != 2 or B.ndim != 2 or A.shape[0] != n or B.shape[1] != n \
            or A.shape[1] != B.shape[0]:
        raise ValueError(f"incompatible shapes {A.shape} x {B.shape} for n={n}")
    rows = np.arange(n + h) % n  # contiguous copies, extended past the wrap
    A_ext, Bt_ext = A[rows], B.T[rows]
    upper = np.einsum("ik,idk->id", A_ext[:n], _row_windows(Bt_ext, h))  # (A@B)[i, i+d]
    lower = np.einsum("idk,ik->id", _row_windows(A_ext, h), Bt_ext[:n])  # (A@B)[i+d, i]
    return SparseSymMatrix(pattern, 0.5 * (upper + lower))


def _row_windows(X, h):
    """Read-only view ``W[i, d] = X[i + d]`` of an array extended by h rows."""
    step, item = X.strides
    return as_strided(X, shape=(X.shape[0] - h, h + 1, X.shape[1]),
                      strides=(step, step, item), writeable=False)


def _read_only(a):
    """Cached index arrays are shared by every caller: make them immutable."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=16)
def _transpose_slots(n, h):
    """Flat indices into (n, nsp) offset-ordered columns for ``from_columns``:
    band slot (i, d) sums column i+d at row i and column i at row i+d."""
    pattern = SparsityPattern(n, h)
    position = np.empty(n, dtype=np.intp)  # position in offsets of a cyclic offset
    position[pattern.offsets % n] = np.arange(pattern.nsp)
    i = np.arange(n)[:, None]
    d = np.arange(h + 1)[None, :]
    lo = ((i + d) % n) * pattern.nsp + position[-d % n]
    hi = i * pattern.nsp + position[d % n]
    return _read_only(lo), _read_only(hi)


@lru_cache(maxsize=16)
def _ring_order(n, h):
    """Flat indices into (n, nsp) column-local values that put them in ring
    order: entry [a, t] is value a of column (t - offsets[a]) mod n, the one
    at ring position t mod n, for t = 0 .. n + nsp - 2."""
    pattern = SparsityPattern(n, h)
    t = np.arange(n + pattern.nsp - 1)[None, :]
    a = np.arange(pattern.nsp)[:, None]
    return _read_only(((t - pattern.offsets[:, None]) % n) * pattern.nsp + a)


def local_outer_sum(V, weight, pattern):
    """Sum ``A = weight * sum_k v_k v_k^T`` of column-local vectors, by offset difference.

    ``V`` has shape (p, n, nsp): ``V[k, i]`` is a vector supported on pattern
    column i, in offset order (at rows ``offset_columns[i]``). A has half
    bandwidth 2h. It is returned as D of shape (n, nsp): ``D[r, e]`` sums the
    products of entries at rows r and r+e (mod n) whose offsets differ by e.
    ``local_sum_band`` and ``local_sum_columns`` read A from D. The cost is
    O(p n nsp^2) time and O(p n nsp) memory.
    """
    V = np.asarray(V, dtype=float)
    n, h, nsp = pattern.n, pattern.half_bandwidth, pattern.nsp
    p, length = V.shape[0], n + nsp - 1
    # U[a, k, t]: entry a of vector k's column, the one at ring position t;
    # rows a >= nsp are zero, so that a + e never leaves the array.
    U = np.zeros((2 * nsp, p, length))
    U[:nsp] = V.ravel()[_ring_order(n, h)[:, None, :] + n * nsp * np.arange(p)[:, None]]
    item = U.itemsize
    shifted = as_strided(U, shape=(nsp, nsp, p, n),  # shifted[e, a, k, t] = U[a + e, k, t + e]
                         strides=((p * length + 1) * item, p * length * item, length * item, item),
                         writeable=False)
    D = np.einsum("akt,eakt->te", U[:nsp, :, :n], shifted)
    D *= weight
    return D


def _difference_pairs(n, h):
    """Row r and column (r + e) mod n of every entry (r, e) of a D array."""
    nsp = SparsityPattern(n, h).nsp
    r = np.repeat(np.arange(n), nsp)
    e = np.tile(np.arange(nsp), n)
    return r, e, (r + e) % n


@lru_cache(maxsize=16)
def _band_bins(n, h):
    """Entries of D and the band slots they add to. Entry (r, e) is the pair
    {r, r+e}: it adds to slot (r, e) if e <= h, and for e > 0 to slot
    (r+e, n-e) if n-e <= h (both for antipodes of the full even pattern)."""
    r, e, j = _difference_pairs(n, h)
    first = e <= h
    second = (e > 0) & (n - e <= h)
    take = np.concatenate([np.flatnonzero(first), np.flatnonzero(second)])
    bins = np.concatenate([r[first] * (h + 1) + e[first], j[second] * (h + 1) + n - e[second]])
    return _read_only(take), _read_only(bins)


@lru_cache(maxsize=16)
def _column_bins(n, h, cols_key):
    """Entries of D and the positions of dense A[:, cols] they add to."""
    cols = np.frombuffer(cols_key, dtype=np.intp)
    pos = np.full(n, -1, dtype=np.intp)
    pos[cols] = np.arange(cols.size)
    r, e, j = _difference_pairs(n, h)
    first = pos[j] >= 0  # A[r, j]
    second = (e > 0) & (pos[r] >= 0)  # A[j, r]
    take = np.concatenate([np.flatnonzero(first), np.flatnonzero(second)])
    bins = np.concatenate([r[first] * cols.size + pos[j[first]],
                           j[second] * cols.size + pos[r[second]]])
    return _read_only(take), _read_only(bins)


def local_sum_band(D, pattern):
    """Pattern part of the sum A that ``local_outer_sum`` returned as D."""
    n, h = pattern.n, pattern.half_bandwidth
    take, bins = _band_bins(n, h)
    band = np.bincount(bins, weights=np.asarray(D).ravel()[take], minlength=n * (h + 1))
    return SparseSymMatrix(pattern, band.reshape(n, h + 1))


def local_sum_columns(D, pattern, cols):
    """Dense columns ``A[:, cols]`` (distinct cols) of the same sum."""
    n, h = pattern.n, pattern.half_bandwidth
    cols = np.ascontiguousarray(cols, dtype=np.intp)
    take, bins = _column_bins(n, h, cols.tobytes())
    out = np.bincount(bins, weights=np.asarray(D).ravel()[take], minlength=n * cols.size)
    return out.reshape(n, cols.size)


def incomplete_cholesky(P, scale=1.0):
    """Incomplete Cholesky factor of ``scale * P``, restricted to P's pattern.

    The standard lower Cholesky recurrence runs in natural index order with
    fill-in allowed (for a cyclic band, fill occurs at the wrap corner); the
    factor is then restricted to the pattern, discarding the fill. If the
    exact factor happens to be supported inside the pattern - as for banded
    matrices without the cyclic wrap, or for a dense pattern - the result is
    the exact factor. Computing through the fill keeps the factorization
    feasible for every positive definite input, which barely-positive
    covariances (fresh out of the gamma repair) do not permit when fill
    contributions are zeroed inside the recurrence.

    On numerical failure the factorization is retried on
    ``scale * P + jitter * I`` with jitter doubling from 1e-10 for at most
    20 retries.

    Returns
    -------
    (L, jitter) : (SparseColumns, float)
        Factor columns (the sigma-point perturbation vectors) and the jitter
        that was finally applied (0.0 when none was needed).
    """
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    pattern = P.pattern
    n = pattern.n
    A0 = P.to_dense()
    A0 *= scale
    jitter = 0.0
    for _ in range(21):
        A = A0 if jitter == 0.0 else A0 + jitter * np.eye(n)
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            jitter = 1e-10 if jitter == 0.0 else 2.0 * jitter
            continue
        return SparseColumns.from_dense(L, pattern), jitter
    raise FactorizationError(
        f"incomplete Cholesky failed after 20 jitter retries (last jitter {jitter / 2:g})"
    )


def min_eigenvalue(P):
    """Smallest eigenvalue of the symmetric matrix represented by ``P``.

    Off-pattern entries are zero, i.e. the eigenvalue is that of the full
    symmetric completion. Accepts a SparseSymMatrix or a dense symmetric
    array.
    """
    A = P.to_dense() if isinstance(P, SparseSymMatrix) else np.asarray(P, dtype=float)
    return float(np.linalg.eigvalsh(A)[0])
