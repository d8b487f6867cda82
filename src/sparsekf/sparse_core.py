"""Fixed-pattern sparse symmetric linear algebra.

Everything in this module operates on a *fixed* sparsity pattern: a cyclic
band of admissible entries around the diagonal of an n x n symmetric matrix.
The pattern never grows: products evaluate admissible entries only, and the
factorization discards any fill-in from its output.

Contents:
  - SparsityPattern: cyclic-band admissibility rule and per-column index sets
  - SparseSymMatrix: a symmetric matrix stored as its band
  - SparseColumns: the pattern columns of a factor (the sigma-point offsets)
  - restricted_outer_accumulate / restricted_product: pattern-limited products
  - local_outer_sum, local_sum_band / local_sum_columns: sums of outer
    products of column-local vectors, read back on the pattern or by column
  - cholesky_with_jitter: the jitter retry schedule shared by every factor
  - CyclicBandCholesky: exact O(n b^2) factor of a cyclic band, with solves
    and the selected inverse (the blocks of its inverse on the factor's
    pattern); uses_structured_path decides from (n, h) when it replaces the
    dense one
  - incomplete_cholesky: pattern-restricted factorization with jitter retries
  - min_eigenvalue: smallest eigenvalue of the represented symmetric matrix,
    certified by shifted factorizations on the structured path
  - GainLayout / gain_layout / band_gain: the Kalman gain's band
    C M^-1 C^T and C M^-1 v for a band observed at a regular stride, from a
    band factor of M and its selected inverse, with no m x m or n x m array
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


class SparseSymMatrix:
    """Symmetric matrix stored only at pattern entries.

    Storage is one slot per unordered admissible pair: ``band[i, d]`` holds
    the value at (i, (i+d) % n) for forward cyclic offsets d = 0..h, so the
    footprint is n*(h+1) scalars. ``to_dense`` is exactly 0 outside the
    pattern, and symmetry holds by construction (a single slot backs both
    triangles).
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

    def to_dense(self):
        n, h = self.pattern.n, self.pattern.half_bandwidth
        out = np.zeros((n, n))
        idx = np.arange(n)
        for d in range(h + 1):
            j = (idx + d) % n
            out[idx, j] = self.band[:, d]
            out[j, idx] = self.band[:, d]
        return out

    def add_scaled_identity(self, c):
        band = self.band.copy()
        band[:, 0] += c
        return SparseSymMatrix(self.pattern, band)

    def _check_same_pattern(self, other):
        if self.pattern != other.pattern:
            raise ValueError("patterns differ")

    def __add__(self, other):
        self._check_same_pattern(other)
        return SparseSymMatrix(self.pattern, self.band + other.band)

    def __sub__(self, other):
        self._check_same_pattern(other)
        return SparseSymMatrix(self.pattern, self.band - other.band)


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


# ---------------------------------------------------------------------------
# Cholesky factorization: one jitter schedule, a dense and a structured kernel

JITTER_START = 1e-10  # first jitter of the retry schedule; it doubles on each retry
JITTER_RETRIES = 20

# The structured factorization splits the ring into blocks of at least
# BLOCK_ROWS rows (and at least h); it is used when that gives MIN_BLOCKS or
# more blocks. Below that, one dense LAPACK call beats the block loop.
BLOCK_ROWS = 32
MIN_BLOCKS = 8


def _check_finite(values):
    if not np.isfinite(values).all():
        raise FactorizationError("cannot factor a matrix with non-finite entries")


def _dense_cholesky(A, jitter=0.0):
    """Lower Cholesky factor of the dense matrix ``A + jitter * I``."""
    A = np.asarray(A, dtype=float)
    _check_finite(A)
    return np.linalg.cholesky(A if jitter == 0.0 else A + jitter * np.eye(A.shape[0]))


def cholesky_with_jitter(A, factor=_dense_cholesky):
    """``(factor(A, jitter), jitter)`` for the first jitter that factors.

    The schedule is 0, then JITTER_START doubling for at most JITTER_RETRIES
    retries; ``factor`` signals a matrix that is not positive definite by
    raising ``np.linalg.LinAlgError``. Non-finite input raises
    FactorizationError at once (numpy's Cholesky returns NaNs for it).
    """
    jitter = 0.0
    for _ in range(JITTER_RETRIES + 1):
        try:
            return factor(A, jitter), jitter
        except np.linalg.LinAlgError:
            jitter = JITTER_START if jitter == 0.0 else 2.0 * jitter
    raise FactorizationError(
        f"Cholesky failed after {JITTER_RETRIES} jitter retries (last jitter {jitter / 2:g})"
    )


def uses_structured_path(n, h):
    """True when an (n, h) cyclic band is factored by CyclicBandCholesky
    rather than through the dense n x n matrix."""
    return n >= MIN_BLOCKS * max(BLOCK_ROWS, h)


def _band_index(n, h, i, j):
    """Flat index of entry (i, j) in a band array, or n*(h+1) (a trailing
    zero appended to the flattened band) outside the pattern."""
    d, e = (j - i) % n, (i - j) % n
    return np.where(d <= h, i * (h + 1) + d, np.where(e <= h, j * (h + 1) + e, n * (h + 1)))


def _block_entry(n, b, row, col):
    """Flat index of entry (row, col), row >= col, in the concatenation of
    the ``diag``, ``sub`` and ``last`` arrays of a block factor (or of its
    selected inverse) with blocks of b rows; -1 where the entry lies in none
    of them (two blocks apart, neither in the last block row)."""
    N = n // b
    top = (N - 1) * b
    block_r, block_c = np.minimum(row // b, N - 1), np.minimum(col // b, N - 1)
    n_diag, n_sub = (N - 1) * b * b, (N - 2) * b * b
    inside = (row % b) * b + col % b
    return np.where(
        block_r == N - 1, n_diag + n_sub + (row - top) * n + col,
        np.where(block_r == block_c, block_c * b * b + inside,
                 np.where(block_r == block_c + 1, n_diag + block_c * b * b + inside, -1)))


@lru_cache(maxsize=16)
def _block_layout(n, h, b):
    """Gather indices of the cyclic block-tridiagonal partition into blocks
    0..N-2 of b rows and a last block of the remaining bl (b <= bl < 2b)
    rows, N >= 2.

    ``diag`` (N-1, b, b) and ``sub`` (N-2, b, b) index the diagonal blocks
    and the couplings of block k+1 to block k below the last block; ``last``
    (bl, n) indexes the last block row. ``restrict`` (n, nsp) indexes the
    concatenation of the factor's diag, sub and last arrays (plus a zero)
    at the pattern entries of every column, aligned with ``columns``.
    """
    N = n // b
    top = (N - 1) * b  # first row of the last block
    k = np.arange(N - 1)[:, None, None]
    r = np.arange(b)[None, :, None]
    c = np.arange(b)[None, None, :]
    diag = _band_index(n, h, k * b + r, k * b + c)
    sub = _band_index(n, h, (k[:-1] + 1) * b + r, k[:-1] * b + c)
    last = _band_index(n, h, np.arange(top, n)[:, None], np.arange(n)[None, :])

    row = SparsityPattern(n, h).columns
    col = np.broadcast_to(np.arange(n)[:, None], row.shape)
    zero = (N - 1) * b * b + (N - 2) * b * b + (n - top) * n
    restrict = np.where(row >= col, _block_entry(n, b, row, col), zero)
    return tuple(_read_only(a) for a in (diag, sub, last, restrict))


def _tril_inverse(L):
    """Inverses of a stack (k, m, m) of lower-triangular matrices.

    Recursive doubling on diagonal blocks, [[X, 0], [C, Y]]^-1 =
    [[X^-1, 0], [-Y^-1 C X^-1, Y^-1]], from 1 x 1 blocks up to m padded to a
    power of two: matrix products only, which for blocks of a few dozen rows
    are several times faster than LAPACK's solvers called through numpy.
    """
    k, m, _ = L.shape
    size = 1 << max(m - 1, 0).bit_length()
    A = np.zeros((k, size, size))
    A[:, :m, :m] = L
    pad = np.arange(m, size)
    A[:, pad, pad] = 1.0
    d = np.arange(size)
    inv = (1.0 / A[:, d, d])[:, :, None, None]  # (k, blocks, s, s) inverses of diagonal blocks
    s = 1
    while s < size:
        nb = size // (2 * s)
        p = np.arange(nb)
        coupling = A.reshape(k, nb, 2 * s, nb, 2 * s)[:, p, s:, p, :s].swapaxes(0, 1)
        X, Y = inv[:, 0::2], inv[:, 1::2]
        inv = np.zeros((k, nb, 2 * s, 2 * s))
        inv[..., :s, :s] = X
        inv[..., s:, s:] = Y
        inv[..., s:, :s] = -(Y @ coupling @ X)
        s *= 2
    return inv[:, 0, :m, :m]


class CyclicBandCholesky:
    """Exact lower Cholesky factor of ``scale * P + shift * I`` for P on a
    cyclic band, built without an n x n array.

    With blocks of b >= h rows the cyclic band is cyclic block-tridiagonal,
    so the factor is block-bidiagonal (``diag`` blocks and their ``sub``
    couplings) plus a dense border: the last block row ``last`` (bl x n),
    which also holds the last diagonal block. The work is O(n b^2):

    - block k and its coupling to block k+1 come from one
      ``np.linalg.cholesky`` of the 2b x 2b window [[S_k, C_k^T], [C_k,
      D_{k+1}]], S_k being the Schur complement of block k (the window is a
      Schur complement of a leading principal submatrix);
    - the border follows from the block inverses (``_tril_inverse``), and
      the last diagonal block from its Schur complement.

    A block that fails to factor raises ``np.linalg.LinAlgError``: the
    shifted matrix is then not positive definite. Non-finite input raises
    FactorizationError.
    """

    def __init__(self, P, scale=1.0, shift=0.0):
        n, h = P.pattern.n, P.pattern.half_bandwidth
        b = max(BLOCK_ROWS, h)
        if n < 2 * b:
            raise ValueError(f"the structured factorization needs n >= {2 * b}, got n={n}")
        _check_finite(P.band)
        band = np.empty(n * (h + 1) + 1)
        band[:-1] = (scale * P.band).ravel()
        band[:-1:h + 1] += shift
        band[-1] = 0.0
        diag_idx, sub_idx, last_idx, self._restrict = _block_layout(n, h, b)
        D, C, B = band[diag_idx], band[sub_idx], band[last_idx]
        N, top = n // b, (n // b - 1) * b
        self.n, self.b, self._blocks, self._top = n, b, N, top
        window = np.empty((2 * b, 2 * b))
        S = D[0]
        for k in range(N - 2):
            window[:b, :b] = S
            window[b:, :b] = C[k]
            window[:b, b:] = C[k].T
            window[b:, b:] = D[k + 1]
            F = np.linalg.cholesky(window)
            D[k], C[k] = F[:b, :b], F[b:, :b]
            S = D[k + 1] - C[k] @ C[k].T
        D[N - 2] = np.linalg.cholesky(S)
        self._inv = _tril_inverse(D)
        border = B[:, :top]
        for k in range(N - 1):  # border L[last, k] = (A[last, k] - L[last, k-1] L[k, k-1]^T) L[k, k]^-T
            s = slice(k * b, (k + 1) * b)
            if k:
                border[:, s] -= border[:, s.start - b:s.start] @ C[k - 1].T
            border[:, s] = border[:, s] @ self._inv[k].T
        B[:, top:] = np.linalg.cholesky(B[:, top:] - border @ border.T)
        self.diag, self.sub, self.last = D, C, B

    @cached_property
    def _recurrences(self):
        """Block inverses and the couplings of the block recurrences in ``solve``."""
        inv = self._inv
        forward = inv[1:] @ self.sub  # L[k,k]^-1 L[k,k-1]
        backward = np.swapaxes(self.sub @ inv[:-1], 1, 2)  # L[k,k]^-T L[k+1,k]^T
        return inv, forward, backward, _tril_inverse(self.last[None, :, self._top:])[0]

    def pattern_values(self):
        """(n, nsp) factor entries at the pattern, aligned with ``pattern.columns``."""
        flat = np.concatenate([self.diag.ravel(), self.sub.ravel(), self.last.ravel(), [0.0]])
        return flat[self._restrict]

    def to_dense(self):
        n, b, N, top = self.n, self.b, self._blocks, self._top
        L = np.zeros((n, n))
        for k in range(N - 1):
            L[k * b:(k + 1) * b, k * b:(k + 1) * b] = self.diag[k]
            if k < N - 2:
                L[(k + 1) * b:(k + 2) * b, k * b:(k + 1) * b] = self.sub[k]
        L[top:] = self.last
        return L

    def solve(self, v):
        """Solve ``(L L^T) x = v`` for one right-hand side."""
        b, N, top = self.b, self._blocks, self._top
        inv, forward, backward, inv_last = self._recurrences
        border = self.last[:, :top]
        v = np.asarray(v, dtype=float)
        Y = (inv @ v[:top].reshape(N - 1, b, 1))[..., 0]  # forward: L y = v
        for k in range(1, N - 1):
            Y[k] -= forward[k - 1] @ Y[k - 1]
        x_last = inv_last.T @ (inv_last @ (v[top:] - border @ Y.ravel()))
        W = Y.ravel() - border.T @ x_last  # backward: L^T x = y
        X = (np.swapaxes(inv, 1, 2) @ W.reshape(N - 1, b, 1))[..., 0]
        for k in range(N - 3, -1, -1):
            X[k] -= backward[k] @ X[k + 1]
        return np.concatenate([X.ravel(), x_last])

    def selected_inverse(self):
        """Blocks of ``Z = (L L^T)^-1`` on the pattern of ``L + L^T``, as
        ``(diag, sub, last)`` arrays shaped like the factor's: the diagonal
        blocks, the blocks Z[k+1, k] below them and the last block row.

        Takahashi's recurrences, run from the last block backwards: ``L^T Z
        = L^-1`` is lower triangular with diagonal blocks L[k,k]^-1, so for
        a block row k < N-1 and j >= k
        ``Z[k, j] = L[k,k]^-T (delta_kj L[k,k]^-1 - L[k+1,k]^T Z[k+1, j]
        - L[N-1,k]^T Z[N-1, j])``. They need only the blocks they return:
        O(n b^2) work, no n x n array. Diagonal blocks are exact in their
        lower triangles; read Z[i, j], i >= j, from there.
        """
        b, N, top = self.b, self._blocks, self._top
        inv, _, _, inv_last = self._recurrences
        border = self.last[:, :top].T.reshape(N - 1, b, -1)  # L[N-1, k]^T
        last = np.empty_like(self.last)
        last[:, top:] = inv_last.T @ inv_last
        corner = border @ last[:, top:]  # L[N-1, k]^T Z[N-1, N-1]
        col = np.empty((N - 1, b, self.n - top))  # Z[k, N-1]
        col[N - 2] = -inv[N - 2].T @ corner[N - 2]
        for k in range(N - 3, -1, -1):
            col[k] = -inv[k].T @ (self.sub[k].T @ col[k + 1] + corner[k])
        last[:, :top] = col.reshape(top, -1).T
        # L[N-1, k]^T Z[N-1, k] and L[N-1, k]^T Z[N-1, k+1]
        row = np.swapaxes(col, 1, 2)
        same, next_ = border @ row, border[:-1] @ row[1:]
        diag = np.empty_like(self.diag)
        sub = np.empty_like(self.sub)
        diag[N - 2] = inv[N - 2].T @ (inv[N - 2] - same[N - 2])
        for k in range(N - 3, -1, -1):
            upper = -inv[k].T @ (self.sub[k].T @ diag[k + 1] + next_[k])  # Z[k, k+1]
            sub[k] = upper.T
            diag[k] = inv[k].T @ (inv[k] - self.sub[k].T @ sub[k] - same[k])
        return diag, sub, last


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

    Large rings (``uses_structured_path``) are factored by
    CyclicBandCholesky in O(n b^2); the rest through the dense n x n matrix.
    Both retry on ``scale * P + jitter * I`` with the schedule of
    ``cholesky_with_jitter``.

    Returns
    -------
    (L, jitter) : (SparseColumns, float)
        Factor columns (the sigma-point perturbation vectors) and the jitter
        that was finally applied (0.0 when none was needed).
    """
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    pattern = P.pattern
    if uses_structured_path(pattern.n, pattern.half_bandwidth):
        L, jitter = cholesky_with_jitter(P, lambda A, j: CyclicBandCholesky(A, scale, j))
        return SparseColumns(pattern, L.pattern_values()), jitter
    A = P.to_dense()
    A *= scale
    L, jitter = cholesky_with_jitter(A)
    return SparseColumns.from_dense(L, pattern), jitter


# ---------------------------------------------------------------------------
# Certified smallest eigenvalue on the structured path

EIGEN_GAP = 5e-13  # relative to max |P|; see min_eigenvalue
EIGEN_FACTORIZATIONS = 8  # past this many factorizations, fall back to eigvalsh
PLAIN_STEPS = 40  # Lanczos steps on P itself for the first shift
LANCZOS_STEPS = 12  # solves per shift-invert Lanczos run before the shift moves


def _krylov(apply, x0, steps):
    """Lanczos with full reorthogonalization on the symmetric operator
    ``apply``: yields (alpha, beta, basis) after each application; stops
    early when the Krylov space is invariant."""
    Q = np.zeros((steps, x0.size))
    alpha, beta = np.zeros(steps), np.zeros(steps)
    q = x0 / np.linalg.norm(x0)
    for j in range(steps):
        Q[j] = q
        w = apply(q)
        alpha[j] = q @ w
        basis = Q[:j + 1]
        for _ in range(2):
            w -= (basis @ w) @ basis
        beta[j] = np.linalg.norm(w)
        yield alpha[:j + 1], beta[:j + 1], basis
        if beta[j] <= 1e-14 * np.abs(alpha[:j + 1]).max():
            return
        q = w / beta[j]


def _ritz(alpha, beta, basis):
    """Largest Ritz value mu of a Lanczos run, its unit Ritz vector, its
    residual norm rho, and the next Ritz value (-inf after one step)."""
    T = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
    mu, S = np.linalg.eigh(T)
    x = S[:, -1] @ basis
    return mu[-1], x / np.linalg.norm(x), beta[-1] * abs(S[-1, -1]), \
        (mu[-2] if mu.size > 1 else -np.inf)


def _certified_min_eigenvalue(P):
    """(lambda_min, factorizations) on the structured path; lambda_min is
    None when EIGEN_FACTORIZATIONS were spent without a certificate."""
    band = P.band
    _check_finite(band)
    scale = float(np.abs(band).max())
    if scale == 0.0:
        return 0.0, 0
    eps = EIGEN_GAP * scale
    rows, cols = P.column_values(), P.pattern.offset_columns  # row i of P at cols[i]

    def matvec(v):
        return np.einsum("ij,ij->i", rows, v[cols])

    count = 0

    def factor(shift):
        nonlocal count
        count += 1
        try:
            return CyclicBandCholesky(P, shift=-shift)
        except np.linalg.LinAlgError:
            return None

    # First shift: theta - rho from Lanczos on -P, which needs no
    # factorization. If P - sigma I does not factor there, Gershgorin's bound
    # lies below every eigenvalue.
    for state in _krylov(lambda v: -matvec(v), np.random.default_rng(0).standard_normal(P.n),
                         PLAIN_STEPS):
        pass
    mu, x, rho, _ = _ritz(*state)
    sigma = -mu - rho
    hi = np.inf  # P - shift I is known not to factor for shift >= hi
    F = factor(sigma)
    if F is None:
        hi = sigma
        radius = np.abs(rows).sum(axis=1) - np.abs(band[:, 0])
        sigma = float(np.min(band[:, 0] - radius)) - eps
        F = factor(sigma)
    while F is not None and count < EIGEN_FACTORIZATIONS:
        # Shift-invert Lanczos from the best vector so far. theta, the
        # Rayleigh quotient of its Ritz vector, is >= lambda_min; it has
        # converged once its residual r puts it within eps/10 of an
        # eigenvalue (Kato-Temple, the next Ritz value giving the gap).
        converged = False
        for alpha, beta, basis in _krylov(F.solve, x, LANCZOS_STEPS):
            mu, x, rho, mu_next = _ritz(alpha, beta, basis)
            Px = matvec(x)
            theta = float(x @ Px)
            r = float(np.linalg.norm(Px - theta * x))
            gap = sigma + 1.0 / mu_next - theta if mu_next > 0 else 0.0
            converged = rho <= 1e-14 * mu or r <= 0.1 * eps or r * r <= 0.1 * eps * gap
            if converged:
                break
        if converged:
            if factor(theta - eps) is not None:
                return theta, count
            hi = min(hi, theta - eps)
        # Move the shift up: lambda_min >= sigma + 1/(mu + rho) when mu
        # approximates the largest eigenvalue of the inverse.
        below = sigma + 1.0 / (mu + rho)
        shift = below if sigma < below < hi else 0.5 * (sigma + min(hi, theta))
        if count < EIGEN_FACTORIZATIONS:
            G = factor(shift)
            if G is None:
                hi = shift
            else:
                F, sigma = G, shift
    return None, count


def min_eigenvalue(P, info=None):
    """Smallest eigenvalue of the symmetric matrix represented by ``P``.

    Off-pattern entries are zero, i.e. the eigenvalue is that of the full
    symmetric completion. Accepts a SparseSymMatrix or a dense symmetric
    array.

    Dense arrays and small rings use numpy's ``eigvalsh``. On the structured
    path (``uses_structured_path``) no n x n array is formed: Lanczos on
    -P proposes a first shift; a shift sigma at which ``P - sigma I``
    factors (CyclicBandCholesky) lies below lambda_min; Lanczos on the
    inverse of that factor refines a Rayleigh quotient theta >= lambda_min;
    and theta is returned only once
    ``P - (theta - eps) I`` factors too, eps = EIGEN_GAP * max|P|, so that
    lambda_min lies in [theta - eps, theta]. A certificate that fails moves
    sigma up towards lambda_min. Past EIGEN_FACTORIZATIONS factorizations
    the dense ``eigvalsh`` decides. Non-finite input raises
    FactorizationError on this path.

    If ``info`` is a dict, ``info["factorizations"]`` is set to the number
    of factorizations made (0 on the dense path).
    """
    lam, count = None, 0
    if isinstance(P, SparseSymMatrix) and uses_structured_path(P.n, P.pattern.half_bandwidth):
        lam, count = _certified_min_eigenvalue(P)
    if lam is None:
        A = P.to_dense() if isinstance(P, SparseSymMatrix) else np.asarray(P, dtype=float)
        lam = float(np.linalg.eigvalsh(A)[0])
    if info is not None:
        info["factorizations"] = count
    return lam


# ---------------------------------------------------------------------------
# Structured Kalman gain on a band observed at a regular stride


class GainLayout:
    """Cached index arrays of ``band_gain`` for one observation geometry.

    A is a cyclic band of half bandwidth k on n states, given by its band
    array (row i holds A[i, (i+e) % n], e = 0..k, as ``SparseSymMatrix.band``
    or a ``local_outer_sum`` array). It is observed at ``first + stride *
    alpha``, alpha < m = n / stride. ``C = A[:, observed]`` is kept as local
    rows: row i of C at the q observed indices ``windows[i]``, a cyclic run
    that covers every observed column within k of state i (entries past that
    read 0). ``width`` is the largest observation-space distance between the
    window entries of two states at most h apart, which is the reach of the
    band of ``C M^-1 C^T`` on the pattern ``SparsityPattern(n, h)``.
    """

    def __init__(self, n, k, h, first, stride):
        i = np.arange(n + h)  # state rows, extended past the wrap
        start = -((first + k - i) // stride)  # ceil((i - k - first) / stride)
        stop = (i + k - first) // stride  # last observed index within k
        self.m, self.q = n // stride, int((stop - start).max()) + 1
        self.width = int(max((start[d:d + n] - start[:n]).max() for d in range(h + 1))) \
            + self.q - 1
        self._geometry = (n, k, h, first, stride)
        self._start, self._stop = start[:n], stop[:n]

    # The index arrays are built on first use: only the structured path uses them.

    @cached_property
    def pattern(self):
        """The pattern of the band of ``C M^-1 C^T``: ``SparsityPattern(n, h)``."""
        n, _, h, _, _ = self._geometry
        return SparsityPattern(n, h)

    @cached_property
    def obs_pattern(self):
        """The pattern of M in observation space: half bandwidth ``width``."""
        return SparsityPattern(self.m, self.width)

    @cached_property
    def windows(self):
        """(n, q) observed indices of the local rows of C."""
        return _read_only((self._start[:, None] + np.arange(self.q)) % self.m)

    @cached_property
    def _rows(self):
        """Flat band index of every C[i, a], or n*(k+1) (the trailing zero)."""
        n, k, _, first, stride = self._geometry
        inside = self._start[:, None] + np.arange(self.q) <= self._stop[:, None]
        return _read_only(np.where(
            inside, _band_index(n, k, np.arange(n)[:, None], first + stride * self.windows),
            n * (k + 1)))

    @cached_property
    def _observed(self):
        n, k, _, first, stride = self._geometry
        alpha = np.arange(self.m)[:, None]
        return _read_only(_band_index(
            n, k, first + stride * alpha,
            first + stride * ((alpha + np.arange(self.width + 1)) % self.m)))  # (m, width+1)

    def local_rows(self, band):
        """(n, q) rows of C = A[:, observed] at ``windows``."""
        return np.append(band.ravel(), 0.0)[self._rows]

    def observed(self, band, r):
        """``A[observed][:, observed] + diag(r)`` on ``obs_pattern``."""
        M = np.append(band.ravel(), 0.0)[self._observed]
        M[:, 0] += r
        return SparseSymMatrix(self.obs_pattern, M)

    @cached_property
    def gather(self):
        """(n, h+1, q, q) flat indices of the selected inverse of M's factor
        (``CyclicBandCholesky.selected_inverse``, concatenated) at the pairs
        (windows[i, a], windows[i + d, c]) of band slot (i, d)."""
        m, h = self.m, self.pattern.half_bandwidth
        a = self.windows[:, None, :, None]
        c = self.windows[self.pattern.band_columns][:, :, None, :]
        index = _block_entry(m, max(BLOCK_ROWS, self.width), np.maximum(a, c), np.minimum(a, c))
        if (index < 0).any():
            raise ValueError("the gain's reach exceeds the selected inverse")
        return _read_only(index)


def gain_layout(n, k, h, indices):
    """The GainLayout of a band of half bandwidth k observed at ``indices``
    with the result on the (n, h) pattern, or None unless the structured
    gain applies: the indices are a regular stride that divides n, and
    ``uses_structured_path(m, width)`` holds."""
    indices = np.ascontiguousarray(indices, dtype=np.intp)
    return _gain_layout(n, k, h, indices.tobytes())


@lru_cache(maxsize=16)
def _gain_layout(n, k, h, indices_key):
    indices = np.frombuffer(indices_key, dtype=np.intp)
    m = indices.size
    if m < 2 or n % m:
        return None
    first, stride = int(indices[0]), n // m
    if first >= stride or not np.array_equal(indices, first + stride * np.arange(m)):
        return None
    layout = GainLayout(n, k, h, first, stride)
    return layout if uses_structured_path(m, layout.width) else None


def band_gain(M, rows, layout, rhs):
    """Band of ``C M^-1 C^T`` and ``C M^-1 v``, ``M^-1 v`` for each v in rhs.

    ``M`` is the observation-space band (``layout.observed``) and ``rows``
    the local rows of C (``layout.local_rows``). M is factored on its band
    (CyclicBandCholesky, which raises ``np.linalg.LinAlgError`` when M is
    not positive definite); the entries of M^-1 that the band needs all lie
    in its selected inverse, so the band is one gather and one contraction:
    O(n (h+1) q^2), no m x m or n x m array. Returns (SparseSymMatrix on
    ``layout.pattern``, list of C M^-1 v, list of M^-1 v).
    """
    F = CyclicBandCholesky(M)
    solved = [F.solve(v) for v in rhs]
    Z = np.concatenate([a.ravel() for a in F.selected_inverse()])[layout.gather]
    partner = rows[layout.pattern.band_columns]  # rows of C at (i + d) % n
    T = np.einsum("ia,idac,idc->id", rows, Z, partner)
    products = [np.einsum("ia,ia->i", rows, x[layout.windows]) for x in solved]
    return SparseSymMatrix(layout.pattern, T), products, solved
