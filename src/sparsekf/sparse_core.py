"""Fixed-pattern sparse symmetric linear algebra.

Everything in this module operates on a *fixed* sparsity pattern: a cyclic
band of admissible entries around the diagonal of an n x n symmetric matrix.
The pattern never grows: products evaluate admissible entries only, and the
factorization discards any fill-in from its output.

Contents:
  - SparsityPattern: cyclic-band admissibility rule and per-column index
    sets in offset order, with which every column-local (n, nsp) array aligns
  - SparseSymMatrix: a symmetric matrix stored as its band
  - SparseColumns: the pattern columns of a factor (the sigma-point
    perturbations), in offset order
  - restricted_outer_accumulate / restricted_product: pattern-limited products
  - local_outer_sum: the sum of outer products of column-local vectors, a
    band of twice the half bandwidth
  - cholesky_with_jitter: the jitter retry schedule shared by every factor;
    uses_structured_path decides from (n, h) when a band factor replaces
    the dense one
  - CyclicReduction: the one band factorization, odd-even block cyclic
    reduction in O(log n) batched levels, with solves and the selected
    inverse (the blocks of its inverse on the cyclic block-tridiagonal
    pattern); it serves the gamma repair's certificate, min_eigenvalue,
    band_gain and the natural-order factor
  - cyclic_band_cholesky: the pattern columns of the natural-order factor
    of a cyclic band, one window solve per column against the selected
    inverse of its leading block, plus a border of h to h + b - 1 rows
  - incomplete_cholesky: pattern-restricted factorization with jitter
    retries; its columns are the sigma points
  - min_eigenvalue: smallest eigenvalue of the represented symmetric matrix,
    certified by shifted factorizations on the structured path
  - GainLayout / gain_layout / band_gain: the Kalman gain's band
    C M^-1 C^T and C M^-1 v for a band observed at every stride-th state
    with noise r I, from a band factor of M = A[oi, oi] + r I and its
    selected inverse, contracted through strided views of that inverse's
    band: O(n Nsp^2) work and O(n Nsp) memory, no m x m or n x m array
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view


class FactorizationError(RuntimeError):
    """A matrix did not factor (incomplete Cholesky: even after jitter retries)."""


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

    @property
    def nsp(self):
        """Number of admissible entries per column."""
        return self.offsets.size

    # The index arrays are built on first use: many patterns never read them.

    @cached_property
    def offset_columns(self):
        """(n, nsp): row i = column i indices in offset order, i.e. i +
        offsets (mod n); consecutive entries are cyclic neighbours."""
        return _read_only((np.arange(self.n)[:, None] + self.offsets[None, :]) % self.n)

    @cached_property
    def band_columns(self):
        """(n, h+1): column (i + d) mod n of band slot (i, d), see SparseSymMatrix."""
        d = np.arange(self.half_bandwidth + 1)
        return _read_only((np.arange(self.n)[:, None] + d) % self.n)

    @cached_property
    def column_slots(self):
        """Flat band indices of every column in offset order.

        ``band.ravel()[column_slots][i, k]`` is the value that ``to_dense``
        puts at row ``offset_columns[i, k]`` of column i.
        """
        return _read_only(_band_index(self.n, self.half_bandwidth, np.arange(self.n)[:, None],
                                      self.offset_columns))

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
        n = pattern.n
        if dense.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got {dense.shape}")
        i, j = np.arange(n)[:, None], pattern.band_columns
        return cls(pattern, 0.5 * (dense[i, j] + dense[j, i]))

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
        cols = np.ascontiguousarray(cols, dtype=np.intp)
        return _take(self, _column_index(self.n, self.pattern.half_bandwidth, cols.tobytes()))

    def to_dense(self):
        """Dense n x n matrix. An antipodal pair {i, i+h} (n = 2h) has two
        slots; entry (r, c) holds slot (c, h), as ``dense_columns`` reads it."""
        n = self.n
        i, j = np.arange(n)[:, None], self.pattern.band_columns
        out = np.zeros((n, n))
        out[i, j] = self.band
        out[j, i] = self.band  # written last, so it decides an antipodal pair
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
    is in offset order, aligned with ``pattern.offset_columns[i]``.
    """

    __slots__ = ("pattern", "values")

    def __init__(self, pattern, values):
        self.pattern = pattern
        values = np.asarray(values, dtype=float)
        expected = pattern.offset_columns.shape
        if values.shape != expected:
            raise ValueError(f"values must have shape {expected}, got {values.shape}")
        self.values = values

    @classmethod
    def from_dense(cls, dense, pattern):
        """Extract pattern-column entries of a dense matrix (column i of each)."""
        dense = np.asarray(dense, dtype=float)
        return cls(pattern, dense[pattern.offset_columns, np.arange(pattern.n)[:, None]])

    def to_dense(self):
        n = self.pattern.n
        out = np.zeros((n, n))
        out[self.pattern.offset_columns, np.arange(n)[:, None]] = self.values
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
    being symmetric up to rounding. While n < GEMM_BAND_RATIO * (h+1) one
    GEMM forms the dense product (n^2 m multiply-adds at BLAS speed); from
    there on strided einsums make only the 2 n (h+1) m behind the band,
    never the dense product. The two cross near that ratio (h = 3 to 40,
    m = n/3 or n/2, one BLAS thread).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, h = pattern.n, pattern.half_bandwidth
    if A.ndim != 2 or B.ndim != 2 or A.shape[0] != n or B.shape[1] != n \
            or A.shape[1] != B.shape[0]:
        raise ValueError(f"incompatible shapes {A.shape} x {B.shape} for n={n}")
    if n < GEMM_BAND_RATIO * (h + 1):
        return SparseSymMatrix.from_dense(A @ B, pattern)
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
def _ring_order(n, h, p):
    """Flat indices into p vectors of (n, nsp) column-local values that put
    them in ring order: entry [a, k, t] is value a of vector k's column (t -
    offsets[a]) mod n, the one at ring position t mod n, for t = 0 .. n +
    nsp - 2."""
    pattern = SparsityPattern(n, h)
    t = np.arange(n + pattern.nsp - 1)[None, None, :]
    a = np.arange(pattern.nsp)[:, None, None]
    k = np.arange(p)[:, None]
    return _read_only(((t - pattern.offsets[:, None, None]) % n) * pattern.nsp + a
                      + n * pattern.nsp * k)


def local_outer_sum(V, weight, pattern):
    """Sum ``A = weight * sum_k v_k v_k^T`` of column-local vectors, by offset difference.

    ``V`` has shape (p, n, nsp): ``V[k, i]`` is a vector supported on pattern
    column i, in offset order (at rows ``offset_columns[i]``). A is returned
    as a SparseSymMatrix of half bandwidth min(2h, n // 2), so its slice
    ``band[:, :h+1]`` is the part on ``pattern``. The cost is O(p n nsp^2)
    time and O(p n nsp) memory.
    """
    V = np.asarray(V, dtype=float)
    n, h, nsp = pattern.n, pattern.half_bandwidth, pattern.nsp
    p, length = V.shape[0], n + nsp - 1
    # U[a, k, t]: entry a of vector k's column, the one at ring position t;
    # rows a >= nsp are zero, so that a + e never leaves the array.
    U = np.zeros((2 * nsp, p, length))
    U[:nsp] = V.ravel()[_ring_order(n, h, p)]
    item = U.itemsize
    shifted = as_strided(U, shape=(nsp, nsp, p, n),  # shifted[e, a, k, t] = U[a + e, k, t + e]
                         strides=((p * length + 1) * item, p * length * item, length * item, item),
                         writeable=False)
    # D[r, e] sums the products of entries at rows r and r+e (mod n) whose
    # offsets differ by e. For 4h < n no two differences alias, and D is
    # the band of A as it stands.
    D = np.einsum("akt,eakt->te", U[:nsp, :, :n], shifted)
    D *= weight
    wide, fold = _sum_layout(n, h)
    if fold is not None:
        take, bins = fold
        D = np.bincount(bins, weights=D.ravel()[take], minlength=n * (wide.half_bandwidth + 1))
    return SparseSymMatrix(wide, D.reshape(n, -1))


@lru_cache(maxsize=16)
def _sum_layout(n, h):
    """The pattern of ``local_outer_sum`` on (n, h), half bandwidth
    k = min(2h, n // 2), and for 4h >= n the entries of D and the band slots
    they add to (None otherwise). Entry (r, e) is the pair {r, r+e}: it adds
    to slot (r, e) if e <= k, and for e > 0 to slot (r+e, n-e) if n-e <= k
    (both for antipodes of the full even pattern)."""
    wide = SparsityPattern(n, min(2 * h, n // 2))
    if 4 * h < n:
        return wide, None
    k, nsp = wide.half_bandwidth, SparsityPattern(n, h).nsp
    r = np.repeat(np.arange(n), nsp)
    e = np.tile(np.arange(nsp), n)
    first = e <= k
    second = (e > 0) & (n - e <= k)
    take = np.concatenate([np.flatnonzero(first), np.flatnonzero(second)])
    bins = np.concatenate([r[first] * (k + 1) + e[first],
                           ((r + e) % n)[second] * (k + 1) + n - e[second]])
    return wide, (_read_only(take), _read_only(bins))


# ---------------------------------------------------------------------------
# Cholesky factorization: one jitter schedule, a dense and a structured kernel

JITTER_START = 1e-10  # first jitter of the retry schedule; it doubles on each retry
JITTER_RETRIES = 20

# The dense/structured crossover: a band is factored on its band when n is
# at least MIN_BLOCKS * max(BLOCK_ROWS, h); below that, one dense LAPACK call
# is as fast. The two constants set nothing else.
BLOCK_ROWS = 32
MIN_BLOCKS = 8

GEMM_BAND_RATIO = 32  # restricted_product's GEMM/band crossover, n / (h+1)


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
    """True when an (n, h) cyclic band is factored on its band
    (CyclicReduction, and cyclic_band_cholesky built on it) rather than
    through the dense n x n matrix."""
    return n >= MIN_BLOCKS * max(BLOCK_ROWS, h)


def _band_index(n, h, i, j):
    """Flat index of entry (i, j) in a band array, or n*(h+1) (a trailing
    zero appended to the flattened band) outside the pattern."""
    d, e = (j - i) % n, (i - j) % n
    return np.where(d <= h, i * (h + 1) + d, np.where(e <= h, j * (h + 1) + e, n * (h + 1)))


def _take(A, index):
    """Entries of the SparseSymMatrix A at ``_band_index`` flat indices."""
    return np.append(A.band.ravel(), 0.0)[index]


@lru_cache(maxsize=16)
def _column_index(n, h, cols_key):
    """(n, cols) flat band indices of the dense columns ``cols``. Column j
    reads slot (j, d) at row j + d, as ``to_dense`` writes an antipodal pair."""
    cols = np.frombuffer(cols_key, dtype=np.intp)
    return _read_only(_band_index(n, h, cols[None, :], np.arange(n)[:, None]))


# ---------------------------------------------------------------------------
# Block cyclic reduction: a factor in odd-even order, the one band
# factorization; the natural-order factor is read from its selected inverse

# Blocks of the reduction have at least REDUCTION_ROWS rows (and at least h);
# once a level has at most BASE_ROWS rows (and always at two blocks) the rest
# is one dense factorization. REDUCTION_ROWS was chosen by timing the
# factorization, the solve and the selected inverse at n = 640, 2560 and
# 10240. BASE_ROWS was chosen by timing the reduction as its callers run it:
# a factorization, the inverse of its base (cubic in the base's rows), then
# one selected inverse (the gain, the sigma points) or about 13 solves (a
# Lanczos run of the repair), at (n, h) = (640, 3), (2560, 3), (10240, 3) and
# (960, 20).
REDUCTION_ROWS = 4
BASE_ROWS = 64


def _block_size(h):
    """Rows of a reduction block on a band of half bandwidth h, before padding
    (``_block_rows``): at least h, so that the band is block tridiagonal."""
    return max(h, REDUCTION_ROWS)


@lru_cache(maxsize=16)
def _block_rows(n, b):
    """(N, p) natural rows of the N = n // b blocks of a reduction with
    blocks of b rows, -1 marking padding: the first n % N blocks hold
    ceil(n / N) rows and the rest floor(n / N), all padded to p = ceil(n /
    N). Also the padded slot of every natural row, (n,)."""
    N = n // b
    if N < 3:
        raise ValueError(f"cyclic reduction needs n >= {3 * b}, got n={n}")
    p, extra = -(-n // N), n % N
    sizes = np.full(N, n // N)
    sizes[:extra] += 1
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    slot = np.arange(p)
    rows = np.where(slot < sizes[:, None], starts[:, None] + slot, -1)
    position = np.flatnonzero(rows.ravel() >= 0)
    return _read_only(rows), _read_only(position)


@lru_cache(maxsize=16)
def _reduction_layout(n, h):
    """What the geometry fixes of a CyclicReduction on (n, h), with blocks of
    ``_block_size(h)`` rows (``_block_rows``):

    - ``diag`` (N, p, p) and ``sub`` (N, p, p): gather indices of the diagonal
      blocks and the couplings A[k+1, k] (cyclic, k = N-1 couples block 0 to
      block N-1) in a band with a trailing zero; padded entries read the zero;
    - ``pad``: the padded diagonal entries as an index (block, row, row), or
      None without padding;
    - ``right``: per level, the even neighbour j + 1 of each odd block j among
      the even blocks, for the levels run before the base (at most BASE_ROWS
      rows, or two blocks).
    """
    rows, _ = _block_rows(n, _block_size(h))
    below = np.roll(rows, -1, axis=0)  # rows of block k + 1

    def gather(r, c):
        r, c = r[:, :, None], c[:, None, :]
        return np.where((r >= 0) & (c >= 0), _band_index(n, h, r, c), n * (h + 1))

    block, row = np.nonzero(rows < 0)
    pad = tuple(_read_only(a) for a in (block, row, row)) if block.size else None
    (N, b), right = rows.shape, []
    while N > max(2, BASE_ROWS // b):
        right.append(_read_only(np.arange(1, N // 2 + 1) % ((N + 1) // 2)))
        N = (N + 1) // 2
    return _read_only(gather(rows, rows)), _read_only(gather(below, rows)), pad, tuple(right)


def _inverse_index(m, b, a, c):
    """Flat indices of the entries Z[a, c] (indices mod m) in the selected
    inverse of a reduction with blocks of b rows on m rows
    (``CyclicReduction.selected_inverse``, diag and sub concatenated); a and
    c lie in one block or in two cyclically adjacent ones."""
    rows, position = _block_rows(m, b)
    N, p = rows.shape
    (ka, ra), (kc, rc) = divmod(position[a % m], p), divmod(position[c % m], p)
    return np.where(ka == kc, (ka * p + ra) * p + rc,  # Z[a, c] in diag[ka]
        np.where(kc == (ka + 1) % N, ((N + ka) * p + rc) * p + ra,  # Z[c, a] in sub[ka]
                 ((N + kc) * p + ra) * p + rc))  # Z[a, c] in sub[kc]: ka = kc + 1


def _transpose(X):
    """Contiguous transposes of a stack of matrices: numpy's matmul is several
    times slower on a transposed view."""
    return np.ascontiguousarray(np.swapaxes(X, 1, 2))


class CyclicReduction:
    """Cholesky factor of ``scale * P + shift * I`` for P on a cyclic band,
    in the order of odd-even block cyclic reduction (Buzbee, Golub & Nielson
    1970), built without an n x n array.

    With blocks of b = ``_block_size(h)`` rows (``_block_rows``: where b
    does not divide n, blocks of floor(n/N) or ceil(n/N) rows padded to one
    size with decoupled unit-diagonal rows) the band is cyclic
    block-tridiagonal. A level factors its odd blocks in one batched
    ``np.linalg.cholesky`` and takes the Schur complement on the even
    blocks, again cyclic block-tridiagonal with half as many blocks; after
    about log2(N) levels one dense factorization of at most BASE_ROWS rows
    is left. Level l works on the blocks 0, s, 2s, ... (s = 2^l) in place,
    as strided views. The work is O(n b^2) in batched calls, the depth
    O(log N). What (n, h) fixes, the gather indices, the padding and every
    level's neighbour index, is cached (``_reduction_layout``).

    A block that fails to factor raises ``np.linalg.LinAlgError``: the
    shifted matrix is then not positive definite. Non-finite input raises
    FactorizationError.
    """

    def __init__(self, P, scale=1.0, shift=0.0):
        n, h = P.pattern.n, P.pattern.half_bandwidth
        self.rows, self._position = _block_rows(n, _block_size(h))
        b = self.rows.shape[1]  # the padded block size
        _check_finite(P.band)
        band = np.empty(n * (h + 1) + 1)
        np.multiply(P.band, scale, out=band[:-1].reshape(n, h + 1))
        band[:-1:h + 1] += shift
        band[-1] = 0.0
        diag_idx, sub_idx, pad, rights = _reduction_layout(n, h)
        D, C = band[diag_idx], band[sub_idx]  # C[k] = A[k+1, k]
        if pad is not None:
            D[pad] = 1.0
        self._levels = []  # per level: W = L^-1 of the odd blocks, F = W [A[j, j-1], A[j, j+1]]
        for right in rights:  # right[j]: the even neighbour j + 1 of odd block j
            J = right.size
            W = np.linalg.inv(np.linalg.cholesky(D[1::2]))
            F = W @ np.concatenate([C[0::2][:J], _transpose(C[1::2])], axis=2)
            K = _transpose(F) @ F  # [A[j, j-1], A[j, j+1]]^T D_j^-1 [...]
            even = D[0::2]
            even[:J] -= K[:, :b, :b]
            even[right] -= K[:, b:, b:]
            C[0::2][:J] = -K[:, b:, :b]  # A[j+1, j-1] after the elimination of block j
            self._levels.append((right, W, F))
            D, C = even, C[0::2]
        # The base: couplings add up, so that two blocks (or one) come out right.
        N = D.shape[0]
        k = np.arange(N)
        A = np.zeros((N, b, N, b))
        A[k, :, k, :] = D
        A[(k + 1) % N, :, k, :] += C
        A[k, :, (k + 1) % N, :] += np.swapaxes(C, 1, 2)
        self._base = np.linalg.cholesky(A.reshape(N * b, N * b))

    @cached_property
    def _inverses(self):
        """Per level G = [D_j^-1, -H] and H^T, H = D_j^-1 [A[j, j-1], A[j,
        j+1]], for the odd blocks; and the inverse of the base."""
        levels = []
        for right, W, F in self._levels:
            Wt = _transpose(W)
            H = Wt @ F
            levels.append((right, np.concatenate([Wt @ W, -H], axis=2), _transpose(H)))
        base = np.linalg.inv(self._base)
        return levels, base.T @ base

    def solve(self, v):
        """Solve ``(L L^T) x = v`` for a vector v or the columns of a matrix v."""
        v = np.asarray(v, dtype=float)
        N, b = self.rows.shape
        levels, base = self._inverses
        X = np.zeros((N * b, v[0].size))
        X[self._position] = v.reshape(v.shape[0], -1)
        X = X.reshape(N, b, -1)
        for level, (right, _, Ht) in enumerate(levels):  # eliminate the odd blocks
            blocks = X[::1 << level]
            T = Ht @ blocks[1::2]
            even = blocks[0::2]
            even[:T.shape[0]] -= T[:, :b]
            even[right] -= T[:, b:]
        blocks = X[::1 << len(levels)]
        blocks[...] = (base @ blocks.reshape(-1, X.shape[2])).reshape(blocks.shape)
        for level, (right, G, _) in reversed(list(enumerate(levels))):  # back-substitute
            blocks = X[::1 << level]
            odd, even = blocks[1::2], blocks[0::2]
            odd[...] = G @ np.concatenate([odd, even[:odd.shape[0]], even[right]], axis=1)
        return X.reshape(N * b, -1)[self._position].reshape(v.shape)

    def selected_inverse(self):
        """Blocks of ``Z = (L L^T)^-1`` on the cyclic block-tridiagonal
        pattern, in the natural block order of ``rows``: ``(diag, sub)``,
        the diagonal blocks Z[k, k] and the blocks Z[k+1, k] below them
        (cyclic: sub[N-1] = Z[0, N-1]), each (N, p, p).

        Run back over the levels (Takahashi, Fagan & Chin 1973): the even
        blocks of Z are the inverse of their Schur complement, and for an
        odd block j, [Z[j, j-1], Z[j, j+1]] = -H [[Z[j-1, j-1], Z[j-1, j+1]],
        [Z[j+1, j-1], Z[j+1, j+1]]] and Z[j, j] = D_j^-1 - [Z[j, j-1], Z[j,
        j+1]] H^T. O(n b^2) work, no n x n array.
        """
        N, b = self.rows.shape
        levels, base = self._inverses
        diag, sub = np.empty((N, b, b)), np.empty((N, b, b))
        step = 1 << len(levels)
        M = base.shape[0] // b
        Z = base.reshape(M, b, M, b)
        k = np.arange(M)
        diag[::step], sub[::step] = Z[k, :, k, :], Z[(k + 1) % M, :, k, :]
        for level, (right, G, Ht) in reversed(list(enumerate(levels))):
            d, s = diag[::1 << level], sub[::1 << level]
            J = Ht.shape[0]
            near, below = d[0::2], s[0::2]  # Z[j-1, j-1], Z[j+1, j-1]
            Q = np.concatenate([np.concatenate([near[:J], _transpose(below[:J])], axis=2),
                                np.concatenate([below[:J], near[right]], axis=2)], axis=1)
            side = G[:, :, b:] @ Q  # [Z[j, j-1], Z[j, j+1]]
            d[1::2] = G[:, :, :b] - side @ Ht
            below[:J] = side[:, :, :b]
            s[1::2] = np.swapaxes(side[:, :, b:], 1, 2)  # Z[j+1, j]
        return diag, sub


@lru_cache(maxsize=16)
def _factor_layout(n, h):
    """The split and the indices of ``cyclic_band_cholesky`` on (n, h).

    The leading m = n - border rows, border = h + (n - h) mod b and b =
    ``_block_size(h)``, are a whole number of reduction blocks and do
    not reach the wrap, so they form a plain band. The border rows meet them
    only in their first and last h columns, so the border's part of the
    factor lives in the columns ``cols``: those 2h and the border's own.
    Returns the pattern of the leading block, ``SparsityPattern(m, h)``, and

    - ``windows`` (m, h+1, h+1): entry [j, a, c] is Z[j + h - a, j + h - c]
      of the leading block's inverse Z, the window of column j reversed, in
      the selected inverse with a 0 and a 1 appended (rows past m read the
      identity, the entries that cross m read 0);
    - ``corner`` (2h, 2h): Z at the first and the last h leading rows;
    - ``coupling`` (border, 2h + border): A[m:, cols] in the band (``_take``);
    - ``gather`` (n, nsp): the pattern columns of the factor in offset order
      in the leading columns' bands (m, h+1) and the border rows (border,
      cols), concatenated with a zero;
    - ``wrap``: the flat slots (row, d) of the leading rows' band that cross
      m, the wrap of P, which the plain band of the leading block reads as 0.
    """
    b = _block_size(h)
    border = h + (n - h) % b
    m = n - border
    end = 2 * m * b  # the appended 0 (blocks of exactly b rows); the 1 follows it
    t, e = np.arange(m + h)[:, None], np.arange(h + 1)
    band = np.where(t + e < m, _inverse_index(m, b, t, t + e), end + ((t >= m) & (e == 0)))
    a = np.arange(h + 1)
    windows = band[np.arange(m)[:, None, None] + h - np.maximum(a[:, None], a),
                   np.abs(a[:, None] - a)]
    lead = np.concatenate([np.arange(h), np.arange(m - h, m)])
    cols = np.concatenate([lead, np.arange(m, n)])
    j = np.arange(n)[:, None]
    r = (j + SparsityPattern(n, h).offsets) % n  # factor rows, upper ones (r < j) read 0
    border_slot = m * (h + 1) + (r - m) * cols.size + np.where(j < h, j, j - m + 2 * h)
    gather = np.where(r < j, m * (h + 1) + border * cols.size,
                      np.where(r < m, j * (h + 1) + r - j, border_slot))
    wrap = np.flatnonzero(np.arange(m)[:, None] + e >= m)
    return SparsityPattern(m, h), tuple(_read_only(x) for x in (
        windows, _inverse_index(m, b, lead[:, None], lead),
        _band_index(n, h, np.arange(m, n)[:, None], cols), gather, wrap))


def _lower(band, start, h):
    """The h x h lower-triangular block of the leading factor at rows and
    columns start .. start + h - 1, from its column bands."""
    i, k = np.arange(h)[:, None], np.arange(h)
    return np.where(i >= k, band[start + k, np.maximum(i - k, 0)], 0.0)


def cyclic_band_cholesky(P, scale=1.0, shift=0.0):
    """Pattern columns of the lower Cholesky factor of ``scale * P + shift *
    I`` in natural order, for P on a cyclic band, built without an n x n
    array.

    The leading block A11 (``_factor_layout``) is a plain band, so its
    factor L11 has no fill and column j lives on the window s = j .. j + h.
    With Z = A11^-1, Z L11 = L11^-T is upper triangular, so Z[s, s] L11[s,
    j] = e_0 / L11[j, j]: each column is one small solve against the
    selected inverse of one CyclicReduction (Takahashi, Fagan & Chin 1973).
    The windows are factored reversed in one batched Cholesky, R R^T, which
    leaves L11[s, j] reversed as R^-T e_h, h substitution steps. The border
    rows follow from the corner of Z: L21 = A21 L11^-T is a triangular solve
    on the first h columns and (A21 Z) L11 on the last h, and L22 = chol(A22
    - A21 Z A12). O(n h^2) work in O(log n) batched levels.

    A matrix that is not positive definite raises ``np.linalg.LinAlgError``
    (from the reduction, a window or L22); non-finite input raises
    FactorizationError. The rounding error grows with the condition number
    of A11: up to 7.0e-9 max|A| at a smallest eigenvalue of 1e-8 in the
    tests, against 1e-15 max|A| for well-conditioned bands.
    """
    n, h = P.pattern.n, P.pattern.half_bandwidth
    _check_finite(P.band)
    leading, (windows, corner, coupling, gather, wrap) = _factor_layout(n, h)
    m = leading.n
    lead = P.band[:m].copy()
    np.put(lead, wrap, 0.0)
    diag, sub = CyclicReduction(SparseSymMatrix(leading, lead), scale, shift).selected_inverse()
    Z = np.concatenate([diag.ravel(), sub.ravel(), [0.0, 1.0]])
    R = np.linalg.cholesky(Z[windows])
    y = np.zeros((m, h + 1))  # R^T y = e_h
    y[:, h] = 1.0 / R[:, h, h]
    for k in range(h - 1, -1, -1):
        y[:, k] = -np.einsum("jl,jl->j", R[:, k + 1:, k], y[:, k + 1:]) / R[:, k, k]
    band = y[:, ::-1]  # band[j, d] = L11[j + d, j]
    A = scale * _take(P, coupling)
    A[:, 2 * h:] += shift * np.eye(n - m)
    A21, Zc = A[:, :2 * h], Z[corner]
    first = A21[:, :h].copy()  # A21[:, :h] L11[:h, :h]^-T
    top = _lower(band, 0, h)
    for k in range(h):
        first[:, k] = (first[:, k] - first[:, :k] @ top[k, :k]) / top[k, k]
    last = A21 @ Zc[:, h:] @ _lower(band, m - h, h)
    L22 = np.linalg.cholesky(A[:, 2 * h:] - A21 @ Zc @ A21.T)
    border = np.concatenate([first, last, L22], axis=1)  # rows m.., columns as in cols
    values = np.concatenate([band.ravel(), border.ravel(), [0.0]])
    return SparseColumns(P.pattern, values[gather])


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
    ``cyclic_band_cholesky``, one CyclicReduction per jitter tried, in
    O(n h^2); the rest through the dense n x n matrix. Both retry on ``scale
    * P + jitter * I`` with the schedule of ``cholesky_with_jitter``.

    Returns
    -------
    (L, jitter) : (SparseColumns, float)
        Factor columns in offset order (the sigma-point perturbation
        vectors, aligned with ``pattern.offset_columns``) and the jitter
        that was finally applied (0.0 when none was needed).
    """
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    pattern = P.pattern
    if uses_structured_path(pattern.n, pattern.half_bandwidth):
        return cholesky_with_jitter(P, lambda A, j: cyclic_band_cholesky(A, scale, j))
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
            return CyclicReduction(P, shift=-shift)
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


def min_eigenvalue(P):
    """(lambda_min, factorizations): the smallest eigenvalue of the symmetric
    matrix represented by ``P`` and the number of factorizations made for it
    (0 on the dense path).

    ``P`` is a SparseSymMatrix; off-pattern entries are zero, i.e. the
    eigenvalue is that of the full symmetric completion.

    Small rings use numpy's ``eigvalsh``. On the structured path
    (``uses_structured_path``) no n x n array is formed: Lanczos on -P
    proposes a first shift; a shift sigma at which ``P - sigma I``
    factors (CyclicReduction) lies below lambda_min; Lanczos on the
    inverse of that factor refines a Rayleigh quotient theta >= lambda_min;
    and theta is returned only once
    ``P - (theta - eps) I`` factors too, eps = EIGEN_GAP * max|P|, so that
    lambda_min lies in [theta - eps, theta]. A certificate that fails moves
    sigma up towards lambda_min. Past EIGEN_FACTORIZATIONS factorizations
    the dense ``eigvalsh`` decides. Non-finite input raises
    FactorizationError on both paths.
    """
    _check_finite(P.band)
    lam, count = None, 0
    if uses_structured_path(P.n, P.pattern.half_bandwidth):
        lam, count = _certified_min_eigenvalue(P)
    if lam is None:
        lam = float(np.linalg.eigvalsh(P.to_dense())[0])
    return lam, count


# ---------------------------------------------------------------------------
# Structured Kalman gain on a band observed at a regular stride

class GainLayout:
    """The observation geometry of ``band_gain`` and its cached indices.

    A is a SparseSymMatrix on the cyclic band of half bandwidth k on n
    states. It is observed at ``stride * alpha``, alpha < m = n / stride.
    ``C = A[:, observed]`` is kept as local rows: row i of C at the q
    observed indices from ceil((i - k) / stride) on (mod m), a cyclic run
    that covers every observed column within k of state i (entries past
    that read 0).
    ``width`` is the largest observation-space distance between the window
    entries of two states at most h apart, which is the reach of the band of
    ``C M^-1 C^T`` on the pattern ``SparsityPattern(n, h)``.

    The windows start at ceil((i - k) / stride), so after a roll by
    ``roll`` states they come in m groups of ``stride``: the states ``roll +
    g * stride + r`` (mod n), r < stride, share the window start g.
    """

    def __init__(self, n, k, h, stride):
        i = np.arange(n + h)  # state rows, extended past the wrap
        start = -((k - i) // stride)  # ceil((i - k) / stride)
        stop = (i + k) // stride  # last observed index within k
        self.m, self.q = n // stride, int((stop - start).max()) + 1
        self.width = int(max((start[d:d + n] - start[:n]).max() for d in range(h + 1))) \
            + self.q - 1
        self.roll = (k + 1 - stride) % n  # start[roll] = 0
        self._geometry = (n, k, h, stride)
        self._start = start[:n]

    # The patterns and the indices are built on first use: only the structured path uses them.

    @cached_property
    def pattern(self):
        """The pattern of the band of ``C M^-1 C^T``: ``SparsityPattern(n, h)``."""
        n, _, h, _ = self._geometry
        return SparsityPattern(n, h)

    @cached_property
    def obs_pattern(self):
        """The pattern of M in observation space: half bandwidth ``width``."""
        return SparsityPattern(self.m, self.width)

    @cached_property
    def inverse_rows(self):
        """(m + q - 1, width + q) flat indices into the selected inverse of M's
        factor (``CyclicReduction.selected_inverse``, diag and sub
        concatenated): entry [t, j] is Z[t, t + j - q + 1], indices mod m."""
        t = np.arange(self.m + self.q - 1)[:, None]
        return _read_only(_inverse_index(self.m, _block_size(self.width), t,
                                         t + np.arange(self.width + self.q) - self.q + 1))

    @cached_property
    def group_order(self):
        """(n + h,) the states roll, roll + 1, ... (mod n): group order,
        extended by h states past the wrap."""
        n, _, h, _ = self._geometry
        return _read_only((self.roll + np.arange(n + h)) % n)

    @cached_property
    def natural_order(self):
        """(n,) the group position of every state, the inverse of ``group_order``."""
        n = self._geometry[0]
        return _read_only((np.arange(n) - self.roll) % n)

    def local_rows(self, A):
        """(n, q) rows of C = A[:, observed] at their windows. Row i reads A's
        row at the offsets stride * (start + a) - i, which depend on i mod
        stride only: every stride-th of the row's 2k + 1 values, zero past k."""
        n, k, _, stride = self._geometry
        band = np.concatenate([A.band[n - k:], A.band])  # rows from -k
        row, item = band.strides
        full = np.zeros((n, 2 * k + 1 + stride))  # A[i, i + c - k] at column c
        full[:, :k + 1] = as_strided(band[0, k:], shape=(n, k + 1), strides=(row, row - item))
        full[:, k:2 * k + 1] = A.band
        rows = np.empty((n, self.q))
        for rho in range(stride):
            c = k + stride * self._start[rho] - rho  # the column of a = 0
            rows[rho::stride] = full[rho::stride, c:c + stride * self.q:stride]
        return rows

    def observed(self, A, r):
        """``A[observed][:, observed] + r I`` on ``obs_pattern``: every
        stride-th band slot of every stride-th row, zero past k."""
        stride = self._geometry[3]
        M = np.zeros((self.m, self.width + 1))
        band = A.band[::stride, ::stride]
        M[:, :band.shape[1]] = band
        M[:, 0] += r
        return SparseSymMatrix(self.obs_pattern, M)


@lru_cache(maxsize=16)
def gain_layout(n, k, h, stride):
    """The GainLayout of a band of half bandwidth k observed at every
    ``stride``-th state with the result on the (n, h) pattern, or None
    unless the structured gain applies: stride divides n, and
    ``uses_structured_path(m, width)`` holds."""
    if n % stride:
        return None
    layout = GainLayout(n, k, h, stride)
    return layout if uses_structured_path(layout.m, layout.width) else None


def band_gain(A, r, layout, rhs):
    """Band of ``C M^-1 C^T`` and ``C M^-1 v``, ``M^-1 v`` for each v in rhs,
    with C = A[:, observed] and M = A[observed][:, observed] + r I.

    ``A`` is the band that ``layout`` observes. M is built on its band
    (``layout.observed``) and C as local rows (``layout.local_rows``). M is
    factored on its band (CyclicReduction, which raises
    ``np.linalg.LinAlgError`` when M is not positive definite and
    FactorizationError when it has a non-finite entry); the entries of Z =
    M^-1 that the band needs all lie in its selected inverse, read once as
    the band ``Zb`` of ``layout.inverse_rows``. In the group order of
    ``layout.roll`` the states of group g share the block ``Z[g + a, g +
    e]``, a < q, e <= width, a strided view of Zb; one contraction gives ``y
    = C Z`` on those blocks, and band slot (i, d) reads y at static offsets.
    O(n q (width + h)) work and O(n width) memory, no m x m or n x m array.
    Returns (SparseSymMatrix on ``layout.pattern``, list of C M^-1 v, list
    of M^-1 v).
    """
    M, rows = layout.observed(A, r), layout.local_rows(A)
    F = CyclicReduction(M)
    X = F.solve(np.stack(rhs, axis=1))
    m, q, width = layout.m, layout.q, layout.width
    n, h = layout.pattern.n, layout.pattern.half_bandwidth
    stride = n // m
    Zb = np.concatenate([a.ravel() for a in F.selected_inverse()])[layout.inverse_rows]
    row, item = Zb.strides
    V = as_strided(Zb[0, q - 1:], shape=(m, q, width + 1), strides=(row, row - item, item),
                   writeable=False)  # V[g, a, e] = Z[g + a, g + e]
    R = rows[layout.group_order]
    groups = R[:n].reshape(m, stride, q)
    y = groups @ V  # (C Z)[roll + g stride + rho, g + e]
    T = np.empty((m, stride, h + 1))
    for rho in range(stride):
        for d in range(h + 1):
            s = (rho + d) // stride  # the window of state i + d starts s after that of i
            T[:, rho, d] = np.einsum("ga,ga->g", y[:, rho, s:s + q], R[rho + d:rho + d + n:stride])
    windows = np.swapaxes(sliding_window_view(np.concatenate([X, X[:q - 1]]), q, axis=0), 1, 2)
    natural = layout.natural_order
    products = (groups @ windows).reshape(n, -1)[natural]  # C M^-1 v
    return SparseSymMatrix(layout.pattern, T.reshape(n, h + 1)[natural]), \
        list(products.T), list(X.T)
