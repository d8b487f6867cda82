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
  - uses_structured_path: decides from (n, h) when a CyclicReduction
    replaces the dense matrix in min_eigenvalue, the repair's certificate
    and the gain
  - CyclicReduction: odd-even block cyclic reduction in O(log n) batched
    levels, with solves and the selected inverse (the blocks of its inverse
    on the cyclic block-tridiagonal pattern); it serves the progressive
    EKF's repair certificate, min_eigenvalue and band_gain
  - incomplete_cholesky: the pattern columns of the natural-order factor,
    a sequential block Cholesky that carries the h wrap rows from step to
    step, at every ring size, no retry; its columns are the sigma points,
    and the sparse UKF's gamma repair makes it once per cycle, as the
    certificate or after the repair
  - min_eigenvalue: smallest eigenvalue of the represented symmetric matrix,
    certified by shifted factorizations on the structured path, where a
    Ritz vector from an earlier call can warm-start it
  - GainLayout / gain_layout / band_gain: the Kalman gain's band
    C M^-1 C^T and C M^-1 v for a band observed at every stride-th state
    with noise r I, at any stride, from a band factor of M = A[oi, oi] + r I
    and its selected inverse, contracted through strided views of that
    inverse's band (a ragged stride mends its seam in one small dense
    block): O(n Nsp^2) work and O(n Nsp) memory, no m x m or n x m array
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view


class FactorizationError(RuntimeError):
    """A matrix did not factor: it has a non-finite entry or is not
    positive definite. No factorization retries with a shifted matrix."""


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
        """Dense columns ``to_dense()[:, cols]`` without forming the n x n
        matrix: column j's pattern entries, scattered to their rows."""
        cols = np.asarray(cols, dtype=np.intp)
        out = np.zeros((self.n, cols.size))
        out[self.pattern.offset_columns[cols], np.arange(cols.size)[:, None]] = \
            self.band.ravel()[self.pattern.column_slots[cols]]
        return out

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

    def __sub__(self, other):
        if self.pattern != other.pattern:
            raise ValueError("patterns differ")
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
    being symmetric up to rounding. One GEMM forms the dense product: its
    only caller is the dense gain of a ring below ``uses_structured_path``.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = pattern.n
    if A.ndim != 2 or B.ndim != 2 or A.shape[0] != n or B.shape[1] != n \
            or A.shape[1] != B.shape[0]:
        raise ValueError(f"incompatible shapes {A.shape} x {B.shape} for n={n}")
    return SparseSymMatrix.from_dense(A @ B, pattern)


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
# Dense or structured: the size rule of the CyclicReduction users

# The dense/structured crossover: min_eigenvalue, the progressive EKF's
# repair certificate and the gain use CyclicReduction when n is at least
# MIN_BLOCKS * max(BLOCK_ROWS, h); below that, dense LAPACK calls are as
# fast. The two constants set nothing else.
BLOCK_ROWS = 32
MIN_BLOCKS = 8


def _check_finite(values):
    if not np.isfinite(values).all():
        raise FactorizationError("cannot factor a matrix with non-finite entries")


def _dense_cholesky(A):
    """Lower Cholesky factor of the dense matrix ``A``. Non-finite input
    raises FactorizationError (numpy's Cholesky returns NaNs for it); a
    matrix that is not positive definite, ``np.linalg.LinAlgError``."""
    A = np.asarray(A, dtype=float)
    _check_finite(A)
    return np.linalg.cholesky(A)


def uses_structured_path(n, h):
    """True when the CyclicReduction users, ``min_eigenvalue``, the gamma
    repair's certificate and ``gain_layout``, work on an (n, h) cyclic band
    rather than through the dense n x n matrix. ``incomplete_cholesky`` is
    one kernel at every size and does not ask."""
    return n >= MIN_BLOCKS * max(BLOCK_ROWS, h)


def _band_index(n, h, i, j):
    """Flat index of entry (i, j) in a band array, or n*(h+1) (a trailing
    zero appended to the flattened band) outside the pattern."""
    d, e = (j - i) % n, (i - j) % n
    return np.where(d <= h, i * (h + 1) + d, np.where(e <= h, j * (h + 1) + e, n * (h + 1)))


# ---------------------------------------------------------------------------
# Block cyclic reduction: a factor in odd-even order, its solves and its
# selected inverse

# Blocks of the reduction have at least REDUCTION_ROWS rows (and at least h);
# once a level has at most BASE_ROWS rows (and always at two blocks) the rest
# is one dense factorization. REDUCTION_ROWS was chosen by timing the
# factorization, the solve and the selected inverse at n = 640, 2560 and
# 10240. BASE_ROWS was chosen by timing the reduction as its callers run it:
# a factorization, the inverse of its base (cubic in the base's rows), then
# one selected inverse (the gain; then also the sigma points) or about 13
# solves (a Lanczos run of the repair), at (n, h) = (640, 3), (2560, 3),
# (10240, 3) and (960, 20).
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
    N). Below three blocks (n < 3b) it is one block of all n rows. Also the
    padded slot of every natural row, (n,)."""
    N = n // b if n >= 3 * b else 1
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
      block N-1) in a band with a trailing zero; padded entries, and the
      coupling of a single block, read the zero;
    - ``pad``: the padded diagonal entries as an index (block, row, row), or
      None without padding;
    - ``right``: per level, the even neighbour j + 1 of each odd block j among
      the even blocks, for the levels run before the base (at most BASE_ROWS
      rows, or two blocks).
    """
    rows, _ = _block_rows(n, _block_size(h))
    below = np.roll(rows, -1, axis=0) if len(rows) > 1 else -np.ones_like(rows)  # block k + 1

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
    """Cholesky factor of ``P + shift * I`` for P on a cyclic band,
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
    O(log N); below three blocks, none: one block is the base. What (n, h)
    fixes, the gather indices, the padding and every level's neighbour
    index, is cached (``_reduction_layout``).

    A block that fails to factor raises ``np.linalg.LinAlgError``: the
    shifted matrix is then not positive definite. Non-finite input raises
    FactorizationError.
    """

    def __init__(self, P, shift=0.0):
        n, h = P.pattern.n, P.pattern.half_bandwidth
        self.rows, self._position = _block_rows(n, _block_size(h))
        b = self.rows.shape[1]  # the padded block size
        _check_finite(P.band)
        band = np.zeros(n * (h + 1) + 1)
        band[:-1] = P.band.ravel()
        band[:-1:h + 1] += shift
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


# ---------------------------------------------------------------------------
# The natural-order factor: a sequential block Cholesky that carries the wrap

# Columns factored per step of incomplete_cholesky, chosen by timing the
# factor at (n, h) = (640, 3), (2560, 3), (10240, 3) and (960, 20): 48 and 64
# tie at h = 3, 64 is faster at h = 20, and 32 or 96 rows are up to a
# quarter slower, 128 up to 2.5 times.
FACTOR_ROWS = 64


@lru_cache(maxsize=16)
def _sweep_layout(n, h):
    """What (n, h) fixes of ``incomplete_cholesky``'s sweep, B = FACTOR_ROWS
    and m = n - h.

    A step at row s factors rows s .. s + cols + h - 1 and the h wrap rows
    m .. n-1; the first cols columns of its factor are the factor's columns
    s .. s + cols - 1. The ``steps`` regular steps (s = 0, B, ...) take cols
    = B and end more than h rows before m, so their rows meet the wrap rows
    only in the carry. The last step takes every row from s on.

    A step's layout is (``template``, ``carried``, ``out``, cols).
    ``template`` holds the flat indices of its submatrix, lower triangle,
    in the band with a zero column, (n, h+2), from row s on: the same at
    every regular s. ``carried`` holds the flat positions of its first h
    and last h rows, and ``out`` the flat indices in its factor of the
    (cols, nsp) pattern entries of its columns (an entry above the
    diagonal, 0, for those above the diagonal or past row n). The wrap rows
    enter ``out`` only for columns below h, so the regular steps with s < h
    have layouts of their own. Returns ``steps``, those layouts (``head``),
    the other regular steps' (``body``), the last step's, and ``first``:
    the flat indices of the band's entries on the carried rows of the
    first step, its carry.
    """
    B, m = FACTOR_ROWS, n - h
    steps = max(0, (m - 2 * h - 1) // B)
    offsets = SparsityPattern(n, h).offsets

    def submatrix(size, cols):
        a, b = np.arange(size)[:, None], np.arange(size)
        d = a - b
        # entries across the wrap, read by a last step at s = 0 (elsewhere carried)
        wrap = np.where((d > h) & (n - d <= h), a * (h + 2) + n - d, b * (h + 2) + h + 1)
        return np.where((d >= 0) & (d <= h) & (a < cols + h), b * (h + 2) + d, wrap)

    def layout(s, size, cols, template):  # template: submatrix(size, cols)
        r = np.concatenate([np.arange(h), np.arange(size - h, size)])
        b = np.arange(cols)[:, None]
        t = b + offsets  # the rows of columns s + b, counted from row s
        out = np.where(t >= size, 1, np.where(t >= 0, t * size + b,
                                              np.where(s + t < 0, (size + s + t) * size + b, 1)))
        return tuple(_read_only(x) for x in (template, r[:, None] * size + r, out)) + (cols,)

    regular = submatrix(B + 2 * h, B)
    head = tuple(layout(s, B + 2 * h, B, regular) for s in range(0, min(steps * B, h), B))
    size = n - steps * B
    r = np.concatenate([np.arange(h), np.arange(m, n)])[:, None]
    c = r.T
    e, f = (r - c) % n, (c - r) % n
    first = np.where(e <= h, c * (h + 2) + e,
                     np.where(f <= h, r * (h + 2) + f, r * (h + 2) + h + 1))
    return steps, head, layout(h, B + 2 * h, B, regular), \
        layout(steps * B, size, size, submatrix(size, size)), _read_only(first)


def _factor_step(rows, layout, carry, values):
    """One step of ``incomplete_cholesky``'s sweep: writes the pattern
    entries of its columns to the first rows of ``values`` and returns its
    factor."""
    template, carried, out, cols = layout
    M = np.take(rows, template)
    M.ravel()[carried] = carry
    L = np.linalg.cholesky(M)  # reads the lower triangle
    values[:cols] = L.ravel()[out]
    return L


def incomplete_cholesky(P, scale=1.0):
    """Incomplete Cholesky factor of ``scale * P``, restricted to P's pattern.

    The lower Cholesky factor in natural index order, with its fill (for a
    cyclic band, the h wrap rows), restricted to the pattern. If the exact
    factor happens to be supported inside the pattern, as for banded
    matrices without the cyclic wrap or for a dense pattern, the result is
    the exact factor. Computing through the fill keeps the factorization
    feasible for every positive definite input, which barely-positive
    covariances (fresh out of the gamma repair) do not permit when fill
    contributions are zeroed inside the recurrence.

    A sequential block Cholesky (Golub & Van Loan, Matrix Computations,
    4.3) makes it on every ring (``_sweep_layout``). The factor of a cyclic
    band fills only its last h rows, the wrap. Each step is one
    ``np.linalg.cholesky`` of the rows of B = FACTOR_ROWS columns, the next
    h rows and the h wrap rows, whose entries come from the band; on its
    first h rows and the wrap rows the carry, the Schur complement ``T
    T^T`` of the trailing factor T of the step before, is written over
    them. The step's first B columns are the factor's, wrap rows included.
    No inverse and no n x n array is formed: O(n (B + 2h)^3 / B) work in
    about n / B steps. A ring of at most B + 3h rows is one step, bit for
    bit numpy's dense Cholesky of ``scale * P.to_dense()``.

    Returns the factor columns in offset order (the sigma-point perturbation
    vectors, aligned with ``pattern.offset_columns``) as SparseColumns. A
    ``scale * P`` that is not positive definite raises FactorizationError at
    the first step that does not factor, and so does one with a non-finite
    entry: the factorization itself is the positive-definiteness test, and
    nothing is retried.
    """
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    _check_finite(P.band)
    pattern = P.pattern
    n, h = pattern.n, pattern.half_bandwidth
    steps, head, body, last, first = _sweep_layout(n, h)
    work = np.zeros((n, h + 2))  # the band and a zero column
    np.multiply(P.band, scale, out=work[:, :h + 1])
    values = np.empty((n, pattern.nsp))
    carry = work.ravel()[first]
    try:
        for k in range(steps):
            s = k * FACTOR_ROWS
            L = _factor_step(work[s:], head[k] if k < len(head) else body, carry, values[s:])
            T = L[FACTOR_ROWS:, FACTOR_ROWS:]
            carry = T @ T.T  # the Schur complement on the next step's carried rows
        s = steps * FACTOR_ROWS
        _factor_step(work[s:], last, carry, values[s:])
    except np.linalg.LinAlgError:
        raise FactorizationError(f"{scale:g} * P is not positive definite") from None
    return SparseColumns(pattern, values)


# ---------------------------------------------------------------------------
# Certified smallest eigenvalue on the structured path

EIGEN_GAP = 5e-13  # relative to max |P|; see min_eigenvalue
EIGEN_FACTORIZATIONS = 8  # past this many factorizations, return the bound that factored
PLAIN_STEPS = 40  # Lanczos steps on P itself for the first shift
LANCZOS_STEPS = 12  # solves per shift-invert Lanczos run before the shift moves
WARM_STEPS = 10  # Lanczos steps on P for the first shift from a warm start
WARM_MIX = 0.1  # weight of the fixed random start mixed into a warm start
WARM_SHIFTS = (0.3, 1.0, 3.0)  # first shifts -mu - f rho tried from a warm start, in order


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


def _certified_min_eigenvalue(P, start=None):
    """(lambda_min, factorizations, Ritz vector) on the structured path; see
    min_eigenvalue. Past EIGEN_FACTORIZATIONS without a certificate the
    first value is a lower bound and the vector None."""
    band = P.band
    scale = float(np.abs(band).max())
    fixed = np.random.default_rng(0).standard_normal(P.n)  # the cold start
    if scale == 0.0:
        return 0.0, 0, fixed / np.linalg.norm(fixed)  # every vector is an eigenvector of 0
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
    # factorization. A warm start (the previous repair's Ritz vector, with a
    # little of the fixed random start for reach) needs fewer steps, and
    # tries shifts closer to its Ritz value first. If P - sigma I does not
    # factor at any of them, Gershgorin's bound lies below every eigenvalue.
    if start is None:
        x0, steps, shifts = fixed, PLAIN_STEPS, (1.0,)
    else:
        x0 = start / np.linalg.norm(start) + WARM_MIX * fixed / np.linalg.norm(fixed)
        steps, shifts = WARM_STEPS, WARM_SHIFTS
    for state in _krylov(lambda v: -matvec(v), x0, steps):
        pass
    mu, x, rho, _ = _ritz(*state)
    hi = np.inf  # P - shift I is known not to factor for shift >= hi
    for f in shifts:
        sigma = -mu - f * rho
        F = factor(sigma)
        if F is not None:
            break
        hi = sigma
    if F is None:
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
                return theta, count, x
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
    # sigma is the highest shift at which P - sigma I factored (or, if even
    # Gershgorin's did not, that bound itself): lambda_min > sigma.
    return float(sigma), count, None


def min_eigenvalue(P, start=None):
    """(lambda_min, factorizations, vector): the smallest eigenvalue of the
    symmetric matrix represented by ``P``, the number of factorizations
    made for it (0 on the dense path), and its unit Ritz vector (None on the
    dense path).

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
    sigma up towards lambda_min. ``start``, the vector of an earlier call on
    a nearby matrix, shortens the first Lanczos run; the certificate is the
    same. Past EIGEN_FACTORIZATIONS factorizations the highest sigma that
    factored is returned, a certified lower bound, with the vector None.
    Non-finite input raises FactorizationError on both paths.
    """
    _check_finite(P.band)
    if uses_structured_path(P.n, P.pattern.half_bandwidth):
        return _certified_min_eigenvalue(P, start)
    return float(np.linalg.eigvalsh(P.to_dense())[0]), 0, None


# ---------------------------------------------------------------------------
# Structured Kalman gain on a band observed at a regular stride

class GainLayout:
    """The observation geometry of ``band_gain`` and its cached indices.

    A is a SparseSymMatrix on the cyclic band of half bandwidth k on n
    states. It is observed at ``stride * alpha``, alpha < m = ceil(n /
    stride), regularly on the ring of N = m * stride states whose states n
    .. N-1 are an unobserved gap (the ``seam``) where stride does not divide n.
    ``C = A[:, observed]`` is kept as local rows: row i of C at the q
    observed indices from ceil((i - k) / stride) on (mod m), a cyclic run
    that covers every observed column within k of state i (entries past
    that read 0).
    ``width`` is the largest observation-space distance between the window
    entries of two states at most h apart (across the gap too), the reach
    of the band of ``C M^-1 C^T``.

    The windows start at ceil((i - k) / stride), so after a roll by
    ``roll`` states they come in m groups of ``stride``: the states ``roll +
    g * stride + r`` (mod N), r < stride, share the window start g.
    """

    def __init__(self, n, k, h, stride):
        self.m = -(-n // stride)
        self.N = self.m * stride
        self.q = min(2 * k // stride + 1, self.m)
        self.width = -(-(h + self.N - n) // stride) + self.q - 1
        self.roll = (k + 1 - stride) % self.N  # the first window from 0
        self._geometry = (n, k, h, stride)

    # The patterns and the indices are built on first use.

    @cached_property
    def pattern(self):
        """The pattern of the band of ``C M^-1 C^T``: ``SparsityPattern(n, h)``."""
        n, _, h, _ = self._geometry
        return SparsityPattern(n, h)

    @cached_property
    def obs_pattern(self):
        """The pattern of M in observation space: half bandwidth ``width``,
        at most m // 2."""
        return SparsityPattern(self.m, min(self.width, self.m // 2))

    @cached_property
    def inverse_rows(self):
        """(m + q - 1, width + q) flat indices into the selected inverse of M's
        factor (``CyclicReduction.selected_inverse``, diag and sub
        concatenated): entry [t, j] is Z[t, t + j - q + 1], indices mod m."""
        t = np.arange(self.m + self.q - 1)[:, None]
        b = _block_size(self.obs_pattern.half_bandwidth)
        return _read_only(_inverse_index(self.m, b, t, t + np.arange(self.width + self.q)
                                         - self.q + 1))

    @cached_property
    def group_order(self):
        """(N + h,) the states roll, roll + 1, ... (mod N): group order,
        extended by h states past the wrap."""
        h = self._geometry[2]
        return _read_only((self.roll + np.arange(self.N + h)) % self.N)

    @cached_property
    def natural_order(self):
        """(n,) the group position of every state, the inverse of ``group_order``."""
        return _read_only((np.arange(self._geometry[0]) - self.roll) % self.N)

    @cached_property
    def _row_index(self):
        """(stride, q) flat indices of the window entries A[r, r + o], o =
        stride * (start + a) - r, of the states r < stride, in the band from
        row -k with a zero column (``local_rows``)."""
        _, k, _, stride = self._geometry
        r = np.arange(stride)[:, None]
        o = stride * (np.arange(self.q) - (k - r) // stride) - r
        i = k + r  # the row of state r
        return _read_only(np.where(o > k, i * (k + 2) + k + 1,
                                   np.where(o >= 0, i * (k + 2) + o, (i + o) * (k + 2) - o)))

    @cached_property
    def seam(self):
        """None where the stride divides n; else O((k + h)^2) indices (-1
        reads 0, ``_take``) that mend what the ring of N misreads across the
        gap: A's pairs of M's last w rows (all when m = 2w); the 2(k + h)
        states U around the wrap, the observations O within k of them, C[U,
        O] in A and Z[O, O] in the selected inverse (0 past w); the band
        slots of the states from k + h before the wrap to k after it, and
        their entries in the block C[U, O] Z[O, O] C[U, O]^T."""
        n, k, h, stride = self._geometry
        if self.N == n:
            return None
        m, w, reach = self.m, self.obs_pattern.half_bandwidth, k + h

        def pairs(i, j):
            index = _band_index(n, k, i, j)
            return np.where(index < n * (k + 1), index, -1)

        alpha = np.arange(0 if 2 * w == m else m - w, m)[:, None]
        states = np.arange(-reach, reach) % n
        first, last = -((reach + k - n) // stride), (reach + k - 1) // stride
        obs = np.unique(np.arange(first - m, last + 1) % m)  # within k of U
        a, c = obs[:, None], obs
        inverse = np.where(np.minimum((a - c) % m, (c - a) % m) <= w,
                           _inverse_index(m, _block_size(w), a, c), -1)
        x, d = np.arange(reach + k)[:, None], np.arange(h + 1)
        return tuple(_read_only(a) for a in (
            pairs(stride * alpha, stride * ((alpha + np.arange(w + 1)) % m)), states, obs,
            pairs(states[:, None], stride * obs), inverse,
            (((x - reach) % n) * (h + 1) + d).ravel(), (x * (2 * reach + 1) + d).ravel()))

    def local_rows(self, A):
        """(N, q) rows of C = A[:, observed] at their windows (wrong within k
        of a gap). Row i reads A's row at the offsets stride * (start + a) -
        i, zero past k, which depend on i mod stride only: state r + s *
        stride reads the entries of state r (``_row_index``) s * stride rows
        further on, one gather."""
        n, k, _, stride = self._geometry
        N = self.N
        band = np.zeros((N + k, k + 2))  # rows from -k, and a zero column
        band[k:k + n, :k + 1] = A.band
        band[:k] = band[N:]
        item = band.itemsize
        runs = as_strided(band, shape=(self.m, (k + stride) * (k + 2)),
                          strides=(stride * (k + 2) * item, item), writeable=False)
        return runs[:, self._row_index].reshape(N, self.q)

    def observed(self, A, r):
        """``A[observed][:, observed] + r I`` on ``obs_pattern``: every
        stride-th band slot of every stride-th row, zero past k, and the
        ``seam``'s rows."""
        stride = self._geometry[3]
        M = np.zeros((self.m, self.obs_pattern.half_bandwidth + 1))
        band = A.band[::stride, ::stride]
        M[:, :band.shape[1]] = band
        if self.seam is not None:
            pairs = self.seam[0]
            M[self.m - len(pairs):] = _take(A.band, pairs)
        M[:, 0] += r
        return SparseSymMatrix(self.obs_pattern, M)


def _take(a, index):
    """``a.flat[index]``, 0 where the index is -1."""
    return np.where(index >= 0, a.flat[index], 0.0)


@lru_cache(maxsize=16)
def gain_layout(n, k, h, stride):
    """The GainLayout of a band of half bandwidth k observed at every
    ``stride``-th state with the result on the (n, h) pattern, or None where
    ``uses_structured_path(n, h)`` does not hold and the dense gain runs."""
    return GainLayout(n, k, h, stride) if uses_structured_path(n, h) else None


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
    = C Z`` on those blocks, and band slot (i, d) reads y at one of two
    static offsets. The slots and rows near a gap come from the ``seam``'s
    dense block. O(N q (width + h)) work and O(N width) memory, N < 2n.
    Returns (SparseSymMatrix on ``layout.pattern``, list of C M^-1 v, list
    of M^-1 v).
    """
    M, rows = layout.observed(A, r), layout.local_rows(A)
    F = CyclicReduction(M)
    X = F.solve(np.stack(rhs, axis=1))
    m, q, width, N = layout.m, layout.q, layout.width, layout.N
    h = layout.pattern.half_bandwidth
    stride = N // m
    Z = np.concatenate([a.ravel() for a in F.selected_inverse()])
    Zb = Z[layout.inverse_rows]
    row, item = Zb.strides
    V = as_strided(Zb[0, q - 1:], shape=(m, q, width + 1), strides=(row, row - item, item),
                   writeable=False)  # V[g, a, e] = Z[g + a, g + e]
    R = rows[layout.group_order]
    groups = R[:N].reshape(m, stride, q)
    y = groups @ V  # (C Z)[roll + g stride + rho, g + e]
    T = np.empty((m, stride, h + 1))
    for d in range(h + 1):
        # the window of state i + d starts s after that of i for the first c
        # residues rho, and s + 1 after for the rest
        s, c = d // stride, stride - d % stride
        Rd = R[d:d + N].reshape(m, stride, q)
        T[:, :c, d] = np.einsum("gra,gra->gr", y[:, :c, s:s + q], Rd[:, :c])
        if c < stride:
            T[:, c:, d] = np.einsum("gra,gra->gr", y[:, c:, s + 1:s + 1 + q], Rd[:, c:])
    windows = np.swapaxes(sliding_window_view(np.concatenate([X, X[:q - 1]]), q, axis=0), 1, 2)
    natural = layout.natural_order
    products = (groups @ windows).reshape(N, -1)[natural]  # C M^-1 v
    band = T.reshape(N, h + 1)[natural]
    if layout.seam is not None:
        states, obs, rows_at, inverse, slots, block = layout.seam[1:]
        CU = _take(A.band, rows_at)
        band.flat[slots] = (CU @ _take(Z, inverse) @ CU.T).flat[block]
        products[states] = CU @ X[obs]
    return SparseSymMatrix(layout.pattern, band), list(products.T), list(X.T)
