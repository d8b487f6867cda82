"""Pattern, container and kernel tests for the sparse symmetric core."""

import tracemalloc

import numpy as np
import pytest

import sparsekf.filters as filters
import sparsekf.harness as harness
import sparsekf.sparse_core as sparse_core
from sparsekf.sparse_core import (
    CyclicReduction,
    FactorizationError,
    SparseColumns,
    SparseSymMatrix,
    SparsityPattern,
    band_gain,
    cholesky_with_jitter,
    cyclic_band_cholesky,
    gain_layout,
    incomplete_cholesky,
    local_outer_sum,
    min_eigenvalue,
    restricted_outer_accumulate,
    restricted_product,
    uses_structured_path,
)


def dense_mask(pattern):
    n = pattern.n
    idx = np.arange(n)
    diff = np.abs(idx[:, None] - idx[None, :])
    dist = np.minimum(diff, n - diff)
    return dist <= pattern.half_bandwidth


def random_spd(rng, n, scale=1.0):
    M = rng.normal(size=(n, n))
    return M @ M.T + scale * n * np.eye(n)


class TestSparsityPattern:
    def test_column_counts_and_symmetry(self):
        p = SparsityPattern(40, 3)
        assert p.nsp == 7
        for i in range(40):
            cols = p.offset_columns[i]
            assert np.unique(cols).size == 7
            assert i in cols
            for j in cols:
                assert i in p.offset_columns[j]

    def test_membership_rule_is_cyclic(self):
        p = SparsityPattern(10, 2)
        assert 9 in p.offset_columns[0] and 8 in p.offset_columns[0]
        assert 7 not in p.offset_columns[0]
        assert 1 in p.offset_columns[9]

    @pytest.mark.parametrize("n", [5, 6, 7, 12])
    def test_full_pattern_covers_everything(self, n):
        p = SparsityPattern(n, n // 2)
        assert p.nsp == n
        for i in range(n):
            assert np.array_equal(np.sort(p.offset_columns[i]), np.arange(n))

    def test_index_arrays_are_built_on_first_use_and_read_only(self):
        p = SparsityPattern(12, 2)
        assert not {"offset_columns", "band_columns", "column_slots"} & set(vars(p))
        for index in (p.offset_columns, p.band_columns, p.column_slots):
            assert not index.flags.writeable

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            SparsityPattern(10, -1)
        with pytest.raises(ValueError):
            SparsityPattern(10, 6)
        with pytest.raises(ValueError):
            SparsityPattern(0, 0)


class TestSparseSymMatrix:
    def test_reads_outside_pattern_are_exactly_zero(self):
        p = SparsityPattern(12, 2)
        rng = np.random.default_rng(0)
        M = SparseSymMatrix.from_dense(random_spd(rng, 12), p)
        mask = dense_mask(p)
        D = M.to_dense()
        for i in range(12):
            for j in range(12):
                if not mask[i, j]:
                    assert D[i, j] == 0.0

    def test_from_dense_roundtrip_on_pattern(self):
        p = SparsityPattern(11, 3)
        rng = np.random.default_rng(1)
        A = random_spd(rng, 11)
        M = SparseSymMatrix.from_dense(A, p)
        mask = dense_mask(p)
        assert np.allclose(M.to_dense(), np.where(mask, A, 0.0), atol=1e-14)

    def test_symmetry_by_storage(self):
        p = SparsityPattern(9, 2)
        rng = np.random.default_rng(2)
        M = SparseSymMatrix.from_dense(rng.normal(size=(9, 9)), p)  # asymmetric input
        D = M.to_dense()
        assert np.array_equal(D, D.T)

    def test_storage_budget(self):
        for n, h in [(40, 3), (40, 5), (6, 3), (7, 3)]:
            p = SparsityPattern(n, h)
            M = SparseSymMatrix.identity(p, 0.0)
            assert M.band.size <= n * (h + 1)

    def test_arithmetic(self):
        p = SparsityPattern(8, 1)
        A = SparseSymMatrix.identity(p, 2.0)
        B = SparseSymMatrix.identity(p, 0.5)
        assert np.allclose((A + B).to_dense(), 2.5 * np.eye(8))
        assert np.allclose((A - B).to_dense(), 1.5 * np.eye(8))
        assert np.allclose(A.add_scaled_identity(1.0).to_dense(), 3.0 * np.eye(8))

    def test_pattern_mismatch(self):
        A = SparseSymMatrix.identity(SparsityPattern(8, 1))
        B = SparseSymMatrix.identity(SparsityPattern(8, 2))
        with pytest.raises(ValueError):
            A + B

    def test_even_full_pattern_antipode_consistency(self):
        # n even with h = n/2: the antipodal diagonal is stored twice; both
        # aliases must agree through every constructor.
        p = SparsityPattern(6, 3)
        rng = np.random.default_rng(3)
        A = random_spd(rng, 6)
        M = SparseSymMatrix.from_dense(A, p)
        assert np.allclose(M.to_dense(), A, atol=1e-14)
        for i in range(6):  # band slots (i, 3) and (i + 3, 3) both hold entry (i, i + 3)
            assert M.band[i, 3] == M.band[(i + 3) % 6, 3]


class TestRestrictedOuterAccumulate:
    def test_diagonal_pattern_single_column(self):
        p = SparsityPattern(3, 0)
        M = restricted_outer_accumulate([[1.0, 2.0, 3.0]], [1.0], p)
        assert np.array_equal(M.to_dense(), np.diag([1.0, 4.0, 9.0]))

    def test_all_zero_columns(self):
        p = SparsityPattern(5, 1)
        M = restricted_outer_accumulate(np.zeros((4, 5)), np.ones(4), p)
        assert np.array_equal(M.to_dense(), np.zeros((5, 5)))

    @pytest.mark.parametrize("n,h", [(3, 1), (6, 2), (11, 3), (20, 5), (6, 3), (20, 10)])
    def test_matches_masked_dense_oracle(self, n, h):
        rng = np.random.default_rng(n * 100 + h)
        K = int(rng.integers(1, 2 * n + 2))
        C = rng.normal(size=(K, n))
        w = rng.normal(size=K)
        dense = np.einsum("k,ki,kj->ij", w, C, C)
        expected = np.where(dense_mask(SparsityPattern(n, h)), dense, 0.0)
        M = restricted_outer_accumulate(C, w, SparsityPattern(n, h))
        scale = np.abs(dense).max() + 1.0
        assert np.abs(M.to_dense() - expected).max() <= 1e-12 * scale

    def test_shape_validation(self):
        p = SparsityPattern(4, 1)
        with pytest.raises(ValueError):
            restricted_outer_accumulate(np.zeros((2, 5)), np.ones(2), p)
        with pytest.raises(ValueError):
            restricted_outer_accumulate(np.zeros((2, 4)), np.ones(3), p)


PATTERNS = [(1, 0), (3, 1), (6, 2), (6, 3), (7, 3), (11, 3), (20, 5), (20, 10), (40, 3)]


def scatter_columns(C, pattern):
    """Dense M with column i holding C[i] at rows offset_columns[i]."""
    M = np.zeros((pattern.n, pattern.n))
    M[pattern.offset_columns, np.arange(pattern.n)[:, None]] = C
    return M


class TestOffsetOrder:
    @pytest.mark.parametrize("n,h", PATTERNS)
    def test_offset_columns_are_the_sorted_columns_reordered(self, n, h):
        # sorted, row i of offset_columns is the admissible set of column i
        p = SparsityPattern(n, h)
        mask = dense_mask(p)
        assert np.array_equal(np.sort(p.offset_columns, axis=1),
                              [np.flatnonzero(mask[:, i]) for i in range(n)])
        assert np.array_equal(p.offset_columns[:, 0], (np.arange(n) + p.offsets[0]) % n)

    @pytest.mark.parametrize("n,h", PATTERNS + [(8, 4)])
    def test_slot_rules_match_the_per_diagonal_oracles(self, n, h):
        # the per-diagonal loops and the column_slots formula that the
        # band_columns gathers and _band_index replaced; the antipodal slots
        # (i, h) and (i + h, h) of an even full pattern hold different values
        p = SparsityPattern(n, h)
        rng = np.random.default_rng(10 * n + h)
        band = rng.normal(size=(n, h + 1))
        dense_in = rng.normal(size=(n, n))
        idx = np.arange(n)
        old_dense = np.zeros((n, n))
        old_band = np.empty((n, h + 1))
        for d in range(h + 1):
            j = (idx + d) % n
            old_dense[idx, j] = band[:, d]
            old_dense[j, idx] = band[:, d]
            old_band[:, d] = 0.5 * (dense_in[idx, j] + dense_in[j, idx])
        off = p.offsets[None, :]
        old_slots = np.where(off >= 0, idx[:, None] * (h + 1) + off,
                             ((idx[:, None] + off) % n) * (h + 1) - off)
        assert np.array_equal(SparseSymMatrix(p, band).to_dense(), old_dense)
        assert np.array_equal(SparseSymMatrix.from_dense(dense_in, p).band, old_band)
        assert np.array_equal(p.column_slots, old_slots)

    @pytest.mark.parametrize("n,h", PATTERNS)
    def test_columns_read_what_to_dense_writes(self, n, h):
        p = SparsityPattern(n, h)
        M = SparseSymMatrix(p, np.random.default_rng(n + h).normal(size=(n, h + 1)))
        D = M.to_dense()
        assert np.array_equal(M.column_values(), D[p.offset_columns, np.arange(n)[:, None]])
        for cols in (np.arange(0, n, 2), np.arange(n)[::-1]):
            assert np.array_equal(M.dense_columns(cols), D[:, cols])

    def test_columns_read_an_antipodal_slot_as_to_dense_writes(self):
        # n = 2h: slots (1, 3) and (4, 3) both hold the pair {1, 4}; column
        # j reads slot (j, 3) at row j + 3, as to_dense writes it
        p = SparsityPattern(6, 3)
        band = np.zeros((6, 4))
        band[1, 3], band[4, 3] = 1.0, 2.0
        M = SparseSymMatrix(p, band)
        assert np.array_equal(M.dense_columns([1, 4]), M.to_dense()[:, [1, 4]])
        assert M.dense_columns([1, 4])[[4, 1], [0, 1]].tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("n,h", PATTERNS)
    def test_from_columns_is_m_plus_m_transpose(self, n, h):
        p = SparsityPattern(n, h)
        C = np.random.default_rng(n * h + 1).normal(size=(n, p.nsp))
        M = scatter_columns(C, p)
        got = SparseSymMatrix.from_columns(C, p)
        assert np.array_equal(got.band, SparseSymMatrix.from_dense(M + M.T, p).band)


class TestLocalOuterSum:
    """Sum of outer products of column-local vectors, against its dense sum."""

    @staticmethod
    def dense_sum(V, w, p):
        A = np.zeros((p.n, p.n))
        for k in range(V.shape[0]):
            for i in range(p.n):
                v = np.zeros(p.n)
                v[p.offset_columns[i]] = V[k, i]
                A += w * np.outer(v, v)
        return A

    @pytest.mark.parametrize("n,h", PATTERNS)
    def test_band_matches_dense(self, n, h):
        rng = np.random.default_rng(31 * n + h)
        p = SparsityPattern(n, h)
        V = rng.normal(size=(2, n, p.nsp))
        A = self.dense_sum(V, 0.3, p)
        got = local_outer_sum(V, 0.3, p)
        wide = SparsityPattern(n, min(2 * h, n // 2))
        assert got.pattern == wide
        scale = np.abs(A).max() + 1.0
        assert np.abs(got.to_dense() - np.where(dense_mask(wide), A, 0.0)).max() <= 1e-13 * scale
        expected = SparseSymMatrix.from_dense(A, p).band
        assert np.abs(got.band[:, :h + 1] - expected).max() <= 1e-13 * scale

    @pytest.mark.parametrize("n,h", PATTERNS)
    def test_columns_match_dense(self, n, h):
        rng = np.random.default_rng(37 * n + h)
        p = SparsityPattern(n, h)
        V = rng.normal(size=(3, n, p.nsp))
        A = self.dense_sum(V, 1.7, p)
        got = local_outer_sum(V, 1.7, p)
        for cols in (np.arange(0, n, 2), np.arange(n), np.unique([n - 1, 0])):
            columns = got.dense_columns(cols)
            assert columns.shape == (n, cols.size)
            assert np.abs(columns - A[:, cols]).max() <= 1e-13 * (np.abs(A).max() + 1.0)

    def test_columns_reach_twice_the_half_bandwidth(self):
        # entries at cyclic distance h+1..2h are outside the pattern but in A
        p = SparsityPattern(20, 2)
        cols = local_outer_sum(np.ones((1, 20, p.nsp)), 1.0, p).dense_columns(np.arange(20))
        dist = np.minimum(np.arange(20), 20 - np.arange(20))
        assert np.array_equal(cols[0], np.where(dist <= 4, 5.0 - dist, 0.0))


class TestIncompleteCholesky:
    def test_identity_factors_to_identity(self):
        for n, h in [(5, 1), (8, 0), (12, 4), (6, 3)]:
            p = SparsityPattern(n, h)
            L, jitter = incomplete_cholesky(SparseSymMatrix.identity(p), 1.0)
            assert jitter == 0.0
            assert np.array_equal(L.to_dense(), np.eye(n))

    def test_two_by_two_exact(self):
        p = SparsityPattern(2, 1)
        P = SparseSymMatrix.from_dense(np.array([[4.0, 2.0], [2.0, 5.0]]), p)
        L, jitter = incomplete_cholesky(P, 1.0)
        assert jitter == 0.0
        assert np.array_equal(L.to_dense(), np.array([[2.0, 0.0], [1.0, 2.0]]))

    def test_scale_enters_factor(self):
        p = SparsityPattern(2, 1)
        P = SparseSymMatrix.identity(p)
        L, _ = incomplete_cholesky(P, 9.0)
        assert np.allclose(L.to_dense(), 3.0 * np.eye(2))

    def test_tridiagonal_matches_dense_cholesky(self):
        # Support strictly inside the non-cyclic band: the exact factor has no
        # fill outside the pattern, so the incomplete factor is exact.
        rng = np.random.default_rng(5)
        n = 12
        A = np.zeros((n, n))
        off = rng.uniform(0.1, 0.9, n - 1)
        A[np.arange(n - 1), np.arange(1, n)] = off
        A[np.arange(1, n), np.arange(n - 1)] = off
        A += np.diag(2.0 + rng.uniform(0, 1, n))
        p = SparsityPattern(n, 1)
        L, jitter = incomplete_cholesky(SparseSymMatrix.from_dense(A, p), 1.0)
        assert jitter == 0.0
        assert np.abs(L.to_dense() - np.linalg.cholesky(A)).max() <= 1e-10

    @pytest.mark.parametrize("n,h", [(8, 1), (13, 2), (20, 3)])
    def test_banded_noncyclic_matches_dense_cholesky(self, n, h):
        rng = np.random.default_rng(n + h)
        band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= h
        A = rng.normal(size=(n, n))
        A = np.where(band, 0.5 * (A + A.T), 0.0)
        A += np.diag(np.abs(A).sum(axis=1) + 1.0)  # diagonally dominant -> SPD
        p = SparsityPattern(n, h)
        L, jitter = incomplete_cholesky(SparseSymMatrix.from_dense(A, p), 1.0)
        assert jitter == 0.0
        assert np.abs(L.to_dense() - np.linalg.cholesky(A)).max() <= 1e-10

    def test_factor_reproduces_matrix_on_noncyclic_band(self):
        rng = np.random.default_rng(11)
        n, h = 15, 2
        band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= h
        A = rng.normal(size=(n, n))
        A = np.where(band, 0.5 * (A + A.T), 0.0)
        A += np.diag(np.abs(A).sum(axis=1) + 1.0)
        scale = 3.0
        p = SparsityPattern(n, h)
        L, _ = incomplete_cholesky(SparseSymMatrix.from_dense(A, p), scale)
        Ld = L.to_dense()
        R = Ld @ Ld.T
        assert np.abs((R - scale * A)[band]).max() <= 1e-12 * scale * np.abs(A).max() * n

    @pytest.mark.parametrize("n", [2, 5, 9, 20])
    def test_full_pattern_matches_dense_cholesky(self, n):
        rng = np.random.default_rng(n)
        A = random_spd(rng, n)
        p = SparsityPattern(n, n // 2)
        L, jitter = incomplete_cholesky(SparseSymMatrix.from_dense(A, p), 1.0)
        assert jitter == 0.0
        rel = np.abs(L.to_dense() - np.linalg.cholesky(A)).max() / np.abs(A).max()
        assert rel <= 1e-10

    def test_jitter_recovers_singular_matrix(self):
        p = SparsityPattern(2, 1)
        P = SparseSymMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 1.0]]), p)
        L, jitter = incomplete_cholesky(P, 1.0)
        assert jitter > 0.0
        assert np.isfinite(L.to_dense()).all()

    def test_unrecoverable_raises(self):
        p = SparsityPattern(2, 1)
        P = SparseSymMatrix.from_dense(-np.eye(2), p)
        with pytest.raises(FactorizationError):
            incomplete_cholesky(P, 1.0)

    def test_bad_scale(self):
        P = SparseSymMatrix.identity(SparsityPattern(3, 1))
        with pytest.raises(ValueError):
            incomplete_cholesky(P, 0.0)

    def test_columns_respect_pattern_support(self):
        rng = np.random.default_rng(21)
        p = SparsityPattern(10, 2)
        P = SparseSymMatrix.from_dense(random_spd(rng, 10), p)
        L, _ = incomplete_cholesky(P, 1.0)
        mask = dense_mask(p)
        D = L.to_dense()
        assert np.array_equal(D[~mask], np.zeros(np.count_nonzero(~mask)))


class TestMinEigenvalue:
    def test_identity(self):
        P = SparseSymMatrix.identity(SparsityPattern(4, 1))
        assert min_eigenvalue(P) == (pytest.approx(1.0, abs=1e-12), 0)

    def test_non_finite_input_raises_on_the_dense_path(self):
        # eigvalsh itself raises LinAlgError here; the same fault gets the
        # structured path's class
        P = SparseSymMatrix.identity(SparsityPattern(40, 3))
        P.band[7, 0] = np.nan
        with pytest.raises(FactorizationError):
            min_eigenvalue(P)

    def test_indefinite_diagonal(self):
        p = SparsityPattern(2, 0)
        M = SparseSymMatrix.from_dense(np.diag([2.0, -1.0]), p)
        assert min_eigenvalue(M)[0] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(9)
        p = SparsityPattern(10, 3)
        A = rng.normal(size=(10, 10))
        M = SparseSymMatrix.from_dense(A + A.T, p)
        expected = np.linalg.eigvalsh(M.to_dense())[0]
        norm = np.abs(M.to_dense()).max()
        assert abs(min_eigenvalue(M)[0] - expected) <= 1e-8 * norm

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        p = SparsityPattern(12, 2)
        A = rng.normal(size=(12, 12))
        M = SparseSymMatrix.from_dense(A + A.T, p)
        for gamma in (0.5, 3.0, 17.0):
            shifted, _ = min_eigenvalue(M.add_scaled_identity(gamma))
            assert abs(shifted - (min_eigenvalue(M)[0] + gamma)) <= 1e-9 * (1 + gamma)


def random_band_spd(rng, n, h, floor=0.05):
    """Random cyclic-band matrix shifted to smallest eigenvalue ``floor``."""
    p = SparsityPattern(n, h)
    M = SparseSymMatrix(p, rng.normal(size=(n, h + 1)))
    return M.add_scaled_identity(floor - np.linalg.eigvalsh(M.to_dense())[0])


# (n, h) on the structured side, h below and above the reduction's 4-row
# block. cyclic_band_cholesky's border h' = h + (n - h) mod max(h, 4) rows is
# h + 1 for (256, 3) and (300, 3), h + 2 for (641, 3), h for (256, 32) and
# h + 13 for (333, 32)
STRUCTURED = [(256, 3), (300, 3), (641, 3), (256, 32), (333, 32)]


class TestPathSelection:
    def test_small_and_wide_bands_stay_dense(self):
        assert not uses_structured_path(40, 3)  # desk
        assert not uses_structured_path(160, 20)  # wide band
        assert uses_structured_path(640, 3)  # high dimension

    @pytest.mark.parametrize("n,h", STRUCTURED)
    def test_gate_cases_are_structured(self, n, h):
        assert uses_structured_path(n, h)


class TestCyclicBandCholesky:
    """The structured natural-order factor against the pattern restriction of
    numpy's dense Cholesky, to 1e-12 of max|A|."""

    def check(self, P, scale=1.0, shift=0.0, tol=1e-12):
        A = scale * P.to_dense() + shift * np.eye(P.n)
        expected = np.where(dense_mask(P.pattern), np.linalg.cholesky(A), 0.0)
        L = cyclic_band_cholesky(P, scale, shift)
        assert np.abs(L.to_dense() - expected).max() <= tol * np.abs(A).max()

    @pytest.mark.parametrize("n,h", STRUCTURED)
    def test_matches_dense_cholesky(self, n, h):
        self.check(random_band_spd(np.random.default_rng(n + h), n, h))

    @pytest.mark.parametrize("n,h", STRUCTURED)
    def test_scale_and_shift(self, n, h):
        self.check(random_band_spd(np.random.default_rng(2 * n + h), n, h), 3.0, 0.5)

    @pytest.mark.parametrize("n,h", STRUCTURED)
    def test_near_singular_band(self, n, h):
        # lambda_min = 1e-8, about what the gamma repair leaves; the error
        # grows with the condition number of the leading block (measured at
        # most 7.0e-9 max|A| on these cases, 7.4e-9 with a base of 128 rows
        # and 5.5e-9 with one of 32)
        self.check(random_band_spd(np.random.default_rng(3 * n + h), n, h, floor=1e-8),
                   tol=2e-8)

    @pytest.mark.parametrize("n,h", STRUCTURED)
    def test_failure_certifies_not_positive_definite(self, n, h):
        rng = np.random.default_rng(4 * n + h)
        P = random_band_spd(rng, n, h, floor=0.0)
        with pytest.raises(np.linalg.LinAlgError):
            cyclic_band_cholesky(P, shift=-1e-6)  # smallest eigenvalue -1e-6
        cyclic_band_cholesky(P, shift=1e-6)

    def test_non_finite_input_raises(self):
        P = SparseSymMatrix.identity(SparsityPattern(256, 3))
        P.band[100, 2] = np.nan
        with pytest.raises(FactorizationError):
            cyclic_band_cholesky(P)

    @pytest.mark.parametrize("n,h", STRUCTURED)
    def test_non_finite_border_raises(self, n, h):
        # the last row lies in the border, outside the reduction's leading block
        P = SparseSymMatrix.identity(SparsityPattern(n, h))
        P.band[n - 1, h] = np.nan
        with pytest.raises(FactorizationError):
            cyclic_band_cholesky(P)

    def test_memory_is_linear_in_n(self):
        # cold caches, index arrays included (about 7.8 MiB for a 0.3 MiB band)
        n, h = 10240, 3
        rng = np.random.default_rng(12)
        band = rng.normal(size=(n, h + 1))
        band[:, 0] = 2.0 * h + 1.0 + rng.uniform(size=n)  # diagonally dominant
        P = SparseSymMatrix(SparsityPattern(n, h), band)
        for cached in (sparse_core._factor_layout, sparse_core._block_rows,
                       sparse_core._reduction_layout):
            cached.cache_clear()
        tracemalloc.start()
        try:
            incomplete_cholesky(P, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20, peak


def factor_to_dense(F):
    """(L, order) of a CyclicReduction F: its dense lower factor, read from
    the odd blocks of each level and the base, and the natural row of each
    of its rows, so that ``A[order][:, order] = L L^T``."""
    N, b = F.rows.shape
    order, entries = [], []
    for level, (right, W, Fs) in enumerate(F._levels):
        blocks = np.arange(0, N, 1 << level)  # the natural blocks of the level
        odd, even = blocks[1::2], blocks[0::2]
        for j, Wj, Fj, left, nxt in zip(odd, W, Fs, even, even[right]):
            entries += [(j, j, np.tril(np.linalg.inv(Wj))), (left, j, Fj[:, :b].T),
                        (nxt, j, Fj[:, b:].T)]
        order.append(odd)
    blocks = np.arange(0, N, 1 << len(F._levels))
    base = F._base.reshape(blocks.size, b, blocks.size, b)
    entries += [(r, c, base[i, :, k]) for i, r in enumerate(blocks)
                for k, c in enumerate(blocks) if i >= k]
    order = np.concatenate(order + [blocks])
    slot = np.empty(N, dtype=np.intp)
    slot[order] = np.arange(N)
    L = np.zeros((N, b, N, b))
    for r, c, block in entries:
        L[slot[r], :, slot[c], :] = block
    rows = F.rows[order].ravel()
    real = rows >= 0
    return L.reshape(N * b, N * b)[np.ix_(real, real)], rows[real]


class TestCyclicReduction:
    @pytest.mark.parametrize("n,h", STRUCTURED)
    def test_permuted_factor_reproduces_the_matrix(self, n, h):
        rng = np.random.default_rng(8 * n + h)
        P = random_band_spd(rng, n, h)
        A = 3.0 * P.to_dense() + 0.5 * np.eye(n)
        L, order = factor_to_dense(CyclicReduction(P, scale=3.0, shift=0.5))
        assert np.array_equal(np.sort(order), np.arange(n))
        assert np.array_equal(L, np.tril(L))
        assert np.abs(L @ L.T - A[np.ix_(order, order)]).max() <= 1e-12 * np.abs(A).max()

    @pytest.mark.parametrize("n,h", STRUCTURED)
    def test_solve(self, n, h):
        rng = np.random.default_rng(3 * n + h)
        P = random_band_spd(rng, n, h)
        v = rng.normal(size=n)
        for scale, shift in [(1.0, 0.0), (3.0, 0.5)]:
            x = CyclicReduction(P, scale=scale, shift=shift).solve(v)
            A = scale * P.to_dense() + shift * np.eye(n)
            assert np.abs(x - np.linalg.solve(A, v)).max() <= 1e-10

    @pytest.mark.parametrize("n,h", STRUCTURED)
    def test_solve_several_right_hand_sides(self, n, h):
        rng = np.random.default_rng(9 * n + h)
        P = random_band_spd(rng, n, h)
        V = rng.normal(size=(n, 3))
        F = CyclicReduction(P)
        X = F.solve(V)
        assert X.shape == (n, 3)
        assert np.abs(X - np.linalg.solve(P.to_dense(), V)).max() <= 1e-10
        assert np.abs(X[:, 1] - F.solve(V[:, 1])).max() <= 1e-12 * np.abs(X).max()

    @pytest.mark.parametrize("n,h", STRUCTURED)
    def test_failure_certifies_not_positive_definite(self, n, h):
        rng = np.random.default_rng(4 * n + h)
        P = random_band_spd(rng, n, h, floor=0.0)
        with pytest.raises(np.linalg.LinAlgError):
            CyclicReduction(P, shift=-1e-6)  # smallest eigenvalue -1e-6
        CyclicReduction(P, shift=1e-6)

    # STRUCTURED, and the reductions of the highdim-n640 benchmark: the sigma
    # points and the certificate at (640, 3), the progressive EKF's and the
    # sparse UKF's gain in observation space at (320, 5) and (320, 8)
    @pytest.mark.parametrize("n,h", STRUCTURED + [(640, 3), (320, 5), (320, 8)])
    def test_dense_base_is_at_most_base_rows(self, n, h):
        P = SparseSymMatrix.identity(SparsityPattern(n, h))
        F = CyclicReduction(P)
        b = F.rows.shape[1]
        rows = F._base.shape[0]
        assert rows <= sparse_core.BASE_ROWS or rows == 2 * b, (rows, b)

    @pytest.mark.parametrize("n,h", STRUCTURED)
    def test_non_finite_input_raises(self, n, h):
        P = SparseSymMatrix.identity(SparsityPattern(n, h))
        P.band[100, h] = np.inf
        with pytest.raises(FactorizationError):
            CyclicReduction(P)

    def test_memory_is_linear_in_n(self):
        # at n = 10240 one n x n array would take 839 MB
        n, h = 10240, 3
        rng = np.random.default_rng(11)
        band = rng.normal(size=(n, h + 1))
        band[:, 0] = 2.0 * h + 1.0 + rng.uniform(size=n)  # diagonally dominant
        P = SparseSymMatrix(SparsityPattern(n, h), band)
        v = rng.normal(size=n)
        tracemalloc.start()
        try:
            F = CyclicReduction(P)
            factor = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            x = F.solve(v)
            solve = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            F.selected_inverse()
            selected = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(factor, solve, selected) < 64 * 2**20, (factor, solve, selected)
        rows, cols = P.column_values(), P.pattern.offset_columns
        residual = np.einsum("ij,ij->i", rows, x[cols]) - v  # band matvec
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(v)


class TestBandGainMemory:
    """One warm band_gain holds O(n width) floats: no (n, h+1, q, q) array of
    the selected inverse, and the layout caches one index of Zb's size and
    two of about n entries."""

    @pytest.mark.parametrize("n,k,h,stride,bound", [
        (2560, 20, 10, 2, 12 * 2**20),  # the sparse UKF at Nsp = 21
        (10240, 6, 3, 2, 8 * 2**20),  # the sparse UKF at Nsp = 7
    ])
    def test_peak_is_linear_in_n(self, n, k, h, stride, bound):
        rng = np.random.default_rng(n + k)
        layout = gain_layout(n, k, h, stride)
        V = rng.normal(size=(3, n, 2 * k + 1))
        p = SparsityPattern(n, k)
        A = SparseSymMatrix(p, local_outer_sum(V, 0.1, p).band[:, :k + 1])
        rhs = [rng.normal(size=layout.m)]
        band_gain(A, 1.0, layout, rhs)  # builds the layout's index
        tracemalloc.start()
        try:
            band_gain(A, 1.0, layout, rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, peak
        cached = [a for a in vars(layout).values() if isinstance(a, np.ndarray)]
        assert cached and sum(a.nbytes for a in cached) < 2**20
        for pattern in (layout.pattern, layout.obs_pattern):  # band_gain reads no pattern index
            assert not {"offset_columns", "band_columns", "column_slots"} & set(vars(pattern))


class TestSelectedInverse:
    """Every returned block of (L L^T)^-1 against the dense inverse. m = 300,
    319 and 333 do not divide into blocks of b rows, so their blocks carry
    padding."""

    @pytest.mark.parametrize("m", [256, 300, 319, 333])
    @pytest.mark.parametrize("w", [5, 8, 32])
    def test_matches_dense_inverse(self, m, w):
        rng = np.random.default_rng(6 * m + w)
        A = random_band_spd(rng, m, w)
        F = CyclicReduction(A)
        Z = np.linalg.inv(A.to_dense())
        diag, sub = F.selected_inverse()
        N, p = F.rows.shape
        assert diag.shape == sub.shape == (N, p, p)
        tol = 1e-12 * np.abs(Z).max()
        for k in range(N):
            rows, below = F.rows[k], F.rows[(k + 1) % N]  # sub[N-1] is Z[0, N-1]
            r, c = rows >= 0, below >= 0
            assert np.abs(diag[k][np.ix_(r, r)] - Z[np.ix_(rows[r], rows[r])]).max() <= tol
            assert np.abs(sub[k][np.ix_(c, r)] - Z[np.ix_(below[c], rows[r])]).max() <= tol


    def test_wide_band_base_of_several_blocks(self):
        # 48 blocks of 20 rows: four levels leave a base of three blocks, 60
        # rows, and every block of the solve and the selected inverse passes
        # through all of them
        rng = np.random.default_rng(960)
        A = random_band_spd(rng, 960, 20)
        F = CyclicReduction(A)
        assert F._base.shape[0] == 60
        dense = A.to_dense()
        Z = np.linalg.inv(dense)
        V = rng.normal(size=(960, 2))
        X = F.solve(V)
        assert np.abs(X - np.linalg.solve(dense, V)).max() <= 1e-12 * np.abs(X).max()
        diag, sub = F.selected_inverse()
        N = F.rows.shape[0]
        k = (np.arange(N) + 1) % N
        tol = 1e-12 * np.abs(Z).max()
        assert np.abs(diag - Z.reshape(N, 20, N, 20)[np.arange(N), :, np.arange(N)]).max() <= tol
        assert np.abs(sub - Z.reshape(N, 20, N, 20)[k, :, np.arange(N)]).max() <= tol


def windows(layout, n, k, stride):
    """(n, q) observed indices of the local rows of C: row i starts at
    ceil((i - k) / stride), the index of the first observed state within k
    of state i."""
    start = -((k - np.arange(n)) // stride)
    return (start[:, None] + np.arange(layout.q)) % layout.m


def dense_gain(A, r, layout, rhs):
    """The outputs of band_gain through the dense C = A[:, oi] and M = A[oi,
    oi] + r I of ``A.to_dense()`` and a dense solve with M."""
    oi = (A.n // layout.m) * np.arange(layout.m)
    dense = A.to_dense()
    C, Md = dense[:, oi], dense[np.ix_(oi, oi)] + r * np.eye(oi.size)
    K = np.linalg.solve(Md, C.T).T
    band = np.einsum("ik,idk->id", K, C[layout.pattern.band_columns])  # (K C^T)[i, i + d]
    return band, [K @ v for v in rhs], [np.linalg.solve(Md, v) for v in rhs]


def check_gain(A, r, layout, rhs):
    T, products, solved = band_gain(A, r, layout, rhs)
    band, expected_products, expected_solved = dense_gain(A, r, layout, rhs)
    assert np.abs(T.band - band).max() <= 1e-12 * np.abs(band).max()
    for got, expected in zip(products + solved, expected_products + expected_solved):
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


class TestGainLayout:
    def test_widths_of_the_benchmark_filters(self):
        assert gain_layout(640, 6, 3, 2).width == 8  # sparse UKF: A has half bandwidth 2h
        assert gain_layout(640, 3, 3, 2).width == 5  # progressive EKF

    @pytest.mark.parametrize("n,k,h,stride", [
        (40, 6, 3, 2),  # desk: m = 20
        (160, 40, 20, 2),  # wide band: m = 80
        (640, 6, 3, 3),  # stride does not divide n
    ])
    def test_dense_cases(self, n, k, h, stride):
        assert gain_layout(n, k, h, stride) is None

    @pytest.mark.parametrize("n,k,h,stride", [(640, 6, 3, 2), (768, 9, 4, 3), (512, 3, 3, 1)])
    def test_local_rows_and_observed_band(self, n, k, h, stride):
        rng = np.random.default_rng(n + k)
        A = SparseSymMatrix(SparsityPattern(n, k), rng.normal(size=(n, k + 1)))
        oi = stride * np.arange(n // stride)
        layout = gain_layout(n, k, h, stride)
        dense = A.to_dense()
        rows = layout.local_rows(A)
        C = np.zeros((n, oi.size))
        np.add.at(C, (np.arange(n)[:, None], windows(layout, n, k, stride)), rows)
        assert np.array_equal(C, dense[:, oi])
        r = rng.uniform(0.5, 1.5)
        assert np.array_equal(layout.observed(A, r).to_dense(),
                              dense[np.ix_(oi, oi)] + r * np.eye(oi.size))


class TestBandGain:
    @pytest.mark.parametrize("n,k,h,stride", [(640, 6, 3, 2), (640, 3, 3, 2), (768, 9, 4, 3),
                                              (512, 3, 3, 1),
                                              (1280, 20, 10, 2),  # sparse UKF, Nsp = 21
                                              (1536, 15, 10, 3)])
    def test_matches_dense_solve(self, n, k, h, stride):
        rng = np.random.default_rng(2 * n + k)
        oi = stride * np.arange(n // stride)
        layout = gain_layout(n, k, h, stride)
        V = rng.normal(size=(3, n, 2 * k + 1))
        p = SparsityPattern(n, k)
        A = SparseSymMatrix(p, local_outer_sum(V, 0.1, p).band[:, :k + 1])
        check_gain(A, rng.uniform(0.5, 1.5), layout,
                   [rng.normal(size=oi.size), rng.normal(size=oi.size)])

    def test_not_positive_definite_raises(self):
        layout = gain_layout(640, 3, 3, 2)
        A = SparseSymMatrix.identity(SparsityPattern(640, 3))
        with pytest.raises(np.linalg.LinAlgError):
            band_gain(A, -2.0, layout, [np.ones(320)])

    def test_recorded_runs_match_dense_solve(self, recorded_gains):
        # M = A[oi, oi] + r I and C = A[:, oi] of the sparse UKF (whose Pyy and
        # Pxy are these less a rank-one term) and S and PHt of the
        # progressive EKF
        assert len(recorded_gains) == 40
        for A, r, layout, rhs in recorded_gains:
            check_gain(A, r, layout, rhs)


@pytest.fixture(scope="module")
def recorded_gains():
    """Every input of band_gain in 20-cycle n = 640 runs of both sparse filters."""
    recorded = []
    real = filters.band_gain

    def record(A, r, layout, rhs):
        recorded.append((A, r, layout, rhs))
        return real(A, r, layout, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filters, "band_gain", record)
        for name in ("sparse_ukf", "progressive_ekf"):
            config = harness.ExperimentConfig(filter=name, n=640, nsp=7, n_steps=20,
                                              n_replicates=1, master_seed=65)
            assert not harness.run_replicate(config.validate(), 0).failed
    return recorded


class TestIncompleteCholeskyPaths:
    """The structured path restricts the exact factor to the pattern, as the
    dense path does; only rounding differs."""

    @pytest.mark.parametrize("n,h", STRUCTURED)
    def test_structured_path_matches_dense_restriction(self, n, h):
        rng = np.random.default_rng(5 * n + h)
        P = random_band_spd(rng, n, h)
        L, jitter = incomplete_cholesky(P, 7.0)
        assert jitter == 0.0
        A = 7.0 * P.to_dense()
        expected = np.where(dense_mask(P.pattern), np.linalg.cholesky(A), 0.0)
        assert np.abs(L.to_dense() - expected).max() <= 1e-12 * np.abs(A).max()

    def test_structured_path_keeps_the_jitter_schedule(self):
        # cyclic second difference: singular, so jitter 0 fails and 1e-10 factors
        n = 256
        band = np.zeros((n, 2))
        band[:, 0], band[:, 1] = 2.0, -1.0
        P = SparseSymMatrix(SparsityPattern(n, 1), band)
        L, jitter = incomplete_cholesky(P.add_scaled_identity(-1e-12), 1.0)
        assert jitter == 1e-10
        A = P.to_dense() + (1e-10 - 1e-12) * np.eye(n)
        expected = np.where(dense_mask(P.pattern), np.linalg.cholesky(A), 0.0)
        assert np.abs(L.to_dense() - expected).max() <= 1e-6

    @pytest.mark.parametrize("n,h", [(40, 3), (256, 3)])
    def test_non_finite_input_raises(self, n, h):
        P = SparseSymMatrix.identity(SparsityPattern(n, h))
        P.band[5, 1] = np.inf
        with pytest.raises(FactorizationError):
            incomplete_cholesky(P, 1.0)

    def test_jitter_helper_rejects_non_finite_input(self):
        with pytest.raises(FactorizationError):
            cholesky_with_jitter(np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestCertifiedMinEigenvalue:
    """The structured path against numpy's eigvalsh, to 1e-12 of max|P|."""

    def check(self, P):
        lam, factorizations = min_eigenvalue(P)
        expected = np.linalg.eigvalsh(P.to_dense())[0]
        assert abs(lam - expected) <= 1e-12 * np.abs(P.band).max()
        assert 0 < factorizations
        return lam

    @pytest.mark.parametrize("n,h", STRUCTURED)
    def test_positive_definite(self, n, h):
        self.check(random_band_spd(np.random.default_rng(6 * n + h), n, h))

    @pytest.mark.parametrize("n,h", STRUCTURED)
    def test_indefinite(self, n, h):
        rng = np.random.default_rng(7 * n + h)
        assert self.check(SparseSymMatrix(SparsityPattern(n, h),
                                          rng.normal(size=(n, h + 1)))) < 0.0

    @pytest.mark.parametrize("n", [257, 641])
    def test_repeated_smallest_eigenvalue(self, n):
        # a symmetric circulant of odd n: its eigenvalues 1 + 0.8 cos(2 pi k / n)
        # pair up (k, n - k), so the smallest one is double, with gap 0
        band = np.zeros((n, 2))
        band[:, 0], band[:, 1] = 1.0, 0.4
        lam = self.check(SparseSymMatrix(SparsityPattern(n, 1), band))
        assert abs(lam - (1.0 + 0.8 * np.cos(np.pi * (n - 1) / n))) <= 1e-12

    def test_dense_path_makes_no_factorization(self):
        _, factorizations = min_eigenvalue(SparseSymMatrix.identity(SparsityPattern(40, 3)))
        assert factorizations == 0

    def test_non_finite_input_raises(self):
        P = SparseSymMatrix.identity(SparsityPattern(256, 3))
        P.band[7, 0] = np.nan
        with pytest.raises(FactorizationError):
            min_eigenvalue(P)


class TestRestrictedProduct:
    def test_zero_gain(self):
        p = SparsityPattern(6, 2)
        M = restricted_product(np.zeros((6, 3)), np.zeros((3, 6)), p)
        assert np.array_equal(M.to_dense(), np.zeros((6, 6)))

    def test_identity_product_full_pattern(self):
        p = SparsityPattern(5, 2)
        M = restricted_product(np.eye(5), np.eye(5), p)
        assert np.array_equal(M.to_dense(), np.eye(5))

    def test_matches_masked_dense_oracle(self):
        rng = np.random.default_rng(13)
        n, m, h = 6, 2, 2
        S = rng.normal(size=(m, m))
        S = S + S.T
        Pxy = rng.normal(size=(n, m))
        K = Pxy @ S  # makes K @ Pxy.T symmetric
        dense = K @ Pxy.T
        p = SparsityPattern(n, h)
        expected = np.where(dense_mask(p), dense, 0.0)
        M = restricted_product(K, Pxy.T, p)
        assert np.abs(M.to_dense() - expected).max() <= 1e-12 * (np.abs(dense).max() + 1)

    @pytest.mark.parametrize("n,h", PATTERNS + [(128, 3), (256, 3), (333, 5), (333, 32)])
    def test_band_only_matches_dense_product(self, n, h):
        # entrywise symmetrization of the dense product, for any A @ B, masked
        # to the pattern; (128, 3), (256, 3) and (333, 5) reach
        # GEMM_BAND_RATIO (h+1), where the band is computed without the
        # dense product
        rng = np.random.default_rng(3 * n + h)
        p = SparsityPattern(n, h)
        A = rng.normal(size=(n, 4))
        B = rng.normal(size=(4, n))
        got = restricted_product(A, B, p)
        product = A @ B
        expected = np.where(dense_mask(p), 0.5 * (product + product.T), 0.0)
        assert np.abs(got.to_dense() - expected).max() <= 1e-13

    @pytest.mark.parametrize("n,h,uses_gemm", [(40, 3, True), (160, 20, True),
                                                (640, 3, False), (2560, 3, False)])
    def test_dense_product_only_below_the_gemm_band_ratio(self, monkeypatch, n, h, uses_gemm):
        # the desk and quarter-n band shapes take the GEMM; at n = 640 or
        # 2560 with h = 3 the band is kept, in far less memory than the
        # n x n product would take
        calls = []
        real = SparseSymMatrix.from_dense

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(SparseSymMatrix, "from_dense", spy)
        rng = np.random.default_rng(n)
        W = rng.normal(size=(16, n))
        tracemalloc.start()
        restricted_product(W.T, W, SparsityPattern(n, h))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert bool(calls) == uses_gemm
        if not uses_gemm:
            assert peak < n * n * 8 / 4  # a quarter of the dense product

    def test_shape_validation(self):
        p = SparsityPattern(4, 1)
        with pytest.raises(ValueError):
            restricted_product(np.zeros((4, 2)), np.zeros((3, 4)), p)
        with pytest.raises(ValueError):
            restricted_product(np.zeros((5, 2)), np.zeros((2, 5)), p)


class TestSparseColumns:
    def test_column_extraction(self):
        p = SparsityPattern(6, 1)
        D = np.arange(36.0).reshape(6, 6) * dense_mask(p)
        cols = SparseColumns.from_dense(D, p)
        # column i at rows i - 1, i, i + 1 (mod 6): offset order
        i = np.arange(6)
        assert np.array_equal(cols.values, np.stack([D[(i - 1) % 6, i], D[i, i],
                                                     D[(i + 1) % 6, i]], axis=1))
        assert np.array_equal(cols.to_dense(), D)

    def test_shape_validation(self):
        p = SparsityPattern(6, 1)
        with pytest.raises(ValueError):
            SparseColumns(p, np.zeros((6, 5)))
