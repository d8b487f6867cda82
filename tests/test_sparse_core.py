"""Pattern, container and kernel tests for the sparse symmetric core."""

import numpy as np
import pytest

from sparsekf.sparse_core import (
    FactorizationError,
    SparseColumns,
    SparseSymMatrix,
    SparseVector,
    SparsityPattern,
    incomplete_cholesky,
    local_outer_sum,
    local_sum_band,
    local_sum_columns,
    merge,
    min_eigenvalue,
    restricted_outer_accumulate,
    restricted_product,
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
            cols = p.column_indices(i)
            assert cols.size == 7
            assert i in cols
            for j in cols:
                assert i in p.column_indices(j)

    def test_membership_rule_is_cyclic(self):
        p = SparsityPattern(10, 2)
        assert p.contains(0, 9) and p.contains(0, 8)
        assert not p.contains(0, 7)
        assert p.contains(9, 1)

    @pytest.mark.parametrize("n", [5, 6, 7, 12])
    def test_full_pattern_covers_everything(self, n):
        p = SparsityPattern.full(n)
        assert p.nsp == n
        for i in range(n):
            assert np.array_equal(p.column_indices(i), np.arange(n))

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            SparsityPattern(10, -1)
        with pytest.raises(ValueError):
            SparsityPattern(10, 6)
        with pytest.raises(ValueError):
            SparsityPattern(0, 0)


class TestSparseVector:
    def test_reads_outside_index_set_are_zero(self):
        v = SparseVector(5, [1, 3], [2.0, -4.0])
        assert v[1] == 2.0 and v[3] == -4.0
        assert v[0] == 0.0 and v[2] == 0.0 and v[4] == 0.0
        assert np.array_equal(v.to_dense(), [0.0, 2.0, 0.0, -4.0, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseVector(3, [0, 0], [1.0, 2.0])
        with pytest.raises(ValueError):
            SparseVector(3, [3], [1.0])
        with pytest.raises(ValueError):
            SparseVector(3, [0, 1], [1.0])


class TestMerge:
    def test_single_entry(self):
        x = SparseVector(3, [1], [9.0])
        assert np.array_equal(merge(x, [1.0, 2.0, 3.0]), [1.0, 9.0, 3.0])

    def test_empty_sparse_gives_dense(self):
        y = np.array([4.0, 5.0, 6.0])
        out = merge(SparseVector.empty(3), y)
        assert np.array_equal(out, y)
        out[0] = 0.0
        assert y[0] == 4.0  # merge returns a copy

    def test_full_index_set_gives_sparse(self):
        x = SparseVector(3, [0, 1, 2], [7.0, 8.0, 9.0])
        assert np.array_equal(merge(x, [1.0, 2.0, 3.0]), x.to_dense())

    def test_definition_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            k = int(rng.integers(0, n + 1))
            idx = rng.choice(n, size=k, replace=False)
            x = SparseVector(n, idx, rng.normal(size=k))
            y = rng.normal(size=n)
            z = merge(x, y)
            for i in range(n):
                assert z[i] == (x[i] if i in idx else y[i])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            merge(SparseVector.empty(3), np.zeros(4))


class TestSparseSymMatrix:
    def test_reads_outside_pattern_are_exactly_zero(self):
        p = SparsityPattern(12, 2)
        rng = np.random.default_rng(0)
        M = SparseSymMatrix.from_dense(random_spd(rng, 12), p)
        mask = dense_mask(p)
        for i in range(12):
            for j in range(12):
                if not mask[i, j]:
                    assert M.get(i, j) == 0.0

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
            M = SparseSymMatrix.zeros(p)
            assert M.band.size <= n * (h + 1)

    def test_arithmetic(self):
        p = SparsityPattern(8, 1)
        A = SparseSymMatrix.identity(p, 2.0)
        B = SparseSymMatrix.identity(p, 0.5)
        assert np.allclose((A + B).to_dense(), 2.5 * np.eye(8))
        assert np.allclose((A - B).to_dense(), 1.5 * np.eye(8))
        assert np.allclose(A.add_scaled_identity(1.0).to_dense(), 3.0 * np.eye(8))
        assert np.allclose((2.0 * B).to_dense(), np.eye(8))

    def test_pattern_mismatch(self):
        A = SparseSymMatrix.identity(SparsityPattern(8, 1))
        B = SparseSymMatrix.identity(SparsityPattern(8, 2))
        with pytest.raises(ValueError):
            A + B

    def test_even_full_pattern_antipode_consistency(self):
        # n even with h = n/2: the antipodal diagonal is stored twice; both
        # aliases must agree through every constructor.
        p = SparsityPattern.full(6)
        rng = np.random.default_rng(3)
        A = random_spd(rng, 6)
        M = SparseSymMatrix.from_dense(A, p)
        assert np.allclose(M.to_dense(), A, atol=1e-14)
        for i in range(6):
            assert M.get(i, (i + 3) % 6) == M.get((i + 3) % 6, i)


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
        p = SparsityPattern(n, h)
        assert np.array_equal(np.sort(p.offset_columns, axis=1), p.columns)
        assert np.array_equal(p.offset_columns[:, 0], (np.arange(n) + p.offsets[0]) % n)
        vals = np.arange(n * p.nsp, dtype=float).reshape(n, p.nsp)
        dense = scatter_columns(vals.ravel()[p.offset_order], p)
        sorted_dense = np.zeros((n, n))
        sorted_dense[p.columns, np.arange(n)[:, None]] = vals
        assert np.array_equal(dense, sorted_dense)

    @pytest.mark.parametrize("n,h", PATTERNS)
    def test_columns_read_what_to_dense_writes(self, n, h):
        p = SparsityPattern(n, h)
        M = SparseSymMatrix(p, np.random.default_rng(n + h).normal(size=(n, h + 1)))
        D = M.to_dense()
        assert np.array_equal(M.column_values(), D[p.offset_columns, np.arange(n)[:, None]])
        for cols in (np.arange(0, n, 2), np.arange(n)[::-1]):
            assert np.array_equal(M.dense_columns(cols), D[:, cols])

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
        got = local_sum_band(local_outer_sum(V, 0.3, p), p)
        scale = np.abs(A).max() + 1.0
        assert np.abs(got.to_dense() - np.where(dense_mask(p), A, 0.0)).max() <= 1e-13 * scale
        expected = SparseSymMatrix.from_dense(A, p).band
        assert np.abs(got.band - expected).max() <= 1e-13 * scale

    @pytest.mark.parametrize("n,h", PATTERNS)
    def test_columns_match_dense(self, n, h):
        rng = np.random.default_rng(37 * n + h)
        p = SparsityPattern(n, h)
        V = rng.normal(size=(3, n, p.nsp))
        A = self.dense_sum(V, 1.7, p)
        D = local_outer_sum(V, 1.7, p)
        for cols in (np.arange(0, n, 2), np.arange(n), np.unique([n - 1, 0])):
            got = local_sum_columns(D, p, cols)
            assert got.shape == (n, cols.size)
            assert np.abs(got - A[:, cols]).max() <= 1e-13 * (np.abs(A).max() + 1.0)

    def test_columns_reach_twice_the_half_bandwidth(self):
        # entries at cyclic distance h+1..2h are outside the pattern but in A
        p = SparsityPattern(20, 2)
        D = local_outer_sum(np.ones((1, 20, p.nsp)), 1.0, p)
        cols = local_sum_columns(D, p, np.arange(20))
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
        p = SparsityPattern.full(2)
        P = SparseSymMatrix.from_dense(np.array([[4.0, 2.0], [2.0, 5.0]]), p)
        L, jitter = incomplete_cholesky(P, 1.0)
        assert jitter == 0.0
        assert np.array_equal(L.to_dense(), np.array([[2.0, 0.0], [1.0, 2.0]]))

    def test_scale_enters_factor(self):
        p = SparsityPattern.full(2)
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
        p = SparsityPattern.full(n)
        L, jitter = incomplete_cholesky(SparseSymMatrix.from_dense(A, p), 1.0)
        assert jitter == 0.0
        rel = np.abs(L.to_dense() - np.linalg.cholesky(A)).max() / np.abs(A).max()
        assert rel <= 1e-10

    def test_jitter_recovers_singular_matrix(self):
        p = SparsityPattern.full(2)
        P = SparseSymMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 1.0]]), p)
        L, jitter = incomplete_cholesky(P, 1.0)
        assert jitter > 0.0
        assert np.isfinite(L.to_dense()).all()

    def test_unrecoverable_raises(self):
        p = SparsityPattern.full(2)
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
        col = L.column(4)
        assert set(col.indices) <= set(p.column_indices(4))


class TestMinEigenvalue:
    def test_identity(self):
        P = SparseSymMatrix.identity(SparsityPattern(4, 1))
        assert min_eigenvalue(P) == pytest.approx(1.0, abs=1e-12)

    def test_indefinite_diagonal(self):
        p = SparsityPattern(2, 0)
        M = SparseSymMatrix.from_dense(np.diag([2.0, -1.0]), p)
        assert min_eigenvalue(M) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(9)
        p = SparsityPattern(10, 3)
        A = rng.normal(size=(10, 10))
        M = SparseSymMatrix.from_dense(A + A.T, p)
        expected = np.linalg.eigvalsh(M.to_dense())[0]
        norm = np.abs(M.to_dense()).max()
        assert abs(min_eigenvalue(M) - expected) <= 1e-8 * norm

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        p = SparsityPattern(12, 2)
        A = rng.normal(size=(12, 12))
        M = SparseSymMatrix.from_dense(A + A.T, p)
        for gamma in (0.5, 3.0, 17.0):
            shifted = min_eigenvalue(M.add_scaled_identity(gamma))
            assert abs(shifted - (min_eigenvalue(M) + gamma)) <= 1e-9 * (1 + gamma)


class TestRestrictedProduct:
    def test_zero_gain(self):
        p = SparsityPattern(6, 2)
        M = restricted_product(np.zeros((6, 3)), np.zeros((3, 6)), p)
        assert np.array_equal(M.to_dense(), np.zeros((6, 6)))

    def test_identity_product_full_pattern(self):
        p = SparsityPattern.full(5)
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

    @pytest.mark.parametrize("n,h", PATTERNS)
    def test_band_only_matches_dense_product(self, n, h):
        # entrywise symmetrization of the dense product, for any A @ B
        rng = np.random.default_rng(3 * n + h)
        p = SparsityPattern(n, h)
        A = rng.normal(size=(n, 4))
        B = rng.normal(size=(4, n))
        got = restricted_product(A, B, p)
        expected = SparseSymMatrix.from_dense(A @ B, p)
        assert np.abs(got.band - expected.band).max() <= 1e-13

    def test_shape_validation(self):
        p = SparsityPattern(4, 1)
        with pytest.raises(ValueError):
            restricted_product(np.zeros((4, 2)), np.zeros((3, 4)), p)
        with pytest.raises(ValueError):
            restricted_product(np.zeros((5, 2)), np.zeros((2, 5)), p)


class TestSparseColumns:
    def test_column_extraction(self):
        p = SparsityPattern(6, 1)
        D = np.zeros((6, 6))
        D[p.columns, np.arange(6)[:, None]] = 1.0
        cols = SparseColumns.from_dense(D, p)
        v = cols.column(2)
        assert np.array_equal(v.indices, p.column_indices(2))
        assert np.array_equal(v.values, np.ones(3))

    def test_shape_validation(self):
        p = SparsityPattern(6, 1)
        with pytest.raises(ValueError):
            SparseColumns(p, np.zeros((6, 5)))
