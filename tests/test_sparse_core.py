"""Pattern, container and kernel tests for the sparse symmetric core."""

import numpy as np
import pytest

import sparsekf.filters as filters
import sparsekf.harness as harness
from sparsekf.sparse_core import (
    CyclicBandCholesky,
    FactorizationError,
    SparseColumns,
    SparseSymMatrix,
    SparsityPattern,
    band_gain,
    cholesky_with_jitter,
    gain_layout,
    incomplete_cholesky,
    local_outer_sum,
    local_sum_band,
    local_sum_columns,
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
            cols = p.columns[i]
            assert cols.size == 7
            assert i in cols
            for j in cols:
                assert i in p.columns[j]

    def test_membership_rule_is_cyclic(self):
        p = SparsityPattern(10, 2)
        assert 9 in p.columns[0] and 8 in p.columns[0]
        assert 7 not in p.columns[0]
        assert 1 in p.columns[9]

    @pytest.mark.parametrize("n", [5, 6, 7, 12])
    def test_full_pattern_covers_everything(self, n):
        p = SparsityPattern(n, n // 2)
        assert p.nsp == n
        for i in range(n):
            assert np.array_equal(p.columns[i], np.arange(n))

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


def random_band_spd(rng, n, h, floor=0.05):
    """Random cyclic-band matrix shifted to smallest eigenvalue ``floor``."""
    p = SparsityPattern(n, h)
    M = SparseSymMatrix(p, rng.normal(size=(n, h + 1)))
    return M.add_scaled_identity(floor - np.linalg.eigvalsh(M.to_dense())[0])


# (n, h) on the structured side: n a multiple of the 32-row block and not,
# h below the block size and equal to it
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
    @pytest.mark.parametrize("n,h", STRUCTURED)
    def test_matches_dense_cholesky(self, n, h):
        rng = np.random.default_rng(n + h)
        P = random_band_spd(rng, n, h)
        A = P.to_dense()
        L = CyclicBandCholesky(P)
        assert np.abs(L.to_dense() - np.linalg.cholesky(A)).max() <= 1e-12 * np.abs(A).max()

    @pytest.mark.parametrize("n,h", STRUCTURED)
    def test_scale_and_shift(self, n, h):
        rng = np.random.default_rng(2 * n + h)
        P = random_band_spd(rng, n, h)
        A = 3.0 * P.to_dense() + 0.5 * np.eye(n)
        L = CyclicBandCholesky(P, scale=3.0, shift=0.5)
        assert np.abs(L.to_dense() - np.linalg.cholesky(A)).max() <= 1e-12 * np.abs(A).max()

    @pytest.mark.parametrize("n,h", STRUCTURED)
    def test_solve(self, n, h):
        rng = np.random.default_rng(3 * n + h)
        P = random_band_spd(rng, n, h)
        v = rng.normal(size=n)
        x = CyclicBandCholesky(P).solve(v)
        assert np.abs(x - np.linalg.solve(P.to_dense(), v)).max() <= 1e-10

    @pytest.mark.parametrize("n,h", STRUCTURED)
    def test_failure_certifies_not_positive_definite(self, n, h):
        rng = np.random.default_rng(4 * n + h)
        P = random_band_spd(rng, n, h, floor=0.0)
        with pytest.raises(np.linalg.LinAlgError):
            CyclicBandCholesky(P, shift=-1e-6)  # smallest eigenvalue -1e-6
        CyclicBandCholesky(P, shift=1e-6)

    def test_non_finite_input_raises(self):
        P = SparseSymMatrix.identity(SparsityPattern(256, 3))
        P.band[100, 2] = np.nan
        with pytest.raises(FactorizationError):
            CyclicBandCholesky(P)


class TestSelectedInverse:
    """Every returned block of (L L^T)^-1 against the dense inverse. With
    32-row blocks the last block has 32 (m = 256), 44, 45 and 63 = 2b - 1
    (m = 319) rows."""

    @pytest.mark.parametrize("m", [256, 300, 319, 333])
    @pytest.mark.parametrize("w", [5, 8, 32])
    def test_matches_dense_inverse(self, m, w):
        rng = np.random.default_rng(6 * m + w)
        F = CyclicBandCholesky(random_band_spd(rng, m, w))
        L = F.to_dense()
        Z = np.linalg.inv(L @ L.T)
        diag, sub, last = F.selected_inverse()
        b = diag.shape[1]
        top = m - last.shape[0]
        assert diag.shape == ((top // b), b, b) and sub.shape == (top // b - 1, b, b)
        tol = 1e-12 * np.abs(Z).max()
        for k in range(top // b):
            assert np.abs(diag[k] - Z[k * b:(k + 1) * b, k * b:(k + 1) * b]).max() <= tol
        for k in range(top // b - 1):
            assert np.abs(sub[k] - Z[(k + 1) * b:(k + 2) * b, k * b:(k + 1) * b]).max() <= tol
        assert np.abs(last - Z[top:]).max() <= tol


def dense_gain(M, rows, layout, rhs):
    """The outputs of band_gain through a dense C = A[:, observed] and a
    dense solve with M."""
    n = rows.shape[0]
    C = np.zeros((n, layout.m))
    np.add.at(C, (np.arange(n)[:, None], layout.windows), rows)
    Md = M.to_dense()
    K = np.linalg.solve(Md, C.T).T
    band = np.einsum("ik,idk->id", K, C[layout.pattern.band_columns])  # (K C^T)[i, i + d]
    return band, [K @ v for v in rhs], [np.linalg.solve(Md, v) for v in rhs]


def check_gain(M, rows, layout, rhs):
    T, products, solved = band_gain(M, rows, layout, rhs)
    band, expected_products, expected_solved = dense_gain(M, rows, layout, rhs)
    assert np.abs(T.band - band).max() <= 1e-12 * np.abs(band).max()
    for got, expected in zip(products + solved, expected_products + expected_solved):
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


class TestGainLayout:
    def test_widths_of_the_benchmark_filters(self):
        oi = np.arange(0, 640, 2)
        assert gain_layout(640, 6, 3, oi).width == 8  # sparse UKF: A has half bandwidth 2h
        assert gain_layout(640, 3, 3, oi).width == 5  # progressive EKF

    @pytest.mark.parametrize("n,k,h,indices", [
        (40, 6, 3, np.arange(0, 40, 2)),  # desk: m = 20
        (160, 40, 20, np.arange(0, 160, 2)),  # wide band: m = 80
        (640, 6, 3, np.arange(0, 640, 3)),  # stride does not divide n
        (640, 6, 3, np.r_[0, 3, np.arange(4, 640, 2)]),  # not a regular stride
        (640, 6, 3, np.arange(638, -1, -2)),  # descending
    ])
    def test_dense_cases(self, n, k, h, indices):
        assert gain_layout(n, k, h, indices) is None

    @pytest.mark.parametrize("n,k,h,first,stride", [(640, 6, 3, 0, 2), (640, 6, 3, 1, 2),
                                                    (768, 9, 4, 2, 3), (512, 3, 3, 0, 1)])
    def test_local_rows_and_observed_band(self, n, k, h, first, stride):
        rng = np.random.default_rng(n + k + first)
        A = SparseSymMatrix(SparsityPattern(n, k), rng.normal(size=(n, k + 1)))
        oi = first + stride * np.arange(n // stride)
        layout = gain_layout(n, k, h, oi)
        dense = A.to_dense()
        rows = layout.local_rows(A.band)
        C = np.zeros((n, oi.size))
        np.add.at(C, (np.arange(n)[:, None], layout.windows), rows)
        assert np.array_equal(C, dense[:, oi])
        r = rng.uniform(0.5, 1.5, oi.size)
        assert np.array_equal(layout.observed(A.band, r).to_dense(),
                              dense[np.ix_(oi, oi)] + np.diag(r))


class TestBandGain:
    @pytest.mark.parametrize("n,k,h,first,stride", [(640, 6, 3, 0, 2), (640, 3, 3, 1, 2),
                                                    (768, 9, 4, 2, 3), (512, 3, 3, 0, 1)])
    def test_matches_dense_solve(self, n, k, h, first, stride):
        rng = np.random.default_rng(2 * n + k + first)
        oi = first + stride * np.arange(n // stride)
        layout = gain_layout(n, k, h, oi)
        V = rng.normal(size=(3, n, 2 * k + 1))
        A = local_sum_band(local_outer_sum(V, 0.1, SparsityPattern(n, k)), SparsityPattern(n, k))
        M = layout.observed(A.band, rng.uniform(0.5, 1.5, oi.size))
        check_gain(M, layout.local_rows(A.band), layout,
                   [rng.normal(size=oi.size), rng.normal(size=oi.size)])

    def test_not_positive_definite_raises(self):
        layout = gain_layout(640, 3, 3, np.arange(0, 640, 2))
        A = SparseSymMatrix.identity(SparsityPattern(640, 3))
        M = layout.observed(A.band, np.full(320, -2.0))
        with pytest.raises(np.linalg.LinAlgError):
            band_gain(M, layout.local_rows(A.band), layout, [np.ones(320)])

    def test_recorded_runs_match_dense_solve(self, recorded_gains):
        # M = A[oi, oi] + R and C = A[:, oi] of the sparse UKF (whose Pyy and
        # Pxy are these less a rank-one term) and S and PHt of the
        # progressive EKF
        assert len(recorded_gains) == 40
        for M, rows, layout, rhs in recorded_gains:
            check_gain(M, rows, layout, rhs)


@pytest.fixture(scope="module")
def recorded_gains():
    """Every input of band_gain in 20-cycle n = 640 runs of both sparse filters."""
    recorded = []
    real = filters.band_gain

    def record(M, rows, layout, rhs):
        recorded.append((M, rows, layout, rhs))
        return real(M, rows, layout, rhs)

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
        info = {}
        lam = min_eigenvalue(P, info)
        expected = np.linalg.eigvalsh(P.to_dense())[0]
        assert abs(lam - expected) <= 1e-12 * np.abs(P.band).max()
        assert 0 < info["factorizations"]
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
        info = {}
        min_eigenvalue(SparseSymMatrix.identity(SparsityPattern(40, 3)), info)
        assert info["factorizations"] == 0

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
        assert np.array_equal(cols.values, np.ones((6, 3)))
        assert np.array_equal(cols.to_dense(), D)

    def test_shape_validation(self):
        p = SparsityPattern(6, 1)
        with pytest.raises(ValueError):
            SparseColumns(p, np.zeros((6, 5)))
