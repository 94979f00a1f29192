"""Scorers, gradients, trainers."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import firm.scoring
from firm import (BudgetExceededError, FirmError, KernelExpansionScorer, KernelSpec,
                  LinearScorer, SequenceDataset,
                  TabularDataset, gradient_at, score_many,
                  train_kernel_ridge, train_least_squares,
                  train_positional_kmer, train_ridge)
from firm.dataset import DNA_ALPHABET
from firm.scoring import _BLOCK_CELLS, _TRI_ROWS, _LowerTriangle, _solve_shifted, kmer_offsets

from helpers import (all_pm1_rows, central_difference_gradient, explicit_kmer_ridge,
                     kernel_gradient_at, kmer_scorer, kmer_weight, least_squares_with_ones,
                     reference_gram)


class TestScore:
    def test_linear(self):
        assert LinearScorer(w=[1.0, 2.0], b=0.0).score_many([[1.0, 1.0]])[0] == 3.0

    def test_array_holding_values_compare_by_identity(self):
        """`==` on two equal-valued instances returns instead of asking an
        array for its truth value."""
        for make in (lambda: LinearScorer(w=[1.0, 2.0]),
                     lambda: TabularDataset(X=np.eye(2), y=None, names=("a", "b")),
                     lambda: SequenceDataset(sequences=("AC", "GT"), y=[1.0, -1.0])):
            obj = make()
            assert (obj == make()) is False
            assert obj == obj

    def test_gaussian_kernel_at_own_point(self):
        pt = np.array([[0.3, -0.7]])
        sc = KernelExpansionScorer(points=pt, alpha=[1.0], b=0.0,
                                   kernel=KernelSpec.gaussian(1.0))
        assert sc.score_many(pt)[0] == pytest.approx(1.0, abs=1e-15)

    def test_positional_kmer_indicator(self):
        sc = kmer_scorer(("A", "C", "G", "T"), 4, 3, {(0, "GAT"): 1.0}, b=0.0)
        np.testing.assert_array_equal(sc.score_many(["GATT", "AGAT"]), [1.0, 0.0])

    def test_kmer_scorer_rejects_bad_sequences(self):
        sc = kmer_scorer(("A", "C", "G", "T"), 4, 2, {(0, "GA"): 1.0}, b=0.0)
        with pytest.raises(FirmError, match="symbol X not in alphabet at line 2"):
            sc.score_many(["ACGT", "ACXT"])
        with pytest.raises(FirmError, match="length mismatch at line 2"):
            sc.score_many(["ACGT", "ACG"])
        with pytest.raises(FirmError, match="length mismatch at line 1"):
            sc.score_many(["ACGTA"])

    def test_dimension_mismatch(self):
        with pytest.raises(FirmError):
            LinearScorer(w=[1.0, 2.0]).score_many([[1.0]])

    def test_score_is_pure(self):
        sc = KernelExpansionScorer(points=np.array([[0.1, 0.2], [0.3, -0.4]]),
                                   alpha=[0.5, -1.5], b=0.2,
                                   kernel=KernelSpec.gaussian(2.0))
        x = [[0.05, -0.02]]
        assert sc.score_many(x)[0] == sc.score_many(x)[0]


class TestGradient:
    def test_linear_gradient(self):
        np.testing.assert_array_equal(gradient_at(LinearScorer(w=[3.0, -1.0]), np.zeros(2)),
                                      [3.0, -1.0])

    def test_gaussian_kernel_closed_form(self):
        sc = KernelExpansionScorer(points=np.array([[1.0, 0.0]]), alpha=[1.0], b=0.0,
                                   kernel=KernelSpec.gaussian(1.0))
        g = gradient_at(sc, np.zeros(2))
        np.testing.assert_allclose(g, [2 * np.exp(-1.0), 0.0], rtol=1e-15)

    def test_polynomial_zero_offset_degree_two(self):
        sc = KernelExpansionScorer(points=np.array([[1.0, 2.0], [0.5, -1.0]]),
                                   alpha=[1.0, -2.0], b=0.3,
                                   kernel=KernelSpec.polynomial(2, 0.0))
        np.testing.assert_array_equal(gradient_at(sc, np.zeros(2)), [0.0, 0.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        kernels = [KernelSpec.gaussian(1.7), KernelSpec.polynomial(2, 1.0),
                   KernelSpec.polynomial(3, 0.5)]
        for trial in range(12):
            d = rng.integers(1, 5)
            kernel = kernels[trial % len(kernels)]
            sc = KernelExpansionScorer(points=rng.normal(size=(3, d)),
                                       alpha=rng.normal(size=3), b=rng.normal(),
                                       kernel=kernel)
            x0 = rng.normal(size=d) * 0.5
            num = central_difference_gradient(sc, x0)
            ana = gradient_at(sc, x0)
            np.testing.assert_allclose(ana, num, rtol=1e-6, atol=1e-8)
            num0 = central_difference_gradient(sc, np.zeros(d))
            np.testing.assert_allclose(gradient_at(sc, np.zeros(d)), num0,
                                       rtol=1e-6, atol=1e-8)

    def test_oracle_has_no_gradient(self):
        sc = kmer_scorer(("A", "C"), 2, 1, {(0, "A"): 1.0})
        with pytest.raises(FirmError, match="PositionalKmerScorer has no gradient"):
            gradient_at(sc, np.zeros(2))

    def test_linear_gradient_is_one_row(self):
        g = LinearScorer(w=[3.0, -1.0]).gradient_many(np.ones((5, 2)))
        np.testing.assert_array_equal(g, [[3.0, -1.0]])

    @pytest.mark.parametrize("kernel", [KernelSpec.gaussian(1.3)] + [
        KernelSpec.polynomial(p, c) for p in (1, 2, 3) for c in (0.0, 0.5)],
        ids=lambda k: f"{k.variant}-{k.gamma or k.degree}-{k.offset}")
    @pytest.mark.parametrize("d", [1, 3])
    def test_gradient_many_matches_per_point_formula(self, kernel, d):
        rng = np.random.default_rng(d)
        sc = KernelExpansionScorer(points=rng.normal(size=(7, d)),
                                   alpha=rng.normal(size=7), b=0.4, kernel=kernel)
        X = rng.normal(size=(25, d))
        grads = sc.gradient_many(X)
        assert grads.shape == (25, d)
        for x, g in zip(X, grads):
            np.testing.assert_allclose(g, kernel_gradient_at(sc, x), rtol=1e-12, atol=0)


class TestLeastSquares:
    def test_exact_recovery(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3))
        y = 2.0 * X[:, 0]
        sc = train_least_squares(TabularDataset(X=X, y=y, names=("a", "b", "c")))
        np.testing.assert_allclose(sc.w, [2.0, 0.0, 0.0], atol=1e-10)
        assert abs(sc.b) < 1e-10

    def test_rank_deficiency_rejected(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(3, 4))  # n < d+1
        with pytest.raises(FirmError, match="ridge"):
            train_least_squares(TabularDataset(X=X, y=np.ones(3),
                                               names=("a", "b", "c", "d")))

    @pytest.mark.parametrize("case", ["n = d", "duplicated column", "combination of columns"])
    def test_dependent_columns_rejected(self, case):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4 if case == "n = d" else 30, 4))
        if case == "duplicated column":
            X[:, 3] = X[:, 1]
        elif case == "combination of columns":
            X[:, 3] = 2.0 * X[:, 0] - 0.5 * X[:, 2] + 1.0
        with pytest.raises(FirmError, match="ridge"):
            train_least_squares(TabularDataset(X=X, y=rng.normal(size=X.shape[0]),
                                               names=("a", "b", "c", "d")))

    def test_n_equal_to_d_rejected_where_rounding_passes_the_rank_test(self):
        """Two centered rows have rank 1, but here rounding leaves R's second
        diagonal entry above lstsq's threshold: only n <= d refuses them."""
        rng = np.random.default_rng(75)
        X = rng.normal(size=(2, 2)) * 10.0 ** rng.integers(-5, 5, size=2)
        with pytest.raises(FirmError, match="ridge"):
            train_least_squares(TabularDataset(X=X, y=rng.normal(size=2), names=("a", "b")))

    @pytest.mark.parametrize("n", [7, 50, 2 ** 16 // 4, 2 ** 16 // 4 + 1, 2 * (2 ** 16 // 4) + 3])
    def test_agrees_with_lstsq_on_the_ones_design(self, n):
        """At d = 3 the QR folds blocks of 2**16 // 4 rows: n below, at and
        past one block and past two give lstsq's fit on [X, 1]."""
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 3)) * [1.0, 10.0, 0.1] + [5.0, -2.0, 0.0]
        y = X @ [1.0, -0.3, 2.0] + rng.normal(size=n) + 4.0
        sc = train_least_squares(TabularDataset(X=X, y=y, names=("a", "b", "c")))
        w, b = least_squares_with_ones(X, y)
        want, got = np.append(w, b), np.append(sc.w, sc.b)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("seed", range(5))
    def test_stable_at_condition_number_1e6(self, seed):
        """On a design with singular values 1 .. 1e-6 and column means near
        0, so that centering keeps its condition number near 1e6, the fit
        stays within 1e-8 of lstsq on [X, 1] (at most 4.7e-9 over seeds
        0-39); the d x d normal equations, whose condition number is the
        square, were 2.8e-7 or more away on each of those seeds."""
        rng = np.random.default_rng(seed)
        n, d = 500, 6
        U, V = np.linalg.qr(rng.normal(size=(n, d)))[0], np.linalg.qr(rng.normal(size=(d, d)))[0]
        X = (U * np.logspace(0, -6, d)) @ V.T
        y = X @ rng.normal(size=d) + 0.01 * rng.normal(size=n) + 3.0
        sc = train_least_squares(TabularDataset(X=X, y=y, names=tuple("abcdef")))
        w, b = least_squares_with_ones(X, y)
        want, got = np.append(w, b), np.append(sc.w, sc.b)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 4))
        y = rng.normal(size=40)
        sc = train_least_squares(TabularDataset(X=X, y=y,
                                                names=tuple("abcd")))
        resid = X @ sc.w + sc.b - y
        np.testing.assert_allclose(X.T @ resid, np.zeros(4), atol=1e-8)
        assert abs(resid.sum()) < 1e-8


class TestRidge:
    def test_small_lambda_approaches_least_squares(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        ds = TabularDataset(X=X, y=y, names=("a", "b", "c"))
        ls = train_least_squares(ds)
        rg = train_ridge(ds, 1e-10)
        np.testing.assert_allclose(rg.w, ls.w, atol=1e-6)
        assert rg.b == pytest.approx(ls.b, abs=1e-6)

    def test_large_lambda_collapses_to_mean(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        rg = train_ridge(TabularDataset(X=X, y=y, names=("a", "b", "c")), 1e9)
        np.testing.assert_allclose(rg.w, np.zeros(3), atol=1e-6)
        assert rg.b == pytest.approx(y.mean(), abs=1e-6)

    def test_duplicate_columns_get_equal_weights(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=20)
        X = np.column_stack([base, base, rng.normal(size=20)])
        y = rng.normal(size=20)
        rg = train_ridge(TabularDataset(X=X, y=y, names=("a", "a2", "b")), 0.1)
        assert np.isfinite(rg.w).all()
        assert rg.w[0] == pytest.approx(rg.w[1], rel=1e-10)

    def test_lambda_must_be_positive(self):
        ds = TabularDataset(X=np.eye(2), y=np.ones(2), names=("a", "b"))
        with pytest.raises(FirmError):
            train_ridge(ds, 0.0)


class TestKernelRidge:
    def test_interpolation_limit(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        ds = TabularDataset(X=X, y=y, names=("a", "b"))
        sc = train_kernel_ridge(ds, KernelSpec.gaussian(1.5), 1e-12)
        np.testing.assert_allclose(score_many(sc, X), y, atol=1e-5)

    def test_large_lambda_collapses_to_mean_label(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        ds = TabularDataset(X=X, y=y, names=("a", "b"))
        sc = train_kernel_ridge(ds, KernelSpec.gaussian(1.5), 1e9)
        np.testing.assert_allclose(score_many(sc, X), np.full(15, y.mean()), atol=1e-6)

    def test_each_kernel_array_is_checked_against_the_budget(self, monkeypatch):
        """The kept triangle (64 x 64 and 36 x 100 blocks, 7696 cells at
        n = 100), a computed n x m matrix and each of the LU fallback's two
        n x n arrays raise BudgetExceededError past the budget, and fit
        within it."""
        X = np.random.default_rng(3).normal(size=(100, 2))
        kernel, b = KernelSpec.gaussian(1.0), np.sin(X[:, 0])
        monkeypatch.setattr(firm.scoring, "DEFAULT_CELL_BUDGET", 7695)
        with pytest.raises(BudgetExceededError, match="100 rows needs 7696 cells; budget 7695"):
            kernel.self_gram(X)
        monkeypatch.setattr(firm.scoring, "DEFAULT_CELL_BUDGET", 9999)
        assert kernel.gram(X, X[:99]).shape == (100, 99)
        with pytest.raises(BudgetExceededError, match="100 x 100 kernel matrix needs 10000"):
            kernel.gram(X, X)
        P = kernel.self_gram(X)
        monkeypatch.setattr(firm.scoring, "_CG_BUDGET", 0)     # no CG step: LU
        with pytest.raises(BudgetExceededError, match="two 100 x 100 arrays needs 10000"):
            _solve_shifted(P, 0.1, b)
        monkeypatch.setattr(firm.scoring, "DEFAULT_CELL_BUDGET", 10000)
        x = _solve_shifted(P, 0.1, b)
        assert np.abs(P @ x + 0.1 * x - b).max() <= 1e-12

    def test_polynomial_gradient_is_checked_against_the_budget(self, monkeypatch):
        """The polynomial gradient's n x m matrix raises BudgetExceededError
        past the budget, before it is allocated, and is computed within it."""
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 2))
        sc = KernelExpansionScorer(points=X, alpha=rng.normal(size=100), b=0.0,
                                   kernel=KernelSpec.polynomial(3, 1.0))
        want = sc.gradient_many(X)
        monkeypatch.setattr(firm.scoring, "DEFAULT_CELL_BUDGET", 9999)
        with pytest.raises(BudgetExceededError, match="100 x 100 kernel matrix needs 10000"):
            sc.gradient_many(X)
        np.testing.assert_allclose(sc.gradient_many(X[:99]), want[:99], rtol=1e-12)
        monkeypatch.setattr(firm.scoring, "DEFAULT_CELL_BUDGET", 10000)
        assert sc.gradient_many(X).tobytes() == want.tobytes()

    def test_boolean_truth_table_separable_by_degree_two(self):
        X = all_pm1_rows(3)
        y = np.array([1.0 if (r[0] > 0 or r[1] < 0) else -1.0 for r in X])
        ds = TabularDataset(X=X, y=y, names=("x1", "x2", "x3"))
        sc = train_kernel_ridge(ds, KernelSpec.polynomial(2, 1.0), 1e-6)
        np.testing.assert_array_equal(np.sign(score_many(sc, X)), y)


kernel_specs = st.one_of(
    st.floats(0.1, 10.0).map(KernelSpec.gaussian),
    st.builds(KernelSpec.polynomial, st.integers(1, 5), st.floats(0.0, 2.0)))


def row_matrices(rows, d):
    return hnp.arrays(np.float64, (rows, d), elements=st.floats(-3.0, 3.0))


@st.composite
def gram_cases(draw):
    """(kernel, A, B); B is sometimes A itself, the training case."""
    d = draw(st.integers(1, 4))
    A = draw(row_matrices(draw(st.integers(1, 6)), d))
    B = A if draw(st.booleans()) else draw(row_matrices(draw(st.integers(1, 6)), d))
    return draw(kernel_specs), A, B


class TestKernelSpec:
    @pytest.mark.parametrize("make,param", [
        (lambda: KernelSpec.gaussian(0.0), "gamma"),
        (lambda: KernelSpec.polynomial(0), "degree"),
        (lambda: KernelSpec.polynomial(2.5), "degree"),
        (lambda: KernelSpec.polynomial(np.nan), "degree"),
        (lambda: KernelSpec.polynomial(2, -1.0), "offset"),
        (lambda: KernelSpec.polynomial(2, np.inf), "offset"),
    ], ids=["gamma-zero", "degree-zero", "degree-fractional", "degree-nan",
            "offset-negative", "offset-inf"])
    def test_invalid_parameters_rejected(self, make, param):
        with pytest.raises(FirmError, match=param):
            make()

    def test_integral_float_degree_accepted(self):
        assert KernelSpec.polynomial(2.0) == KernelSpec.polynomial(2)


class TestGram:
    @given(gram_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_one_expression_formula_bitwise(self, case):
        kernel, A, B = case
        K = kernel.gram(A, B)
        assert K.shape == (A.shape[0], B.shape[0])
        assert K.tobytes() == reference_gram(kernel, A, B).tobytes()

    @pytest.mark.parametrize("kernel", [KernelSpec.gaussian(1.7), KernelSpec.polynomial(2, 0.5)],
                             ids=lambda k: k.variant)
    @pytest.mark.parametrize("m", [None, 7, 300], ids=["A", "m=7", "m=300"])
    def test_row_blocks_match_one_expression_formula_bitwise(self, kernel, m):
        """A spans two blocks and 3 rows more; for B = A (515 rows) that is
        16 blocks of 31 rows and one of 19."""
        rng = np.random.default_rng(5)
        A = rng.normal(size=(515 if m is None else 2 * (_BLOCK_CELLS // m) + 3, 3))
        B = A if m is None else rng.normal(size=(m, 3))
        assert kernel.gram(A, B).tobytes() == reference_gram(kernel, A, B).tobytes()


def lower_triangle(values):
    """An unsealed _LowerTriangle holding the n x n array values' cells in
    its blocks, diagonal squares whole."""
    S = _LowerTriangle(values.shape[0])
    for i0, i1, blk in S:
        blk[...] = values[i0:i1, :i1]
    return S


class TestLowerTriangle:
    """A symmetric matrix kept as row blocks of its lower triangle."""

    SIZES = [1, 63, 64, 65, 129, 255, 256, 257, 513, 700]

    @given(st.sampled_from(SIZES), st.sampled_from([(), (3,)]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_product_matches_the_full_matrix(self, n, tail, seed):
        """Random blocks, not symmetric as drawn: the diagonal squares are
        mirrored, so full() is exactly symmetric and keeps every block's
        cells on and below the diagonal; S @ V for a vector or a matrix V
        is full() @ V to within 1e-13 of the terms' magnitudes."""
        rng = np.random.default_rng(seed)
        drawn = rng.normal(size=(n, n))
        S = lower_triangle(drawn).seal()
        M = S.full()
        assert (M == M.T).all() and (np.tril(M) == np.tril(drawn)).all()
        V = rng.normal(size=(n,) + tail)
        got = S @ V
        assert got.shape == V.shape
        assert (np.abs(got - M @ V) <= 1e-13 * (np.abs(M) @ np.abs(V))).all()

    @pytest.mark.parametrize("n", SIZES)
    def test_iteration_covers_the_lower_triangle_once(self, n):
        """Consecutive blocks of at most _TRI_ROWS rows, each reaching to its
        own diagonal: every cell on or below the diagonal once, and above
        it only the diagonal squares' cells, once each."""
        seen, last = np.zeros((n, n), dtype=int), 0
        for i0, i1, blk in _LowerTriangle(n):
            assert i0 == last and 0 < i1 - i0 <= _TRI_ROWS and blk.shape == (i1 - i0, i1)
            seen[i0:i1, :i1] += 1
            last = i1
        assert last == n and seen.max() == 1 and (np.tril(seen) == np.tril(np.ones(n))).all()
        block_of = np.arange(n) // _TRI_ROWS
        assert (np.triu(seen, 1) == np.triu(block_of[:, None] == block_of, 1)).all()

    @pytest.mark.parametrize("n", SIZES)
    def test_seal_mirrors_the_squares_and_freezes(self, n):
        drawn = np.random.default_rng(n).normal(size=(n, n))
        S = lower_triangle(drawn)
        assert S.seal() is S
        for i0, i1, blk in S:
            square = blk[:, i0:]
            assert not blk.flags.writeable
            assert square.tobytes() == square.T.tobytes()
            assert (np.tril(square) == np.tril(drawn[i0:i1, i0:i1])).all()
            assert blk[:, :i0].tobytes() == drawn[i0:i1, :i0].tobytes()
            with pytest.raises(ValueError, match="read-only"):
                blk[0, 0] = 0.0

    @pytest.mark.parametrize("n", SIZES)
    def test_row_sums_of_counts_are_exact(self, n):
        """Integer cells: S @ 1 is full()'s row sums bitwise, before the
        blocks are sealed as after."""
        A = np.random.default_rng(n).integers(0, 2 ** 30, size=(n, n))
        S = lower_triangle((A + A.T).astype(np.float64))
        want = S.full().sum(axis=1)
        assert (S @ np.ones(n)).tobytes() == want.tobytes()
        assert (S.seal() @ np.ones(n)).tobytes() == want.tobytes()


class TestKeptGram:
    """train_kernel_ridge's scorer reuses its training Gram matrix."""

    KERNELS = [KernelSpec.gaussian(1.5), KernelSpec.polynomial(3, 0.5)]

    @staticmethod
    def trained(kernel):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 3))
        X[5, 1] = 0.0
        ds = TabularDataset(X=X, y=np.sin(X[:, 0]) + X[:, 1] * X[:, 2],
                            names=("a", "b", "c"))
        return ds, train_kernel_ridge(ds, kernel, 0.01)

    @staticmethod
    def count_gram_calls(monkeypatch):
        calls = []
        gram = KernelSpec.gram

        def counted(self, A, B):
            calls.append(A.shape)
            return gram(self, A, B)

        monkeypatch.setattr(KernelSpec, "gram", counted)
        return calls

    @staticmethod
    def bits(sc, X):
        return sc.score_many(X).tobytes(), sc.gradient_many(X).tobytes()

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.variant)
    def test_kept_matrix_is_the_read_only_training_gram(self, kernel):
        ds, sc = self.trained(kernel)
        assert isinstance(sc._gram, _LowerTriangle)
        assert not any(blk.flags.writeable for blk in sc._gram.blocks)
        assert sc._gram.full().tobytes() == kernel.gram(ds.X, ds.X).tobytes()

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.variant)
    def test_training_rows_reuse_it_bitwise(self, kernel, monkeypatch):
        ds, sc = self.trained(kernel)
        rebuilt = replace(sc)
        assert rebuilt._gram is None
        expected = self.bits(rebuilt, ds.X)
        calls = self.count_gram_calls(monkeypatch)
        assert self.bits(sc, ds.X) == expected
        assert self.bits(sc, ds.X.copy()) == expected
        assert calls == []

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.variant)
    def test_other_inputs_recompute(self, kernel, monkeypatch):
        ds, sc = self.trained(kernel)
        rebuilt = replace(sc)
        signed_zero = ds.X.copy()
        signed_zero[5, 1] = -0.0
        assert np.array_equal(signed_zero, ds.X)
        others = [ds.X + 1e-3, signed_zero, ds.X[:10], ds.X[::-1]]
        calls = self.count_gram_calls(monkeypatch)
        for X in others:
            expected = self.bits(rebuilt, X)
            del calls[:]
            assert self.bits(sc, X) == expected
            assert calls == [X.shape] * (2 if kernel.variant == "gaussian" else 1)

    @pytest.mark.parametrize("rows", [None, 300], ids=["training", "other"])
    def test_gaussian_gradient_matches_one_expression_formula(self, rows):
        """(2/gamma^2) (K (alpha o P) - (K alpha) o Z): bitwise on other
        rows; on the training rows the kept blocks sum each product in
        another order, so there within 1e-13 of the terms' magnitudes. The
        kept Gram matrix stays intact, and equals the one-expression
        matrix on these 515 rows (nine blocks)."""
        rng = np.random.default_rng(13)
        X = rng.normal(size=(515, 3))
        kernel = KernelSpec.gaussian(1.5)
        sc = train_kernel_ridge(TabularDataset(X=X, y=np.sin(X[:, 0]), names=("a", "b", "c")),
                                kernel, 0.01)
        kept = [blk.tobytes() for blk in sc._gram.blocks]
        Z = X if rows is None else rng.normal(size=(rows, 3))
        K, a, c = reference_gram(kernel, Z, X), sc.alpha, 2.0 / kernel.gamma ** 2
        want = c * (K @ (a[:, None] * X) - (K @ a)[:, None] * Z)
        got = sc.gradient_many(Z)
        if rows is None:
            size = c * (np.abs(K) @ np.abs(a[:, None] * X)
                        + (np.abs(K) @ np.abs(a))[:, None] * np.abs(Z))
            assert (np.abs(got - want) <= 1e-13 * size).all()
        else:
            assert got.tobytes() == want.tobytes()
        assert [blk.tobytes() for blk in sc._gram.blocks] == kept
        assert sc._gram.full().tobytes() == reference_gram(kernel, X, X).tobytes()

    @pytest.mark.parametrize("rows", [None, 300], ids=["training", "other"])
    def test_polynomial_gradient_matches_one_expression_formula_bitwise(self, rows):
        """(Z P' + c)^(p-1) (p alpha o P) on the training rows and on others."""
        rng = np.random.default_rng(14)
        X = rng.normal(size=(515, 3))
        kernel = KernelSpec.polynomial(3, 0.5)
        sc = train_kernel_ridge(TabularDataset(X=X, y=np.sin(X[:, 0]), names=("a", "b", "c")),
                                kernel, 0.01)
        Z = X if rows is None else rng.normal(size=(rows, 3))
        want = (Z @ X.T + 0.5) ** 2 @ (3 * sc.alpha[:, None] * X)
        assert sc.gradient_many(Z).tobytes() == want.tobytes()

    def test_not_an_argument_not_in_repr(self):
        ds, sc = self.trained(self.KERNELS[0])
        rebuilt = replace(sc)
        assert repr(rebuilt) == repr(sc) and "_gram" not in repr(sc)
        with pytest.raises(TypeError):
            KernelExpansionScorer(points=ds.X, alpha=sc.alpha, b=sc.b,
                                  kernel=sc.kernel, _gram=sc._gram)

    def test_kept_matrix_survives_the_cg_solve(self, monkeypatch):
        X = np.random.default_rng(4).normal(size=(1200, 6))
        ds = TabularDataset(X=X, y=np.sin(X[:, 0]), names=tuple("abcdef"))
        kernel = KernelSpec.gaussian(1.0)
        monkeypatch.setattr(np.linalg, "solve", None)     # CG path only
        sc = train_kernel_ridge(ds, kernel, 0.1)
        fresh = kernel.self_gram(ds.X)
        assert [b.tobytes() for b in sc._gram.blocks] == [b.tobytes() for b in fresh.blocks]
        assert sc._gram.full().tobytes() == kernel.gram(ds.X, ds.X).tobytes()

    def test_training_leaves_data_unchanged(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 2))
        ds = TabularDataset(X=X, y=X[:, 0], names=("a", "b"))
        before = ds.X.tobytes()
        train_kernel_ridge(ds, KernelSpec.gaussian(1.0), 0.1)
        assert ds.X.tobytes() == before == X.tobytes()
        assert not ds.X.flags.writeable


class TestShiftedSolve:
    """_solve_shifted: conjugate gradients for at most 64 steps, then LU if they fail."""

    N = 1200
    TOL = np.sqrt(N) * np.finfo(np.float64).eps / 4

    @classmethod
    def system(cls, kernel, lam, n=N):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(n, 6))
        if kernel.variant == "polynomial":
            X *= 0.3
        P = kernel.self_gram(X)
        return P, n * lam, np.sin(X[:, 0]) + X[:, 1] * X[:, 2]

    @staticmethod
    def lu(P, shift, b):
        M = P.full()
        M[np.diag_indices(len(b))] += shift
        return M, np.linalg.solve(M, b)

    @staticmethod
    def bits(P):
        return [blk.tobytes() for blk in P.blocks]

    @staticmethod
    def count_matvecs(monkeypatch, perturb=None):
        calls = []
        matmul = _LowerTriangle.__matmul__

        def counted(P, v):
            calls.append(1)
            out = matmul(P, v)
            if perturb is not None:
                perturb(out, v)
            return out

        monkeypatch.setattr(_LowerTriangle, "__matmul__", counted)
        return calls

    @pytest.mark.parametrize("kernel", [KernelSpec.gaussian(1.0), KernelSpec.polynomial(2, 0.0)],
                             ids=lambda k: k.variant)
    def test_well_conditioned_takes_cg(self, kernel, monkeypatch):
        P, shift, b = self.system(kernel, 0.1)
        before = self.bits(P)
        M, ref = self.lu(P, shift, b)
        kappa = 1.0 + np.linalg.norm(P.full()) / shift
        calls = self.count_matvecs(monkeypatch)
        monkeypatch.setattr(np.linalg, "solve", None)
        x = _solve_shifted(P, shift, b)
        assert 2 <= len(calls) < self.N / 32 and self.bits(P) == before
        r_cg, r_lu = (np.linalg.norm(b - M @ v) for v in (x, ref))
        assert r_cg <= self.TOL * np.linalg.norm(b)
        # x - ref = M^-1 (r_lu - r_cg) and ||b|| <= ||M|| ||ref||, so the
        # relative gap is at most kappa (||r_cg|| + ||r_lu||) / ||b||
        gap = np.linalg.norm(x - ref) / np.linalg.norm(ref)
        assert gap <= kappa * (r_cg + r_lu) / np.linalg.norm(b)
        assert gap < 1e-14

    def test_ill_conditioned_falls_back_to_lu(self, monkeypatch):
        """CG runs its whole budget of 64 steps, one residual product fails
        the check, and LU's bits are returned."""
        P, shift, b = self.system(KernelSpec.gaussian(1.0), 1e-12)
        before = self.bits(P)
        _, ref = self.lu(P, shift, b)
        calls = self.count_matvecs(monkeypatch)
        x = _solve_shifted(P, shift, b)
        assert len(calls) == 64 + 1 and self.bits(P) == before
        assert x.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("lam", [0.01, 0.002])
    def test_cg_within_a_budget_of_64_products(self, lam, monkeypatch):
        """At n = 1000 both systems are solved by CG within the budget, with
        no LU; the smaller shift needs more products (36 against 21)."""
        n = 1000
        P, shift, b = self.system(KernelSpec.gaussian(1.0), lam, n)
        _, ref = self.lu(P, shift, b)
        calls = self.count_matvecs(monkeypatch)
        monkeypatch.setattr(np.linalg, "solve", None)
        x = _solve_shifted(P, shift, b)
        assert 2 <= len(calls) <= 64 + 1
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("scale", [0.0, 1e300], ids=["negligible", "huge"])
    def test_scaled_identity_takes_cg_at_small_n(self, scale, monkeypatch):
        """P = scale * I at n = 10, at both ends of the float range: a CG
        step or two and one residual product, no overflow, and LU's answer
        to the last bit or two."""
        P, b = lower_triangle(scale * np.eye(10)).seal(), np.arange(1.0, 11.0)
        _, ref = self.lu(P, 1.0, b)
        calls = self.count_matvecs(monkeypatch)
        monkeypatch.setattr(np.linalg, "solve", None)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            x = _solve_shifted(P, 1.0, b)
        assert 2 <= len(calls) <= 3
        np.testing.assert_allclose(x, ref, rtol=4 * np.finfo(np.float64).eps, atol=0)

    @pytest.mark.parametrize("fault", ["noisy", "indefinite"])
    def test_failed_cg_returns_lu_bits(self, fault, monkeypatch):
        P, shift, b = self.system(KernelSpec.gaussian(1.0), 0.1)
        _, ref = self.lu(P, shift, b)
        rng = np.random.default_rng(0)

        def perturb(out, v):
            if fault == "noisy":      # an answer that cannot pass the residual check
                out += 1e-6 * np.abs(out).max() * rng.normal(size=out.size)
            else:                     # Mv becomes -Mv, so p'Mp < 0: breakdown at the first step
                np.negative(out, out=out)
                out -= 2.0 * shift * v

        calls = self.count_matvecs(monkeypatch, perturb)
        x = _solve_shifted(P, shift, b)
        assert calls and x.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("lam", [0.1, 1e-12], ids=["cg-size", "lu"])
    def test_zero_rhs_gives_exact_zeros(self, lam):
        P, shift, b = self.system(KernelSpec.gaussian(1.0), lam)
        with np.errstate(all="raise"):
            x = _solve_shifted(P, shift, np.zeros_like(b))
        assert x.tobytes() == np.zeros(self.N).tobytes()


class TestPositionalKmerTrainer:
    @staticmethod
    def _exhaustive_dataset(L=3):
        seqs = ["".join(t) for t in itertools.product("ACGT", repeat=L)]
        y = np.array([1.0 if s[0] == "A" else -1.0 for s in seqs])
        return SequenceDataset(sequences=tuple(seqs), y=y)

    def test_position_zero_letter_dominates(self):
        ds = self._exhaustive_dataset()
        sc = train_positional_kmer(ds, K=1, lam=1e-3)
        w1 = np.abs(sc.block(1))
        i, a = np.unravel_index(w1.argmax(), w1.shape)
        assert (i, sc.alphabet[a]) == (0, "A")

    def test_k_zero_rejected(self):
        ds = self._exhaustive_dataset()
        with pytest.raises(FirmError, match="K must be >= 1"):
            train_positional_kmer(ds, K=0, lam=1e-3)

    @pytest.mark.parametrize("lam", [0.1, 0.03, 0.01])
    def test_random_dna_fit_takes_no_lu(self, lam, monkeypatch):
        """A degree-3 fit on 1000 random sequences of length 100 is solved by
        CG within its budget; np.linalg.solve is never called. The dual fit
        took LU at lambda = 0.03."""
        rng = np.random.default_rng(11)
        seqs = ["".join(row) for row in rng.choice(list("ACGT"), size=(1000, 100))]
        ds = SequenceDataset(sequences=tuple(seqs), y=rng.choice([-1.0, 1.0], size=1000))
        monkeypatch.setattr(np.linalg, "solve", None)
        sc = train_positional_kmer(ds, K=3, lam=lam)
        assert np.isfinite(sc.weights).all() and np.abs(sc.weights).max() > 0

    def test_constant_labels_give_zero_weights(self):
        seqs = ("ACGT", "TTAG", "CCGA")
        ds = SequenceDataset(sequences=seqs, y=np.ones(3))
        sc = train_positional_kmer(ds, K=2, lam=1e-2)
        assert np.abs(sc.weights).max() < 1e-12
        assert sc.b == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("K,n,L,seed", [(1, 12, 5, 0), (2, 25, 6, 1), (3, 40, 7, 2),
                                            (3, 6, 9, 3), (3, 300, 65, 4)])
    def test_matches_explicit_design(self, K, n, L, seed):
        """Against the dual solve of the explicit design, also beyond 256
        rows and past 64 positions."""
        rng = np.random.default_rng(seed)
        seqs = tuple("".join(rng.choice(list("ACGT"), size=L)) for _ in range(n))
        ds = SequenceDataset(sequences=seqs, y=rng.choice([-1.0, 1.0], size=n))
        sc = train_positional_kmer(ds, K=K, lam=0.3)
        want, b = explicit_kmer_ridge(ds, K, 0.3)
        scale = max(abs(v) for v in want.values())
        for (i, y), v in want.items():
            assert abs(kmer_weight(sc, i, y) - v) <= 1e-10 * scale
        assert abs(sc.b - b) <= 1e-10 * scale
        # a (position, substring) that never occurs gets exactly 0
        seen = kmer_scorer(DNA_ALPHABET, L, K, dict.fromkeys(want, 1.0)).weights
        assert (seen == 0).any()
        assert (sc.weights[seen == 0] == 0.0).all()

    def test_weight_budget(self):
        assert kmer_offsets(4, 100, 8)[-1] == 8_155_456
        with pytest.raises(BudgetExceededError, match="32272704 weights"):
            kmer_offsets(4, 100, 9)
        seqs = ("ACGTACGTACGTACGTACGT", "TTGCATTGCAAGGCTTACGA", "GGGCCCAAATTTACGTACGA")
        ds = SequenceDataset(sequences=seqs, y=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(BudgetExceededError, match="208783104 weights"):
            train_positional_kmer(ds, K=12, lam=0.1)

    def test_scores_match_feature_map(self):
        rng = np.random.default_rng(9)
        seqs = tuple("".join(rng.choice(list("ACGT"), size=6)) for _ in range(30))
        y = rng.choice([-1.0, 1.0], size=30)
        ds = SequenceDataset(sequences=seqs, y=y)
        sc = train_positional_kmer(ds, K=2, lam=0.5)
        # a ridge fit must reproduce its own normal equations: compare score
        # against the explicit sparse sum
        for s, got in zip(seqs[:5], sc.score_many(seqs[:5])):
            manual = sc.b + sum(kmer_weight(sc, i, s[i:i + k])
                                for k in (1, 2) for i in range(len(s) - k + 1))
            assert got == pytest.approx(manual, rel=1e-12)
