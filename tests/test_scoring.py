"""Scorers, gradients, trainers, standardization, serialization."""

import itertools

import numpy as np
import pytest

from firm import (BudgetExceededError, FirmError, KernelExpansionScorer, KernelSpec,
                  LabelOracleScorer, LinearScorer, PositionalKmerScorer, SequenceDataset,
                  TabularDataset, gradient_at, score_many, scorer_from_json, scorer_to_json, standardize,
                  train_kernel_ridge, train_least_squares, train_positional_kmer,
                  train_ridge)
from firm.scoring import kmer_offsets

from helpers import (all_pm1_rows, central_difference_gradient, explicit_kmer_ridge,
                     kernel_gradient_at, kmer_scorer, kmer_weight)


class TestScore:
    def test_linear(self):
        assert LinearScorer(w=[1.0, 2.0], b=0.0).score_many([[1.0, 1.0]])[0] == 3.0

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

    def test_oracle_miss(self):
        sc = LabelOracleScorer(table={(1.0, 2.0): 5.0})
        np.testing.assert_array_equal(sc.score_many([[1.0, 2.0]]), [5.0])
        with pytest.raises(FirmError, match="oracle miss"):
            sc.score_many([[1.0, 2.0], [1.0, 3.0]])

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
        with pytest.raises(FirmError):
            gradient_at(LabelOracleScorer(table={}), np.zeros(2))

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

    def test_boolean_truth_table_separable_by_degree_two(self):
        X = all_pm1_rows(3)
        y = np.array([1.0 if (r[0] > 0 or r[1] < 0) else -1.0 for r in X])
        ds = TabularDataset(X=X, y=y, names=("x1", "x2", "x3"))
        sc = train_kernel_ridge(ds, KernelSpec.polynomial(2, 1.0), 1e-6)
        np.testing.assert_array_equal(np.sign(score_many(sc, X)), y)


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

    def test_constant_labels_give_zero_weights(self):
        seqs = ("ACGT", "TTAG", "CCGA")
        ds = SequenceDataset(sequences=seqs, y=np.ones(3))
        sc = train_positional_kmer(ds, K=2, lam=1e-2)
        assert np.abs(sc.weights).max() < 1e-12
        assert sc.b == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("K,n,L,seed", [(1, 12, 5, 0), (2, 25, 6, 1), (3, 40, 7, 2),
                                            (3, 6, 9, 3)])
    def test_matches_explicit_design(self, K, n, L, seed):
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
        seen = kmer_scorer(ds.alphabet, L, K, dict.fromkeys(want, 1.0)).weights
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


class TestStandardize:
    def test_unit_variance_after(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(50, 3))
        ds = TabularDataset(X=X, y=None, names=("a", "b", "c"))
        sc = standardize(LinearScorer(w=[1.0, -2.0, 0.5], b=3.0), ds)
        assert np.var(score_many(sc, X)) == pytest.approx(1.0, abs=1e-10)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(50, 2))
        ds = TabularDataset(X=X, y=None, names=("a", "b"))
        once = standardize(LinearScorer(w=[2.0, 1.0], b=-1.0), ds)
        twice = standardize(once, ds)
        np.testing.assert_allclose(twice.w, once.w, rtol=1e-12)
        assert twice.b == pytest.approx(once.b, rel=1e-12)

    def test_constant_scorer_rejected(self):
        ds = TabularDataset(X=np.eye(3), y=None, names=("a", "b", "c"))
        with pytest.raises(FirmError, match="zero score variance"):
            standardize(LinearScorer(w=[0.0, 0.0, 0.0], b=4.0), ds)

    def test_kmer_scorer_standardizes(self):
        seqs = ("ACGT", "TTAG", "CCGA", "GGTA")
        ds = SequenceDataset(sequences=seqs, y=np.array([1.0, -1.0, 1.0, -1.0]))
        sc = kmer_scorer(("A", "C", "G", "T"), 4, 1, {(0, "A"): 2.0}, b=0.5)
        out = standardize(sc, ds)
        assert np.var(score_many(out, seqs)) == pytest.approx(1.0, abs=1e-12)


class TestSerialization:
    @pytest.mark.parametrize("make", [
        lambda: LinearScorer(w=[1.5, -2.0], b=0.25),
        lambda: KernelExpansionScorer(points=np.array([[1.0, 2.0], [0.0, -1.0]]),
                                      alpha=[0.5, -0.5], b=1.0,
                                      kernel=KernelSpec.gaussian(2.0)),
        lambda: KernelExpansionScorer(points=np.array([[1.0], [2.0]]),
                                      alpha=[1.0, 1.0], b=0.0,
                                      kernel=KernelSpec.polynomial(3, 0.5)),
        lambda: LabelOracleScorer(table={(1.0, -1.0): 2.5, (0.0, 3.0): -1.0}),
        lambda: LabelOracleScorer(table={"ACGT": 1.0, "TTTT": -1.0}),
        lambda: kmer_scorer(("A", "C", "G", "T"), 5, 2,
                            {(0, "GA"): 1.25, (3, "T"): -0.5}, b=0.75),
    ])
    def test_roundtrip(self, make):
        sc = make()
        doc = scorer_to_json(sc)
        back = scorer_from_json(doc)
        assert scorer_to_json(back) == doc
        if isinstance(sc, (LabelOracleScorer,)):
            assert back.table == sc.table
        elif isinstance(sc, PositionalKmerScorer):
            np.testing.assert_array_equal(back.weights, sc.weights)
            assert back.b == sc.b
        elif isinstance(sc, LinearScorer):
            np.testing.assert_array_equal(back.w, sc.w)
            assert back.b == sc.b
        else:
            np.testing.assert_array_equal(back.points, sc.points)
            np.testing.assert_array_equal(back.alpha, sc.alpha)
            assert back.kernel == sc.kernel
