"""Exact binary importance: closed forms, matrix form, invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firm import (DegenerateFeatureError, FirmError, KernelExpansionScorer, KernelSpec,
                  LinearScorer, Projection, SignedConjunction, Xor, conditional_curve,
                  firm_binary_exact, firm_binary_values, firm_from_curve, firm_slope,
                  score_many, train_kernel_ridge)
from firm import experiments

from helpers import (all_pm1_rows, brute_firm_binary, empirical_matrix_diagonals,
                     firm_uniform_conjunction, poim_firm_conversion)


@st.composite
def two_valued_columns(draw):
    """(scores, F, probs): n in 8..2000 rows, k in 2..11 columns, each
    taking two random values (both present), and random point
    probabilities."""
    n, k = draw(st.integers(8, 2000)), draw(st.integers(2, 11))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pick = rng.random(size=(n, k)) < rng.uniform(0.1, 0.9, size=k)
    pick[0], pick[1] = True, False
    F = np.where(pick, *rng.normal(size=(2, 1, k)))
    probs = rng.random(n) + 0.01
    return F @ rng.normal(size=k) + rng.normal(size=n), F, probs / probs.sum()


class TestEachColumnIsItsOneColumnCall:
    """Each column's FirmResult from a call over many columns is, by repr,
    that of a call on the column alone."""

    @settings(max_examples=40, deadline=None)
    @given(two_valued_columns())
    def test_binary_slope_and_curve(self, case):
        s, F, probs = case
        binary = firm_binary_values(s, F, probs=probs)
        slope = firm_slope(s, F)
        for j in range(F.shape[1]):
            col = F[:, j].copy()
            assert repr(binary[j]) == repr(firm_binary_values(s, col, probs=probs,
                                                              names=[f"x{j + 1}"])[0])
            assert repr(slope[j]) == repr(firm_slope(s, col, names=[f"x{j + 1}"])[0])
            assert (repr(firm_from_curve(conditional_curve(s, F[:, j], 2)))
                    == repr(firm_from_curve(conditional_curve(s, col, 2))))


class TestExactOnUniformCube:
    def test_projection_importance_is_the_weight(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 5):
            w = rng.normal(size=d)
            sc = LinearScorer(w=w, b=rng.normal())
            res = firm_binary_exact(sc, [Projection(j) for j in range(d)], all_pm1_rows(d))
            for j, r in enumerate(res):
                assert r.q_signed == pytest.approx(w[j], abs=1e-12)

    def test_pair_conjunction_over_sqrt3(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=4)
        sc = LinearScorer(w=w, b=0.5)
        f = SignedConjunction(literals=((1, 1), (3, 1)))
        [r] = firm_binary_exact(sc, [f], all_pm1_rows(4))
        assert r.q_signed == pytest.approx((w[1] + w[3]) / math.sqrt(3), abs=1e-12)

    def test_xor_importance_vanishes(self):
        rng = np.random.default_rng(2)
        sc = LinearScorer(w=rng.normal(size=3), b=rng.normal())
        [r] = firm_binary_exact(sc, [Xor(0, 2)], all_pm1_rows(3))
        assert r.q_signed == pytest.approx(0.0, abs=1e-12)

    def test_extras_reproduce_the_value(self):
        sc = LinearScorer(w=[1.0, -2.0], b=0.3)
        [r] = firm_binary_exact(sc, [Projection(0)], all_pm1_rows(2))
        e = r.extras
        assert r.q_signed == pytest.approx(
            (e.q_a - e.q_b) * math.sqrt(e.p_a * e.p_b), abs=1e-12)

    def test_degenerate_feature_rejected(self):
        sc = LinearScorer(w=[1.0, 1.0])
        f = SignedConjunction(literals=((0, 1),))
        ones = np.ones((4, 2))
        with pytest.raises(DegenerateFeatureError):
            firm_binary_exact(sc, [f], ones)

    def test_non_finite_probability_rejected(self):
        with pytest.raises(FirmError, match="probabilities must be finite"):
            firm_binary_exact(LinearScorer(w=[1.0]), [Projection(0)], np.ones((2, 1)),
                              probs=[np.nan, 1.0])

    def test_empty_feature_list_rejected(self):
        with pytest.raises(FirmError, match="at least one feature"):
            firm_binary_exact(LinearScorer(w=[1.0, 1.0]), [], all_pm1_rows(2))

    def test_one_call_equals_per_feature_calls(self):
        """All features in one call give, in feature order, the numbers of one
        call per feature, under non-uniform probabilities and a nonlinear
        scorer, bitwise: each column's sums run along its own row, whatever
        other columns share the call."""
        rng = np.random.default_rng(9)
        X = all_pm1_rows(4)
        sc = KernelExpansionScorer(points=rng.normal(size=(5, 4)), alpha=rng.normal(size=5),
                                   b=0.2, kernel=KernelSpec.polynomial(3, 1.0))
        probs = rng.random(X.shape[0])
        probs /= probs.sum()
        feats = [Projection(2), SignedConjunction(literals=((0, 1), (3, -1))), Xor(1, 3),
                 SignedConjunction(literals=((1, -1),)), Projection(0)]
        together = firm_binary_exact(sc, feats, X, probs=probs)
        assert [r.feature for r in together] == [f.describe() for f in feats]
        for f, r in zip(feats, together):
            [alone] = firm_binary_exact(sc, [f], X, probs=probs)
            assert repr(r) == repr(alone)

    def test_boolean_study_one_call_is_bitwise(self):
        """The Boolean study's trained results, now from one call over its 18
        conjunctions, are bitwise those of 18 one-feature calls; its
        artifacts rest on this."""
        data = experiments.boolean_truth_table()
        feats = experiments.boolean_single_features() + experiments.boolean_pair_features()
        model = train_kernel_ridge(data, KernelSpec.polynomial(2, 1.0),
                                   experiments.BOOLEAN_LAMBDA)
        trained = experiments.boolean_experiment()[1]["trained"]
        alone = [firm_binary_exact(model, [f], data.X)[0] for f in feats]
        assert ([repr(r) for r in trained["single"] + trained["pairs"]]
                == [repr(r) for r in alone])


class TestBinaryKernel:
    def test_any_two_values_under_nonuniform_probs(self):
        rng = np.random.default_rng(11)
        n = 40
        F = np.column_stack([rng.choice([0.0, 1.0], size=n),
                             rng.choice([2.0, 5.0], size=n)])
        F[:2] = [[0.0, 2.0], [1.0, 5.0]]       # both values in each column
        scores = rng.normal(size=n)
        probs = rng.random(n)
        probs /= probs.sum()
        res = firm_binary_values(scores, F, probs=probs, names=["u", "v"])
        assert [r.feature for r in res] == ["u", "v"]
        for j, r in enumerate(res):
            assert r.q_signed == pytest.approx(brute_firm_binary(scores, F[:, j], probs),
                                               abs=1e-12)
            p_hi = probs[F[:, j] == F[:, j].max()].sum()
            assert r.extras.p_a == pytest.approx(p_hi, abs=1e-12)

    def test_three_valued_column_named(self):
        F = np.column_stack([[0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 2.0, 1.0]])
        with pytest.raises(FirmError, match="x2 takes 3 values"):
            firm_binary_values(np.arange(4.0), F)

    def test_pm1_matrix_identity(self):
        """Q = M'(Xw + b) with M = 1*d0 + X*d1, the paper's matrix form."""
        rng = np.random.default_rng(12)
        X = rng.choice([-1.0, 1.0], size=(50, 4))
        X[:2] = [[1.0] * 4, [-1.0] * 4]
        w = rng.normal(size=4)
        b = rng.normal()
        d0, d1 = empirical_matrix_diagonals(X)
        M = d0[None, :] + X * d1[None, :]
        got = [r.q_signed for r in firm_binary_values(X @ w + b, X)]
        np.testing.assert_allclose(got, M.T @ (X @ w + b), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("probs", [
        [0.1] * 4, [1.0] * 4, [np.nan, 0.5, 0.25, 0.25], [0.75, -0.25, 0.25, 0.25], [0.5, 0.5],
    ], ids=["sum-below-1", "sum-above-1", "nan", "negative", "length"])
    def test_invalid_probs_rejected(self, probs):
        with pytest.raises(FirmError, match="probabilit") as values_err:
            firm_binary_values([1.0, 2.0, 3.0, 5.0], [0.0, 1.0, 0.0, 1.0], probs=probs)
        with pytest.raises(FirmError) as exact_err:
            firm_binary_exact(LinearScorer(w=[1.0]), [Projection(0)],
                              np.array([[0.0], [1.0], [0.0], [1.0]]), probs=probs)
        assert str(exact_err.value) == str(values_err.value)

    def test_non_finite_importance_rejected(self):
        with np.errstate(all="ignore"), pytest.raises(FirmError, match="not finite"):
            firm_binary_values([np.inf, 0.0, 1.0, -np.inf], [0.0, 1.0, 0.0, 1.0])


class TestEmpiricalMatrixForm:
    """The paper's matrix form M'(Xw + b) is the binary kernel applied to the
    linear scores X @ w + b and the columns of X."""

    def test_full_table_recovers_weights(self):
        X = all_pm1_rows(3)
        w = np.array([0.7, -1.3, 0.2])
        res = firm_binary_values(X @ w + 2.0, X)
        np.testing.assert_allclose([r.q_signed for r in res], w, atol=1e-12)

    def test_uniform_column_diagonals(self):
        X = all_pm1_rows(3)
        d0, d1 = empirical_matrix_diagonals(X)
        np.testing.assert_allclose(d0, np.zeros(3), atol=0)
        np.testing.assert_allclose(d1, np.full(3, 1.0 / 8.0), atol=0)

    def test_matches_brute_force_on_random_data(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(4, 257))
            d = int(rng.integers(1, 9))
            X = rng.choice([-1.0, 1.0], size=(n, d))
            if not ((X == 1).any(axis=0) & (X == -1).any(axis=0)).all():
                continue
            w = rng.normal(size=d)
            b = rng.normal()
            scores = X @ w + b
            res = firm_binary_values(scores, X)
            expect = [brute_firm_binary(scores, X[:, j]) for j in range(d)]
            np.testing.assert_allclose([r.q_signed for r in res], expect, atol=1e-10)

    def test_duplicated_columns_get_equal_importance(self):
        rng = np.random.default_rng(4)
        col = rng.choice([-1.0, 1.0], size=32)
        X = np.column_stack([col, col, rng.choice([-1.0, 1.0], size=32)])
        res = firm_binary_values(X @ np.array([1.0, 0.0, 0.0]), X)
        assert res[0].q_signed == pytest.approx(res[1].q_signed, abs=1e-12)

    def test_single_valued_column_named(self):
        X = np.column_stack([np.ones(4), [-1.0, 1.0, -1.0, 1.0]])
        with pytest.raises(DegenerateFeatureError, match="x1"):
            firm_binary_values(X @ np.array([1.0, 1.0]), X)


class TestUniformConjunctionClosedForm:
    """The closed form (an oracle in helpers) against the package's exact
    binary importance of the conjunction over the full ±1 cube."""

    @staticmethod
    def exact(w, b, lits):
        [r] = firm_binary_exact(LinearScorer(w=w, b=b), [SignedConjunction(literals=lits)],
                                all_pm1_rows(len(w)))
        return r.q_signed

    def test_pair_of_unit_weights(self):
        q = firm_uniform_conjunction(np.array([1.0, 1.0]), ((0, 1), (1, 1)))
        assert q == pytest.approx(2.0 / math.sqrt(3), abs=1e-12)
        assert self.exact([1.0, 1.0], 0.0, ((0, 1), (1, 1))) == pytest.approx(q, abs=1e-12)

    def test_single_literal_is_the_weight(self):
        q = firm_uniform_conjunction(np.array([0.4, -0.9]), ((0, 1),))
        assert q == pytest.approx(0.4, abs=1e-12)
        assert self.exact([0.4, -0.9], 1.0, ((0, 1),)) == pytest.approx(0.4, abs=1e-12)

    def test_triple_matches_enumeration(self):
        w = np.array([1.0, 1.0, 1.0])
        q = firm_uniform_conjunction(w, ((0, 1), (1, 1), (2, 1)))
        assert q == pytest.approx(3.0 * math.sqrt(1.0 / 7.0), abs=1e-12)
        # brute force over the full cube
        X = all_pm1_rows(3)
        f = SignedConjunction(literals=((0, 1), (1, 1), (2, 1)))
        fv = f.evaluate_rows(X)
        assert q == pytest.approx(brute_firm_binary(X @ w, fv), abs=1e-12)

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_matches_exact_on_random_signed_literals(self, m):
        rng = np.random.default_rng(100 + m)
        d = m + int(rng.integers(0, 3))
        w = rng.normal(size=d)
        b = rng.normal()
        idx = rng.choice(d, size=m, replace=False)
        signs = rng.choice([-1, 1], size=m)
        lits = tuple((int(j), int(s)) for j, s in zip(idx, signs))
        closed = firm_uniform_conjunction(w, lits)
        assert closed == pytest.approx(self.exact(w, b, lits), abs=1e-12)

    def test_empty_literals_rejected(self):
        """The package has no conjunction of m = 0 literals, where p = 1."""
        with pytest.raises(FirmError, match="at least one literal"):
            firm_binary_exact(LinearScorer(w=np.ones(2)), [SignedConjunction(literals=())],
                              all_pm1_rows(2))


class TestScalingConversion:
    """The scalar rescaling that serves as the oracle for PoimTable.firm_values."""

    def test_half_probability_is_identity(self):
        assert poim_firm_conversion(1.7, 0.5) == pytest.approx(1.7, abs=0)

    def test_zero_stays_zero(self):
        assert poim_firm_conversion(0.0, 0.123) == 0.0

    def test_quarter_probability(self):
        assert poim_firm_conversion(1.0, 0.25) == pytest.approx(math.sqrt(3.0), abs=1e-15)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_degenerate_probability_rejected(self, p):
        with pytest.raises(FirmError):
            poim_firm_conversion(1.0, p)


class TestInvariances:
    def test_encoding_invariance(self):
        """Recoding the two feature values by a positive-slope affine map
        leaves the importance unchanged (it only sees q and p)."""
        rng = np.random.default_rng(5)
        X = rng.choice([-1.0, 1.0], size=(64, 3))
        sc = LinearScorer(w=rng.normal(size=3), b=rng.normal())
        scores = score_many(sc, X)
        fv = (X[:, 1] > 0).astype(float)           # {0, 1} encoding
        for a, c in [(1.0, 0.0), (2.5, -3.0), (0.1, 7.0)]:
            recoded = a * fv + c                     # positive slope affine
            assert brute_firm_binary(scores, recoded) == pytest.approx(
                brute_firm_binary(scores, fv), abs=1e-12)

    def test_bias_invariance(self):
        rng = np.random.default_rng(6)
        X = rng.choice([-1.0, 1.0], size=(32, 4))
        w = rng.normal(size=4)
        feats = [Projection(j) for j in range(4) if len(np.unique(X[:, j])) == 2]
        res0 = firm_binary_exact(LinearScorer(w=w, b=0.0), feats, X)
        res1 = firm_binary_exact(LinearScorer(w=w, b=17.5), feats, X)
        for r0, r1 in zip(res0, res1):
            assert r0.q_signed == pytest.approx(r1.q_signed, abs=1e-12)

    def test_weighted_distribution(self):
        """Non-uniform probabilities flow through the conditional means."""
        rng = np.random.default_rng(7)
        X = rng.choice([-1.0, 1.0], size=(16, 2))
        probs = rng.random(16)
        probs /= probs.sum()
        w = rng.normal(size=2)
        sc = LinearScorer(w=w, b=0.1)
        [r] = firm_binary_exact(sc, [Projection(0)], X, probs=probs)
        assert r.q_signed == pytest.approx(
            brute_firm_binary(score_many(sc, X), X[:, 0], probs), abs=1e-12)
