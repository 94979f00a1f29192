"""Binned conditional-score curves and the slope estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firm import (ConditionalScoreCurve, DegenerateFeatureError, FirmError, LinearScorer,
                  Projection, conditional_curve, default_bins,
                  firm_binary_exact, firm_from_curve, firm_slope, slope_stderr)

from helpers import brute_firm_binary, stable_conditional_curve


@st.composite
def tied_columns(draw):
    """(scores, fvals, bins) whose feature values repeat: small integers,
    two values, runs of one value across each equal-count boundary, or a
    few values with 0.0 and -0.0 both present. Some cells of any column
    become 0.0 or -0.0."""
    n = draw(st.integers(4, 300))
    bins = draw(st.integers(2, min(n, 12)))
    kind = draw(st.sampled_from(["integers", "two-valued", "edge-runs", "zeros"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "integers":
        f = rng.integers(-3, 4, size=n).astype(float)
    elif kind == "two-valued":
        f = rng.choice([-1.5, 2.0], size=n)
    elif kind == "edge-runs":
        f = np.sort(rng.normal(size=n))
        for b in range(1, bins):
            t, w = n * b // bins, draw(st.integers(1, 4))
            f[max(t - w, 0):t + w] = f[t]
        rng.shuffle(f)
    else:
        f = rng.choice([-0.0, 0.0, 1.0, -2.0], size=n)
    if draw(st.booleans()):
        f[rng.random(n) < 0.2] = rng.choice([-0.0, 0.0])
        f[rng.random(n) < 0.2] = -0.0
    scores = np.round(rng.normal(size=n), draw(st.integers(0, 17)))
    return scores, f, bins


@st.composite
def blocked_columns(draw):
    """(scores, F) for the slope estimators, whose blocks hold
    max(1, 2**16 // n) columns: n sits just below or at a change of that
    width, d runs across the block boundaries, and each column has its own
    scale, 1e-300 to 1e300."""
    width = draw(st.integers(1, 4))
    n = 2 ** 16 // (width + 1) + draw(st.integers(0, 1))    # width + 1 columns, or width
    d = draw(st.integers(1, 2 * (width + 1) + 1))
    scale = 10.0 ** np.array(draw(st.lists(st.integers(-300, 300), min_size=d, max_size=d)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    unit = rng.normal(size=(n, d))
    return unit @ rng.normal(size=d) + rng.normal(size=n), unit * scale


class TestConditionalCurve:
    def test_binary_values_get_two_bins(self):
        fv = np.array([-1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
        s = np.array([0.0, 4.0, 2.0, 6.0, 5.0, 1.0])
        curve = conditional_curve(s, fv, bins=5)
        assert curve.n_bins == 2
        np.testing.assert_allclose(curve.q_hat, [1.0, 5.0])      # (q_lo, q_hi)
        np.testing.assert_allclose(curve.bin_prob, [0.5, 0.5])

    def test_constant_scores_give_flat_curve(self):
        rng = np.random.default_rng(0)
        fv = rng.normal(size=100)
        curve = conditional_curve(np.full(100, 3.25), fv, bins=8)
        np.testing.assert_allclose(curve.q_hat, np.full(curve.n_bins, 3.25), atol=0)

    def test_normal_identity_curve_tracks_bin_means(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=100_000)
        curve = conditional_curve(x, x, bins=32)
        assert curve.n_bins == 32
        assert (np.diff(curve.q_hat) > 0).all()
        # per-bin mean of the feature itself == q_hat when s(x) = x
        order = np.argsort(x, kind="stable")
        chunks = np.array_split(x[order], 32)
        np.testing.assert_allclose(curve.q_hat, [c.mean() for c in chunks], rtol=1e-12)

    def test_counts_and_probs_consistent(self):
        rng = np.random.default_rng(2)
        fv = rng.integers(0, 7, size=200).astype(float)   # heavy ties
        s = rng.normal(size=200)
        curve = conditional_curve(s, fv, bins=4)
        assert curve.counts.sum() == 200
        assert curve.bin_prob.sum() == pytest.approx(1.0, abs=1e-12)
        assert (curve.counts >= 1).all()
        assert (np.diff(curve.bin_edges) > 0).all()

    def test_ties_never_split(self):
        fv = np.array([1.0] * 50 + [2.0] * 3 + [3.0] * 47)
        s = np.arange(100.0)
        curve = conditional_curve(s, fv, bins=5)
        # three distinct values -> exactly three bins, exact probabilities
        np.testing.assert_allclose(curve.bin_prob, [0.50, 0.03, 0.47], atol=0)

    def test_constant_feature_rejected(self):
        with pytest.raises(DegenerateFeatureError):
            conditional_curve(np.arange(10.0), np.ones(10), bins=3)

    @given(tied_columns())
    @settings(max_examples=300, deadline=None)
    def test_matches_stable_sort_reference_bitwise(self, case):
        scores, fvals, bins = case
        if (fvals == fvals[0]).all():
            with pytest.raises(DegenerateFeatureError):
                conditional_curve(scores, fvals, bins)
            return
        curve = conditional_curve(scores, fvals, bins)
        got = (curve.bin_edges, curve.bin_prob, curve.q_hat, curve.counts)
        for a, want in zip(got, stable_conditional_curve(scores, fvals, bins)):
            assert a.tobytes() == np.asarray(want, dtype=a.dtype).tobytes()

    @pytest.mark.parametrize("bins", [2.5, 3.0, "3"], ids=["fraction", "float", "text"])
    def test_bin_count_must_be_an_integer(self, bins):
        with pytest.raises(FirmError, match="^bin count must be an integer, got "):
            conditional_curve(np.arange(10.0), np.arange(10.0), bins)
        assert conditional_curve(np.arange(10.0), np.arange(10.0), np.int64(3)).n_bins == 3

    def test_needs_enough_samples(self):
        with pytest.raises(Exception):
            conditional_curve(np.arange(3.0), np.arange(3.0), bins=5)

    def test_default_bins(self):
        assert default_bins(10) == 5
        assert default_bins(400) == 20
        assert default_bins(10**6) == 64


class TestFirmFromCurve:
    def test_non_finite_importance_rejected(self):
        s = np.array([np.inf, 0.0, 1.0, 2.0, 3.0, 4.0])
        with np.errstate(all="ignore"):
            curve = conditional_curve(s, np.arange(6.0), bins=3)
            with pytest.raises(FirmError, match="not finite"):
                firm_from_curve(curve)

    def test_flat_curve_is_zero(self):
        curve = ConditionalScoreCurve(bin_edges=np.array([0.0, 1.0, 2.0, 3.0]),
                                      bin_prob=np.array([0.2, 0.3, 0.5]),
                                      q_hat=np.full(3, 1.5),
                                      counts=np.array([2, 3, 5]))
        assert firm_from_curve(curve).q_abs == 0.0

    def test_three_equiprobable_bins(self):
        curve = ConditionalScoreCurve(bin_edges=np.array([0.0, 1.0, 2.0, 3.0]),
                                      bin_prob=np.full(3, 1.0 / 3.0),
                                      q_hat=np.array([-1.0, 0.0, 1.0]),
                                      counts=np.array([5, 5, 5]))
        assert firm_from_curve(curve).q_abs == pytest.approx(math.sqrt(2.0 / 3.0),
                                                             abs=1e-15)

    def test_two_bin_case_equals_exact_binary(self):
        rng = np.random.default_rng(3)
        X = rng.choice([-1.0, 1.0], size=(40, 2))
        sc = LinearScorer(w=rng.normal(size=2), b=rng.normal())
        scores = sc.score_many(X)
        curve = conditional_curve(scores, X[:, 0], bins=6)
        got = firm_from_curve(curve)
        [want] = firm_binary_exact(sc, [Projection(0)], X)
        assert got.q_signed == pytest.approx(want.q_signed, abs=1e-12)
        assert got.q_abs == pytest.approx(want.q_abs, abs=1e-12)

    def test_unsigned_beyond_two_bins(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=1000)
        curve = conditional_curve(-x, x, bins=10)
        r = firm_from_curve(curve)
        assert r.q_signed == r.q_abs > 0

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 200))
        fv = rng.normal(size=n)
        s = rng.normal(size=n)
        bins = int(rng.integers(2, 9))
        base = firm_from_curve(conditional_curve(s, fv, bins))
        for transform in (lambda t: 3.0 * t + 1.0, np.exp, np.arctan):
            r = firm_from_curve(conditional_curve(s, transform(fv), bins))
            assert r.q_abs == pytest.approx(base.q_abs, rel=1e-12, abs=1e-12)


class TestSlope:
    def test_binary_feature_matches_exact_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(4, 100))
            fv = rng.choice([-1.0, 1.0], size=n)
            if len(np.unique(fv)) < 2:
                continue
            s = rng.normal(size=n)
            assert firm_slope(s, fv)[0].q_signed == pytest.approx(
                brute_firm_binary(s, fv), abs=1e-12)

    def test_binary_feature_any_two_values(self):
        """The identity is encoding-free: holds for {0,1}, {2,5}, ..."""
        rng = np.random.default_rng(6)
        for lo, hi in [(0.0, 1.0), (2.0, 5.0), (-3.0, -1.0)]:
            fv = rng.choice([lo, hi], size=60)
            if len(np.unique(fv)) < 2:
                continue
            s = rng.normal(size=60)
            assert firm_slope(s, fv)[0].q_signed == pytest.approx(
                brute_firm_binary(s, fv), abs=1e-12)

    def test_orthogonal_scores_give_zero(self):
        fv = np.array([-1.0, 1.0, -1.0, 1.0])
        s = np.array([1.0, 1.0, -1.0, -1.0])
        assert firm_slope(s, fv)[0].q_signed == pytest.approx(0.0, abs=1e-15)

    def test_exact_linear_relation(self):
        rng = np.random.default_rng(7)
        fv = rng.normal(size=50)
        s = 2.0 * fv + 5.0
        assert firm_slope(s, fv)[0].q_signed == pytest.approx(2.0 * np.std(fv), rel=1e-12)

    def test_constant_feature_rejected(self):
        with pytest.raises(DegenerateFeatureError):
            firm_slope(np.arange(4.0), np.ones(4))

    @pytest.mark.parametrize("estimator", [firm_slope, slope_stderr])
    def test_column_of_tenths_is_constant(self, estimator):
        """Seven 0.1s have a computed variance of 1.9e-34, not 0; the exact
        test min = max refuses them all the same."""
        F = np.column_stack([np.full(7, 0.1), np.arange(7.0)])
        assert np.var(F[:, 0]) > 0.0
        with pytest.raises(DegenerateFeatureError, match="^feature x1 is constant$"):
            estimator(F[:, 1] ** 2, F)

    @pytest.mark.parametrize("scale", [1e-200, 1e300])
    def test_tiny_and_huge_columns(self, scale):
        """The variance of such a column underflows or overflows unless the
        column is rescaled first; the values are those of the unit column."""
        s = np.arange(1.0, 5.0)
        assert firm_slope(s, [scale, 0.0, 0.0, scale])[0].q_signed == 0.0
        assert slope_stderr(s, [scale, 0.0, 0.0, scale])[0] == pytest.approx(
            slope_stderr(s, [1.0, 0.0, 0.0, 1.0])[0], rel=1e-15)
        assert firm_slope(s, [0.0, 0.0, scale, scale])[0].q_signed == pytest.approx(
            firm_slope(s, [0.0, 0.0, 1.0, 1.0])[0].q_signed, rel=1e-15)
        assert slope_stderr(s, [0.0, 0.0, scale, scale])[0] == pytest.approx(
            slope_stderr(s, [0.0, 0.0, 1.0, 1.0])[0], rel=1e-15)

    @pytest.mark.parametrize("power", [700, -700])
    def test_power_of_two_scaling_changes_no_bit(self, power):
        rng = np.random.default_rng(10)
        F = rng.normal(size=(40, 3)) * [1.0, 1e-3, 50.0]
        s = F @ [1.0, -2.0, 0.5] + rng.normal(size=40)
        G = np.ldexp(F, power)
        assert ([r.q_signed for r in firm_slope(s, G)]
                == [r.q_signed for r in firm_slope(s, F)])
        assert slope_stderr(s, G).tobytes() == slope_stderr(s, F).tobytes()

    def test_caller_columns_are_not_scaled(self):
        fv = np.array([0.0, 3.0, 1.0, 2.0])
        firm_slope(np.arange(4.0), fv)
        assert fv.tolist() == [0.0, 3.0, 1.0, 2.0]

    def test_columns_match_single_column_calls(self):
        rng = np.random.default_rng(8)
        F = rng.normal(size=(30, 3))
        s = F @ [1.0, -2.0, 0.5] + rng.normal(size=30)
        res = firm_slope(s, F, names=["a", "b", "c"])
        assert [r.feature for r in res] == ["a", "b", "c"]
        for j, r in enumerate(res):
            assert r.q_signed == firm_slope(s, F[:, j])[0].q_signed

    @settings(max_examples=30, deadline=None)
    @given(blocked_columns())
    def test_each_column_is_its_one_column_call(self, case):
        """Bitwise, whatever block a column falls in and whatever the
        other columns' scales."""
        s, F = case
        q = [r.q_signed for r in firm_slope(s, F)]
        se = slope_stderr(s, F)
        for j in range(F.shape[1]):
            one_q = firm_slope(s, F[:, j])[0].q_signed
            one_se = slope_stderr(s, F[:, j])
            assert repr(q[j]) == repr(one_q)
            assert np.float64(q[j]).tobytes() == np.float64(one_q).tobytes()
            assert repr(se[j]) == repr(one_se[0])
            assert se[j:j + 1].tobytes() == one_se.tobytes()

    def test_stderr_matches_polyfit_residuals(self):
        rng = np.random.default_rng(9)
        n = 200
        F = rng.normal(size=(n, 3)) * [1.0, 3.0, 0.2]
        s = np.sin(F[:, 0]) + F[:, 1] ** 2 + rng.normal(size=n)
        want = []
        for j in range(3):
            slope, intercept = np.polyfit(F[:, j], s, 1)
            want.append(np.std(s - (slope * F[:, j] + intercept)) / math.sqrt(n))
        np.testing.assert_allclose(slope_stderr(s, F), want, rtol=1e-10)

    def test_non_finite_importance_rejected(self):
        with np.errstate(all="ignore"), pytest.raises(FirmError, match="not finite"):
            firm_slope([np.inf, 0.0, 1.0, 2.0], [0.0, 1.0, 0.0, 1.0])


class TestConsistency:
    def test_binned_estimate_converges_to_analytic(self):
        """On normal linear data the binned importance approaches the
        analytic value D^-1 S w as n grows."""
        cov = np.array([[1.0, 0.6], [0.6, 2.0]])
        w = np.array([1.0, -0.5])
        analytic = (cov @ w) / np.sqrt(np.diag(cov))
        chol = np.linalg.cholesky(cov)
        errors = []
        for n in (10**3, 10**4, 10**5):
            rng = np.random.default_rng(99)
            X = rng.normal(size=(n, 2)) @ chol.T
            s = X @ w
            err = 0.0
            for j in range(2):
                curve = conditional_curve(s, X[:, j], bins=default_bins(n))
                err = max(err, abs(firm_from_curve(curve).q_abs - abs(analytic[j])))
            errors.append(err)
        assert errors[2] < errors[0]
        assert errors[2] < 0.02
