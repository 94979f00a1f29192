"""Importance under a normal model: closed forms, baselines, Monte Carlo."""

import numpy as np
import pytest

from firm import (CovarianceEstimate, FirmError, GaussianModel, KernelExpansionScorer,
                  KernelSpec, LabelOracleScorer, LinearScorer, TabularDataset,
                  conditional_mean, firm_gaussian_general, firm_gaussian_linear,
                  firm_regression_closed_form, sensitivity_index, train_least_squares)

from helpers import kernel_gradient_at, mc_firm


def model_from(sigma):
    return GaussianModel(sigma=CovarianceEstimate(sigma=np.asarray(sigma, dtype=float),
                                                  method="supplied"))


def random_pd_cov(rng, d, max_cond=100.0):
    """Random PD covariance with bounded condition number."""
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    lo = 1.0
    eig = lo * np.exp(rng.random(d) * np.log(max_cond))
    return (Q * eig) @ Q.T


class TestConditionalMean:
    def test_identity_covariance(self):
        m = model_from(np.eye(3))
        np.testing.assert_allclose(conditional_mean(m, 0, 2.0), [2.0, 0.0, 0.0])

    def test_zero_value(self):
        m = model_from([[2.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(conditional_mean(m, 1, 0.0), [0.0, 0.0])

    def test_correlated_pair(self):
        rho = 0.7
        m = model_from([[1.0, rho], [rho, 1.0]])
        np.testing.assert_allclose(conditional_mean(m, 0, 1.0), [1.0, rho])

    def test_scales_with_variance(self):
        m = model_from([[4.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(conditional_mean(m, 0, 2.0), [2.0, 0.5])


class TestGaussianLinear:
    def test_identity_covariance_returns_weights(self):
        w = np.array([0.3, -1.2, 2.0])
        res = firm_gaussian_linear(w, 0.0, model_from(np.eye(3)))
        np.testing.assert_allclose([r.q_signed for r in res], w, atol=0)

    def test_diagonal_rescale_fixpoint(self):
        """Scaling a column by c and its weight by 1/c leaves importances put."""
        w = np.array([2.0, -1.0])
        base = firm_gaussian_linear(w, 0.0, model_from(np.diag([1.0, 4.0])))
        for c in (0.1, 10.0):
            scaled_sigma = np.diag([1.0, 4.0 * c * c])
            scaled_w = np.array([2.0, -1.0 / c])
            res = firm_gaussian_linear(scaled_w, 0.0, model_from(scaled_sigma))
            np.testing.assert_allclose([r.q_signed for r in res],
                                       [r.q_signed for r in base], atol=1e-12)

    def test_near_perfect_correlation_spreads_importance(self):
        sigma = [[1.0, 0.99], [0.99, 1.0]]
        res = firm_gaussian_linear(np.array([1.0, 0.0]), 0.0, model_from(sigma))
        np.testing.assert_allclose([r.q_signed for r in res], [1.0, 0.99], atol=1e-12)

    def test_general_rescaling_invariance(self):
        """Column rescaling with compensating weight leaves every
        coordinate's importance unchanged, for full covariances."""
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            sigma = random_pd_cov(rng, d)
            w = rng.normal(size=d)
            base = [r.q_signed for r in firm_gaussian_linear(w, 0.0, model_from(sigma))]
            for c in (0.1, 10.0):
                S = np.eye(d)
                S[0, 0] = c
                sigma2 = S @ sigma @ S
                w2 = w.copy()
                w2[0] /= c
                res = [r.q_signed
                       for r in firm_gaussian_linear(w2, 0.0, model_from(sigma2))]
                np.testing.assert_allclose(res, base, atol=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(FirmError, match="zero variance"):
            firm_gaussian_linear(np.ones(2), 0.0, model_from(np.diag([1.0, 0.0])))

    def test_non_finite_importance_rejected(self):
        with np.errstate(all="ignore"), pytest.raises(FirmError, match="not finite"):
            firm_gaussian_linear(np.array([np.inf, 1.0]), 0.0, model_from(np.eye(2)))


class TestGaussianGeneral:
    def test_linear_scorer_matches_linear_form_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            sigma = random_pd_cov(rng, d)
            w = rng.normal(size=d)
            b = rng.normal()
            m = model_from(sigma)
            general = firm_gaussian_general(LinearScorer(w=w, b=b), m)
            linear = firm_gaussian_linear(w, b, m)
            for g, l in zip(general, linear):
                assert g.q_signed == l.q_signed
                assert g.q_abs == l.q_abs

    def test_diagonal_covariance_scales_weights(self):
        sigma = np.diag([4.0, 0.25])
        res = firm_gaussian_general(LinearScorer(w=[1.0, 2.0]), model_from(sigma))
        np.testing.assert_allclose([r.q_signed for r in res], [2.0, 1.0], atol=1e-15)

    def test_zero_gradient_gives_zeros(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]])  # gradients cancel at 0
        sc = KernelExpansionScorer(points=pts, alpha=[1.0, 1.0], b=0.0,
                                   kernel=KernelSpec.gaussian(1.0))
        res = firm_gaussian_general(sc, model_from(np.eye(2)))
        np.testing.assert_allclose([r.q_signed for r in res], [0.0, 0.0], atol=1e-15)

    def test_kernel_scorer_against_monte_carlo(self):
        """The linearization holds when the kernel width dominates the data
        spread; an antisymmetric expansion kills the even error terms."""
        rng = np.random.default_rng(2)
        x0 = np.array([0.8, 0.6])
        sc = KernelExpansionScorer(points=np.vstack([x0, -x0]), alpha=[20.0, -20.0],
                                   b=0.1, kernel=KernelSpec.gaussian(6.0))
        sigma = np.array([[0.25, 0.1], [0.1, 0.2]])
        analytic = np.array([r.q_abs
                             for r in firm_gaussian_general(sc, model_from(sigma))])
        sampled = mc_firm(sc, sigma, rng, n=400_000).q_hat
        assert (analytic >= 0.1).any()
        big = analytic >= 0.1
        # 8% is the allowance for the first-order linearization, not for
        # Monte Carlo error: the measured gap is -3.1% on both coordinates,
        # while the Monte Carlo relative se is at most 0.2%
        np.testing.assert_allclose(analytic[big], sampled[big], rtol=0.08)

    def test_expansion_around_recorded_mean(self):
        """A model with nonzero mean expands the score there; shifting a
        kernel scorer and the mean together changes nothing."""
        rng = np.random.default_rng(3)
        sigma = random_pd_cov(rng, 2)
        pts = rng.normal(size=(3, 2))
        alpha = rng.normal(size=3)
        mu = rng.normal(size=2)
        sc0 = KernelExpansionScorer(points=pts, alpha=alpha, b=0.0,
                                    kernel=KernelSpec.gaussian(2.0))
        shifted = KernelExpansionScorer(points=pts + mu, alpha=alpha, b=0.0,
                                        kernel=KernelSpec.gaussian(2.0))
        m0 = GaussianModel(sigma=CovarianceEstimate(sigma=sigma, method="supplied"))
        m1 = GaussianModel(sigma=CovarianceEstimate(sigma=sigma, method="supplied"),
                           mean=mu)
        r0 = [r.q_signed for r in firm_gaussian_general(sc0, m0)]
        r1 = [r.q_signed for r in firm_gaussian_general(shifted, m1)]
        np.testing.assert_allclose(r1, r0, rtol=1e-12)

    def test_linear_monte_carlo_agreement(self):
        """The closed form is exact for linear scorers: every coordinate sits
        within z Monte Carlo standard errors of the sampled importance.
        z = 4.5 is a two-sided normal tail of 6.8e-6 per coordinate, the
        same per-coordinate rate as acceptance criterion 04."""
        z = 4.5
        rng = np.random.default_rng(4)
        for _ in range(3):
            d = int(rng.integers(2, 6))
            sigma = random_pd_cov(rng, d)
            w = rng.normal(size=d)
            analytic = np.array([r.q_abs for r in
                                 firm_gaussian_linear(w, 0.0, model_from(sigma))])
            mc = mc_firm(LinearScorer(w=w), sigma, rng, n=200_000)
            big = analytic >= 0.1
            assert (np.abs(mc.q_lin[big] - analytic[big]) <= z * mc.se_lin[big]).all()


class TestSensitivityIndex:
    def test_linear_scorer_ignores_correlations(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(500, 3))
        X[:, 1] = X[:, 0] + 0.01 * X[:, 1]          # strongly correlated pair
        data = TabularDataset(X=X, y=None, names=("a", "b", "c"))
        w = np.array([1.5, 0.0, -0.5])
        idx = sensitivity_index(LinearScorer(w=w), data)
        np.testing.assert_allclose(
            idx, np.abs(w) * X.std(axis=0), rtol=1e-12)
        assert idx[1] == 0.0                         # blind to the correlation

    def test_constant_scorer_gives_zeros(self):
        rng = np.random.default_rng(6)
        data = TabularDataset(X=rng.normal(size=(50, 2)), y=None, names=("a", "b"))
        np.testing.assert_array_equal(
            sensitivity_index(LinearScorer(w=[0.0, 0.0], b=3.0), data), [0.0, 0.0])

    def test_matches_gaussian_linear_for_diagonal_model(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 3)) * np.array([1.0, 2.0, 0.5])
        data = TabularDataset(X=X, y=None, names=("a", "b", "c"))
        w = np.array([0.7, -0.3, 1.1])
        model = model_from(np.diag(np.var(X, axis=0)))
        q = [r.q_abs for r in firm_gaussian_linear(w, 0.0, model)]
        np.testing.assert_allclose(sensitivity_index(LinearScorer(w=w), data), q,
                                   rtol=1e-12)

    def test_kernel_scorer_uses_per_row_gradients(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(100, 2))
        data = TabularDataset(X=X, y=None, names=("a", "b"))
        sc = KernelExpansionScorer(points=rng.normal(size=(4, 2)),
                                   alpha=rng.normal(size=4), b=0.0,
                                   kernel=KernelSpec.gaussian(2.0))
        idx = sensitivity_index(sc, data)
        grads = np.array([kernel_gradient_at(sc, x) for x in X])
        expect = np.sqrt((grads ** 2).mean(axis=0) * np.var(X, axis=0))
        np.testing.assert_allclose(idx, expect, rtol=1e-12)


class TestGradientScorerChecks:
    """Both gradient consumers reject a scorer without a gradient and a
    scorer of the wrong dimension instead of broadcasting it."""

    DATA = TabularDataset(X=np.arange(12.0).reshape(4, 3), y=None, names=("a", "b", "c"))

    @staticmethod
    def consumers(scorer):
        yield lambda: sensitivity_index(scorer, TestGradientScorerChecks.DATA)
        yield lambda: firm_gaussian_general(scorer, model_from(np.eye(3)))

    @pytest.mark.parametrize("scorer", [
        LinearScorer(w=[2.0]),
        KernelExpansionScorer(points=[[0.5], [-1.0]], alpha=[1.0, 2.0], b=0.0,
                              kernel=KernelSpec.gaussian(1.0)),
        KernelExpansionScorer(points=[[0.5], [-1.0]], alpha=[1.0, 2.0], b=0.0,
                              kernel=KernelSpec.polynomial(2, 1.0)),
    ], ids=["linear", "gaussian", "polynomial"])
    def test_wrong_dimension_rejected(self, scorer):
        for call in self.consumers(scorer):
            with pytest.raises(FirmError, match="input has dimension 3, scorer expects 1"):
                call()

    def test_scorer_without_gradient_rejected(self):
        oracle = LabelOracleScorer.from_dataset(
            TabularDataset(X=self.DATA.X, y=np.zeros(4), names=self.DATA.names))
        for call in self.consumers(oracle):
            with pytest.raises(FirmError, match="has no gradient"):
                call()


class TestRegressionClosedForm:
    def test_reduces_to_scaled_projection_when_sigma_is_empirical(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 3))
        X -= X.mean(axis=0)
        y = rng.normal(size=40)
        sigma_hat = X.T @ X / 40
        model = model_from(sigma_hat)
        res = firm_regression_closed_form(X, y, model)
        expect = (X.T @ y / 40) / np.sqrt(np.diag(sigma_hat))
        np.testing.assert_allclose([r.q_signed for r in res], expect, atol=1e-12)

    def test_zero_labels_give_zero(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(20, 2))
        res = firm_regression_closed_form(X, np.zeros(20), model_from(np.eye(2)))
        np.testing.assert_array_equal([r.q_signed for r in res], [0.0, 0.0])

    def test_equals_linear_form_of_trained_scorer(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n, d = 50, 4
            X = rng.normal(size=(n, d))
            X -= X.mean(axis=0)                     # intercept decouples
            y = rng.normal(size=n)
            sigma = random_pd_cov(rng, d)
            model = model_from(sigma)
            closed = firm_regression_closed_form(X, y, model)
            trained = train_least_squares(
                TabularDataset(X=X, y=y, names=tuple(f"c{j}" for j in range(d))))
            direct = firm_gaussian_linear(trained.w, trained.b, model)
            np.testing.assert_allclose([r.q_signed for r in closed],
                                       [r.q_signed for r in direct], atol=1e-10)

    def test_singular_design_rejected(self):
        X = np.ones((5, 2))
        with pytest.raises(FirmError, match="singular"):
            firm_regression_closed_form(X, np.ones(5), model_from(np.eye(2)))
