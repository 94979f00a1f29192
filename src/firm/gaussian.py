"""Importance under a normal model of the inputs.

For normal inputs with mean m and covariance S, conditioning on one
coordinate moves the mean of all others along the corresponding covariance
column. A first-order expansion of the score around m then gives

    Q_j = (S_j. ' g) / sqrt(S_jj),    g = gradient of the score at m,

which is exact (not approximate) for linear scorers, where g = w.
Correlated inputs therefore spread importance across related coordinates,
unlike the gradient-only sensitivity index, which this module also
provides as a baseline.
"""

from __future__ import annotations

import numpy as np

from .dataset import CovarianceEstimate, TabularDataset, refuse_constant_column
from .errors import DegenerateFeatureError, FirmError
from .features import column_names
from .results import FirmResult
from .scoring import Scorer, differentiable, gradient_at
from typing import Sequence


def _normal_model_results(sigma: np.ndarray, g: np.ndarray,
                          names: Sequence[str] | None, method: str) -> list[FirmResult]:
    """Q = D^-1 S g for every coordinate, D the diagonal of standard deviations."""
    var = np.diag(sigma)
    labels = column_names(names, var.size)
    if (var <= 0).any():
        raise DegenerateFeatureError(f"feature {labels[int(np.argmin(var))]} is constant")
    q = (sigma @ g) / np.sqrt(var)
    return [FirmResult(feature=labels[j], q_signed=float(q[j]), method=method)
            for j in range(q.size)]


def firm_gaussian_general(scorer: Scorer, cov: CovarianceEstimate, mean=None,
                          names: Sequence[str] | None = None) -> list[FirmResult]:
    """First-order importance of every coordinate for a differentiable scorer.

    The score is expanded around `mean`, the origin when None; its
    dimension must match the covariance. Exact for linear scorers, where
    the gradient is the weight vector: Q = D^-1 S w.
    """
    mean = np.zeros(cov.d) if mean is None else np.asarray(mean, dtype=np.float64).ravel()
    if mean.size != cov.d:
        raise FirmError("mean dimension does not match covariance")
    return _normal_model_results(cov.sigma, gradient_at(scorer, mean), names, "gaussian")


def sensitivity_index(scorer: Scorer, data: TabularDataset) -> list[FirmResult]:
    """Gradient-based importance baseline, estimated over the data rows.

    I_j = sqrt(mean_i (ds/dx_j at x_i)^2 * Var(X_j)), named by data.names.
    Blind to correlations between coordinates: a zero weight gives a zero
    index no matter how the coordinate co-varies with the rest. A constant
    column is refused, as by every other estimator.
    """
    refuse_constant_column(data.X, data.names)
    g_sq = (differentiable(scorer).gradient_many(data.X) ** 2).mean(axis=0)
    return [FirmResult(feature=name, q_signed=float(v), method="sensitivity")
            for name, v in zip(data.names, np.sqrt(g_sq * np.var(data.X, axis=0)))]


def firm_regression_closed_form(X: np.ndarray, y: np.ndarray, cov: CovarianceEstimate,
                                names: Sequence[str] | None = None) -> list[FirmResult]:
    """Importance of the unregularized regression fit, without training it.

    Q = D^-1 S (X'X)^-1 X'y, S the covariance `cov`. With S = X'X/n this
    collapses to Q = D^-1 X'y / n, the infinite-data limit. The implied
    regression has no intercept, so pass column-centered X when comparing
    against an intercept-fitting trainer.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n, d = X.shape
    if y.size != n:
        raise FirmError("label vector length does not match row count")
    if d != cov.d:
        raise FirmError("data dimension does not match covariance")
    G = X.T @ X
    if np.linalg.matrix_rank(G) < d:
        raise FirmError("singular empirical covariance; cannot invert X'X")
    return _normal_model_results(cov.sigma, np.linalg.solve(G, X.T @ y),
                                 names, "regression_closed_form")
