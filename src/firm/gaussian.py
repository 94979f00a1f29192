"""Importance under a normal model of the inputs.

For zero-mean normal inputs with covariance S, conditioning on one
coordinate moves the mean of all others along the corresponding covariance
column. A first-order expansion of the score around the mean then gives

    Q_j = (S_j. ' g) / sqrt(S_jj),    g = gradient of the score at the mean,

which is exact (not approximate) for linear scorers. Correlated inputs
therefore spread importance across related coordinates, unlike the
gradient-only sensitivity index, which this module also provides as a
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CovarianceEstimate, TabularDataset
from .errors import FirmError
from .features import column_names
from .results import FirmResult
from .scoring import Scorer, differentiable, gradient_at
from typing import Sequence


@dataclass(frozen=True)
class GaussianModel:
    """Covariance (plus recorded mean) of the working normal model.

    Computations run in centered coordinates; `mean` records where the
    original data sat so scorers trained on raw coordinates can be
    expanded around the right point.
    """

    sigma: CovarianceEstimate
    mean: np.ndarray | None = None

    def __post_init__(self):
        mean = self.mean
        if mean is None:
            mean = np.zeros(self.sigma.d)
        mean = np.asarray(mean, dtype=np.float64).ravel()
        if mean.size != self.sigma.d:
            raise FirmError("mean dimension does not match covariance")
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)

    @property
    def d(self) -> int:
        return self.sigma.d


def _normal_model_results(sigma: np.ndarray, g: np.ndarray,
                          names: Sequence[str] | None, method: str) -> list[FirmResult]:
    """Q = D^-1 S g for every coordinate, D the diagonal of standard deviations."""
    var = np.diag(sigma)
    if (var <= 0).any():
        j = int(np.argmin(var))
        raise FirmError(f"zero variance at coordinate {j + 1}")
    q = (sigma @ g) / np.sqrt(var)
    labels = column_names(names, q.size)
    return [FirmResult(feature=labels[j], q_signed=float(q[j]), method=method)
            for j in range(q.size)]


def conditional_mean(model: GaussianModel, j: int, t: float) -> np.ndarray:
    """Mean of the (centered) inputs given coordinate j equals t."""
    sigma = model.sigma.sigma
    var_j = sigma[j, j]
    if var_j <= 0:
        raise FirmError(f"zero variance at coordinate {j + 1}")
    return (t / var_j) * sigma[:, j]


def firm_gaussian_general(scorer: Scorer, model: GaussianModel,
                          names: Sequence[str] | None = None) -> list[FirmResult]:
    """First-order importance of every coordinate for a differentiable scorer.

    The score is expanded around the model mean; exact for linear scorers.
    """
    return _normal_model_results(model.sigma.sigma, gradient_at(scorer, model.mean),
                                 names, "gaussian")


def firm_gaussian_linear(w: np.ndarray, b: float, model: GaussianModel,
                         names: Sequence[str] | None = None) -> list[FirmResult]:
    """Exact importance of a linear scorer under the normal model.

    Q = D^-1 S w with D the diagonal matrix of standard deviations.
    """
    w = np.asarray(w, dtype=np.float64).ravel()
    if w.size != model.d:
        raise FirmError(f"weight vector has size {w.size}, model is {model.d}-dimensional")
    return _normal_model_results(model.sigma.sigma, w, names, "gaussian_linear")


def sensitivity_index(scorer: Scorer, data: TabularDataset) -> list[float]:
    """Gradient-based importance baseline, estimated over the data rows.

    I_j = sqrt(mean_i (ds/dx_j at x_i)^2 * Var(X_j)). Blind to correlations
    between coordinates: a zero weight gives a zero index no matter how the
    coordinate co-varies with the rest.
    """
    g_sq = (differentiable(scorer).gradient_many(data.X) ** 2).mean(axis=0)
    return [float(v) for v in np.sqrt(g_sq * np.var(data.X, axis=0))]


def firm_regression_closed_form(X: np.ndarray, y: np.ndarray, model: GaussianModel,
                                names: Sequence[str] | None = None) -> list[FirmResult]:
    """Importance of the unregularized regression fit, without training it.

    Q = D^-1 S (X'X)^-1 X'y. With the model covariance set to X'X/n this
    collapses to Q = D^-1 X'y / n, the infinite-data limit. The implied
    regression has no intercept, so pass column-centered X when comparing
    against an intercept-fitting trainer.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n, d = X.shape
    if y.size != n:
        raise FirmError("label vector length does not match row count")
    if d != model.d:
        raise FirmError("data dimension does not match model")
    G = X.T @ X
    if np.linalg.matrix_rank(G) < d:
        raise FirmError("singular empirical covariance; cannot invert X'X")
    return _normal_model_results(model.sigma.sigma, np.linalg.solve(G, X.T @ y),
                                 names, "regression_closed_form")
