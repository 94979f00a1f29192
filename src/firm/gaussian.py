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
    g = gradient_at(scorer, mean)
    var = np.diag(cov.sigma)
    labels = column_names(names, cov.d)
    if (var <= 0).any():
        raise DegenerateFeatureError(f"feature {labels[int(np.argmin(var))]} is constant")
    q = (cov.sigma @ g) / np.sqrt(var)
    return [FirmResult(feature=f, q_signed=float(v), method="gaussian")
            for f, v in zip(labels, q)]


def sensitivity_index(scorer: Scorer, data: TabularDataset) -> list[FirmResult]:
    """Gradient-based importance baseline, estimated over the data rows.

    I_j = sqrt(mean_i (ds/dx_j at x_i)^2 * Var(X_j)), named by data.names.
    Blind to correlations between coordinates: a zero weight gives a zero
    index no matter how the coordinate co-varies with the rest. A constant
    column is refused, as by every other estimator.
    """
    refuse_constant_column(data.X, data.names)
    g_sq = (differentiable(scorer).gradient_many(data.X) ** 2).mean(axis=0)
    # np.var over slices of >= 2 columns has the bits of one call (1 sums pairwise)
    cuts = [*range(0, max(data.d - 1, 1), max(2, 2 ** 16 // data.n)), data.d]
    var = np.concatenate([np.var(data.X[:, lo:hi], axis=0) for lo, hi in zip(cuts, cuts[1:])])
    return [FirmResult(feature=name, q_signed=float(v), method="sensitivity")
            for name, v in zip(data.names, np.sqrt(g_sq * var))]
