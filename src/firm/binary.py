"""Exact importance of binary features.

For a feature taking two values a > b with probabilities p_a, p_b and
conditional mean scores q_a, q_b, the importance is

    Q = (q_a - q_b) * sqrt(p_a * p_b)

signed, so the direction of the feature's effect is retained. Anchoring
`a` at the larger feature value makes the sign deterministic.

Both entries take every feature in one call: `firm_binary_values` scores
and feature columns, `firm_binary_exact` a scorer, features and support
points. Point probabilities are uniform by default; supplied ones must be
finite, nonnegative and sum to 1, and are never rescaled.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DegenerateFeatureError, FirmError
from .features import FeatureFunction, column_blocks, feature_columns
from .results import BinaryStats, FirmResult
from .scoring import Scorer, score_many


def firm_binary_values(scores, F, probs=None, names=None) -> list[FirmResult]:
    """Exact signed importance of every two-valued column of F.

    F is n-by-d (1-D for one column) and row-aligned with the scores; row i
    has probability probs[i], uniform by default. Columns are named by
    `names`, or x1 .. xd. Scores X @ w + b with F = X give the paper's
    matrix form Q = M'(Xw + b) of a linear scorer on ±1 data. Sums run along
    rows of column_blocks, so each column's bits are its one-column call's.
    """
    if probs is not None:
        probs = np.asarray(probs, dtype=np.float64).ravel()
        if not np.isfinite(probs).all() or (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-9:
            raise FirmError("probabilities must be finite, nonnegative and sum to 1")
    scores, F, names = feature_columns(scores, F, names)
    if probs is None:
        probs = np.full(scores.size, 1.0 / scores.size)
    elif probs.size != scores.size:
        raise FirmError("need one probability per point")
    weighted = probs * scores
    sums = []
    for fb in column_blocks(F):
        is_hi = fb == fb.max(axis=1, keepdims=True)
        two_valued = (is_hi | (fb == fb.min(axis=1, keepdims=True))).all(axis=1)
        sums.append([two_valued] + [np.where(h, v, 0.0).sum(axis=1) for h, v in
                                    ((is_hi, probs), (is_hi, weighted), (~is_hi, weighted))])
    two_valued, p_hi, sum_hi, sum_lo = map(np.concatenate, zip(*sums))
    bad = np.nonzero(~two_valued)[0]
    if bad.size:
        j = bad[0]
        raise FirmError(f"feature {names[j]} takes {np.unique(F[:, j]).size} values; "
                        "binary importance needs exactly 2")
    p_lo = 1.0 - p_hi
    bad = np.nonzero((p_hi <= 0.0) | (p_lo <= 0.0))[0]
    if bad.size:
        raise DegenerateFeatureError(
            f"feature {names[bad[0]]}: a value has zero probability")
    q_hi = sum_hi / p_hi
    q_lo = sum_lo / p_lo
    q = (q_hi - q_lo) * np.sqrt(p_hi * p_lo)
    return [FirmResult(feature=names[j], q_signed=float(q[j]), method="binary_exact",
                       extras=BinaryStats(q_a=float(q_hi[j]), q_b=float(q_lo[j]),
                                          p_a=float(p_hi[j]), p_b=float(p_lo[j])))
            for j in range(q.size)]


def firm_binary_exact(scorer: Scorer, features: Sequence[FeatureFunction],
                      points, probs=None) -> list[FirmResult]:
    """Exact signed importance of every binary feature over explicit support
    points, in feature order: the points are scored once and all features
    go through one firm_binary_values call with the same `probs`."""
    if not features:
        raise FirmError("need at least one feature")
    F = np.column_stack([f.evaluate_rows(points) for f in features])
    return firm_binary_values(score_many(scorer, points), F, probs=probs,
                              names=[f.describe() for f in features])
