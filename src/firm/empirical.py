"""Distribution-free importance estimation from samples.

The conditional expected score of a feature is estimated by quantile
(equal-count) binning of the feature values; the importance is the
probability-weighted standard deviation of the per-bin mean scores. The
binning scheme is one of several possible estimators of the conditional
curve; equal-count bins keep the variance estimate stable in the tails.

Population variance (divisor n) is used throughout, which makes the slope
estimator agree with the exact binary importance as an algebraic identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFeatureError, FirmError
from .features import feature_columns
from .results import FirmResult


@dataclass(frozen=True, eq=False)
class ConditionalScoreCurve:
    """Binned estimate of the conditional expected score."""

    bin_edges: np.ndarray   # B+1 increasing reals
    bin_prob: np.ndarray    # B probabilities summing to 1
    q_hat: np.ndarray       # mean score per bin
    counts: np.ndarray      # samples per bin

    def __post_init__(self):
        edges = np.array(self.bin_edges, dtype=np.float64)
        prob = np.array(self.bin_prob, dtype=np.float64)
        q = np.array(self.q_hat, dtype=np.float64)
        counts = np.array(self.counts, dtype=np.int64)
        B = prob.size
        if not (edges.size == B + 1 and q.size == B and counts.size == B):
            raise FirmError("inconsistent curve arrays")
        if not (np.diff(edges) > 0).all():
            raise FirmError("bin edges must be strictly increasing")
        if abs(prob.sum() - 1.0) > 1e-12:
            raise FirmError("bin probabilities must sum to 1")
        if ((prob > 0) & (counts < 1)).any():
            raise FirmError("positive-probability bin with no samples")
        for a in (edges, prob, q, counts):
            a.setflags(write=False)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "bin_prob", prob)
        object.__setattr__(self, "q_hat", q)
        object.__setattr__(self, "counts", counts)

    @property
    def n_bins(self) -> int:
        return self.bin_prob.size


def default_bins(n: int) -> int:
    """Default bin count: max(5, floor(sqrt(n))), capped at 64."""
    return min(64, max(5, int(math.isqrt(n))))


def conditional_curve(scores, fvals, bins: int) -> ConditionalScoreCurve:
    """Equal-count binning of feature values with per-bin mean scores.

    Bin boundaries depend only on the ranks of fvals, so any strictly
    increasing transform of the feature leaves the curve unchanged. Ties
    never split across bins: a boundary falling inside a tie run moves past
    it (merging bins if several boundaries collide). If the feature takes
    no more distinct values than bins, each distinct value gets its own bin.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    fvals = np.asarray(fvals, dtype=np.float64).ravel()
    n = fvals.size
    if scores.size != n:
        raise FirmError("scores and feature values must have equal length")
    if not isinstance(bins, (int, np.integer)):
        raise FirmError(f"bin count must be an integer, got {bins!r}")
    if bins < 2:
        raise FirmError("need at least 2 bins")
    if n < bins:
        raise FirmError(f"need at least {bins} samples for {bins} bins")
    order = np.argsort(fvals)
    fs = fvals[order]
    change = np.nonzero(np.diff(fs))[0] + 1     # indices where a new value starts
    if change.size < n - 1:
        # equal values (0.0 beside -0.0 too) are the only ones whose order a
        # sort may choose; a stable sort fixes it, distinct values need none
        order = np.argsort(fvals, kind="stable")
        fs = fvals[order]
    ss = scores[order]
    if change.size == 0:
        raise DegenerateFeatureError("constant feature")
    if change.size + 1 <= bins:
        bounds = change
    else:
        targets = (n * np.arange(1, bins)) // bins
        # move each boundary to the start of the next distinct value
        pos = np.searchsorted(change, targets, side="left")
        keep = pos < change.size
        bounds = np.unique(change[pos[keep]])
    starts = np.concatenate([[0], bounds])
    stops = np.concatenate([bounds, [n]])
    counts = stops - starts
    sums = np.add.reduceat(ss, starts)
    q_hat = sums / counts
    edges = np.empty(starts.size + 1)
    edges[0] = fs[0]
    edges[-1] = fs[-1]
    edges[1:-1] = (fs[bounds - 1] + fs[bounds]) / 2.0
    return ConditionalScoreCurve(bin_edges=edges, bin_prob=counts / n,
                                 q_hat=q_hat, counts=counts)


def firm_from_curve(curve: ConditionalScoreCurve, feature: str = "f") -> FirmResult:
    """Importance = probability-weighted standard deviation of the curve.

    Unsigned except in the two-bin case, where the sign of
    (high-value bin mean - low-value bin mean) is retained.
    """
    p = curve.bin_prob
    q = curve.q_hat
    q_bar = float(p @ q)
    variance = float(p @ (q - q_bar) ** 2)
    q_abs = math.sqrt(max(variance, 0.0))
    if curve.n_bins == 2:
        q_signed = float((q[1] - q[0]) * math.sqrt(p[0] * p[1]))
        return FirmResult(feature=feature, q_signed=q_signed, method="empirical_curve")
    return FirmResult(feature=feature, q_signed=q_abs, method="empirical_curve")


def unit_rows(a):
    """A C-ordered copy of the 2-D array a with each row scaled, exactly, by
    the power of two bringing its largest magnitude into [0.5, 1), so that
    its variance neither underflows nor overflows; and the exponents."""
    a = np.array(a, dtype=np.float64, order="C")
    _, exp = np.frexp(np.maximum(a.max(axis=1), -a.min(axis=1)))
    return np.ldexp(a, -exp[:, None], out=a), exp


def _slope_blocks(scores, F):
    """Per-column moments shared by the slope estimators, for blocks of
    max(1, 2**16 // n) columns of F in turn (scores and F as feature_columns
    returns them). Yields each block's columns, scaled by unit_rows (the
    slope importance and its standard error do not change under a positive
    scaling) and centered; the centered scores; each column's variance and
    its covariance with the scores. A block is a transposed copy, so every
    reduction runs along a contiguous row and no column's bits depend on its
    block; it and a few temporaries of its size are all that is held."""
    sc = scores - scores.mean()
    width = max(1, 2 ** 16 // sc.size)
    for j0 in range(0, F.shape[1], width):
        fc, _ = unit_rows(F[:, j0:j0 + width].T)
        var_f = np.var(fc, axis=1)
        fc -= fc.mean(axis=1, keepdims=True)
        yield fc, sc, var_f, np.mean(fc * sc, axis=1)


def firm_slope(scores, F, names=None) -> list[FirmResult]:
    """Least-squares slope of score on each column of F, times its sd.

    A more reliably estimated stand-in for the binned importance when data
    are scarce or the dependence is known to be linear; exactly equal to
    the binary importance on two-valued features. F is n-by-d (1-D for one
    column); columns are named by `names`, or x1 .. xd.
    """
    scores, F, names = feature_columns(scores, F, names)
    q = np.concatenate([cov / np.sqrt(var_f) for _, _, var_f, cov in _slope_blocks(scores, F)])
    return [FirmResult(feature=names[j], q_signed=float(q[j]), method="slope")
            for j in range(q.size)]


def slope_stderr(scores, F) -> np.ndarray:
    """Standard error of each column's slope importance from firm_slope.

    The slope importance is slope * sd(f); its standard error is
    sd(residuals) / sqrt(n).
    """
    scores, F, _ = feature_columns(scores, F)
    sd = np.concatenate([np.std(sc - (cov / var_f)[:, None] * fc, axis=1)
                         for fc, sc, var_f, cov in _slope_blocks(scores, F)])
    return sd / math.sqrt(scores.size)
