"""Scoring functions s: X -> R, their gradients, and small trainers.

Four scorer families are provided: linear, kernel expansion (Gaussian or
polynomial kernel), label oracle (scores are looked up, e.g. raw training
labels), and positional k-mer scorers for sequences. Scorers are immutable;
trainers are single-shot pure functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import SequenceDataset, TabularDataset
from .errors import FirmError


@dataclass(frozen=True)
class KernelSpec:
    """Kernel variant plus parameters.

    gaussian: k(x, x') = exp(-||x - x'||^2 / gamma^2)
    polynomial: k(x, x') = (x'x + offset)^degree
    """

    variant: str
    gamma: float | None = None
    degree: int | None = None
    offset: float | None = None

    @classmethod
    def gaussian(cls, gamma: float) -> "KernelSpec":
        if gamma <= 0:
            raise FirmError("gamma must be > 0")
        return cls(variant="gaussian", gamma=float(gamma))

    @classmethod
    def polynomial(cls, degree: int, offset: float = 1.0) -> "KernelSpec":
        if degree < 1:
            raise FirmError("degree must be >= 1")
        if offset < 0:
            raise FirmError("offset must be >= 0")
        return cls(variant="polynomial", degree=int(degree), offset=float(offset))

    def gram(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Kernel matrix k(a_i, b_j) for rows of A and B."""
        A = np.atleast_2d(A)
        B = np.atleast_2d(B)
        if self.variant == "gaussian":
            sq = (A ** 2).sum(axis=1)[:, None] + (B ** 2).sum(axis=1)[None, :] \
                - 2.0 * (A @ B.T)
            return np.exp(-np.maximum(sq, 0.0) / self.gamma ** 2)
        return (A @ B.T + self.offset) ** self.degree


@dataclass(frozen=True)
class LinearScorer:
    """s(x) = w'x + b."""

    w: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64).ravel()
        if w.size < 1 or not np.isfinite(w).all() or not np.isfinite(self.b):
            raise FirmError("linear scorer needs finite w (d >= 1) and finite b")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", float(self.b))

    def score(self, x) -> float:
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.shape != self.w.shape:
            raise FirmError(f"input has dimension {x.size}, scorer expects {self.w.size}")
        return float(self.w @ x + self.b)

    def score_many(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.w.size:
            raise FirmError(f"input has dimension {X.shape[1]}, scorer expects {self.w.size}")
        return X @ self.w + self.b

    def gradient_at(self, x0) -> np.ndarray:
        return self.w.copy()


@dataclass(frozen=True)
class KernelExpansionScorer:
    """s(x) = sum_i alpha_i k(points_i, x) + b (label factors folded into alpha)."""

    points: np.ndarray
    alpha: np.ndarray
    b: float
    kernel: KernelSpec

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        alpha = np.asarray(self.alpha, dtype=np.float64).ravel()
        if pts.shape[0] != alpha.size or pts.shape[0] < 1:
            raise FirmError("need one coefficient per expansion point (m >= 1)")
        if not (np.isfinite(pts).all() and np.isfinite(alpha).all() and np.isfinite(self.b)):
            raise FirmError("kernel expansion parameters must be finite")
        pts.setflags(write=False)
        alpha.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "b", float(self.b))

    def score(self, x) -> float:
        return float(self.score_many(np.atleast_2d(x))[0])

    def score_many(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.points.shape[1]:
            raise FirmError(f"input has dimension {X.shape[1]}, "
                            f"scorer expects {self.points.shape[1]}")
        return self.kernel.gram(X, self.points) @ self.alpha + self.b

    def gradient_at(self, x0) -> np.ndarray:
        x0 = np.asarray(x0, dtype=np.float64).ravel()
        diff = self.points - x0
        if self.kernel.variant == "gaussian":
            g2 = self.kernel.gamma ** 2
            kv = np.exp(-(diff ** 2).sum(axis=1) / g2)
            return (2.0 / g2) * ((self.alpha * kv) @ diff)
        p, c = self.kernel.degree, self.kernel.offset
        base = self.points @ x0 + c
        return (self.alpha * p * base ** (p - 1)) @ self.points


@dataclass(frozen=True)
class LabelOracleScorer:
    """Scores looked up from a table keyed by the exact input point.

    Useful for running the importance pipeline directly on raw labels,
    without a prior learning step.
    """

    table: dict

    def __post_init__(self):
        object.__setattr__(self, "table", dict(self.table))

    @staticmethod
    def key_for(x):
        if isinstance(x, str):
            return x
        return tuple(float(v) for v in np.asarray(x).ravel())

    @classmethod
    def from_dataset(cls, data: TabularDataset | SequenceDataset) -> "LabelOracleScorer":
        y = data.labels() if isinstance(data, TabularDataset) else data.y
        rows = data.X if isinstance(data, TabularDataset) else data.sequences
        return cls(table={cls.key_for(r): float(v) for r, v in zip(rows, y)})

    def score(self, x) -> float:
        key = self.key_for(x)
        if key not in self.table:
            raise FirmError(f"oracle miss: input {key!r} not in table")
        return self.table[key]

    def score_many(self, X) -> np.ndarray:
        return np.array([self.score(x) for x in X])


@dataclass(frozen=True)
class PositionalKmerScorer:
    """Linear scorer over positional substring indicators.

    weights maps (position i, substring y) with 1 <= len(y) <= max_degree
    and i + len(y) <= length to a real weight; score(x) adds w for every
    substring incident in x, plus the bias.
    """

    alphabet: tuple[str, ...]
    length: int
    max_degree: int
    weights: dict
    b: float = 0.0

    def __post_init__(self):
        if self.max_degree < 1:
            raise FirmError("K must be >= 1")
        if self.max_degree > self.length:
            raise FirmError("K must not exceed the sequence length")
        symbols = set(self.alphabet)
        w = {}
        for (i, y), v in self.weights.items():
            if not 1 <= len(y) <= self.max_degree:
                raise FirmError(f"substring {y!r} outside degree range")
            if i < 0 or i + len(y) > self.length:
                raise FirmError(f"substring {y!r} at {i} exceeds length {self.length}")
            if not set(y) <= symbols:
                raise FirmError(f"substring {y!r} uses symbols outside the alphabet")
            if not np.isfinite(v):
                raise FirmError("weights must be finite")
            w[(int(i), str(y))] = float(v)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "b", float(self.b))

    def score(self, x: str) -> float:
        if len(x) != self.length:
            raise FirmError(f"sequence length {len(x)} != scorer length {self.length}")
        total = self.b
        for k in range(1, self.max_degree + 1):
            for i in range(self.length - k + 1):
                total += self.weights.get((i, x[i:i + k]), 0.0)
        return total

    def score_many(self, X) -> np.ndarray:
        return np.array([self.score(x) for x in X])


Scorer = LinearScorer | KernelExpansionScorer | LabelOracleScorer | PositionalKmerScorer


def score_many(scorer: Scorer, X) -> np.ndarray:
    """Evaluate a scorer on every row/sequence of X."""
    return scorer.score_many(X)


def gradient_at(scorer: Scorer, x0) -> np.ndarray:
    """Analytic gradient of the score at x0 (linear and kernel scorers)."""
    if not hasattr(scorer, "gradient_at"):
        raise FirmError(f"{type(scorer).__name__} has no gradient")
    return scorer.gradient_at(x0)


# ---------------------------------------------------------------------------
# trainers
# ---------------------------------------------------------------------------

def train_least_squares(data: TabularDataset) -> LinearScorer:
    """Unregularized least squares with a fitted bias.

    Solves min ||Xw + b - y||^2 via a ones-column augmentation. Raises on
    rank-deficient designs (use train_ridge there).
    """
    y = data.labels()
    A = np.column_stack([data.X, np.ones(data.n)])
    sol, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < data.d + 1:
        raise FirmError("singular normal equations; use train_ridge with lambda > 0")
    return LinearScorer(w=sol[:-1], b=float(sol[-1]))


def train_ridge(data: TabularDataset, lam: float) -> LinearScorer:
    """Ridge regression w = (X'X + n*lambda*I)^-1 X'y with unpenalized bias."""
    if lam <= 0:
        raise FirmError("lambda must be > 0")
    y = data.labels()
    Xc = data.X - data.column_means
    yc = y - y.mean()
    G = Xc.T @ Xc + data.n * lam * np.eye(data.d)
    w = np.linalg.solve(G, Xc.T @ yc)
    b = float(y.mean() - data.column_means @ w)
    return LinearScorer(w=w, b=b)


def train_kernel_ridge(data: TabularDataset, kernel: KernelSpec,
                       lam: float) -> KernelExpansionScorer:
    """Kernel ridge: alpha = (K + n*lambda*I)^-1 (y - mean(y)), b = mean(y)."""
    if lam <= 0:
        raise FirmError("lambda must be > 0")
    y = data.labels()
    K = kernel.gram(data.X, data.X)
    alpha = np.linalg.solve(K + data.n * lam * np.eye(data.n), y - y.mean())
    return KernelExpansionScorer(points=data.X, alpha=alpha, b=float(y.mean()),
                                 kernel=kernel)


def _kmer_feature_index(data: SequenceDataset, K: int) -> list[tuple[int, str]]:
    feats = set()
    for s in data.sequences:
        for k in range(1, K + 1):
            for i in range(data.length - k + 1):
                feats.add((i, s[i:i + k]))
    return sorted(feats)


def train_positional_kmer(data: SequenceDataset, K: int, lam: float) -> PositionalKmerScorer:
    """Ridge regression on the explicit positional substring feature map.

    Only (position, substring) pairs observed in the data enter the map, so
    the stored weights are sparse by construction. Solved in the dual, which
    is cheap when the number of sequences is below the feature count.
    """
    if K < 1:
        raise FirmError("K must be >= 1")
    if K > data.length:
        raise FirmError("K must not exceed the sequence length")
    if lam <= 0:
        raise FirmError("lambda must be > 0")
    feats = _kmer_feature_index(data, K)
    col = {f: c for c, f in enumerate(feats)}
    Phi = np.zeros((data.n, len(feats)))
    for r, s in enumerate(data.sequences):
        for k in range(1, K + 1):
            for i in range(data.length - k + 1):
                Phi[r, col[(i, s[i:i + k])]] += 1.0
    means = Phi.mean(axis=0)
    Phic = Phi - means
    yc = data.y - data.y.mean()
    gram = Phic @ Phic.T
    alpha = np.linalg.solve(gram + data.n * lam * np.eye(data.n), yc)
    w = Phic.T @ alpha
    b = float(data.y.mean() - means @ w)
    weights = {feats[c]: float(w[c]) for c in range(len(feats))}
    return PositionalKmerScorer(alphabet=data.alphabet, length=data.length,
                                max_degree=K, weights=weights, b=b)


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

def standardize(scorer: Scorer, data: TabularDataset | SequenceDataset) -> Scorer:
    """Rescale a scorer so its scores have unit variance over the data.

    Importances computed from the result are comparable across different
    scorers; the ranking for any single scorer is unchanged.
    """
    rows = data.X if isinstance(data, TabularDataset) else data.sequences
    sd = float(np.std(score_many(scorer, rows)))
    if sd == 0.0:
        raise FirmError("zero score variance")
    if isinstance(scorer, LinearScorer):
        return LinearScorer(w=scorer.w / sd, b=scorer.b / sd)
    if isinstance(scorer, KernelExpansionScorer):
        return KernelExpansionScorer(points=scorer.points, alpha=scorer.alpha / sd,
                                     b=scorer.b / sd, kernel=scorer.kernel)
    if isinstance(scorer, LabelOracleScorer):
        return LabelOracleScorer(table={k: v / sd for k, v in scorer.table.items()})
    if isinstance(scorer, PositionalKmerScorer):
        return PositionalKmerScorer(
            alphabet=scorer.alphabet, length=scorer.length,
            max_degree=scorer.max_degree,
            weights={k: v / sd for k, v in scorer.weights.items()},
            b=scorer.b / sd)
    raise FirmError(f"cannot standardize {type(scorer).__name__}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def scorer_to_json(scorer: Scorer) -> str:
    """Serialize a scorer to a JSON document {type, parameters}."""
    if isinstance(scorer, LinearScorer):
        doc = {"type": "linear", "w": scorer.w.tolist(), "b": scorer.b}
    elif isinstance(scorer, KernelExpansionScorer):
        k = scorer.kernel
        kdoc = {"variant": k.variant}
        if k.variant == "gaussian":
            kdoc["gamma"] = k.gamma
        else:
            kdoc.update(degree=k.degree, offset=k.offset)
        doc = {"type": "kernel_expansion", "points": scorer.points.tolist(),
               "alpha": scorer.alpha.tolist(), "b": scorer.b, "kernel": kdoc}
    elif isinstance(scorer, LabelOracleScorer):
        entries = sorted((list(k) if isinstance(k, tuple) else k, v)
                         for k, v in scorer.table.items())
        doc = {"type": "label_oracle", "entries": entries}
    elif isinstance(scorer, PositionalKmerScorer):
        weights = sorted([i, y, v] for (i, y), v in scorer.weights.items())
        doc = {"type": "positional_kmer", "alphabet": list(scorer.alphabet),
               "length": scorer.length, "max_degree": scorer.max_degree,
               "weights": weights, "b": scorer.b}
    else:
        raise FirmError(f"cannot serialize {type(scorer).__name__}")
    return json.dumps(doc, sort_keys=True)


def scorer_from_json(text: str) -> Scorer:
    """Inverse of scorer_to_json."""
    doc = json.loads(text)
    t = doc.get("type")
    if t == "linear":
        return LinearScorer(w=np.array(doc["w"]), b=doc["b"])
    if t == "kernel_expansion":
        kdoc = doc["kernel"]
        if kdoc["variant"] == "gaussian":
            kernel = KernelSpec.gaussian(kdoc["gamma"])
        else:
            kernel = KernelSpec.polynomial(kdoc["degree"], kdoc["offset"])
        return KernelExpansionScorer(points=np.array(doc["points"]),
                                     alpha=np.array(doc["alpha"]),
                                     b=doc["b"], kernel=kernel)
    if t == "label_oracle":
        return LabelOracleScorer(table={
            (k if isinstance(k, str) else tuple(k)): v for k, v in doc["entries"]})
    if t == "positional_kmer":
        return PositionalKmerScorer(
            alphabet=tuple(doc["alphabet"]), length=doc["length"],
            max_degree=doc["max_degree"],
            weights={(i, y): v for i, y, v in doc["weights"]}, b=doc["b"])
    raise FirmError(f"unknown scorer type {t!r}")
