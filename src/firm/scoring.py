"""Scoring functions s: X -> R, their gradients, and small trainers.

Four scorer families are provided: linear, kernel expansion (Gaussian or
polynomial kernel), label oracle (scores are looked up, e.g. raw training
labels), and positional k-mer scorers for sequences. Scorers are immutable;
trainers are single-shot pure functions.

Scorers evaluate in batches only: every scorer has score_many(X), one score
per row or sequence of X, and the linear and kernel scorers gradient_many(X),
one gradient per row, where a constant gradient (linear) is one row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .dataset import SequenceDataset, TabularDataset, encode_sequences
from .errors import DEFAULT_CELL_BUDGET, BudgetExceededError, FirmError


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
        if not 0 < gamma < np.inf:
            raise FirmError("gamma must be finite and > 0")
        return cls(variant="gaussian", gamma=float(gamma))

    @classmethod
    def polynomial(cls, degree: int, offset: float = 1.0) -> "KernelSpec":
        if degree < 1:
            raise FirmError("degree must be >= 1")
        if not 0 <= offset < np.inf:
            raise FirmError("offset must be finite and >= 0")
        return cls(variant="polynomial", degree=int(degree), offset=float(offset))

    def gram(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Kernel matrix k(a_i, b_j) for the rows of the matrices A and B."""
        if self.variant == "gaussian":
            sq = (A ** 2).sum(axis=1)[:, None] + (B ** 2).sum(axis=1)[None, :] \
                - 2.0 * (A @ B.T)
            return np.exp(-np.maximum(sq, 0.0) / self.gamma ** 2)
        return (A @ B.T + self.offset) ** self.degree


def _rows(X, d: int) -> np.ndarray:
    """X as a float64 matrix of d-dimensional rows."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != d:
        raise FirmError(f"input has dimension {X.shape[1]}, scorer expects {d}")
    return X


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

    def score_many(self, X) -> np.ndarray:
        return _rows(X, self.w.size) @ self.w + self.b

    def gradient_many(self, X) -> np.ndarray:
        _rows(X, self.w.size)
        return self.w[None, :]


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

    def score_many(self, X) -> np.ndarray:
        X = _rows(X, self.points.shape[1])
        return self.kernel.gram(X, self.points) @ self.alpha + self.b

    def gradient_many(self, X) -> np.ndarray:
        X = _rows(X, self.points.shape[1])
        if self.kernel.variant == "gaussian":
            # (2/gamma^2) ((K o alpha) P - rowsum(K o alpha) X), K = gram(X, P)
            K = self.kernel.gram(X, self.points) * self.alpha
            return (2.0 / self.kernel.gamma ** 2) * (K @ self.points - K.sum(axis=1)[:, None] * X)
        p, c = self.kernel.degree, self.kernel.offset   # ((X P' + c)^(p-1) o p alpha) P
        return ((X @ self.points.T + c) ** (p - 1) * (p * self.alpha)) @ self.points


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

    def score_many(self, X) -> np.ndarray:
        try:
            return np.array([self.table[self.key_for(x)] for x in X])
        except KeyError as miss:
            raise FirmError(f"oracle miss: input {miss.args[0]!r} not in table") from None


def kmer_offsets(A: int, L: int, K: int) -> np.ndarray:
    """Start of each degree's block in the flat weights of a positional
    k-mer model (A letters, length L, degrees 1..K), then the weight count.
    Raises BudgetExceededError past DEFAULT_CELL_BUDGET weights."""
    if K < 1:
        raise FirmError("K must be >= 1")
    if K > L:
        raise FirmError("K must not exceed the sequence length")
    sizes = [(L - k + 1) * A ** k for k in range(1, K + 1)]
    if sum(sizes) > DEFAULT_CELL_BUDGET:
        raise BudgetExceededError(f"degree {K} model would need {sum(sizes)} "
                                  f"weights; budget is {DEFAULT_CELL_BUDGET} cells")
    return np.cumsum([0] + sizes)


def kmer_ids(codes: np.ndarray, A: int, K: int) -> np.ndarray:
    """Flat weight index of every positional substring of n x L coded
    sequences (encode_sequences): one column per (degree k <= K, position i),
    degree-major, holding offset(k) + i * A^k + the substring's code."""
    L = codes.shape[1]
    off = kmer_offsets(A, L, K)
    out = []
    code = np.zeros(codes.shape, dtype=np.intp)
    for k in range(1, K + 1):
        code = code[:, :L - k + 1] * A + codes[:, k - 1:]
        out.append(code + (off[k - 1] + np.arange(L - k + 1) * A ** k))
    return np.concatenate(out, axis=1)


@dataclass(frozen=True)
class PositionalKmerScorer:
    """Linear scorer over positional substring indicators.

    weights is one read-only float64 vector with an entry for every degree
    k <= max_degree, position i <= length - k and length-k substring y:
    degree-major, then position, then y's base-|alphabet| code with the
    leftmost letter most significant (PoimTable's oligomer order). A score
    sums the weight of every substring incident in x, plus the bias. Only
    this module knows the layout: kmer_ids maps sequences to flat indices
    and block(k) views one degree as (length - k + 1, A, ..., A).
    """

    alphabet: tuple[str, ...]
    length: int
    max_degree: int
    weights: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        size = kmer_offsets(len(self.alphabet), self.length, self.max_degree)[-1]
        w = np.array(self.weights, dtype=np.float64)
        if w.shape != (size,):
            raise FirmError(f"need {size} weights, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise FirmError("weights must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "b", float(self.b))

    def block(self, k: int) -> np.ndarray:
        """Degree-k weights as a (length - k + 1, A, ..., A) view."""
        off = kmer_offsets(len(self.alphabet), self.length, self.max_degree)
        return self.weights[off[k - 1]:off[k]].reshape((-1,) + (len(self.alphabet),) * k)

    def score_many(self, X) -> np.ndarray:
        codes = encode_sequences(X, self.alphabet, self.length)
        ids = kmer_ids(codes, len(self.alphabet), self.max_degree)
        return self.weights[ids].sum(axis=1) + self.b


Scorer = LinearScorer | KernelExpansionScorer | LabelOracleScorer | PositionalKmerScorer


def score_many(scorer: Scorer, X) -> np.ndarray:
    """Evaluate a scorer on every row/sequence of X."""
    return scorer.score_many(X)


def differentiable(scorer: Scorer) -> LinearScorer | KernelExpansionScorer:
    """The scorer itself, if it has an analytic gradient; else FirmError."""
    if not hasattr(scorer, "gradient_many"):
        raise FirmError(f"{type(scorer).__name__} has no gradient")
    return scorer


def gradient_at(scorer: Scorer, x0) -> np.ndarray:
    """Analytic gradient of the score at one point x0."""
    return differentiable(scorer).gradient_many(np.atleast_2d(x0))[0]


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
    if not 0 < lam < np.inf:
        raise FirmError("lambda must be finite and > 0")
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
    if not 0 < lam < np.inf:
        raise FirmError("lambda must be finite and > 0")
    y = data.labels()
    K = kernel.gram(data.X, data.X)
    alpha = np.linalg.solve(K + data.n * lam * np.eye(data.n), y - y.mean())
    return KernelExpansionScorer(points=data.X, alpha=alpha, b=float(y.mean()),
                                 kernel=kernel)


def train_positional_kmer(data: SequenceDataset, K: int, lam: float) -> PositionalKmerScorer:
    """Ridge regression on the positional substring indicators, in the dual.

    The n x n Gram matrix G of shared substrings is summed from the one-hot
    codes of a few positions at a time (counts below 2^24, exact in float32),
    so the n x F design never exists. G is centred as H G H, whose null space
    holds the ones vector, so the dual solution alpha sums to 0 and each
    weight is its substring's alpha-weighted count (bincount), exactly 0 for
    a substring that never occurs.
    """
    if not 0 < lam < np.inf:
        raise FirmError("lambda must be finite and > 0")
    A, L, n = len(data.alphabet), data.length, data.n
    off = kmer_offsets(A, L, K)
    ids = kmer_ids(encode_sequences(data.sequences, data.alphabet), A, K)
    gram = np.zeros((n, n))
    col = 0
    for k in range(1, K + 1):
        step = max(1, 2048 // A ** k)           # about 2048 one-hot columns at a time
        for i0 in range(0, L - k + 1, step):
            cols = ids[:, col + i0:col + min(i0 + step, L - k + 1)]
            onehot = np.zeros((n, cols.shape[1] * A ** k), dtype=np.float32)
            np.put_along_axis(onehot, cols - (off[k - 1] + i0 * A ** k), 1.0, axis=1)
            gram += onehot @ onehot.T
        col += L - k + 1
    r = gram.mean(axis=1)
    gram += r.mean() - r[:, None] - r[None, :]
    gram[np.diag_indices(n)] += n * lam
    alpha = np.linalg.solve(gram, data.y - data.y.mean())
    w = np.bincount(ids.ravel(), np.repeat(alpha, ids.shape[1]), minlength=off[-1])
    means = np.bincount(ids.ravel(), minlength=off[-1]) / n
    return PositionalKmerScorer(alphabet=data.alphabet, length=L, max_degree=K,
                                weights=w, b=float(data.y.mean() - means @ w))


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
        return replace(scorer, alpha=scorer.alpha / sd, b=scorer.b / sd)
    if isinstance(scorer, LabelOracleScorer):
        return LabelOracleScorer(table={k: v / sd for k, v in scorer.table.items()})
    if isinstance(scorer, PositionalKmerScorer):
        return replace(scorer, weights=scorer.weights / sd, b=scorer.b / sd)
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
        doc = {"type": "positional_kmer", "alphabet": list(scorer.alphabet),
               "length": scorer.length, "max_degree": scorer.max_degree,
               "weights": scorer.weights.tolist(), "b": scorer.b}
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
            weights=doc["weights"], b=doc["b"])
    raise FirmError(f"unknown scorer type {t!r}")
