"""Data ingestion and covariance estimation for tabular and sequence data.

All container types are immutable after construction (arrays are frozen),
so shared instances are safe under concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, FirmError

DNA_ALPHABET = ("A", "C", "G", "T")


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TabularDataset:
    """An n-by-d data matrix with optional labels and column names."""

    X: np.ndarray
    y: np.ndarray | None
    names: tuple[str, ...]
    column_means: np.ndarray = field(init=False)
    binary_pm1: bool = field(init=False)

    def __post_init__(self):
        X = _frozen(np.atleast_2d(self.X))
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise FirmError("data matrix must have at least one row and one column")
        if not np.isfinite(X).all():
            raise FirmError("data matrix contains non-finite entries")
        if len(self.names) != X.shape[1]:
            raise FirmError(f"got {len(self.names)} names for {X.shape[1]} columns")
        y = self.y
        if y is not None:
            y = _frozen(np.asarray(y).ravel())
            if y.shape[0] != X.shape[0]:
                raise FirmError("label vector length does not match row count")
            if not np.isfinite(y).all():
                raise FirmError("labels contain non-finite entries")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "column_means", _frozen(X.mean(axis=0)))
        object.__setattr__(self, "binary_pm1", bool(np.isin(X, (-1.0, 1.0)).all()))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def labels(self) -> np.ndarray:
        if self.y is None:
            raise FirmError("dataset has no labels")
        return self.y


@dataclass(frozen=True)
class SequenceDataset:
    """Fixed-length sequences over a finite alphabet, with ±1 labels."""

    sequences: tuple[str, ...]
    y: np.ndarray
    alphabet: tuple[str, ...] = DNA_ALPHABET

    def __post_init__(self):
        seqs = tuple(self.sequences)
        if not seqs:
            raise FirmError("no sequences")
        L = len(seqs[0])
        symbols = set(self.alphabet)
        for k, s in enumerate(seqs):
            if len(s) != L:
                raise DataFormatError(f"length mismatch at line {k + 1}: "
                                      f"expected {L}, got {len(s)}")
            for ch in s:
                if ch not in symbols:
                    raise DataFormatError(f"symbol {ch} not in alphabet at line {k + 1}")
        y = _frozen(np.asarray(self.y).ravel())
        if y.shape[0] != len(seqs):
            raise FirmError("label vector length does not match sequence count")
        if not np.isin(y, (-1.0, 1.0)).all():
            raise FirmError("sequence labels must be +1 or -1")
        object.__setattr__(self, "sequences", seqs)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "alphabet", tuple(self.alphabet))

    @property
    def n(self) -> int:
        return len(self.sequences)

    @property
    def length(self) -> int:
        return len(self.sequences[0])


@dataclass(frozen=True)
class CovarianceEstimate:
    """A d-by-d symmetric covariance matrix plus provenance."""

    sigma: np.ndarray
    method: str  # empirical_uncentered | empirical_centered | shrunk | supplied
    shrinkage_lambda: float | None = None

    def __post_init__(self):
        sigma = _frozen(np.atleast_2d(self.sigma))
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise FirmError("covariance must be square")
        if not np.isfinite(sigma).all():
            raise FirmError("covariance contains non-finite entries")
        if np.abs(sigma - sigma.T).max() > 1e-12:
            raise FirmError("covariance is not symmetric")
        if (np.diag(sigma) < 0).any():
            raise FirmError("covariance has a negative diagonal entry")
        if self.method == "shrunk":
            if self.shrinkage_lambda is None or not 0.0 <= self.shrinkage_lambda <= 1.0:
                raise FirmError("shrunk estimate requires shrinkage_lambda in [0, 1]")
        elif self.shrinkage_lambda is not None:
            raise FirmError("shrinkage_lambda only valid for method='shrunk'")
        object.__setattr__(self, "sigma", sigma)

    @property
    def d(self) -> int:
        return self.sigma.shape[0]


# ---------------------------------------------------------------------------
# loading / saving
# ---------------------------------------------------------------------------

def _parse_cell(raw: str, line_no: int, col_name: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise DataFormatError(
            f"cell at row {line_no}, column '{col_name}' does not parse "
            f"as a number: {raw!r}") from None
    if not math.isfinite(v):
        raise DataFormatError(
            f"non-finite value at row {line_no}, column '{col_name}': {raw!r}")
    return v


def load_tabular(path, has_labels: bool = False) -> TabularDataset:
    """Read a comma-separated file (header row, '.' decimals, no quoting).

    With has_labels the last column holds the labels.
    """
    with open(path, encoding="utf-8") as fh:
        # blank lines are skipped, but errors name a line by its place in the file
        lines = ((line_no, ln.rstrip("\n")) for line_no, ln in enumerate(fh, start=1)
                 if ln.strip() != "")
        first = next(lines, None)
        if first is None:
            raise DataFormatError(f"{path}: empty file")
        header = [h.strip() for h in first[1].split(",")]
        ncols = len(header)
        rows = []
        for line_no, line in lines:
            cells = line.split(",")
            if len(cells) != ncols:
                raise DataFormatError(
                    f"{path}: ragged row at line {line_no}: "
                    f"expected {ncols} cells, got {len(cells)}")
            rows.append([_parse_cell(c.strip(), line_no, header[i])
                         for i, c in enumerate(cells)])
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    data = np.array(rows, dtype=np.float64)
    if has_labels:
        if ncols < 2:
            raise DataFormatError(f"{path}: need at least one feature column plus labels")
        return TabularDataset(X=data[:, :-1], y=data[:, -1], names=tuple(header[:-1]))
    return TabularDataset(X=data, y=None, names=tuple(header))


def save_tabular(data: TabularDataset, path) -> None:
    """Write a dataset back in the load_tabular dialect.

    Floats are written with repr, so a save/load round trip is
    bit-identical.
    """
    cols = list(data.names) + (["label"] if data.y is not None else [])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(data.n):
            cells = [repr(float(v)) for v in data.X[i]]
            if data.y is not None:
                cells.append(repr(float(data.y[i])))
            fh.write(",".join(cells) + "\n")


def load_sequences(path, alphabet: tuple[str, ...] = DNA_ALPHABET) -> SequenceDataset:
    """Read tab-separated `<sequence>\\t<label>` lines, label in {+1,-1}."""
    seqs: list[str] = []
    labels: list[float] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line == "":
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataFormatError(
                    f"{path}: line {line_no}: expected `<sequence>\\t<label>`")
            seq, raw_label = parts
            if raw_label == "+1" or raw_label == "1":
                labels.append(1.0)
            elif raw_label == "-1":
                labels.append(-1.0)
            else:
                raise DataFormatError(
                    f"{path}: line {line_no}: malformed label {raw_label!r}")
            seqs.append(seq)
    if not seqs:
        raise DataFormatError(f"{path}: no sequences")
    return SequenceDataset(sequences=tuple(seqs), y=np.array(labels), alphabet=alphabet)


# ---------------------------------------------------------------------------
# covariance estimation
# ---------------------------------------------------------------------------

def empirical_covariance(data: TabularDataset, centered: bool = False) -> CovarianceEstimate:
    """Empirical covariance, divisor n.

    Uncentered: X'X / n (the form the exact binary derivation uses).
    Centered: column means subtracted first; requires n >= 2.
    """
    X = data.X
    if centered:
        if data.n < 2:
            raise FirmError("centered covariance requires n >= 2")
        X = X - data.column_means
        method = "empirical_centered"
    else:
        method = "empirical_uncentered"
    sigma = (X.T @ X) / data.n
    sigma = (sigma + sigma.T) / 2.0  # kill rounding asymmetry
    return CovarianceEstimate(sigma=sigma, method=method)


def shrinkage_covariance(data: TabularDataset) -> CovarianceEstimate:
    """Shrink the centered covariance toward its diagonal.

    The mixing intensity is the closed-form minimizer of expected squared
    error for the diagonal target,

        lambda* = sum_{i != j} Var^(s_ij) / sum_{i != j} s_ij^2,

    clipped to [0, 1], where Var^(s_ij) estimates the sampling variance of
    the covariance entries. The result is positive definite whenever all
    sample variances are positive and lambda* > 0.
    """
    n, d = data.n, data.d
    if n < 3:
        raise FirmError("shrinkage estimate requires n >= 3")
    S = empirical_covariance(data, centered=True).sigma
    if (np.diag(S) <= 0).any():
        j = int(np.argmin(np.diag(S)))
        raise FirmError(f"zero-variance column '{data.names[j]}'")
    if d == 1:
        return CovarianceEstimate(sigma=S, method="shrunk", shrinkage_lambda=0.0)
    # per-entry sampling variance of s_ij from the products w_kij = xc_ki * xc_kj
    # Var^(s_ij) = n/(n-1)^3 * sum_k (w_kij - mean_k w_kij)^2
    Xc2 = (data.X - data.column_means) ** 2
    W2 = Xc2.T @ Xc2                           # sum_k w_kij^2
    var_s = (n / (n - 1) ** 3) * (W2 - n * S ** 2)
    off = ~np.eye(d, dtype=bool)
    denom = float((S[off] ** 2).sum())
    if denom == 0.0:
        lam = 1.0
    else:
        lam = float(np.clip(var_s[off].sum() / denom, 0.0, 1.0))
    sigma = (1.0 - lam) * S + lam * np.diag(np.diag(S))
    return CovarianceEstimate(sigma=sigma, method="shrunk", shrinkage_lambda=lam)
