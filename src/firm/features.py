"""Feature functions whose importance gets ranked.

A feature maps a numeric row to a real value; evaluate_rows(X) gives one
value per row of X.
Projections on ±1 data take values in {-1,+1}; conjunctions and xor take
values in {0,1}.

describe() names a feature with 1-based indices, the form that names it in
result tables (the feature column): ``x3``, ``and(+1,-2)``, ``xor(1,2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFeatureError, FirmError


@dataclass(frozen=True)
class Projection:
    """f(x) = x_j (0-based column index)."""

    j: int

    def evaluate_rows(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X)[:, self.j].astype(float)

    def describe(self) -> str:
        return f"x{self.j + 1}"


@dataclass(frozen=True)
class SignedConjunction:
    """1 iff every listed ±1 variable matches its polarity.

    literals is a tuple of (index, polarity) with polarity in {+1, -1};
    indices must be distinct.
    """

    literals: tuple[tuple[int, int], ...]

    def __post_init__(self):
        lits = tuple((int(j), int(s)) for j, s in self.literals)
        if not lits:
            raise FirmError("conjunction needs at least one literal")
        idx = [j for j, _ in lits]
        if len(set(idx)) != len(idx):
            raise FirmError("conjunction literals must have distinct indices")
        if any(s not in (-1, 1) for _, s in lits):
            raise FirmError("polarity must be +1 or -1")
        object.__setattr__(self, "literals", lits)

    def evaluate_rows(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        ok = np.ones(X.shape[0], dtype=bool)
        for j, s in self.literals:
            ok &= X[:, j] == s
        return ok.astype(float)

    def describe(self) -> str:
        inner = ",".join(f"{'+' if s > 0 else '-'}{j + 1}" for j, s in self.literals)
        return f"and({inner})"


@dataclass(frozen=True)
class Xor:
    """1 iff x_j != x_k."""

    j: int
    k: int

    def __post_init__(self):
        if self.j == self.k:
            raise FirmError("xor needs two distinct indices")

    def evaluate_rows(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        return (X[:, self.j] != X[:, self.k]).astype(float)

    def describe(self) -> str:
        return f"xor({self.j + 1},{self.k + 1})"


FeatureFunction = Projection | SignedConjunction | Xor


def refuse_constant_column(X: np.ndarray, names) -> None:
    """Raise DegenerateFeatureError naming the first column of the n x d
    matrix X (n >= 1) whose cells are all equal. Exact, unlike a variance
    test: a column of 0.1s can have a computed variance of 1e-34."""
    const = np.flatnonzero(X.min(axis=0) == X.max(axis=0))
    if const.size:
        raise DegenerateFeatureError(f"feature {names[const[0]]} is constant")


def column_names(names, d: int) -> list[str]:
    """The given names of d feature columns, or x1 .. xd."""
    if names is None:
        return [Projection(j).describe() for j in range(d)]
    if len(names) != d:
        raise FirmError(f"got {len(names)} names for {d} coordinates")
    return list(names)


def feature_columns(scores, F, names=None):
    """Inputs of the column-wise estimators, checked and in one shape.

    Returns the scores as a vector, F as an n-by-d matrix (a 1-D F is one
    column) and the column names. A constant column is refused by
    refuse_constant_column, the exact test min = max.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    F = np.asarray(F, dtype=np.float64)
    if F.ndim == 1:
        F = F[:, None]
    if F.ndim != 2 or F.shape[0] != scores.size:
        raise FirmError("scores and feature values must have equal length")
    if scores.size == 0:
        raise FirmError("need at least one sample")
    names = column_names(names, F.shape[1])
    refuse_constant_column(F, names)
    return scores, F, names


def column_blocks(F):
    """F's columns, max(1, 2**16 // n) at a time, as transposed C-ordered
    copies: a reduction along a row runs over one contiguous column, so no
    column's bits depend on the other columns of its block."""
    width = max(1, 2 ** 16 // F.shape[0])
    return (np.array(F[:, j:j + width].T, order="C") for j in range(0, F.shape[1], width))


def row_blocks(X, mu, y=None):
    """X - mu in new C-ordered blocks of max(1, 2**16 // w) rows, w = d, or d + 1
    with y's rows as the last column: a sum over them holds no n x d temporary."""
    rows = max(1, 2 ** 16 // (X.shape[1] + (y is not None)))
    for i in range(0, len(X), rows):
        B = X[i:i + rows] - mu
        yield B if y is None else np.column_stack([B, y[i:i + rows]])
