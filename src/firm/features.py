"""Feature functions whose importance gets ranked.

A feature maps an input point (a numeric row or a sequence string) to a
real value; evaluate_rows(X) gives one value per row or sequence of X.
Projections on ±1 data take values in {-1,+1}; all indicator-style
features (conjunctions, xor, thresholds, positional oligomers) take values
in {0,1}.

Features parse from / render to compact strings with 1-based indices, the
form that names them in result tables (the feature column): ``x3``,
``and(+1,-2)``, ``xor(1,2)``, ``thr(2,0.5)``, ``kmer(GAT@4)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import FirmError


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


@dataclass(frozen=True)
class Threshold:
    """1 iff x_j > tau."""

    j: int
    tau: float

    def evaluate_rows(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X)[:, self.j] > self.tau).astype(float)

    def describe(self) -> str:
        return f"thr({self.j + 1},{self.tau})"


@dataclass(frozen=True)
class PositionalOligomer:
    """1 iff the substring z sits at position j of the sequence."""

    z: str
    j: int

    def __post_init__(self):
        if not self.z:
            raise FirmError("oligomer must be non-empty")
        if self.j < 0:
            raise FirmError("oligomer position must be >= 0")

    def evaluate_rows(self, X) -> np.ndarray:
        end = self.j + len(self.z)
        shortest = min(map(len, X), default=end)
        if end > shortest:
            raise FirmError(f"oligomer window [{self.j}, {end}) "
                            f"exceeds sequence length {shortest}")
        return np.array([s[self.j:end] == self.z for s in X], dtype=float)

    def describe(self) -> str:
        return f"kmer({self.z}@{self.j + 1})"


FeatureFunction = Projection | SignedConjunction | Xor | Threshold | PositionalOligomer


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
    column) and the column names.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    F = np.asarray(F, dtype=np.float64)
    if F.ndim == 1:
        F = F[:, None]
    if F.ndim != 2 or F.shape[0] != scores.size:
        raise FirmError("scores and feature values must have equal length")
    return scores, F, column_names(names, F.shape[1])


# ---------------------------------------------------------------------------
# compact-string parsing (1-based indices on this surface)
# ---------------------------------------------------------------------------

_PROJ_RE = re.compile(r"^x(\d+)$")
_AND_RE = re.compile(r"^and\(([^)]+)\)$")
_XOR_RE = re.compile(r"^xor\((\d+),(\d+)\)$")
_THR_RE = re.compile(r"^thr\((\d+),([^,)]+)\)$")
_KMER_RE = re.compile(r"^kmer\(([A-Za-z]+)@(\d+)\)$")


def parse_feature(text: str) -> FeatureFunction:
    """Parse a compact feature string (see module docstring for the forms)."""
    text = text.strip()
    if m := _PROJ_RE.match(text):
        return Projection(j=int(m.group(1)) - 1)
    if m := _AND_RE.match(text):
        lits = []
        for tok in m.group(1).split(","):
            tok = tok.strip()
            if not tok or tok[0] not in "+-" or not tok[1:].isdigit():
                raise FirmError(f"bad conjunction literal {tok!r} in {text!r}")
            lits.append((int(tok[1:]) - 1, 1 if tok[0] == "+" else -1))
        return SignedConjunction(literals=tuple(lits))
    if m := _XOR_RE.match(text):
        return Xor(j=int(m.group(1)) - 1, k=int(m.group(2)) - 1)
    if m := _THR_RE.match(text):
        return Threshold(j=int(m.group(1)) - 1, tau=float(m.group(2)))
    if m := _KMER_RE.match(text):
        return PositionalOligomer(z=m.group(1), j=int(m.group(2)) - 1)
    raise FirmError(f"cannot parse feature {text!r}")
