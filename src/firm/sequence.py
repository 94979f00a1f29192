"""Positional oligomer importance for sequence scorers.

For a positional k-mer scoring function and an order-0 (per-letter
independent) background, the table entry for substring z at position j is

    Q'(z, j) = E[s(X) | X[j..j+k) = z] - E[s(X)],

computed exactly by splitting every scored substring into the part pinned
by the conditioning window and the part still free. A weight on substring
y at position i overlaps the window when j - |y| < i < j + k; any other
weight cancels. The scorer's weights are read per degree as (position,
letter, ...) blocks, and tables follow the scorer's alphabet order. The
rescaled values
Q(z, j) = Q'(z, j) * sqrt((1 - p_z) / p_z) make slices with different
oligomer probabilities comparable; under a uniform background the factor
is constant per slice, so it never changes within-slice rankings.

The conditioning length k may exceed the scorer's substring degree: the
importance of longer, never-scored features is exactly what the table is
for.
"""

from __future__ import annotations


from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product

import numpy as np

from .dataset import SequenceDataset, encode_sequences
from .errors import DEFAULT_CELL_BUDGET, BudgetExceededError, FirmError
from .scoring import PositionalKmerScorer


@dataclass(frozen=True)
class MarkovBackground:
    """Order-0 background: independent letters with fixed probabilities."""

    alphabet: tuple[str, ...]
    letter_prob: dict

    def __post_init__(self):
        probs = {str(a): float(p) for a, p in self.letter_prob.items()}
        if set(probs) != set(self.alphabet):
            raise FirmError("letter probabilities must cover the alphabet exactly")
        vals = np.array([probs[a] for a in self.alphabet])
        if (vals <= 0).any():
            raise FirmError("letter probabilities must be positive")
        if abs(vals.sum() - 1.0) > 1e-12:
            raise FirmError("letter probabilities must sum to 1")
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "letter_prob", probs)

    @classmethod
    def uniform(cls, alphabet: tuple[str, ...]) -> "MarkovBackground":
        p = 1.0 / len(alphabet)
        return cls(alphabet=tuple(alphabet), letter_prob={a: p for a in alphabet})

    @classmethod
    def fit(cls, data: SequenceDataset) -> "MarkovBackground":
        """Letter frequencies of the data (every letter must occur)."""
        codes = encode_sequences(data.sequences, data.alphabet)
        counts = np.bincount(codes.ravel(), minlength=len(data.alphabet))
        if not counts.all():
            missing = data.alphabet[counts.argmin()]
            raise FirmError(f"letter {missing!r} never occurs; cannot fit background")
        return cls(alphabet=data.alphabet,
                   letter_prob=dict(zip(data.alphabet, (counts / counts.sum()).tolist())))

    def prob_of(self, s: str) -> float:
        p = np.array([self.letter_prob[a] for a in self.alphabet])
        return float(np.prod(p[encode_sequences([s], self.alphabet)[0]]))


@dataclass(frozen=True)
class PoimTable:
    """Importance of every length-k oligomer at every position.

    values[zi, j] holds the conditional-mean shift Q' for the oligomer
    with index zi (base-|alphabet| encoding, leftmost symbol most
    significant) at position j; firm_values holds the rescaled Q.
    """

    k: int
    length: int
    alphabet: tuple[str, ...]
    values: np.ndarray        # (|alphabet|^k, length - k + 1)
    firm_values: np.ndarray   # same shape

    def __post_init__(self):
        for a in (self.values, self.firm_values):
            a.setflags(write=False)

    @property
    def positions(self) -> int:
        return self.length - self.k + 1

    def oligomer_index(self, z: str) -> int:
        if len(z) != self.k:
            raise FirmError(f"oligomer {z!r} does not have length {self.k}")
        codes = encode_sequences([z], self.alphabet)[0]
        return int(np.ravel_multi_index(tuple(codes), (len(self.alphabet),) * self.k))

    def oligomer(self, index: int) -> str:
        shape = (len(self.alphabet),) * self.k
        return "".join(self.alphabet[i] for i in np.unravel_index(index, shape))

    def value(self, z: str, j: int) -> float:
        return float(self.values[self.oligomer_index(z), j])

    def firm_value(self, z: str, j: int) -> float:
        return float(self.firm_values[self.oligomer_index(z), j])


def _letter_probs(scorer: PositionalKmerScorer, bg: MarkovBackground) -> np.ndarray:
    """Background letter probabilities in the scorer's alphabet order."""
    if set(scorer.alphabet) != set(bg.alphabet):
        raise FirmError("scorer and background alphabets differ")
    return np.array([bg.letter_prob[a] for a in scorer.alphabet])


def _string_probs(p: np.ndarray, m: int) -> np.ndarray:
    """Probability of every length-m string in base-|A| order ([1.0] for m = 0)."""
    return reduce(np.multiply.outer, [p] * m, np.ones(())).ravel()


def _window_shifts(scorer: PositionalKmerScorer, p: np.ndarray, k: int, j0: int, j1: int,
                   budget: int = DEFAULT_CELL_BUDGET) -> np.ndarray:
    """Q'(z, j) = E[s | X[j..j+k) = z] - E[s] for windows j0 <= j < j1, as a
    (j1 - j0, A, ..., A) array with one letter axis per window position.

    Per degree and offset o = i - j of the overlapping weights, letters of y
    inside the window index its axes and those outside are contracted with
    p; the window's sum of w p(y) is taken off.
    """
    A = len(p)
    j = np.arange(j0, j1)
    if j.size * A ** k > budget:
        raise BudgetExceededError(
            f"table would need {j.size * A ** k} cells; budget is {budget}")
    out = np.zeros((j.size,) + (A,) * k)
    const = np.zeros(j.size)
    for d in range(1, scorer.max_degree + 1):
        W = scorer.block(d)
        for o in range(1 - d, k):
            sel = (j + o >= 0) & (j + o <= scorer.length - d)
            lo, hi = max(0, -o), min(d, k - o)      # the letters of y inside the window
            V = W[j[sel] + o].reshape(-1, A ** lo, A ** (hi - lo), A ** (d - hi))
            inside = np.einsum("nlmr,l,r->nm", V, _string_probs(p, lo),
                               _string_probs(p, d - hi))
            const[sel] += inside @ _string_probs(p, hi - lo)
            out[sel] += inside.reshape((-1,) + (1,) * (o + lo) + (A,) * (hi - lo)
                                       + (1,) * (k - o - hi))
    return out - const.reshape((-1,) + (1,) * k)


def expected_score(scorer: PositionalKmerScorer, bg: MarkovBackground) -> float:
    """E[s(X)] under the background: bias plus prob-weighted weights."""
    p = _letter_probs(scorer, bg)
    return scorer.b + sum(float(scorer.block(d).reshape(-1, len(p) ** d).sum(axis=0)
                                @ _string_probs(p, d))
                          for d in range(1, scorer.max_degree + 1))


def conditional_expected_score(scorer: PositionalKmerScorer, bg: MarkovBackground,
                               z: str, j: int) -> float:
    """E[s(X) | X[j..j+|z|) = z], exact under letter independence.

    Positions of a scored substring inside the conditioning window must
    agree with z (contributing a factor of 1, or 0 on conflict); positions
    outside keep their background letter probabilities. The value is one
    cell of the window's table, so |alphabet|^|z| is held to the cell budget.
    """
    p = _letter_probs(scorer, bg)
    if j < 0 or j + len(z) > scorer.length:
        raise FirmError(f"window [{j}, {j + len(z)}) out of range "
                        f"for length {scorer.length}")
    if not set(z) <= set(bg.alphabet):
        raise FirmError(f"oligomer {z!r} uses symbols outside the alphabet")
    cell = (0,) + tuple(encode_sequences([z], scorer.alphabet)[0])
    shifts = _window_shifts(scorer, p, len(z), j, j + 1)
    return expected_score(scorer, bg) + float(shifts[cell])


def poim(scorer: PositionalKmerScorer, bg: MarkovBackground, k: int,
         budget: int = DEFAULT_CELL_BUDGET) -> PoimTable:
    """Exact table of conditional-mean shifts for all length-k oligomers,
    indexed in the scorer's alphabet order; more than budget cells raise
    BudgetExceededError."""
    p = _letter_probs(scorer, bg)
    L = scorer.length
    if not 1 <= k <= L:
        raise FirmError(f"k must lie in [1, {L}]")
    npos = L - k + 1
    values = _window_shifts(scorer, p, k, 0, npos, budget).reshape(npos, -1)
    values = np.ascontiguousarray(values.T)
    p_z = _string_probs(p, k)
    factor = np.sqrt((1.0 - p_z) / p_z)
    firm_values = values * factor[:, None]
    return PoimTable(k=k, length=L, alphabet=scorer.alphabet,
                     values=values, firm_values=firm_values)


def ranked_oligomers(table: PoimTable, top: int) -> list[tuple[str, int, float]]:
    """Top (oligomer, position, importance) cells by |importance|.

    Ties break lexicographically by (position, oligomer), so the order is
    deterministic even for all-zero tables. A negative top is an error.
    """
    if top < 0:
        raise FirmError(f"top must be >= 0, got {top}")
    if top == 0:
        return []
    nz = table.firm_values.shape[0]
    # position-major flattening: a stable sort leaves ties in (position, oligomer) order
    mag = np.abs(table.firm_values.T).ravel()
    # only cells at or above the top-th largest magnitude can rank; sort just those
    kth = max(mag.size - top, 0)
    cand = np.flatnonzero(mag >= np.partition(mag, kth)[kth])
    order = cand[np.argsort(-mag[cand], kind="stable")]
    out = []
    for flat in order[:top]:
        j, zi = divmod(int(flat), nz)
        out.append((table.oligomer(zi), j, float(table.firm_values[zi, j])))
    return out


def hamming_ball(z: str, distance: int, alphabet: tuple[str, ...]) -> list[str]:
    """All strings at exactly the given Hamming distance from z."""
    out = []
    for spots in combinations(range(len(z)), distance):
        for letters in product(*[[a for a in alphabet if a != z[i]] for i in spots]):
            changed = dict(zip(spots, letters))
            out.append("".join(changed.get(i, c) for i, c in enumerate(z)))
    return sorted(out)
