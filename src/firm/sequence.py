"""Positional oligomer importance for sequence scorers.

For a positional k-mer scoring function and an order-0 (per-letter
independent) background, the table entry for substring z at position j is

    Q'(z, j) = E[s(X) | X[j..j+k) = z] - E[s(X)],

computed exactly by splitting every scored substring into the part pinned
by the conditioning window and the part still free. The rescaled values
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

import numpy as np

from .dataset import SequenceDataset
from .errors import BudgetExceededError, FirmError
from .scoring import PositionalKmerScorer

DEFAULT_CELL_BUDGET = 10 ** 7


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
        counts = {a: 0 for a in data.alphabet}
        for s in data.sequences:
            for ch in s:
                counts[ch] += 1
        total = sum(counts.values())
        if any(c == 0 for c in counts.values()):
            missing = [a for a, c in counts.items() if c == 0][0]
            raise FirmError(f"letter {missing!r} never occurs; cannot fit background")
        return cls(alphabet=data.alphabet,
                   letter_prob={a: c / total for a, c in counts.items()})

    def prob_of(self, s: str) -> float:
        p = 1.0
        for ch in s:
            p *= self.letter_prob[ch]
        return p


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
        idx = 0
        for ch in z:
            idx = idx * len(self.alphabet) + self.alphabet.index(ch)
        return idx

    def oligomer(self, index: int) -> str:
        out = []
        for _ in range(self.k):
            index, r = divmod(index, len(self.alphabet))
            out.append(self.alphabet[r])
        return "".join(reversed(out))

    def value(self, z: str, j: int) -> float:
        return float(self.values[self.oligomer_index(z), j])

    def firm_value(self, z: str, j: int) -> float:
        return float(self.firm_values[self.oligomer_index(z), j])


def expected_score(scorer: PositionalKmerScorer, bg: MarkovBackground) -> float:
    """E[s(X)] under the background: bias plus prob-weighted weights."""
    if set(scorer.alphabet) != set(bg.alphabet):
        raise FirmError("scorer and background alphabets differ")
    total = scorer.b
    for (_, y), w in scorer.weights.items():
        total += w * bg.prob_of(y)
    return total


def conditional_expected_score(scorer: PositionalKmerScorer, bg: MarkovBackground,
                               z: str, j: int) -> float:
    """E[s(X) | X[j..j+|z|) = z], exact under letter independence.

    Positions of a scored substring inside the conditioning window must
    agree with z (contributing a factor of 1, or 0 on conflict); positions
    outside keep their background letter probabilities.
    """
    if set(scorer.alphabet) != set(bg.alphabet):
        raise FirmError("scorer and background alphabets differ")
    if j < 0 or j + len(z) > scorer.length:
        raise FirmError(f"window [{j}, {j + len(z)}) out of range "
                        f"for length {scorer.length}")
    if not set(z) <= set(bg.alphabet):
        raise FirmError(f"oligomer {z!r} uses symbols outside the alphabet")
    total = scorer.b
    hi = j + len(z)
    for (i, y), w in scorer.weights.items():
        factor = 1.0
        for m, ch in enumerate(y):
            pos = i + m
            if j <= pos < hi:
                if z[pos - j] != ch:
                    factor = 0.0
                    break
            else:
                factor *= bg.letter_prob[ch]
        total += w * factor
    return total


def poim(scorer: PositionalKmerScorer, bg: MarkovBackground, k: int,
         budget: int = DEFAULT_CELL_BUDGET) -> PoimTable:
    """Exact table of conditional-mean shifts for all length-k oligomers.

    Weights that do not overlap the conditioning window cancel against the
    unconditional expectation, so each column only sums contributions of
    overlapping weights; those are written into slices of a
    (|alphabet|,)*k tensor, one slice per weight.
    """
    if set(scorer.alphabet) != set(bg.alphabet):
        raise FirmError("scorer and background alphabets differ")
    L = scorer.length
    if not 1 <= k <= L:
        raise FirmError(f"k must lie in [1, {L}]")
    A = len(bg.alphabet)
    cells = A ** k * L
    if cells > budget:
        raise BudgetExceededError(
            f"table would need {cells} cells; budget is {budget}")
    sym_index = {a: i for i, a in enumerate(bg.alphabet)}
    pvec = np.array([bg.letter_prob[a] for a in bg.alphabet])
    npos = L - k + 1
    values = np.empty((A ** k, npos))
    for j in range(npos):
        hi = j + k
        tensor = np.zeros((A,) * k)
        const = 0.0
        for (i, y), w in scorer.weights.items():
            if i >= hi or i + len(y) <= j:
                continue  # no overlap: cancels exactly
            const += w * bg.prob_of(y)
            free = 1.0
            idx: list = [slice(None)] * k
            for m, ch in enumerate(y):
                pos = i + m
                if j <= pos < hi:
                    idx[pos - j] = sym_index[ch]
                else:
                    free *= bg.letter_prob[ch]
            tensor[tuple(idx)] += w * free
        values[:, j] = tensor.ravel() - const
    # oligomer probabilities for the rescaling, in index order
    if k == 1:
        p_z = pvec.copy()
    else:
        p_z = reduce(np.multiply.outer, [pvec] * k).ravel()
    factor = np.sqrt((1.0 - p_z) / p_z)
    firm_values = values * factor[:, None]
    return PoimTable(k=k, length=L, alphabet=tuple(bg.alphabet),
                     values=values, firm_values=firm_values)


def ranked_oligomers(table: PoimTable, top: int) -> list[tuple[str, int, float]]:
    """Top (oligomer, position, importance) cells by |importance|.

    Ties break lexicographically by (position, oligomer), so the order is
    deterministic even for all-zero tables.
    """
    nz = table.firm_values.shape[0]
    # position-major flattening: a stable sort leaves ties in (position, oligomer) order
    order = np.argsort(-np.abs(table.firm_values.T).ravel(), kind="stable")
    out = []
    for flat in order[:max(0, top)]:
        j, zi = divmod(int(flat), nz)
        out.append((table.oligomer(zi), j, float(table.firm_values[zi, j])))
    return out


def hamming_ball(z: str, distance: int, alphabet: tuple[str, ...]) -> list[str]:
    """All strings at exactly the given Hamming distance from z."""
    if distance == 0:
        return [z]
    out = []
    k = len(z)

    def rec(prefix: str, pos: int, left: int):
        if left == 0:
            out.append(prefix + z[pos:])
            return
        if k - pos < left:
            return
        # keep z[pos]
        rec(prefix + z[pos], pos + 1, left)
        for a in alphabet:
            if a != z[pos]:
                rec(prefix + a, pos + 1, left - 1)

    rec("", 0, distance)
    return sorted(out)
