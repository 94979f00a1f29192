"""Positional oligomer importance for sequence scorers.

For a positional k-mer scoring function and an order-0 background, whose
independent letters follow a {letter: probability} mapping (uniform when
None), the table entry for substring z at position j is

    Q'(z, j) = E[s(X) | X[j..j+k) = z] - E[s(X)],

computed exactly by splitting every scored substring into the part pinned
by the conditioning window and the part still free. A weight on substring
y at position i overlaps the window when j - |y| < i < j + k; any other
weight cancels. The scorer's weights are read per degree as (position,
letter, ...) blocks. Tables follow the scorer's alphabet order and store
Q' once, one row per position; the rescaled Q(z, j) = Q'(z, j) *
sqrt((1 - p_z) / p_z), derived from it, makes slices with different
oligomer probabilities comparable. Under a uniform background the factor
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

from .dataset import _frozen
from .errors import DEFAULT_CELL_BUDGET, BudgetExceededError, FirmError
from .scoring import PositionalKmerScorer


@dataclass(frozen=True, eq=False)
class PoimTable:
    """Importance of every length-k oligomer at every position.

    values[j, zi] holds the conditional-mean shift Q' at position j for
    the oligomer with index zi (base-|alphabet| encoding, leftmost symbol
    most significant; oligomer_index(z) gives it). factor[zi] is
    sqrt((1 - p_z) / p_z) with p_z the oligomer's background probability,
    and firm_values derives the rescaled Q = values * factor as a new
    table-sized array, abs_firm_values |Q| as one; the package's other
    readers of Q take it a row, a column or a cell at a time. values and
    factor are read-only copies the table owns, so no caller's array
    aliases them. An index or a symbol outside the table raises FirmError.
    """

    k: int
    length: int
    alphabet: tuple[str, ...]
    values: np.ndarray        # (length - k + 1, |alphabet|^k)
    factor: np.ndarray        # (|alphabet|^k,)

    def __post_init__(self):
        for name in ("values", "factor"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def firm_values(self) -> np.ndarray:
        return self.values * self.factor

    def abs_firm_values(self) -> np.ndarray:
        """|Q| as one new table: |Q'| scaled in place, which is |Q'·factor|
        bit for bit because the factor is positive."""
        out = np.abs(self.values)
        out *= self.factor
        return out

    @property
    def positions(self) -> int:
        return self.length - self.k + 1

    def oligomer_index(self, z: str) -> int:
        if len(z) != self.k:
            raise FirmError(f"oligomer {z!r} does not have length {self.k}")
        bad = [c for c in z if c not in self.alphabet]
        if bad:
            raise FirmError(f"oligomer {z!r} has symbol {bad[0]!r}, not in the "
                            f"alphabet {''.join(self.alphabet)}")
        codes = tuple(self.alphabet.index(c) for c in z)
        return int(np.ravel_multi_index(codes, (len(self.alphabet),) * self.k))

    def oligomer(self, index: int) -> str:
        A = len(self.alphabet)
        if not 0 <= index < A ** self.k:
            raise FirmError(f"oligomer index {index} is outside [0, {A ** self.k})")
        return "".join(self.alphabet[i] for i in np.unravel_index(index, (A,) * self.k))


def _letter_probs(scorer: PositionalKmerScorer, letter_prob: dict | None) -> np.ndarray:
    """letter_prob's values in the scorer's alphabet order, uniform for None.
    Its keys must be exactly the scorer's letters, each probability finite
    and > 0, and their sum 1 within 1e-12; else FirmError."""
    if letter_prob is None:
        return np.full(len(scorer.alphabet), 1.0 / len(scorer.alphabet))
    if set(letter_prob) != set(scorer.alphabet):
        raise FirmError("letter probabilities must cover the scorer's alphabet exactly")
    p = np.array([float(letter_prob[a]) for a in scorer.alphabet])
    if not (np.isfinite(p) & (p > 0)).all():
        raise FirmError("letter probabilities must be finite and positive")
    if abs(p.sum() - 1.0) > 1e-12:
        raise FirmError("letter probabilities must sum to 1")
    return p


def _string_probs(p: np.ndarray, m: int) -> np.ndarray:
    """Probability of every length-m string in base-|A| order ([1.0] for m = 0)."""
    return reduce(np.multiply.outer, [p] * m, np.ones(())).ravel()


def poim(scorer: PositionalKmerScorer, k: int, letter_prob: dict | None = None) -> PoimTable:
    """Exact position-major table of conditional-mean shifts for all length-k
    oligomers, in the scorer's alphabet order, under the background
    letter_prob (_letter_probs); past DEFAULT_CELL_BUDGET cells, BudgetExceededError.

    Per degree and offset o = i - j of the weights overlapping window j,
    letters of y inside the window index the window's letter axes and those
    outside are contracted with p; the window's sum of w p(y) is taken off.
    """
    p = _letter_probs(scorer, letter_prob)
    A, L = len(p), scorer.length
    if not 1 <= k <= L:
        raise FirmError(f"k must lie in [1, {L}]")
    npos = L - k + 1
    if npos * A ** k > DEFAULT_CELL_BUDGET:
        raise BudgetExceededError(
            f"table would need {npos * A ** k} cells; budget is {DEFAULT_CELL_BUDGET}")
    p_z = _string_probs(p, k)
    # The table's own frozen zeros, filled in place: the only table-sized array.
    table = PoimTable(k=k, length=L, alphabet=scorer.alphabet,
                      values=np.broadcast_to(0.0, (npos, A ** k)),
                      factor=np.sqrt((1.0 - p_z) / p_z))
    table.values.setflags(write=True)
    out = table.values.reshape((npos,) + (A,) * k)     # one letter axis per window position
    const = np.zeros(npos)
    for d in range(1, scorer.max_degree + 1):
        W = scorer.block(d)
        for o in range(1 - d, k):
            lo, hi = max(0, -o), min(d, k - o)      # the letters of y inside the window
            # the windows j with 0 <= j + o <= L - d, from j = lo on; a slice, so
            # out[sel] is a view
            sel = slice(lo, max(lo, min(npos, L - d - o + 1)))
            V = W[lo + o:sel.stop + o].reshape(-1, A ** lo, A ** (hi - lo), A ** (d - hi))
            inside = np.einsum("nlmr,l,r->nm", V, _string_probs(p, lo),
                               _string_probs(p, d - hi))
            const[sel] += inside @ _string_probs(p, hi - lo)
            out[sel] += inside.reshape((-1,) + (1,) * (o + lo) + (A,) * (hi - lo)
                                       + (1,) * (k - o - hi))
    out -= const.reshape((-1,) + (1,) * k)
    table.values.setflags(write=False)
    return table


def ranked_oligomers(table: PoimTable, top: int) -> list[tuple[str, int, float]]:
    """Top (oligomer, position, importance) cells by |importance|.

    Ties break lexicographically by (position, oligomer), so the order is
    deterministic even for all-zero tables. A negative top is an error.
    """
    if top < 0:
        raise FirmError(f"top must be >= 0, got {top}")
    if top == 0:
        return []
    # position-major flattening: a stable sort leaves ties in (position, oligomer) order
    mag = table.abs_firm_values().ravel()
    # only cells at or above the top-th largest magnitude can rank; sort just those
    kth = max(mag.size - top, 0)
    cand = np.flatnonzero(mag >= np.partition(mag, kth)[kth])
    order = cand[np.argsort(-mag[cand], kind="stable")]
    out = []
    for flat in order[:top]:
        j, zi = divmod(int(flat), table.factor.size)
        out.append((table.oligomer(zi), j, float(table.values[j, zi] * table.factor[zi])))
    return out


def hamming_ball(z: str, distance: int, alphabet: tuple[str, ...]) -> list[str]:
    """All strings at exactly the given Hamming distance from z."""
    if distance < 0:
        raise FirmError(f"Hamming distance must be >= 0, got {distance}")
    out = []
    for spots in combinations(range(len(z)), distance):
        for letters in product(*[[a for a in alphabet if a != z[i]] for i in spots]):
            changed = dict(zip(spots, letters))
            out.append("".join(changed.get(i, c) for i, c in enumerate(z)))
    return sorted(out)
