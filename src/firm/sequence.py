"""Positional oligomer importance for sequence scorers.

For a positional k-mer scoring function and an order-0 background, whose
independent letters follow a {letter: probability} mapping (uniform when
None), the table entry for substring z at position j is

    Q'(z, j) = E[s(X) | X[j..j+k) = z] - E[s(X)],

computed exactly by splitting every scored substring into the part pinned
by the conditioning window and the part still free. The scorer is read as
its window table _fold(w): M = L - K + 1 windows of its top degree K, whose
cells sum to the score, so it is one degree-K model. Window m overlaps the
window of position j when j - K < m < j + k, at offset o = m - j; any other
window cancels. Per offset, each window's letters outside position j's
window are contracted with p once, and its mean under p taken off.

A table stores those contractions, not its cells: row(j) sums the k + K - 1
that reach position j, so Q' is held a row at a time, and only `values`
builds the whole table. Tables follow the scorer's alphabet order; the
rescaled Q(z, j) = Q'(z, j) * sqrt((1 - p_z) / p_z) makes slices with
different oligomer probabilities comparable. Under a uniform background the
factor is constant per slice, so it never changes within-slice rankings.

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
from .scoring import PositionalKmerScorer, _fold


@dataclass(frozen=True, eq=False)
class PoimTable:
    """Importance of every length-k oligomer at every position.

    row(j) is a new array of the conditional-mean shift Q' at position j
    for every oligomer, by index (base-|alphabet| encoding, leftmost symbol
    most significant; oligomer_index(z) gives it). factor[zi] is
    sqrt((1 - p_z) / p_z) with p_z the oligomer's background probability.

    The table holds terms, not cells. A term (o, cells) gives row j the
    array cells[j + o], when j + o is one of its rows. Each such array is
    stored ready to broadcast against the row's (A,) * k letter axes: the
    axes of the letters it covers, then an axis of length 1 per later
    letter. row(j) adds those arrays to -0.0, the additive identity, so a
    one-term table's rows are its values bit for bit. poim's terms are its
    window contractions, and from_values(...) makes the table of one term,
    the given values. factor and the terms' cells are read-only copies the
    table owns, so no caller's array aliases them. values builds the whole
    table of Q' as a new read-only array, and firm_values the rescaled Q =
    values * factor; the package reads rows instead. An index, a symbol or
    a position outside the table raises FirmError.
    """

    k: int
    length: int
    alphabet: tuple[str, ...]
    factor: np.ndarray        # (|alphabet|^k,)
    terms: tuple[tuple[int, np.ndarray], ...]

    def __post_init__(self):
        object.__setattr__(self, "factor", _frozen(self.factor))
        object.__setattr__(self, "terms", tuple((o, _frozen(cells)) for o, cells in self.terms))

    @classmethod
    def from_values(cls, k: int, length: int, alphabet, values, factor) -> PoimTable:
        """The table whose rows are the given (length - k + 1, |alphabet|^k) values."""
        alphabet, values = tuple(alphabet), np.asarray(values, dtype=np.float64)
        if values.shape != (length - k + 1, len(alphabet) ** k):
            raise FirmError(f"values must have shape ({length - k + 1}, "
                            f"{len(alphabet) ** k}), got {values.shape}")
        return cls(k=k, length=length, alphabet=alphabet, factor=factor,
                   terms=((0, values.reshape((len(values),) + (len(alphabet),) * k)),))

    @property
    def positions(self) -> int:
        return self.length - self.k + 1

    def row(self, j: int) -> np.ndarray:
        """Q'(., j), a new (|alphabet|^k,) array."""
        if not 0 <= j < self.positions:
            raise FirmError(f"position {j} is outside [0, {self.positions})")
        out = np.full((len(self.alphabet),) * self.k, -0.0)
        for o, cells in self.terms:
            if 0 <= j + o < len(cells):
                out += cells[j + o]
        return out.ravel()

    @property
    def values(self) -> np.ndarray:
        out = np.empty((self.positions, self.factor.size))
        for j in range(self.positions):
            out[j] = self.row(j)
        return _frozen(out, copy=False)

    @property
    def firm_values(self) -> np.ndarray:
        return self.values * self.factor

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


def _factor(p: np.ndarray, k: int) -> np.ndarray:
    """sqrt((1 - p_z) / p_z) for every length-k oligomer z, made beside one p_z."""
    p_z = _string_probs(p, k)
    factor = 1.0 - p_z
    factor /= p_z
    return np.sqrt(factor, out=factor)


def poim(scorer: PositionalKmerScorer, k: int, letter_prob: dict | None = None) -> PoimTable:
    """Exact table of conditional-mean shifts for all length-k oligomers, in
    the scorer's alphabet order, under the background letter_prob
    (_letter_probs), held as its window contractions (see the module
    docstring); past DEFAULT_CELL_BUDGET cells, BudgetExceededError.

    Per offset o = m - j, the letters of window m inside position j's
    window index a term's letter axes and those outside are contracted with
    p; the window's mean under p is taken off. Each offset's term holds all
    M windows, so the table holds at most M * (k + K - 1) * |alphabet|^K
    cells, whatever the table's size.
    """
    p = _letter_probs(scorer, letter_prob)
    A, L, K = len(p), scorer.length, scorer.max_degree
    if not 1 <= k <= L:
        raise FirmError(f"k must lie in [1, {L}]")
    npos = L - k + 1
    if npos * A ** k > DEFAULT_CELL_BUDGET:
        raise BudgetExceededError(
            f"table would need {npos * A ** k} cells; budget is {DEFAULT_CELL_BUDGET}")
    T = _fold(scorer.weights, A, L, K)
    M = len(T)
    mean = T @ _string_probs(p, K)
    terms = []
    for o in range(1 - K, k):
        lo, hi = max(0, -o), min(K, k - o)      # the letters of window j + o inside j's
        inside = np.einsum("mlir,l,r->mi", T.reshape(M, A ** lo, A ** (hi - lo), -1),
                           _string_probs(p, lo), _string_probs(p, K - hi))
        inside -= mean[:, None]
        terms.append((o, inside.reshape((M,) + (A,) * (hi - lo) + (1,) * (k - o - hi))))
    return PoimTable(k=k, length=L, alphabet=scorer.alphabet, factor=_factor(p, k),
                     terms=tuple(terms))


def ranked_oligomers(table: PoimTable, top: int) -> list[tuple[str, int, float]]:
    """Top (oligomer, position, importance) cells by |importance|.

    Ties break lexicographically by (position, oligomer), so the order is
    deterministic even for all-zero tables. A negative top is an error.
    Q is taken a row at a time: each row gives its first top cells in that
    order, with their signed Q, and one stable sort of those candidates,
    rows in position order, selects the top cells of the whole table.
    """
    if top < 0:
        raise FirmError(f"top must be >= 0, got {top}")
    if top == 0:
        return []
    cells, qs = map(np.concatenate, zip(*[_row_top(table, j, top)
                                          for j in range(table.positions)]))
    order = np.argsort(-np.abs(qs), kind="stable")[:top]
    return [(table.oligomer(int(flat) % table.factor.size), int(flat) // table.factor.size,
             float(value)) for flat, value in zip(cells[order], qs[order])]


def _row_top(table: PoimTable, j: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat cells of row j's first top cells by |Q|, ties in oligomer
    order, and their signed Q; the row is freed on return."""
    q = table.row(j)
    q *= table.factor
    mag = np.abs(q)
    # only cells at or above the row's top-th largest magnitude can rank
    kth = max(mag.size - top, 0)
    cand = np.flatnonzero(mag >= np.partition(mag, kth)[kth])
    cand = cand[np.argsort(-mag[cand], kind="stable")[:top]]
    return j * mag.size + cand, q[cand]


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
