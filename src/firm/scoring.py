"""Scoring functions s: X -> R, their gradients, and small trainers.

Three scorer families are provided: linear, kernel expansion (Gaussian or
polynomial kernel), and positional k-mer scorers for sequences. Scorers are
immutable; trainers are single-shot pure functions. Raw labels need no
scorer: they are passed as the score vector itself.

Scorers evaluate in batches only: every scorer has score_many(X), one score
per row or sequence of X, and the linear and kernel scorers gradient_many(X),
one gradient per row, where a constant gradient (linear) is one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import DNA_ALPHABET, SequenceDataset, TabularDataset, encode_sequences
from .errors import DEFAULT_CELL_BUDGET, BudgetExceededError, FirmError

# Cells per block of the elementwise n x m passes. The allocator reuses
# temporaries of 128 KiB; blocks of 6 MB (256 rows of 3000) stayed resident
# after the pass and added 8 MB to the later peak of a kernel ridge run.
_BLOCK_CELLS = 1 << 14
# Rows per block of a _LowerTriangle. A vector product by the blocks took
# 3.5 ms against 5.2 ms by the full matrix at n = 3000, and the same time at
# n <= 2000 (one OpenBLAS thread, 2-core Xeon).
_TRI_ROWS = 256
# Word pairs per chunk of the k-mer Gram count: 1 MB for each of its uint64
# temporaries, at most three at once.
_KMER_CHUNK_WORDS = 1 << 17


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
        if not degree >= 1 or degree % 1:
            raise FirmError(f"degree must be an integer >= 1, got {degree!r}")
        if not 0 <= offset < np.inf:
            raise FirmError("offset must be finite and >= 0")
        return cls(variant="polynomial", degree=int(degree), offset=float(offset))

    def gram(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Kernel matrix k(a_i, b_j) for the rows of the matrices A and B.

        One n x m buffer, the product A B', is filled in place by _finish;
        the order of operations is that of exp(-max(|a|^2 + |b|^2 - 2 a'b,
        0) / gamma^2) and (a'b + offset)^degree. The product stays one call,
        since a BLAS may pick another kernel for a row block and change the
        last bits. At its peak the buffer, n x m cells, sits beside two
        temporaries of _BLOCK_CELLS cells each. The dual solves take the
        symmetric gram(X, X) from self_gram instead, which holds
        n(n + 256)/2 cells for n rows of X.
        """
        S = A @ B.T
        self._finish(S, (A ** 2).sum(axis=1), (B ** 2).sum(axis=1))
        return S

    def self_gram(self, X: np.ndarray) -> "_LowerTriangle":
        """gram(X, X) as _TRI_ROWS-row blocks of its lower triangle.

        Each block is its own product X[i0:i1] X[:i1]', finished by the
        passes of gram, so it holds n(n + _TRI_ROWS)/2 cells at most where
        gram(X, X) holds n^2, and full() gives gram(X, X)'s bits wherever the
        BLAS sums a row block's products in the order of the whole product.
        """
        sq, S = (X ** 2).sum(axis=1), _LowerTriangle(X.shape[0])
        for i0, i1, blk in S:
            np.matmul(X[i0:i1], X[:i1].T, out=blk)
            self._finish(blk, sq[i0:i1], sq[:i1])
        return S.seal()

    def _finish(self, S: np.ndarray, a2: np.ndarray, b2: np.ndarray) -> None:
        """Kernel values in place of the products S = A B', given the
        squared row norms a2 of A and b2 of B (read by the Gaussian only).
        Every Gaussian pass runs a block of _BLOCK_CELLS cells at a time,
        each block finished while it is in cache."""
        if self.variant == "gaussian":
            g2, rows = self.gamma ** 2, max(1, _BLOCK_CELLS // S.shape[1])
            for i in range(0, S.shape[0], rows):
                blk = S[i:i + rows]
                blk[...] = (a2[i:i + rows, None] + b2[None, :]) - 2.0 * blk
                np.maximum(blk, 0.0, out=blk)
                np.negative(blk, out=blk)
                blk /= g2
                np.exp(blk, out=blk)
            return
        S += self.offset
        S **= self.degree


class _LowerTriangle:
    """A symmetric n x n matrix kept as row blocks of its lower triangle.

    Block r holds rows i0:i1 and columns 0:i1, i0 = r * _TRI_ROWS, so the
    blocks hold n(n + _TRI_ROWS)/2 cells at most, about half of n^2; they
    are iterated as (i0, i1, block). They are views of one buffer, freed as
    a whole: blocks allocated one at a time stayed resident after the k-mer
    fit at n = 2000, below the allocator's raised mmap threshold, and added
    16 MB to a later POIM run's peak. The caller fills the blocks, diagonal
    squares whole, then seals them; entries above the squares are read from
    their mirror images. S @ V, for a vector or an n x k matrix V, reads
    every cell once and holds beside its n-row result one temporary of at
    most n - _TRI_ROWS rows. full() assembles the n x n matrix; only
    _solve_shifted's LU fallback calls it, which so holds the blocks plus
    two full n x n arrays (the assembled matrix and LU's copy of it).
    """

    def __init__(self, n: int):
        ends = [min(i0 + _TRI_ROWS, n) for i0 in range(0, n, _TRI_ROWS)]
        sizes = [(i1 - i0) * i1 for i0, i1 in zip([0] + ends, ends)]
        parts = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
        self.n, self.blocks = n, tuple(p.reshape(-1, i1) for p, i1 in zip(parts, ends))

    def __iter__(self):
        return ((blk.shape[1] - blk.shape[0], blk.shape[1], blk) for blk in self.blocks)

    def seal(self) -> "_LowerTriangle":
        """Mirror each diagonal square's lower triangle onto its upper one, so
        full() is exactly symmetric, and make the blocks read-only."""
        for i0, i1, blk in self:        # a BLAS may not sum x_i'x_j as x_j'x_i
            square = blk[:, i0:]
            for j in range(i1 - i0 - 1):
                square[j, j + 1:] = square[j + 1:, j]
            blk.setflags(write=False)
        return self

    def __matmul__(self, V: np.ndarray) -> np.ndarray:
        out = np.empty((self.n,) + V.shape[1:])
        for i0, i1, blk in self:
            np.matmul(blk, V[:i1], out=out[i0:i1])    # earlier blocks add above i0 only
            out[:i0] += blk[:, :i0].T @ V[i0:i1]
        return out

    def full(self) -> np.ndarray:
        """The n x n matrix, exactly symmetric once sealed."""
        M = np.empty((self.n, self.n))
        for i0, i1, blk in self:
            M[i0:i1, :i1] = blk
            M[:i0, i0:i1] = blk[:, :i0].T
        return M


def _rows(X, d: int) -> np.ndarray:
    """X as a float64 matrix of d-dimensional rows."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != d:
        raise FirmError(f"input has dimension {X.shape[1]}, scorer expects {d}")
    return X


@dataclass(frozen=True, eq=False)
class LinearScorer:
    """s(x) = w'x + b."""

    w: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        w = np.array(self.w, dtype=np.float64).ravel()
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


@dataclass(frozen=True, eq=False)
class KernelExpansionScorer:
    """s(x) = sum_i alpha_i k(points_i, x) + b (label factors folded into alpha).

    A scorer made by train_kernel_ridge keeps the training Gram matrix
    gram(points, points) as kernel.self_gram(points), read-only row blocks
    of its lower triangle: n(n + 256)/2 cells for n points. score_many(X)
    and the Gaussian gradient_many(X) use it in place of
    kernel.gram(X, points) when X has the shape and the bytes of points (so
    -0.0 and 0.0 differ), and recompute for any other X. The kept matrix
    is not a constructor argument; a scorer built any other way, replace()
    included, has none.
    """

    points: np.ndarray
    alpha: np.ndarray
    b: float
    kernel: KernelSpec
    _gram: _LowerTriangle | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.array(self.points, dtype=np.float64))
        alpha = np.array(self.alpha, dtype=np.float64).ravel()
        if pts.shape[0] != alpha.size or pts.shape[0] < 1:
            raise FirmError("need one coefficient per expansion point (m >= 1)")
        if not (np.isfinite(pts).all() and np.isfinite(alpha).all() and np.isfinite(self.b)):
            raise FirmError("kernel expansion parameters must be finite")
        pts.setflags(write=False)
        alpha.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "b", float(self.b))

    def _gram_with(self, X: np.ndarray) -> np.ndarray | _LowerTriangle:
        """gram(X, points): the kept training matrix when X is points byte for byte."""
        if (self._gram is not None and X.shape == self.points.shape
                and X.tobytes() == self.points.tobytes()):
            return self._gram
        return self.kernel.gram(X, self.points)

    def score_many(self, X) -> np.ndarray:
        X = _rows(X, self.points.shape[1])
        return self._gram_with(X) @ self.alpha + self.b

    def gradient_many(self, X) -> np.ndarray:
        """One gradient per row of X.

        The alpha weights go on the m x d points, not on the n x m kernel
        matrix, since (K o alpha) P = K (alpha o P) and rowsum(K o alpha) =
        K alpha. The peak is one n x m array, or the kept Gram matrix's
        blocks, plus arrays of m x d and n x d. The products by a computed
        n x m matrix stay one call over all n rows, since a BLAS may pick
        another kernel for fewer rows and change the last bits.
        """
        X = _rows(X, self.points.shape[1])
        P, alpha = self.points, self.alpha
        if self.kernel.variant == "gaussian":
            # (2/gamma^2) (K (alpha o P) - (K alpha) o X), K = gram(X, P)
            K = self._gram_with(X)
            return (2.0 / self.kernel.gamma ** 2) * (K @ (alpha[:, None] * P)
                                                     - (K @ alpha)[:, None] * X)
        p, c = self.kernel.degree, self.kernel.offset   # (X P' + c)^(p-1) (p alpha o P)
        G = X @ P.T
        G += c
        G **= p - 1
        return G @ (p * alpha[:, None] * P)


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


@dataclass(frozen=True, eq=False)
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


Scorer = LinearScorer | KernelExpansionScorer | PositionalKmerScorer


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


# Conjugate-gradient steps tried before an LU solve.
_CG_BUDGET = 64


def _solve_shifted(P: _LowerTriangle, shift: float, b: np.ndarray) -> np.ndarray:
    """Solve (P + shift*I) x = b for a symmetric PSD n x n matrix P, shift > 0.

    P is only read. A zero b gives exact zeros.

    Conjugate gradients (Hestenes & Stiefel 1952) run first, ungated, for
    at most _CG_BUDGET = 64 steps from x = 0 on b scaled to unit max-norm,
    so no inner product over- or underflows; each step multiplies by M =
    P + shift*I as P @ v + shift * v. The answer is kept if its true
    residual, one more product, meets ||b - M x|| <= tol * ||b||. On
    breakdown (p'Mp <= 0) or a failed check, x is np.linalg.solve(M, b) on
    the caller's b and M assembled from P.full(); that fallback holds P's
    blocks, M and LU's copy of M, and releases M on return.

    An LU solve costs 86 to 101, 120 to 144 and 139 to 163 products by P's
    blocks at n = 1000, 2000 and 3000 (three runs, one OpenBLAS thread,
    2-core Xeon), so the worst case, 65 products plus one LU, is under twice
    LU's cost. At lambda = 0.1 the kernel systems measured took 11 to 15
    products, and the k-mer systems 46 to 53. A smaller lambda can reach
    the worst case: the degree-3 k-mer system of 2000 planted-motif
    sequences of length 100 takes 53 products at lambda = 0.1, but at 0.03
    it spends all 65 (0.095 s) and then LU (0.147 s), 1.6 times LU alone.
    Below n = 250 the interpreter's cost per CG step dominates (four
    products' worth at n = 100), and a failed attempt can take up to six LU
    solves, under a millisecond.

    tol = sqrt(n) * eps / 4, just above LU's own relative residual. In units
    of sqrt(n) * eps, the largest LU residual measured per n (one OpenBLAS
    thread; lambda = 0.1; Gaussian gamma = 1 and 3 and polynomial degree 2
    kernels; degree-3 k-mer systems on planted-motif DNA of length 50 and 100):

        n        500    1000   2000   3000   4000
        kernel   0.146  0.149  0.139  0.125  0.122
        k-mer    0.193  0.183  0.167  0.145  0.138

    The largest, 0.193 (4.3 eps at n = 500, k-mer), sets the constant 1/4.
    """
    n = b.size
    if not b.any():
        return np.zeros(n)
    tol = math.sqrt(n) * np.finfo(np.float64).eps / 4
    scale = np.abs(b).max()
    u = b / scale
    x, r, p = np.zeros_like(u), u.copy(), u.copy()
    rr = r @ r
    stop = (tol / 2) ** 2 * rr
    for _ in range(_CG_BUDGET):
        q = P @ p
        q += shift * p
        pq = p @ q
        if not pq > 0.0:            # breakdown: straight to LU
            x = None
            break
        a = rr / pq
        x += a * p
        r -= a * q
        rr, rr_old = r @ r, rr
        if rr <= stop:
            break
        p *= rr / rr_old
        p += r
    if x is not None:
        q = P @ x
        q += shift * x
        q -= u
        if q @ q <= tol ** 2 * (u @ u):
            return scale * x
    M = P.full()
    M[np.diag_indices(n)] += shift
    return np.linalg.solve(M, b)


def train_kernel_ridge(data: TabularDataset, kernel: KernelSpec,
                       lam: float) -> KernelExpansionScorer:
    """Kernel ridge: alpha = (K + n*lambda*I)^-1 (y - mean(y)), b = mean(y).

    K = kernel.gram(X, X) is built as kernel.self_gram(X), row blocks of its
    lower triangle, and solved by _solve_shifted; the scorer keeps it for
    scores and gradients on the training rows. A fit holds n(n + 256)/2
    cells of K, plus gram's two block temporaries while it is built; on
    the LU fallback it holds those plus two full n x n arrays, where the
    full K held two n x n arrays in all. Scores and gradients on the
    training rows later hold K's blocks plus arrays of n x d (the points,
    d features) and n.
    """
    if not 0 < lam < np.inf:
        raise FirmError("lambda must be finite and > 0")
    y = data.labels()
    K = kernel.self_gram(data.X)
    alpha = _solve_shifted(K, data.n * lam, y - y.mean())
    scorer = KernelExpansionScorer(points=data.X, alpha=alpha, b=float(y.mean()),
                                   kernel=kernel)
    object.__setattr__(scorer, "_gram", K)
    return scorer


def _kmer_gram_blocks(codes: np.ndarray, K: int) -> _LowerTriangle:
    """The unsealed _LowerTriangle G, diagonal squares filled whole, G[a, b]
    the number of (degree k <= K, position) substrings the coded DNA
    sequences a and b share; train_positional_kmer gives the method."""
    n, L = codes.shape
    W = -(-L // 64)

    def words(bits: np.ndarray) -> np.ndarray:
        """Rows of 0/1 positions as uint64 words, position p at bit p % 64
        of word p // 64, laid out word-major (W x rows)."""
        packed = np.zeros((bits.shape[0], 8 * W), dtype=np.uint8)
        packed[:, :-(-L // 8)] = np.packbits(bits, axis=1, bitorder="little")
        return np.ascontiguousarray(packed.view("<u8").T, dtype=np.uint64)

    lo, hi = words(codes & 1), words(codes >> 1)
    valid = words(np.ones((1, L), dtype=np.uint8))[:, :, None]
    G = _LowerTriangle(n)
    for i0, i1, blk in G:
        cols = min(i1, max(1, _KMER_CHUNK_WORDS // W))
        rows = max(1, _KMER_CHUNK_WORDS // (W * cols))
        for r0 in range(i0, i1, rows):
            a = slice(r0, min(r0 + rows, i1))
            for c0 in range(0, i1, cols):
                b = slice(c0, min(c0 + cols, i1))
                run = np.bitwise_xor(lo[:, a, None], lo[:, None, b])
                step = np.bitwise_xor(hi[:, a, None], hi[:, None, b])
                run |= step
                np.invert(run, out=run)
                run &= valid                    # bit p: the letters at p match
                count = np.zeros(run.shape[1:], dtype=np.int32)
                for k in range(1, K + 1):
                    if k > 1:                   # bit p: the k letters from p match
                        np.right_shift(run, 1, out=step)
                        step[:-1] |= run[1:] << 63
                        run &= step
                    count += np.bitwise_count(run).sum(axis=0, dtype=np.int32)
                blk[a.start - i0:a.stop - i0, b] = count
    return G


def train_positional_kmer(data: SequenceDataset, K: int, lam: float) -> PositionalKmerScorer:
    """Ridge regression on the positional substring indicators, in the dual.

    The n x n Gram matrix G of shared substrings (the weighted-degree kernel
    with unit weights) is counted 64 positions per machine word, in the
    manner of Myers' bit-vector matching (JACM 1999), so no n x F design or
    one-hot code ever exists. Bit 0 and bit 1 of the DNA codes (0-3) are
    packed into two bit planes of W = ceil(L / 64) little-endian words per
    sequence. For sequences a and b, run = ~((lo_a ^ lo_b) | (hi_a ^ hi_b))
    with the bits at L and above cleared has bit p set where the letters at
    p match; after k - 1 steps of run &= run >> 1, the shift carrying bit 0
    of each word into bit 63 of the word before, bit p is set where the
    length-k substrings at p match. The popcount of run, summed over the
    words and the degrees 1..K, is G[a, b]. Each count is an integer of at
    most sum_k (L - k + 1), below 2.5 million under the weight budget, so
    int32 sums and float64 cells hold it exactly: G is bitwise the float64
    sum of the one-hot products.

    G is counted straight into the _TRI_ROWS-row blocks of its lower
    triangle (the _LowerTriangle form of train_kernel_ridge), each block in
    chunks of _KMER_CHUNK_WORDS word pairs. Its row sums G 1 are exact, as
    sums of counts. G is centred as H G H, whose null space holds the ones
    vector, one block at a time, and sealed only then, so each diagonal
    square is mirrored from its centred lower half. The dual solution alpha
    so sums to 0 and each weight is its substring's alpha-weighted count
    (bincount), exactly 0 for a substring that never occurs. The dual
    system is solved by _solve_shifted, as in train_kernel_ridge.

    The fit's peak is the blocks, n(n + _TRI_ROWS)/2 cells, plus one
    chunk's temporaries: at most three uint64 arrays of _KMER_CHUNK_WORDS
    words (1 MB each) and their popcounts. If CG fails, LU adds two full
    n x n arrays. The blocks are released before the n x (positions summed
    over degrees) substring ids are computed for the bincounts.
    """
    if not 0 < lam < np.inf:
        raise FirmError("lambda must be finite and > 0")
    A, L, n = len(DNA_ALPHABET), data.length, data.n
    off = kmer_offsets(A, L, K)
    G = _kmer_gram_blocks(data.codes, K)
    r = G @ np.ones(n) / n                      # G's row means, of exact sums of counts
    c = r.mean()
    for i0, i1, blk in G:
        ri, rows = r[i0:i1], max(1, _BLOCK_CELLS // i1)
        for i in range(0, i1 - i0, rows):
            blk[i:i + rows] += c - ri[i:i + rows, None] - r[None, :i1]
    alpha = _solve_shifted(G.seal(), n * lam, data.y - data.y.mean())
    del G, blk                                  # views included: the buffer goes
    ids = kmer_ids(data.codes, A, K)
    w = np.bincount(ids.ravel(), np.repeat(alpha, ids.shape[1]), minlength=off[-1])
    means = np.bincount(ids.ravel(), minlength=off[-1]) / n
    return PositionalKmerScorer(alphabet=DNA_ALPHABET, length=L, max_degree=K,
                                weights=w, b=float(data.y.mean() - means @ w))
