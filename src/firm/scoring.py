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

from .dataset import DNA_ALPHABET, SequenceDataset, TabularDataset, _frozen, encode_sequences
from .errors import DEFAULT_CELL_BUDGET, BudgetExceededError, FirmError
from .features import row_blocks

# Cells per block of the elementwise n x m passes. The allocator reuses
# temporaries of 128 KiB; blocks of 6 MB (256 rows of 3000) stayed resident
# after the pass and added 8 MB to the later peak of a kernel ridge run.
_BLOCK_CELLS = 1 << 14
# Rows per block of a _LowerTriangle, so a block of 3000 columns (1.5 MB) stays in
# a 2 MiB L2 through a product: 0.36-0.40, 2.8-3.3, 15.9-21.9 ms at n = 1000, 3000,
# 6000, against 0.31-0.39, 3.7-3.8, 22.7-30.3 ms by 256 rows (one BLAS thread, Xeon).
_TRI_ROWS = 64


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
        last bits. At its peak the buffer, n x m cells (checked against the
        budget first), sits beside a scratch block of _BLOCK_CELLS cells.
        The kernel fit takes the symmetric gram(X, X) from self_gram
        instead, which holds n(n + 64)/2 cells for n rows of X.
        """
        _budget(A.shape[0] * B.shape[0], f"a {A.shape[0]} x {B.shape[0]} kernel matrix")
        S = A @ B.T
        self._finish(S, (A ** 2).sum(axis=1), (B ** 2).sum(axis=1))
        return S

    def self_gram(self, X: np.ndarray) -> "_LowerTriangle":
        """gram(X, X) as _TRI_ROWS-row blocks of its lower triangle.

        Each block is its own product X[i0:i1] X[:i1]', finished by the
        passes of gram, so it holds n(n + 64)/2 cells at most where
        gram(X, X) holds n^2, and full() gives gram(X, X)'s bits wherever the
        BLAS sums a row block's products in the order of the whole product.
        """
        S, sq = _LowerTriangle(X.shape[0]), (X ** 2).sum(axis=1)
        for i0, i1, blk in S:
            np.matmul(X[i0:i1], X[:i1].T, out=blk)
            self._finish(blk, sq[i0:i1], sq[:i1])
        return S.seal()

    def _finish(self, S: np.ndarray, a2: np.ndarray, b2: np.ndarray) -> None:
        """Kernel values in place of the products S = A B', given the
        squared row norms a2 of A and b2 of B (read by the Gaussian only).
        The Gaussian runs a block of _BLOCK_CELLS cells at a time, in cache,
        beside a scratch t = a2 + b2: min(2s - t, 0) is -max(t - 2s, 0)."""
        if self.variant == "gaussian":
            g2, rows = self.gamma ** 2, max(1, _BLOCK_CELLS // S.shape[1])
            t = np.empty((min(rows, S.shape[0]), S.shape[1]))
            for i in range(0, S.shape[0], rows):
                blk = S[i:i + rows]
                for r, a in enumerate(a2[i:i + rows]):  # a row at a time: numpy buffers
                    np.add(b2, a, out=t[r])             # a broadcast sum, 128 KiB
                blk *= 2.0
                blk -= t[:len(blk)]
                np.minimum(blk, 0.0, out=blk)
                blk /= g2
                np.exp(blk, out=blk)
            return
        S += self.offset
        S **= self.degree


class _LowerTriangle:
    """A symmetric n x n matrix kept as row blocks of its lower triangle.

    Block r holds rows i0:i1 and columns 0:i1, i0 = r * _TRI_ROWS, so the
    blocks hold n(n + 64)/2 cells at most, about half of n^2, checked
    against the budget; they are iterated as (i0, i1, block). They are views
    of one buffer, freed as a whole: blocks allocated one at a time stayed
    resident after a fit of 2000 rows, below the allocator's raised mmap
    threshold, and added 16 MB to a later run's peak. The caller fills the
    blocks, diagonal squares whole, then seals them; entries above the
    squares are read from their mirror images. S @ V, for a vector or an
    n x k matrix V, reads every cell once and holds beside its n-row result one
    temporary of at most n - _TRI_ROWS rows. full() assembles the n x n
    matrix for _solve_shifted's LU fallback.
    """

    def __init__(self, n: int):
        ends = [min(i0 + _TRI_ROWS, n) for i0 in range(0, n, _TRI_ROWS)]
        sizes = [(i1 - i0) * i1 for i0, i1 in zip([0] + ends, ends)]
        _budget(sum(sizes), f"the kept kernel matrix of {n} rows")
        parts = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
        self.n, self.blocks = n, tuple(p.reshape(-1, i1) for p, i1 in zip(parts, ends))

    def __iter__(self):
        return ((blk.shape[1] - blk.shape[0], blk.shape[1], blk) for blk in self.blocks)

    def seal(self) -> "_LowerTriangle":
        """Mirror each diagonal square's lower triangle onto its upper one, so
        full() is exactly symmetric, and make the blocks read-only."""
        for i0, i1, blk in self:        # a BLAS may not sum x_i'x_j as x_j'x_i
            square, (r, c) = blk[:, i0:], np.triu_indices(i1 - i0, 1)
            square[r, c] = square[c, r]
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


def _budget(cells: int, what: str) -> None:
    """BudgetExceededError, before `what` is allocated, past DEFAULT_CELL_BUDGET cells."""
    if cells > DEFAULT_CELL_BUDGET:
        raise BudgetExceededError(f"{what} needs {cells} cells; budget {DEFAULT_CELL_BUDGET}")


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
        w = _frozen(np.ravel(self.w))
        if w.size < 1 or not np.isfinite(w).all() or not np.isfinite(self.b):
            raise FirmError("linear scorer needs finite w (d >= 1) and finite b")
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
    of its lower triangle: n(n + 64)/2 cells for n points. score_many(X)
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
        pts, alpha = _frozen(np.atleast_2d(self.points)), _frozen(np.ravel(self.alpha))
        if pts.shape[0] != alpha.size or pts.shape[0] < 1:
            raise FirmError("need one coefficient per expansion point (m >= 1)")
        if not (np.isfinite(pts).all() and np.isfinite(alpha).all() and np.isfinite(self.b)):
            raise FirmError("kernel expansion parameters must be finite")
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
        K alpha. The peak is one n x m array (checked against the budget
        first), or the kept Gram matrix's blocks, plus arrays of m x d and
        n x d. The products by a computed
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
        _budget(X.shape[0] * P.shape[0], f"a {X.shape[0]} x {P.shape[0]} kernel matrix")
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


def _kmer_windows(codes: np.ndarray, A: int, K: int) -> np.ndarray:
    """The n x M top-degree windows of n x L coded sequences (encode_sequences),
    M = L - K + 1: window j of a sequence is the cell j * A^K + z of an
    (M, A^K) table, z the base-A code of its letters j..j + K - 1."""
    M = codes.shape[1] - K + 1
    win = codes[:, :M].astype(np.intp)
    for t in range(1, K):
        win *= A
        win += codes[:, t:t + M]
    win += np.arange(M) * A ** K
    return win


def _fold(w: np.ndarray, A: int, L: int, K: int) -> np.ndarray:
    """The flat weights of a positional k-mer model folded into its (M, A^K)
    window table: cell (j, z) sums the weight of every substring that window
    j holds when its letters are z, so a score is the sum of a sequence's M
    window cells. Substring (k, i) lies in window j = min(i, M - 1) at
    offset i - j: the top degree fills the table, and each lower degree is
    added to the cells of its letters, past offset 0 in the last window only.
    """
    M, off = L - K + 1, kmer_offsets(A, L, K)
    T = w[off[K - 1]:].reshape(M, A ** K).copy()
    for k in range(K - 1, 0, -1):
        Wk = w[off[k - 1]:off[k]].reshape(L - k + 1, A ** k)
        T.reshape(M, A ** k, -1)[...] += Wk[:M, :, None]
        for o in range(1, K - k + 1):
            T[M - 1].reshape(A ** o, A ** k, -1)[...] += Wk[M - 1 + o][:, None]
    return T


def _unfold(c: np.ndarray, A: int, L: int, K: int) -> np.ndarray:
    """The adjoint of _fold: the flat vector whose entry for substring (k, i)
    sums c, an (M, A^K) table or its M * A^K cells, over the cells of its
    window that hold it. An integer c gives exact integer sums."""
    M, off = L - K + 1, kmer_offsets(A, L, K)
    c, out = c.reshape(M, A ** K), np.empty(off[-1], c.dtype)
    for k in range(1, K + 1):
        Ok = out[off[k - 1]:off[k]].reshape(L - k + 1, A ** k)
        Ok[:M] = c.reshape(M, A ** k, -1).sum(axis=2)
        for o in range(1, K - k + 1):
            Ok[M - 1 + o] = c[M - 1].reshape(A ** o, A ** k, -1).sum(axis=(0, 2))
    return out


@dataclass(frozen=True, eq=False)
class PositionalKmerScorer:
    """Linear scorer over positional substring indicators.

    weights is one read-only float64 vector with an entry for every degree
    k <= max_degree, position i <= length - k and length-k substring y:
    degree-major, then position, then y's base-|alphabet| code with the
    leftmost letter most significant (PoimTable's oligomer order). A score
    sums the weight of every substring incident in x, plus the bias. Only
    this module knows the layout: _kmer_windows maps sequences to their
    top-degree windows, _fold and _unfold map weights to window cells and
    back (sequence.poim reads the model as its _fold window table), and
    block(k) views one degree as (length - k + 1, A, ..., A).
    """

    alphabet: tuple[str, ...]
    length: int
    max_degree: int
    weights: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        size = kmer_offsets(len(self.alphabet), self.length, self.max_degree)[-1]
        w = _frozen(self.weights)
        if w.shape != (size,):
            raise FirmError(f"need {size} weights, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise FirmError("weights must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "b", float(self.b))

    def block(self, k: int) -> np.ndarray:
        """Degree-k weights as a (length - k + 1, A, ..., A) view."""
        off = kmer_offsets(len(self.alphabet), self.length, self.max_degree)
        return self.weights[off[k - 1]:off[k]].reshape((-1,) + (len(self.alphabet),) * k)

    def score_many(self, X) -> np.ndarray:
        A, L, K = len(self.alphabet), self.length, self.max_degree
        windows = _kmer_windows(encode_sequences(X, self.alphabet, L), A, K)
        return np.take(_fold(self.weights, A, L, K), windows).sum(axis=1) + self.b


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
    """Unregularized least squares with a fitted bias, by the sequential TSQR
    of Demmel, Grigori, Hoemmen & Langou (2012): the row_blocks of the
    centered [X - mean(X) | y - mean(y)] fold into a running (d + 1)-square
    R, with no copy of the design and with lstsq's backward stability. w
    solves R[:d, :d] w = R[:d, d] by lstsq, rcond = eps * max(n, d + 1);
    b = mean(y) - mean(X)'w. Raises when that rank is below d or n <= d
    (use train_ridge there).
    """
    y, mu, n, d = data.labels(), data.column_means, data.n, data.d
    y_bar, R = y.mean(), np.empty((0, d + 1))
    for block in row_blocks(data.X, mu, y - y_bar):
        R = np.linalg.qr(np.concatenate([R, block]), mode="r")
    rcond = np.finfo(np.float64).eps * max(n, d + 1)
    w, _, rank, _ = np.linalg.lstsq(R[:d, :d], R[:d, d], rcond=rcond)
    if rank < d or n <= d:
        raise FirmError("singular normal equations; use train_ridge with lambda > 0")
    return LinearScorer(w=w, b=float(y_bar - mu @ w))


def train_ridge(data: TabularDataset, lam: float) -> LinearScorer:
    """Ridge regression w = (Xc'Xc + n*lambda*I)^-1 Xc'yc, centered, with
    unpenalized bias; both products sum B'B over the row_blocks of [Xc | yc]."""
    if not 0 < lam < np.inf:
        raise FirmError("lambda must be finite and > 0")
    y, mu, d = data.labels(), data.column_means, data.d
    y_bar, G = y.mean(), np.zeros((d + 1, d + 1))
    for B in row_blocks(data.X, mu, y - y_bar):
        G += B.T @ B
    w = np.linalg.solve(G[:d, :d] + data.n * lam * np.eye(d), G[:d, d])
    return LinearScorer(w=w, b=float(y_bar - mu @ w))


# The kernel fit's conjugate-gradient steps, tried before an LU solve.
_CG_BUDGET = 64
# The k-mer fit's conjugate-gradient gate, in units of sqrt(n + 64) eps, and
# its step budget; train_positional_kmer gives the measurements.
_KMER_TOL, _KMER_STEPS = 1.0, 2048


def _cg(product, b: np.ndarray, tol: float, steps: int) -> np.ndarray | None:
    """x with ||b - M x|| <= tol * ||b||, by conjugate gradients, or None.

    product(v) returns M v, as a new array, for a symmetric positive
    definite M. A zero b gives exact zeros. CG (Hestenes & Stiefel 1952)
    runs from x = 0 on b scaled to unit max-norm, so no inner product over-
    or underflows, until its recursive residual is below tol / 2 or `steps`
    products are spent. The gate is the true residual, one more product;
    on breakdown (p'Mp <= 0) or a failed gate the result is None. Inner
    products are np.add.reduce(p * q), summed in one order whatever the
    BLAS thread count.
    """
    if not b.any():
        return np.zeros(b.size)
    scale = np.abs(b).max()
    u = b / scale
    x, r, p = np.zeros_like(u), u.copy(), u.copy()
    rr = np.add.reduce(r * r)
    stop = (tol / 2) ** 2 * rr
    for _ in range(steps):
        q = product(p)
        pq = np.add.reduce(p * q)
        if not pq > 0.0:
            return None
        a = rr / pq
        x += a * p
        r -= a * q
        rr, rr_old = np.add.reduce(r * r), rr
        if rr <= stop:
            break
        p *= rr / rr_old
        p += r
    q = product(x)
    q -= u
    return scale * x if np.add.reduce(q * q) <= tol ** 2 * np.add.reduce(u * u) else None


def _solve_shifted(P: _LowerTriangle, shift: float, b: np.ndarray) -> np.ndarray:
    """Solve (P + shift*I) x = b for a symmetric PSD n x n matrix P, shift > 0.

    P is only read. _cg runs first, for at most _CG_BUDGET = 64 steps,
    multiplying by M = P + shift*I as P @ v + shift * v. If it returns no
    answer, x is np.linalg.solve(M, b) on M assembled from P.full(); that
    fallback, n^2 cells checked against the budget, holds P's blocks, M and
    LU's copy of M, and releases M on return.

    The LU fallback costs 77 to 87, 125 to 145 and 156 to 211 products by
    P's blocks at n = 1000, 2000 and 3000 (five runs, one OpenBLAS thread,
    2-core Xeon), so the worst case, 65 products plus one LU, is under twice
    LU's cost. At lambda = 0.1 the kernel systems measured took 11 to 15
    products. Below n = 250 the interpreter's cost per CG step dominates
    (four products' worth at n = 100), and a failed attempt can take up to
    six LU solves, under a millisecond.

    The gate is tol = sqrt(n) * eps / 4, just above LU's own relative
    residual. In units of sqrt(n) * eps, the largest LU residual measured
    per n (one OpenBLAS thread; lambda = 0.1; Gaussian gamma = 1 and 3 and
    polynomial degree 2 kernels):

        n        500    1000   2000   3000   4000
        kernel   0.146  0.149  0.139  0.125  0.122
    """
    tol = math.sqrt(b.size) * np.finfo(np.float64).eps / 4
    x = _cg(lambda v: P @ v + shift * v, b, tol, _CG_BUDGET)
    if x is not None:
        return x
    _budget(b.size ** 2, f"each of the LU solve's two {b.size} x {b.size} arrays")
    M = P.full()
    M[np.diag_indices(b.size)] += shift
    return np.linalg.solve(M, b)


def train_kernel_ridge(data: TabularDataset, kernel: KernelSpec,
                       lam: float) -> KernelExpansionScorer:
    """Kernel ridge: alpha = (K + n*lambda*I)^-1 (y - mean(y)), b = mean(y).

    K = kernel.gram(X, X) is built as kernel.self_gram(X), row blocks of its
    lower triangle, and solved by _solve_shifted; the scorer keeps it for
    scores and gradients on the training rows. A fit holds n(n + 64)/2
    cells of K, plus gram's scratch block while it is built, or two full
    n x n arrays more on the LU fallback. Scores and gradients on the
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


def train_positional_kmer(data: SequenceDataset, K: int, lam: float) -> PositionalKmerScorer:
    """Ridge regression on the positional substring indicators, in the primal.

    w solves (Xc'Xc + n*lambda*I) w = Xc'(y - mean(y)), Xc the n x F
    indicator design centred by its column means mu, and b = mean(y) - mu'w.
    The M = L - K + 1 top-degree windows of a sequence (_kmer_windows) hold
    all of its P substrings, so with T = _fold(w), Xc w is the sum of T over
    each sequence's windows less mu'w, and Xc'v is _unfold of the bincount
    of the windows weighted by v, less mu * sum(v): no design exists
    (Sonnenburg, Raetsch & Schoelkopf, ICML 2005; Sonnenburg & Franc,
    COFFIN, ICML 2010), and a product reads n x M cells, not n x P. mu is
    the integer window counts unfolded, then divided by n. No step calls a
    BLAS, so the weights do not depend on its thread count. A substring
    that never occurs has a zero column and keeps weight exactly 0. The
    fit holds the windows and one n x M temporary at a time: 0.88 and 0.77
    x 8nP bytes at its peak at n = 1000 and 2000 (K = 3, L = 100).

    _cg gets the gate tol = _KMER_TOL * sqrt(n + 64) * eps and so stops at
    tol / 2. Run to a tiny tol, the true relative residual fell to about
    0.15 sqrt(n) eps past n = 200 (18.5 eps at n = 16000) and to at most
    2.3 eps at n <= 20 (random DNA with a motif planted in half the rows,
    K = 2 to 6, lambda = 0.1 to 1e-4), under half of tol / 2; the answers
    measured at most 0.52 tol. CG steps on the `poim` benchmark input
    (seed 0; 2000 planted-motif sequences of length 100, K = 3):

        lambda   0.1  0.03  0.01  1e-3  1e-4  1e-6  1e-9
        steps     49    82   120   173   185   186   187

    The most measured, 1479, was at n = 4000 with the motif at one fixed
    position and lambda = 1e-9; _KMER_STEPS = 2048 caps a failed fit near
    1.7 s at n = 2000 (2049 products; one core of a 2-core Xeon). A fit with
    no answer through the gate raises FirmError naming lambda.
    """
    if not 0 < lam < np.inf:
        raise FirmError("lambda must be finite and > 0")
    A, L, n = len(DNA_ALPHABET), data.length, data.n
    kmer_offsets(A, L, K)                       # checks K and the weight budget
    windows = _kmer_windows(data.codes, A, K)
    flat, M = windows.ravel(), windows.shape[1]
    cells = M * A ** K
    mu = _unfold(np.bincount(flat, minlength=cells), A, L, K) / n

    def xt(v):                                  # Xc'v
        out = _unfold(np.bincount(flat, np.repeat(v, M), minlength=cells), A, L, K)
        out -= mu * np.add.reduce(v)
        return out

    def product(w):                             # (Xc'Xc + n*lambda*I) w
        out = xt(np.take(_fold(w, A, L, K), windows).sum(axis=1) - np.add.reduce(mu * w))
        out += n * lam * w
        return out

    tol = _KMER_TOL * math.sqrt(n + 64) * np.finfo(np.float64).eps
    w = _cg(product, xt(data.y - data.y.mean()), tol, _KMER_STEPS)
    if w is None:
        raise FirmError(f"the k-mer ridge solve did not converge within {_KMER_STEPS} "
                        f"steps at lambda = {lam:g}; a larger lambda converges faster")
    return PositionalKmerScorer(alphabet=DNA_ALPHABET, length=L, max_degree=K,
                                weights=w, b=float(data.y.mean() - np.add.reduce(mu * w)))
