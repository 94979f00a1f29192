"""Independent oracles shared by the test modules.

Everything here recomputes expected values from first principles (brute
force, enumeration, finite differences, per-point formulas, sampling)
without touching the production code paths under test; scores come from
score_many, the one evaluation method every scorer has. kmer_scorer and kmer_weight only place
and read positional k-mer weights with the package's layout, so tests can
state a scorer as a {(position, substring): weight} dict; onehot_kmer_gram
takes its substring ids from the same layout (kmer_ids), and save_tabular
writes the CSV files that the parser tests read. The one
exception among the oracles is the Monte Carlo
oracle, whose point estimate is the package's binned estimator on draws
from the model; it is an oracle for the normal-model closed forms, which
share no code with it.

Closed forms of special cases that a general package path computes live
here as oracles of that path: firm_uniform_conjunction (signed
conjunctions under uniform ±1 inputs, against firm_binary_exact),
firm_regression_closed_form (the unregularized regression fit, against
firm_gaussian_general of a trained scorer), least_squares_with_ones (the
fit and bias of train_least_squares, by lstsq on [X, 1]),
shrinkage_with_squared_copy (the shrunk covariance's arithmetic, written
out) and expected_score (E[s] of a positional k-mer scorer, beside
enumeration for the poim cells). The *_from_q oracles write the POIM
artifacts from the whole table of Q = firm_values, as the package did
before it took Q a row or a cell at a time.
parse_tabular states load_tabular's grammar one cell at a time with
Python float, less the forms np.loadtxt refuses.
"""

import itertools
import math
import os
from statistics import NormalDist
from typing import NamedTuple

import numpy as np
import pytest

from firm import (DataFormatError, FirmError, PositionalKmerScorer, conditional_curve,
                  firm_from_curve, score_many)
from firm import _emit, dataset
from firm.scoring import kmer_ids, kmer_offsets


def brute_firm_binary(scores, fvals, probs=None):
    """Signed binary importance straight from the definition.

    Splits the support on the two feature values, takes probability
    weighted conditional mean scores, and returns
    (q_hi - q_lo) * sqrt(p_hi * p_lo) with hi the larger feature value.
    """
    scores = np.asarray(scores, dtype=float)
    fvals = np.asarray(fvals, dtype=float)
    if probs is None:
        probs = np.full(len(scores), 1.0 / len(scores))
    probs = np.asarray(probs, dtype=float)
    vals = np.unique(fvals)
    assert len(vals) == 2, "oracle needs a binary feature"
    lo, hi = vals
    m_hi = fvals == hi
    p_hi = probs[m_hi].sum()
    p_lo = probs[~m_hi].sum()
    q_hi = (probs[m_hi] * scores[m_hi]).sum() / p_hi
    q_lo = (probs[~m_hi] * scores[~m_hi]).sum() / p_lo
    return (q_hi - q_lo) * np.sqrt(p_hi * p_lo)


def empirical_matrix_diagonals(X):
    """Per-column diagonals (d0, d1) of the paper's empirical importance matrix.

    With n_plus, n_minus the per-column counts of +1 and -1 in the ±1 data X,

        d1 = 1 / (2 sqrt(n_plus n_minus))
        d0 = (n_minus - n_plus) / (2 n sqrt(n_plus n_minus))

    so that rows of M = 1*d0 + X*d1 weight each example by the reciprocal
    of its value count, reproducing the exact binary importance as M'(Xw + b).
    """
    X = np.asarray(X, dtype=float)
    n_plus = (X == 1.0).sum(axis=0)
    n_minus = (X == -1.0).sum(axis=0)
    assert (n_plus > 0).all() and (n_minus > 0).all(), "oracle needs two-valued columns"
    root = np.sqrt(n_plus * n_minus)
    return (n_minus - n_plus) / (2.0 * X.shape[0] * root), 1.0 / (2.0 * root)


def poim_firm_conversion(q_prime, p):
    """One cell's binary importance from its conditional-mean shift.

    q_prime is E[s | feature value] - E[s] and p the probability of that
    feature value; the binary importance is q_prime * sqrt((1 - p) / p).
    """
    if not 0.0 < p < 1.0:
        raise FirmError("p must lie strictly between 0 and 1")
    return q_prime * math.sqrt((1.0 - p) / p)


def poim_tsv_from_q(table):
    """poim.tsv from the whole table of Q = table.firm_values, row by row."""
    q = table.firm_values
    npos, nz = q.shape
    return rows_tsv(["k", "position", "oligomer", "q_prime", "q"],
                    ([table.k, j, table.oligomer(zi), table.values[j, zi], q[j, zi]]
                     for j in range(npos) for zi in range(nz)))


def poim_summary_tsv_from_q(table):
    """poim_summary.tsv from np.abs of the whole firm_values table."""
    absq = np.abs(table.firm_values)
    return rows_tsv(["position", "max_abs_q", "mean_abs_q"],
                    zip(range(table.positions), absq.max(axis=1), absq.mean(axis=1)))


def ranked_from_q(table, top):
    """The top cells of the whole firm_values table by |Q|, ties in
    position-major order, each (oligomer, position, Q)."""
    q = table.firm_values
    order = np.argsort(-np.abs(q).ravel(), kind="stable")[:top]
    return [(table.oligomer(int(f) % q.shape[1]), int(f) // q.shape[1], float(q.flat[f]))
            for f in order]


def poim_top_tsv_from_q(table, top):
    return rows_tsv(["rank", "oligomer", "position", "q"],
                    [[r + 1, z, j, q] for r, (z, j, q) in enumerate(ranked_from_q(table, top))])


def poim_series_tsv_from_q(table, irrelevant, exact, ed1, ed2):
    """The sequence study's poim_series.tsv from the rows of firm_values.T,
    each group of strings indexed out of the whole transposed table."""
    by_oligomer = table.firm_values.T

    def rows(strings):
        return by_oligomer[[table.oligomer_index(z) for z in strings]]

    irr = rows(irrelevant)
    return rows_tsv(["position", "exact_motif", "ed1_mean", "ed2_mean",
                     "irrelevant_mean", "irrelevant_sd"],
                    zip(range(table.positions), rows(exact)[0], rows(ed1).mean(axis=0),
                        rows(ed2).mean(axis=0), irr.mean(axis=0), irr.std(axis=0)))


def uniform_probs(alphabet):
    """The uniform {letter: probability} background over an alphabet."""
    return {a: 1.0 / len(alphabet) for a in alphabet}


def string_prob(letter_prob, s):
    """Probability of string s under independent letters."""
    return math.prod(letter_prob[ch] for ch in s)


def firm_uniform_conjunction(w, literals):
    """Signed importance of a conjunction of distinct (index, polarity)
    literals under a linear scorer w on uniform ±1 inputs.

    The m literals all hold with probability p = 2^-m; the scores' mean
    moves by sum of s_j w_j when they do, and the importance is that sum
    times sqrt(p / (1 - p)).
    """
    m = len(literals)
    p = 2.0 ** -m
    return sum(s * float(w[j]) for j, s in literals) * math.sqrt(p / (1.0 - p))


def firm_regression_closed_form(X, y, sigma):
    """Normal-model importances Q = D^-1 S (X'X)^-1 X'y of the no-intercept
    least-squares fit of y on X, without a scorer; S = sigma and D its
    diagonal of standard deviations."""
    w = np.linalg.solve(X.T @ X, X.T @ y)
    return (sigma @ w) / np.sqrt(np.diag(sigma))


def least_squares_with_ones(X, y):
    """(w, b) of the least-squares fit of y on X with a bias, by lstsq on the
    design with a ones column appended."""
    sol = np.linalg.lstsq(np.column_stack([X, np.ones(len(y))]), y, rcond=None)[0]
    return sol[:-1], sol[-1]


def shrinkage_with_squared_copy(X):
    """(sigma, lambda) of the shrunk covariance, step by step as
    dataset.shrinkage_covariance computes them, but squaring the centered
    data into a second copy, (X - mean) ** 2."""
    n, d = X.shape
    Xc = X - X.mean(axis=0)
    S = (Xc.T @ Xc) / n
    S = (S + S.T) / 2.0
    Xc2 = Xc ** 2
    var_s = (n / (n - 1) ** 3) * (Xc2.T @ Xc2 - n * S ** 2)
    off = ~np.eye(d, dtype=bool)
    lam = float(np.clip(var_s[off].sum() / (S[off] ** 2).sum(), 0.0, 1.0))
    return (1.0 - lam) * S + lam * np.diag(np.diag(S)), lam


def expected_score(scorer, letter_prob=None):
    """E[s(X)] of a positional k-mer scorer under independent letters
    (uniform for None): the bias plus each weight times the probability of
    its substring."""
    probs = uniform_probs(scorer.alphabet) if letter_prob is None else letter_prob
    total = scorer.b
    for d in range(1, scorer.max_degree + 1):
        p = [string_prob(probs, s) for s in enumerate_sequences(scorer.alphabet, d)]
        total += float(scorer.block(d).reshape(-1, len(p)).sum(axis=0) @ p)
    return total


def central_difference_gradient(scorer, x, step=1e-5):
    """Central finite differences of a scorer at the point x: the 2d
    stepped points are scored in one batch."""
    x = np.asarray(x, dtype=float)
    shift = step * np.eye(x.size)
    s = score_many(scorer, np.vstack([x + shift, x - shift]))
    return (s[:x.size] - s[x.size:]) / (2 * step)


def kernel_gradient_at(scorer, x0):
    """Gradient of a kernel expansion at one point x0, summed over the
    expansion points with the differences p_i - x0 formed explicitly."""
    x0 = np.asarray(x0, dtype=float).ravel()
    diff = scorer.points - x0
    if scorer.kernel.variant == "gaussian":
        g2 = scorer.kernel.gamma ** 2
        kv = np.exp(-(diff ** 2).sum(axis=1) / g2)
        return (2.0 / g2) * ((scorer.alpha * kv) @ diff)
    p, c = scorer.kernel.degree, scorer.kernel.offset
    base = scorer.points @ x0 + c
    return (scorer.alpha * p * base ** (p - 1)) @ scorer.points


def reference_gram(kernel, A, B):
    """Kernel matrix of the rows of A and B, each variant as one expression."""
    if kernel.variant == "gaussian":
        sq = (A ** 2).sum(axis=1)[:, None] + (B ** 2).sum(axis=1)[None, :] \
            - 2.0 * (A @ B.T)
        return np.exp(-np.maximum(sq, 0.0) / kernel.gamma ** 2)
    return (A @ B.T + kernel.offset) ** kernel.degree


def enumerate_sequences(alphabet, length):
    """All |alphabet|^length sequences as strings."""
    return ["".join(t) for t in itertools.product(alphabet, repeat=length)]


def enum_expected_score(scorer, alphabet, length, letter_prob):
    """E[score] by exhaustive enumeration under independent letters."""
    seqs = enumerate_sequences(alphabet, length)
    total = 0.0
    for seq, score in zip(seqs, score_many(scorer, seqs)):
        p = 1.0
        for ch in seq:
            p *= letter_prob[ch]
        total += p * score
    return total


def enum_conditional_score(scorer, alphabet, length, letter_prob, z, j):
    """E[score | substring z at j] by exhaustive enumeration."""
    seqs = [seq for seq in enumerate_sequences(alphabet, length)
            if seq[j:j + len(z)] == z]
    num = 0.0
    den = 0.0
    for seq, score in zip(seqs, score_many(scorer, seqs)):
        p = 1.0
        for ch in seq:
            p *= letter_prob[ch]
        num += p * score
        den += p
    return num / den


def kmer_scorer(alphabet, length, max_degree, weights, b=0.0):
    """A PositionalKmerScorer from a {(position, substring): weight} dict;
    each weight goes to the flat slot the package's offsets give it."""
    A = len(alphabet)
    off = kmer_offsets(A, length, max_degree)
    flat = np.zeros(off[-1])
    for (i, y), v in weights.items():
        code = 0
        for ch in y:
            code = code * A + alphabet.index(ch)
        flat[off[len(y) - 1] + i * A ** len(y) + code] = v
    return PositionalKmerScorer(alphabet=tuple(alphabet), length=length,
                                max_degree=max_degree, weights=flat, b=b)


def kmer_weight(scorer, i, y):
    """The weight of substring y at position i, read through the scorer's block."""
    cell = tuple(scorer.alphabet.index(ch) for ch in y)
    return float(scorer.block(len(y))[(i,) + cell])


def explicit_kmer_ridge(data, K, lam):
    """Positional k-mer ridge on the explicit n x F design of the substrings
    that occur, solved in the dual: ({(position, substring): weight}, b)."""
    feats = sorted({(i, s[i:i + k]) for s in data.sequences
                    for k in range(1, K + 1) for i in range(data.length - k + 1)})
    col = {f: c for c, f in enumerate(feats)}
    Phi = np.zeros((data.n, len(feats)))
    for r, s in enumerate(data.sequences):
        for k in range(1, K + 1):
            for i in range(data.length - k + 1):
                Phi[r, col[(i, s[i:i + k])]] += 1.0
    means = Phi.mean(axis=0)
    Phic = Phi - means
    yc = data.y - data.y.mean()
    alpha = np.linalg.solve(Phic @ Phic.T + data.n * lam * np.eye(data.n), yc)
    w = Phic.T @ alpha
    return dict(zip(feats, w.tolist())), float(data.y.mean() - means @ w)


def onehot_kmer_gram(codes, K):
    """The n x n count of shared positional substrings of the n x L DNA
    codes, degrees 1..K, as a float32 product of one-hot codes summed a few
    positions at a time (about 2048 one-hot columns a chunk). Counts below
    2^24 are exact in float32."""
    n, L = codes.shape
    A = 4
    off = kmer_offsets(A, L, K)
    ids = kmer_ids(codes, A, K)
    gram = np.zeros((n, n), dtype=np.float32)
    col = 0
    for k in range(1, K + 1):
        step = max(1, 2048 // A ** k)
        for i0 in range(0, L - k + 1, step):
            cols = ids[:, col + i0:col + min(i0 + step, L - k + 1)]
            onehot = np.zeros((n, cols.shape[1] * A ** k), dtype=np.float32)
            np.put_along_axis(onehot, cols - (off[k - 1] + i0 * A ** k), 1.0, axis=1)
            gram += onehot @ onehot.T
        col += L - k + 1
    return gram


def parse_tabular(path):
    """Header and n x len(header) array of a CSV file, one cell at a time:
    the grammar load_tabular states, with its messages.

    Lines blank after strip() are skipped but counted. A cell is Python
    float of its stripped text, except that '_' and non-ASCII characters
    (the digits float reads beyond ASCII) are refused; it must be finite.
    """
    with open(path, encoding="utf-8-sig") as fh:
        lines = [(n, ln) for n, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = [h.strip() for h in lines[0][1].rstrip("\n").split(",")]
    rows = []
    for line_no, line in lines[1:]:
        cells = line.rstrip("\n").split(",")
        if len(cells) != len(header):
            raise DataFormatError(f"{path}: ragged row at line {line_no}: "
                                  f"expected {len(header)} cells, got {len(cells)}")
        row = []
        for name, raw in zip(header, (c.strip() for c in cells)):
            try:
                if "_" in raw or not raw.isascii():
                    raise ValueError(raw)
                v = float(raw)
            except ValueError:
                raise DataFormatError(f"cell at line {line_no}, column '{name}' does not "
                                      f"parse as a number: {raw!r}") from None
            if not math.isfinite(v):
                raise DataFormatError(
                    f"non-finite value at line {line_no}, column '{name}': {raw!r}")
            row.append(v)
        rows.append(row)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return header, np.array(rows, dtype=np.float64)


def save_tabular(data, path):
    """Write a TabularDataset in the load_tabular dialect, labels last.

    Floats are written with repr, so loading the file back is bit-identical.
    """
    cols = list(data.names) + (["label"] if data.y is not None else [])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(data.n):
            cells = [repr(float(v)) for v in data.X[i]]
            if data.y is not None:
                cells.append(repr(float(data.y[i])))
            fh.write(",".join(cells) + "\n")


def all_pm1_rows(d):
    """The full 2^d enumeration of ±1 points, one per row."""
    return np.array(list(itertools.product([-1.0, 1.0], repeat=d)))


def fmt(value) -> str:
    """One TSV cell: floats (numpy ones too) by repr, integers in decimal,
    anything else by str."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def rows_tsv(header, rows):
    """A TSV document written row by row and cell by cell with fmt."""
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def spread_forks(mp, cores=3):
    """Through the MonkeyPatch mp: `cores` cores, one POIM table cell and
    one data byte per worker (so _emit.poim_tsv takes min(cores, positions)
    workers, and load_tabular min(cores, the bytes after the header)) and a
    spy on os.fork. Returns (pids, may_fork): the list the spy appends each
    child's pid to, in this process, and whether this process runs one
    thread, the only case in which either may fork."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    mp.setattr(os, "sched_getaffinity", lambda _pid: set(range(cores)))
    mp.setattr(_emit, "_FORK_CELLS", 1)
    mp.setattr(dataset, "_FORK_BYTES", 1)
    mp.setattr(os, "fork", spy)
    return pids, len(os.listdir("/proc/self/task")) == 1


def assert_no_children():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def stable_conditional_curve(scores, fvals, bins):
    """(bin_edges, bin_prob, q_hat, counts) of conditional_curve's equal-count
    binning, always from a stable sort of the feature values: equal values
    keep their input order, and each boundary moves to the start of the next
    distinct value. Bin sums use np.add.reduceat, as the package does, so
    the two agree bit for bit."""
    order = np.argsort(fvals, kind="stable")
    fs, ss, n = fvals[order], scores[order], fvals.size
    change = np.flatnonzero(fs[1:] != fs[:-1]) + 1
    if change.size + 1 <= bins:
        bounds = change
    else:
        later = [change[change >= n * b // bins] for b in range(1, bins)]
        bounds = np.unique(np.array([c[0] for c in later if c.size], dtype=np.intp))
    starts = np.concatenate([[0], bounds]).astype(np.intp)
    counts = np.diff(np.concatenate([starts, [n]]))
    edges = np.concatenate([[fs[0]], (fs[bounds - 1] + fs[bounds]) / 2.0, [fs[-1]]])
    return edges, counts / n, np.add.reduceat(ss, starts) / counts, counts


def binned_normal_shrinkage(bin_prob):
    """The share rho of a linear conditional mean's sd that binning keeps.

    Cut a standard normal feature at its quantiles into bins of
    probability p_b and let mu_b be the feature's mean inside bin b. A
    conditional mean linear in the feature keeps rho^2 = sum_b p_b mu_b^2
    of its variance; rho = 0.998045 for 64 equal-count bins.
    """
    p = np.asarray(bin_prob, dtype=float)
    unit = NormalDist()
    dens = [0.0] + [unit.pdf(unit.inv_cdf(c)) for c in np.cumsum(p)[:-1]] + [0.0]
    p_mu = -np.diff(dens)                       # p_b * mu_b
    return math.sqrt(float(np.sum(p_mu ** 2 / p)))


class MonteCarloFirm(NamedTuple):
    """Per-coordinate Monte Carlo importances; see mc_firm."""

    q_hat: np.ndarray   # the binned importance as firm_from_curve returns it
    q_lin: np.ndarray   # q_hat debiased and unshrunk, for a linear conditional mean
    se_lin: np.ndarray  # standard error of q_lin


def mc_firm(scorer, sigma, rng, n, bins=64):
    """Monte Carlo importance of each coordinate of N(0, sigma), with its error.

    Draws n rows with rng, scores them and bins each coordinate into
    equal-count bins. q_hat is the plain binned estimate. q_lin estimates
    the exact importance when E[s | x_j] is linear in x_j, as for any
    linear scorer: the within-bin bias sum_b p_b (1 - p_b) v_b / n_b, with
    v_b the score variance inside bin b, is taken off q_hat^2 before the
    square root, and the result is divided by binned_normal_shrinkage.
    se_lin is sd(psi) / (2 q_hat sqrt(n)) / rho, where
    psi_i = (m_b - s_bar)^2 + 2 (m_b - s_bar)(s_i - m_b), with m_b the mean
    of row i's bin, is the influence function of q_hat^2.
    """
    d = sigma.shape[0]
    X = rng.multivariate_normal(np.zeros(d), sigma, size=n, method="cholesky")
    s = score_many(scorer, X)
    s_bar = s.mean()
    out = MonteCarloFirm(np.empty(d), np.empty(d), np.empty(d))
    for j in range(d):
        curve = conditional_curve(s, X[:, j], bins)
        q = firm_from_curve(curve).q_abs
        b = np.searchsorted(curve.bin_edges[1:-1], X[:, j])
        assert (np.bincount(b, minlength=curve.n_bins) == curve.counts).all()
        m = curve.q_hat[b]
        resid = s - m
        psi = (m - s_bar) ** 2 + 2.0 * (m - s_bar) * resid
        p, counts = curve.bin_prob, curve.counts
        v = np.bincount(b, resid ** 2, minlength=curve.n_bins) / (counts - 1)
        bias = float(np.sum(p * (1.0 - p) * v / counts))
        rho = binned_normal_shrinkage(p)
        out.q_hat[j] = q
        out.q_lin[j] = math.sqrt(max(q * q - bias, 0.0)) / rho
        out.se_lin[j] = float(np.std(psi)) / (2.0 * q * math.sqrt(n)) / rho
    return out
