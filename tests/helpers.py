"""Independent oracles shared by the test modules.

Everything here recomputes expected values from first principles (brute
force, enumeration, finite differences, per-point formulas, sampling)
without touching the production code paths under test; scores come from
score_many, the one evaluation method every scorer has. kmer_scorer and kmer_weight only place
and read positional k-mer weights with the package's layout, so tests can
state a scorer as a {(position, substring): weight} dict. The one
exception among the oracles is the Monte Carlo
oracle, whose point estimate is the package's binned estimator on draws
from the model; it is an oracle for the normal-model closed forms, which
share no code with it.
"""

import itertools
import math
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from firm import PositionalKmerScorer, conditional_curve, firm_from_curve, score_many
from firm.scoring import kmer_offsets


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
