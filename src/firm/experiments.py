"""The three simulation studies, as pure artifact-producing functions.

Each function computes its complete result set and returns a dict mapping
artifact file names to text content, plus a structured summary that tests
can inspect directly. All randomness flows from the single seed argument.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import _emit
from .binary import PointDistribution, firm_binary_exact
from .dataset import DNA_ALPHABET, SequenceDataset, TabularDataset, encode_sequences
from .errors import FirmError
from .empirical import conditional_curve, default_bins, firm_slope, slope_stderr
from .features import SignedConjunction
from .scoring import (KernelSpec, LabelOracleScorer, score_many,
                      train_kernel_ridge, train_least_squares,
                      train_positional_kmer)
from .sequence import MarkovBackground, hamming_ball, poim, ranked_oligomers

BOOLEAN_LAMBDA = 0.1
GAUSSIAN_CLASS_MEANS = (0.5, 1.5, 0.0)
MOTIF = "GATTACA"


# ---------------------------------------------------------------------------
# boolean formula on the ±1 truth table
# ---------------------------------------------------------------------------

def boolean_truth_table() -> TabularDataset:
    """All 8 points of {-1,+1}^3 labeled by x1 OR (NOT x1 AND NOT x2)."""
    rows = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
    y = np.array([1.0 if (r[0] > 0 or r[1] < 0) else -1.0 for r in rows])
    return TabularDataset(X=rows, y=y, names=("x1", "x2", "x3"))


def boolean_single_features():
    return [SignedConjunction(literals=((j, s),)) for j in range(3) for s in (1, -1)]


def boolean_pair_features():
    feats = []
    for j, k in [(0, 1), (0, 2), (1, 2)]:
        for sj, sk in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            feats.append(SignedConjunction(literals=((j, sj), (k, sk))))
    return feats


def boolean_experiment(lam: float = BOOLEAN_LAMBDA):
    data = boolean_truth_table()
    dist = PointDistribution.from_dataset(data)
    scorers = {
        "labels": LabelOracleScorer.from_dataset(data),
        "trained": train_kernel_ridge(data, KernelSpec.polynomial(2, 1.0), lam),
    }
    singles = boolean_single_features()
    pairs = boolean_pair_features()
    results = {tag: {"single": [firm_binary_exact(sc, f, dist) for f in singles],
                     "pairs": [firm_binary_exact(sc, f, dist) for f in pairs]}
               for tag, sc in scorers.items()}

    artifacts = {}
    tags, flat = zip(*[(tag, r) for tag in ("labels", "trained")
                       for r in results[tag]["single"] + results[tag]["pairs"]])
    artifacts["firm_boolean.tsv"] = _emit.tsv(
        ["scorer", "feature", "q_signed", "q_abs"],
        [tags, [r.feature for r in flat], [r.q_signed for r in flat],
         [r.q_abs for r in flat]])

    # heat-map style grids: polarity rows x variable (or pair) columns; the
    # feature lists vary the polarities innermost, so each reshaped row is
    # one grid column
    for tag in ("labels", "trained"):
        single_q = np.reshape([r.q_signed for r in results[tag]["single"]], (3, 2))
        artifacts[f"grid_single_{tag}.tsv"] = _emit.tsv(
            ["polarity", "x1", "x2", "x3"], [["pos", "neg"]] + list(single_q))
        pair_q = np.reshape([r.q_signed for r in results[tag]["pairs"]], (3, 4))
        artifacts[f"grid_pairs_{tag}.tsv"] = _emit.tsv(
            ["signs", "x1^x2", "x1^x3", "x2^x3"],
            [["++", "+-", "-+", "--"]] + list(pair_q))

    artifacts["run.json"] = _emit.run_metadata(
        "experiment-boolean", {"lambda": lam, "kernel": "polynomial:2:1"})
    return artifacts, results


# ---------------------------------------------------------------------------
# two 3-d normal classes
# ---------------------------------------------------------------------------

def gaussian_experiment(seed: int = 42, n_per_class: int = 1000,
                        bins: int | None = None):
    """Linear classifier on two normal classes; dimension 2 is the most
    informative, dimension 3 pure noise."""
    if n_per_class < 1:
        raise FirmError(f"n_per_class must be >= 1, got {n_per_class}")
    rng = np.random.default_rng(seed)
    means = np.array(GAUSSIAN_CLASS_MEANS)
    X_pos = rng.normal(size=(n_per_class, 3)) + means
    X_neg = rng.normal(size=(n_per_class, 3)) - means
    X = np.vstack([X_pos, X_neg])
    y = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    data = TabularDataset(X=X, y=y, names=("x1", "x2", "x3"))
    scorer = train_least_squares(data)
    scores = score_many(scorer, X)

    results = firm_slope(scores, X, names=data.names)
    stderrs = slope_stderr(scores, X)
    artifacts = {}
    nbins = bins if bins is not None else default_bins(data.n)
    for j in range(3):
        curve = conditional_curve(scores, X[:, j], nbins)
        artifacts[f"curves/{data.names[j]}.tsv"] = _emit.curve_tsv(curve)

    artifacts["firm.tsv"] = _emit.tsv(
        ["feature", "q_signed", "q_abs", "stderr"],
        [data.names, [r.q_signed for r in results], [r.q_abs for r in results], stderrs])
    artifacts["run.json"] = _emit.run_metadata("experiment-gaussian", {
        "seed": seed, "n_per_class": n_per_class, "bins": nbins,
        "class_means": list(means), "class_covariance": "identity",
        "scorer": "train:least_squares"})
    return artifacts, {"results": results, "stderrs": stderrs, "scorer": scorer}


# ---------------------------------------------------------------------------
# planted-motif sequence classification
# ---------------------------------------------------------------------------

def generate_motif_dataset(rng, n_per_class: int = 500, seq_len: int = 50,
                           center: int = 25, sd: float = 7.0,
                           motif: str = MOTIF) -> SequenceDataset:
    """Random DNA; positives carry the motif planted at a normal-rounded
    position (clamped to fit) with exactly one position mutated to a
    uniformly random letter (so about a quarter of plants stay intact)."""
    letters = np.array(DNA_ALPHABET)
    motif_codes = encode_sequences([motif], DNA_ALPHABET)[0]
    seqs = []
    for klass in (1.0, -1.0):
        for _ in range(n_per_class):
            s = rng.integers(0, len(letters), size=seq_len)
            if klass > 0:
                pos = int(np.clip(round(rng.normal(center, sd)), 0,
                                  seq_len - len(motif)))
                planted = motif_codes.copy()
                planted[rng.integers(0, len(motif))] = rng.integers(0, len(letters))
                s[pos:pos + len(motif)] = planted
            seqs.append("".join(letters[s]))
    return SequenceDataset(sequences=tuple(seqs), y=np.repeat([1.0, -1.0], n_per_class),
                           alphabet=DNA_ALPHABET)


def weight_importance(scorer, strings) -> np.ndarray:
    """Raw-weight stand-in for the importance of each string z (all of one
    length) at each position j: the largest |w| among the scorer's
    substrings of z at matching spots. Returns strings x positions."""
    codes = encode_sequences(strings, scorer.alphabet)
    npos = scorer.length - codes.shape[1] + 1
    A = len(scorer.alphabet)
    best = np.zeros((len(codes), npos))
    for k in range(1, scorer.max_degree + 1):
        W = np.abs(scorer.block(k)).reshape(scorer.length - k + 1, -1)
        for o in range(codes.shape[1] - k + 1):
            sub = np.ravel_multi_index(codes[:, o:o + k].T, (A,) * k)
            best = np.maximum(best, W[np.arange(o, o + npos)[None, :], sub[:, None]])
    return best


def sequence_experiment(seed: int = 42, n_per_class: int = 500, seq_len: int = 50,
                        degree: int = 3, lam: float = 0.1, k: int = 7,
                        top: int = 20, n_irrelevant: int = 300,
                        center: int = 25, sd: float = 7.0):
    if k != len(MOTIF):
        raise FirmError(f"the motif-graded series need k = {len(MOTIF)}")
    if n_per_class < 1 or seq_len < len(MOTIF):
        raise FirmError(f"need n_per_class >= 1 and seq_len >= {len(MOTIF)} (the motif), "
                        f"got {n_per_class} and {seq_len}")
    rng = np.random.default_rng(seed)
    data = generate_motif_dataset(rng, n_per_class=n_per_class, seq_len=seq_len,
                                  center=center, sd=sd)
    scorer = train_positional_kmer(data, K=degree, lam=lam)
    bg = MarkovBackground.uniform(data.alphabet)
    table = poim(scorer, bg, k=k)
    npos = table.positions

    motif = MOTIF
    ed1 = hamming_ball(motif, 1, data.alphabet)
    ed2 = hamming_ball(motif, 2, data.alphabet)
    # strings disagreeing with the motif at every position
    others = [[a for a in data.alphabet if a != c] for c in motif]
    irrelevant = ["".join(rng.choice(choices) for choices in others)
                  for _ in range(n_irrelevant)]

    def firm_series(strings):
        idx = [table.oligomer_index(z) for z in strings]
        return table.firm_values[idx, :]

    series = {}
    for tag, importance in (("poim", firm_series),
                            ("weight", lambda strings: weight_importance(scorer, strings))):
        exact = importance([motif])[0]
        ed1_mean = importance(ed1).mean(axis=0)
        ed2_mean = importance(ed2).mean(axis=0)
        irr = importance(irrelevant)
        series[tag] = {
            "exact": exact, "ed1_mean": ed1_mean, "ed2_mean": ed2_mean,
            "irrelevant_mean": irr.mean(axis=0), "irrelevant_sd": irr.std(axis=0),
        }

    artifacts = {}
    for tag in ("poim", "weight"):
        s = series[tag]
        artifacts[f"{tag}_series.tsv"] = _emit.tsv(
            ["position", "exact_motif", "ed1_mean", "ed2_mean",
             "irrelevant_mean", "irrelevant_sd"],
            [np.arange(npos), s["exact"], s["ed1_mean"], s["ed2_mean"],
             s["irrelevant_mean"], s["irrelevant_sd"]])

    # block row maxima; no degree-d substring starts in the last d - 1 positions
    max_w = np.max([np.pad(np.abs(scorer.block(d)).reshape(seq_len - d + 1, -1).max(axis=1),
                           (0, d - 1)) for d in range(1, degree + 1)], axis=0)
    artifacts["weight_by_position.tsv"] = _emit.tsv(
        ["position", "max_abs_w"], [np.arange(seq_len), max_w])

    artifacts["poim_summary.tsv"] = _emit.poim_summary_tsv(table)
    ranked = ranked_oligomers(table, top=top)
    artifacts["poim_top.tsv"] = _emit.poim_top_tsv(ranked)

    artifacts["run.json"] = _emit.run_metadata("experiment-sequence", {
        "seed": seed, "n_per_class": n_per_class, "seq_len": seq_len,
        "degree": degree, "lambda": lam, "k": k, "top": top,
        "n_irrelevant": n_irrelevant, "motif": motif,
        "plant_center": center, "plant_sd": sd,
        "mutations_per_plant": 1, "background": "uniform"})
    return artifacts, {"series": series, "table": table, "scorer": scorer,
                       "ranked": ranked, "data": data}
