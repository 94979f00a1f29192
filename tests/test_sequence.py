"""Positional oligomer importance: enumeration oracle, scaling, ranking."""

import math
from itertools import product

import numpy as np
import pytest

from firm import (BudgetExceededError, FirmError, MarkovBackground, PoimTable,
                  conditional_expected_score, expected_score, hamming_ball, poim,
                  ranked_oligomers)
from firm import experiments

from helpers import (enum_conditional_score, enum_expected_score,
                     kmer_scorer, kmer_weight, poim_firm_conversion)


DNA = ("A", "C", "G", "T")


def random_sparse_scorer(rng, alphabet, L, K, n_weights, bias=None):
    weights = {}
    for _ in range(n_weights):
        k = int(rng.integers(1, K + 1))
        i = int(rng.integers(0, L - k + 1))
        y = "".join(rng.choice(alphabet, size=k))
        weights[(i, y)] = float(rng.normal())
    return kmer_scorer(tuple(alphabet), L, K, weights,
                       b=float(rng.normal()) if bias is None else bias)


class TestExpectedScore:
    def test_single_trimer_uniform(self):
        sc = kmer_scorer(DNA, 4, 3, {(0, "GAT"): 1.0}, b=0.0)
        bg = MarkovBackground.uniform(DNA)
        assert expected_score(sc, bg) == pytest.approx(1.0 / 64.0, abs=1e-15)
        enum = enum_expected_score(sc, DNA, 4, bg.letter_prob)
        assert expected_score(sc, bg) == pytest.approx(enum, abs=1e-12)

    def test_zero_weights_give_bias(self):
        sc = kmer_scorer(DNA, 3, 1, {}, b=2.5)
        assert expected_score(sc, MarkovBackground.uniform(DNA)) == 2.5

    def test_disjoint_weights_add(self):
        bg = MarkovBackground.uniform(DNA)
        w1 = kmer_scorer(DNA, 6, 2, {(0, "GA"): 1.0}, b=0.0)
        w2 = kmer_scorer(DNA, 6, 2, {(4, "TC"): -2.0}, b=0.0)
        both = kmer_scorer(DNA, 6, 2, {(0, "GA"): 1.0, (4, "TC"): -2.0}, b=0.7)
        assert expected_score(both, bg) == pytest.approx(
            expected_score(w1, bg) + expected_score(w2, bg) + 0.7, abs=1e-15)


class TestConditionalExpectedScore:
    def test_full_overlap_exact_match(self):
        sc = kmer_scorer(DNA, 5, 3, {(0, "GAT"): 1.0}, b=0.25)
        bg = MarkovBackground.uniform(DNA)
        assert conditional_expected_score(sc, bg, "GAT", 0) == pytest.approx(1.25,
                                                                             abs=1e-15)

    def test_shifted_window_conflicts(self):
        # weight GAT at 0 vs conditioning GAT at 1: overlap needs "AT" == "GA"
        sc = kmer_scorer(DNA, 5, 3, {(0, "GAT"): 1.0}, b=0.25)
        bg = MarkovBackground.uniform(DNA)
        got = conditional_expected_score(sc, bg, "GAT", 1)
        assert got == pytest.approx(0.25, abs=1e-15)
        enum = enum_conditional_score(sc, DNA, 5,
                                      bg.letter_prob, "GAT", 1)
        assert got == pytest.approx(enum, abs=1e-12)

    def test_whole_sequence_window_is_the_score(self):
        rng = np.random.default_rng(0)
        sc = random_sparse_scorer(rng, DNA, 5, 3, 10)
        bg = MarkovBackground.uniform(DNA)
        z = "GATTC"
        assert conditional_expected_score(sc, bg, z, 0) == pytest.approx(
            sc.score_many([z])[0], rel=1e-12)

    def test_out_of_range_window(self):
        sc = kmer_scorer(DNA, 4, 1, {}, b=0.0)
        with pytest.raises(FirmError):
            conditional_expected_score(sc, MarkovBackground.uniform(DNA), "GAT", 2)

    @pytest.mark.parametrize("alphabet,L,seed",
                             [(("0", "1"), 6, 61), (DNA, 4, 44), (DNA, 5, 45)],
                             ids=["alphabet0-6", "alphabet1-4", "alphabet2-5"])
    def test_enumeration_oracle_random_scorers(self, alphabet, L, seed):
        rng = np.random.default_rng(seed)
        bg = MarkovBackground.uniform(alphabet)
        for trial in range(3):
            sc = random_sparse_scorer(rng, alphabet, L, min(3, L), 8)
            escore = expected_score(sc, bg)
            enum = enum_expected_score(sc, alphabet, L,
                                       bg.letter_prob)
            assert escore == pytest.approx(enum, abs=1e-12)
            for _ in range(4):
                k = int(rng.integers(1, L + 1))
                j = int(rng.integers(0, L - k + 1))
                z = "".join(rng.choice(alphabet, size=k))
                got = conditional_expected_score(sc, bg, z, j)
                want = enum_conditional_score(sc, alphabet, L,
                                              bg.letter_prob, z, j)
                assert got == pytest.approx(want, abs=1e-12)

    def test_nonuniform_background_oracle(self):
        alphabet = ("A", "C", "G", "T")
        bg = MarkovBackground(alphabet=alphabet,
                              letter_prob={"A": 0.4, "C": 0.3, "G": 0.2, "T": 0.1})
        rng = np.random.default_rng(5)
        sc = random_sparse_scorer(rng, alphabet, 4, 2, 6)
        enum = enum_expected_score(sc, alphabet, 4, bg.letter_prob)
        assert expected_score(sc, bg) == pytest.approx(enum, abs=1e-12)
        got = conditional_expected_score(sc, bg, "CT", 1)
        want = enum_conditional_score(sc, alphabet, 4,
                                      bg.letter_prob, "CT", 1)
        assert got == pytest.approx(want, abs=1e-12)


class TestPoimTable:
    def test_cells_match_direct_computation(self):
        rng = np.random.default_rng(1)
        bg = MarkovBackground.uniform(DNA)
        sc = random_sparse_scorer(rng, DNA, 6, 3, 12)
        table = poim(sc, bg, k=2)
        base = expected_score(sc, bg)
        enum_base = enum_expected_score(sc, DNA, 6, bg.letter_prob)
        for j in range(table.positions):
            for zi in range(16):
                z = table.oligomer(zi)
                want = conditional_expected_score(sc, bg, z, j) - base
                assert table.values[j, zi] == pytest.approx(want, abs=1e-12)
                enum = enum_conditional_score(sc, DNA, 6,
                                              bg.letter_prob, z, j) - enum_base
                assert table.values[j, zi] == pytest.approx(enum, abs=1e-12)

    def test_degree_one_uniform_identity(self):
        """For a scorer with only single-letter weights, the k=1 entry is
        the weight minus the positional mean weight."""
        rng = np.random.default_rng(2)
        L = 5
        weights = {(i, a): float(rng.normal()) for i in range(L) for a in DNA}
        sc = kmer_scorer(DNA, L, 1, weights, b=0.3)
        table = poim(sc, MarkovBackground.uniform(DNA), k=1)
        for j in range(L):
            mean_w = np.mean([weights[(j, a)] for a in DNA])
            for a in DNA:
                assert table.values[j, table.oligomer_index(a)] == pytest.approx(
                    weights[(j, a)] - mean_w, abs=1e-12)

    def test_zero_scorer_gives_zero_table(self):
        sc = kmer_scorer(DNA, 4, 2, {}, b=1.0)
        table = poim(sc, MarkovBackground.uniform(DNA), k=2)
        np.testing.assert_array_equal(table.values, 0.0)
        np.testing.assert_array_equal(table.firm_values, 0.0)

    def test_zero_mean_property(self):
        rng = np.random.default_rng(3)
        bg = MarkovBackground(alphabet=DNA,
                              letter_prob={"A": 0.4, "C": 0.3, "G": 0.2, "T": 0.1})
        sc = random_sparse_scorer(rng, DNA, 6, 3, 15)
        for k in (1, 2, 3):
            table = poim(sc, bg, k=k)
            p_z = np.array([bg.prob_of(table.oligomer(zi))
                            for zi in range(len(DNA) ** k)])
            resid = table.values @ p_z
            np.testing.assert_allclose(resid, np.zeros(table.positions), atol=1e-9)

    def test_firm_scaling_matches_conversion(self):
        """Per cell, also where the factor differs between oligomers."""
        rng = np.random.default_rng(4)
        sc = random_sparse_scorer(rng, DNA, 5, 2, 8)
        skewed = {"A": 0.4, "C": 0.3, "G": 0.2, "T": 0.1}
        for bg in (MarkovBackground.uniform(DNA),
                   MarkovBackground(alphabet=DNA, letter_prob=skewed)):
            table = poim(sc, bg, k=3)
            for zi in range(len(DNA) ** 3):
                z = table.oligomer(zi)
                for j in range(table.positions):
                    want = poim_firm_conversion(table.values[j, zi], bg.prob_of(z))
                    assert table.firm_values[j, zi] == pytest.approx(want, rel=1e-12)

    def test_uniform_scaling_preserves_within_slice_ranking(self):
        rng = np.random.default_rng(5)
        bg = MarkovBackground.uniform(DNA)
        sc = random_sparse_scorer(rng, DNA, 6, 3, 20)
        table = poim(sc, bg, k=2)
        for j in range(table.positions):
            raw = np.argsort(-np.abs(table.values[j]), kind="stable")
            scaled = np.argsort(-np.abs(table.firm_values[j]), kind="stable")
            np.testing.assert_array_equal(raw, scaled)

    def test_k_may_exceed_scorer_degree(self):
        sc = kmer_scorer(DNA, 6, 1, {(2, "G"): 1.0}, b=0.0)
        table = poim(sc, MarkovBackground.uniform(DNA), k=3)
        # conditioning on a trimer covering position 2 pins the weight
        assert table.values[1, table.oligomer_index("AGA")] == pytest.approx(1.0 - 0.25,
                                                                           abs=1e-12)

    def test_table_follows_scorer_alphabet_order(self):
        rng = np.random.default_rng(6)
        sc = random_sparse_scorer(rng, DNA, 5, 3, 15)
        probs = {"A": 0.4, "C": 0.3, "G": 0.2, "T": 0.1}
        table = poim(sc, MarkovBackground(alphabet=DNA, letter_prob=probs), k=2)
        permuted = poim(sc, MarkovBackground(alphabet=("T", "G", "A", "C"),
                                             letter_prob=probs), k=2)
        assert permuted.alphabet == sc.alphabet
        for zi in range(16):
            pz = permuted.oligomer_index(table.oligomer(zi))
            for j in range(table.positions):
                assert permuted.values[j, pz] == table.values[j, zi]
                assert permuted.firm_values[j, pz] == table.firm_values[j, zi]

    def test_budget_guard(self):
        sc = kmer_scorer(DNA, 20, 1, {(0, "A"): 1.0}, b=0.0)
        with pytest.raises(BudgetExceededError, match="cells"):
            poim(sc, MarkovBackground.uniform(DNA), k=12)


class TestWeightImportance:
    def test_matches_per_cell_lookup(self):
        rng = np.random.default_rng(7)
        L, K = 9, 3
        weights = {}
        for _ in range(60):
            k = int(rng.integers(1, K + 1))
            weights[(int(rng.integers(0, L - k + 1)), "".join(rng.choice(DNA, size=k)))] = \
                float(rng.normal())
        sc = kmer_scorer(DNA, L, K, weights)
        strings = ["".join(rng.choice(DNA, size=4)) for _ in range(25)]
        want = [[max(abs(weights.get((j + o, z[o:o + k]), 0.0))
                     for k in range(1, K + 1) for o in range(len(z) - k + 1))
                 for j in range(L - 4 + 1)] for z in strings]
        np.testing.assert_array_equal(experiments.weight_importance(sc, strings), want)


    def test_weight_by_position_is_largest_weight_starting_there(self):
        artifacts, result = experiments.sequence_experiment(n_per_class=15, seq_len=12)
        sc = result["scorer"]
        want = [max(abs(kmer_weight(sc, i, "".join(y)))
                    for d in (1, 2, 3) if i + d <= 12 for y in product(DNA, repeat=d))
                for i in range(12)]
        rows = artifacts["weight_by_position.tsv"].splitlines()[1:]
        assert [float(r.split("\t")[1]) for r in rows] == want


class TestRankedOligomers:
    def test_single_nonzero_cell_ranks_first(self):
        sc = kmer_scorer(DNA, 4, 2, {(1, "GA"): 2.0}, b=0.0)
        table = poim(sc, MarkovBackground.uniform(DNA), k=2)
        top = ranked_oligomers(table, top=3)
        assert top[0][0] == "GA" and top[0][1] == 1

    def test_zero_table_deterministic_order(self):
        sc = kmer_scorer(DNA, 4, 2, {}, b=0.0)
        table = poim(sc, MarkovBackground.uniform(DNA), k=2)
        top1 = ranked_oligomers(table, top=10)
        top2 = ranked_oligomers(table, top=10)
        assert top1 == top2
        assert top1[0] == ("AA", 0, 0.0)
        assert [t[:2] for t in top1[:5]] == [("AA", 0), ("AC", 0), ("AG", 0),
                                             ("AT", 0), ("CA", 0)]

    def test_tie_break_by_position_then_oligomer(self):
        sc = kmer_scorer(DNA, 4, 1, {(0, "C"): 1.0, (2, "C"): 1.0}, b=0.0)
        table = poim(sc, MarkovBackground.uniform(DNA), k=1)
        top = ranked_oligomers(table, top=2)
        assert top[0][1] == 0 and top[1][1] == 2

    @pytest.mark.parametrize("k,length,seed", [(1, 6, 0), (2, 5, 1), (3, 7, 2)])
    def test_full_ranking_matches_lexsort(self, k, length, seed):
        # small-integer importances with many exact zeros (some -0.0): mostly ties
        rng = np.random.default_rng(seed)
        q = rng.integers(-2, 3, size=(4 ** k, length - k + 1)).astype(float)
        q[rng.random(q.shape) < 0.4] = 0.0
        q[rng.random(q.shape) < 0.2] *= -1.0
        table = PoimTable(k=k, length=length, alphabet=DNA, values=q.T / 2.0,
                          factor=np.full(4 ** k, 2.0))
        nz, npos = q.shape
        z_idx = np.repeat(np.arange(nz), npos)
        j_idx = np.tile(np.arange(npos), nz)
        order = np.lexsort((z_idx, j_idx, -np.abs(q).ravel()))
        expected = [(table.oligomer(int(z_idx[f])), int(j_idx[f]),
                     float(q[z_idx[f], j_idx[f]])) for f in order]
        assert ranked_oligomers(table, top=q.size + 3) == expected
        assert ranked_oligomers(table, top=7) == expected[:7]


    def test_cut_inside_a_run_of_ties(self):
        # magnitudes 3, then eleven cells of 2 (some negative), then 1 and 0
        q = np.zeros((4, 5))
        q[1, 4] = 3.0
        for z, j in [(0, 0), (3, 0), (2, 1), (0, 2), (1, 2), (3, 2), (2, 3), (0, 4),
                     (2, 4), (3, 4), (1, 1)]:
            q[z, j] = 2.0 if (z + j) % 2 else -2.0
        q[0, 1] = 1.0
        table = PoimTable(k=1, length=5, alphabet=DNA, values=q.T / 2.0, factor=np.full(4, 2.0))
        nz, npos = q.shape
        z_idx = np.repeat(np.arange(nz), npos)
        j_idx = np.tile(np.arange(npos), nz)
        order = np.lexsort((z_idx, j_idx, -np.abs(q).ravel()))
        expected = [(table.oligomer(int(z_idx[f])), int(j_idx[f]),
                     float(q[z_idx[f], j_idx[f]])) for f in order]
        assert abs(expected[4][2]) == abs(expected[5][2]) == 2.0   # top=5 cuts the run
        for top in range(q.size + 2):
            assert ranked_oligomers(table, top=top) == expected[:top]

    def test_negative_top_rejected(self):
        table = poim(kmer_scorer(DNA, 4, 1, {(0, "C"): 1.0}, b=0.0),
                     MarkovBackground.uniform(DNA), k=1)
        with pytest.raises(FirmError, match="top"):
            ranked_oligomers(table, top=-1)


class TestBackground:
    def test_uniform(self):
        bg = MarkovBackground.uniform(DNA)
        assert bg.prob_of("ACGT") == pytest.approx(4.0 ** -4, abs=1e-18)

    def test_probabilities_validated(self):
        with pytest.raises(FirmError):
            MarkovBackground(alphabet=("A", "B"), letter_prob={"A": 0.7, "B": 0.2})

    def test_non_finite_probability_rejected(self):
        with pytest.raises(FirmError, match="letter probabilities must be finite"):
            MarkovBackground(alphabet=("A", "C"), letter_prob={"A": np.nan, "C": 1.0})


class TestHammingBall:
    def test_distance_one_count(self):
        ball = hamming_ball("GATTACA", 1, DNA)
        assert len(ball) == 7 * 3
        assert all(sum(a != b for a, b in zip(z, "GATTACA")) == 1 for z in ball)

    def test_distance_two_count(self):
        ball = hamming_ball("GATTACA", 2, DNA)
        assert len(ball) == math.comb(7, 2) * 9
        assert len(set(ball)) == len(ball)

    def test_distance_zero(self):
        assert hamming_ball("GAT", 0, DNA) == ["GAT"]
