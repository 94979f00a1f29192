"""Positional oligomer importance: enumeration oracle, scaling, ranking."""

import math
from itertools import product

import numpy as np
import pytest

from firm import (BudgetExceededError, FirmError, PoimTable, hamming_ball, poim,
                  ranked_oligomers)
from firm import experiments

from helpers import (enum_conditional_score, enum_expected_score, expected_score,
                     kmer_scorer, kmer_weight, poim_firm_conversion, string_prob,
                     uniform_probs)


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


def conditional_expected_score(scorer, z, j, letter_prob=None):
    """E[s | X[j..j+|z|) = z]: the closed-form E[s] (an oracle in helpers)
    plus the package's poim cell for z at j."""
    table = poim(scorer, k=len(z), letter_prob=letter_prob)
    return expected_score(scorer, letter_prob) + float(table.values[j, table.oligomer_index(z)])


class TestExpectedScore:
    def test_single_trimer_uniform(self):
        sc = kmer_scorer(DNA, 4, 3, {(0, "GAT"): 1.0}, b=0.0)
        assert expected_score(sc) == pytest.approx(1.0 / 64.0, abs=1e-15)
        enum = enum_expected_score(sc, DNA, 4, uniform_probs(DNA))
        assert expected_score(sc) == pytest.approx(enum, abs=1e-12)

    def test_zero_weights_give_bias(self):
        sc = kmer_scorer(DNA, 3, 1, {}, b=2.5)
        assert expected_score(sc) == 2.5

    def test_disjoint_weights_add(self):
        w1 = kmer_scorer(DNA, 6, 2, {(0, "GA"): 1.0}, b=0.0)
        w2 = kmer_scorer(DNA, 6, 2, {(4, "TC"): -2.0}, b=0.0)
        both = kmer_scorer(DNA, 6, 2, {(0, "GA"): 1.0, (4, "TC"): -2.0}, b=0.7)
        assert expected_score(both) == pytest.approx(
            expected_score(w1) + expected_score(w2) + 0.7, abs=1e-15)


class TestConditionalExpectedScore:
    def test_full_overlap_exact_match(self):
        sc = kmer_scorer(DNA, 5, 3, {(0, "GAT"): 1.0}, b=0.25)
        assert conditional_expected_score(sc, "GAT", 0) == pytest.approx(1.25, abs=1e-15)

    def test_shifted_window_conflicts(self):
        # weight GAT at 0 vs conditioning GAT at 1: overlap needs "AT" == "GA"
        sc = kmer_scorer(DNA, 5, 3, {(0, "GAT"): 1.0}, b=0.25)
        got = conditional_expected_score(sc, "GAT", 1)
        assert got == pytest.approx(0.25, abs=1e-15)
        enum = enum_conditional_score(sc, DNA, 5, uniform_probs(DNA), "GAT", 1)
        assert got == pytest.approx(enum, abs=1e-12)

    def test_whole_sequence_window_is_the_score(self):
        rng = np.random.default_rng(0)
        sc = random_sparse_scorer(rng, DNA, 5, 3, 10)
        z = "GATTC"
        assert conditional_expected_score(sc, z, 0) == pytest.approx(
            sc.score_many([z])[0], rel=1e-12)

    def test_out_of_range_window(self):
        """A length-3 window fits at positions 0 and 1 of length 4 only, and
        a window longer than the sequence is refused."""
        sc = kmer_scorer(DNA, 4, 1, {}, b=0.0)
        assert poim(sc, k=3).positions == 2
        with pytest.raises(FirmError, match=r"k must lie in \[1, 4\]"):
            poim(sc, k=5)

    @pytest.mark.parametrize("alphabet,L,seed",
                             [(("0", "1"), 6, 61), (DNA, 4, 44), (DNA, 5, 45)],
                             ids=["alphabet0-6", "alphabet1-4", "alphabet2-5"])
    def test_enumeration_oracle_random_scorers(self, alphabet, L, seed):
        rng = np.random.default_rng(seed)
        probs = uniform_probs(alphabet)
        for trial in range(3):
            sc = random_sparse_scorer(rng, alphabet, L, min(3, L), 8)
            escore = expected_score(sc)
            enum = enum_expected_score(sc, alphabet, L, probs)
            assert escore == pytest.approx(enum, abs=1e-12)
            for _ in range(4):
                k = int(rng.integers(1, L + 1))
                j = int(rng.integers(0, L - k + 1))
                z = "".join(rng.choice(alphabet, size=k))
                got = conditional_expected_score(sc, z, j)
                want = enum_conditional_score(sc, alphabet, L, probs, z, j)
                assert got == pytest.approx(want, abs=1e-12)

    def test_nonuniform_background_oracle(self):
        alphabet = ("A", "C", "G", "T")
        probs = {"A": 0.4, "C": 0.3, "G": 0.2, "T": 0.1}
        rng = np.random.default_rng(5)
        sc = random_sparse_scorer(rng, alphabet, 4, 2, 6)
        enum = enum_expected_score(sc, alphabet, 4, probs)
        assert expected_score(sc, probs) == pytest.approx(enum, abs=1e-12)
        got = conditional_expected_score(sc, "CT", 1, probs)
        want = enum_conditional_score(sc, alphabet, 4, probs, "CT", 1)
        assert got == pytest.approx(want, abs=1e-12)


class TestPoimTable:
    def test_cells_match_direct_computation(self):
        rng = np.random.default_rng(1)
        sc = random_sparse_scorer(rng, DNA, 6, 3, 12)
        table = poim(sc, k=2)
        enum_base = enum_expected_score(sc, DNA, 6, uniform_probs(DNA))
        for j in range(table.positions):
            for zi in range(16):
                z = table.oligomer(zi)
                enum = enum_conditional_score(sc, DNA, 6, uniform_probs(DNA), z, j) - enum_base
                assert table.values[j, zi] == pytest.approx(enum, abs=1e-12)

    def test_degree_one_uniform_identity(self):
        """For a scorer with only single-letter weights, the k=1 entry is
        the weight minus the positional mean weight."""
        rng = np.random.default_rng(2)
        L = 5
        weights = {(i, a): float(rng.normal()) for i in range(L) for a in DNA}
        sc = kmer_scorer(DNA, L, 1, weights, b=0.3)
        table = poim(sc, k=1)
        for j in range(L):
            mean_w = np.mean([weights[(j, a)] for a in DNA])
            for a in DNA:
                assert table.values[j, table.oligomer_index(a)] == pytest.approx(
                    weights[(j, a)] - mean_w, abs=1e-12)

    def test_zero_scorer_gives_zero_table(self):
        sc = kmer_scorer(DNA, 4, 2, {}, b=1.0)
        table = poim(sc, k=2)
        np.testing.assert_array_equal(table.values, 0.0)
        np.testing.assert_array_equal(table.firm_values, 0.0)

    def test_zero_mean_property(self):
        rng = np.random.default_rng(3)
        probs = {"A": 0.4, "C": 0.3, "G": 0.2, "T": 0.1}
        sc = random_sparse_scorer(rng, DNA, 6, 3, 15)
        for k in (1, 2, 3):
            table = poim(sc, k=k, letter_prob=probs)
            p_z = np.array([string_prob(probs, table.oligomer(zi))
                            for zi in range(len(DNA) ** k)])
            resid = table.values @ p_z
            np.testing.assert_allclose(resid, np.zeros(table.positions), atol=1e-9)

    def test_firm_scaling_matches_conversion(self):
        """Per cell, also where the factor differs between oligomers."""
        rng = np.random.default_rng(4)
        sc = random_sparse_scorer(rng, DNA, 5, 2, 8)
        skewed = {"A": 0.4, "C": 0.3, "G": 0.2, "T": 0.1}
        for probs in (uniform_probs(DNA), skewed):
            table = poim(sc, k=3, letter_prob=probs)
            for zi in range(len(DNA) ** 3):
                z = table.oligomer(zi)
                for j in range(table.positions):
                    want = poim_firm_conversion(table.values[j, zi], string_prob(probs, z))
                    assert table.firm_values[j, zi] == pytest.approx(want, rel=1e-12)

    def test_uniform_scaling_preserves_within_slice_ranking(self):
        rng = np.random.default_rng(5)
        sc = random_sparse_scorer(rng, DNA, 6, 3, 20)
        table = poim(sc, k=2)
        for j in range(table.positions):
            raw = np.argsort(-np.abs(table.values[j]), kind="stable")
            scaled = np.argsort(-np.abs(table.firm_values[j]), kind="stable")
            np.testing.assert_array_equal(raw, scaled)

    def test_k_may_exceed_scorer_degree(self):
        sc = kmer_scorer(DNA, 6, 1, {(2, "G"): 1.0}, b=0.0)
        table = poim(sc, k=3)
        # conditioning on a trimer covering position 2 pins the weight
        assert table.values[1, table.oligomer_index("AGA")] == pytest.approx(1.0 - 0.25,
                                                                           abs=1e-12)

    def test_mapping_order_does_not_matter(self):
        rng = np.random.default_rng(6)
        sc = random_sparse_scorer(rng, DNA, 5, 3, 15)
        probs = {"A": 0.4, "C": 0.3, "G": 0.2, "T": 0.1}
        table = poim(sc, k=2, letter_prob=probs)
        reordered = poim(sc, k=2, letter_prob={a: probs[a] for a in ("T", "G", "A", "C")})
        assert reordered.alphabet == table.alphabet == sc.alphabet
        assert reordered.values.tobytes() == table.values.tobytes()
        assert reordered.factor.tobytes() == table.factor.tobytes()

    def test_default_is_uniform_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for alphabet in (("0", "1"), DNA):
            sc = random_sparse_scorer(rng, alphabet, 6, 3, 15)
            probs = uniform_probs(alphabet)
            default, explicit = poim(sc, k=3), poim(sc, k=3, letter_prob=probs)
            assert default.values.tobytes() == explicit.values.tobytes()
            assert default.factor.tobytes() == explicit.factor.tobytes()

    @pytest.mark.parametrize("index", [-1, 16])
    def test_oligomer_outside_the_table_refused(self, index):
        table = PoimTable(k=2, length=3, alphabet=DNA, values=np.zeros((2, 16)),
                          factor=np.ones(16))
        assert table.oligomer(15) == "TT"
        with pytest.raises(FirmError, match=rf"oligomer index {index} is outside \[0, 16\)"):
            table.oligomer(index)

    def test_unknown_symbol_names_the_oligomer(self):
        table = PoimTable(k=2, length=3, alphabet=DNA, values=np.zeros((2, 16)),
                          factor=np.ones(16))
        with pytest.raises(FirmError) as exc:
            table.oligomer_index("AX")
        assert str(exc.value) == "oligomer 'AX' has symbol 'X', not in the alphabet ACGT"

    def test_table_never_aliases_the_callers_arrays(self):
        values, factor = np.arange(32.0).reshape(2, 16), np.ones(16)
        table = PoimTable(k=2, length=3, alphabet=DNA, values=values, factor=factor)
        values[1, 3], factor[0] = -7.0, 9.0
        assert table.values[1, 3] == 19.0 and table.factor[0] == 1.0
        assert not table.values.flags.writeable and not table.factor.flags.writeable

    def test_poim_returns_a_frozen_table_it_owns(self):
        table = poim(kmer_scorer(DNA, 4, 2, {(1, "CG"): 0.5}), k=2)
        for a in (table.values, table.factor):
            assert a.flags.owndata and not a.flags.writeable

    def test_budget_guard(self):
        sc = kmer_scorer(DNA, 20, 1, {(0, "A"): 1.0}, b=0.0)
        with pytest.raises(BudgetExceededError, match="cells"):
            poim(sc, k=12)


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
        table = poim(sc, k=2)
        top = ranked_oligomers(table, top=3)
        assert top[0][0] == "GA" and top[0][1] == 1

    def test_zero_table_deterministic_order(self):
        sc = kmer_scorer(DNA, 4, 2, {}, b=0.0)
        table = poim(sc, k=2)
        top1 = ranked_oligomers(table, top=10)
        top2 = ranked_oligomers(table, top=10)
        assert top1 == top2
        assert top1[0] == ("AA", 0, 0.0)
        assert [t[:2] for t in top1[:5]] == [("AA", 0), ("AC", 0), ("AG", 0),
                                             ("AT", 0), ("CA", 0)]

    def test_tie_break_by_position_then_oligomer(self):
        sc = kmer_scorer(DNA, 4, 1, {(0, "C"): 1.0, (2, "C"): 1.0}, b=0.0)
        table = poim(sc, k=1)
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
        table = poim(kmer_scorer(DNA, 4, 1, {(0, "C"): 1.0}, b=0.0), k=1)
        with pytest.raises(FirmError, match="top"):
            ranked_oligomers(table, top=-1)


class TestLetterProbabilities:
    @pytest.mark.parametrize("probs,message", [
        ({"A": 0.5, "C": 0.25, "G": 0.25}, "cover the scorer's alphabet exactly"),
        ({"A": 0.25, "C": 0.25, "G": 0.25, "T": 0.25, "N": 0.0},
         "cover the scorer's alphabet exactly"),
        ({"A": np.nan, "C": 0.25, "G": 0.25, "T": 0.5}, "finite and positive"),
        ({"A": 0.0, "C": 0.25, "G": 0.25, "T": 0.5}, "finite and positive"),
        ({"A": 0.7, "C": 0.1, "G": 0.1, "T": 0.2}, "sum to 1"),
    ], ids=["missing-letter", "extra-letter", "nan", "zero", "sum-not-1"])
    def test_invalid_mapping_rejected(self, probs, message):
        sc = kmer_scorer(DNA, 4, 2, {(1, "GA"): 2.0})
        with pytest.raises(FirmError, match=message):
            poim(sc, k=2, letter_prob=probs)


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

    def test_negative_distance_refused(self):
        with pytest.raises(FirmError, match=r"^Hamming distance must be >= 0, got -1$"):
            hamming_ball("ACG", -1, DNA)
