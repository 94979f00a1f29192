"""Artifact formatting: the column-wise writer against the per-cell rule."""

import numpy as np
import pytest

from firm import FirmResult, MarkovBackground, PoimTable, poim, ranked_oligomers
from firm import _emit

from helpers import kmer_scorer, rows_tsv

DNA = ("A", "C", "G", "T")
POIM_HEADER = ["k", "position", "oligomer", "q_prime", "q"]


class TestTsv:
    @pytest.mark.parametrize("columns", [
        [np.array([0, -3, 7, 2 ** 40, np.iinfo(np.int64).max, np.iinfo(np.int64).min])],
        [np.arange(5), np.array([-0.0, 1e-05, 1e+16, 5e-324, 0.1])],
        [["a", "b", "c"], [0.1, -0.0, 1.0 / 3.0], [2.5e-300, 1e+22, 123456789.0]],
        [np.array([], dtype=np.int64), [], np.array([])],
    ], ids=["int64", "float-array", "lists-and-str", "zero-rows"])
    def test_matches_per_cell_rule(self, columns):
        header = [f"c{j}" for j in range(len(columns))]
        assert _emit.tsv(header, columns) == rows_tsv(header, zip(*columns))

    @pytest.mark.parametrize("score_sd", [None, 0.3])
    def test_firm_results_match_per_row_rule(self, score_sd):
        results = [FirmResult(feature=f"x{j}", q_signed=q, method="m")
                   for j, q in enumerate([0.7, -1e-05, -0.0, 3.0])]
        scale = 1.0 if score_sd is None else score_sd
        expected = rows_tsv(["feature", "q_signed", "q_abs", "method"],
                            [[r.feature, r.q_signed / scale, r.q_abs / scale, r.method]
                             for r in results])
        assert _emit.firm_results_tsv(results, score_sd=score_sd) == expected


class TestPoimTsv:
    def test_matches_cell_loop_on_random_table(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(16, 6)) * rng.exponential(size=(16, 1))
        values[3, 2] = -0.0
        table = PoimTable(k=2, length=7, alphabet=DNA, values=values,
                          firm_values=values * np.sqrt(15.0))
        rows = []
        for j in range(table.positions):
            for zi in range(table.values.shape[0]):
                rows.append([table.k, j, table.oligomer(zi),
                             table.values[zi, j], table.firm_values[zi, j]])
        assert _emit.poim_tsv(table) == rows_tsv(POIM_HEADER, rows)
        absq = np.abs(table.firm_values)
        assert _emit.poim_summary_tsv(table) == rows_tsv(
            ["position", "max_abs_q", "mean_abs_q"],
            [[j, absq[:, j].max(), absq[:, j].mean()] for j in range(table.positions)])
        ranked = ranked_oligomers(table, top=5)
        assert _emit.poim_top_tsv(ranked) == rows_tsv(
            ["rank", "oligomer", "position", "q"],
            [[r + 1, z, j, q] for r, (z, j, q) in enumerate(ranked)])
        assert _emit.poim_top_tsv([]) == "rank\toligomer\tposition\tq\n"

    def test_literal_text_of_small_scorer(self):
        # dyadic weights: q_prime is exact, q is q_prime times sqrt(3)
        sc = kmer_scorer(DNA, 3, 2, {(0, "A"): 1.0, (1, "CG"): 0.5, (2, "T"): -0.25}, b=0.125)
        table = poim(sc, MarkovBackground.uniform(DNA), k=1)
        assert _emit.poim_tsv(table) == (
            "k\tposition\toligomer\tq_prime\tq\n"
            "1\t0\tA\t0.75\t1.299038105676658\n"
            "1\t0\tC\t-0.25\t-0.4330127018922193\n"
            "1\t0\tG\t-0.25\t-0.4330127018922193\n"
            "1\t0\tT\t-0.25\t-0.4330127018922193\n"
            "1\t1\tA\t-0.03125\t-0.05412658773652741\n"
            "1\t1\tC\t0.09375\t0.16237976320958225\n"
            "1\t1\tG\t-0.03125\t-0.05412658773652741\n"
            "1\t1\tT\t-0.03125\t-0.05412658773652741\n"
            "1\t2\tA\t0.03125\t0.05412658773652741\n"
            "1\t2\tC\t0.03125\t0.05412658773652741\n"
            "1\t2\tG\t0.15625\t0.27063293868263705\n"
            "1\t2\tT\t-0.21875\t-0.3788861141556919\n")
