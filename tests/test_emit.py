"""Artifact formatting: the column-wise writer against the per-cell rule."""

import os
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from firm import (FirmError, FirmResult, PoimTable, PositionalKmerScorer, experiments,
                  poim, ranked_oligomers)
from firm import _emit
from firm.scoring import kmer_offsets

from helpers import (assert_no_children, kmer_scorer, poim_series_tsv_from_q,
                     poim_summary_tsv_from_q, poim_top_tsv_from_q, poim_tsv_from_q,
                     ranked_from_q, rows_tsv, spread_forks)

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

    B = _emit._TSV_ROWS

    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 1],
                             ids=["0", "1", "B-1", "B", "B+1", "2B+1"])
    def test_block_edges_match_per_cell_rule(self, n):
        rng = np.random.default_rng(n)
        columns = [np.arange(n) - 7, rng.normal(size=n), [f"z{i}" for i in range(n)]]
        columns[1][::5] = -0.0
        header = ["int", "float", "str"]
        assert _emit.tsv(header, columns) == rows_tsv(header, zip(*columns))

    @pytest.mark.parametrize("score_sd", [None, 0.3])
    def test_firm_results_match_per_row_rule(self, score_sd):
        results = [FirmResult(feature=f"x{j}", q_signed=q, method="m")
                   for j, q in enumerate([0.7, -1e-05, -0.0, 3.0])]
        scale, q = (1.0, "q") if score_sd is None else (score_sd, "q_tilde")
        expected = rows_tsv(["feature", f"{q}_signed", f"{q}_abs", "method"],
                            [[r.feature, r.q_signed / scale, r.q_abs / scale, r.method]
                             for r in results])
        assert _emit.firm_results_tsv(results, score_sd=score_sd) == expected

    cell = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1),
                     st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1e+22, 0.1]),
                     st.floats(allow_nan=False), st.text("ab{}0 .\u00e9", max_size=4))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(cell, max_size=3), st.integers(0, 9), st.integers(0, 2), st.data())
    def test_constant_leading_columns_match_materialised_ones(self, leading, n, others, data):
        """0-stride leading columns, written once per call as a line prefix,
        give the bytes of the same columns as ordinary arrays, across block
        edges (three rows a block), with or without other columns."""
        if not leading and not others:
            leading = [data.draw(self.cell)]
        columns = [np.broadcast_to(value, n) for value in leading]
        for _ in range(others):
            kind = data.draw(st.sampled_from([st.integers(-9, 9), st.floats(allow_nan=False),
                                              st.text("ab{}", max_size=3)]))
            columns.append(np.array(data.draw(st.lists(kind, min_size=n, max_size=n))))
        header = [f"c{j}" for j in range(len(columns))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_emit, "_TSV_ROWS", 3)
            text = _emit.tsv(header, columns)
            assert text == _emit.tsv(header, [np.array(col) for col in columns])
        assert text == rows_tsv(header, zip(*columns))

    def test_all_constant_columns(self, monkeypatch):
        monkeypatch.setattr(_emit, "_TSV_ROWS", 3)
        columns = [np.broadcast_to(7, 5), np.broadcast_to("{x}", 5), np.broadcast_to(-0.0, 5)]
        assert _emit.tsv(["a", "b", "c"], columns) == "a\tb\tc\n" + "7\t{x}\t-0.0\n" * 5


class TestPoimTsv:
    def test_matches_cell_loop_on_random_table(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(6, 16)) * rng.exponential(size=(1, 16))
        values[2, 3] = -0.0
        table = PoimTable(k=2, length=7, alphabet=DNA, values=values,
                          factor=np.full(16, np.sqrt(15.0)))
        rows = []
        for j in range(table.positions):
            for zi in range(table.values.shape[1]):
                rows.append([table.k, j, table.oligomer(zi),
                             table.values[j, zi], table.firm_values[j, zi]])
        assert _emit.poim_tsv(table) == rows_tsv(POIM_HEADER, rows)
        absq = np.abs(table.firm_values)
        assert _emit.poim_summary_tsv(table) == rows_tsv(
            ["position", "max_abs_q", "mean_abs_q"],
            [[j, absq[j].max(), absq[j].mean()] for j in range(table.positions)])
        ranked = ranked_oligomers(table, top=5)
        assert _emit.poim_top_tsv(ranked) == rows_tsv(
            ["rank", "oligomer", "position", "q"],
            [[r + 1, z, j, q] for r, (z, j, q) in enumerate(ranked)])
        assert _emit.poim_top_tsv([]) == "rank\toligomer\tposition\tq\n"

    def test_literal_text_of_small_scorer(self):
        assert _emit.poim_tsv(small_k1_table()) == SMALL_K1_TEXT


SMALL_K1_TEXT = (
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


def small_k1_table():
    # dyadic weights: q_prime is exact, q is q_prime times sqrt(3)
    return poim(kmer_scorer(DNA, 3, 2, {(0, "A"): 1.0, (1, "CG"): 0.5, (2, "T"): -0.25},
                            b=0.125), k=1)


@st.composite
def skewed_letter_probs(draw):
    """A DNA background with at least two letter probabilities apart, so the
    factor sqrt((1 - p_z) / p_z) differs between oligomers."""
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4))
    assume(max(raw) > 1.5 * min(raw))
    return dict(zip(DNA, (np.array(raw) / sum(raw)).tolist()))


@st.composite
def skewed_tables(draw):
    """poim of a random k-mer scorer, about half its weights zero so cells
    tie, under a skewed background."""
    L = draw(st.integers(3, 8))
    K, k = draw(st.integers(1, 3)), draw(st.integers(1, min(L, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = kmer_offsets(len(DNA), L, K)[-1]
    weights = rng.normal(size=size) * rng.integers(0, 2, size=size)
    scorer = PositionalKmerScorer(alphabet=DNA, length=L, max_degree=K, weights=weights)
    return poim(scorer, k=k, letter_prob=draw(skewed_letter_probs()))


def lines(text):
    """text's lines with their ends, so a failed comparison names the first
    differing line instead of diffing two long strings."""
    return text.splitlines(keepends=True)


class TestPoimArtifactsFromRows:
    """The POIM artifacts take Q a row, a column or a cell at a time; their
    bytes are those of the formulas on the whole firm_values table."""

    def test_no_reader_builds_the_whole_table(self, monkeypatch):
        def whole(table):
            raise AssertionError("firm_values built")

        table = poim(kmer_scorer(DNA, 6, 2, {(1, "CG"): 0.5, (3, "T"): -0.25}), k=3)
        monkeypatch.setattr(PoimTable, "firm_values", property(whole))
        _emit.poim_tsv(table)
        _emit.poim_summary_tsv(table)
        ranked_oligomers(table, top=5)
        experiments.sequence_experiment(seed=0, n_per_class=5, seq_len=8)

    @settings(max_examples=40, deadline=None)
    @given(skewed_tables(), st.integers(0, 40))
    def test_match_the_whole_table_formulas(self, table, top):
        assert np.ptp(table.factor) > 0
        assert lines(_emit.poim_tsv(table)) == lines(poim_tsv_from_q(table))
        assert lines(_emit.poim_summary_tsv(table)) == lines(poim_summary_tsv_from_q(table))
        ranked = ranked_oligomers(table, top=top)
        assert repr(ranked) == repr(ranked_from_q(table, top))
        assert lines(_emit.poim_top_tsv(ranked)) == lines(poim_top_tsv_from_q(table, top))

    @settings(max_examples=5, deadline=None)
    @given(skewed_letter_probs(), st.integers(0, 2 ** 16))
    def test_sequence_study_series_match_the_whole_table_formula(self, letter_prob, seed):
        groups, weight_importance = [], experiments.weight_importance

        def spy(scorer, strings):     # called with the irrelevant, exact, ed1, ed2 strings
            groups.append(list(strings))
            return weight_importance(scorer, strings)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "poim",
                       lambda scorer, k: poim(scorer, k=k, letter_prob=letter_prob))
            mp.setattr(experiments, "weight_importance", spy)
            artifacts, result = experiments.sequence_experiment(seed=seed, n_per_class=10,
                                                                seq_len=9)
        assert np.ptp(result["table"].factor) > 0 and len(groups) == 4
        assert lines(artifacts["poim_series.tsv"]) == lines(
            poim_series_tsv_from_q(result["table"], *groups))


class TestPoimTsvWorkers:
    """poim_tsv spread over forked workers writes the one-worker bytes, and
    no child outlives the call, whether it succeeds or fails. Forks happen
    only in a single-threaded process (one BLAS thread); elsewhere these
    tests check that none happens."""

    @settings(max_examples=10, deadline=None)
    @given(skewed_tables())
    def test_forked_text_equals_one_worker_text(self, table):
        with pytest.MonkeyPatch.context() as mp:
            pids, may_fork = spread_forks(mp, cores=1)
            one = _emit.poim_tsv(table)
            assert pids == []
        with pytest.MonkeyPatch.context() as mp:
            pids, may_fork = spread_forks(mp, cores=3)
            assert lines(_emit.poim_tsv(table)) == lines(one)
        assert len(pids) == (min(3, table.positions) - 1 if may_fork else 0)
        assert_no_children()

    def test_forked_literal_text(self, monkeypatch):
        pids, may_fork = spread_forks(monkeypatch)
        assert _emit.poim_tsv(small_k1_table()) == SMALL_K1_TEXT
        assert len(pids) == (2 if may_fork else 0)
        assert_no_children()

    @pytest.fixture
    def forking(self, monkeypatch):
        """A table of four positions, three workers, and this process's pid."""
        pids, may_fork = spread_forks(monkeypatch)
        if not may_fork:
            pytest.skip("this process runs more than one thread, so poim_tsv does not fork")
        table = poim(kmer_scorer(DNA, 6, 2, {(1, "CG"): 0.5, (3, "T"): -0.25}), k=3)
        return table, pids, os.getpid()

    def test_failing_child_raises_and_is_reaped(self, forking, monkeypatch):
        table, pids, parent = forking
        tsv = _emit.tsv

        def tsv_here_only(*args):
            if os.getpid() != parent:
                raise ValueError("in a child")
            return tsv(*args)

        monkeypatch.setattr(_emit, "tsv", tsv_here_only)
        with pytest.raises(FirmError, match=r"^the process formatting poim\.tsv positions "
                                            r"1 to 1 failed \(exit status 1\)$"):
            _emit.poim_tsv(table)
        assert len(pids) == 2
        assert_no_children()

    @pytest.mark.parametrize("error", [FirmError, KeyboardInterrupt])
    def test_failing_parent_kills_its_children(self, forking, monkeypatch, error):
        table, pids, parent = forking
        tsv = _emit.tsv

        def tsv_in_children_only(*args):
            if os.getpid() == parent:
                raise error("in the parent")
            return tsv(*args)

        monkeypatch.setattr(_emit, "tsv", tsv_in_children_only)
        with pytest.raises(error, match="in the parent"):
            _emit.poim_tsv(table)
        assert len(pids) == 2
        assert_no_children()

    def test_no_fork_beside_another_thread(self, monkeypatch):
        spread_forks(monkeypatch)

        def no_fork():
            raise AssertionError("forked while another thread runs")

        monkeypatch.setattr(os, "fork", no_fork)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            text = _emit.poim_tsv(small_k1_table())
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert text == SMALL_K1_TEXT


class TestWriteArtifacts:
    @pytest.mark.parametrize("bad", ["/abs.tsv", "../up.tsv", "sub/../../up.tsv",
                                     "sub/../a.tsv", "."],
                             ids=["absolute", "parent", "escaping", "repeated", "outdir"])
    def test_bad_path_writes_nothing(self, tmp_path, bad):
        out = tmp_path / "run" / "out"
        with pytest.raises(FirmError, match="leaves the output directory or repeats"):
            _emit.write_artifacts(str(out), {"a.tsv": "x\n", bad: "y\n"})
        assert list(tmp_path.rglob("*")) == []

    def test_nested_paths_inside_outdir(self, tmp_path):
        _emit.write_artifacts(str(tmp_path), {"a.tsv": "x\n", "sub/./b.tsv": "y\n"})
        assert (tmp_path / "sub" / "b.tsv").read_text() == "y\n"

    @pytest.mark.parametrize("chars", [1, 2, 3, 7])
    def test_slices_cut_through_non_ascii_text(self, tmp_path, monkeypatch, chars):
        monkeypatch.setattr(_emit, "_WRITE_CHARS", chars)
        content = "a\t\u00e9\u4e2d\U0001f600\n" * 5 + "\u00e9"
        _emit.write_artifacts(str(tmp_path), {"a.tsv": content, "empty.tsv": ""})
        assert (tmp_path / "a.tsv").read_bytes() == content.encode("utf-8")
        assert (tmp_path / "empty.tsv").read_bytes() == b""
