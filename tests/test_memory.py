"""Memory ceilings of the passes that hold full-size arrays.

traced_peak counts what tracemalloc sees, numpy's array buffers included:
the largest amount a call held above what was allocated when it started.
Each ceiling sits below what holding one more full-size temporary would
take, so a change that brings one back fails here. firm_slope,
slope_stderr, firm_binary_values and sensitivity_index hold a block of a
few columns at a time, and train_least_squares, train_ridge and the
covariance estimates a block of rows: their ceilings, 0.5 x 8nd for the
slope estimators and 0.3 x 8nd for the others at n = 20 000 and d = 50,
are fractions of one n x d copy.

The `tsv` ceiling is near 1.3 x the text: `tsv` grows one str in place,
which holds only while CPython resizes a str that a single local refers
to on `+=`, so that ceiling is the guard that it still does.
`write_artifacts` encodes a slice at a time, well under the text. It
streams `poim_tsv`'s chunks to the file, so the peak while it writes
`poim.tsv`, one worker or three, is held to eight positions' texts and one
pipe read, about 0.23 x the k = 5 text, whatever the table's size; holding
the text, a range of it, or a column as long as the table fails here.
The k-mer fit and `score_many` hold the n x M windows and one block of
_BLOCK_CELLS cells beside them, no n x M float array. `poim` holds no
table: it holds its window contractions, at most M (k + K - 1)
|alphabet|^K cells, and each reader computes Q a row at a time. `ranked_oligomers` and `poim_summary_tsv` are held to 0.1 x the
table's bytes, and the POIM part of `analyze` (`analyze_sequence`) and the
sequence study to 0.25 x, so that building `values` or `firm_values`
whole, or any table-sized array, fails here. `load_tabular`
parses a chunk of whole lines at a time straight into the dataset's X and
y, which the dataset keeps uncopied, so it holds the table once and one
chunk, at most 1.2 x the table's bytes; forked, it reads the children's
feature cells and labels into X and y, at most 1.1 x. A parse child holds
its own rows and one chunk, at most 0.5 x its byte range. Rows are
reserved for no more lines than the bytes can hold, so a wide header over
blank lines stays under 1 MB.

tracemalloc does not see the work copies numpy.linalg makes inside LAPACK,
such as the LU factor np.linalg.solve writes over a copy of its matrix, so
a fit's traced peak is the same whatever it holds beside that copy. The
least-squares fit is therefore also measured by the rows it hands to
LAPACK.
"""

import argparse
import functools
import os
import tracemalloc

import numpy as np
import pytest

import firm.cli
import firm.dataset
import firm.experiments
import firm.scoring
from firm import (BudgetExceededError, DataFormatError, KernelExpansionScorer, KernelSpec,
                  PositionalKmerScorer, SequenceDataset, TabularDataset, empirical_covariance,
                  firm_binary_values, firm_slope, load_tabular, poim, ranked_oligomers,
                  sensitivity_index, shrinkage_covariance, slope_stderr, train_kernel_ridge,
                  train_least_squares, train_positional_kmer, train_ridge)
from firm import _emit

from helpers import spread_forks


def traced_peak(fn):
    """(bytes fn held at its peak above its start, fn's result)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - start, result
    finally:
        tracemalloc.stop()


def test_tsv_holds_its_text_once():
    """The text grows in place, beside one block's scalars and lines (0.3 x
    this 4 MB text; 0.03 x at ten times the rows); chunks kept for a join
    would hold it twice."""
    rng = np.random.default_rng(0)
    columns = [rng.normal(size=100_000), rng.normal(size=100_000)]
    peak, text = traced_peak(lambda: _emit.tsv(["a", "b"], columns))
    assert peak <= 1.4 * len(text)


def test_write_holds_no_encoded_copy(tmp_path):
    """One slice of _WRITE_CHARS characters and its bytes at a time (2 MB
    here); encoding the whole 16 MB text would hold a copy of its size."""
    content = "0.1234567\t-8.9e-05\n" * (2 ** 20 - 2 ** 16)
    peak, _ = traced_peak(lambda: _emit.write_artifacts(str(tmp_path), {"a.tsv": content}))
    assert (tmp_path / "a.tsv").stat().st_size == len(content)
    assert peak <= 0.25 * len(content)


def test_whitespace_line_holds_no_list_of_lines(tmp_path):
    """A whitespace-only line is skipped within its chunk, whose other lines
    still go to loadtxt as one stream: the peak is 1.16 x the table's
    float64 bytes, as without the line. A list of the file's lines (21
    cells of repr text each) would add about 2 x."""
    n, d = 2000, 21
    X = np.random.default_rng(10).normal(size=(n, d))
    path = tmp_path / "d.csv"
    rows = [",".join(map(repr, row.tolist())) for row in X]
    rows.insert(4, " ")
    path.write_text(",".join(f"c{j}" for j in range(d)) + "\n" + "\n".join(rows) + "\n",
                    encoding="utf-8")
    peak, data = traced_peak(lambda: load_tabular(path, has_labels=True))
    assert data.X.tobytes() == X[:, :-1].tobytes()
    assert peak <= 1.2 * X.nbytes


def test_blank_lines_reserve_no_rows(tmp_path):
    """A file's rows are reserved for no more lines than its bytes can hold
    as rows of the header's cells: 26 rows of 1000 cells for 50 000 blank
    lines (55 KB with the header), a 0.29 MB peak before the file is
    refused for having no rows. A row per line was 400 MB."""
    path = tmp_path / "d.csv"
    path.write_text(",".join(f"c{j}" for j in range(1000)) + "\n" * 50_001, encoding="utf-8")

    def refused():
        with pytest.raises(DataFormatError, match=f"^{path}: no data rows$"):
            load_tabular(path)

    peak, _ = traced_peak(refused)
    assert peak <= 2 ** 20


def test_forked_parse_holds_what_one_process_holds(tmp_path, monkeypatch):
    """Over three processes, this one allocates X and y once and reads each
    child's feature cells and labels into them, and holds no range's text:
    its peak is 1.07 x the table's float64 bytes, where holding the parsed
    table and a copy of it would take 2.0 x. In one process X and y are
    allocated once for the file's lines and each chunk's rows are copied
    into them, so the peak is the table and one chunk's text and rows
    (1.16 x), where loadtxt's own array over the whole file took 1.26 x.
    Each way is run once before it is measured."""
    n, d = 2000, 21
    X = np.random.default_rng(15).normal(size=(n, d))
    path = tmp_path / "d.csv"
    path.write_text(",".join(f"c{j}" for j in range(d)) + "\n"
                    + "".join(",".join(map(repr, row)) + "\n" for row in X.tolist()),
                    encoding="utf-8")
    peaks = {}
    for cores in (1, 3, 1, 3):
        with pytest.MonkeyPatch.context() as mp:
            pids, may_fork = spread_forks(mp, cores)
            peaks[cores], data = traced_peak(lambda: load_tabular(path, has_labels=True))
        assert len(pids) == (cores if may_fork and cores > 1 else 0)
        assert data.X.tobytes() == X[:, :-1].tobytes()
        assert data.y.tobytes() == X[:, -1].tobytes()
    assert peaks[1] <= 1.2 * X.nbytes
    assert peaks[3] <= 1.2 * X.nbytes
    if may_fork:
        assert peaks[3] <= 1.1 * X.nbytes


def test_parse_child_holds_no_more_than_its_rows(tmp_path):
    """A child parses its range a chunk at a time into its own X and y and
    sends them as they are. Its peak, over its 9.5 MiB range of 10 000 rows
    of 51 cells (the first half of the benchmark's 20 000-row normal.csv),
    is 0.45 x the range: its rows as float64 (0.42 x) and one chunk's text
    and rows. Reading the range's bytes whole and parsing them in one call
    took 1.47 x."""
    n, d = 10_000, 50
    cells = np.random.default_rng(16).normal(size=(n, d + 1))
    header = ",".join(f"c{j}" for j in range(d)) + ",label\n"
    path = tmp_path / "d.csv"
    path.write_text(header + "".join(",".join(map(repr, row)) + "\n"
                                     for row in cells.tolist()), encoding="utf-8")

    class Counter:
        bytes = 0

        def write(self, b):
            self.bytes += memoryview(b).nbytes

    lo, hi, sink = len(header), path.stat().st_size, Counter()
    fd = os.open(path, os.O_RDONLY)
    try:
        peak, _ = traced_peak(lambda: firm.dataset._send_rows(fd, lo, hi, d, True, sink))
    finally:
        os.close(fd)
    assert sink.bytes == 8 + cells.nbytes
    assert peak <= 0.5 * (hi - lo)


@pytest.mark.parametrize("estimator", [firm_slope, slope_stderr])
def test_slope_estimators_hold_a_few_columns(estimator):
    """A block of 2**16 // n columns (3 at n = 20 000: 0.06 x 8nd) is copied,
    scaled and centered, beside one temporary of its size; one transposed
    copy of all of F would take 1.0 x 8nd."""
    n, d = 20_000, 50
    rng = np.random.default_rng(11)
    F = rng.normal(size=(n, d))
    s = F @ rng.normal(size=d) + rng.normal(size=n)
    peak, _ = traced_peak(lambda: estimator(s, F))
    assert peak <= 0.5 * 8 * n * d


def least_squares_case():
    n, d = 20_000, 50
    rng = np.random.default_rng(12)
    X = rng.normal(size=(n, d))
    return TabularDataset(X=X, y=X @ rng.normal(size=d) + rng.normal(size=n),
                          names=tuple(f"c{j}" for j in range(d)))


def test_least_squares_holds_a_few_rows():
    """The fit centers and QR-factors one block of 2**16 // (d + 1) rows at
    a time (1285 at d = 50: 0.07 x 8nd); a copy of the design with its ones
    column, as lstsq on [X, 1] takes, would be 1.02 x 8nd."""
    data = least_squares_case()
    peak, _ = traced_peak(lambda: train_least_squares(data))
    assert peak <= 0.3 * 8 * data.n * data.d


def test_least_squares_hands_lapack_one_block_of_rows(monkeypatch):
    """LAPACK's work copies, which tracemalloc does not see, are of what qr
    and lstsq are handed: here never more than the running R's d + 1 rows
    and one block."""
    data = least_squares_case()
    n, d = data.n, data.d
    rows = []
    for name in ("qr", "lstsq"):
        def probe(a, *args, _call=getattr(np.linalg, name), **kwargs):
            rows.append(a.shape[0])
            return _call(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, probe)
    train_least_squares(data)
    assert len(rows) == -(-n // (2 ** 16 // (d + 1))) + 1
    assert max(rows) <= 2 ** 16 // (d + 1) + d + 1


@pytest.mark.parametrize("estimate", [
    lambda data: functools.partial(train_ridge, data, 0.1),
    lambda data: functools.partial(empirical_covariance, data),
    lambda data: functools.partial(shrinkage_covariance, data),
    lambda data: functools.partial(sensitivity_index, train_least_squares(data), data),
], ids=["train_ridge", "empirical_covariance", "shrinkage_covariance", "sensitivity_index"])
def test_tabular_estimates_hold_a_few_rows_or_columns(estimate):
    """train_ridge and the covariance estimates sum B'B (and the shrinkage
    variance's (B o B)'(B o B)) over row_blocks of 2**16 // d rows or so;
    sensitivity_index takes np.var over slices of 2**16 // n columns or so.
    Each holds one block and little else, 0.08 to 0.17 x 8nd; centering
    all of X at once, as each did before, took 1.0 x 8nd."""
    data = least_squares_case()
    peak, _ = traced_peak(estimate(data))
    assert peak <= 0.3 * 8 * data.n * data.d


def test_binary_values_hold_a_few_columns():
    """Like the slope estimators, the binary kernel holds one block of
    2**16 // n columns and its masks; the n x d boolean mask as a float64
    copy, as a matrix product of it takes, would be 1.0 x 8nd."""
    n, d = 20_000, 50
    rng = np.random.default_rng(13)
    F = rng.choice([-1.0, 1.0], size=(n, d))
    probs = rng.random(n)
    peak, _ = traced_peak(lambda: firm_binary_values(F @ rng.normal(size=d), F,
                                                     probs=probs / probs.sum()))
    assert peak <= 0.3 * 8 * n * d


def test_gaussian_gram_holds_one_full_matrix():
    n = 1000
    X = np.random.default_rng(1).normal(size=(n, 5))
    peak, _ = traced_peak(lambda: KernelSpec.gaussian(3.0).gram(X, X))
    assert peak <= 1.6 * 8 * n * n


def test_kept_gram_gaussian_gradient_adds_no_full_matrix():
    n = 1000
    X = np.random.default_rng(2).normal(size=(n, 5))
    sc = train_kernel_ridge(TabularDataset(X=X, y=np.sin(X[:, 0]), names=tuple("abcde")),
                            KernelSpec.gaussian(3.0), 0.01)
    peak, _ = traced_peak(lambda: sc.gradient_many(X))
    assert peak <= 0.25 * 8 * n * n


@pytest.mark.parametrize("kernel", [KernelSpec.gaussian(3.0), KernelSpec.polynomial(2, 1.0)],
                         ids=lambda k: k.variant)
def test_kernel_ridge_fit_holds_half_the_gram_matrix(kernel):
    """The fit keeps the lower triangle's row blocks, at most n(n + 64)/2
    cells (0.532 x 8n^2 at n = 1000), and builds each beside one scratch
    block of the Gaussian pass; the full n x n matrix would take 1.0 x 8n^2."""
    n = 1000
    X = np.random.default_rng(7).normal(size=(n, 5))
    data = TabularDataset(X=X, y=np.sin(X[:, 0]) + X[:, 1] * X[:, 2], names=tuple("abcde"))
    peak, _ = traced_peak(lambda: train_kernel_ridge(data, kernel, 0.1))
    assert peak <= 0.56 * 8 * n * n


def test_kernel_ridge_past_the_budget_raises_before_allocating(monkeypatch):
    """Past the cell budget the fit raises before the kept triangle's buffer
    exists, holding well under 1% of the n x n matrix."""
    n = 1000
    X = np.random.default_rng(10).normal(size=(n, 5))
    data = TabularDataset(X=X, y=np.sin(X[:, 0]), names=tuple("abcde"))
    monkeypatch.setattr(firm.scoring, "DEFAULT_CELL_BUDGET", n * n // 4)

    def fit():
        with pytest.raises(BudgetExceededError, match=f"{n} rows needs"):
            train_kernel_ridge(data, KernelSpec.gaussian(3.0), 0.1)

    peak, _ = traced_peak(fit)
    assert peak <= 0.01 * 8 * n * n


def test_lu_fallback_releases_its_assembled_matrix():
    """An ill-conditioned system takes LU on the assembled n x n matrix,
    which is gone when the solve returns; only the answer is still held."""
    n = 1000
    X = np.random.default_rng(8).normal(size=(n, 5))
    P = KernelSpec.gaussian(1.0).self_gram(X)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        x = firm.scoring._solve_shifted(P, 1e-12 * n, np.sin(X[:, 0]))
        held, peak = (m - start for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak >= 8 * n * n and held <= 2 * x.nbytes


def test_dual_gram_blocks_are_one_allocation(monkeypatch):
    """The kernel fit hands the solve blocks that are views of one buffer,
    freed as a whole: allocated one at a time they stayed resident after
    the fit and added to a later run's peak."""
    solve, held = firm.scoring._solve_shifted, []

    def probe(P, *args):
        held.append({id(blk.base) for blk in P.blocks if blk.base is not None})
        return solve(P, *args)

    monkeypatch.setattr(firm.scoring, "_solve_shifted", probe)
    X = np.random.default_rng(9).normal(size=(600, 3))
    train_kernel_ridge(TabularDataset(X=X, y=X[:, 0], names=tuple("abc")),
                       KernelSpec.gaussian(1.0), 0.1)
    assert [len(bases) for bases in held] == [1]


def test_polynomial_gradient_holds_one_full_matrix():
    n = 1000
    rng = np.random.default_rng(3)
    X = rng.normal(size=(n, 5))
    sc = KernelExpansionScorer(points=X, alpha=rng.normal(size=n), b=0.0,
                               kernel=KernelSpec.polynomial(3, 1.0))
    peak, _ = traced_peak(lambda: sc.gradient_many(X))
    assert peak <= 1.2 * 8 * n * n


def random_dna(n, length, seed):
    rng = np.random.default_rng(seed)
    seqs = ["".join(row) for row in rng.choice(list("ACGT"), size=(n, length))]
    return SequenceDataset(sequences=tuple(seqs), y=rng.choice([-1.0, 1.0], size=n))


@pytest.mark.parametrize("n", [1000, 2000])
def test_kmer_fit_holds_the_windows_and_one_block(n):
    """The primal fit holds the n x M top-degree windows (M = 98 windows per
    sequence here, of P = 297 substrings) and one block of _BLOCK_CELLS
    cells of each product: 0.61 x 8nP traced at n = 1000 and 0.47 x at
    2000, the rest being vectors of the weights' length. An n x M float
    temporary beside the windows (0.88 and 0.77 x), or the n x P substring
    ids the fit held before, would not fit under the bound."""
    data = random_dna(n, 100, seed=4)
    P = 100 + 99 + 98
    peak, _ = traced_peak(lambda: train_positional_kmer(data, K=3, lam=0.1))
    assert peak <= 0.7 * 8 * n * P


def test_kmer_fit_builds_no_one_hot_design():
    """The fit's peak, 0.61 x 8nP for P = 297 substrings per sequence, is
    0.18 x 8n^2 at n = 1000; a one-hot design (1.02 x 8n^2 for 2048
    float32 columns) or an n x n matrix would not fit under the bound."""
    n = 1000
    data = random_dna(n, 100, seed=4)
    peak, _ = traced_peak(lambda: train_positional_kmer(data, K=3, lam=0.1))
    assert peak <= 0.3 * 8 * n * n


def test_kmer_scores_hold_the_windows_and_one_block():
    """score_many holds the n x M windows (M = 98) and one block of
    _BLOCK_CELLS cells of the gathered table: 1.17 x 8nM traced at
    n = 2000. Gathering all n x M cells at once (2.03 x) fails here."""
    n, M = 2000, 98
    data = random_dna(n, 100, seed=4)
    rng = np.random.default_rng(6)
    scorer = PositionalKmerScorer(alphabet=firm.dataset.DNA_ALPHABET, length=100, max_degree=3,
                                  weights=rng.normal(size=firm.scoring.kmer_offsets(4, 100, 3)[-1]))
    peak, _ = traced_peak(lambda: scorer.score_many(data.sequences))
    assert peak <= 1.5 * 8 * n * M


def streamed_peak(table, out):
    """(the traced peak while write_artifacts streams poim.tsv of table to
    out, the file's text), and the ceiling on that peak: eight positions'
    texts, on average, and one pipe read."""
    peak, _ = traced_peak(lambda: _emit.write_artifacts(
        str(out), {}, {"poim.tsv": _emit.poim_tsv(table)}))
    text = (out / "poim.tsv").read_bytes().decode("utf-8")
    return peak, text, 8 * len(text) / table.positions + _emit._PIPE_BYTES


@pytest.fixture(scope="module")
def k5_table():
    """A k = 5 table over 46 positions: a 2.37 MB text, 51.5 kB a position."""
    return poim(train_positional_kmer(random_dna(500, 50, seed=5), K=3, lam=0.1), k=5)


def test_poim_tsv_makes_no_fixed_width_label_column(k5_table, tmp_path):
    """One worker's peak is 0.16 x the text, 7.2 positions' texts: a
    position's text, its lines and its scalars, and the nz labels. A
    fixed-width label column as long as the table would take 0.40 x."""
    peak, text, ceiling = streamed_peak(k5_table, tmp_path)
    assert text.count("\n") == 1 + 46 * 4 ** 5
    assert peak <= ceiling


def test_poim_tsv_formats_a_position_at_a_time(k5_table, tmp_path):
    """No column as long as the table, no full Q table and no text of more
    than a position is held. The bytes are those of one tsv call over the
    five full columns."""
    table = k5_table
    peak, text, ceiling = streamed_peak(table, tmp_path)
    assert peak <= ceiling
    npos, nz = table.values.shape
    labels = [table.oligomer(zi) for zi in range(nz)]
    assert text == _emit.tsv(["k", "position", "oligomer", "q_prime", "q"],
                             [np.full(nz * npos, table.k), np.repeat(np.arange(npos), nz),
                              labels * npos, table.values.ravel(), table.firm_values.ravel()])


def test_forked_poim_tsv_streams_a_pipe_read_at_a_time(k5_table, tmp_path, monkeypatch):
    """Over three processes, this one holds a position's text while it
    streams its own range, then one pipe read of a child's bytes at a time:
    0.16 x the text, 7.4 positions' texts, where holding its range's text
    would take 0.33 x and a child's range 0.33 x more."""
    pids, may_fork = spread_forks(monkeypatch)
    peak, text, ceiling = streamed_peak(k5_table, tmp_path)
    assert len(pids) == (2 if may_fork else 0)
    assert text.count("\n") == 1 + 46 * 4 ** 5
    assert peak <= ceiling


@pytest.fixture(scope="module")
def poim_case():
    """A k = 6 table over 45 positions (1.5 MB), the benchmark's k."""
    scorer = train_positional_kmer(random_dna(500, 50, seed=5), K=3, lam=0.1)
    return scorer, poim(scorer, k=6)


def test_ranked_oligomers_hold_a_row_at_a_time(poim_case):
    """Q is computed a row (1/45 of the table) at a time, and each row freed
    once its candidates are kept: 0.086 x the table, a row, its |Q| and its
    partition. Taking |Q| whole would hold one table, and partitioning it a
    second."""
    _, table = poim_case
    peak, _ = traced_peak(lambda: ranked_oligomers(table, top=20))
    assert peak <= 0.1 * table.values.nbytes


def test_poim_summary_holds_a_row_at_a_time(poim_case):
    """|Q| a row at a time, computed and scaled in place: 0.069 x the table.
    np.abs of the whole table would hold one."""
    _, table = poim_case
    peak, _ = traced_peak(lambda: _emit.poim_summary_tsv(table))
    assert peak <= 0.1 * table.values.nbytes


def test_poim_holds_its_window_contractions(poim_case):
    """poim holds one term per offset, M x |alphabet|^overlap cells, so at
    most M (k + K - 1) |alphabet|^K cells whatever k: 17 280 cells at k = 7,
    where the table has 720 896. Its peak, 2.6 x that bound at k = 7, is the
    terms twice (the table copies what poim built) and the factor twice; a
    table-sized array would be 26 times the bound."""
    scorer, _ = poim_case
    A, K = len(scorer.alphabet), scorer.max_degree
    M = scorer.length - K + 1
    for k in (3, 7):
        bound = M * (k + K - 1) * A ** K
        peak, table = traced_peak(lambda: poim(scorer, k=k))
        assert sum(cells.size for _, cells in table.terms) <= bound
        assert peak <= 8 * 2 * bound + 3 * table.factor.nbytes


def test_poim_passes_hold_under_a_quarter_table(tmp_path):
    """`analyze --method poim`'s computation (analyze_sequence, before
    poim.tsv streams) and the sequence study hold rows of Q, never the
    table: with k = 7 on 100 sequences of length 50, a 5.8 MB table, their
    traced peaks are 0.13 and 0.18 x its bytes, the fit's arrays, a few rows
    and the study's strings x positions columns."""
    data = random_dna(100, 50, seed=5)
    path = tmp_path / "s.tsv"
    path.write_text("".join(f"{s}\t{y:+.0f}\n" for s, y in zip(data.sequences, data.y)),
                    encoding="utf-8")
    args = argparse.Namespace(input=str(path), degree=3, lam=0.1, k=7, top=20)
    peak, artifacts = traced_peak(lambda: firm.cli.analyze_sequence(args))
    artifacts["poim.tsv"].close()
    assert peak <= 0.25 * 8 * 44 * 4 ** 7
    peak, (_, result) = traced_peak(lambda: firm.experiments.sequence_experiment(
        seed=0, n_per_class=50, seq_len=50))
    table = result["table"]
    assert table.positions * table.factor.size == 44 * 4 ** 7
    assert peak <= 0.25 * 8 * 44 * 4 ** 7
