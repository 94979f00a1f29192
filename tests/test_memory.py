"""Memory ceilings of the passes that hold full-size arrays.

traced_peak counts what tracemalloc sees, numpy's array buffers included:
the largest amount a call held above what was allocated when it started.
Each ceiling sits below what holding one more full-size temporary would
take, so a change that brings one back fails here. firm_slope,
slope_stderr and firm_binary_values hold a block of a few columns at a
time, and train_least_squares a block of rows: their ceilings, 0.5 x 8nd
for the slope estimators and 0.3 x 8nd for the others at n = 20 000 and
d = 50, are fractions of one n x d copy.

The emit ceilings are near 1.3 x the text: `tsv` and `poim_tsv` grow one
str in place, which holds only while CPython resizes a str that a single
local refers to on `+=`, so these ceilings are the guard that it still
does. `write_artifacts` encodes a slice at a time, well under the text.
The POIM readers of Q (`ranked_oligomers`, `poim_summary_tsv`) and `poim`
itself are bounded in multiples of the table's bytes, so that building
`firm_values` whole, a boolean mask's copy, or a second table in `poim`,
fails here. Forked `poim_tsv` is held to the same 1.3 x its text: the
children's texts are appended a pipe read at a time. A forked
`load_tabular` reads the children's rows into the one result, so it holds
no more than the one-process parse.

tracemalloc does not see the work copies numpy.linalg makes inside LAPACK,
such as the LU factor np.linalg.solve writes over a copy of its matrix, so
a fit's traced peak is the same whatever it holds beside that copy. The
k-mer fit is therefore also measured at its solve's entry, and the
least-squares fit by the rows it hands to LAPACK.
"""

import tracemalloc

import numpy as np
import pytest

import firm.scoring
import firm.sequence
from firm import (KernelExpansionScorer, KernelSpec, SequenceDataset, TabularDataset,
                  firm_binary_values, firm_slope, load_tabular, poim, ranked_oligomers,
                  slope_stderr, train_kernel_ridge, train_least_squares,
                  train_positional_kmer)
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


def test_second_reading_holds_no_list_of_lines(tmp_path):
    """A whitespace-only line fails the first loadtxt call, so the file is
    read again; that reading streams its lines to loadtxt. The table and
    the dataset's copies of it come to about 2.1 x its float64 bytes; a
    list of the lines (21 cells of repr text each) would add about 2 x."""
    n, d = 2000, 21
    X = np.random.default_rng(10).normal(size=(n, d))
    path = tmp_path / "d.csv"
    rows = [",".join(map(repr, row.tolist())) for row in X]
    rows.insert(4, " ")
    path.write_text(",".join(f"c{j}" for j in range(d)) + "\n" + "\n".join(rows) + "\n",
                    encoding="utf-8")
    peak, data = traced_peak(lambda: load_tabular(path, has_labels=True))
    assert data.X.tobytes() == X[:, :-1].tobytes()
    assert peak <= 2.5 * X.nbytes


def test_forked_parse_holds_what_one_process_holds(tmp_path, monkeypatch):
    """Over three processes, this one allocates the n x d result once and
    reads each child's rows into it, and holds no range's text. Its peak,
    the result and the dataset's copies of X and y (about 2.1 x the table's
    float64 bytes), is at most that of the one-process parse of the same
    file, to within 1 KiB of interpreter bookkeeping that moves between
    calls. Each way is run once before it is measured."""
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
    assert peaks[3] <= peaks[1] + 1024
    assert peaks[3] <= 2.2 * X.nbytes


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
    """The fit keeps the lower triangle's row blocks, n(n + 256)/2 cells
    (0.625 x 8n^2 at n = 1000), and builds each beside two temporaries of
    one Gaussian pass; the full n x n matrix would take 1.0 x 8n^2."""
    n = 1000
    X = np.random.default_rng(7).normal(size=(n, 5))
    data = TabularDataset(X=X, y=np.sin(X[:, 0]) + X[:, 1] * X[:, 2], names=tuple("abcde"))
    peak, _ = traced_peak(lambda: train_kernel_ridge(data, kernel, 0.1))
    assert peak <= 0.7 * 8 * n * n


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
    """Both dual fits hand the solve blocks that are views of one buffer,
    freed as a whole: allocated one at a time they stayed resident after
    the k-mer fit at n = 2000 and added 16 MB to a later POIM run's peak."""
    solve, held = firm.scoring._solve_shifted, []

    def probe(P, *args):
        held.append({id(blk.base) for blk in P.blocks if blk.base is not None})
        return solve(P, *args)

    monkeypatch.setattr(firm.scoring, "_solve_shifted", probe)
    X = np.random.default_rng(9).normal(size=(600, 3))
    train_kernel_ridge(TabularDataset(X=X, y=X[:, 0], names=tuple("abc")),
                       KernelSpec.gaussian(1.0), 0.1)
    train_positional_kmer(random_dna(600, 20, seed=9), K=2, lam=0.1)
    assert [len(bases) for bases in held] == [1, 1]


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


def test_kmer_fit_holds_only_the_gram_matrix_at_the_solve(monkeypatch):
    """Only the Gram matrix's blocks (0.625 x 8n^2) and a few vectors are
    held when the dual solve is entered; the substring ids come after it."""
    n = 1000
    data = random_dna(n, 100, seed=4)
    solve, held = firm.scoring._solve_shifted, []

    def probe(*args):
        held.append(tracemalloc.get_traced_memory()[0] - start)
        return solve(*args)

    monkeypatch.setattr(firm.scoring, "_solve_shifted", probe)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        train_positional_kmer(data, K=3, lam=0.1)
    finally:
        tracemalloc.stop()
    assert len(held) == 1 and held[0] <= 1.1 * 8 * n * n


def test_kmer_fit_builds_no_one_hot_design():
    """The fit holds the Gram matrix's blocks (0.625 x 8n^2) plus one
    chunk's bit-count temporaries, and after the solve the substring ids;
    a one-hot design (1.02 x 8n^2 for 2048 float32 columns) or a second
    n x n matrix would not fit under the bound."""
    n = 1000
    data = random_dna(n, 100, seed=4)
    peak, _ = traced_peak(lambda: train_positional_kmer(data, K=3, lam=0.1))
    assert peak <= 1.2 * 8 * n * n


def test_poim_tsv_makes_no_fixed_width_label_column():
    data = random_dna(500, 50, seed=5)
    table = poim(train_positional_kmer(data, K=3, lam=0.1), k=5)
    peak, text = traced_peak(lambda: _emit.poim_tsv(table))
    assert text.count("\n") == 1 + 46 * 4 ** 5
    assert peak <= 1.3 * len(text)


def test_poim_tsv_formats_a_position_at_a_time():
    """No column as long as the table and no full Q table: the text once,
    grown in place by each position's text, and little else. The bytes are
    those of one tsv call over the five full columns."""
    data = random_dna(500, 50, seed=5)
    table = poim(train_positional_kmer(data, K=3, lam=0.1), k=5)
    peak, text = traced_peak(lambda: _emit.poim_tsv(table))
    assert peak <= 1.3 * len(text)
    npos, nz = table.values.shape
    labels = [table.oligomer(zi) for zi in range(nz)]
    assert text == _emit.tsv(["k", "position", "oligomer", "q_prime", "q"],
                             [np.full(nz * npos, table.k), np.repeat(np.arange(npos), nz),
                              labels * npos, table.values.ravel(), table.firm_values.ravel()])


def test_forked_poim_tsv_holds_its_text_once(monkeypatch):
    """Over three processes, this one holds the text, grown in place by its
    own positions and then by each child's text as read from its pipe, a
    few pieces of _PIPE_CHARS characters at a time."""
    data = random_dna(500, 50, seed=5)
    table = poim(train_positional_kmer(data, K=3, lam=0.1), k=5)
    pids, may_fork = spread_forks(monkeypatch)
    peak, text = traced_peak(lambda: _emit.poim_tsv(table))
    assert len(pids) == (2 if may_fork else 0)
    assert text.count("\n") == 1 + 46 * 4 ** 5
    assert peak <= 1.3 * len(text)


@pytest.fixture(scope="module")
def poim_case():
    """A k = 6 table over 45 positions (1.5 MB), the benchmark's k."""
    scorer = train_positional_kmer(random_dna(500, 50, seed=5), K=3, lam=0.1)
    return scorer, poim(scorer, k=6)


def test_ranked_oligomers_hold_two_tables(poim_case):
    """|Q| is scaled in place and partitioned in a copy: two tables. Taking
    firm_values first would hold a third."""
    _, table = poim_case
    peak, _ = traced_peak(lambda: ranked_oligomers(table, top=20))
    assert peak <= 2.2 * table.values.nbytes


def test_poim_summary_holds_one_table(poim_case):
    """Only |Q|, scaled in place; np.abs of firm_values would hold two tables."""
    _, table = poim_case
    peak, _ = traced_peak(lambda: _emit.poim_summary_tsv(table))
    assert peak <= 1.2 * table.values.nbytes


def test_poim_holds_its_output_and_one_table(poim_case, monkeypatch):
    """The PoimTable is made first, from 0-stride zeros it copies into the
    one table, and each offset adds into a slice of that table in place (a
    boolean mask's copy, or a table built beside the PoimTable's copy,
    would be a second table). The peak is the output and a few oligomer
    vectors."""
    scorer, table = poim_case
    make, held = firm.sequence.PoimTable, []

    def probe(**fields):
        held.append(tracemalloc.get_traced_memory()[1] - start)
        return make(**fields)

    monkeypatch.setattr(firm.sequence, "PoimTable", probe)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fresh = poim(scorer, k=6)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert fresh.values.tobytes() == table.values.tobytes()
    assert len(held) == 1 and held[0] <= 4 * table.factor.nbytes
    assert peak <= table.values.nbytes + 6 * table.factor.nbytes
