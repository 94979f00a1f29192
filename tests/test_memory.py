"""Memory ceilings of the passes that hold full-size arrays.

traced_peak counts what tracemalloc sees, numpy's array buffers included:
the largest amount a call held above what was allocated when it started.
Each ceiling sits below what holding one more full-size temporary would
take, so a change that brings one back fails here. firm_slope and
slope_stderr hold a block of a few columns at a time: their ceiling, 0.5 x
8nd at n = 20 000 and d = 50, is half of one n x d copy of F.

tracemalloc does not see the work copies numpy.linalg makes inside LAPACK,
such as the LU factor np.linalg.solve writes over a copy of its matrix, so
a fit's traced peak is the same whatever it holds beside that copy. The
k-mer fit and the least-squares fit are therefore also measured at their
solve's entry: what each still holds when the untraced copy is made.
"""

import tracemalloc

import numpy as np
import pytest

import firm.scoring
from firm import (KernelExpansionScorer, KernelSpec, SequenceDataset, TabularDataset,
                  firm_slope, load_tabular, poim, slope_stderr, train_kernel_ridge,
                  train_least_squares, train_positional_kmer)
from firm import _emit


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


def test_tsv_holds_its_text_about_twice():
    rng = np.random.default_rng(0)
    columns = [rng.normal(size=100_000), rng.normal(size=100_000)]
    peak, text = traced_peak(lambda: _emit.tsv(["a", "b"], columns))
    assert peak <= 2.6 * len(text)


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


def test_least_squares_holds_one_design_at_lstsq(monkeypatch):
    """At lstsq's entry the fit holds its design with the ones column,
    n x (d + 1) (1.02 x 8nd at d = 50), beside data.X; LAPACK's untraced
    copy of it comes on top, so a second copy held here would add to the
    peak that sets the tabular pass."""
    n, d = 20_000, 50
    rng = np.random.default_rng(12)
    X = rng.normal(size=(n, d))
    data = TabularDataset(X=X, y=X @ rng.normal(size=d), names=tuple(f"c{j}" for j in range(d)))
    lstsq, held = np.linalg.lstsq, []

    def probe(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0] - start)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", probe)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        train_least_squares(data)
    finally:
        tracemalloc.stop()
    assert len(held) == 1 and held[0] <= 1.1 * 8 * n * d


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
    assert peak <= 3.0 * len(text)


def test_poim_tsv_formats_a_position_at_a_time():
    """No column as long as the table: the text twice, as the positions'
    texts and their join, and little else. The bytes are those of one tsv
    call over the five full columns."""
    data = random_dna(500, 50, seed=5)
    table = poim(train_positional_kmer(data, K=3, lam=0.1), k=5)
    peak, text = traced_peak(lambda: _emit.poim_tsv(table))
    assert peak <= 2.3 * len(text)
    npos, nz = table.values.shape
    labels = [table.oligomer(zi) for zi in range(nz)]
    assert text == _emit.tsv(["k", "position", "oligomer", "q_prime", "q"],
                             [np.full(nz * npos, table.k), np.repeat(np.arange(npos), nz),
                              labels * npos, table.values.ravel(), table.firm_values.ravel()])
