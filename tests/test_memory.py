"""Memory ceilings of the passes that hold full-size arrays.

traced_peak counts what tracemalloc sees, numpy's array buffers included:
the largest amount a call held above what was allocated when it started.
Each ceiling sits below what holding one more full-size temporary would
take, so a change that brings one back fails here.
"""

import tracemalloc

import numpy as np

from firm import KernelExpansionScorer, KernelSpec, TabularDataset, train_kernel_ridge
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


def test_polynomial_gradient_holds_one_full_matrix():
    n = 1000
    rng = np.random.default_rng(3)
    X = rng.normal(size=(n, 5))
    sc = KernelExpansionScorer(points=X, alpha=rng.normal(size=n), b=0.0,
                               kernel=KernelSpec.polynomial(3, 1.0))
    peak, _ = traced_peak(lambda: sc.gradient_many(X))
    assert peak <= 1.2 * 8 * n * n
