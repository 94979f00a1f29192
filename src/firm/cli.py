"""Command-line surface: dataset analysis, the simulation studies, and
covariance reports.

Every command returns its complete output and `main` makes the one write
of it to --out. Each file is replaced atomically, but a reused --out keeps
the files an earlier run wrote. Identical configuration, including the
seed, yields byte-identical artifacts on one numpy build whose BLAS runs
one thread; more threads change the last digits. This module therefore
sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before
numpy loads, unless the environment already sets them: a value the user
set wins. The package loads numpy only on first use of an export (see
firm/__init__.py), so this holds for the `firm` command; a program that
has loaded numpy first keeps its own thread count. One BLAS thread also
leaves the process single-threaded, which lets tabular files be parsed
and `poim.tsv` be formatted on every core (see firm._fork).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import itertools
import sys

import numpy as np

from . import _emit, experiments
from .binary import firm_binary_values
from .dataset import (CovarianceEstimate, TabularDataset, empirical_covariance,
                      load_sequences, load_tabular, loadtxt_rows, open_utf8,
                      refuse_constant_column, shrinkage_covariance)
from .empirical import conditional_curve, default_bins, firm_from_curve, firm_slope, unit_rows
from .errors import DataFormatError, FirmError
from .gaussian import firm_gaussian_general, sensitivity_index
from .scoring import (KernelSpec, score_many, train_kernel_ridge,
                      train_least_squares, train_positional_kmer, train_ridge)
from .sequence import poim, ranked_oligomers

TABULAR_METHODS = ("binary", "gaussian", "empirical", "slope", "sensitivity")
SEQUENCE_METHODS = ("poim",)
GRADIENT_SCORERS = ("train:least_squares", "train:ridge", "train:kernel_ridge")


def parse_kernel(text: str, degree: int) -> KernelSpec:
    """`gaussian[:gamma]` or `polynomial[:offset]` (degree from --degree); the
    value is one cell in load_tabular's number grammar."""
    name, sep, raw = text.partition(":")
    param = {"gaussian": "gamma", "polynomial": "offset"}.get(name)
    if param is None:
        raise FirmError(f"unknown kernel {text!r} (use gaussian[:gamma] "
                        "or polynomial[:offset])")
    raw = raw if sep else "1.0"
    value = loadtxt_rows([raw]) if raw.strip() else None    # loadtxt warns on no data
    if value is None or value.shape != (1, 1):
        raise FirmError(f"kernel {param} must be a number, got {raw!r}")
    if param == "gamma":
        return KernelSpec.gaussian(value[0, 0])
    return KernelSpec.polynomial(degree, value[0, 0])


def load_covariance_file(path: str, names: tuple[str, ...]) -> CovarianceEstimate:
    """The square matrix in path: rows of comma- or tab-separated numbers in
    load_tabular's grammar, blank and '#' lines skipped. A first line
    `#<TAB>name...`, the header `firm covariance` writes, means each row
    starts with its name; the header's and the rows' names must then be
    `names`, in order."""
    rows, row_names, header = [], [], None
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if line_no == 1 and line.startswith("#\t"):
                header = line.rstrip("\r\n").split("\t")[1:]
                continue
            line = line.strip()
            if not line or (header is None and line.startswith("#")):
                continue
            cells = line.replace(",", "\t").split("\t")
            if "" in cells:
                raise DataFormatError(f"{path}: line {line_no} has an empty cell")
            if header is not None:
                row_names.append(cells.pop(0))
            values = loadtxt_rows([",".join(cells)])   # the grammar of load_tabular
            if values is None:
                raise DataFormatError(f"{path}: line {line_no} is not numeric")
            rows.append(values[0])
    for listed in (header, row_names) if header is not None else ():
        for j, (got, want) in enumerate(itertools.zip_longest(listed, names), start=1):
            if got != want:
                raise FirmError(f"{path}: covariance name {j} is {got!r}, "
                                f"data column {j} is {want!r}")
    if not rows or any(len(r) != len(rows) for r in rows):
        raise DataFormatError(f"{path}: expected a square numeric matrix")
    try:
        cov = CovarianceEstimate(sigma=np.array(rows), method="supplied")
    except FirmError as exc:
        raise FirmError(f"{path}: {exc}") from None
    eig = np.linalg.eigvalsh(cov.sigma)
    if eig[0] < -1e-8 * np.abs(eig).max():
        raise FirmError(f"{path}: covariance is not positive semidefinite "
                        f"(smallest eigenvalue {float(eig[0])!r})")
    return cov


def choose_covariance(choice: str, data: TabularDataset) -> CovarianceEstimate:
    if choice == "auto":
        choice = "empirical" if data.n >= 2 * data.d else "shrunk"
    if choice == "empirical":
        return empirical_covariance(data)
    if choice == "shrunk":
        return shrinkage_covariance(data)
    if choice.startswith("file:"):
        cov = load_covariance_file(choice[len("file:"):], data.names)
        if cov.d != data.d:
            raise FirmError(f"covariance is {cov.d}x{cov.d} but data has "
                            f"{data.d} columns")
        return cov
    raise FirmError(f"unknown covariance source {choice!r} "
                    "(use empirical, shrunk, or file:PATH)")


def build_tabular_scorer(args, data: TabularDataset):
    if args.scorer == "train:least_squares":
        return train_least_squares(data)
    if args.scorer == "train:ridge":
        return train_ridge(data, args.lam)
    if args.scorer == "train:kernel_ridge":
        return train_kernel_ridge(data, parse_kernel(args.kernel, args.degree),
                                  args.lam)
    raise FirmError(f"scorer {args.scorer!r} is not valid for tabular input")


def validate_analyze_config(args) -> None:
    if args.method in SEQUENCE_METHODS:
        if args.scorer != "train:kmer":
            raise FirmError(f"method {args.method!r} requires --scorer train:kmer")
        if args.standardize:
            raise FirmError("--standardize applies to tabular methods only")
    else:
        if args.scorer == "train:kmer":
            raise FirmError(f"method {args.method!r} cannot use a sequence scorer")
        if args.method in ("gaussian", "sensitivity") and args.scorer == "labels":
            raise FirmError(f"method {args.method!r} needs a differentiable scorer "
                            f"(one of {', '.join(GRADIENT_SCORERS)})")


def analyze_tabular(args) -> dict:
    data = load_tabular(args.input, has_labels=True)
    slashed = [name for name in data.names if "/" in name]
    if args.method == "empirical" and slashed:   # its curve would be curves/<name>.tsv
        raise FirmError(f"column name {slashed[0]!r} holds '/' and cannot name a curve file")
    refuse_constant_column(data.X, data.names)     # every method refuses the same inputs alike
    scorer = None if args.scorer == "labels" else build_tabular_scorer(args, data)
    scores = None
    if args.method in ("binary", "slope", "empirical") or args.standardize:
        # with --scorer labels the scores are the raw labels, duplicates kept as-is
        scores = data.labels() if scorer is None else score_many(scorer, data.X)
    artifacts = {}
    if args.method == "gaussian":
        cov = choose_covariance(args.covariance, data)
        results = firm_gaussian_general(scorer, cov, mean=data.column_means,
                                        names=data.names)
    elif args.method == "sensitivity":
        results = sensitivity_index(scorer, data)
    elif args.method == "binary":
        results = firm_binary_values(scores, data.X, names=data.names)
    elif args.method == "slope":
        results = firm_slope(scores, data.X, names=data.names)
    else:
        bins = args.bins if args.bins is not None else default_bins(data.n)
        results = []
        for j, name in enumerate(data.names):
            curve = conditional_curve(scores, data.X[:, j], bins)
            artifacts[f"curves/{name}.tsv"] = _emit.curve_tsv(curve)
            results.append(firm_from_curve(curve, feature=name))
    score_sd = None
    if args.standardize:
        if scores.min() == scores.max():   # exact, unlike np.std
            raise FirmError("zero score variance")
        row, exp = unit_rows(scores[None, :].copy())    # np.std's bits, but no underflow
        score_sd = float(np.ldexp(np.std(row[0]), exp[0]))
    artifacts["firm.tsv"] = _emit.firm_results_tsv(results, score_sd=score_sd)
    artifacts["firm.json"] = _emit.firm_results_json(results, score_sd=score_sd)
    return artifacts


def analyze_sequence(args) -> dict:
    data = load_sequences(args.input)
    scorer = train_positional_kmer(data, K=args.degree, lam=args.lam)
    table = poim(scorer, k=args.k)
    # the small artifacts first, so their temporaries are gone before the large text exists
    summary = _emit.poim_summary_tsv(table)
    top = _emit.poim_top_tsv(ranked_oligomers(table, top=args.top))
    return {"poim.tsv": _emit.poim_tsv(table), "poim_summary.tsv": summary,
            "poim_top.tsv": top}


def cmd_analyze(args) -> dict:
    validate_analyze_config(args)
    if args.method in SEQUENCE_METHODS:
        artifacts = analyze_sequence(args)
    else:
        artifacts = analyze_tabular(args)
    artifacts["run.json"] = _emit.run_metadata("analyze", {
        "input": args.input, "method": args.method, "scorer": args.scorer,
        "kernel": args.kernel, "lambda": args.lam, "degree": args.degree,
        "bins": args.bins, "k": args.k, "top": args.top,
        "covariance": args.covariance, "standardize": args.standardize,
        "seed": args.seed})
    return artifacts


def cmd_covariance(args) -> dict:
    data = load_tabular(args.input, has_labels=args.has_labels)
    cov = choose_covariance(args.covariance, data)
    doc = {"method": cov.method, "d": cov.d, "names": list(data.names)}
    if cov.shrinkage_lambda is not None:
        doc["shrinkage_lambda"] = cov.shrinkage_lambda
    return {
        "covariance.tsv": _emit.matrix_tsv(data.names, cov.sigma),
        "covariance.json": _emit.json_doc(doc),
        "run.json": _emit.run_metadata("covariance", {
            "input": args.input, "covariance": args.covariance,
            "has_labels": args.has_labels}),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firm",
        description="Feature importance ranking via conditional expected scores.",
        epilog="numpy's BLAS runs one thread, so that the artifacts' bytes do not "
               "depend on the core count: OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and "
               "MKL_NUM_THREADS default to 1, and a value set in the environment wins.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func):
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=func)

    def seeded(p, func, text="seed for all randomness"):
        common(p, func)
        p.add_argument("--seed", type=int, default=42, help=f"{text} (default %(default)s)")

    p = sub.add_parser("analyze", help="importance of every column/oligomer")
    numbers = ("CSV cells are ASCII decimal or exponent numbers such as -2.5, .5 or "
               "1E-7, padding allowed; 1_0 and non-ASCII digits are refused")
    p.add_argument("--input", required=True, help="CSV (tabular, labeled) or "
                   f"TSV sequence file; {numbers}")
    p.add_argument("--method", required=True,
                   choices=TABULAR_METHODS + SEQUENCE_METHODS,
                   help="gaussian linearises the scorer at the column means, "
                        "which is exact for linear scorers only")
    p.add_argument("--scorer", default="labels",
                   help="labels | train:least_squares | train:ridge | "
                        "train:kernel_ridge | train:kmer (default %(default)s)")
    p.add_argument("--kernel", default="gaussian:1.0",
                   help="gaussian[:gamma] | polynomial[:offset] "
                        "(default %(default)s)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.1,
                   help="ridge strength for trained scorers (default %(default)s)")
    p.add_argument("--degree", type=int, default=2,
                   help="polynomial degree, or max substring length for "
                        "train:kmer (default %(default)s)")
    p.add_argument("--bins", type=int, default=None,
                   help="bin count for method=empirical (default: sqrt rule)")
    p.add_argument("--k", type=int, default=3,
                   help="oligomer length for method=poim (default %(default)s)")
    p.add_argument("--top", type=int, default=20,
                   help="ranked oligomers to emit (default %(default)s)")
    p.add_argument("--covariance", default="auto",
                   help="empirical | shrunk | file:PATH (default: empirical, "
                        "or shrunk when n < 2d)")
    p.add_argument("--standardize", action="store_true",
                   help="divide the importances in firm.tsv by the score "
                        "standard deviation, headed q_tilde_*; firm.json keeps "
                        "the raw values and adds q_tilde_* and score_sd")
    seeded(p, cmd_analyze, "recorded in run.json; changes no other artifact")

    p = sub.add_parser("covariance", help="write the covariance estimate")
    p.add_argument("--input", required=True, help=f"CSV with a header row; {numbers}")
    p.add_argument("--covariance", default="empirical",
                   help="empirical | shrunk | file:PATH (default %(default)s)")
    p.add_argument("--has-labels", action="store_true",
                   help="last input column is a label column")
    common(p, cmd_covariance)

    def study(name, text):
        return sub.add_parser(name, help=text, description=text)

    p = study("experiment-boolean", "importance of conjunctions of three ±1 variables; "
              f"polynomial kernel ridge, degree 2, λ = {experiments.BOOLEAN_LAMBDA}")
    common(p, lambda args: experiments.boolean_experiment()[0])

    p = study("experiment-gaussian", "slope importances for two normal classes; "
              "least squares, curves binned by the sqrt rule")
    p.add_argument("--n-per-class", type=int, default=1000)
    seeded(p, lambda args: experiments.gaussian_experiment(
        seed=args.seed, n_per_class=args.n_per_class)[0])

    p = study("experiment-sequence", "planted-motif study with oligomer importances; "
              f"k-mer scorer, degree {experiments.SEQUENCE_DEGREE}, "
              f"λ = {experiments.SEQUENCE_LAMBDA}, top {experiments.SEQUENCE_TOP}")
    p.add_argument("--n-per-class", type=int, default=500)
    p.add_argument("--seq-len", type=int, default=50)
    seeded(p, lambda args: experiments.sequence_experiment(
        seed=args.seed, n_per_class=args.n_per_class, seq_len=args.seq_len)[0])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            _emit.write_artifacts(args.out, args.func(args))
        return 0
    except FirmError as exc:
        return _emit.fail(str(exc))
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        return _emit.fail(f"numerical failure: {exc}")
    except (OSError, MemoryError) as exc:
        return _emit.fail(str(exc) or type(exc).__name__)


if __name__ == "__main__":
    sys.exit(main())
