"""Command-line surface: dataset analysis, the simulation studies, and
covariance reports.

Every command computes its complete output first and only then writes
artifacts. Each file is replaced atomically, but a reused --out keeps the
files an earlier run wrote. Identical configuration, including the seed,
yields byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import _emit, experiments
from .binary import firm_binary_values
from .dataset import (CovarianceEstimate, TabularDataset, empirical_covariance,
                      load_sequences, load_tabular, shrinkage_covariance)
from .empirical import conditional_curve, default_bins, firm_from_curve, firm_slope
from .errors import DataFormatError, FirmError
from .gaussian import GaussianModel, firm_gaussian_general, sensitivity_index
from .results import FirmResult
from .scoring import (KernelSpec, score_many, train_kernel_ridge,
                      train_least_squares, train_positional_kmer, train_ridge)
from .sequence import MarkovBackground, poim, ranked_oligomers

TABULAR_METHODS = ("binary", "gaussian", "empirical", "slope", "sensitivity")
SEQUENCE_METHODS = ("poim",)
GRADIENT_SCORERS = ("train:least_squares", "train:ridge", "train:kernel_ridge")


def parse_kernel(text: str, degree: int) -> KernelSpec:
    """`gaussian[:gamma]` or `polynomial[:offset]` (degree from --degree)."""
    name, sep, raw = text.partition(":")
    param = {"gaussian": "gamma", "polynomial": "offset"}.get(name)
    if param is None:
        raise FirmError(f"unknown kernel {text!r} (use gaussian[:gamma] "
                        "or polynomial[:offset])")
    try:
        value = float(raw) if sep else 1.0
    except ValueError:
        raise FirmError(f"kernel {param} must be a number, got {raw!r}") from None
    if param == "gamma":
        return KernelSpec.gaussian(value)
    return KernelSpec.polynomial(degree, value)


def load_covariance_file(path: str) -> CovarianceEstimate:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.replace(",", "\t").split("\t")
            if "" in cells:
                raise DataFormatError(f"{path}: line {line_no} has an empty cell")
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {line_no} is not numeric") from None
    if not rows or any(len(r) != len(rows) for r in rows):
        raise DataFormatError(f"{path}: expected a square numeric matrix")
    return CovarianceEstimate(sigma=np.array(rows), method="supplied")


def choose_covariance(choice: str, data: TabularDataset) -> CovarianceEstimate:
    if choice == "auto":
        choice = "empirical" if data.n >= 2 * data.d else "shrunk"
    if choice == "empirical":
        return empirical_covariance(data, centered=True)
    if choice == "shrunk":
        return shrinkage_covariance(data)
    if choice.startswith("file:"):
        cov = load_covariance_file(choice[len("file:"):])
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
    elif args.method in TABULAR_METHODS:
        if args.scorer == "train:kmer":
            raise FirmError(f"method {args.method!r} cannot use a sequence scorer")
        if args.method in ("gaussian", "sensitivity") and args.scorer == "labels":
            raise FirmError(f"method {args.method!r} needs a differentiable scorer "
                            f"(one of {', '.join(GRADIENT_SCORERS)})")
    else:
        raise FirmError(f"unknown method {args.method!r}")


def analyze_tabular(args) -> dict:
    data = load_tabular(args.input, has_labels=True)
    scorer = None if args.scorer == "labels" else build_tabular_scorer(args, data)
    scores = None
    if args.method in ("binary", "slope", "empirical") or args.standardize:
        # the label scorer's scores are the raw labels, duplicates kept as-is
        scores = data.labels() if scorer is None else score_many(scorer, data.X)
    artifacts = {}
    if args.method == "gaussian":
        cov = choose_covariance(args.covariance, data)
        model = GaussianModel(sigma=cov, mean=data.column_means)
        results = firm_gaussian_general(scorer, model, names=data.names)
    elif args.method == "sensitivity":
        results = [FirmResult(feature=name, q_signed=v, method="sensitivity")
                   for name, v in zip(data.names, sensitivity_index(scorer, data))]
    elif args.method == "binary":
        results = firm_binary_values(scores, data.X, names=data.names)
    elif args.method == "slope":
        results = firm_slope(scores, data.X, names=data.names)
    else:
        bins = args.bins if args.bins is not None else default_bins(data.n)
        results = []
        for j in range(data.d):
            curve = conditional_curve(scores, data.X[:, j], bins)
            artifacts[f"curves/{data.names[j]}.tsv"] = _emit.curve_tsv(curve)
            results.append(firm_from_curve(curve, feature=data.names[j]))
    score_sd = None
    if args.standardize:
        score_sd = float(np.std(scores))
        if score_sd == 0.0:
            raise FirmError("zero score variance")
    artifacts["firm.tsv"] = _emit.firm_results_tsv(results, score_sd=score_sd)
    artifacts["firm.json"] = _emit.firm_results_json(results, score_sd=score_sd)
    return artifacts


def analyze_sequence(args) -> dict:
    data = load_sequences(args.input)
    scorer = train_positional_kmer(data, K=args.degree, lam=args.lam)
    bg = MarkovBackground.uniform(data.alphabet)
    table = poim(scorer, bg, k=args.k)
    return {
        "poim.tsv": _emit.poim_tsv(table),
        "poim_summary.tsv": _emit.poim_summary_tsv(table),
        "poim_top.tsv": _emit.poim_top_tsv(ranked_oligomers(table, top=args.top)),
    }


def cmd_analyze(args) -> int:
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
    _emit.write_artifacts(args.out, artifacts)
    return 0


def cmd_covariance(args) -> int:
    data = load_tabular(args.input, has_labels=args.has_labels)
    cov = choose_covariance(args.covariance, data)
    doc = {"method": cov.method, "d": cov.d, "names": list(data.names)}
    if cov.shrinkage_lambda is not None:
        doc["shrinkage_lambda"] = cov.shrinkage_lambda
    artifacts = {
        "covariance.tsv": _emit.matrix_tsv(data.names, cov.sigma),
        "covariance.json": _emit.json_doc(doc),
        "run.json": _emit.run_metadata("covariance", {
            "input": args.input, "covariance": args.covariance,
            "has_labels": args.has_labels}),
    }
    _emit.write_artifacts(args.out, artifacts)
    return 0


def cmd_experiment_boolean(args) -> int:
    artifacts, _ = experiments.boolean_experiment(lam=args.lam)
    _emit.write_artifacts(args.out, artifacts)
    return 0


def cmd_experiment_gaussian(args) -> int:
    artifacts, _ = experiments.gaussian_experiment(
        seed=args.seed, n_per_class=args.n_per_class, bins=args.bins)
    _emit.write_artifacts(args.out, artifacts)
    return 0


def cmd_experiment_sequence(args) -> int:
    artifacts, _ = experiments.sequence_experiment(
        seed=args.seed, n_per_class=args.n_per_class, seq_len=args.seq_len,
        degree=args.degree, lam=args.lam, k=args.k, top=args.top)
    _emit.write_artifacts(args.out, artifacts)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firm",
        description="Feature importance ranking via conditional expected scores.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_default=42):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=seed_default,
                       help="seed for all randomness (default %(default)s)")

    p = sub.add_parser("analyze", help="importance of every column/oligomer")
    p.add_argument("--input", required=True, help="CSV (tabular, labeled) or "
                   "TSV sequence file")
    p.add_argument("--method", required=True,
                   choices=TABULAR_METHODS + SEQUENCE_METHODS)
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
                        "standard deviation; firm.json keeps the raw values "
                        "and adds q_tilde_* and score_sd")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("covariance", help="write the covariance estimate")
    p.add_argument("--input", required=True)
    p.add_argument("--covariance", default="empirical",
                   help="empirical | shrunk | file:PATH (default %(default)s)")
    p.add_argument("--has-labels", action="store_true",
                   help="last input column is a label column")
    common(p)
    p.set_defaults(func=cmd_covariance)

    p = sub.add_parser("experiment-boolean",
                       help="importance of conjunctions of three ±1 variables")
    p.add_argument("--lambda", dest="lam", type=float,
                   default=experiments.BOOLEAN_LAMBDA,
                   help="kernel ridge strength (default %(default)s)")
    common(p)
    p.set_defaults(func=cmd_experiment_boolean)

    p = sub.add_parser("experiment-gaussian",
                       help="slope importances for two normal classes")
    p.add_argument("--n-per-class", type=int, default=1000)
    p.add_argument("--bins", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_experiment_gaussian)

    p = sub.add_parser("experiment-sequence",
                       help="planted-motif study with oligomer importances")
    p.add_argument("--n-per-class", type=int, default=500)
    p.add_argument("--seq-len", type=int, default=50)
    p.add_argument("--degree", type=int, default=3,
                   help="scorer substring degree (default %(default)s)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p.add_argument("--k", type=int, default=7,
                   help="oligomer length of the importance table")
    p.add_argument("--top", type=int, default=20)
    common(p)
    p.set_defaults(func=cmd_experiment_sequence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except FirmError as exc:
        return _emit.fail(str(exc))
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        return _emit.fail(f"numerical failure: {exc}")
    except (OSError, MemoryError) as exc:
        return _emit.fail(str(exc) or type(exc).__name__)


if __name__ == "__main__":
    sys.exit(main())
