"""Spans around the calls into each layer, installed only in a traced pass.

Each hook replaces a public function where the CLI and the experiments
look it up, so the package itself is untouched. A span records its layer,
hook, start, end and parent; spans stay in memory until the pass writes
them out. Size counters are computed after a span ends and timed as a
`trace.count` span beside it, so their cost lands in no layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import os
import time


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _parse_sizes(args, kwargs, result):
    if hasattr(result, "X"):          # tabular: features plus labels
        cells = result.X.size + (0 if result.y is None else result.y.size)
    else:                             # sequences: letters plus labels
        cells = result.n * (result.length + 1)
    return {"bytes": os.path.getsize(_first(args, kwargs, "path")), "cells": cells}


def _train_sizes(args, kwargs, result):
    rows = _first(args, kwargs, "data").n
    if hasattr(result, "alpha"):      # kernel ridge: the dual has n coefficients
        features = result.alpha.size
    elif hasattr(result, "weights"):  # positional k-mer: one weight per feature
        features = len(result.weights)
    else:                             # linear
        features = result.w.size
    return {"rows": rows, "features": features,
            "design_mb": rows * features * 8 / 1e6}


def _score_sizes(args, kwargs, result):
    return {"rows": len(args[1]) if len(args) > 1 else len(kwargs["X"])}


def _gradient_sizes(args, kwargs, result):
    return {"rows": 1}                # gradient_at takes one point


def _importance_sizes(args, kwargs, result):
    if isinstance(result, list):
        return {"cells": len(result)}
    if hasattr(result, "values"):     # POIM table
        return {"cells": result.values.size}
    if hasattr(result, "bin_prob"):   # conditional curve
        return {"cells": result.bin_prob.size}
    return {"cells": 1}


def _rank_sizes(args, kwargs, result):
    return {"cells": _first(args, kwargs, "table").values.size}


def _format_sizes(args, kwargs, result):
    return {"rows": result.count("\n"), "bytes": len(result.encode())}


def _write_sizes(args, kwargs, result):
    artifacts = args[1] if len(args) > 1 else kwargs["artifacts"]
    return {"files": len(artifacts),
            "bytes": sum(len(v.encode()) for v in artifacts.values())}


_SIZES = {"parse": _parse_sizes, "train": _train_sizes, "score": _score_sizes,
          "importance": _importance_sizes, "rank": _rank_sizes,
          "emit.format": _format_sizes, "emit.write": _write_sizes,
          "firm.gaussian.gradient_at": _gradient_sizes}   # a hook's own, before its layer's

# (module, attribute, layer). Hooks sit where callers look the names up.
HOOKS = (
    [("firm.cli", "main", "cli")]
    + [("firm.experiments", f"{name}_experiment", "experiments")
       for name in ("boolean", "gaussian", "sequence")]
    + [("firm.cli", name, "parse") for name in ("load_tabular", "load_sequences")]
    + [("firm.cli", name, "covariance")
       for name in ("empirical_covariance", "shrinkage_covariance")]
    + [("firm.cli", name, "train")
       for name in ("train_least_squares", "train_ridge", "train_kernel_ridge",
                    "train_positional_kmer")]
    + [("firm.experiments", name, "train")
       for name in ("train_least_squares", "train_kernel_ridge", "train_positional_kmer")]
    + [("firm.cli", "score_many", "score"), ("firm.experiments", "score_many", "score"),
       ("firm.gaussian", "gradient_at", "score")]
    + [("firm.cli", name, "importance")
       for name in ("firm_binary_values", "conditional_curve", "firm_from_curve",
                    "firm_slope", "firm_gaussian_general", "sensitivity_index", "poim")]
    + [("firm.experiments", name, "importance")
       for name in ("firm_binary_exact", "conditional_curve", "firm_slope",
                    "slope_stderr", "poim")]
    + [("firm.cli", "ranked_oligomers", "rank"),
       ("firm.experiments", "ranked_oligomers", "rank")]
    + [("firm._emit", name, "emit.format")
       for name in ("tsv", "curve_tsv", "firm_results_tsv", "firm_results_json",
                    "matrix_tsv", "json_doc", "run_metadata")]
    + [("firm._emit", "write_artifacts", "emit.write")]
)


class Tracer:
    """Installs the hooks and records one span per hooked call."""

    def __init__(self):
        # span: [layer, hook, start, end, parent index or -1, sizes or None]
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, attr, layer in HOOKS:
            module = importlib.import_module(module_name)
            target = getattr(module, attr, None)
            if not callable(target):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(target, layer, f"{module_name}.{attr}"))

    def _wrap(self, fn, layer, hook):
        sizes = _SIZES.get(hook, _SIZES.get(layer))
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, hook, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            # Nested spans of the same layer (tsv inside curve_tsv) count once.
            if sizes is not None and (span[4] < 0 or spans[span[4]][0] != layer):
                # A sibling span, so the parent's self time excludes counting.
                count = ["trace.count", hook, clock(), 0.0, span[4], None]
                span[5] = sizes(args, kwargs, result)
                count[3] = clock()
                spans.append(count)
            return result

        return traced


def layer_totals(spans: list[list]) -> dict:
    """Per layer: self seconds, calls and summed size counters."""
    child_time = [0.0] * len(spans)
    for layer, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict = {}
    for i, (layer, _, start, end, _, sizes) in enumerate(spans):
        entry = totals.setdefault(layer, {"busy_s": 0.0, "calls": 0})
        entry["busy_s"] += (end - start) - child_time[i]
        entry["calls"] += 1
        for key, value in (sizes or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals
