"""Feature importance ranking via conditional expected scores.

The importance of a feature is the standard deviation of the expected
score conditional on the feature's value. Exact formulas are provided for
binary features, normal models, and positional oligomers over sequences;
a binned estimator covers arbitrary samples.

The exports below are loaded on first use (PEP 562), so importing the
package loads no module of it and not numpy: the `firm` command can set
numpy's BLAS thread count before numpy loads (see firm.cli).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "binary": ("firm_binary_exact", "firm_binary_values"),
    "dataset": ("CovarianceEstimate", "SequenceDataset", "TabularDataset",
                "empirical_covariance", "load_sequences", "load_tabular",
                "shrinkage_covariance"),
    "empirical": ("ConditionalScoreCurve", "conditional_curve", "default_bins",
                  "firm_from_curve", "firm_slope", "slope_stderr"),
    "errors": ("BudgetExceededError", "DataFormatError", "DegenerateFeatureError",
               "FirmError"),
    "features": ("Projection", "SignedConjunction", "Xor"),
    "gaussian": ("firm_gaussian_general", "sensitivity_index"),
    "results": ("BinaryStats", "FirmResult"),
    "scoring": ("KernelExpansionScorer", "KernelSpec", "LinearScorer",
                "PositionalKmerScorer", "gradient_at", "score_many",
                "train_kernel_ridge", "train_least_squares", "train_positional_kmer",
                "train_ridge"),
    "sequence": ("PoimTable", "hamming_ball", "poim", "ranked_oligomers"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
