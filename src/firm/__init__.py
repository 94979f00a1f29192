"""Feature importance ranking via conditional expected scores.

The importance of a feature is the standard deviation of the expected
score conditional on the feature's value. Exact formulas are provided for
binary features, normal models, and positional oligomers over sequences;
a binned estimator covers arbitrary samples.
"""

from .binary import firm_binary_exact, firm_binary_values
from .dataset import (CovarianceEstimate, SequenceDataset, TabularDataset,
                      empirical_covariance, load_sequences, load_tabular,
                      shrinkage_covariance)
from .empirical import (ConditionalScoreCurve, conditional_curve, default_bins,
                        firm_from_curve, firm_slope, slope_stderr)
from .errors import (BudgetExceededError, DataFormatError,
                     DegenerateFeatureError, FirmError)
from .features import Projection, SignedConjunction, Xor
from .gaussian import firm_gaussian_general, sensitivity_index
from .results import BinaryStats, FirmResult
from .scoring import (KernelExpansionScorer, KernelSpec, LinearScorer,
                      PositionalKmerScorer, gradient_at, score_many,
                      train_kernel_ridge, train_least_squares,
                      train_positional_kmer, train_ridge)
from .sequence import PoimTable, hamming_ball, poim, ranked_oligomers

__version__ = "0.1.0"
