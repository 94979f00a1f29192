"""Test-session set-up that must run before numpy loads.

numpy's BLAS is pinned to one thread unless the environment already says
otherwise, as CI and bench/run.py set it: the artifacts' bytes are
specified for one BLAS thread, and only a single-threaded process lets
`_emit.poim_tsv` and `load_tabular` fork their workers, whose tests
otherwise check that they do not fork. A test that needs the variables
unset must remove them from its own subprocess's environment.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
