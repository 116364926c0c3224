"""One BLAS thread for the test suite, as perfstudy/run.py sets for the
benchmark; the variables are read when numpy first loads its BLAS, so they
are set here, before any test module imports numpy."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
