"""Test-session setup.

BLAS and OpenMP read their thread counts once, when numpy first loads its
BLAS library, so the pins are set here, before any test module imports
numpy. One thread keeps the wall-time criteria (acceptance criterion 10)
free of thread scheduling noise; a value already set in the environment
wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
