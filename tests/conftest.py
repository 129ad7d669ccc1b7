"""Suite-wide setup: one BLAS thread.

The values frozen in these tests (the Nelder-Mead objective panel in
``test_estimator.py`` among them) were computed with one OpenBLAS thread.
``sample_spectrum``'s Gram product ``x @ x.T`` splits its sums differently
with more threads, so the nets then differ in their last bits from those
the values belong to.  As in ``perfbench/run.py``, this must be set before
numpy loads.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
