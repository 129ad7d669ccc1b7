"""Suite-wide setup: one BLAS thread.

The values frozen in these tests (the Nelder-Mead objective panel in
``test_estimator.py`` among them) were computed with one OpenBLAS thread.
The products behind a drawn spectrum split their sums differently with
more threads: ``sample_spectrum``'s LAPACK ``dlauum`` triangular product
plus, for p > n, its product of the rows below the triangle, and the
panel's ``x @ x.T`` in ``helpers.full_gram_spectrum``.  The nets then differ in their last bits
from those the values belong to.  As in ``perfbench/run.py``, this must be
set before numpy loads.

Hypothesis reports a falsifying example through ``hypothesis.extra._patching``,
whose import of ``mypy_extensions`` raises a DeprecationWarning.  Under the
suite's ``filterwarnings = ["error"]`` that import, made late inside the
plugin's report hook, ends the run in INTERNALERROR with the example lost.
It is made once here, with that warning ignored, so that a failing
property test prints its example like any other failure.
"""

import os
import warnings

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
