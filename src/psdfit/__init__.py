"""Estimate the population spectral distribution of a large covariance
matrix from its sample eigenvalues.

The sample eigenvalues of a high-dimensional covariance matrix are a
biased, smeared image of the population ones.  This package inverts that
smearing: it matches the model-side spectrum point map against the
empirical companion Stieltjes transform at points outside the sample
bulk, in the least-squares sense, over a chosen model family (finite
mixtures of atoms, polynomial-exponential densities, or a one-parameter
inverse-cubic law for correlation spectra).
"""

from .errors import *
from .models import *
from .mptransform import *
from .estimator import *
from .simulate import *
from .dataio import *
from . import dataio, errors, estimator, models, mptransform, simulate

__version__ = "0.1.0"

__all__ = [*errors.__all__, *models.__all__, *mptransform.__all__,
           *estimator.__all__, *simulate.__all__, *dataio.__all__, "__version__"]
