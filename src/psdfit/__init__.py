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

from .errors import (IterationError, NearPoleError, NumericsError, PoleError,
                     RankError, ScanResolutionError)
from .models import (Discrete, InverseCubic, Laguerre, PointMass, PSDModel,
                     model_from_dict, wasserstein)
from .mptransform import (DensityCurve, SampleSpectrum, SupportReport,
                          companion_stieltjes, lsd_density_curve,
                          mp_u_derivative, mp_u_map,
                          solve_companion_fixed_point, solve_companion_real,
                          support_bounds)
from .estimator import (FitResult, UNet, build_unet, fit_discrete,
                        fit_inverse_cubic, fit_laguerre, objective,
                        params_to_model)
from .simulate import (ExperimentConfig, ExperimentReport, correlated_returns,
                       population_draw, population_from_model, run_experiment,
                       sample_spectrum)
from .dataio import (AnalysisResult, ReturnsMatrix, correlation_spectrum,
                     kde_curve, load_returns_csv, run_analysis)

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "DensityCurve",
    "Discrete",
    "ExperimentConfig",
    "ExperimentReport",
    "FitResult",
    "InverseCubic",
    "IterationError",
    "Laguerre",
    "NearPoleError",
    "NumericsError",
    "PSDModel",
    "PointMass",
    "PoleError",
    "RankError",
    "ReturnsMatrix",
    "SampleSpectrum",
    "ScanResolutionError",
    "SupportReport",
    "UNet",
    "build_unet",
    "companion_stieltjes",
    "correlated_returns",
    "correlation_spectrum",
    "fit_discrete",
    "fit_inverse_cubic",
    "fit_laguerre",
    "kde_curve",
    "load_returns_csv",
    "lsd_density_curve",
    "model_from_dict",
    "mp_u_derivative",
    "mp_u_map",
    "objective",
    "params_to_model",
    "population_draw",
    "population_from_model",
    "run_analysis",
    "run_experiment",
    "sample_spectrum",
    "solve_companion_fixed_point",
    "solve_companion_real",
    "support_bounds",
    "wasserstein",
    "__version__",
]
