"""Outlier-exposure workbench.

Dense classifiers and a tiny autoregressive density model, trained from
scratch in numpy with exact analytic gradients; exposure losses that
teach them to flag what they were never trained on; anomaly scores,
threshold-free detection metrics, synthetic outlier sources, confidence
calibration, and a config-driven experiment harness around it all.
"""

from . import calibration, density, metrics, nn_core, objectives, outlier_gen, scoring
from .errors import (
    ConfigurationError,
    DataError,
    InputError,
    ParameterError,
    ValidationError,
)

__version__ = "0.1.0"

__all__ = [
    "calibration",
    "density",
    "metrics",
    "nn_core",
    "objectives",
    "outlier_gen",
    "scoring",
    "ConfigurationError",
    "DataError",
    "InputError",
    "ParameterError",
    "ValidationError",
    "__version__",
]
