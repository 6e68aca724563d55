"""Prediction substrate: viewport (ridge regression), bandwidth, and
the FoV-uncertainty probability layer."""

from .bandwidth import EwmaEstimator, HarmonicMeanEstimator, LastSampleEstimator
from .strategies import (
    OraclePredictor,
    StaticPredictor,
    oracle_predictor_factory,
    static_predictor_factory,
)
from .uncertainty import (
    HypothesisGrid,
    PanoWeight,
    angular_distance_deg,
    coverage_profile,
    deterministic_coverage,
    expected_coverage,
    hypothesis_grid,
    hypothesis_weights,
)
from .viewport import (
    AngularErrorModel,
    RidgeRegressor,
    ViewportPredictor,
    fit_error_model,
)

__all__ = [
    "EwmaEstimator",
    "HarmonicMeanEstimator",
    "LastSampleEstimator",
    "OraclePredictor",
    "StaticPredictor",
    "oracle_predictor_factory",
    "static_predictor_factory",
    "AngularErrorModel",
    "RidgeRegressor",
    "ViewportPredictor",
    "fit_error_model",
    "HypothesisGrid",
    "PanoWeight",
    "angular_distance_deg",
    "coverage_profile",
    "deterministic_coverage",
    "expected_coverage",
    "hypothesis_grid",
    "hypothesis_weights",
]
