"""Angle-aware probability calibration for high-dimensional linear classifiers.

The package fits a ridge-logistic linear model, estimates the angle
between the fitted and true weight directions from observable quantities
alone, and turns that angle into an exactly calibrated predictor by
noise interpolation. Platt scaling, isotonic regression and the chance
predictor are included as baselines, along with reliability/Bregman
evaluation and a reproducible experiment CLI.
"""

from .calibrators import (
    Angular,
    Chance,
    Isotonic,
    Platt,
    Uncalibrated,
    angular_predict,
    calibrate,
    chance_value,
    isotonic_fit,
    platt_fit,
    probit_closed_form,
    theoretical_AB,
)
from .errors import AngcalError
from .evaluate import (
    BregmanReport,
    ReliabilityReport,
    bregman_losses,
    bregman_optimality_check,
    cal_error_at_level,
    reliability,
)
from .links import SIGMOID_PROBIT_BRIDGE, LinkFunction
from .mestimator import FittedModel, fit, logistic_loss_derivatives
from .multiindex import (
    ConditionalParams,
    MultiIndexModel,
    angular_predict_multi,
    conditional_params,
)
from .observable import (
    AngleEstimate,
    ObservableIntermediates,
    angle_estimate,
    compute_intermediates,
    inner_product_sq,
    sign_estimate,
)
from .synth import (
    Covariance,
    Dataset,
    generate_labels,
    load_design_csv,
    make_synthetic_dataset,
    sample_design,
    sample_true_weight,
    symmetric_root,
)

__version__ = "0.1.0"

__all__ = [
    "AngcalError",
    "AngleEstimate",
    "Angular",
    "BregmanReport",
    "Chance",
    "ConditionalParams",
    "Covariance",
    "Dataset",
    "FittedModel",
    "Isotonic",
    "LinkFunction",
    "MultiIndexModel",
    "ObservableIntermediates",
    "Platt",
    "ReliabilityReport",
    "SIGMOID_PROBIT_BRIDGE",
    "Uncalibrated",
    "angle_estimate",
    "angular_predict",
    "angular_predict_multi",
    "bregman_losses",
    "bregman_optimality_check",
    "cal_error_at_level",
    "calibrate",
    "chance_value",
    "compute_intermediates",
    "conditional_params",
    "fit",
    "generate_labels",
    "inner_product_sq",
    "isotonic_fit",
    "load_design_csv",
    "logistic_loss_derivatives",
    "make_synthetic_dataset",
    "platt_fit",
    "probit_closed_form",
    "reliability",
    "sample_design",
    "sample_true_weight",
    "sign_estimate",
    "symmetric_root",
    "theoretical_AB",
]
