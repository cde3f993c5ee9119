"""Statistical prediction substrate (Section 2.2 of the paper).

Input space X, optional output space Y, predictor space Θ, loss
``l_θ(Z)``, true risk ``R(θ) = E_Z l_θ(Z)`` and empirical risk
``R̂(θ) = (1/n) Σ l_θ(Zᵢ)`` — plus the concrete models, optimizers and
synthetic data sources the experiments learn on.
"""

from repro._lazy import attach as _attach

_EXPORTS = {
    "AbsoluteLoss": "repro.learning.losses",
    "HingeLoss": "repro.learning.losses",
    "HuberHingeLoss": "repro.learning.losses",
    "LogisticLoss": "repro.learning.losses",
    "MarginLoss": "repro.learning.losses",
    "RegressionLoss": "repro.learning.losses",
    "SquaredLoss": "repro.learning.losses",
    "TruncatedLoss": "repro.learning.losses",
    "ZeroOneLoss": "repro.learning.losses",
    "BernoulliTask": "repro.learning.datasets",
    "GaussianThresholdTask": "repro.learning.datasets",
    "LinearRegressionTask": "repro.learning.datasets",
    "SyntheticTask": "repro.learning.datasets",
    "TwoGaussiansTask": "repro.learning.datasets",
    "OptimizeResult": "repro.learning.optimize",
    "gradient_descent": "repro.learning.optimize",
    "newton_method": "repro.learning.optimize",
    "LinearSVM": "repro.learning.models",
    "LogisticRegressionModel": "repro.learning.models",
    "RidgeRegressionModel": "repro.learning.models",
    "ConfusionMatrix": "repro.learning.evaluation",
    "auc": "repro.learning.evaluation",
    "roc_points": "repro.learning.evaluation",
    "train_test_split": "repro.learning.evaluation",
    "PublicScaler": "repro.learning.preprocessing",
    "clip_to_unit_ball": "repro.learning.preprocessing",
    "clip_values": "repro.learning.preprocessing",
    "symmetrize_labels": "repro.learning.preprocessing",
    "PredictorGrid": "repro.learning.erm",
    "empirical_risk": "repro.learning.erm",
    "empirical_risk_matrix": "repro.learning.erm",
    "erm_minimizer": "repro.learning.erm",
}

__all__ = [
    "AbsoluteLoss",
    "BernoulliTask",
    "ConfusionMatrix",
    "GaussianThresholdTask",
    "HingeLoss",
    "HuberHingeLoss",
    "LinearRegressionTask",
    "LinearSVM",
    "LogisticLoss",
    "LogisticRegressionModel",
    "MarginLoss",
    "OptimizeResult",
    "PredictorGrid",
    "PublicScaler",
    "RegressionLoss",
    "RidgeRegressionModel",
    "SquaredLoss",
    "SyntheticTask",
    "TruncatedLoss",
    "TwoGaussiansTask",
    "ZeroOneLoss",
    "auc",
    "clip_to_unit_ball",
    "clip_values",
    "empirical_risk",
    "empirical_risk_matrix",
    "erm_minimizer",
    "gradient_descent",
    "newton_method",
    "roc_points",
    "symmetrize_labels",
    "train_test_split",
]

__getattr__, __dir__ = _attach(__name__, _EXPORTS)
