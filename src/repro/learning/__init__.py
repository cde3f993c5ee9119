"""Statistical prediction substrate (Section 2.2 of the paper).

Input space X, optional output space Y, predictor space Θ, loss
``l_θ(Z)``, true risk ``R(θ) = E_Z l_θ(Z)`` and empirical risk
``R̂(θ) = (1/n) Σ l_θ(Zᵢ)`` — plus the concrete models, optimizers and
synthetic data sources the experiments learn on.
"""

from repro._lazy import attach as _attach

_EXPORTS = {
    "HingeLoss": "repro.learning.losses",
    "HuberHingeLoss": "repro.learning.losses",
    "LogisticLoss": "repro.learning.losses",
    "MarginLoss": "repro.learning.losses",
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
    "LogisticRegressionModel": "repro.learning.models",
    "RidgeRegressionModel": "repro.learning.models",
    "PredictorGrid": "repro.learning.erm",
    "empirical_risk": "repro.learning.erm",
    "empirical_risk_matrix": "repro.learning.erm",
}

__all__ = [
    "BernoulliTask",
    "GaussianThresholdTask",
    "HingeLoss",
    "HuberHingeLoss",
    "LinearRegressionTask",
    "LogisticLoss",
    "LogisticRegressionModel",
    "MarginLoss",
    "OptimizeResult",
    "PredictorGrid",
    "RidgeRegressionModel",
    "SyntheticTask",
    "TruncatedLoss",
    "TwoGaussiansTask",
    "ZeroOneLoss",
    "empirical_risk",
    "empirical_risk_matrix",
    "gradient_descent",
    "newton_method",
]

__getattr__, __dir__ = _attach(__name__, _EXPORTS)
