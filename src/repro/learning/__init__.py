"""Statistical prediction substrate (Section 2.2 of the paper).

Input space X, optional output space Y, predictor space Θ, loss
``l_θ(Z)``, true risk ``R(θ) = E_Z l_θ(Z)`` and empirical risk
``R̂(θ) = (1/n) Σ l_θ(Zᵢ)`` — plus the concrete models, optimizers and
synthetic data sources the experiments learn on.
"""

from repro.learning.losses import (
    AbsoluteLoss,
    HingeLoss,
    HuberHingeLoss,
    LogisticLoss,
    MarginLoss,
    RegressionLoss,
    SquaredLoss,
    TruncatedLoss,
    ZeroOneLoss,
)
from repro.learning.datasets import (
    BernoulliTask,
    GaussianThresholdTask,
    LinearRegressionTask,
    SyntheticTask,
    TwoGaussiansTask,
)
from repro.learning.optimize import (
    OptimizeResult,
    gradient_descent,
    newton_method,
)
from repro.learning.models import (
    LinearSVM,
    LogisticRegressionModel,
    RidgeRegressionModel,
)
from repro.learning.evaluation import (
    ConfusionMatrix,
    auc,
    roc_points,
    train_test_split,
)
from repro.learning.preprocessing import (
    PublicScaler,
    clip_to_unit_ball,
    clip_values,
    symmetrize_labels,
)
from repro.learning.erm import (
    PredictorGrid,
    empirical_risk,
    empirical_risk_matrix,
    erm_minimizer,
)

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
