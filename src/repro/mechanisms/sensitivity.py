"""Global sensitivity of the empirical risk (Definition 2.2 of the paper).

``Δf = max_{D ~ D'} ‖f(D) - f(D')‖₁`` over neighbouring datasets; for the
empirical risk of a bounded loss it has the closed form Theorem 4.1 needs.
"""

from __future__ import annotations

from repro.exceptions import ValidationError
from repro.utils.validation import check_positive


def empirical_risk_sensitivity(loss_range: float, n: int) -> float:
    """Global sensitivity of the empirical risk ``R̂`` for a bounded loss.

    With loss values in an interval of width ``loss_range`` and ``n``
    samples, replacing one sample moves ``R̂ = (1/n) Σ l(θ, z_i)`` by at most
    ``loss_range / n`` — uniformly over θ. This is the ``Δ(R̂)`` entering
    Theorem 4.1's ``2 ε Δ(R̂)`` privacy guarantee for the Gibbs estimator.

    Parameters
    ----------
    loss_range:
        Width of the interval the loss takes values in.
    n:
        Sample size.
    """
    loss_range = check_positive(loss_range, name="loss_range")
    if n < 1:
        raise ValidationError("n must be >= 1")
    return loss_range / float(n)
