"""Named audit cases: one worst-case statistical audit per mechanism family.

Each builder pairs a concretely-parameterized mechanism with the neighbour
pair that saturates (or comes closest to saturating) its guarantee, plus
the sampling strategy the auditor should use. The same registry backs the
``repro audit`` CLI subcommand and the ``statistical`` pytest tier, so a
new mechanism family becomes auditable everywhere by adding one builder.

Every builder accepts ``noise_scale``: at 1.0 the mechanism is built
exactly as shipped; below 1.0 its noise is deliberately shrunk (a sabotage
knob) so tests and demos can confirm the audit harness actually rejects a
mis-calibrated implementation rather than passing everything.

Each builder imports its own family's mechanism, so importing the registry
(as ``repro audit`` and the benchmark's serving processes do) loads no
mechanism family, learner or Gibbs estimator until that family is built.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from repro.exceptions import ValidationError
from repro.mechanisms.base import Mechanism
from repro.testing.audit import (
    StatisticalAuditReport,
    audit_mechanism,
    boolean_sequence_keys,
)
from repro.testing.neighbors import (
    NeighborPair,
    bit_flip_pair,
    extreme_record_pair,
    score_gap_pair,
)
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class PreparedAudit:
    """A mechanism wired to its worst-case pair and audit strategy.

    Attributes
    ----------
    name:
        Registry key (also the seed-derivation name).
    mechanism:
        The mechanism instance under audit.
    pair:
        Worst-case neighbouring datasets for this family.
    epsilon:
        The claimed guarantee being verified.
    kind:
        Event family for the estimator (``"discrete"`` / ``"binned"``).
    sampler:
        Optional custom sampler ``(dataset, size, rng) -> outputs``. With
        the batched ``Mechanism.release_many`` path (stream-identical to
        sequential releases, vectorized per family) the built-in families
        no longer need one; the hook remains for mechanisms whose audit
        must bypass ``release`` entirely.
    output_key:
        Optional batch → keys projection, handed the whole batch that
        ``release_many`` (or the custom sampler) returned; see
        :func:`~repro.testing.audit.audit_mechanism`. By default the
        batch is its own key.
    note:
        One-line description of what the audit checks.
    """

    name: str
    mechanism: Mechanism
    pair: NeighborPair
    epsilon: float
    kind: str
    sampler: Callable | None = None
    output_key: Callable | None = None
    note: str = ""

    def __post_init__(self) -> None:
        check_positive(self.epsilon, name="epsilon")


def _sum_query(dataset):
    """Sum of the records — sensitivity ``high - low`` on a bounded domain."""
    return float(np.sum(np.asarray(dataset, dtype=float)))


def _count_query(dataset):
    """Number of ones — the canonical sensitivity-1 counting query."""
    return int(np.sum(np.asarray(dataset, dtype=int)))


def _match_quality(dataset, candidate):
    """Selection quality: how many records equal the candidate (Δq = 1)."""
    return float(sum(1 for record in dataset if record == candidate))


def _laplace(epsilon: float, n: int, noise_scale: float) -> PreparedAudit:
    from repro.distributions.continuous import LaplaceNoise
    from repro.mechanisms.laplace import LaplaceMechanism

    mechanism = LaplaceMechanism(_sum_query, 1.0, epsilon)
    if noise_scale != 1.0:
        mechanism.noise = LaplaceNoise(scale=mechanism.noise.scale * noise_scale)
    return PreparedAudit(
        name="laplace",
        mechanism=mechanism,
        pair=extreme_record_pair(n),
        epsilon=mechanism.epsilon,
        kind="binned",
        note="Lap(Δf/ε) noise on a saturating sum query (Theorem 2.3)",
    )


def _geometric(epsilon: float, n: int, noise_scale: float) -> PreparedAudit:
    from repro.mechanisms.geometric import GeometricMechanism

    mechanism = GeometricMechanism(_count_query, 1.0, epsilon)
    if noise_scale != 1.0:
        mechanism.alpha = float(mechanism.alpha ** (1.0 / noise_scale))
    return PreparedAudit(
        name="geometric",
        mechanism=mechanism,
        pair=bit_flip_pair(n),
        epsilon=mechanism.epsilon,
        kind="discrete",
        note="two-sided geometric noise on a counting query",
    )


def _randomized_response(
    epsilon: float, n: int, noise_scale: float
) -> PreparedAudit:
    from repro.mechanisms.randomized_response import RandomizedResponse

    mechanism = RandomizedResponse(epsilon)
    if noise_scale != 1.0:
        boosted = epsilon / noise_scale
        # Stable sigmoid, same as the mechanism's own constructor.
        mechanism.truth_probability = float(1.0 / (1.0 + np.exp(-boosted)))
    return PreparedAudit(
        name="randomized-response",
        mechanism=mechanism,
        pair=NeighborPair((0,), (1,), name="single-bit flip"),
        epsilon=mechanism.epsilon,
        kind="discrete",
        output_key=lambda bits: bits[:, 0],
        note="Warner randomization of one bit — saturates ε exactly",
    )


def _exponential(
    epsilon: float, n: int, noise_scale: float, *, calibrated: bool = True
) -> PreparedAudit:
    from repro.mechanisms.exponential import ExponentialMechanism

    mechanism = ExponentialMechanism(
        _match_quality, (0, 1), 1.0, epsilon, calibrated=calibrated
    )
    if noise_scale != 1.0:
        mechanism.scale = mechanism.scale / noise_scale
    name = "exponential" if calibrated else "exponential-paper"
    note = (
        "McSherry–Talwar selection, modern ε-DP calibration"
        if calibrated
        else "paper's raw exp(ε·q) form — Theorem 2.5's 2εΔq guarantee"
    )
    return PreparedAudit(
        name=name,
        mechanism=mechanism,
        pair=score_gap_pair(n),
        epsilon=mechanism.epsilon,
        kind="discrete",
        note=note,
    )


def _exponential_paper(
    epsilon: float, n: int, noise_scale: float
) -> PreparedAudit:
    return _exponential(epsilon, n, noise_scale, calibrated=False)


def _noisy_max(epsilon: float, n: int, noise_scale: float) -> PreparedAudit:
    from repro.distributions.continuous import GumbelNoise
    from repro.mechanisms.noisy_max import ReportNoisyMax

    mechanism = ReportNoisyMax(_match_quality, (0, 1), 1.0, epsilon)
    if noise_scale != 1.0:
        mechanism.noise = GumbelNoise(scale=mechanism.noise.scale * noise_scale)
    return PreparedAudit(
        name="noisy-max",
        mechanism=mechanism,
        pair=score_gap_pair(n),
        epsilon=mechanism.epsilon,
        kind="discrete",
        note="Gumbel report-noisy-max (= exponential mechanism's law)",
    )


def _sparse_vector(epsilon: float, n: int, noise_scale: float) -> PreparedAudit:
    from repro.distributions.continuous import LaplaceNoise
    from repro.mechanisms.sparse_vector import SparseVector

    mechanism = SparseVector(0.5, 1.0, epsilon, max_positives=1)
    if noise_scale != 1.0:
        mechanism._threshold_noise = LaplaceNoise(
            scale=mechanism._threshold_noise.scale * noise_scale
        )
        mechanism._query_noise = LaplaceNoise(
            scale=mechanism._query_noise.scale * noise_scale
        )
    queries = (_count_query, lambda data: len(data) - _count_query(data))
    base = bit_flip_pair(n)
    pair = NeighborPair(
        (base.a, queries), (base.b, queries), name=base.name + "+2 queries"
    )
    return PreparedAudit(
        name="sparse-vector",
        mechanism=mechanism,
        pair=pair,
        epsilon=mechanism.epsilon,
        kind="discrete",
        output_key=boolean_sequence_keys,
        note="AboveThreshold answer stream under the total ε₁+ε₂ budget",
    )


def _gibbs(epsilon: float, n: int, noise_scale: float) -> PreparedAudit:
    from repro.core.gibbs import GibbsEstimator
    from repro.learning.datasets import BernoulliTask
    from repro.learning.erm import PredictorGrid

    task = BernoulliTask(p=0.7)
    grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 5)
    mechanism = GibbsEstimator.from_privacy(grid, epsilon, expected_sample_size=n)
    if noise_scale != 1.0:
        mechanism.gibbs.temperature = mechanism.gibbs.temperature / noise_scale
    return PreparedAudit(
        name="gibbs",
        mechanism=mechanism,
        pair=bit_flip_pair(n),
        epsilon=mechanism.epsilon,
        kind="discrete",
        note="Theorem 4.1: the Gibbs posterior as a 2λΔ(R̂)-DP mechanism",
    )


def _local(epsilon: float, n: int, noise_scale: float) -> PreparedAudit:
    from repro.privacy.local import KRandomizedResponse

    categories = ("a", "b", "c", "d")
    mechanism = KRandomizedResponse(categories, epsilon)
    if noise_scale != 1.0:
        # Sabotage: rebuild the response probabilities for a boosted ε —
        # the report is more truthful than the claimed guarantee allows.
        boosted = epsilon / noise_scale
        k = len(categories)
        mechanism.truth_probability = float(
            np.exp(boosted) / (np.exp(boosted) + k - 1)
        )
        mechanism.lie_probability = float(1.0 / (np.exp(boosted) + k - 1))
    # Local DP: the "dataset" is one client's record; neighbours differ
    # in that single record, and p/q = e^ε makes the target exact.
    pair = NeighborPair(("a",), ("b",), name="one client, category flip")
    return PreparedAudit(
        name="local",
        mechanism=mechanism,
        pair=pair,
        epsilon=mechanism.epsilon,
        kind="discrete",
        output_key=lambda reports: [report[0] for report in reports],
        note="k-RR per-record channel — the p/q ratio saturates ε exactly",
    )


def _local_sampling(epsilon: float, n: int, noise_scale: float) -> PreparedAudit:
    from repro.local_privacy.mechanisms import L2SamplingMechanism

    mechanism = L2SamplingMechanism(3, epsilon)
    if noise_scale != 1.0:
        # Sabotage: raise the keep-probability past what ε allows.
        boosted = epsilon / noise_scale
        mechanism.keep_probability = float(1.0 / (1.0 + np.exp(-boosted)))
    record = np.array([1.0, 0.0, 0.0])
    pair = NeighborPair((record,), (-record,), name="antipodal unit records")
    return PreparedAudit(
        name="local-sampling",
        mechanism=mechanism,
        pair=pair,
        epsilon=mechanism.epsilon,
        kind="binned",
        output_key=lambda reports: reports[:, 0, 0],
        note="DJW ℓ2 sampling mechanism — halfsphere odds saturate ε",
    )


def _langevin(epsilon: float, n: int, noise_scale: float) -> PreparedAudit:
    from repro.learning.losses import LogisticLoss, TruncatedLoss
    from repro.private_learning.langevin import RegularizedExponentialMechanism

    loss = TruncatedLoss(LogisticLoss(), ceiling=1.0)
    mechanism = RegularizedExponentialMechanism(loss, 0.5, epsilon)
    if noise_scale != 1.0:
        # Like the Gibbs sabotage knob: shrinking "noise" means inflating
        # the temperature past what the claimed ε allows.
        mechanism._temperature_scale = 1.0 / noise_scale
    # Unit-norm features on the quarter circle; the neighbour flips the
    # label of the record best aligned with the first axis, which moves
    # the posterior over θ₁ the most (the audited projection).
    angles = np.linspace(0.0, np.pi / 2.0, n)
    x = tuple(
        (float(np.cos(a)), float(np.sin(a))) for a in angles
    )
    y_a = (1,) * n
    y_b = (-1,) + (1,) * (n - 1)
    pair = NeighborPair((x, y_a), (x, y_b), name="one label flipped")
    return PreparedAudit(
        name="langevin",
        mechanism=mechanism,
        pair=pair,
        epsilon=mechanism.epsilon,
        kind="binned",
        output_key=lambda theta: theta[:, 0],
        note="regularized exponential mechanism over R^d via batched MALA",
    )


_BUILDERS: dict[str, Callable[[float, int, float], PreparedAudit]] = {
    "laplace": _laplace,
    "geometric": _geometric,
    "exponential": _exponential,
    "exponential-paper": _exponential_paper,
    "randomized-response": _randomized_response,
    "noisy-max": _noisy_max,
    "sparse-vector": _sparse_vector,
    "gibbs": _gibbs,
    "langevin": _langevin,
    "local": _local,
    "local-sampling": _local_sampling,
}

#: Registry keys, in audit order.
AUDIT_FAMILIES: tuple[str, ...] = tuple(_BUILDERS)


def build_audit(
    family: str,
    *,
    epsilon: float = 1.0,
    n: int = 3,
    noise_scale: float = 1.0,
) -> PreparedAudit:
    """Build the named family's mechanism + worst-case pair, ready to audit.

    Parameters
    ----------
    family:
        One of :data:`AUDIT_FAMILIES`.
    epsilon:
        Target privacy parameter for the mechanism's construction.
    n:
        Dataset size of the neighbour pair.
    noise_scale:
        1.0 builds the mechanism as shipped; values below 1.0 deliberately
        shrink its noise so the audit *should* fail (harness self-test).
    """
    epsilon = check_positive(epsilon, name="epsilon")
    noise_scale = check_positive(noise_scale, name="noise_scale")
    if n < 1:
        raise ValidationError("n must be >= 1")
    if family not in _BUILDERS:
        known = ", ".join(AUDIT_FAMILIES)
        raise ValidationError(f"unknown audit family {family!r}; known: {known}")
    prepared = _BUILDERS[family](epsilon, int(n), noise_scale)
    if noise_scale != 1.0:
        prepared = replace(prepared, name=f"{prepared.name}(noise×{noise_scale:g})")
    return prepared


def run_audit(
    prepared: PreparedAudit,
    *,
    n_samples: int = 12_000,
    confidence: float = 0.999,
    random_state=None,
) -> StatisticalAuditReport:
    """Audit a prepared case with its registered strategy.

    Parameters
    ----------
    prepared:
        A case from :func:`build_audit`.
    n_samples:
        Draws per dataset.
    confidence:
        Certification level of a reported violation.
    random_state:
        Seed or Generator for the audit's draws.
    """
    return audit_mechanism(
        prepared.mechanism,
        prepared.pair,
        epsilon=prepared.epsilon,
        n_samples=n_samples,
        confidence=confidence,
        kind=prepared.kind,
        random_state=random_state,
        sampler=prepared.sampler,
        output_key=prepared.output_key,
        name=prepared.name,
    )
