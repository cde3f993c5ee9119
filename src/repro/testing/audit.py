"""Empirical ε estimation: event-frequency audits with certified bounds.

The estimator behind :func:`assert_dp`. Given samples of a mechanism's
output on a neighbouring pair ``(A, B)``, ε-DP bounds every event ``E`` by
``P_A(E) <= e^ε · P_B(E)`` (and symmetrically). The audit inverts this:

1. split each sample in half — a *pilot* half that chooses candidate
   events and a *test* half that measures them (choosing events on the
   data you test on would invalidate the confidence statement);
2. from the pilot, build events: output atoms plus the empirically
   over-weighted region for discrete outputs; equal-probability bins plus
   one-sided tail unions (binned likelihood-ratio events) for continuous
   outputs — binning is post-processing, so the DP inequality must still
   hold on every binned event;
3. on the test half, bound each event's probabilities with Clopper–Pearson
   intervals, Bonferroni-corrected across all events and both directions,
   and report ``max_E log(lower(P_A(E)) / upper(P_B(E)))`` — a *certified
   lower bound* on the true ε: if it exceeds the claimed ε, the claim is
   false with probability at least the audit's confidence.

A sampled audit can refute a guarantee but never prove it (Theorem 4.1-
style statements quantify over all pairs and all events); passing means
"no violation detectable at this sample size on this pair".
"""

from __future__ import annotations

import json
import math
import numbers
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DPAuditError, ValidationError
from repro.mechanisms.base import Mechanism
from repro.observability import tracer as _trace
from repro.testing.neighbors import NeighborPair
from repro.testing.statistical import DEFAULT_POLICY, StatisticalPolicy
from repro.utils.validation import (
    check_confidence,
    check_positive,
    check_random_state,
)


def clopper_pearson_interval(
    successes: int,
    trials: int,
    *,
    confidence: float = 0.999,
    method: str = "auto",
) -> tuple[float, float]:
    """Two-sided Clopper–Pearson confidence interval for a proportion.

    The exact (conservative) binomial interval: lower endpoint
    ``Beta(α/2; k, n-k+1)``, upper endpoint ``Beta(1-α/2; k+1, n-k)``,
    with the conventional endpoints 0 at ``k = 0`` and 1 at ``k = n``.
    The Beta quantiles come from :func:`scipy.special.betaincinv`, which
    gives the same doubles as ``scipy.stats.beta.ppf`` (both are Boost's
    ``ibeta_inv``) without importing :mod:`scipy.stats`.

    Parameters
    ----------
    successes:
        Observed event count ``k``, an integer (``bool`` is refused).
    trials:
        Number of draws ``n``, an integer (``bool`` is refused).
    confidence:
        Two-sided coverage level ``1 - α``.
    method:
        ``"beta"`` (the exact interval above), ``"hoeffding"``
        (distribution-free ``p̂ ± sqrt(log(2/α) / 2n)``), or ``"auto"``,
        which means ``"beta"``.
    """
    for name, count in (("successes", successes), ("trials", trials)):
        if isinstance(count, bool) or not isinstance(count, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {count!r}")
    k, n = int(successes), int(trials)
    if n < 1:
        raise ValidationError("trials must be >= 1")
    if not 0 <= k <= n:
        raise ValidationError("successes must lie in [0, trials]")
    confidence = check_confidence(confidence, name="confidence")
    alpha = 1.0 - confidence
    if method in ("auto", "beta"):
        from scipy.special import betaincinv

        low = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2))
        high = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1 - alpha / 2))
    elif method == "hoeffding":
        width = math.sqrt(math.log(2.0 / alpha) / (2.0 * n))
        low = max(0.0, k / n - width)
        high = min(1.0, k / n + width)
    else:
        raise ValidationError(f"unknown method {method!r}")
    return (low, high)


@dataclass
class StatisticalAuditReport:
    """Outcome of one statistical ε audit on one neighbour pair.

    Attributes
    ----------
    mechanism:
        Display name of the audited mechanism.
    pair_name:
        Label of the neighbour pair probed.
    claimed_epsilon:
        The guarantee under test.
    epsilon_lower_bound:
        Certified lower bound on the true ε at ``confidence`` (0.0 when no
        event separates the two laws).
    point_estimate:
        Smoothed plug-in estimate of the worst log-ratio (uncertified;
        for diagnostics only).
    confidence:
        Certification level, after Bonferroni correction across all events
        and both directions.
    n_samples:
        Draws per dataset (pilot + test halves together).
    n_events:
        Events tested on the test half.
    worst_event:
        Label of the event achieving the certified bound.
    kind:
        ``"discrete"`` (atom events) or ``"binned"`` (continuous outputs).
    satisfied:
        ``epsilon_lower_bound <= claimed_epsilon + tolerance``.
    details:
        Extras (per-event tables capped for readability).
    """

    mechanism: str
    pair_name: str
    claimed_epsilon: float
    epsilon_lower_bound: float
    point_estimate: float
    confidence: float
    n_samples: int
    n_events: int
    worst_event: str
    kind: str
    satisfied: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serializable representation (used by ``repro audit``)."""
        payload = {
            "mechanism": self.mechanism,
            "pair": self.pair_name,
            "claimed_epsilon": self.claimed_epsilon,
            "epsilon_lower_bound": self.epsilon_lower_bound,
            "point_estimate": self.point_estimate,
            "confidence": self.confidence,
            "n_samples": self.n_samples,
            "n_events": self.n_events,
            "worst_event": self.worst_event,
            "kind": self.kind,
            "satisfied": self.satisfied,
        }
        json.dumps(payload)  # fail loudly here, not in the CLI
        return payload

    def __str__(self) -> str:
        verdict = "ok" if self.satisfied else "VIOLATION"
        return (
            f"audit[{self.kind}] {self.mechanism} on {self.pair_name}: "
            f"certified ε ≥ {self.epsilon_lower_bound:.4f} "
            f"(claimed {self.claimed_epsilon:.4g}, point est. "
            f"{self.point_estimate:.4f}, {self.n_samples} samples/side, "
            f"{self.n_events} events) — {verdict}"
        )


def _default_key(output):
    """Hashable representative of one mechanism output."""
    if isinstance(output, np.ndarray):
        return tuple(output.tolist())
    if isinstance(output, (list, tuple)):
        return tuple(output)
    if isinstance(output, (np.floating, np.integer)):
        return output.item()
    return output


def _draw_outputs(
    mechanism, dataset, size, rng, sampler, output_key
) -> list:
    """``size`` keyed outputs of ``mechanism`` on ``dataset``.

    Without a custom ``sampler`` the draws go through the mechanism's
    batched ``release_many`` (vectorized kernels where the family has
    one, a serial loop otherwise) — stream-identical to ``size``
    sequential ``release`` calls, so audit results are unchanged while
    audit-scale sampling runs at numpy speed.
    """
    key = output_key or _default_key
    if sampler is not None:
        raw = sampler(dataset, size, rng)
    else:
        raw = mechanism.release_many(dataset, size, random_state=rng)
    if isinstance(raw, np.ndarray):
        raw = raw.tolist()
    outputs = list(raw)
    if len(outputs) != size:
        raise ValidationError(
            f"sampler returned {len(outputs)} outputs, expected {size}"
        )
    return [key(o) for o in outputs]


def _resolve_kind(kind: str, keys_a, keys_b, n_samples: int) -> str:
    """Choose discrete vs binned events for ``kind='auto'``."""
    if kind in ("discrete", "binned"):
        return kind
    if kind != "auto":
        raise ValidationError("kind must be 'auto', 'discrete', or 'binned'")
    distinct = len(set(keys_a) | set(keys_b))
    numeric = all(
        isinstance(k, (int, float)) and not isinstance(k, bool)
        for k in keys_a[:64] + keys_b[:64]
    )
    if numeric and distinct > max(32, n_samples // 50):
        return "binned"
    return "discrete"


def _discrete_events(pilot_a, pilot_b, max_events: int):
    """Candidate events from the pilot halves: atoms + tilted regions.

    Returns ``(labels, membership_fn)`` where ``membership_fn(keys)`` maps
    a keyed sample to a ``(n_events, len(keys))`` boolean matrix.
    """
    counts_a = Counter(pilot_a)
    counts_b = Counter(pilot_b)
    support = sorted(set(counts_a) | set(counts_b), key=repr)
    total_a = max(1, len(pilot_a))
    total_b = max(1, len(pilot_b))

    def gap(atom):
        return abs(
            counts_a.get(atom, 0) / total_a - counts_b.get(atom, 0) / total_b
        )

    atoms = sorted(support, key=gap, reverse=True)[:max_events]
    over = frozenset(
        atom
        for atom in support
        if counts_a.get(atom, 0) / total_a > counts_b.get(atom, 0) / total_b
    )
    under = frozenset(
        atom
        for atom in support
        if counts_a.get(atom, 0) / total_a < counts_b.get(atom, 0) / total_b
    )
    events: list[tuple[str, frozenset]] = [
        (f"{{{atom!r}}}", frozenset([atom])) for atom in atoms
    ]
    if over and over != frozenset(support):
        events.append(("pilot-over-weighted region", over))
    if under and under != frozenset(support):
        events.append(("pilot-under-weighted region", under))
    labels = [label for label, _ in events]
    sets = [s for _, s in events]

    def membership(keys: list) -> np.ndarray:
        matrix = np.zeros((len(sets), len(keys)), dtype=bool)
        for row, atom_set in enumerate(sets):
            matrix[row] = [k in atom_set for k in keys]
        return matrix

    return labels, membership


def _binned_events(pilot_a, pilot_b, n_bins: int):
    """Bins + one-sided tail unions from the pooled pilot halves.

    Bin edges are equal-probability quantiles of the pooled pilot sample;
    events are every bin plus every left tail ``(-inf, edge)`` and right
    tail ``[edge, inf)`` — the binned analogue of one-sided likelihood-
    ratio (threshold) tests, which catch location shifts that no single
    narrow bin certifies on its own.
    """
    pooled = np.asarray(list(pilot_a) + list(pilot_b), dtype=float)
    if float(np.ptp(pooled)) == 0.0:
        raise ValidationError(
            "continuous audit found a constant pilot sample; "
            "use kind='discrete'"
        )
    quantiles = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    edges = np.unique(np.quantile(pooled, quantiles))
    labels: list[str] = []
    events: list[tuple[int, int]] = []  # half-open bin-index ranges
    n_cells = edges.size + 1
    for i in range(n_cells):
        lo = f"{edges[i - 1]:.4g}" if i > 0 else "-inf"
        hi = f"{edges[i]:.4g}" if i < edges.size else "inf"
        labels.append(f"bin [{lo}, {hi})")
        events.append((i, i + 1))
    for i in range(1, n_cells):
        labels.append(f"x < {edges[i - 1]:.4g}")
        events.append((0, i))
        labels.append(f"x >= {edges[i - 1]:.4g}")
        events.append((i, n_cells))

    def membership(keys: list) -> np.ndarray:
        cells = np.searchsorted(edges, np.asarray(keys, dtype=float), side="right")
        matrix = np.zeros((len(events), len(keys)), dtype=bool)
        for row, (lo, hi) in enumerate(events):
            matrix[row] = (cells >= lo) & (cells < hi)
        return matrix

    return labels, membership


def estimate_epsilon_lower_bound(
    outputs_a: Sequence,
    outputs_b: Sequence,
    *,
    confidence: float = 0.999,
    kind: str = "auto",
    n_bins: int = 16,
    max_events: int = 64,
    method: str = "auto",
) -> dict:
    """Certified lower bound on ε from two output samples.

    Implements the split/event/Clopper–Pearson scheme in the module
    docstring and returns a dict with keys ``epsilon_lower_bound``,
    ``point_estimate``, ``worst_event``, ``n_events``, ``kind``, and
    ``per_event`` (the worst few events, for diagnostics).

    Parameters
    ----------
    outputs_a, outputs_b:
        Hashable (or float, for binned audits) outputs drawn i.i.d. from
        the mechanism on each dataset of a neighbouring pair.
    confidence:
        Overall certification level; Bonferroni-divided internally across
        events and directions.
    kind:
        ``"discrete"``, ``"binned"``, or ``"auto"``.
    n_bins:
        Bin count for binned audits.
    max_events:
        Cap on atom events for discrete audits.
    method:
        Interval method forwarded to :func:`clopper_pearson_interval`.
    """
    confidence = check_confidence(confidence, name="confidence")
    keys_a = list(outputs_a)
    keys_b = list(outputs_b)
    n = min(len(keys_a), len(keys_b))
    if n < 4:
        raise ValidationError("need at least 4 samples per dataset")
    # Strided pilot/test split: valid for i.i.d. draws like any fixed
    # index split, and unbiased even if a caller hands in sorted outputs.
    pilot_a, test_a = keys_a[0:n:2], keys_a[1:n:2]
    pilot_b, test_b = keys_b[0:n:2], keys_b[1:n:2]

    resolved = _resolve_kind(kind, keys_a, keys_b, n)
    if resolved == "discrete":
        labels, membership = _discrete_events(pilot_a, pilot_b, max_events)
    else:
        labels, membership = _binned_events(pilot_a, pilot_b, n_bins)

    counts_a = membership(test_a).sum(axis=1)
    counts_b = membership(test_b).sum(axis=1)
    n_test_a, n_test_b = len(test_a), len(test_b)
    n_events = len(labels)
    # Bonferroni over every event in both directions: each of the 2·k
    # one-sided comparisons runs at level (1-confidence) / (2 k), so the
    # chance that ANY certified bound overshoots the truth is ≤ 1-confidence.
    alpha_each = (1.0 - confidence) / (2.0 * n_events)
    per_comparison_confidence = 1.0 - alpha_each

    best = 0.0
    best_label = "(none)"
    point = 0.0
    rows = []
    for label, k_a, k_b in zip(labels, counts_a, counts_b):
        low_a, high_a = clopper_pearson_interval(
            int(k_a), n_test_a, confidence=per_comparison_confidence, method=method
        )
        low_b, high_b = clopper_pearson_interval(
            int(k_b), n_test_b, confidence=per_comparison_confidence, method=method
        )
        bounds = []
        if low_a > 0 and high_b > 0:
            bounds.append(math.log(low_a / high_b))
        if low_b > 0 and high_a > 0:
            bounds.append(math.log(low_b / high_a))
        certified = max(bounds) if bounds else 0.0
        # Smoothed plug-in estimate (add-1/2), uncertified diagnostics.
        p_hat = (k_a + 0.5) / (n_test_a + 1.0)
        q_hat = (k_b + 0.5) / (n_test_b + 1.0)
        observed = abs(math.log(p_hat / q_hat))
        point = max(point, observed)
        rows.append((certified, observed, label, int(k_a), int(k_b)))
        if certified > best:
            best = certified
            best_label = label

    rows.sort(reverse=True)
    return {
        "epsilon_lower_bound": float(best),
        "point_estimate": float(point),
        "worst_event": best_label,
        "n_events": n_events,
        "kind": resolved,
        "per_event": [
            {
                "event": label,
                "certified": certified,
                "observed": observed,
                "count_a": k_a,
                "count_b": k_b,
            }
            for certified, observed, label, k_a, k_b in rows[:8]
        ],
    }


def audit_mechanism(
    mechanism: Mechanism,
    pair: NeighborPair,
    *,
    epsilon: float | None = None,
    n_samples: int = 12_000,
    confidence: float = 0.999,
    kind: str = "auto",
    n_bins: int = 16,
    max_events: int = 64,
    tolerance: float = 1e-9,
    random_state=None,
    sampler: Callable | None = None,
    output_key: Callable | None = None,
    name: str | None = None,
) -> StatisticalAuditReport:
    """Run one statistical ε audit of ``mechanism`` on ``pair``.

    Parameters
    ----------
    mechanism:
        Any :class:`~repro.mechanisms.Mechanism` (or object exposing
        ``release(dataset, random_state=...)`` plus ``privacy``).
    pair:
        The neighbouring datasets to probe (see
        :mod:`repro.testing.neighbors` for worst-case generators).
    epsilon:
        Claimed guarantee; defaults to ``mechanism.privacy.epsilon``.
    n_samples:
        Draws per dataset (half pilot, half test).
    confidence:
        Certification level of a reported violation.
    kind:
        Event family: ``"discrete"``, ``"binned"``, or ``"auto"``.
    n_bins:
        Bin count for binned audits.
    max_events:
        Atom-event cap for discrete audits.
    tolerance:
        Additive slack on the claim when deciding ``satisfied``.
    random_state:
        Seed or Generator; fix it for a deterministic audit.
    sampler:
        Optional fast path ``sampler(dataset, size, rng) -> outputs``
        replacing a Python ``release`` loop; must draw from the same
        output law as ``mechanism.release``.
    output_key:
        Maps one raw output to a hashable key (arrays become tuples by
        default).
    name:
        Display name for the report (defaults to the class name).
    """
    if epsilon is None:
        epsilon = mechanism.privacy.epsilon
    epsilon = check_positive(epsilon, name="epsilon")
    if n_samples < 8:
        raise ValidationError("n_samples must be >= 8")
    confidence = check_confidence(confidence, name="confidence")
    rng = check_random_state(random_state)
    audit_name = name or type(mechanism).__name__
    with _trace.span(
        f"audit:{audit_name}", pair=pair.name or "(unnamed pair)"
    ):
        outputs_a = _draw_outputs(
            mechanism, pair.a, n_samples, rng, sampler, output_key
        )
        outputs_b = _draw_outputs(
            mechanism, pair.b, n_samples, rng, sampler, output_key
        )
        tracer = _trace.current()
        if tracer is not None:
            tracer.count("audit.trials")
            tracer.count("audit.draws", 2 * n_samples)
        estimate = estimate_epsilon_lower_bound(
            outputs_a,
            outputs_b,
            confidence=confidence,
            kind=kind,
            n_bins=n_bins,
            max_events=max_events,
        )
    bound = estimate["epsilon_lower_bound"]
    return StatisticalAuditReport(
        mechanism=audit_name,
        pair_name=pair.name or "(unnamed pair)",
        claimed_epsilon=float(epsilon),
        epsilon_lower_bound=bound,
        point_estimate=estimate["point_estimate"],
        confidence=confidence,
        n_samples=int(n_samples),
        n_events=estimate["n_events"],
        worst_event=estimate["worst_event"],
        kind=estimate["kind"],
        satisfied=bool(bound <= float(epsilon) + tolerance),
        details={"per_event": estimate["per_event"]},
    )


def assert_dp(
    mechanism: Mechanism,
    pair: NeighborPair,
    *,
    epsilon: float | None = None,
    policy: StatisticalPolicy | None = None,
    name: str | None = None,
    **audit_options,
) -> StatisticalAuditReport:
    """Assert that a mechanism honours its claimed ε on a neighbour pair.

    The test-facing entry point: runs :func:`audit_mechanism` under the
    statistical policy (derived seeds, policy sample size and confidence)
    and retries a certified failure up to ``policy.max_retries`` times with
    fresh derived seeds before raising — see
    :mod:`repro.testing.statistical` for why that bounds the flake rate at
    ``(1 - confidence)^(retries + 1)`` without masking real violations.

    Parameters
    ----------
    mechanism:
        The mechanism under audit.
    pair:
        Neighbouring datasets to probe.
    epsilon:
        Claimed guarantee (defaults to the mechanism's own spec).
    policy:
        Statistical policy; :data:`~repro.testing.statistical.DEFAULT_POLICY`
        when omitted.
    name:
        Stable name used for seed derivation and reporting (defaults to
        the mechanism class name).
    **audit_options:
        Forwarded to :func:`audit_mechanism` (``kind``, ``sampler``, ...).

    Returns
    -------
    StatisticalAuditReport
        The first satisfying report.

    Raises
    ------
    DPAuditError
        If every attempt certifies ``measured ε > claimed ε``; the final
        report is attached as ``error.report``.
    """
    if epsilon is not None:
        epsilon = check_positive(epsilon, name="epsilon")
    policy = policy or DEFAULT_POLICY
    audit_name = name or type(mechanism).__name__
    audit_options.setdefault("n_samples", policy.n_samples)
    audit_options.setdefault("confidence", policy.confidence)
    audit_options.setdefault("n_bins", policy.n_bins)
    audit_options.setdefault("tolerance", policy.tolerance)
    report = None
    for attempt in range(policy.max_retries + 1):
        if attempt:
            tracer = _trace.current()
            if tracer is not None:
                tracer.count("audit.retries")
        seed = policy.seed_for(audit_name, attempt)
        report = audit_mechanism(
            mechanism,
            pair,
            epsilon=epsilon,
            random_state=seed,
            name=audit_name,
            **audit_options,
        )
        if report.satisfied:
            return report
    error = DPAuditError(
        f"DP audit failed after {policy.max_retries + 1} attempt(s): {report}"
    )
    error.report = report
    raise error
