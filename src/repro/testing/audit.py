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

import itertools
import json
import math
import numbers
from collections.abc import Callable, Hashable, Sequence
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
    low, high = _clopper_pearson_endpoints(np.array([k]), n, confidence, method)
    return (float(low[0]), float(high[0]))


def _clopper_pearson_endpoints(
    successes: np.ndarray, trials: int, confidence: float, method: str
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`clopper_pearson_interval` over a vector of counts, unchecked.

    The ``"beta"`` endpoints of every count come from one ``betaincinv``
    call. It is an elementwise ufunc, so each endpoint has the same bits
    as a scalar call on that count.
    """
    k = np.asarray(successes)
    alpha = 1.0 - confidence
    if method in ("auto", "beta"):
        from scipy.special import betaincinv

        ends = betaincinv(
            np.concatenate((k, k + 1)),
            np.concatenate((trials - k + 1, trials - k)),
            np.repeat((alpha / 2, 1 - alpha / 2), len(k)),
        )
        low = np.where(k == 0, 0.0, ends[: len(k)])
        high = np.where(k == trials, 1.0, ends[len(k):])
    elif method == "hoeffding":
        width = math.sqrt(math.log(2.0 / alpha) / (2.0 * trials))
        low = np.maximum(0.0, k / trials - width)
        high = np.minimum(1.0, k / trials + width)
    else:
        raise ValidationError(f"unknown method {method!r}")
    return low, high


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


@dataclass(frozen=True)
class CodedKeys:
    """Keys of a batch whose outputs no regular array can hold.

    ``codes[i]`` is a canonical integer for output ``i``: equal outputs get
    equal codes in every batch, so the codes of two batches compare
    directly. ``decode(code)`` is the hashable key the code stands for; it
    labels the code's atom event.
    """

    codes: np.ndarray
    decode: Callable[[int], Hashable]

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index: slice) -> CodedKeys:
        return CodedKeys(self.codes[index], self.decode)


def _decode_boolean_sequence(code: int) -> tuple:
    """The boolean tuple that :func:`boolean_sequence_keys` coded as ``code``."""
    return tuple(bool(code >> j & 1) for j in range(code.bit_length() - 1))


def boolean_sequence_keys(outputs) -> CodedKeys:
    """Batch key of variable-length boolean sequences (answer streams).

    Sequence ``s`` gets the code ``2^len(s) + sum_j bool(s[j]) 2^j``: the
    leading bit records the length, so ``(False,)`` and ``(False, False)``
    differ. A code decodes to ``tuple(bool(a) for a in s)``.

    Parameters
    ----------
    outputs:
        A batch of sequences, at most 62 elements long each.
    """
    lengths = np.fromiter(map(len, outputs), dtype=np.int64, count=len(outputs))
    longest = int(lengths.max(initial=0))
    if longest > 62:
        raise ValidationError(
            f"boolean sequences longer than 62 cannot be coded, got {longest}"
        )
    flat = np.fromiter(
        itertools.chain.from_iterable(outputs), dtype=bool, count=int(lengths.sum())
    )
    bits = np.zeros((lengths.size, longest), dtype=np.int64)
    bits[np.arange(longest) < lengths[:, None]] = flat
    codes = (bits << np.arange(longest)).sum(axis=1) + (1 << lengths)
    return CodedKeys(codes, _decode_boolean_sequence)


def _draw_outputs(
    mechanism, dataset, size, rng, sampler, output_key
):
    """The keys of ``size`` outputs of ``mechanism`` on ``dataset``.

    Without a custom ``sampler`` the draws go through the mechanism's
    batched ``release_many`` (vectorized kernels where the family has
    one, a serial loop otherwise) — stream-identical to ``size``
    sequential ``release`` calls. ``output_key`` maps the whole batch to
    its keys; without one the batch is its own key (see
    :func:`_batch_keys`).
    """
    if sampler is not None:
        raw = sampler(dataset, size, rng)
    else:
        raw = mechanism.release_many(dataset, size, random_state=rng)
    if not isinstance(raw, np.ndarray):
        raw = list(raw)
    if len(raw) != size:
        raise ValidationError(
            f"sampler returned {len(raw)} outputs, expected {size}"
        )
    return _batch_keys(raw) if output_key is None else output_key(raw)


def _batch_keys(batch):
    """A batch as its own keys: an array as it is; a list as an array when
    numpy holds it as numbers or booleans, else as hashable outputs."""
    if isinstance(batch, np.ndarray):
        return batch
    try:
        keys = np.asarray(batch)
    except ValueError:  # ragged outputs
        return batch
    return keys if keys.dtype.kind in "biuf" else batch


def _as_keys(keys_a, keys_b):
    """Both samples in one key form: arrays, coded keys, or hashable lists.

    Unless both sides are arrays, each side is read as a list of its
    elements (an array's elements are numpy scalars then).
    """
    if isinstance(keys_a, CodedKeys) or isinstance(keys_b, CodedKeys):
        if not (isinstance(keys_a, CodedKeys) and isinstance(keys_b, CodedKeys)):
            raise ValidationError("coded keys can only be compared with coded keys")
        return keys_a, keys_b
    if isinstance(keys_a, np.ndarray) and isinstance(keys_b, np.ndarray):
        if keys_a.ndim not in (1, 2) or keys_a.ndim != keys_b.ndim:
            raise ValidationError(
                "key arrays must both be 1-D (one key per output) or 2-D "
                "(one key row per output)"
            )
        return keys_a, keys_b
    return list(keys_a), list(keys_b)


def _resolve_kind(kind: str, keys_a, keys_b, n_samples: int) -> str:
    """Choose discrete vs binned events for ``kind='auto'``."""
    if kind in ("discrete", "binned"):
        return kind
    if kind != "auto":
        raise ValidationError("kind must be 'auto', 'discrete', or 'binned'")
    if isinstance(keys_a, CodedKeys):
        return "discrete"
    if isinstance(keys_a, np.ndarray):
        if keys_a.ndim != 1 or keys_a.dtype.kind not in "iuf":
            return "discrete"
        pooled = np.concatenate((keys_a, keys_b))
        distinct = np.unique(pooled, equal_nan=False).size
    else:
        if not all(
            isinstance(k, (int, float)) and not isinstance(k, bool)
            for k in keys_a[:64] + keys_b[:64]
        ):
            return "discrete"
        distinct = len(set(keys_a) | set(keys_b))
    return "binned" if distinct > max(32, n_samples // 50) else "discrete"


def _atoms(parts):
    """Atom index of every key of ``parts`` and the label of each atom.

    Atoms are numbered over the pooled parts; a list's atom takes its
    label from its first key, so the pilot halves come first.
    """
    if isinstance(parts[0], list):
        index: dict = {}
        ids = [index.setdefault(key, len(index)) for part in parts for key in part]
        labels = list(index)
        ids = np.array(ids, dtype=np.intp)
    else:
        coded = isinstance(parts[0], CodedKeys)
        pooled = np.concatenate([part.codes if coded else part for part in parts])
        atoms, ids = np.unique(
            pooled,
            return_inverse=True,
            axis=0 if pooled.ndim == 2 else None,
            equal_nan=False,
        )
        if coded:
            labels = [parts[0].decode(code) for code in atoms.tolist()]
        elif atoms.ndim == 2:
            labels = [tuple(row) for row in atoms.tolist()]
        else:
            labels = atoms.tolist()
    bounds = np.cumsum([len(part) for part in parts])[:-1]
    return labels, np.split(ids, bounds)


def _discrete_events(keys_a, keys_b, n: int, max_events: int):
    """Candidate events from the pilot halves: atoms + tilted regions.

    Returns ``(labels, test_counts_a, test_counts_b)``: each event's label
    and how many keys of each test half fall in it.
    """
    # Strided pilot/test split: valid for i.i.d. draws like any fixed
    # index split, and unbiased even if a caller hands in sorted outputs.
    labels, (pilot_a, pilot_b, test_a, test_b) = _atoms(
        [keys[start:n:2] for start in (0, 1) for keys in (keys_a, keys_b)]
    )
    n_atoms = len(labels)
    counts_a = np.bincount(pilot_a, minlength=n_atoms)
    counts_b = np.bincount(pilot_b, minlength=n_atoms)
    share_a = counts_a / max(1, len(pilot_a))
    share_b = counts_b / max(1, len(pilot_b))
    support = sorted(
        np.flatnonzero(counts_a + counts_b).tolist(), key=lambda i: repr(labels[i])
    )
    gaps = np.abs(share_a - share_b).tolist()
    atoms = sorted(support, key=gaps.__getitem__, reverse=True)[:max_events]
    over = share_a > share_b
    under = share_a < share_b
    tests_a = np.bincount(test_a, minlength=n_atoms)
    tests_b = np.bincount(test_b, minlength=n_atoms)
    events = [f"{{{labels[atom]!r}}}" for atom in atoms]
    rows_a = tests_a[atoms].tolist()
    rows_b = tests_b[atoms].tolist()
    for label, region in (
        ("pilot-over-weighted region", over),
        ("pilot-under-weighted region", under),
    ):
        if 0 < np.count_nonzero(region) < len(support):
            events.append(label)
            rows_a.append(int(tests_a[region].sum()))
            rows_b.append(int(tests_b[region].sum()))
    return events, np.array(rows_a), np.array(rows_b)


def _numeric(keys) -> np.ndarray:
    if isinstance(keys, CodedKeys):
        raise ValidationError("binned events need numeric keys, not coded ones")
    values = np.asarray(keys, dtype=float)
    if values.ndim != 1:
        raise ValidationError("binned events need one numeric key per output")
    return values


def _binned_events(keys_a, keys_b, n: int, n_bins: int):
    """Bins + one-sided tail unions from the pooled pilot halves.

    Bin edges are equal-probability quantiles of the pooled pilot sample;
    events are every bin plus every left tail ``(-inf, edge)`` and right
    tail ``[edge, inf)`` — the binned analogue of one-sided likelihood-
    ratio (threshold) tests, which catch location shifts that no single
    narrow bin certifies on its own. Returns ``(labels, test_counts_a,
    test_counts_b)``.
    """
    values_a, values_b = _numeric(keys_a), _numeric(keys_b)
    pooled = np.concatenate((values_a[0:n:2], values_b[0:n:2]))
    if float(np.ptp(pooled)) == 0.0:
        raise ValidationError(
            "continuous audit found a constant pilot sample; "
            "use kind='discrete'"
        )
    quantiles = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    edges = np.unique(np.quantile(pooled, quantiles))
    labels: list[str] = []
    n_cells = edges.size + 1
    for i in range(n_cells):
        lo = f"{edges[i - 1]:.4g}" if i > 0 else "-inf"
        hi = f"{edges[i]:.4g}" if i < edges.size else "inf"
        labels.append(f"bin [{lo}, {hi})")
    for i in range(1, n_cells):
        labels.append(f"x < {edges[i - 1]:.4g}")
        labels.append(f"x >= {edges[i - 1]:.4g}")

    def counts(values: np.ndarray) -> np.ndarray:
        cells = np.bincount(
            np.searchsorted(edges, values[1:n:2], side="right"), minlength=n_cells
        )
        # Each left tail counts the cells below its edge; its right tail
        # counts the rest. Events alternate left, right per edge.
        below = np.cumsum(cells)[:-1]
        tails = np.column_stack((below, cells.sum() - below)).ravel()
        return np.concatenate((cells, tails))

    return labels, counts(values_a), counts(values_b)


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
        Keys of outputs drawn i.i.d. from the mechanism on each dataset
        of a neighbouring pair: 1-D arrays (one key per output), 2-D
        arrays (one key row per output), :class:`CodedKeys`, or
        sequences of hashable keys (numbers, for binned audits).
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
        Interval method, as for :func:`clopper_pearson_interval`.
    """
    confidence = check_confidence(confidence, name="confidence")
    keys_a, keys_b = _as_keys(outputs_a, outputs_b)
    n = min(len(keys_a), len(keys_b))
    if n < 4:
        raise ValidationError("need at least 4 samples per dataset")
    resolved = _resolve_kind(kind, keys_a, keys_b, n)
    if resolved == "discrete":
        labels, counts_a, counts_b = _discrete_events(keys_a, keys_b, n, max_events)
    else:
        labels, counts_a, counts_b = _binned_events(keys_a, keys_b, n, n_bins)
    n_test = n // 2
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
    lows_a, highs_a = _clopper_pearson_endpoints(
        counts_a, n_test, per_comparison_confidence, method
    )
    lows_b, highs_b = _clopper_pearson_endpoints(
        counts_b, n_test, per_comparison_confidence, method
    )
    for label, k_a, k_b, low_a, high_a, low_b, high_b in zip(
        labels, counts_a, counts_b,
        lows_a.tolist(), highs_a.tolist(), lows_b.tolist(), highs_b.tolist(),
    ):
        bounds = []
        if low_a > 0 and high_b > 0:
            bounds.append(math.log(low_a / high_b))
        if low_b > 0 and high_a > 0:
            bounds.append(math.log(low_b / high_a))
        certified = max(bounds) if bounds else 0.0
        # Smoothed plug-in estimate (add-1/2), uncertified diagnostics.
        p_hat = (k_a + 0.5) / (n_test + 1.0)
        q_hat = (k_b + 0.5) / (n_test + 1.0)
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
        Maps a whole batch of outputs to its keys: a 1-D array (one key
        per output, e.g. a column of an array batch), a 2-D array (one
        key row per output), :class:`CodedKeys` (see
        :func:`boolean_sequence_keys`), or a sequence of hashable keys.
        By default an array batch is its own key, and so is a list
        batch, as an array if numpy holds it as numbers or booleans.
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
