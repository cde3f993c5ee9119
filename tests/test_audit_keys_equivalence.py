"""The array-native auditor equals the per-sample one it replaced.

``repro.testing.audit`` keys a whole ``release_many`` batch at once (a
column selection, or integer codes for ragged answer lists) and counts
events with ``np.unique`` and ``np.bincount``. Before, it turned each
batch into a list, keyed every output with a Python call and counted with
``Counter`` and one membership test per output and event. This file keeps
verbatim copies of that per-sample auditor (``reference_*``) and of the
registry's per-output keys, and requires:

* every family's report, ``to_dict()`` and ``details["per_event"]``, to be
  equal at seeds 0 and 7 and at noise scales 1 and 0.5, with the new audit
  drawing from the same generator states as the old one;
* ``estimate_epsilon_lower_bound`` on plain lists (ints, floats, mixed
  numbers, strings, bool tuples, ragged tuples, ragged lists) to return
  the same dict as the reference under ``kind`` ``auto``, ``discrete`` and
  ``binned``, or to raise where the reference raises.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.testing import (
    AUDIT_FAMILIES,
    StatisticalAuditReport,
    build_audit,
    clopper_pearson_interval,
    derive_seed,
    estimate_epsilon_lower_bound,
    run_audit,
)
from repro.utils.validation import check_confidence, check_random_state

# ---------------------------------------------------------------------------
# Verbatim copies of the per-sample auditor (only the names are prefixed).
# ---------------------------------------------------------------------------


def reference_default_key(output):
    """Hashable representative of one mechanism output."""
    if isinstance(output, np.ndarray):
        return tuple(output.tolist())
    if isinstance(output, (list, tuple)):
        return tuple(output)
    if isinstance(output, (np.floating, np.integer)):
        return output.item()
    return output


def reference_draw_outputs(
    mechanism, dataset, size, rng, sampler, output_key
) -> list:
    """``size`` keyed outputs of ``mechanism`` on ``dataset``.

    Without a custom ``sampler`` the draws go through the mechanism's
    batched ``release_many`` (vectorized kernels where the family has
    one, a serial loop otherwise) — stream-identical to ``size``
    sequential ``release`` calls, so audit results are unchanged while
    audit-scale sampling runs at numpy speed.
    """
    key = output_key or reference_default_key
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


def reference_resolve_kind(kind: str, keys_a, keys_b, n_samples: int) -> str:
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


def reference_discrete_events(pilot_a, pilot_b, max_events: int):
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


def reference_binned_events(pilot_a, pilot_b, n_bins: int):
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


def reference_estimate_epsilon_lower_bound(
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

    resolved = reference_resolve_kind(kind, keys_a, keys_b, n)
    if resolved == "discrete":
        labels, membership = reference_discrete_events(pilot_a, pilot_b, max_events)
    else:
        labels, membership = reference_binned_events(pilot_a, pilot_b, n_bins)

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


#: The registry's per-output keys before batch keys (``None``: default).
REFERENCE_KEYS = {
    "laplace": None,
    "geometric": None,
    "exponential": None,
    "exponential-paper": None,
    "randomized-response": lambda bits: int(bits[0]),
    "noisy-max": None,
    "sparse-vector": lambda answers: tuple(bool(a) for a in answers),
    "gibbs": None,
    "langevin": lambda theta: float(theta[0]),
    "local": lambda reports: reports[0],
    "local-sampling": lambda reports: float(reports[0][0]),
}

SAMPLES = 12_000


def reference_audit(prepared, family, n_samples, random_state):
    """``run_audit`` through the per-sample auditor, untraced."""
    rng = check_random_state(random_state)
    key = REFERENCE_KEYS[family]
    outputs_a = reference_draw_outputs(
        prepared.mechanism, prepared.pair.a, n_samples, rng, prepared.sampler, key
    )
    outputs_b = reference_draw_outputs(
        prepared.mechanism, prepared.pair.b, n_samples, rng, prepared.sampler, key
    )
    estimate = reference_estimate_epsilon_lower_bound(
        outputs_a, outputs_b, confidence=0.999, kind=prepared.kind
    )
    bound = estimate["epsilon_lower_bound"]
    return StatisticalAuditReport(
        mechanism=prepared.name,
        pair_name=prepared.pair.name or "(unnamed pair)",
        claimed_epsilon=float(prepared.epsilon),
        epsilon_lower_bound=bound,
        point_estimate=estimate["point_estimate"],
        confidence=0.999,
        n_samples=int(n_samples),
        n_events=estimate["n_events"],
        worst_event=estimate["worst_event"],
        kind=estimate["kind"],
        satisfied=bool(bound <= float(prepared.epsilon) + 1e-9),
        details={"per_event": estimate["per_event"]},
    )


def record_batches(mechanism) -> list:
    """Wrap ``mechanism.release_many`` (the instance attribute) so that
    each call appends ``(dataset, size, generator states before and
    after, batch)``."""
    calls = []
    release_many = mechanism.release_many

    def recording(dataset, size, random_state=None):
        before = random_state.bit_generator.state
        batch = release_many(dataset, size, random_state=random_state)
        calls.append((dataset, size, before, random_state.bit_generator.state, batch))
        return batch

    mechanism.release_many = recording
    return calls


def replay_batches(mechanism, calls) -> None:
    """Hand the recorded batches back, in order, to calls that must start
    from the recorded generator states; each leaves the generator where
    the recorded call left it."""
    pending = list(calls)

    def replaying(dataset, size, random_state=None):
        want_dataset, want_size, before, after, batch = pending.pop(0)
        assert dataset is want_dataset and size == want_size
        assert random_state.bit_generator.state == before
        random_state.bit_generator.state = after
        return batch

    mechanism.release_many = replaying


def _report(report) -> dict:
    return {**report.to_dict(), "per_event": report.details["per_event"]}


@pytest.mark.parametrize("noise_scale", [1.0, 0.5])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("family", AUDIT_FAMILIES)
def test_family_report_equals_the_per_sample_auditor(family, seed, noise_scale):
    prepared = build_audit(family, noise_scale=noise_scale)
    calls = record_batches(prepared.mechanism)
    random_state = derive_seed(family, base_seed=seed)
    new = run_audit(prepared, n_samples=SAMPLES, random_state=random_state)
    assert len(calls) == 2
    replay_batches(prepared.mechanism, calls)
    old = reference_audit(prepared, family, SAMPLES, random_state)
    assert _report(new) == _report(old)
    assert repr(new.details["per_event"]) == repr(old.details["per_event"])


def _list_inputs() -> dict:
    rng = np.random.default_rng(2029)
    size = 2_000

    def pair(draw):
        return draw(0.0), draw(0.4)

    def bools(shift, length):
        return [tuple(bool(b) for b in row)
                for row in rng.random((size, length)) < 0.5 + shift / 2]

    def ragged(shift):
        lengths = rng.integers(1, 4, size)
        return [tuple(bool(b) for b in rng.random(k) < 0.4 + shift)
                for k in lengths]

    letters = np.array(list("abcde"))
    return {
        "few ints": pair(lambda s: rng.geometric(0.5 + s / 2, size).tolist()),
        "many ints": pair(lambda s: rng.integers(0, 900 + int(300 * s), size).tolist()),
        "few floats": pair(lambda s: (rng.integers(0, 3 + int(5 * s), size) / 2).tolist()),
        "many floats": pair(lambda s: rng.normal(s, 1.0, size).tolist()),
        "mixed numbers": pair(lambda s: [
            int(v) if i % 3 else float(v)
            for i, v in enumerate(rng.integers(0, 4 + int(5 * s), size))]),
        "strings": pair(lambda s: letters[rng.integers(0, 3 + int(5 * s), size)].tolist()),
        "bool tuples": pair(lambda s: bools(s, 3)),
        "ragged tuples": pair(ragged),
        "ragged lists": pair(lambda s: [list(row) for row in ragged(s)]),
    }


LIST_INPUTS = _list_inputs()


def _outcome(estimate, outputs_a, outputs_b, kind):
    try:
        return estimate(outputs_a, outputs_b, kind=kind, n_bins=8), None
    except Exception as error:  # compared with the reference's below
        return None, error


@pytest.mark.parametrize("kind", ["auto", "discrete", "binned"])
@pytest.mark.parametrize("inputs", sorted(LIST_INPUTS))
def test_list_inputs_match_the_per_sample_estimator(inputs, kind):
    outputs_a, outputs_b = LIST_INPUTS[inputs]
    got, error = _outcome(estimate_epsilon_lower_bound, outputs_a, outputs_b, kind)
    want, reference_error = _outcome(
        reference_estimate_epsilon_lower_bound, outputs_a, outputs_b, kind
    )
    if reference_error is not None:
        assert isinstance(error, type(reference_error)), (error, reference_error)
    else:
        assert error is None, error
        assert got == want
        assert repr(got) == repr(want)


def test_list_inputs_cover_both_kinds_and_failures():
    """The inputs above are not vacuous: ``auto`` picks both kinds, and the
    reference both succeeds and fails."""
    kinds = {
        reference_estimate_epsilon_lower_bound(a, b, n_bins=8)["kind"]
        for name, (a, b) in LIST_INPUTS.items() if name != "ragged lists"
    }
    assert kinds == {"discrete", "binned"}
    with pytest.raises(TypeError):
        reference_estimate_epsilon_lower_bound(*LIST_INPUTS["ragged lists"])
    with pytest.raises(ValidationError):
        estimate_epsilon_lower_bound([(True,)] * 8, [(False,)] * 8, kind="binned")
