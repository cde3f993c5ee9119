"""Tracing-equivalence suite: observability must never change behaviour.

Three guarantees, per the observability layer's design contract:

1. **Bit-identical outputs** — for every mechanism family, releasing with
   the same seed produces exactly the same output whether tracing is
   active or not (the base-class hook forwards ``random_state`` untouched
   and adds no RNG draws of its own).
2. **Silent when disabled** — with no active tracer, instrumented paths
   append nothing anywhere: no spans, no counters, no ledger events.
3. **Ledger–accountant agreement** — the privacy-ledger charge events of
   a traced run compose (basic composition) to *exactly* the ε/δ the
   :class:`PrivacyAccountant` recorded, including across a full serial
   bench-engine run whose manifest also carries per-config trace
   summaries.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.gibbs import temperature_for_privacy
from repro.exceptions import PrivacyBudgetError
from repro.experiments import BenchSpec, BenchmarkEngine
from repro.experiments.registry import Experiment
from repro.mechanisms import (
    GaussianMechanism,
    LaplaceMechanism,
    PrivacyAccountant,
    PrivacySpec,
    PrivateHistogram,
    SmoothSensitivityMedian,
    TreeAggregator,
    VectorLaplaceMechanism,
)
from repro.mechanisms.quantile import ExponentialQuantile
from repro.observability import Tracer, current, ledger_totals, tracing
from repro.privacy.local import KRandomizedResponse, UnaryEncoding
from repro.testing import AUDIT_FAMILIES, build_audit


def _released(mechanism, dataset, seed):
    """One release with a fresh generator seeded at ``seed``."""
    return mechanism.release(
        dataset, random_state=np.random.default_rng(seed)
    )


def _as_comparable(output):
    if isinstance(output, np.ndarray):
        return output.tolist()
    return output


# Mechanism families beyond the audit registry, each with a ready dataset.
_EXTRA_FAMILIES = {
    "gaussian": lambda: (
        GaussianMechanism(lambda d: float(np.sum(d)), 1.0, 1.0, 1e-6),
        [0.2, 0.5, 0.9],
    ),
    "histogram": lambda: (
        PrivateHistogram(["a", "b", "c"], 1.0),
        ["a", "a", "b", "c", "c", "c"],
    ),
    "vector-laplace": lambda: (
        VectorLaplaceMechanism(
            lambda d: np.asarray(d, dtype=float).sum(axis=0), 2, 1.0, 1.0
        ),
        [[0.1, 0.2], [0.3, 0.4]],
    ),
    "tree-aggregator": lambda: (TreeAggregator(8, 1.0), [1.0] * 8),
    "quantile": lambda: (
        ExponentialQuantile(0.0, 1.0, 0.5, 1.0),
        [0.1, 0.4, 0.6, 0.9],
    ),
    "smooth-median": lambda: (
        SmoothSensitivityMedian(0.0, 1.0, 1.0),
        [0.2, 0.4, 0.6, 0.8],
    ),
    "k-randomized-response": lambda: (
        KRandomizedResponse(["x", "y", "z"], 1.0),
        "y",
    ),
    "unary-encoding": lambda: (UnaryEncoding(["x", "y", "z"], 1.0), "z"),
}


class TestBitIdenticalOutputs:
    @pytest.mark.parametrize("family", AUDIT_FAMILIES)
    def test_audit_families_identical_with_and_without_tracing(self, family):
        prepared = build_audit(family, epsilon=1.0, n=3)
        seed = 20120330
        baseline = [
            _as_comparable(_released(prepared.mechanism, dataset, seed))
            for dataset in (prepared.pair.a, prepared.pair.b)
        ]
        with tracing() as tracer:
            traced = [
                _as_comparable(_released(prepared.mechanism, dataset, seed))
                for dataset in (prepared.pair.a, prepared.pair.b)
            ]
        assert traced == baseline
        # ... and the traced run actually recorded the releases.
        assert tracer.metrics.counter("mechanism.releases") == 2
        assert [e.kind for e in tracer.events] == ["release", "release"]

    @pytest.mark.parametrize("family", sorted(_EXTRA_FAMILIES))
    def test_extra_families_identical_with_and_without_tracing(self, family):
        mechanism, dataset = _EXTRA_FAMILIES[family]()
        seed = 424242
        baseline = _as_comparable(_released(mechanism, dataset, seed))
        with tracing() as tracer:
            traced = _as_comparable(_released(mechanism, dataset, seed))
        assert traced == baseline
        assert tracer.metrics.counter("mechanism.releases") == 1
        (event,) = tracer.events
        assert event.kind == "release"
        assert event.mechanism == type(mechanism).__name__
        assert event.epsilon == mechanism.privacy.epsilon


class TestDisabledPathIsSilent:
    def test_no_ledger_events_without_tracer(self):
        assert current() is None
        mechanism = LaplaceMechanism(lambda d: float(np.sum(d)), 1.0, 1.0)
        accountant = PrivacyAccountant(PrivacySpec(epsilon=5.0))
        accountant.run(mechanism, [1.0, 2.0], random_state=0)
        temperature_for_privacy(1.0, 1.0, 10)
        # Nothing was recorded anywhere: a tracer opened *afterwards*
        # starts empty.
        with tracing() as tracer:
            pass
        assert tracer.events == []
        assert tracer.spans == []
        assert tracer.metrics.to_dict() == {"counters": {}, "histograms": {}}

    def test_release_spans_only_inside_active_window(self):
        mechanism = LaplaceMechanism(lambda d: float(np.sum(d)), 1.0, 1.0)
        mechanism.release([1.0], random_state=0)  # outside: untraced
        with tracing() as tracer:
            mechanism.release([1.0], random_state=0)
        mechanism.release([1.0], random_state=0)  # after: untraced
        assert len(tracer.events) == 1
        assert [s.name for s in tracer.spans] == ["release:LaplaceMechanism"]


class TestLedgerAccountantAgreement:
    def test_charges_compose_to_exact_accountant_spend(self):
        accountant = PrivacyAccountant(PrivacySpec(epsilon=2.0, delta=1e-5))
        specs = [
            PrivacySpec(0.3, 1e-6),
            PrivacySpec(0.7),
            PrivacySpec(0.25, 2e-6),
        ]
        with tracing() as tracer:
            for spec in specs:
                accountant.charge(spec)
        epsilon, delta = ledger_totals(tracer.events)
        assert epsilon == accountant.spent.epsilon
        assert delta == accountant.spent.delta
        assert tracer.metrics.counter("accountant.charges") == len(specs)

    def test_refusal_emits_event_and_counter(self):
        accountant = PrivacyAccountant(PrivacySpec(epsilon=1.0))
        with tracing() as tracer:
            accountant.charge(PrivacySpec(0.9))
            with pytest.raises(PrivacyBudgetError):
                accountant.charge(PrivacySpec(0.5))
        kinds = [e.kind for e in tracer.events]
        assert kinds == ["charge", "refusal"]
        refusal = tracer.events[-1]
        assert refusal.epsilon == 0.5
        assert refusal.remaining_epsilon == pytest.approx(0.1)
        assert tracer.metrics.counter("accountant.refusals") == 1
        # The refused charge is NOT in the composition total.
        epsilon, _ = ledger_totals(tracer.events)
        assert epsilon == accountant.spent.epsilon == 0.9

    def test_charge_events_carry_remaining_budget(self):
        accountant = PrivacyAccountant(PrivacySpec(epsilon=1.0))
        with tracing() as tracer:
            accountant.charge(PrivacySpec(0.25))
            accountant.charge(PrivacySpec(0.25))
        remaining = [e.remaining_epsilon for e in tracer.events]
        assert remaining == pytest.approx([0.75, 0.5])

    def test_calibration_events_from_gibbs(self):
        with tracing() as tracer:
            temperature = temperature_for_privacy(2.0, 1.0, 100)
        (event,) = tracer.events
        assert event.kind == "calibration"
        assert event.label == "temperature_for_privacy"
        assert event.epsilon == 2.0
        assert event.temperature == temperature
        assert event.n == 100


class TestConcurrentAccountant:
    """Thread-hammer suite: charging must be atomic, never check-then-act.

    Charges use ε = 2⁻¹⁰, which sums exactly in binary floating point, so
    every assertion below is exact — no tolerance can mask a lost update
    or a double-spend.
    """

    EPS = 2.0**-10
    THREADS = 8

    def _hammer(self, worker):
        """Run ``worker(thread_index)`` on all threads through a barrier."""
        barrier = threading.Barrier(self.THREADS)
        errors = []

        def body(index):
            barrier.wait()
            try:
                worker(index)
            except BaseException as error:  # pragma: no cover - fail loud
                errors.append(error)
                raise
        threads = [
            threading.Thread(target=body, args=(index,))
            for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_concurrent_charges_never_overspend(self):
        accountant = PrivacyAccountant(PrivacySpec(epsilon=1.0))
        spec = PrivacySpec(self.EPS)
        successes = [0] * self.THREADS

        def worker(index):
            for _ in range(300):
                if accountant.try_charge(spec):
                    successes[index] += 1

        self._hammer(worker)
        # Exactly the affordable 1024 charges landed — not one more.
        assert sum(successes) == 1024
        assert accountant.spent.epsilon == 1.0
        assert accountant.remaining_epsilon == 0.0
        assert len(accountant.ledger()) == 1024

    def test_concurrent_charges_reconcile_with_ledger_events(self):
        accountant = PrivacyAccountant(PrivacySpec(epsilon=1.0))
        spec = PrivacySpec(self.EPS)
        refused = [0] * self.THREADS

        def worker(index):
            for _ in range(300):
                try:
                    accountant.charge(spec)
                except PrivacyBudgetError:
                    refused[index] += 1

        with tracing() as tracer:
            self._hammer(worker)
        epsilon, delta = ledger_totals(tracer.events)
        assert epsilon == accountant.spent.epsilon == 1.0
        assert delta == 0.0
        assert tracer.metrics.counter("accountant.charges") == 1024
        assert tracer.metrics.counter("accountant.refusals") == (
            self.THREADS * 300 - 1024
        )
        assert sum(refused) == self.THREADS * 300 - 1024

    def test_can_afford_is_advisory_but_charge_is_atomic(self):
        """Racing the classic check-then-act sequence must still never
        overshoot: only the atomic charge decides."""
        accountant = PrivacyAccountant(PrivacySpec(epsilon=1.0))
        spec = PrivacySpec(self.EPS)

        def worker(index):
            for _ in range(300):
                if accountant.can_afford(spec):
                    accountant.try_charge(spec)

        self._hammer(worker)
        assert accountant.spent.epsilon <= 1.0
        assert len(accountant.ledger()) <= 1024

    def test_concurrent_refunds_reconcile(self):
        """Each thread refunds half of its own successful reservations;
        the surviving ledger must equal spend exactly."""
        accountant = PrivacyAccountant(PrivacySpec(epsilon=1.0))
        spec = PrivacySpec(self.EPS)
        kept = [0] * self.THREADS

        def worker(index):
            label = f"thread-{index}"
            for round_index in range(100):
                if not accountant.try_charge(spec, label=label):
                    continue
                if round_index % 2:
                    accountant.refund(spec, label=label)
                else:
                    kept[index] += 1

        with tracing() as tracer:
            self._hammer(worker)
        expected = sum(kept) * self.EPS
        assert accountant.spent.epsilon == expected
        assert len(accountant.ledger()) == sum(kept)
        # Net of charge and refund events reproduces the final spend.
        epsilon, _ = ledger_totals(tracer.events, kinds=("charge", "refund"))
        assert epsilon == pytest.approx(expected)


def _budgeted_case(epsilon, seed):
    """One accountant-guarded Laplace release (module-level: picklable)."""
    mechanism = LaplaceMechanism(lambda d: float(np.sum(d)), 1.0, epsilon)
    accountant = PrivacyAccountant(PrivacySpec(epsilon=10.0))
    value = accountant.run(mechanism, [1.0, 2.0, 3.0], random_state=seed)
    return {"value": value, "spent_epsilon": accountant.spent.epsilon}


class TestBenchEngineTracing:
    def _run(self, tmp_path, tracer=None):
        experiment = Experiment(
            "TOBS", "observability equivalence case", "benchmarks/none.py"
        )
        spec = BenchSpec(
            case=_budgeted_case,
            grid={"epsilon": [0.5, 1.0, 2.0], "seed": [1, 2]},
            seed_param="seed",
        )
        engine = BenchmarkEngine(workers=1, output_dir=tmp_path)
        if tracer is None:
            return engine.run_experiment(experiment, spec)
        with tracing(tracer):
            return engine.run_experiment(experiment, spec)

    def test_serial_results_identical_and_ledger_matches_accountant(
        self, tmp_path
    ):
        baseline = self._run(tmp_path / "plain")
        tracer = Tracer("bench-equivalence")
        traced = self._run(tmp_path / "traced", tracer)

        # Outputs bit-identical with tracing on.
        assert [r.outputs for r in traced.records] == [
            r.outputs for r in baseline.records
        ]

        # Acceptance criterion: ledger charge events compose to exactly
        # the ε the accountants charged across the run.
        epsilon, delta = ledger_totals(tracer.events)
        charged = sum(r.outputs["spent_epsilon"] for r in traced.records)
        assert epsilon == charged
        assert delta == 0.0
        assert tracer.metrics.counter("mechanism.releases") == len(
            traced.records
        )

        # The engine span wraps one config span per configuration.
        names = [s.name for s in tracer.spans]
        assert names.count("experiment:TOBS") == 1
        assert names.count("config:TOBS") == len(traced.records)

    def test_manifest_records_carry_trace_summaries(self, tmp_path):
        traced = self._run(tmp_path, Tracer())
        for record in traced.records:
            assert record.trace is not None
            assert record.trace["mechanism_releases"] == 1
            # release + charge events for this configuration alone.
            assert record.trace["ledger_events"] == 2
        payload = traced.to_dict()
        assert all("trace" in r for r in payload["configurations"])

    def test_untraced_manifest_has_no_trace_key(self, tmp_path):
        manifest = self._run(tmp_path)
        assert all(record.trace is None for record in manifest.records)
        payload = manifest.to_dict()
        assert all("trace" not in r for r in payload["configurations"])
