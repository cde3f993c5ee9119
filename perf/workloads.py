"""The benchmark's four workloads, each a list of units of fixed work.

A unit is one user-visible piece of work: a simulated fleet of serving
clients, one family's statistical audit, one experiment's sweep. A run
executes the units over and over for a fixed time (see
:mod:`perf.harness`); every execution of a unit does identical work,
derived from the run's seed, and must give an identical output digest.

Every workload goes through public entry points with the program's own
defaults. In particular the serving workloads leave the accountant's
shard count and the service's ``flush_window``/``max_batch`` at their
defaults, because later changes may retune those and must be measured by
this code unchanged. ``run_loadtest`` is not used: it always activates a
tracer, which would put tracing cost into the untraced timings.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import math
import statistics
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from repro.exceptions import PrivacyBudgetError, ServingTimeoutError
from repro.experiments import (
    BenchmarkEngine,
    canonical_parameters,
    expand_grid,
    get_experiment,
    load_bench_spec,
    reseed,
)
from repro.mechanisms import LaplaceMechanism, PrivacySpec
from repro.privacy import ExactPrivacyAuditor
from repro.serving import ReleaseService, ServiceConfig, SimulatedClock, TenantRegistry
from repro.testing import AUDIT_FAMILIES, build_audit, derive_seed, run_audit
from repro.utils.validation import check_random_state

from perf.trace import Recorder

#: The audit families of ``audit_nightly``, pinned so that a family added
#: to the program later does not silently change the workload.
FAMILIES = (
    "laplace", "geometric", "exponential", "exponential-paper",
    "randomized-response", "noisy-max", "sparse-vector", "gibbs", "langevin",
    "local", "local-sampling",
)
#: Draws per dataset of each audit: ``repro audit``'s default. The nightly
#: CI audit draws 50000, but then one pass takes most of a run and single
#: executions of the costliest families set its time; at this size every
#: family runs several times per run and its median is steady.
AUDIT_SAMPLES = 12_000
#: The experiments of ``paper_sweep``, pinned by id.
EXPERIMENT_IDS = tuple(f"E{index}" for index in range(1, 20))
#: sha256 of each experiment's canonical ``grid`` + ``fixed``; a bench file
#: whose sweep changed no longer measures the same workload.
FINGERPRINTS_PATH = Path(__file__).with_name("fingerprints.json")

#: Serving: tenants sharing the fleet, per-request ε, and the most virtual
#: time a client thinks between requests (uniform from 0).
TENANTS = 64
REQUEST_EPSILON = 0.05
MAX_THINK_S = 0.02


@dataclass(frozen=True)
class Unit:
    """One piece of fixed work.

    Attributes
    ----------
    name:
        Unit name (a family, an experiment id, ``fleet``).
    layer:
        Layer that the unit's own time is folded into when traced: the
        root span around the whole execution.
    ops:
        Operations one execution attempts (requests, audits, configurations).
    run:
        Does the work; takes the execution's :class:`~perf.trace.Recorder`
        (``None`` when untraced) and returns the raw result for
        :meth:`Workload.summarize`.
    """

    name: str
    layer: str
    ops: int
    run: Callable[[Recorder | None], object]


def _digest(payload) -> str:
    """sha256 of a canonical JSON rendering (floats by ``repr``)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _summary(failed=0, problems=(), digest="", **extra) -> dict:
    return {"failed": int(failed), "problems": list(problems), "digest": digest,
            **extra}


class Workload:
    """Units of fixed work plus their warm-up and correctness checks."""

    name = ""
    #: Problems found while setting up (e.g. a changed sweep fingerprint).
    problems: list[str]

    def units(self) -> list[Unit]:
        """The units, in execution order."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """At most 5% of one pass of work, on throwaway objects."""

    def summarize(self, unit: Unit, raw, recorder: Recorder | None) -> dict:
        """Check one execution's outputs; runs outside the timed region,
        after the execution's spans are closed.

        Returns a dict with ``failed`` (operations that failed),
        ``problems`` (violated correctness checks), ``digest`` (of the
        outputs) and optionally ``latency_s`` and ``counts``.
        """
        raise NotImplementedError


def _count_query(dataset) -> float:
    """The served counting query (sensitivity 1)."""
    return float(np.sum(dataset))


class ServeWorkload(Workload):
    """Closed-loop simulated clients against one ``ReleaseService``.

    Each client thinks for a seeded uniform virtual time, submits one
    Laplace counting release to its tenant, waits for the result, and
    repeats. The service runs on a ``SimulatedClock``, so outcomes and
    virtual latencies are a function of the seed alone.
    """

    def __init__(self, name: str, seed: int, *, clients: int, requests: int,
                 budget: float, request_timeout: float | None) -> None:
        self.name = name
        self.seed = int(seed)
        self.clients = int(clients)
        self.requests = int(requests)
        self.budget = float(budget)
        self.request_timeout = request_timeout
        self.problems = []
        data_rng = check_random_state(derive_seed("perf.dataset", base_seed=self.seed))
        self.dataset = data_rng.integers(0, 2, size=32)

    def units(self) -> list[Unit]:
        return [Unit("fleet", "serving.service.loop", self.clients * self.requests,
                     partial(self._serve, clients=self.clients))]

    def warm_up(self) -> None:
        self._serve(None, clients=max(1, self.clients // 20))

    def _serve(self, recorder: Recorder | None, *, clients: int):
        clock = SimulatedClock()
        registry = TenantRegistry()
        for index in range(TENANTS):
            tenant = registry.register(
                f"tenant-{index}",
                PrivacySpec(self.budget),
                seed=derive_seed("perf.tenant", index, base_seed=self.seed),
            )
            if recorder is not None:
                accountant = tenant.accountant
                accountant.charge = recorder.timed(
                    accountant.charge, "serving.tenants.charge")
                accountant.refund = recorder.timed(
                    accountant.refund, "serving.tenants.refund")
        query = _count_query
        if recorder is not None:
            query = recorder.timed(query, "mechanisms.query", per_request=False)
        mechanism = LaplaceMechanism(query, sensitivity=1.0, epsilon=REQUEST_EPSILON)
        if recorder is not None:
            mechanism.release_many = recorder.timed(
                mechanism.release_many, "mechanisms.release_many",
                per_request=False, size_argument=1,
            )
        config = (ServiceConfig() if self.request_timeout is None
                  else ServiceConfig(request_timeout=self.request_timeout))
        service = ReleaseService(registry, clock=clock, config=config)
        service.add_mechanism("count", mechanism)
        records: list[tuple] = []

        async def client(index: int) -> None:
            rng = check_random_state(
                derive_seed("perf.client", index, base_seed=self.seed))
            tenant_id = f"tenant-{index % TENANTS}"
            for request in range(self.requests):
                await clock.sleep(float(rng.uniform(0.0, MAX_THINK_S)))
                if recorder is not None:
                    recorder.request.set((index, request))
                started = clock.now()
                outputs: list = []
                try:
                    outputs = await service.submit(tenant_id, "count", self.dataset)
                    outcome = "ok"
                except PrivacyBudgetError:
                    outcome = "refused"
                except ServingTimeoutError:
                    outcome = "timeout"
                except Exception as error:  # any other failure is counted, not fatal
                    outcome = f"error:{type(error).__name__}"
                records.append((index, request, outcome,
                                [float(value) for value in outputs],
                                clock.now() - started))

        async def fleet() -> None:
            await asyncio.gather(*(client(index) for index in range(clients)))
            await service.drain()

        clock.run(fleet())
        return registry, records

    def summarize(self, unit: Unit, raw, recorder: Recorder | None) -> dict:
        registry, records = raw
        records.sort()
        outcomes = Counter(record[2] for record in records)
        problems = []
        if len(records) != unit.ops:
            problems.append(f"{len(records)} of {unit.ops} requests completed")
        ok_by_tenant: Counter = Counter()
        latencies = []
        for client, request, outcome, outputs, latency in records:
            if outcome != "ok":
                continue
            ok_by_tenant[client % TENANTS] += 1
            latencies.append(latency)
            if len(outputs) != 1 or not math.isfinite(outputs[0]):
                problems.append(f"request {client}/{request} returned {outputs!r}")
        net_charges: Counter = Counter()
        if recorder is not None:
            for name, sign in (("serving.tenants.charge", 1),
                               ("serving.tenants.refund", -1)):
                for span in recorder.named(name):
                    if not span.failed:
                        net_charges[span.request[0] % TENANTS] += sign
        for index in range(TENANTS):
            accountant = registry.get(f"tenant-{index}").accountant
            spent = accountant.spent_epsilon
            budget = accountant.budget.epsilon
            if spent > budget * (1.0 + 1e-9):
                problems.append(f"tenant-{index} spent {spent!r} of {budget!r}")
            if REQUEST_EPSILON * ok_by_tenant[index] > spent * (1.0 + 1e-9):
                problems.append(
                    f"tenant-{index}: {ok_by_tenant[index]} releases but "
                    f"spent only {spent!r}")
            if recorder is not None and net_charges[index] != len(accountant.ledger()):
                problems.append(
                    f"tenant-{index}: wrapped charges - refunds = "
                    f"{net_charges[index]}, ledger holds "
                    f"{len(accountant.ledger())} entries")
        failed = sum(count for outcome, count in outcomes.items()
                     if outcome.startswith("error"))
        return _summary(
            failed, problems, _digest(records),
            latency_s=statistics.median(latencies) if latencies else None,
            counts={"ok": outcomes["ok"], "timeouts": outcomes["timeout"],
                    "refused": outcomes["refused"]},
        )


class AuditWorkload(Workload):
    """``repro audit`` with its defaults: every family's statistical audit,
    then the exact Gibbs enumeration audit."""

    name = "audit_nightly"

    def __init__(self, seed: int, *, samples: int = AUDIT_SAMPLES,
                 families=FAMILIES) -> None:
        self.seed = int(seed)
        self.samples = int(samples)
        self.families = tuple(f for f in families if f in AUDIT_FAMILIES)
        self.problems = [f"audit family {family!r} is gone"
                         for family in families if family not in AUDIT_FAMILIES]

    def units(self) -> list[Unit]:
        units = [Unit(family, "testing.audit", 1, partial(self._audit, family))
                 for family in self.families]
        units.append(Unit("gibbs-exact", "privacy.exact_audit", 1, self._exact))
        return units

    def warm_up(self) -> None:
        for family in self.families:
            run_audit(build_audit(family), n_samples=max(8, self.samples // 20),
                      random_state=derive_seed("perf.warm-up", family))
        self._exact(None)

    def build(self, family: str):
        """The prepared audit of ``family``, built exactly as the CLI does."""
        return build_audit(family)

    def _audit(self, family: str, recorder: Recorder | None):
        prepared = self.build(family)
        if recorder is not None:
            mechanism = prepared.mechanism
            mechanism.release_many = recorder.timed(
                mechanism.release_many, "mechanisms.release_many",
                per_request=False, size_argument=1,
            )
        return run_audit(prepared, n_samples=self.samples,
                         random_state=derive_seed(family, base_seed=self.seed))

    def _exact(self, recorder: Recorder | None):
        prepared = build_audit("gibbs")
        return ExactPrivacyAuditor(prepared.mechanism.output_distribution).audit(
            [0, 1], 3, claimed_epsilon=prepared.epsilon)

    def summarize(self, unit: Unit, raw, recorder: Recorder | None) -> dict:
        if unit.name == "gibbs-exact":
            payload = [raw.measured_epsilon, raw.satisfied, raw.pairs_checked]
        else:
            payload = raw.to_dict()
        problems = [] if raw.satisfied else [f"{unit.name}: audit not satisfied: {raw}"]
        return _summary(0, problems, _digest(payload))


def sweep_fingerprint(spec) -> str:
    """sha256 of a bench spec's canonical ``grid`` and ``fixed`` parameters."""
    text = canonical_parameters({"grid": dict(spec.grid), "fixed": dict(spec.fixed)})
    return hashlib.sha256(text.encode()).hexdigest()


class PaperWorkload(Workload):
    """The reproduction itself: every experiment's sweep, serially, uncached.

    At seed 0 every spec keeps its own seeds, so outputs equal ``repro
    bench``; any other seed re-derives the spec's ``seed_param``.
    """

    name = "paper_sweep"

    def __init__(self, seed: int, *, experiments=EXPERIMENT_IDS) -> None:
        self.seed = int(seed)
        self.engine = BenchmarkEngine(workers=1, cache=None, output_dir=None)
        pinned = json.loads(FINGERPRINTS_PATH.read_text())
        self.problems = []
        self.specs = {}
        for experiment_id in experiments:
            experiment = get_experiment(experiment_id)
            spec = load_bench_spec(experiment)
            if sweep_fingerprint(spec) != pinned.get(experiment_id):
                self.problems.append(
                    f"{experiment_id}: sweep differs from the pinned fingerprint")
            self.specs[experiment_id] = (experiment, self._reseeded(spec))

    def _reseeded(self, spec):
        name = spec.seed_param
        if self.seed == 0 or name is None:
            return spec
        grid, fixed = dict(spec.grid), dict(spec.fixed)
        if name in fixed:
            fixed[name] = reseed(fixed[name], self.seed)
        if name in grid:
            grid[name] = [reseed(value, self.seed) for value in grid[name]]
        return dataclasses.replace(spec, grid=grid, fixed=fixed)

    def units(self) -> list[Unit]:
        return [
            Unit(experiment_id, "experiments.engine",
                 len(expand_grid(spec.grid, spec.fixed)),
                 partial(self._sweep, experiment_id))
            for experiment_id, (_, spec) in self.specs.items()
        ]

    def _sweep(self, experiment_id: str, recorder: Recorder | None):
        experiment, spec = self.specs[experiment_id]
        if recorder is not None:
            spec = dataclasses.replace(
                spec, case=recorder.timed(spec.case, "experiments.case",
                                          per_request=False))
        return self.engine.run_experiment(experiment, spec)

    def summarize(self, unit: Unit, raw, recorder: Recorder | None) -> dict:
        if recorder is not None:
            # The mechanisms an experiment releases from are built inside
            # its case, out of the benchmark's reach: their time comes from
            # the program's own release_many spans.
            recorder.adopt_program_spans("release_many:", "mechanisms.release_many")
        problems = [f"{unit.name} {record.parameters}: {record.error}"
                    for record in raw.records if not record.ok]
        if len(raw.records) != unit.ops:
            problems.append(f"{unit.name}: {len(raw.records)} of {unit.ops} "
                            "configurations recorded")
        payload = [[record.parameters, record.outputs] for record in raw.records]
        return _summary(raw.failures, problems, _digest(payload))


#: Workload name -> (one-line reason it exists, factory taking the seed).
WORKLOADS: dict[str, tuple[str, Callable[[int], Workload]]] = {
    "serve_scalar": (
        "serving front door with ample budget and a near-free kernel: "
        "accountant charge and the asyncio batching loop dominate",
        partial(ServeWorkload, "serve_scalar", clients=2000, requests=20,
                budget=1000.0, request_timeout=None),
    ),
    "serve_churn": (
        "budgets run out and requests time out before their flush: "
        "the accountant's refund and refusal paths",
        partial(ServeWorkload, "serve_churn", clients=2000, requests=8,
                budget=3.2, request_timeout=0.03),
    ),
    "audit_nightly": (
        "the nightly statistical audit of every family: mechanism kernels, "
        "no serving or accountant work",
        AuditWorkload,
    ),
    "paper_sweep": (
        "the reproduction E1-E19: experiment compute in core, information "
        "and private_learning",
        PaperWorkload,
    ),
}
