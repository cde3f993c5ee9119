"""Speed floors: short rows summed by columns, and the MALA step that uses them.

``row_sums`` adds the 2 or 3 columns of a ``(12000, d)`` array as whole
vectors, where ``values.sum(axis=1)`` runs numpy's reduction once per row.
The MALA step and the Langevin target sum their short rows through it.
Two floors, each timed in alternation with its reference:

* the kernel against ``sum(axis=1)`` at the ``langevin`` audit's shapes
  (12 000 chains, d = 2; 3 records);
* the whole ``langevin`` audit at 12 000 samples against verbatim copies
  of the step and the target as they were before, which must also give
  the same report.

The same reference sampler and target also pin E17's shape (d = 16,
800 records, 64 chains, 120 steps), where the target's contractions stay
on ``einsum`` and its wide row sums on numpy: samples, log-densities and
acceptance rate must be the reference's bit for bit.
"""

from __future__ import annotations

import dataclasses
import types

import numpy as np
import pytest

from repro.distributions.sampling import (
    BatchedLangevinSampler,
    LangevinResult,
    log_acceptance_ratio,
)
from repro.exceptions import ValidationError
from repro.learning import LogisticLoss, TwoGaussiansTask
from repro.learning.losses import TruncatedLoss
from repro.learning.models import _check_classification_data
from repro.private_learning import RegularizedExponentialMechanism
from repro.testing import build_audit, derive_seed, run_audit
from repro.utils.numerics import row_sums
from repro.utils.validation import check_random_state
from tests.test_perf_release_many import AUDIT_DRAWS, _best_of_interleaved

# ``row_sums`` lands about 10.4-11.7x ahead of ``sum(axis=1)`` at
# 12 000 x 2 and 8.4-9.2x at 12 000 x 3; each floor sits a little above
# half of that, so a helper made 2x slower fails it.
MIN_KERNEL_SPEEDUP = {2: 6.5, 3: 5.0}

# The ``langevin`` audit lands about 1.27-1.35x ahead of the old step and
# target at 12 000 samples; the floor keeps a little under half that gain.
MIN_AUDIT_SPEEDUP = 1.12


@pytest.mark.parametrize("width", sorted(MIN_KERNEL_SPEEDUP))
def test_row_sums_beats_numpy_on_short_rows(benchmark, width):
    values = np.random.default_rng(width).normal(size=(AUDIT_DRAWS, width))
    calls = 200

    def fast():
        for _ in range(calls):
            row_sums(values)

    def reference():
        for _ in range(calls):
            values.sum(axis=1)

    assert np.array_equal(row_sums(values), values.sum(axis=1))
    benchmark.pedantic(fast, rounds=3, iterations=1)
    fast_seconds, reference_seconds = _best_of_interleaved(
        fast, reference, repeats=9
    )

    speedup = reference_seconds / fast_seconds
    floor = MIN_KERNEL_SPEEDUP[width]
    assert speedup >= floor, (
        f"row_sums at {AUDIT_DRAWS} x {width}: "
        f"{fast_seconds / calls * 1e6:.1f}us vs sum(axis=1)'s "
        f"{reference_seconds / calls * 1e6:.1f}us — only {speedup:.1f}x, "
        f"need >= {floor}x"
    )


class ReferenceBatchedLangevinSampler(BatchedLangevinSampler):
    """``run`` as it was, with numpy's ``sum(axis=1)`` over each row."""

    def run(
        self,
        n_chains: int,
        *,
        steps: int = 100,
        initial=None,
        random_state=None,
    ) -> LangevinResult:
        """Advance ``n_chains`` independent chains ``steps`` steps each."""
        if n_chains < 1:
            raise ValidationError("n_chains must be >= 1")
        if steps < 1:
            raise ValidationError("steps must be >= 1")
        rng = check_random_state(random_state)
        start = (
            np.zeros(self.dimension)
            if initial is None
            else np.asarray(initial, dtype=float)
        )
        if start.shape != (self.dimension,):
            raise ValidationError(
                f"initial state must have shape ({self.dimension},)"
            )

        state = np.repeat(start[None, :], n_chains, axis=0)
        state_log_density, state_grad = self._evaluate(state)
        if state_log_density.shape != (n_chains,):
            raise ValidationError(
                "log_density_and_grad must map (m, d) states to (m,) "
                "log-densities"
            )
        if not np.all(np.isfinite(state_log_density)):
            raise ValidationError(
                "log_density must be finite at the initial state"
            )
        if state_grad.shape != state.shape:
            raise ValidationError(
                "log_density_and_grad must map (m, d) states to (m, d) "
                "gradients"
            )

        noise, log_uniforms = self._draw_blocks(n_chains, steps, rng)
        h = self.step_size
        half_h2 = 0.5 * h * h
        inv_2h2 = 1.0 / (2.0 * h * h)
        accepted = 0

        for step in range(steps):
            drift = state + half_h2 * state_grad
            proposal = drift + h * noise[:, step, :]
            proposal_log_density, proposal_grad = self._evaluate(proposal)
            reverse_drift = proposal + half_h2 * proposal_grad
            with np.errstate(invalid="ignore"):
                log_forward = -inv_2h2 * ((proposal - drift) ** 2).sum(axis=1)
                log_backward = -inv_2h2 * ((state - reverse_drift) ** 2).sum(
                    axis=1
                )
                log_ratio = log_acceptance_ratio(
                    proposal_log_density,
                    state_log_density,
                    log_correction=log_backward - log_forward,
                )
            accept = log_uniforms[:, step] < log_ratio
            state = np.where(accept[:, None], proposal, state)
            state_log_density = np.where(
                accept, proposal_log_density, state_log_density
            )
            state_grad = np.where(accept[:, None], proposal_grad, state_grad)
            accepted += int(accept.sum())

        return LangevinResult(
            samples=state,
            acceptance_rate=accepted / (n_chains * steps),
            log_densities=state_log_density,
        )


def reference_posterior_sampler(self, x, y) -> BatchedLangevinSampler:
    """``RegularizedExponentialMechanism._posterior_sampler`` as it was."""
    x, y = _check_classification_data(x, y)
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms > 1.0 + 1e-9):
        raise ValidationError(
            "the regularized exponential mechanism requires feature "
            "vectors with ‖x‖₂ ≤ 1"
        )
    n, d = x.shape
    temperature = self.temperature_for(n) * self._temperature_scale
    z = y[:, None] * x
    loss = self.loss
    regularization = self.regularization

    def log_density_and_grad(theta: np.ndarray):
        margins = np.einsum("md,nd->mn", theta, z)
        values, weights = loss.value_and_derivative(margins)
        squared_norms = (theta * theta).sum(axis=1)
        log_density = -temperature * (
            values.mean(axis=1) + 0.5 * regularization * squared_norms
        )
        risk_grad = np.einsum("mn,nd->md", weights, z) / n
        grad = -temperature * (risk_grad + regularization * theta)
        return log_density, grad

    step_size = (
        self._default_step_size(temperature, d)
        if self.step_size is None
        else self.step_size
    )
    return ReferenceBatchedLangevinSampler(
        log_density_and_grad, d, step_size=step_size
    )


def test_langevin_audit_beats_the_old_step(benchmark):
    prepared = build_audit("langevin")
    reference_mechanism = build_audit("langevin").mechanism
    reference_mechanism._posterior_sampler = types.MethodType(
        reference_posterior_sampler, reference_mechanism
    )
    reference_prepared = dataclasses.replace(prepared, mechanism=reference_mechanism)
    seed = derive_seed("langevin", base_seed=0)

    reports = {}

    def fast():
        reports["fast"] = run_audit(
            prepared, n_samples=AUDIT_DRAWS, random_state=seed
        ).to_dict()

    def reference():
        reports["reference"] = run_audit(
            reference_prepared, n_samples=AUDIT_DRAWS, random_state=seed
        ).to_dict()

    benchmark.pedantic(fast, rounds=1, iterations=1)
    fast_seconds, reference_seconds = _best_of_interleaved(
        fast, reference, repeats=3
    )

    assert reports["fast"] == reports["reference"]

    speedup = reference_seconds / fast_seconds
    assert speedup >= MIN_AUDIT_SPEEDUP, (
        f"langevin audit at {AUDIT_DRAWS} samples: {fast_seconds:.3f}s vs "
        f"the old step's {reference_seconds:.3f}s — only {speedup:.2f}x, "
        f"need >= {MIN_AUDIT_SPEEDUP}x"
    )


@pytest.mark.parametrize("epsilon", [0.1, 2.0])
def test_e17_shape_run_equals_the_old_step(epsilon):
    mean = np.zeros(16)
    mean[0], mean[1] = 1.38, 0.58
    dataset = TwoGaussiansTask(mean, clip_features=True).sample(
        800, random_state=0
    )
    mechanism = RegularizedExponentialMechanism(
        TruncatedLoss(LogisticLoss(), ceiling=2.0), 0.05, epsilon
    )
    reference = RegularizedExponentialMechanism(
        TruncatedLoss(LogisticLoss(), ceiling=2.0), 0.05, epsilon
    )
    reference._posterior_sampler = types.MethodType(
        reference_posterior_sampler, reference
    )

    result = mechanism._sample_posterior(dataset, 64, np.random.default_rng(3))
    expected = reference._sample_posterior(
        dataset, 64, np.random.default_rng(3)
    )

    assert mechanism.steps == 120
    assert result.samples.tobytes() == expected.samples.tobytes()
    assert result.log_densities.tobytes() == expected.log_densities.tobytes()
    assert result.acceptance_rate == expected.acceptance_rate
