"""Speed floor: the chains-last MALA step against the row-major one.

``BatchedLangevinSampler._run_block`` holds its states, gradients, drifts
and proposals as ``(d, m)`` arrays and hands the target their ``(m, d)``
transposes; the Langevin target contracts over whole columns
(``row_dots``, ``row_combinations``). Before, every array was ``(m, d)``
and each numpy operation looped over inner axes of length 2 or 3. This
times the whole ``langevin`` audit at 12 000 samples against verbatim
copies of the row-major ``run``, ``_run_block`` and target, back to back
in 7 pairs whose first run alternates, takes the median of the per-pair
ratios, and requires the same report from both.
"""

from __future__ import annotations

import dataclasses
import types

import numpy as np

from repro.distributions.sampling import (
    BLOCK_BYTES,
    BatchedLangevinSampler,
    LangevinResult,
    log_acceptance_ratio,
)
from repro.exceptions import ValidationError
from repro.learning.models import _check_classification_data
from repro.testing import build_audit, derive_seed, run_audit
from repro.utils.numerics import row_sums
from repro.utils.validation import check_random_state
from tests.test_perf_release_many import AUDIT_DRAWS, _median_pair_ratio

# On a 2-vCPU host the chains-last audit's median pair ratio lands at
# 1.21-1.26x against the row-major step and target; the floor keeps about
# half that gain. The chains-last audit run twice per timing (2x slower)
# reads 0.60x.
MIN_LAYOUT_SPEEDUP = 1.11


class RowMajorLangevinSampler(BatchedLangevinSampler):
    """``run`` and ``_run_block`` as they were, on ``(m, d)`` states."""

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

        block = max(1, BLOCK_BYTES // (8 * steps * (self.dimension + 1)))
        samples = np.empty((n_chains, self.dimension))
        log_densities = np.empty(n_chains)
        accepted = 0
        for first in range(0, n_chains, block):
            chains = min(block, n_chains - first)
            state, state_log_density, block_accepted = self._run_block(
                np.repeat(start[None, :], chains, axis=0), steps, rng
            )
            samples[first : first + chains] = state
            log_densities[first : first + chains] = state_log_density
            accepted += block_accepted

        return LangevinResult(
            samples=samples,
            acceptance_rate=accepted / (n_chains * steps),
            log_densities=log_densities,
        )

    def _run_block(
        self, state: np.ndarray, steps: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Run one block of chains from ``state`` through all ``steps``."""
        state_log_density, state_grad = self._evaluate(state)
        if state_log_density.shape != (state.shape[0],):
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
        noise, log_uniforms = self._draw_blocks(state.shape[0], steps, rng)
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
                log_forward = -inv_2h2 * row_sums((proposal - drift) ** 2)
                log_backward = -inv_2h2 * row_sums((state - reverse_drift) ** 2)
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
        return state, state_log_density, accepted


def row_major_posterior_sampler(self, x, y) -> BatchedLangevinSampler:
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
        squared_norms = row_sums(theta * theta)
        mean_values = row_sums(values) / values.shape[1]
        log_density = -temperature * (
            mean_values + 0.5 * regularization * squared_norms
        )
        risk_grad = np.einsum("mn,nd->md", weights, z) / n
        grad = -temperature * (risk_grad + regularization * theta)
        return log_density, grad

    step_size = (
        self._default_step_size(temperature, d)
        if self.step_size is None
        else self.step_size
    )
    return RowMajorLangevinSampler(log_density_and_grad, d, step_size=step_size)


def test_langevin_audit_beats_the_row_major_step(benchmark):
    prepared = build_audit("langevin")
    row_major_mechanism = build_audit("langevin").mechanism
    row_major_mechanism._posterior_sampler = types.MethodType(
        row_major_posterior_sampler, row_major_mechanism
    )
    row_major = dataclasses.replace(prepared, mechanism=row_major_mechanism)
    seed = derive_seed("langevin", base_seed=0)

    reports = {}

    def fast():
        reports["fast"] = run_audit(
            prepared, n_samples=AUDIT_DRAWS, random_state=seed
        ).to_dict()

    def reference():
        reports["reference"] = run_audit(
            row_major, n_samples=AUDIT_DRAWS, random_state=seed
        ).to_dict()

    benchmark.pedantic(fast, rounds=1, iterations=1)
    speedup = _median_pair_ratio(fast, reference, pairs=7)

    assert reports["fast"] == reports["reference"]
    assert speedup >= MIN_LAYOUT_SPEEDUP, (
        f"langevin audit at {AUDIT_DRAWS} samples: median pair ratio "
        f"against the row-major step only {speedup:.2f}x, need >= "
        f"{MIN_LAYOUT_SPEEDUP}x"
    )
