"""Generic samplers.

The Gibbs posterior over a *continuous* parameter space has an intractable
normalizer, but its unnormalized log-density ``log π(θ) - ε R̂(θ)`` is cheap
to evaluate — exactly the setting Metropolis–Hastings handles. The
batched Langevin (MALA) sampler opens the ``d ≫ 1`` regime: many chains
advanced in lock-step as one set of numpy array operations, under a single
stream-disciplined :class:`numpy.random.Generator`.

All Metropolis acceptance arithmetic stays in log-space
(:func:`log_acceptance_ratio`, and the same decisions written as one
comparison in the MALA step): at Gibbs temperatures of order ``ε·n`` the
density *ratio* overflows ``float64`` long before the log-ratio leaves
``[-10⁹, 10⁹]``, and a non-finite proposal density must reject rather
than wedge the chain in a state it can never leave.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.numerics import column_sums
from repro.utils.validation import check_positive, check_random_state

#: Bytes of RNG draws (normals and uniforms) one block of MALA chains may
#: hold; :meth:`BatchedLangevinSampler.run` sizes its blocks from it.
BLOCK_BYTES = 8 * 2**20


def log_acceptance_ratio(
    proposal_log_density, current_log_density, log_correction=0.0
):
    """Metropolis–Hastings log-acceptance ratio, hardened for extremes.

    Returns ``log π(θ') - log π(θ) + c`` (``c`` is the proposal-density
    correction, zero for symmetric random walks) without ever forming the
    ratio itself, so temperatures of order ``ε·n`` cannot overflow
    ``exp``. Non-finite proposal densities — ``+inf`` spikes, ``-inf``
    barriers, ``nan`` from domain errors — yield ``-inf``: the proposal
    is rejected instead of being accepted into a state whose subsequent
    ratios would all be ``inf - inf = nan`` (a silently wedged chain).

    Parameters
    ----------
    proposal_log_density:
        Scalar or array of unnormalized log-densities at the proposals.
    current_log_density:
        Matching log-densities at the current states (finite by chain
        invariant: only finite states are ever accepted).
    log_correction:
        Optional asymmetric-proposal correction
        ``log q(θ|θ') - log q(θ'|θ)``, broadcast against the densities.
    """
    proposal = np.asarray(proposal_log_density, dtype=float)
    current = np.asarray(current_log_density, dtype=float)
    with np.errstate(invalid="ignore"):
        raw = proposal - current + log_correction
        ratio = np.where(
            np.isfinite(proposal) & ~np.isnan(raw), raw, -np.inf
        )
    if ratio.ndim == 0:
        return float(ratio)
    return ratio


def _log_uniform(rng: np.random.Generator, size=None):
    """``log U`` for the acceptance test, warning-free at ``U == 0``."""
    with np.errstate(divide="ignore"):
        return np.log(rng.uniform(size=size))


@dataclass
class MetropolisHastingsResult:
    """Samples and diagnostics from an MH run."""

    samples: np.ndarray
    acceptance_rate: float
    log_densities: np.ndarray


class MetropolisHastingsSampler:
    """Random-walk Metropolis–Hastings over ``R^d``.

    Parameters
    ----------
    log_density:
        Unnormalized log-density, callable on a length-``d`` array.
    dimension:
        Dimension ``d`` of the state space.
    step_size:
        Standard deviation of the Gaussian proposal.
    """

    def __init__(
        self,
        log_density: Callable[[np.ndarray], float],
        dimension: int,
        step_size: float = 0.5,
    ) -> None:
        if dimension < 1:
            raise ValidationError("dimension must be >= 1")
        self.log_density = log_density
        self.dimension = int(dimension)
        self.step_size = check_positive(step_size, name="step_size")

    def run(
        self,
        n_samples: int,
        *,
        initial=None,
        burn_in: int = 500,
        thin: int = 1,
        random_state=None,
    ) -> MetropolisHastingsResult:
        """Run the chain and return ``n_samples`` (post burn-in, thinned).

        Parameters
        ----------
        initial:
            Starting state; defaults to the origin.
        burn_in:
            Number of initial iterations discarded.
        thin:
            Keep one state out of every ``thin`` post-burn-in iterations —
            reduces autocorrelation in downstream risk estimates.
        """
        if n_samples < 1:
            raise ValidationError("n_samples must be >= 1")
        if burn_in < 0 or thin < 1:
            raise ValidationError("burn_in must be >= 0 and thin >= 1")
        rng = check_random_state(random_state)

        state = (
            np.zeros(self.dimension)
            if initial is None
            else np.asarray(initial, dtype=float).copy()
        )
        if state.shape != (self.dimension,):
            raise ValidationError(
                f"initial state must have shape ({self.dimension},)"
            )
        current_log_density = float(self.log_density(state))
        if not np.isfinite(current_log_density):
            raise ValidationError(
                "log_density must be finite at the initial state"
            )

        total_iterations = burn_in + n_samples * thin
        samples = np.empty((n_samples, self.dimension))
        log_densities = np.empty(n_samples)
        accepted = 0
        kept = 0

        for iteration in range(total_iterations):
            proposal = state + rng.normal(scale=self.step_size, size=self.dimension)
            proposal_log_density = float(self.log_density(proposal))
            log_ratio = log_acceptance_ratio(
                proposal_log_density, current_log_density
            )
            if _log_uniform(rng) < log_ratio:
                state = proposal
                current_log_density = proposal_log_density
                accepted += 1
            if iteration >= burn_in and (iteration - burn_in) % thin == 0:
                samples[kept] = state
                log_densities[kept] = current_log_density
                kept += 1

        return MetropolisHastingsResult(
            samples=samples,
            acceptance_rate=accepted / total_iterations,
            log_densities=log_densities,
        )


@dataclass
class LangevinResult:
    """Final chain states and diagnostics from a batched MALA run.

    Attributes
    ----------
    samples:
        ``(n_chains, dimension)`` array — each row is one chain's state
        after all steps (one independent draw per chain).
    acceptance_rate:
        Mean acceptance probability over all chains and steps.
    log_densities:
        ``(n_chains,)`` unnormalized log-densities at the final states.
    """

    samples: np.ndarray
    acceptance_rate: float
    log_densities: np.ndarray


class BatchedLangevinSampler:
    """Metropolis-adjusted Langevin (MALA) over ``R^d``, many chains at once.

    Each chain proposes ``θ' = θ + (h²/2)·∇log π(θ) + h·ξ`` with
    ``ξ ~ N(0, I_d)`` and accepts with the exact MH correction for the
    asymmetric proposal, so every chain targets ``π`` exactly. The batch
    advances ``m`` chains in lock-step: one step is a handful of numpy
    operations on ``(d, m)`` arrays instead of ``m`` Python-level
    iterations, which is where the batched speedup comes from. The chain
    axis is last and contiguous, so each operation runs one inner loop of
    length ``m`` rather than ``m`` loops of length ``d``.

    **Stream discipline.** All randomness comes from one injected
    :class:`numpy.random.Generator`, consumed in per-chain blocks — chain
    ``i`` draws its ``(steps, d)`` Gaussian block and then its
    ``(steps,)`` uniform block before chain ``i+1`` draws anything. A
    batch of ``m`` chains is therefore bit-identical to ``m`` sequential
    single-chain runs sharing the generator, which is what lets
    ``Mechanism.release_many`` keep its stream-equivalence contract on
    top of this sampler. The step arithmetic is elementwise per chain,
    and its row sums add a chain's ``d`` terms in numpy's order (the
    target permitting), so chain ``i`` of a batch equals the lone chain of
    a one-chain run bit for bit.

    **Blocks of chains.** :meth:`run` advances the chains in consecutive
    blocks of ``max(1, BLOCK_BYTES // (8·steps·(d+1)))`` chains, so one
    block's draws take at most :data:`BLOCK_BYTES` whatever ``n_chains``
    is. Blocks draw in chain order and the steps draw nothing, so the
    stream is consumed exactly as by one block of all chains; and since
    every row's arithmetic is independent of its neighbours, neither the
    states nor the acceptance count depend on where the blocks split.

    Parameters
    ----------
    log_density_and_grad:
        Vectorized target: maps ``(m, d)`` states to the pair
        ``(log_density, grad)`` of ``(m,)`` unnormalized log-densities and
        ``(m, d)`` gradients. One callable, because MALA needs both at
        every proposal and they usually share work (the margins of a
        margin loss). Row ``i`` of each output must depend only on row
        ``i`` of the input (no cross-chain reductions), or batched and
        sequential runs will diverge. The states arrive as the ``(m, d)``
        transpose of a ``(d, m)`` array, and a gradient that is itself
        such a transpose is used without a copy. numpy sums a row of 8 or
        more entries, and einsum contracts 3 or more, in an order that
        follows the memory layout; a target that does either should copy
        the states to C order first, as the Langevin target does.
    dimension:
        Dimension ``d`` of the state space.
    step_size:
        The Langevin step ``h`` (target ~0.5–0.6 acceptance; shrink it if
        acceptance collapses, grow it if acceptance nears 1).
    """

    def __init__(
        self,
        log_density_and_grad: Callable[
            [np.ndarray], tuple[np.ndarray, np.ndarray]
        ],
        dimension: int,
        step_size: float = 0.1,
    ) -> None:
        if dimension < 1:
            raise ValidationError("dimension must be >= 1")
        self.log_density_and_grad = log_density_and_grad
        self.dimension = int(dimension)
        self.step_size = check_positive(step_size, name="step_size")

    def _evaluate(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The target's log-densities and gradients at ``states``, as floats."""
        log_density, grad = self.log_density_and_grad(states)
        return (
            np.asarray(log_density, dtype=float),
            np.asarray(grad, dtype=float),
        )

    def _draw_blocks(
        self, n_chains: int, steps: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-chain RNG blocks in sequential-run order.

        The loop exists *only* to pin the stream layout: each chain fills
        its rows of the two blocks in place (``random(out=)`` consumes
        the stream exactly like ``uniform(size=)``), and one ``log``
        over the whole uniform block follows the loop.
        """
        noise = np.empty((n_chains, steps, self.dimension))
        uniforms = np.empty((n_chains, steps))
        normal, uniform = rng.standard_normal, rng.random
        for chain_noise, chain_uniforms in zip(noise, uniforms):
            normal(out=chain_noise)
            uniform(out=chain_uniforms)
        with np.errstate(divide="ignore"):
            return noise, np.log(uniforms, out=uniforms)

    def run(
        self,
        n_chains: int,
        *,
        steps: int = 100,
        initial=None,
        random_state=None,
    ) -> LangevinResult:
        """Advance ``n_chains`` independent chains ``steps`` steps each.

        Parameters
        ----------
        n_chains:
            Number of chains (= independent draws returned).
        steps:
            MALA steps per chain; doubles as burn-in since only final
            states are returned.
        initial:
            Shared starting state, shape ``(dimension,)``; defaults to
            the origin. Must have finite log-density.
        random_state:
            Seed or :class:`numpy.random.Generator`.
        """
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
                np.repeat(start[:, None], chains, axis=1), steps, rng
            )
            samples[first : first + chains] = state.T
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
        """Run one block of chains from the ``(d, m)`` ``state`` through
        all ``steps``.

        States, gradients, drifts and proposals are held chains-last, as
        ``(d, m)`` arrays, so every step operation runs one long inner
        loop; the target sees their ``(m, d)`` transposes. Checks the
        target's first evaluation before drawing the block's RNG rows,
        whose arrays die with this call, so a run never holds two blocks'
        draws. Returns the final ``(d, m)`` states, their log-densities
        and the number of accepted proposals.
        """
        chains = state.shape[1]
        state_log_density, state_grad = self._evaluate(state.T)
        if state_log_density.shape != (chains,):
            raise ValidationError(
                "log_density_and_grad must map (m, d) states to (m,) "
                "log-densities"
            )
        if not np.all(np.isfinite(state_log_density)):
            raise ValidationError(
                "log_density must be finite at the initial state"
            )
        if state_grad.shape != (chains, self.dimension):
            raise ValidationError(
                "log_density_and_grad must map (m, d) states to (m, d) "
                "gradients"
            )
        state_grad = state_grad.T
        noise, log_uniforms = self._draw_blocks(chains, steps, rng)
        h = self.step_size
        half_h2 = 0.5 * h * h
        inv_2h2 = 1.0 / (2.0 * h * h)
        accepted = 0
        for step in range(steps):
            drift = state + half_h2 * state_grad
            proposal = drift + h * noise[:, step, :].T
            proposal_log_density, proposal_grad = self._evaluate(proposal.T)
            proposal_grad = proposal_grad.T
            reverse_drift = proposal + half_h2 * proposal_grad
            with np.errstate(invalid="ignore"):
                log_forward = -inv_2h2 * column_sums((proposal - drift) ** 2)
                log_backward = -inv_2h2 * column_sums(
                    (state - reverse_drift) ** 2
                )
                # The comparison is False wherever log_acceptance_ratio
                # would give -inf: a NaN ratio or a non-finite proposal.
                raw = (
                    proposal_log_density
                    - state_log_density
                    + (log_backward - log_forward)
                )
            accept = (log_uniforms[:, step] < raw) & np.isfinite(
                proposal_log_density
            )
            state = np.where(accept, proposal, state)
            state_log_density = np.where(
                accept, proposal_log_density, state_log_density
            )
            state_grad = np.where(accept, proposal_grad, state_grad)
            accepted += np.count_nonzero(accept)
        return state, state_log_density, accepted
