"""Discrete memoryless channels — the formal object behind Figure 1.

A channel is a row-stochastic matrix ``K[i, j] = P(output j | input i)``.
Combined with an input distribution it yields the joint law, the output
marginal, the mutual information ``I(input; output)``, and the privacy-
relevant worst-case log-ratio between rows.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.distributions.discrete import DiscreteDistribution
from repro.exceptions import SupportMismatchError, ValidationError
from repro.information.divergences import _max_divergence_rows
from repro.information.mutual_information import mutual_information_from_joint
from repro.utils.validation import check_probability_vector, check_row_stochastic


class DiscreteChannel:
    """A discrete memoryless channel with named input and output alphabets.

    Parameters
    ----------
    input_alphabet, output_alphabet:
        Ordered outcome labels.
    matrix:
        Row-stochastic conditional probability matrix, shape
        ``(len(input_alphabet), len(output_alphabet))``.
    """

    __slots__ = ("_inputs", "_outputs", "_matrix", "_input_index")

    def __init__(
        self, input_alphabet: Sequence, output_alphabet: Sequence, matrix
    ) -> None:
        inputs = tuple(input_alphabet)
        outputs = tuple(output_alphabet)
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape != (len(inputs), len(outputs)):
            raise ValidationError(
                f"matrix shape {mat.shape} does not match alphabets "
                f"({len(inputs)}, {len(outputs)})"
            )
        if len(inputs) == 0 or len(outputs) == 0:
            raise ValidationError("alphabets must not be empty")
        check_row_stochastic(mat, name="channel row")
        self._inputs = inputs
        self._outputs = outputs
        self._matrix = mat / mat.sum(axis=1, keepdims=True)
        self._matrix.setflags(write=False)
        self._input_index = {label: i for i, label in enumerate(inputs)}
        if len(self._input_index) != len(inputs):
            raise ValidationError("input alphabet contains duplicates")

    # ------------------------------------------------------------------
    @classmethod
    def from_conditionals(
        cls, conditionals: dict
    ) -> "DiscreteChannel":
        """Build a channel from ``{input: DiscreteDistribution}``.

        All conditional distributions must share one output support; this is
        how a family of Gibbs posteriors ``{Ẑ: π̂_Ẑ}`` becomes the Figure-1
        channel.
        """
        if not conditionals:
            raise ValidationError("conditionals must not be empty")
        items = list(conditionals.items())
        reference = items[0][1]
        for _, dist in items[1:]:
            if not reference.same_support(dist):
                raise SupportMismatchError(
                    "all conditional distributions must share one support"
                )
        matrix = np.stack([dist.probabilities for _, dist in items])
        return cls([label for label, _ in items], reference.support, matrix)

    # ------------------------------------------------------------------
    @property
    def input_alphabet(self) -> tuple:
        return self._inputs

    @property
    def output_alphabet(self) -> tuple:
        return self._outputs

    @property
    def matrix(self) -> np.ndarray:
        """Read-only row-stochastic matrix."""
        return self._matrix

    def conditional(self, input_label) -> DiscreteDistribution:
        """The output distribution given one input."""
        idx = self._input_index.get(input_label)
        if idx is None:
            raise ValidationError(f"{input_label!r} is not a channel input")
        return DiscreteDistribution(self._outputs, self._matrix[idx])

    def __repr__(self) -> str:
        return (
            f"DiscreteChannel({len(self._inputs)} inputs -> "
            f"{len(self._outputs)} outputs)"
        )

    # ------------------------------------------------------------------
    def _input_probs(self, input_distribution) -> np.ndarray:
        if isinstance(input_distribution, DiscreteDistribution):
            if input_distribution.support != self._inputs:
                raise SupportMismatchError(
                    "input distribution support must equal the input alphabet"
                )
            return input_distribution.probabilities
        return check_probability_vector(input_distribution, name="input distribution")

    def joint(self, input_distribution) -> np.ndarray:
        """Joint PMF matrix ``P(input i, output j)``."""
        probs = self._input_probs(input_distribution)
        if probs.shape[0] != len(self._inputs):
            raise ValidationError("input distribution has the wrong length")
        return probs[:, None] * self._matrix

    def output_distribution(self, input_distribution) -> DiscreteDistribution:
        """Marginal output law — for a Gibbs channel this is ``E_Z π̂_Z``."""
        return DiscreteDistribution(
            self._outputs, self.joint(input_distribution).sum(axis=0)
        )

    def mutual_information(self, input_distribution) -> float:
        """``I(input; output)`` in nats under the given input law."""
        return mutual_information_from_joint(self.joint(input_distribution))

    def posterior(self, input_distribution, output_label) -> DiscreteDistribution:
        """Bayes-inverted input law given an observed output.

        For the learning channel, this is what an adversary who sees the
        released predictor can infer about the secret sample.
        """
        try:
            j = self._outputs.index(output_label)
        except ValueError:
            raise ValidationError(f"{output_label!r} is not a channel output") from None
        joint = self.joint(input_distribution)
        column = joint[:, j]
        total = column.sum()
        if total <= 0:
            raise ValidationError("observed output has probability zero")
        return DiscreteDistribution(self._inputs, column / total)

    def compose(self, other: "DiscreteChannel") -> "DiscreteChannel":
        """Cascade: this channel followed by ``other`` (output → its input).

        The data-processing inequality makes the cascade's mutual
        information never exceed the first stage's — post-processing cannot
        leak more, the same closure property differential privacy enjoys.
        """
        if self._outputs != other._inputs:
            raise SupportMismatchError(
                "composition requires this channel's outputs to equal the "
                "other channel's inputs"
            )
        return DiscreteChannel(
            self._inputs, other._outputs, self._matrix @ other._matrix
        )

    def max_log_ratio(self) -> float:
        """Worst-case ``log K[i, j] / K[i', j]`` over all input pairs, outputs.

        When the channel inputs are *all* datasets (so every pair of rows is
        a valid comparison) this is an upper bound on the privacy loss; the
        privacy auditor restricts the maximum to neighbouring rows. This
        is the max divergence over every ordered pair of rows.
        """
        left, right = np.divmod(np.arange(len(self._inputs) ** 2), len(self._inputs))
        losses = _max_divergence_rows(self._matrix[left], self._matrix[right])
        return max(0.0, float(losses.max()))
