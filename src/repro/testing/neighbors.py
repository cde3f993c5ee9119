"""Worst-case neighbouring dataset pairs, one generator per mechanism family.

A statistical audit is only as sharp as the neighbour pair it probes: the
DP inequality is a *worst-case* statement, and most pairs are slack. The
generators here produce the pairs that saturate (or come closest to
saturating) each mechanism family's guarantee under the substitution
relation of Definition 2.1:

* counting / sum queries — change one record from the low extreme to the
  high extreme, displacing the true answer by exactly the sensitivity;
* per-record randomizers (randomized response) — a single record, flipped;
* quality-based selection (exponential mechanism, report-noisy-max) — flip
  one record so two candidates' quality scores move in opposite
  directions, the configuration that maximizes the output-law tilt.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ValidationError
from repro.privacy.definitions import is_neighbour


@dataclass(frozen=True)
class NeighborPair:
    """An ordered pair of neighbouring datasets with a provenance label.

    Parameters
    ----------
    a, b:
        The two datasets; for sequence datasets they differ in exactly one
        record (checked by :meth:`validate`).
    name:
        Short label describing why this pair is adversarial, carried into
        audit reports.
    """

    a: tuple
    b: tuple
    name: str = ""

    def validate(self) -> "NeighborPair":
        """Check the substitution relation; return self for chaining."""
        if not is_neighbour(self.a, self.b):
            # Data-free message: the pair contents are (synthetic) datasets;
            # keep dataset values out of exception text on principle.
            raise ValidationError(
                "datasets are not neighbours under substitution: they must "
                "have equal length and differ in exactly one position"
            )
        return self

    def swapped(self) -> "NeighborPair":
        """The same pair with the roles of ``a`` and ``b`` exchanged."""
        return NeighborPair(self.b, self.a, name=f"{self.name} (swapped)")


def bit_flip_pair(n: int, position: int = 0) -> NeighborPair:
    """All-zeros vs one bit flipped — worst case for per-record and
    counting mechanisms on binary data.

    Parameters
    ----------
    n:
        Dataset size.
    position:
        Index of the flipped record.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not 0 <= position < n:
        raise ValidationError("position must index into the dataset")
    a = (0,) * n
    b = tuple(1 if i == position else 0 for i in range(n))
    return NeighborPair(a, b, name=f"bit-flip@{position}/n={n}").validate()


def extreme_record_pair(
    n: int, low: float = 0.0, high: float = 1.0, position: int = 0
) -> NeighborPair:
    """All-``low`` vs one record at ``high`` — saturates a sum query.

    Moving one record across the full data range displaces a sum (or any
    1-Lipschitz aggregate) by exactly ``high - low``, the query's global
    sensitivity, so no other substitution shifts the output law further.

    Parameters
    ----------
    n:
        Dataset size.
    low, high:
        The record domain's extremes (``low < high``).
    position:
        Index of the extreme record.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not 0 <= position < n:
        raise ValidationError("position must index into the dataset")
    if not float(low) < float(high):
        raise ValidationError("low must be strictly below high")
    a = (float(low),) * n
    b = tuple(
        float(high) if i == position else float(low) for i in range(n)
    )
    return NeighborPair(
        a, b, name=f"extreme-record@{position}/n={n}"
    ).validate()


def score_gap_pair(n: int) -> NeighborPair:
    """Binary pair maximizing the quality gap of candidate-counting scores.

    For selection mechanisms whose quality of candidate ``u`` is the count
    of records equal to ``u`` (sensitivity 1), flipping one record moves
    two candidates' scores by one *in opposite directions* — the steepest
    possible tilt of the output law, hence the worst neighbour pair.

    Parameters
    ----------
    n:
        Dataset size.
    """
    return NeighborPair(
        bit_flip_pair(n).a, bit_flip_pair(n).b, name=f"score-gap/n={n}"
    ).validate()

