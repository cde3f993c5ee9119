"""Neighbouring relations (Definition 2.1 of the paper).

Two datasets are neighbours when they differ in exactly one record
(substitution relation — the one the paper uses for learning: samples
``Ẑ, Ẑ'`` with ``(Xᵢ,Yᵢ) ≠ (Xᵢ',Yᵢ')`` for one i and equal elsewhere).
A mechanism with output distributions ``P, P'`` on a neighbouring pair is
ε-DP on that pair iff ``D_∞(P‖P') ≤ ε`` and ``D_∞(P'‖P) ≤ ε``.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence

from repro.exceptions import ValidationError


def is_neighbour(dataset_a: Sequence, dataset_b: Sequence) -> bool:
    """Whether two equal-length datasets differ in exactly one position.

    Parameters
    ----------
    dataset_a, dataset_b:
        Record sequences compared under the substitution relation.
    """
    a = list(dataset_a)
    b = list(dataset_b)
    if len(a) != len(b):
        return False
    differences = sum(1 for x, y in zip(a, b) if x != y)
    return differences == 1


def all_neighbour_pairs(
    universe: Sequence, n: int
) -> Iterator[tuple[tuple, tuple]]:
    """Yield every ordered neighbouring pair of size-``n`` datasets.

    Enumerates ``universe^n`` and all single-record substitutions —
    exponential in ``n``, intended for the exactly-checkable universes of
    the experiments. Pairs are yielded once per direction because the DP
    inequality must hold in both.

    Parameters
    ----------
    universe:
        The record domain; records must be distinct.
    n:
        Dataset size.
    """
    universe = list(universe)
    if not universe:
        raise ValidationError("universe must not be empty")
    if any(a == b for i, a in enumerate(universe) for b in universe[:i]):
        raise ValidationError("universe contains duplicate records")
    if n < 1:
        raise ValidationError("n must be >= 1")
    for dataset in itertools.product(universe, repeat=n):
        for position in range(n):
            for replacement in universe:
                if replacement == dataset[position]:
                    continue
                neighbour = list(dataset)
                neighbour[position] = replacement
                yield dataset, tuple(neighbour)

