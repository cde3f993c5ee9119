"""Mechanism interface and privacy specifications.

Definition 2.1 of the paper: a randomized function ``f`` is ε-DP if for all
neighbouring datasets ``D, D'`` and all output events ``Y``,
``Pr[f(D) ∈ Y] ≤ e^ε · Pr[f(D') ∈ Y]``. Every mechanism in this package
carries its claimed :class:`PrivacySpec` so accountants and auditors can
read guarantees off the object rather than trusting call sites.
"""

from __future__ import annotations

import abc
import functools
import numbers
from dataclasses import dataclass

from repro.exceptions import ValidationError
from repro.observability import tracer as _trace
from repro.observability.events import MechanismReleaseEvent
from repro.utils.validation import check_in_range, check_positive, check_random_state


@dataclass(frozen=True)
class PrivacySpec:
    """An (ε, δ) differential-privacy guarantee.

    ``delta == 0`` is pure ε-DP — the only flavour the paper uses — while
    ``delta > 0`` covers the Gaussian mechanism extension.
    """

    epsilon: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        check_positive(self.epsilon, name="epsilon")
        check_in_range(self.delta, name="delta", low=0.0, high=1.0)

    @property
    def is_pure(self) -> bool:
        """True when the guarantee is pure ε-DP (δ = 0)."""
        return self.delta == 0.0

    def compose(self, other: "PrivacySpec") -> "PrivacySpec":
        """Sequential (basic) composition: parameters add."""
        return PrivacySpec(self.epsilon + other.epsilon, self.delta + other.delta)

    def __str__(self) -> str:
        if self.is_pure:
            return f"{self.epsilon:.6g}-DP"
        return f"({self.epsilon:.6g}, {self.delta:.3g})-DP"


def _traced_release(release):
    """Wrap a subclass ``release`` with the observability hook.

    The wrapper is transparent when tracing is disabled (one module-level
    read and a ``None`` check before delegating, and the caller-provided
    ``random_state`` flows through untouched, so RNG streams — and hence
    outputs — are bit-identical with tracing on or off). When a tracer is
    active it times the release in a span, appends a
    :class:`~repro.observability.events.MechanismReleaseEvent` carrying
    the mechanism's :class:`PrivacySpec`, and bumps the
    ``mechanism.releases`` counter.
    """

    @functools.wraps(release)
    def traced(self, *args, **kwargs):
        tracer = _trace.current()
        if tracer is None:
            return release(self, *args, **kwargs)
        return self._run_traced(
            tracer, "release", lambda: release(self, *args, **kwargs)
        )

    traced._dp_traced = True
    return traced


class Mechanism(abc.ABC):
    """A randomized function of a dataset with a declared privacy guarantee.

    Subclasses implement :meth:`release` (one randomized output for one
    dataset). The base class stores the nominal :class:`PrivacySpec`;
    auditors in :mod:`repro.privacy` measure whether the implementation
    actually honours it.

    Every concrete ``release`` is wrapped at class-creation time with the
    observability hook (see :mod:`repro.observability`): all mechanism
    families emit release spans, ledger events, and counters without any
    per-subclass instrumentation, and without touching their math or RNG
    streams. With no active tracer the hook is a near-free no-op.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        """Install the tracing wrapper around a subclass's ``release``."""
        super().__init_subclass__(**kwargs)
        release = cls.__dict__.get("release")
        if (
            release is not None
            and callable(release)
            and not getattr(release, "__isabstractmethod__", False)
            and not getattr(release, "_dp_traced", False)
        ):
            cls.release = _traced_release(release)

    def __init__(self, privacy: PrivacySpec) -> None:
        if not isinstance(privacy, PrivacySpec):
            raise ValidationError("privacy must be a PrivacySpec")
        self._privacy = privacy

    @property
    def privacy(self) -> PrivacySpec:
        """The nominal differential-privacy guarantee of this mechanism."""
        return self._privacy

    @property
    def epsilon(self) -> float:
        """Shorthand for ``privacy.epsilon``."""
        return self._privacy.epsilon

    @property
    def delta(self) -> float:
        """Shorthand for ``privacy.delta``."""
        return self._privacy.delta

    @abc.abstractmethod
    def release(self, dataset, random_state=None):
        """Produce one randomized, privacy-preserving output for ``dataset``."""

    def release_many(self, dataset, n, random_state=None):
        """Draw ``n`` independent releases of ``dataset`` in one call.

        The batch contract is *stream equivalence*: the outputs are
        bit-identical to ``n`` sequential :meth:`release` calls sharing
        the same :class:`numpy.random.Generator` (in particular,
        ``release_many(d, 1, rng)[0] == release(d, rng)`` under equal
        seeds). Families with a vectorized kernel override
        :meth:`_release_many`; the base fallback loops ``release``.

        Observability records the whole batch as *one* aggregated ledger
        event with ``count == n`` (and bumps ``mechanism.releases`` by
        ``n``), so traced ε totals match ``n`` individual releases while
        traces stay O(1) per batch.

        Parameters
        ----------
        dataset:
            The dataset to query, exactly as :meth:`release` expects it.
        n:
            Number of releases to draw (integer ≥ 1).
        random_state:
            Seed or :class:`numpy.random.Generator` shared by the whole
            batch.

        Returns
        -------
        numpy.ndarray or list
            ``n`` outputs, leading axis of length ``n`` — an array for
            numeric mechanisms, a list for structured outputs.
        """
        if not isinstance(n, numbers.Integral) or isinstance(n, bool):
            raise ValidationError(f"n must be an integer, got {n!r}")
        n = int(n)
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        rng = check_random_state(random_state)
        tracer = _trace.current()
        if tracer is None:
            return self._release_many(dataset, n, rng)
        return self._run_traced(
            tracer,
            "release_many",
            lambda: self._release_many(dataset, n, rng),
            count=n,
        )

    def _release_many(self, dataset, n, rng):
        """Batch kernel: ``n`` draws from one shared generator.

        The fallback loops the *untraced* ``release`` (the raw subclass
        method underneath the observability wrapper) so a batch never
        emits per-draw ledger events; :meth:`release_many` records the
        single aggregated event. Override with a numpy kernel that
        consumes the RNG stream exactly as the loop would.

        A draw that raises mid-batch leaves the earlier draws *done*
        while the aggregated event in :meth:`release_many` is never
        reached, so :meth:`_collect_releases` records the completed
        draws before re-raising.

        Parameters
        ----------
        dataset:
            The dataset to query.
        n:
            Number of releases (already validated, ≥ 1).
        rng:
            A ready :class:`numpy.random.Generator`.
        """
        release = type(self).release
        release = getattr(release, "__wrapped__", release)
        return self._collect_releases(
            release(self, dataset, random_state=rng) for _ in range(n)
        )

    def _record_releases(self, tracer, count=1) -> None:
        """Record ``count`` releases of this mechanism on ``tracer``.

        The one ledger-emission path: every traced release, batch and
        partial batch appends a single
        :class:`~repro.observability.events.MechanismReleaseEvent`
        carrying the :class:`PrivacySpec` and bumps the
        ``mechanism.releases`` counter by ``count``.
        """
        spec = self.privacy
        mechanism = type(self).__name__
        tracer.record(
            MechanismReleaseEvent(
                label=mechanism,
                epsilon=spec.epsilon,
                delta=spec.delta,
                mechanism=mechanism,
                count=count,
            )
        )
        tracer.count("mechanism.releases", count)

    def _run_traced(self, tracer, operation, call, count=None):
        """Time ``call()`` in an ``<operation>:<Mechanism>`` span on
        ``tracer``, then record its releases (``count``, or one release
        when ``count`` is ``None``)."""
        mechanism = type(self).__name__
        attributes = {"mechanism": mechanism}
        if count is not None:
            attributes["count"] = count
        with tracer.span(f"{operation}:{mechanism}", **attributes):
            result = call()
        self._record_releases(tracer, 1 if count is None else count)
        return result

    def _collect_releases(self, draws) -> list:
        """Materialize ``draws``, an iterator of real releases, as a list.

        If a draw raises, the ones already made consumed their budget:
        under an active tracer they are recorded as one aggregated event
        before re-raising, so the ledger never under-counts.
        """
        outputs = []
        try:
            for output in draws:
                outputs.append(output)
        except BaseException:
            tracer = _trace.current()
            if tracer is not None and outputs:
                self._record_releases(tracer, len(outputs))
            raise
        return outputs

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._privacy})"
