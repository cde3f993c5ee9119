"""Run manifests: the machine-readable ``BENCH_<id>.json`` trajectory.

Every engine run of an experiment produces one :class:`RunManifest`
recording, per configuration, the wall time, the worker that ran it, and
whether it was served from the result cache — plus run-level totals.
``RunManifest.write`` serializes it to ``BENCH_<id>.json`` with a stable,
versioned schema so perf trajectories can be diffed across commits by CI.

Schema (version 2)::

    {
      "schema_version": 2,
      "experiment": "E4",
      "claim": "...",
      "bench": "benchmarks/bench_e4_gibbs_privacy.py",
      "code_digest": "<sha256>",
      "engine": {"workers": 2, "cache": true},
      "total_seconds": 1.234,
      "summary": {"configurations": 15, "cache_hits": 0, "failures": 0,
                  "executed_seconds": 1.2},
      "configurations": [
        {"parameters": {...}, "outputs": {...}, "seconds": 0.08,
         "worker": 12345, "cache_hit": false, "error": null},
        ...
      ]
    }

Version 1 also carried ``engine.timeout``, ``engine.retries`` and a
per-record ``retries``. A configuration record may additionally carry an
OPTIONAL ``"trace"`` key (absent unless the run executed serially under an
active tracer): a small summary dict of the ledger events, spans, and
mechanism releases attributable to that configuration alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ValidationError

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "ConfigurationRecord",
    "RunManifest",
    "load_manifest",
]

BENCH_SCHEMA_VERSION = 2

_RECORD_KEYS = frozenset(
    ("parameters", "outputs", "seconds", "worker", "cache_hit", "error")
)


@dataclass
class ConfigurationRecord:
    """One configuration's execution record inside a run manifest."""

    parameters: dict
    outputs: dict
    seconds: float
    worker: int | None = None
    cache_hit: bool = False
    error: str | None = None
    trace: dict | None = None

    @property
    def ok(self) -> bool:
        """Whether the configuration produced outputs (no error)."""
        return self.error is None

    def to_dict(self) -> dict:
        """The record as a JSON-serializable dict (schema order).

        The optional ``trace`` summary is serialized only when present, so
        untraced manifests are byte-identical to pre-observability ones.
        """
        payload = {
            "parameters": dict(self.parameters),
            "outputs": dict(self.outputs),
            "seconds": float(self.seconds),
            "worker": self.worker,
            "cache_hit": bool(self.cache_hit),
            "error": self.error,
        }
        if self.trace is not None:
            payload["trace"] = dict(self.trace)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ConfigurationRecord":
        """Rebuild a record from its :meth:`to_dict` form.

        Parameters
        ----------
        payload:
            Dict with the schema's record keys (``trace`` optional).
        """
        if not isinstance(payload, dict) or not _RECORD_KEYS <= set(payload):
            missing = sorted(_RECORD_KEYS - set(payload or ()))
            raise ValidationError(f"configuration record missing keys: {missing}")
        return cls(
            parameters=dict(payload["parameters"]),
            outputs=dict(payload["outputs"]),
            seconds=float(payload["seconds"]),
            worker=payload["worker"],
            cache_hit=bool(payload["cache_hit"]),
            error=payload["error"],
            trace=payload.get("trace"),
        )


@dataclass
class RunManifest:
    """One engine run of one experiment, ready to serialize."""

    experiment_id: str
    claim: str
    bench: str
    code_digest: str
    workers: int
    cache_enabled: bool
    total_seconds: float = 0.0
    records: list[ConfigurationRecord] = field(default_factory=list)

    @property
    def cache_hits(self) -> int:
        """How many configurations were served from the result cache."""
        return sum(1 for record in self.records if record.cache_hit)

    @property
    def failures(self) -> int:
        """How many configurations raised instead of producing outputs."""
        return sum(1 for record in self.records if not record.ok)

    @property
    def executed_seconds(self) -> float:
        """Summed per-configuration compute time (cache hits excluded)."""
        return float(
            sum(record.seconds for record in self.records if not record.cache_hit)
        )

    def to_dict(self) -> dict:
        """The manifest as its schema-version-2 JSON document."""
        return {
            "schema_version": BENCH_SCHEMA_VERSION,
            "experiment": self.experiment_id,
            "claim": self.claim,
            "bench": self.bench,
            "code_digest": self.code_digest,
            "engine": {
                "workers": int(self.workers),
                "cache": bool(self.cache_enabled),
            },
            "total_seconds": float(self.total_seconds),
            "summary": {
                "configurations": len(self.records),
                "cache_hits": self.cache_hits,
                "failures": self.failures,
                "executed_seconds": self.executed_seconds,
            },
            "configurations": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        """Rebuild a manifest from its :meth:`to_dict` document.

        Parameters
        ----------
        payload:
            A schema-version-2 ``BENCH_<id>.json`` document.
        """
        if not isinstance(payload, dict):
            raise ValidationError("manifest payload must be a dict")
        version = payload.get("schema_version")
        if version != BENCH_SCHEMA_VERSION:
            raise ValidationError(
                f"unsupported BENCH schema version {version!r}; "
                f"this build reads version {BENCH_SCHEMA_VERSION}"
            )
        required = ("experiment", "claim", "bench", "code_digest", "engine",
                    "total_seconds", "configurations")
        missing = sorted(set(required) - set(payload))
        if missing:
            raise ValidationError(f"manifest missing keys: {missing}")
        engine = payload["engine"]
        return cls(
            experiment_id=str(payload["experiment"]),
            claim=str(payload["claim"]),
            bench=str(payload["bench"]),
            code_digest=str(payload["code_digest"]),
            workers=int(engine.get("workers", 1)),
            cache_enabled=bool(engine.get("cache", False)),
            total_seconds=float(payload["total_seconds"]),
            records=[
                ConfigurationRecord.from_dict(record)
                for record in payload["configurations"]
            ],
        )

    def write(self, directory) -> Path:
        """Write ``BENCH_<id>.json`` under ``directory``; returns the path.

        Parameters
        ----------
        directory:
            Target directory (created if needed).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{self.experiment_id}.json"
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path


def load_manifest(path) -> RunManifest:
    """Read and validate a ``BENCH_<id>.json`` file.

    Parameters
    ----------
    path:
        Path to a manifest written by :meth:`RunManifest.write`.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as error:
        raise ValidationError(f"cannot read manifest {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise ValidationError(f"manifest {path} is not valid JSON: {error}") from error
    return RunManifest.from_dict(payload)
