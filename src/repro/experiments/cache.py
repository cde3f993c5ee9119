"""Content-addressed on-disk cache for benchmark configuration results.

A cache entry is keyed by the experiment id, the canonicalized
configuration parameters, and a *code-version digest* of every ``*.py``
file in the ``repro`` package and in the bench file's directory. Any edit
to that source changes the digest, so a result is never served for
library or bench code other than the code that computed it. The digest
does not cover the Python interpreter, NumPy or SciPy; ``--no-cache``
recomputes after upgrading them.

Layout on disk: ``<root>/<key[:2]>/<key>.json`` where ``key`` is the
SHA-256 hex digest of the identity triple. Entries are whole JSON
documents written atomically (tmp file + rename).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable, Mapping
from pathlib import Path

import numpy as np

from repro.exceptions import ValidationError
from repro.observability import tracer as _trace

__all__ = ["ResultCache", "canonical_parameters", "code_digest"]


def _jsonable(value):
    """JSON fallback: coerce numpy scalars/arrays so keys are stable."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"parameter of type {type(value).__name__} is not JSON-serializable")


def canonical_parameters(parameters: Mapping) -> str:
    """One canonical JSON string for a configuration's parameters.

    Keys are sorted and numpy scalars are coerced to Python scalars, so
    logically-equal configurations always map to the same cache key.

    Parameters
    ----------
    parameters:
        The configuration's parameter mapping (JSON-serializable values).
    """
    if not isinstance(parameters, Mapping):
        raise ValidationError("parameters must be a mapping")
    return json.dumps(
        dict(parameters),
        sort_keys=True,
        separators=(",", ":"),
        default=_jsonable,
    )


def code_digest(roots: Iterable) -> str:
    """SHA-256 digest over every ``*.py`` file under ``roots``.

    Each file contributes its path relative to its root and its bytes, so
    the digest does not depend on where the checkout lives. A missing root
    contributes nothing.

    Parameters
    ----------
    roots:
        Directories whose source defines the behaviour being cached, in a
        fixed order (the engine passes the ``repro`` package directory and
        the bench file's directory). They are walked recursively.
    """
    hasher = hashlib.sha256()
    for root in roots:
        root = Path(root)
        for path in sorted(root.rglob("*.py")):
            hasher.update(path.relative_to(root).as_posix().encode())
            hasher.update(b"\x00")
            hasher.update(path.read_bytes())
            hasher.update(b"\x01")
    return hasher.hexdigest()


class ResultCache:
    """Content-addressed store of completed benchmark configurations.

    Parameters
    ----------
    root:
        Directory holding the cache; created lazily on first write.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)

    def key(self, experiment_id: str, parameters: Mapping, digest: str) -> str:
        """The cache key for one (experiment, configuration, code) triple.

        Parameters
        ----------
        experiment_id:
            Registry id of the experiment (e.g. ``"E4"``).
        parameters:
            The configuration's parameters (canonicalized internally).
        digest:
            Code-version digest from :func:`code_digest`.
        """
        identity = "\n".join(
            [str(experiment_id), str(digest), canonical_parameters(parameters)]
        )
        return hashlib.sha256(identity.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The stored payload for ``key``, or ``None`` on miss/corruption."""
        path = self._path(key)
        tracer = _trace.current()
        try:
            with path.open(encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            if tracer is not None:
                tracer.count("cache.misses")
            return None  # miss, or a torn entry: treat as absent and re-run
        if not isinstance(payload, dict) or "outputs" not in payload:
            if tracer is not None:
                tracer.count("cache.misses")
            return None
        if tracer is not None:
            tracer.count("cache.hits")
        return payload

    def put(self, key: str, payload: Mapping) -> None:
        """Atomically store ``payload`` (a JSON-serializable mapping).

        Parameters
        ----------
        key:
            Cache key from :meth:`key`.
        payload:
            Mapping with at least an ``"outputs"`` entry.
        """
        if "outputs" not in payload:
            raise ValidationError("cache payloads must carry an 'outputs' entry")
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps(dict(payload), sort_keys=True, default=_jsonable),
            encoding="utf-8",
        )
        tmp.replace(path)
        tracer = _trace.current()
        if tracer is not None:
            tracer.count("cache.writes")

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
