"""Rule registry: the catalog ``dplint`` runs and documents itself from.

Rules self-register via the :func:`register` decorator at import time;
:func:`all_rules` imports the rule modules on first use so the registry is
complete without callers importing anything but this module.
"""

from __future__ import annotations

import importlib

from repro.analysis.base import Rule
from repro.exceptions import ValidationError

_REGISTRY: dict[str, type[Rule]] = {}

#: Modules that define rules; imported lazily by :func:`all_rules`.
_RULE_MODULES = (
    "repro.analysis.rules.rng",
    "repro.analysis.rules.sampling",
    "repro.analysis.rules.exports",
    "repro.analysis.rules.docstrings",
    "repro.analysis.flow.rules",
)


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry.

    Parameters
    ----------
    rule_class:
        Concrete :class:`~repro.analysis.base.Rule` subclass with unique
        ``id`` and ``name`` attributes.
    """
    if not rule_class.id or not rule_class.name:
        raise ValidationError(
            f"rule {rule_class.__name__} must define id and name"
        )
    for existing in _REGISTRY.values():
        if existing.id == rule_class.id or existing.name == rule_class.name:
            if existing is not rule_class:
                raise ValidationError(
                    f"duplicate rule id/name: {rule_class.id} "
                    f"({rule_class.name})"
                )
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def _load_builtin_rules() -> None:
    for module in _RULE_MODULES:
        importlib.import_module(module)


def all_rules() -> list[type[Rule]]:
    """Every registered rule class, ordered by rule id."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(key: str) -> type[Rule]:
    """Look up a rule by id (``DPL001``) or name (``rng-discipline``).

    Parameters
    ----------
    key:
        Rule id or kebab-case rule name.
    """
    _load_builtin_rules()
    for rule_class in _REGISTRY.values():
        if key in (rule_class.id, rule_class.name):
            return rule_class
    raise ValidationError(f"unknown rule {key!r}")


def known_rule_keys() -> frozenset[str]:
    """All valid ids and names (accepted in pragmas)."""
    _load_builtin_rules()
    keys = set()
    for rule_class in _REGISTRY.values():
        keys.add(rule_class.id)
        keys.add(rule_class.name)
    return frozenset(keys)
