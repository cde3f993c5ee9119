"""Inline suppression pragmas: ``# dplint: disable=<rule>[,<rule>] -- why``.

A pragma suppresses findings of the listed rules (by id or name, or
``all``) on the physical line it sits on. Because a silent suppression is
itself a privacy-review smell, the engine reports pragmas that carry no
justification text, and pragmas naming unknown rules, as ``DPL000``
findings — those cannot be suppressed.
"""

from __future__ import annotations

import difflib
import io
import re
import tokenize
from dataclasses import dataclass, field

from repro.analysis.findings import Finding, Severity

#: Pseudo-rule id under which pragma misuse is reported.
PRAGMA_RULE_ID = "DPL000"
PRAGMA_RULE_NAME = "pragma-hygiene"

_PRAGMA_RE = re.compile(
    r"#\s*dplint:\s*disable=(?P<rules>[A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
    r"(?:\s*--\s*(?P<why>.*))?"
)


@dataclass
class Pragma:
    """One parsed suppression comment.

    Parameters
    ----------
    line:
        1-based line the pragma (and the code it suppresses) sits on.
    column:
        0-based column of the comment token.
    rules:
        Rule ids/names listed after ``disable=`` (may include ``all``).
    justification:
        Text after ``--``; empty when the author gave no reason.
    """

    line: int
    column: int
    rules: tuple[str, ...]
    justification: str = ""


@dataclass
class SuppressionIndex:
    """Per-module index of pragmas, queried by the engine per finding."""

    pragmas: dict[int, Pragma] = field(default_factory=dict)

    def suppresses(
        self, line: int, rule_keys: frozenset[str], end_line: int | None = None
    ) -> bool:
        """Whether a finding spanning ``line``..``end_line`` for any key in
        ``rule_keys`` is suppressed by a pragma on one of those lines.

        Multi-line constructs (a call whose arguments wrap, a comprehension
        split for readability) are suppressible from any physical line of
        the span, so the pragma can sit on the continuation line where the
        offending argument actually lives.

        Parameters
        ----------
        line:
            First 1-based finding line.
        rule_keys:
            The finding's rule id and name (both accepted in pragmas).
        end_line:
            Last 1-based line of the construct (defaults to ``line``).
        """
        last = max(line, end_line or line)
        for candidate in range(line, last + 1):
            pragma = self.pragmas.get(candidate)
            if pragma is None:
                continue
            listed = set(pragma.rules)
            if "all" in listed or listed & set(rule_keys):
                return True
        return False


def nearest_rule_key(key: str, known_keys: frozenset[str]) -> str | None:
    """Closest valid rule id/name to a mistyped ``key`` (``None`` if far off).

    Parameters
    ----------
    key:
        The unknown rule id or name as written.
    known_keys:
        Every valid rule id and name.
    """
    matches = difflib.get_close_matches(key, sorted(known_keys), n=1, cutoff=0.4)
    return matches[0] if matches else None


def scan_pragmas(source: str) -> SuppressionIndex:
    """Tokenize ``source`` and index every ``dplint: disable`` comment.

    Using the tokenizer (rather than a per-line regex) means pragma-looking
    text inside string literals is never misread as a suppression.
    """
    index = SuppressionIndex()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(token.string)
            if match is None:
                continue
            rules = tuple(
                part.strip() for part in match.group("rules").split(",")
            )
            index.pragmas[token.start[0]] = Pragma(
                line=token.start[0],
                column=token.start[1],
                rules=rules,
                justification=(match.group("why") or "").strip(),
            )
    except (tokenize.TokenError, IndentationError):
        # The file does not tokenize; the engine reports the parse error,
        # so return whatever pragmas were seen before the bad token.
        return index
    return index


def pragma_findings(
    path: str, index: SuppressionIndex, known_keys: frozenset[str]
) -> list[Finding]:
    """Findings for malformed pragmas (unknown rules, missing justification).

    Parameters
    ----------
    path:
        File path used in the findings.
    index:
        Pragmas scanned from the file.
    known_keys:
        Valid rule ids and names; anything else in a pragma is reported.
    """
    findings = []
    for pragma in index.pragmas.values():
        unknown = [
            key for key in pragma.rules if key != "all" and key not in known_keys
        ]
        if unknown:
            hints = []
            for key in unknown:
                nearest = nearest_rule_key(key, known_keys)
                hints.append(
                    f"{key!r}" + (f" (did you mean {nearest!r}?)" if nearest else "")
                )
            findings.append(
                Finding(
                    path=path,
                    line=pragma.line,
                    column=pragma.column,
                    rule_id=PRAGMA_RULE_ID,
                    rule_name=PRAGMA_RULE_NAME,
                    severity=Severity.WARNING,
                    message=(
                        f"pragma disables unknown rule(s) {', '.join(hints)}; "
                        "check the rule catalog"
                    ),
                )
            )
        if not pragma.justification:
            findings.append(
                Finding(
                    path=path,
                    line=pragma.line,
                    column=pragma.column,
                    rule_id=PRAGMA_RULE_ID,
                    rule_name=PRAGMA_RULE_NAME,
                    severity=Severity.WARNING,
                    message=(
                        "suppression pragma lacks a justification; write "
                        "'# dplint: disable=<rule> -- <reason>'"
                    ),
                )
            )
    return findings
