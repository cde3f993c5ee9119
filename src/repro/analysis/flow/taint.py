"""Intraprocedural taint engine for sensitive-data flow.

The engine answers one question per function: *which expressions are
derived from raw records?* Taint enters at **sources** (dataset-like
parameters, ``SyntheticTask.sample``-style generators, dataset
constructors), propagates through assignments, arithmetic, subscripts,
comprehensions and f-strings, and is **declassified** at sanitizers —
differentially-private release calls — because their output is, by
construction, safe to publish. Rules in
:mod:`repro.analysis.flow.rules` then decide which **sinks** (logging,
returns, raises, ledger payloads, file writes) a tainted value must not
reach.

The analysis is deliberately conservative in both directions: a call with
a tainted argument taints its result (unless allowlisted as pure), while
anything the engine cannot resolve stays untainted — so findings point at
flows the engine positively traced, never at gaps in its model.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

__all__ = [
    "TaintLabel",
    "SinkEvent",
    "FunctionTaintAnalysis",
    "iter_function_defs",
    "dead_sanitizer_assignments",
]


@dataclass(frozen=True)
class TaintLabel:
    """Provenance of a tainted value.

    Parameters
    ----------
    kind:
        ``"param"`` (sensitive parameter), ``"call"`` (dataset
        constructor/loader), or ``"method"`` (generator method such as
        ``task.sample``).
    source:
        Human-readable origin: the parameter name or the call as written.
    line:
        1-based line where taint entered the function.
    """

    kind: str
    source: str
    line: int

    def describe(self) -> str:
        """Short origin description used in finding messages."""
        if self.kind == "param":
            return f"parameter {self.source!r}"
        return f"call to {self.source!r}"


#: Parameter names seeded as raw data on entry.
SOURCE_PARAMS = frozenset(
    {
        "dataset",
        "datasets",
        "data",
        "records",
        "record",
        "sample",
        "samples",
        "stream",
        "dataset_a",
        "dataset_b",
        "raw",
    }
)
#: Canonical dotted-name prefixes whose call results are raw data (dataset
#: loaders, neighbour-pair generators).
SOURCE_CALL_PREFIXES = ("repro.learning.datasets.", "repro.testing.neighbors.")
#: Method names whose call results are raw data regardless of the receiver
#: (``task.sample(...)``).
SOURCE_METHODS = frozenset({"sample"})
#: Method names that declassify: the DP release calls.
SANITIZER_METHODS = frozenset({"release", "release_many"})
#: Canonical callables whose results are benign metadata even with tainted
#: arguments.
PURE_CALLABLES = frozenset(
    {
        "len",
        "type",
        "isinstance",
        "id",
        "hash",
        "numpy.shape",
        "numpy.ndim",
        "numpy.size",
        "numpy.result_type",
    }
)
#: Attribute names whose access on tainted values yields benign metadata
#: (array shape/dtype), not data.
METADATA_ATTRIBUTES = frozenset({"shape", "ndim", "size", "dtype"})


def is_sanitizer_call(node: ast.Call) -> bool:
    """Whether ``node`` is a declassifying (DP release) call."""
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in SANITIZER_METHODS
    )


@dataclass(frozen=True)
class SinkEvent:
    """One tainted value reaching a potential egress point.

    Parameters
    ----------
    node:
        The sink statement/expression node (for the finding location).
    kind:
        ``"print"``, ``"logging"``, ``"file-write"``, ``"ledger"``,
        ``"return"``, or ``"raise"``.
    label:
        Provenance of the tainted value that reached the sink.
    detail:
        Short description of the sink (function or method called).
    """

    node: ast.AST
    kind: str
    label: TaintLabel
    detail: str


#: Methods that make an attribute call look like a logger at ``kind="logging"``.
_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "warn", "error", "critical", "exception", "log"}
)
_LOGGER_NAMES = frozenset({"logger", "log", "logging"})
_WRITE_METHODS = frozenset({"write", "writelines", "write_text"})


class FunctionTaintAnalysis:
    """Taint state for one function body.

    Runs a small fixpoint over the function's statements (taint only grows
    except at sanitizer assignments, so three passes always converge for
    the loop-free dataflow facts the rules need), then exposes
    :meth:`expr_label` for arbitrary expression queries and
    :meth:`iter_sink_events` for the rule layer.

    Parameters
    ----------
    func:
        The function to analyze.
    canonicalize:
        Maps a dotted name as written to its canonical form (import-alias
        and project-symbol aware).
    """

    _MAX_PASSES = 3

    def __init__(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        canonicalize: Callable[[str], str],
    ) -> None:
        self.func = func
        self.canonicalize = canonicalize
        self.env: dict[str, TaintLabel] = {}
        self._seed_params()
        self._run_fixpoint()

    # -- seeding and propagation -----------------------------------------

    def _seed_params(self) -> None:
        args = self.func.args
        all_args = [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *filter(None, [args.vararg, args.kwarg]),
        ]
        for arg in all_args:
            if arg.arg in SOURCE_PARAMS:
                self.env[arg.arg] = TaintLabel(
                    kind="param", source=arg.arg, line=arg.lineno
                )

    def _run_fixpoint(self) -> None:
        for _ in range(self._MAX_PASSES):
            before = dict(self.env)
            for node in ast.walk(self.func):
                self._transfer(node)
            if self.env == before:
                break

    def _transfer(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            label = self.expr_label(node.value)
            for target in node.targets:
                self._bind_target(target, label)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._bind_target(node.target, self.expr_label(node.value))
        elif isinstance(node, ast.AugAssign):
            label = self.expr_label(node.value)
            if label is not None and isinstance(node.target, ast.Name):
                self.env.setdefault(node.target.id, label)
        elif isinstance(node, ast.NamedExpr):
            label = self.expr_label(node.value)
            if label is not None and isinstance(node.target, ast.Name):
                self.env.setdefault(node.target.id, label)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            label = self.expr_label(node.iter)
            if label is not None:
                self._bind_target(node.target, label)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is None:
                    continue
                label = self.expr_label(item.context_expr)
                if label is not None:
                    self._bind_target(item.optional_vars, label)

    def _bind_target(self, target: ast.AST, label: TaintLabel | None) -> None:
        if isinstance(target, ast.Name):
            if label is None:
                # Reassignment from a clean value (e.g. a sanitizer call)
                # declassifies the name from here on. The fixpoint is
                # union-only otherwise, so this is the one kill rule.
                self.env.pop(target.id, None)
            else:
                self.env[target.id] = label
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, label)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, label)

    # -- expression queries ----------------------------------------------

    def expr_label(self, node: ast.AST | None) -> TaintLabel | None:
        """Provenance label if ``node`` evaluates to a tainted value.

        Parameters
        ----------
        node:
            Any expression node (``None`` returns ``None``).
        """
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            if node.attr in METADATA_ATTRIBUTES:
                return None
            return self.expr_label(node.value)
        if isinstance(node, ast.Call):
            return self._call_label(node)
        if isinstance(node, ast.Subscript):
            return self.expr_label(node.value)
        if isinstance(node, ast.BinOp):
            return self.expr_label(node.left) or self.expr_label(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.expr_label(node.operand)
        if isinstance(node, ast.BoolOp):
            return self._first_label(node.values)
        if isinstance(node, ast.Compare):
            return self.expr_label(node.left) or self._first_label(node.comparators)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return self._first_label(node.elts)
        if isinstance(node, ast.Dict):
            return self._first_label(
                [*filter(None, node.keys), *node.values]
            )
        if isinstance(node, ast.JoinedStr):
            return self._first_label(
                [part.value for part in node.values if isinstance(part, ast.FormattedValue)]
            )
        if isinstance(node, ast.FormattedValue):
            return self.expr_label(node.value)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._comprehension_label(node.elt, node.generators)
        if isinstance(node, ast.DictComp):
            return self._comprehension_label(node.value, node.generators)
        if isinstance(node, ast.IfExp):
            return self.expr_label(node.body) or self.expr_label(node.orelse)
        if isinstance(node, ast.Starred):
            return self.expr_label(node.value)
        if isinstance(node, ast.Await):
            return self.expr_label(node.value)
        return None

    def _first_label(self, nodes: list[ast.expr]) -> TaintLabel | None:
        for item in nodes:
            label = self.expr_label(item)
            if label is not None:
                return label
        return None

    def _comprehension_label(
        self, elt: ast.expr, generators: list[ast.comprehension]
    ) -> TaintLabel | None:
        for generator in generators:
            label = self.expr_label(generator.iter)
            if label is not None:
                return label
        return self.expr_label(elt)

    def _call_label(self, node: ast.Call) -> TaintLabel | None:
        if is_sanitizer_call(node):
            return None
        written = self._written_name(node.func)
        if written is not None:
            canonical = self.canonicalize(written)
            if canonical in PURE_CALLABLES:
                return None
            if canonical.startswith(SOURCE_CALL_PREFIXES):
                return TaintLabel(kind="call", source=written, line=node.lineno)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in SOURCE_METHODS
        ):
            receiver = self._written_name(node.func.value) or "<expr>"
            return TaintLabel(
                kind="method",
                source=f"{receiver}.{node.func.attr}",
                line=node.lineno,
            )
        # Conservative propagation: a call consuming raw data produces
        # data-derived output unless it is a recognized sanitizer.
        for argument in node.args:
            label = self.expr_label(argument)
            if label is not None:
                return label
        for keyword in node.keywords:
            label = self.expr_label(keyword.value)
            if label is not None:
                return label
        return self.expr_label(node.func) if isinstance(node.func, ast.Attribute) else None

    @staticmethod
    def _written_name(node: ast.AST) -> str | None:
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        return ".".join(reversed(parts))

    # -- sink scanning ----------------------------------------------------

    def iter_sink_events(self) -> Iterator[SinkEvent]:
        """Yield every tainted value reaching a sink in this function."""
        for node in ast.walk(self.func):
            if isinstance(node, ast.Call):
                yield from self._call_sinks(node)
            elif isinstance(node, ast.Return):
                label = self.expr_label(node.value)
                if label is not None:
                    yield SinkEvent(
                        node=node, kind="return", label=label, detail="return"
                    )
            elif isinstance(node, ast.Raise) and node.exc is not None:
                label = self.expr_label(node.exc)
                if label is not None:
                    yield SinkEvent(
                        node=node, kind="raise", label=label, detail="raise"
                    )

    def _call_sinks(self, node: ast.Call) -> Iterator[SinkEvent]:
        tainted_arg = self._first_label(
            [*node.args, *[keyword.value for keyword in node.keywords]]
        )
        if tainted_arg is None:
            return
        if isinstance(node.func, ast.Name):
            canonical = self.canonicalize(node.func.id)
            if canonical == "print":
                yield SinkEvent(
                    node=node, kind="print", label=tainted_arg, detail="print()"
                )
            return
        if not isinstance(node.func, ast.Attribute):
            return
        attr = node.func.attr
        receiver = self._written_name(node.func.value)
        canonical_receiver = (
            self.canonicalize(receiver) if receiver is not None else None
        )
        if attr in _LOG_METHODS and canonical_receiver is not None:
            head = canonical_receiver.split(".")[0].lower()
            if head in _LOGGER_NAMES or canonical_receiver.startswith("logging"):
                yield SinkEvent(
                    node=node,
                    kind="logging",
                    label=tainted_arg,
                    detail=f"{receiver}.{attr}()",
                )
                return
        if attr in _WRITE_METHODS:
            yield SinkEvent(
                node=node,
                kind="file-write",
                label=tainted_arg,
                detail=f"{receiver or '<expr>'}.{attr}()",
            )
            return
        full = self._written_name(node.func)
        if full is not None and self.canonicalize(full) in ("json.dump",):
            yield SinkEvent(
                node=node, kind="file-write", label=tainted_arg, detail=f"{full}()"
            )
            return
        if attr == "record":
            yield SinkEvent(
                node=node,
                kind="ledger",
                label=tainted_arg,
                detail=f"{receiver or '<expr>'}.record()",
            )


def iter_function_defs(
    tree: ast.Module,
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Yield ``(display_name, node)`` for every function in a module.

    Methods are reported as ``"Class.method"``; nested functions are
    analyzed as part of their enclosing function, not separately.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


@dataclass(frozen=True)
class _SanitizerUse:
    """Internal record of a sanitizer call whose result may be discarded."""

    node: ast.Call
    bound_name: str | None = field(default=None)


def dead_sanitizer_assignments(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.Call]:
    """Yield sanitizer calls whose privatized result is never used.

    Two shapes are reported: a bare expression statement discarding the
    release (``mech.release(data)``) and an assignment to a name that is
    never read afterwards. Either way the privacy budget was spent for
    nothing — usually a refactoring leftover.

    Parameters
    ----------
    func:
        The function to scan.
    """
    uses: list[_SanitizerUse] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            if is_sanitizer_call(node.value):
                uses.append(_SanitizerUse(node=node.value))
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if (
                is_sanitizer_call(node.value)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                uses.append(
                    _SanitizerUse(node=node.value, bound_name=node.targets[0].id)
                )
    if not uses:
        return
    reads: set[str] = set()
    assigned_names = {use.bound_name for use in uses if use.bound_name}
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in assigned_names:
                reads.add(node.id)
    for use in uses:
        if use.bound_name is None or use.bound_name not in reads:
            yield use.node
