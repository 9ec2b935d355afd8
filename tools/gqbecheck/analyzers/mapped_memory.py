"""Mapped-write safety rules (contract ``snapshot-io``).

Snapshot shards are served as zero-copy ``np.frombuffer`` views over
``mmap`` regions; ``ColumnarEdgeTable.from_mapped`` wraps those views
and every accessor (``subject_ids``, ``object_ids``, ...) hands them out
read-only by convention.  Writing through such a view either raises
(read-only buffer) or — worse, with a writable mapping — silently edits
the snapshot file on disk for every process sharing it.  No table's
columns are ever written: live ingest gives a label a new table over
new columns (``VerticalPartitionStore.ingest_rows``), and code that
needs a changed array writes into a copy.

Rules
-----
``MAP001``
    Subscript or augmented assignment into an array that originates
    from a mapped accessor (``np.frombuffer``, ``from_mapped``,
    ``subject_ids``/``object_ids``, ``load_table``/``load_vocabulary``/
    ``load_graph``).  Taint propagates through plain-name aliases and
    subscript views of tainted names.
``MAP002``
    Calling an in-place-mutating ndarray method (``sort``, ``fill``,
    ``put``, ``partition``, ...) on a tainted array, or passing one as
    a function's ``out=`` argument.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from ..findings import Finding, Rule
from ..project import SourceFile
from .base import Analyzer, call_name, imported_aliases, resolve_call

CONTRACT = "snapshot-io"

MAP001 = Rule(
    rule_id="MAP001",
    title="in-place write into a mapped array",
    severity="error",
    contract=CONTRACT,
    rationale=(
        "arrays from frombuffer/from_mapped alias the snapshot file; "
        "writes raise on read-only buffers or corrupt the shared mapping "
        "— write into a copy instead"
    ),
)
MAP002 = Rule(
    rule_id="MAP002",
    title="mutating ndarray method on a mapped array",
    severity="error",
    contract=CONTRACT,
    rationale=(
        "sort/fill/put/... mutate their receiver; on a mapped view that "
        "is a write into the snapshot — work on a copy instead"
    ),
)

#: Call names (post alias-resolution suffix match) whose result is a
#: view over mapped memory.
_MAPPED_SOURCE_CALLS = {
    "frombuffer",
    "from_mapped",
    "load_table",
    "load_vocabulary",
    "load_graph",
}
#: Attribute accesses whose value is a mapped view (table accessors).
_MAPPED_SOURCE_ATTRS = {
    "subject_ids",
    "object_ids",
}
#: ndarray methods that mutate their receiver in place.
_MUTATING_METHODS = {
    "sort",
    "fill",
    "put",
    "itemset",
    "partition",
    "resize",
    "byteswap",
    "setflags",
}


class MappedMemoryAnalyzer(Analyzer):
    name = "mapped-memory"
    rules = (MAP001, MAP002)

    def check_file(self, source: SourceFile) -> Iterable[Finding]:
        if CONTRACT not in source.contracts:
            return []
        findings: list[Finding] = []
        aliases = imported_aliases(source.tree)
        for scope in _function_scopes(source.tree):
            tainted = _tainted_names(scope, aliases)
            findings.extend(_check_scope(source, scope, tainted, aliases))
        return findings


def _function_scopes(tree: ast.Module) -> list[ast.AST]:
    scopes: list[ast.AST] = [tree]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append(node)
    return scopes


def _scope_nodes(scope: ast.AST) -> Iterable[ast.AST]:
    for child in ast.iter_child_nodes(scope):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield child
        yield from _scope_nodes(child)


def _is_mapped_source(node: ast.expr, tainted: set[str], aliases: dict[str, str]) -> bool:
    """Whether ``node`` evaluates to (a view of) mapped memory."""
    if isinstance(node, ast.Name):
        return node.id in tainted
    if isinstance(node, ast.Attribute):
        if node.attr in _MAPPED_SOURCE_ATTRS:
            return True
        return _is_mapped_source(node.value, tainted, aliases)
    if isinstance(node, ast.Subscript):
        # A slice of a mapped array is still a view of mapped memory.
        return _is_mapped_source(node.value, tainted, aliases)
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name is not None:
            resolved = resolve_call(name, aliases)
            if resolved.rsplit(".", maxsplit=1)[-1] in _MAPPED_SOURCE_CALLS:
                return True
        # ndarray methods like .reshape()/.view() keep pointing at the
        # same buffer; .copy()/.astype() break the alias.
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in ("copy", "astype", "tolist"):
                return False
            return _is_mapped_source(node.func.value, tainted, aliases)
    return False


def _tainted_names(scope: ast.AST, aliases: dict[str, str]) -> set[str]:
    """Names in ``scope`` bound to mapped-origin arrays.

    Two fixpoint-free forward passes are enough in practice: pass one
    seeds names assigned directly from mapped sources, pass two
    propagates through one level of aliasing (``b = a``; ``c = a[lo:hi]``).
    """
    tainted: set[str] = set()
    for _ in range(2):
        for node in _scope_nodes(scope):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if value is None:
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and _is_mapped_source(
                    value, tainted, aliases
                ):
                    tainted.add(target.id)
    return tainted


def _check_scope(
    source: SourceFile,
    scope: ast.AST,
    tainted: set[str],
    aliases: dict[str, str],
) -> Iterable[Finding]:
    for node in _scope_nodes(scope):
        # MAP001 — subscript assignment: tainted[i] = v / tainted[i] += v.
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and _is_mapped_source(
                    target.value, tainted, aliases
                ):
                    yield source.finding(
                        MAP001,
                        target,
                        "assignment into a mapped-origin array; write into "
                        "a copy instead",
                    )
        if isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Subscript) and _is_mapped_source(
                target.value, tainted, aliases
            ):
                yield source.finding(
                    MAP001,
                    target,
                    "augmented assignment into a mapped-origin array; "
                    "write into a copy instead",
                )
            elif isinstance(target, ast.Name) and target.id in tainted:
                # a += 1 on an ndarray is elementwise in-place.
                yield source.finding(
                    MAP001,
                    node,
                    "in-place augmented assignment on a mapped-origin "
                    "array mutates the mapping; work on a copy instead",
                )
        # MAP002 — mutating methods and out= sinks.
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
                and _is_mapped_source(node.func.value, tainted, aliases)
            ):
                yield source.finding(
                    MAP002,
                    node,
                    f".{node.func.attr}() mutates a mapped-origin array in "
                    "place; work on a copy instead",
                )
            for keyword in node.keywords:
                if keyword.arg == "out" and _is_mapped_source(
                    keyword.value, tainted, aliases
                ):
                    yield source.finding(
                        MAP002,
                        node,
                        "out= targets a mapped-origin array; write into an "
                        "owned buffer instead",
                    )
