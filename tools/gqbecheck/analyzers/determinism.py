"""Determinism rules (contract ``deterministic``).

The equivalence-pinned modules — lattice exploration/scoring,
``storage/join.py`` and the NESS/breadth-first baselines — carry the
repo's headline guarantee: ranked answers are byte-identical across
cold builds, mapped snapshots, live ingest, join dispatch regimes,
entity id assignments, batched and inline/pooled execution, and under
any ``PYTHONHASHSEED``.  That guarantee dies quietly the moment
answer-feeding code iterates an unordered collection, consults a
clock or RNG, or plucks "the first" element of a set.  CPython's set
iteration order depends on insertion history *and* on hash
randomization for str keys, so such a bug can pass every local run and
only break under a different ``PYTHONHASHSEED``.

Rules
-----
``DET001``
    A ``for`` loop or comprehension iterates directly over a
    set-typed expression.  Wrap the iterable in ``sorted(...)`` or keep
    an order-carrying structure (list, dict) alongside the set.
``DET002``
    A nondeterministic call: anything in ``random``/``secrets``,
    wall-clock reads (``time.time``/``time_ns``, ``datetime.now``...),
    ``uuid.uuid1``/``uuid4``, ``os.urandom``.  Monotonic timing reads
    (``time.perf_counter``, ``time.monotonic``) are allowed — they feed
    reported timing metadata, never ranked answers.
``DET003``
    Order-dependent extraction from an unordered collection:
    ``some_set.pop()`` or ``next(iter(some_set))``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from ..findings import Finding, Rule
from ..project import SourceFile
from .base import Analyzer, call_name, imported_aliases, resolve_call

CONTRACT = "deterministic"

DET001 = Rule(
    rule_id="DET001",
    title="iteration over an unordered collection",
    severity="error",
    contract=CONTRACT,
    rationale=(
        "set iteration order varies with insertion history and str hash "
        "randomization; any answer-feeding loop over it breaks the "
        "byte-identical equivalence guarantee"
    ),
)
DET002 = Rule(
    rule_id="DET002",
    title="nondeterministic call in an equivalence-pinned module",
    severity="error",
    contract=CONTRACT,
    rationale=(
        "clocks, RNGs and uuids make reruns differ; pinned modules may "
        "only read monotonic timers for reported timing metadata"
    ),
)
DET003 = Rule(
    rule_id="DET003",
    title="order-dependent extraction from an unordered collection",
    severity="error",
    contract=CONTRACT,
    rationale=(
        "set.pop() / next(iter(s)) pick a hash-order-dependent element; "
        "the chosen element can differ across processes and runs"
    ),
)

#: Fully-resolved call names that are nondeterministic by definition.
_NONDETERMINISTIC_EXACT = {
    "time.time",
    "time.time_ns",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}
#: Module prefixes where *every* call is nondeterministic.
_NONDETERMINISTIC_PREFIXES = ("random.", "secrets.")

#: Methods whose return value is a set (receiver type irrelevant) plus
#: repo-specific set-returning accessors on tables/relations.
_SET_RETURNING_METHODS = {
    "intersection",
    "union",
    "difference",
    "symmetric_difference",
    "subjects",
    "objects",
    "row_set",
    "distinct_rows",
}


class DeterminismAnalyzer(Analyzer):
    name = "determinism"
    rules = (DET001, DET002, DET003)

    def check_file(self, source: SourceFile) -> Iterable[Finding]:
        if CONTRACT not in source.contracts:
            return []
        findings: list[Finding] = []
        aliases = imported_aliases(source.tree)
        for scope in _scopes(source.tree):
            set_vars = _infer_set_variables(scope)
            for node in _scope_nodes(scope):
                findings.extend(
                    _check_node(source, node, set_vars, aliases)
                )
        return findings


def _scopes(tree: ast.Module) -> list[ast.AST]:
    """The module plus every function/lambda-free function scope."""
    scopes: list[ast.AST] = [tree]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append(node)
    return scopes


def _scope_nodes(scope: ast.AST) -> Iterable[ast.AST]:
    """Nodes belonging to ``scope`` but not to a nested function scope."""
    for child in ast.iter_child_nodes(scope):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield child
        yield from _scope_nodes(child)


def _infer_set_variables(scope: ast.AST) -> set[str]:
    """Names bound to set-typed expressions within ``scope``.

    A forward approximation: a name assigned a set expression anywhere
    in the scope counts as set-typed, unless it is *also* assigned a
    clearly non-set expression (then it is ambiguous and dropped —
    better a false negative than noise).
    """
    set_names: set[str] = set()
    other_names: set[str] = set()
    for node in _scope_nodes(scope):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = node.value
            if value is None:
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if _is_set_expr(value, set_names):
                    set_names.add(target.id)
                elif not isinstance(node, ast.AugAssign):
                    other_names.add(target.id)
    return set_names - other_names


def _is_set_expr(node: ast.expr, set_vars: set[str]) -> bool:
    """Whether ``node`` is (syntactically) a set-typed expression."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_vars
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left, set_vars) or _is_set_expr(
            node.right, set_vars
        )
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute):
            return node.func.attr in _SET_RETURNING_METHODS
    return False


def _check_node(
    source: SourceFile,
    node: ast.AST,
    set_vars: set[str],
    aliases: dict[str, str],
) -> Iterable[Finding]:
    # DET001 — iteration over an unordered expression.
    if isinstance(node, ast.For) and _is_set_expr(node.iter, set_vars):
        yield source.finding(
            DET001,
            node.iter,
            "for-loop iterates an unordered set; wrap the iterable in "
            "sorted(...) or iterate an order-carrying structure",
        )
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        for generator in node.generators:
            if _is_set_expr(generator.iter, set_vars):
                # A comprehension that *builds* a set (or feeds sorted/
                # min/max/sum/any/all) is order-free; flagging every
                # generator would bury the real signal.  Only list/
                # generator comprehensions leak order.
                if isinstance(node, (ast.SetComp, ast.DictComp)):
                    continue
                yield source.finding(
                    DET001,
                    generator.iter,
                    "comprehension iterates an unordered set; wrap the "
                    "iterable in sorted(...) if element order can reach "
                    "an answer",
                )
    if isinstance(node, ast.Call):
        name = call_name(node)
        # DET001 — ordered materialization of an unordered expression.
        if (
            name in ("list", "tuple")
            and len(node.args) == 1
            and not node.keywords
            and _is_set_expr(node.args[0], set_vars)
        ):
            yield source.finding(
                DET001,
                node,
                f"{name}(...) materializes an unordered set in hash order; "
                "use sorted(...) instead",
            )
        # DET002 — nondeterministic calls.
        if name is not None:
            resolved = resolve_call(name, aliases)
            if resolved in _NONDETERMINISTIC_EXACT or resolved.startswith(
                _NONDETERMINISTIC_PREFIXES
            ):
                yield source.finding(
                    DET002,
                    node,
                    f"call to nondeterministic {resolved}(); pinned modules "
                    "must be a pure function of their inputs (monotonic "
                    "timers for timing metadata are the only exception)",
                )
        # DET003 — set.pop() on a set-typed receiver.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and not node.args
            and not node.keywords
            and _is_set_expr(node.func.value, set_vars)
        ):
            yield source.finding(
                DET003,
                node,
                "set.pop() removes a hash-order-dependent element; pop "
                "from a sorted list or use min/max with an explicit key",
            )
        # DET003 — next(iter(set)).
        if (
            name == "next"
            and node.args
            and isinstance(node.args[0], ast.Call)
            and call_name(node.args[0]) == "iter"
            and node.args[0].args
            and _is_set_expr(node.args[0].args[0], set_vars)
        ):
            yield source.finding(
                DET003,
                node,
                "next(iter(set)) picks a hash-order-dependent element; "
                "use min(...)/max(...) with an explicit key",
            )
