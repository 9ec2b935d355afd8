"""Concurrency and fork-hygiene rules (contract ``concurrent``).

The serving layer mixes an asyncio HTTP server, handler and engine
thread pools, and a forkserver-based process pool.  The invariants these rules police:

- shared mutable state (module globals, ``self`` attributes read by
  other threads) is only read-modify-written under a lock;
- nested lock acquisitions happen in one global order (lock-order
  inversion is the classic path to deadlock);
- no threads are spawned at import time (threads + later ``fork`` is
  undefined behavior; the pool must be created before any threads).

Rules
-----
``CON001``
    Read-modify-write of a module-level global (``x += 1`` or
    ``x = x + 1`` where ``x`` is declared ``global``) outside a
    lock-ish ``with`` block.
``CON002``
    Read-modify-write of a ``self`` attribute outside a lock-ish
    ``with`` block, in a class that owns at least one lock attribute.
    Classes with no lock are assumed externally synchronized.
``CON003``
    Inconsistent nested lock order across the project: lock B acquired
    inside lock A somewhere, and lock A inside lock B elsewhere.
``CON004``
    ``threading.Thread(...)`` created (or ``.start()`` called) at
    module scope — import-time threads break fork-based pools.
``CON005``
    Event-loop confinement violation: in a lock-free class with
    ``async def`` methods, the same attribute is read-modify-written
    both from a coroutine (serialized by the event loop) and from a
    plain synchronous method (callable from any thread).  Loop-confined
    state is only safe while *every* mutation happens on the loop
    thread; the sync-side mutation is the hazard and anchors the
    finding.  Classes that own a lock are policed by ``CON002``
    instead.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from ..findings import Finding, Rule
from ..project import Project, SourceFile
from .base import (
    Analyzer,
    call_name,
    dotted_name,
    imported_aliases,
    is_lockish,
    iter_function_defs,
    lock_names_of_with,
    resolve_call,
)

CONTRACT = "concurrent"

CON001 = Rule(
    rule_id="CON001",
    title="unlocked read-modify-write of a module global",
    severity="error",
    contract=CONTRACT,
    rationale=(
        "+= on a global is load/add/store — two handler threads "
        "interleave and drop updates; hold a lock for the whole RMW"
    ),
)
CON002 = Rule(
    rule_id="CON002",
    title="unlocked read-modify-write of shared instance state",
    severity="error",
    contract=CONTRACT,
    rationale=(
        "an object that owns a lock advertises cross-thread use; "
        "mutating its counters outside that lock races with readers"
    ),
)
CON003 = Rule(
    rule_id="CON003",
    title="inconsistent nested lock acquisition order",
    severity="error",
    contract=CONTRACT,
    rationale=(
        "acquiring A-then-B in one path and B-then-A in another "
        "deadlocks under contention; pick one global order"
    ),
)
CON004 = Rule(
    rule_id="CON004",
    title="thread created at import time",
    severity="error",
    contract=CONTRACT,
    rationale=(
        "a thread alive before the process pool forks leaves the child "
        "with inconsistent lock state; spawn threads from main() or "
        "object constructors instead"
    ),
)
CON005 = Rule(
    rule_id="CON005",
    title="loop-confined state mutated from a synchronous context",
    severity="error",
    contract=CONTRACT,
    rationale=(
        "an async class without locks relies on the event loop to "
        "serialize access; mutating the same attribute from a plain "
        "sync method reachable from other threads races with the loop"
    ),
)


class ConcurrencyAnalyzer(Analyzer):
    name = "concurrency"
    rules = (CON001, CON002, CON003, CON004, CON005)

    def check_file(self, source: SourceFile) -> Iterable[Finding]:
        if CONTRACT not in source.contracts:
            return []
        findings: list[Finding] = []
        findings.extend(_check_global_rmw(source))
        findings.extend(_check_self_rmw(source))
        findings.extend(_check_module_threads(source))
        findings.extend(_check_loop_confinement(source))
        return findings

    def check_project(self, project: Project) -> Iterable[Finding]:
        return _check_lock_order(project)


# --------------------------------------------------------------------------
# CON001 — module-global read-modify-write


def _check_global_rmw(source: SourceFile) -> Iterable[Finding]:
    module_globals = {
        target.id
        for node in source.tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    for function in iter_function_defs(source.tree):
        declared = {
            name
            for node in ast.walk(function)
            if isinstance(node, ast.Global)
            for name in node.names
        }
        shared = declared & module_globals
        if not shared:
            continue
        for statement, under_lock in _statements_with_lock_state(function):
            if under_lock:
                continue
            name = _rmw_target_name(statement)
            if name in shared:
                yield source.finding(
                    CON001,
                    statement,
                    f"read-modify-write of module global {name!r} outside "
                    "a lock; two threads can interleave and lose updates",
                )


def _rmw_target_name(node: ast.AST) -> str | None:
    """The plain name a statement read-modify-writes, else None."""
    if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    if (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
    ):
        # x = x + 1 / x = x | y: the target also appears in the value.
        target = node.targets[0].id
        for sub in ast.walk(node.value):
            if isinstance(sub, ast.Name) and sub.id == target:
                return target
    return None


def _statements_with_lock_state(
    function: ast.AST,
) -> Iterable[tuple[ast.stmt, bool]]:
    """Every statement in ``function`` with whether a lock is held there."""

    def walk(body: list[ast.stmt], under_lock: bool) -> Iterable[tuple[ast.stmt, bool]]:
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            held = under_lock
            if isinstance(statement, ast.With) and any(
                is_lockish(item.context_expr) for item in statement.items
            ):
                held = True
            yield statement, under_lock
            for field_name in ("body", "orelse", "finalbody", "handlers"):
                children = getattr(statement, field_name, None)
                if not children:
                    continue
                for child in children:
                    if isinstance(child, ast.ExceptHandler):
                        yield from walk(child.body, held)
                    elif isinstance(child, ast.stmt):
                        yield from walk([child], held)

    yield from walk(getattr(function, "body", []), False)


# --------------------------------------------------------------------------
# CON002 — self-attribute read-modify-write in lock-owning classes


def _check_self_rmw(source: SourceFile) -> Iterable[Finding]:
    for class_def in ast.walk(source.tree):
        if not isinstance(class_def, ast.ClassDef):
            continue
        if not _class_owns_lock(class_def):
            continue
        for function in class_def.body:
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if function.name == "__init__":
                # Construction happens-before publication; races there
                # are a lifecycle bug, not a locking one.
                continue
            for statement, under_lock in _statements_with_lock_state(function):
                if under_lock:
                    continue
                attribute = _self_rmw_attribute(statement)
                if attribute is not None:
                    yield source.finding(
                        CON002,
                        statement,
                        f"read-modify-write of self.{attribute} outside the "
                        "object's lock; handler threads reading stats can "
                        "observe torn updates and drop increments",
                    )


def _class_owns_lock(class_def: ast.ClassDef) -> bool:
    for node in ast.walk(class_def):
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and is_lockish_name(target.attr)
                for target in node.targets
            )
        ):
            return True
    return False


def is_lockish_name(name: str) -> bool:
    lowered = name.lower()
    return any(
        piece in lowered
        for piece in ("lock", "condition", "mutex", "semaphore")
    )


def _self_rmw_attribute(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.AugAssign)
        and isinstance(node.target, ast.Attribute)
        and isinstance(node.target.value, ast.Name)
        and node.target.value.id == "self"
    ):
        return node.target.attr
    if (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Attribute)
        and isinstance(node.targets[0].value, ast.Name)
        and node.targets[0].value.id == "self"
    ):
        attribute = node.targets[0].attr
        # self.x = max(self.x, v) and friends: target read in the value.
        for sub in ast.walk(node.value):
            if (
                isinstance(sub, ast.Attribute)
                and sub.attr == attribute
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                return attribute
    return None


# --------------------------------------------------------------------------
# CON005 — loop-confined state mutated from a synchronous context


def _check_loop_confinement(source: SourceFile) -> Iterable[Finding]:
    for class_def in ast.walk(source.tree):
        if not isinstance(class_def, ast.ClassDef):
            continue
        if _class_owns_lock(class_def):
            continue  # CON002 territory: the lock is the discipline
        async_rmw: set[str] = set()
        sync_rmw: list[tuple[str, ast.stmt]] = []
        for function in class_def.body:
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if function.name == "__init__":
                # Construction happens-before publication; races there
                # are a lifecycle bug, not a confinement one.
                continue
            is_async = isinstance(function, ast.AsyncFunctionDef)
            for statement, under_lock in _statements_with_lock_state(function):
                if under_lock:
                    continue
                attribute = _self_rmw_attribute(statement)
                if attribute is None:
                    continue
                if is_async:
                    async_rmw.add(attribute)
                else:
                    sync_rmw.append((attribute, statement))
        if not async_rmw:
            continue
        for attribute, statement in sync_rmw:
            if attribute in async_rmw:
                yield source.finding(
                    CON005,
                    statement,
                    f"self.{attribute} is mutated from coroutines (loop-"
                    "confined) and from this synchronous method; a caller "
                    "on another thread races with the event loop — move "
                    "the mutation onto the loop (call_soon_threadsafe) or "
                    "guard it with a lock",
                )


# --------------------------------------------------------------------------
# CON003 — project-wide nested lock order


def _check_lock_order(project: Project) -> Iterable[Finding]:
    # pair -> first (source, node) that acquired outer-then-inner.
    order: dict[tuple[str, str], tuple[SourceFile, ast.With]] = {}
    reported: set[frozenset[str]] = set()
    for source in project.files:
        if CONTRACT not in source.contracts:
            continue
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.With):
                continue
            outer_names = lock_names_of_with(node)
            if not outer_names:
                continue
            for inner in ast.walk(node):
                if inner is node or not isinstance(inner, ast.With):
                    continue
                for outer_name in outer_names:
                    for inner_name in lock_names_of_with(inner):
                        if inner_name == outer_name:
                            continue
                        pair = (outer_name, inner_name)
                        inverse = (inner_name, outer_name)
                        if inverse in order:
                            key = frozenset(pair)
                            if key in reported:
                                continue
                            reported.add(key)
                            first_source, _ = order[inverse]
                            yield source.finding(
                                CON003,
                                inner,
                                f"acquires {outer_name!r} then {inner_name!r}"
                                f" but {first_source.rel_path} acquires them "
                                "in the opposite order; pick one global "
                                "lock order",
                            )
                        else:
                            order.setdefault(pair, (source, node))


# --------------------------------------------------------------------------
# CON004 — import-time threads


def _check_module_threads(source: SourceFile) -> Iterable[Finding]:
    aliases = imported_aliases(source.tree)
    for statement in source.tree.body:
        if isinstance(
            statement,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.If),
        ):
            # ``if __name__ == "__main__"`` blocks run as a script's
            # main, not at import; skip conditional bodies wholesale.
            continue
        for node in ast.walk(statement):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            resolved = resolve_call(name, aliases)
            if resolved in ("threading.Thread", "threading.Timer"):
                yield source.finding(
                    CON004,
                    node,
                    f"{resolved}(...) at module scope starts thread "
                    "machinery at import time; create threads from main() "
                    "or a constructor so the process pool can fork first",
                )
