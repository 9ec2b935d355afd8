"""Config/documentation coverage rules (project pass).

``GQBEConfig`` is the single knob surface of the engine; an
undocumented field is a knob nobody can discover, an untested field
is a knob that silently stops working, and a field the engine never
reads belongs to some other layer.  This pass finds the ``GQBEConfig``
dataclass in the scanned tree and cross-references every field against
``docs/configuration.md``, ``tests/*.py`` and ``src/**/*.py`` under the
project root.

Rules
-----
``CFG001``
    A ``GQBEConfig`` field is not mentioned in
    ``docs/configuration.md``.
``CFG002``
    A ``GQBEConfig`` field is not referenced by any test module.
``CFG003``
    No ``src/`` module reads a ``GQBEConfig`` field (an ``.<field>``
    attribute load), apart from the module defining the class and
    ``cli.py``: a setting only the CLI reads belongs on the constructor
    of whatever the CLI builds, not in the engine's config.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable

from ..findings import Finding, Rule
from ..project import Project, SourceFile
from .base import Analyzer

CONFIG_CLASS = "GQBEConfig"
DOC_PATH = "docs/configuration.md"
TESTS_DIR = "tests"
SRC_DIR = "src"
#: Modules whose reads do not count for CFG003: the CLI only forwards
#: settings, it is not the engine.
NON_ENGINE_MODULES = frozenset({"cli.py"})

CFG001 = Rule(
    rule_id="CFG001",
    title="config field missing from docs/configuration.md",
    severity="error",
    contract=None,
    rationale=(
        "an undocumented GQBEConfig field is a knob nobody can discover; "
        "every field needs a documented meaning and default"
    ),
)
CFG002 = Rule(
    rule_id="CFG002",
    title="config field not exercised by any test",
    severity="error",
    contract=None,
    rationale=(
        "a field no test references can silently stop doing anything; "
        "every field needs at least one test touching it"
    ),
)


CFG003 = Rule(
    rule_id="CFG003",
    title="config field no engine module reads",
    severity="error",
    contract=None,
    rationale=(
        "GQBEConfig holds what the engine reads; a field read only by the "
        "CLI or by nothing doubles the test matrix for no engine behavior"
    ),
)


class ConfigDocsAnalyzer(Analyzer):
    name = "config-docs"
    rules = (CFG001, CFG002, CFG003)

    def check_project(self, project: Project) -> Iterable[Finding]:
        located = _find_config_class(project)
        if located is None:
            return []
        source, class_def = located
        fields = _dataclass_fields(class_def)
        if not fields:
            return []

        findings: list[Finding] = []
        doc_path = project.root / DOC_PATH
        doc_text = (
            doc_path.read_text(encoding="utf-8") if doc_path.exists() else ""
        )
        tests_text = _tests_corpus(project)
        engine_reads = _src_attribute_loads(project, exclude=source.path)
        for name, line in fields:
            pattern = re.compile(rf"\b{re.escape(name)}\b")
            if not pattern.search(doc_text):
                findings.append(
                    source.finding(
                        CFG001,
                        line,
                        f"GQBEConfig.{name} is not documented in "
                        f"{DOC_PATH}; add it to the field table",
                    )
                )
            if not pattern.search(tests_text):
                findings.append(
                    source.finding(
                        CFG002,
                        line,
                        f"GQBEConfig.{name} is not referenced by any module "
                        f"under {TESTS_DIR}/; add a test that sets or "
                        "asserts on it",
                    )
                )
            if name not in engine_reads:
                findings.append(
                    source.finding(
                        CFG003,
                        line,
                        f"GQBEConfig.{name} is read by no module under "
                        f"{SRC_DIR}/ besides the config and the CLI; move it "
                        "to the constructor of what reads it",
                    )
                )
        return findings


def _find_config_class(
    project: Project,
) -> tuple[SourceFile, ast.ClassDef] | None:
    for source in project.files:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef) and node.name == CONFIG_CLASS:
                return source, node
    return None


def _dataclass_fields(class_def: ast.ClassDef) -> list[tuple[str, int]]:
    """``(name, line)`` for every annotated field of the dataclass."""
    fields: list[tuple[str, int]] = []
    for statement in class_def.body:
        if isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            name = statement.target.id
            if not name.startswith("_"):
                fields.append((name, statement.lineno))
    return fields


def _src_attribute_loads(project: Project, exclude) -> set[str]:
    """Every attribute name loaded by a module under ``src/`` (the config
    module itself and :data:`NON_ENGINE_MODULES` left out)."""
    src_dir = project.root / SRC_DIR
    if not src_dir.is_dir():
        return set()
    loads: set[str] = set()
    for path in sorted(src_dir.rglob("*.py")):
        if path.name in NON_ENGINE_MODULES or path.resolve() == exclude.resolve():
            continue
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (OSError, SyntaxError):
            continue
        loads.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
    return loads


def _tests_corpus(project: Project) -> str:
    """The concatenated text of every test module under the root."""
    tests_dir = project.root / TESTS_DIR
    if not tests_dir.is_dir():
        return ""
    pieces: list[str] = []
    for path in sorted(tests_dir.rglob("*.py")):
        try:
            pieces.append(path.read_text(encoding="utf-8"))
        except OSError:
            continue
    return "\n".join(pieces)
