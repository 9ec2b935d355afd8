"""Project model: parsed source files, contracts and the scan walker.

The framework runs two kinds of passes (see
:mod:`tools.gqbecheck.analyzers`): per-file AST walks over each
:class:`SourceFile`, and project passes over the whole :class:`Project`
(cross-file state such as lock-acquisition order or config/doc
coverage).

Contracts gate which rules apply where.  A file acquires a contract
either from its path (the table below mirrors the repo's architecture)
or from an explicit ``# gqbe: contract[...]`` pragma — the latter is how
fixture tests and relocated modules opt in.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from .findings import Finding, Rule
from .suppressions import is_suppressed, scan_pragmas

#: Path fragments (posix, root-relative) that imply a contract.  The
#: ``deterministic`` set is exactly the equivalence-pinned surface: the
#: modules whose ranked output must stay byte-identical across cold
#: builds, mapped snapshots, live ingest, batched and inline/pooled
#: execution (including the NESS and breadth-first reference
#: baselines).
CONTRACT_PATHS: dict[str, tuple[str, ...]] = {
    "deterministic": (
        "repro/lattice/",
        "repro/storage/join.py",
        "repro/baselines/",
    ),
    "concurrent": ("repro/serving/",),
    "snapshot-io": ("repro/storage/",),
}


def contracts_for_path(rel_path: str) -> frozenset[str]:
    """Contracts implied by a root-relative posix path."""
    matched = {
        contract
        for contract, fragments in CONTRACT_PATHS.items()
        if any(fragment in rel_path for fragment in fragments)
    }
    return frozenset(matched)


@dataclass
class SourceFile:
    """One parsed Python file plus its pragmas and contracts."""

    path: Path
    rel_path: str
    text: str
    tree: ast.Module
    suppressions: dict[int, set[str]]
    contracts: frozenset[str]
    lines: list[str] = field(default_factory=list, repr=False)

    @classmethod
    def parse(cls, path: Path, root: Path) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        rel_path = _relative_posix(path, root)
        suppressions, pragma_contracts = scan_pragmas(text)
        return cls(
            path=path,
            rel_path=rel_path,
            text=text,
            tree=tree,
            suppressions=suppressions,
            contracts=contracts_for_path(rel_path) | pragma_contracts,
            lines=text.splitlines(),
        )

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def finding(
        self, rule: Rule, node: ast.AST | int, message: str
    ) -> Finding:
        """Build a finding for ``rule`` anchored at ``node`` (or a line)."""
        if isinstance(node, int):
            line, column = node, 0
        else:
            line = getattr(node, "lineno", 1)
            column = getattr(node, "col_offset", 0)
        return Finding(
            rule_id=rule.rule_id,
            severity=rule.severity,
            path=self.rel_path,
            line=line,
            column=column,
            message=message,
            source_line=self.line_text(line),
        )


def _relative_posix(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


#: Synthetic rule for files the scanner cannot parse — not one of the
#: contract analyzers, but a broken file must fail the check loudly.
PARSE_RULE = Rule(
    rule_id="PARSE001",
    title="file does not parse",
    severity="error",
    contract=None,
    rationale="an unparseable file silently escapes every other check",
)


@dataclass
class Project:
    """Every scanned file plus scan-level problems."""

    root: Path
    files: list[SourceFile]
    parse_failures: list[Finding]

    @classmethod
    def scan(cls, paths: list[Path], root: Path) -> "Project":
        files: list[SourceFile] = []
        failures: list[Finding] = []
        for path in iter_python_files(paths):
            try:
                files.append(SourceFile.parse(path, root))
            except (SyntaxError, ValueError, UnicodeDecodeError) as error:
                failures.append(
                    Finding(
                        rule_id=PARSE_RULE.rule_id,
                        severity=PARSE_RULE.severity,
                        path=_relative_posix(path, root),
                        line=getattr(error, "lineno", 1) or 1,
                        column=0,
                        message=f"cannot parse file: {error}",
                    )
                )
        return cls(root=root, files=files, parse_failures=failures)

    def filter_suppressed(
        self, findings: list[Finding]
    ) -> tuple[list[Finding], list[Finding]]:
        """Split ``findings`` into ``(kept, suppressed)`` via pragmas."""
        by_path = {source.rel_path: source for source in self.files}
        kept: list[Finding] = []
        suppressed: list[Finding] = []
        for finding in findings:
            source = by_path.get(finding.path)
            if source is not None and is_suppressed(
                source.suppressions, finding.line, finding.rule_id
            ):
                suppressed.append(finding)
            else:
                kept.append(finding)
        return kept, suppressed


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Every ``.py`` file under ``paths`` (files or directories), sorted.

    Hidden directories and ``__pycache__`` are skipped; duplicates (a
    file reachable through two arguments) collapse to one entry.
    """
    seen: dict[Path, None] = {}
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                seen.setdefault(path.resolve(), None)
            continue
        if not path.is_dir():
            continue
        for candidate in sorted(path.rglob("*.py")):
            parts = candidate.relative_to(path).parts
            if any(
                part.startswith(".") or part == "__pycache__"
                for part in parts
            ):
                continue
            seen.setdefault(candidate.resolve(), None)
    return sorted(seen)
