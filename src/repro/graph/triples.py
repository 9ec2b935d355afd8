"""Triple (RDF-style) parsing and serialization.

GQBE stores knowledge graphs as sets of ``(subject, property, object)``
triples (Sec. V-A of the paper).  This module supports three plain-text
formats:

* **TSV** — one triple per line, tab-separated: ``subject<TAB>label<TAB>object``.
* **NT-like** — a simplified N-Triples syntax:
  ``<subject> <label> <object> .`` with angle-bracketed terms.
* **CSV** — relationship exports in the shape Neo4j / Apache AGE tooling
  produces: a header row naming start/type/end columns (``:START_ID``,
  ``:TYPE``, ``:END_ID``; ``_start``, ``_type``, ``_end``; or plain
  ``subject,predicate,object`` spellings), then one relationship per row.

Files whose name ends in ``.gz`` are decompressed transparently by every
path-taking entry point (``read_triples``, ``load_graph``,
``iter_triples_chunked``, ``write_triples``).

All readers skip blank lines and ``#`` comments and report precise line
numbers on malformed input via :class:`~repro.exceptions.TripleParseError`.
"""

from __future__ import annotations

import io
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.exceptions import TripleParseError
from repro.graph.knowledge_graph import Edge, KnowledgeGraph

#: A triple is just an Edge; the alias documents intent at call sites that
#: deal with files rather than graphs.
Triple = Edge


def _parse_tsv_line(line: str, line_number: int) -> Triple:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 3:
        raise TripleParseError(line_number, line, "expected 3 tab-separated fields")
    subject, label, obj = (part.strip() for part in parts)
    if not subject or not label or not obj:
        raise TripleParseError(line_number, line, "empty field")
    return Triple(subject, label, obj)


def _parse_nt_line(line: str, line_number: int) -> Triple:
    stripped = line.strip()
    if not stripped.endswith("."):
        raise TripleParseError(line_number, line, "missing trailing '.'")
    body = stripped[:-1].strip()
    terms: list[str] = []
    rest = body
    for _ in range(3):
        rest = rest.lstrip()
        if not rest.startswith("<"):
            raise TripleParseError(line_number, line, "terms must be <bracketed>")
        end = rest.find(">")
        if end < 0:
            raise TripleParseError(line_number, line, "unterminated term")
        terms.append(rest[1:end])
        rest = rest[end + 1:]
    if rest.strip():
        raise TripleParseError(line_number, line, "trailing content after 3 terms")
    subject, label, obj = terms
    if not subject or not label or not obj:
        raise TripleParseError(line_number, line, "empty term")
    return Triple(subject, label, obj)


def _detect_format(first_line: str) -> str:
    return "nt" if first_line.lstrip().startswith("<") else "tsv"


#: Recognized header spellings for the CSV relationship-export adapter,
#: after normalization (lowercased, ``:`` / ``_`` / quotes stripped).
_CSV_SUBJECT_NAMES = frozenset(
    {"startid", "start", "startnodeid", "subject", "source", "from", "s"}
)
_CSV_LABEL_NAMES = frozenset(
    {"type", "reltype", "relationshiptype", "label", "predicate", "relationship", "p"}
)
_CSV_OBJECT_NAMES = frozenset(
    {"endid", "end", "endnodeid", "object", "target", "to", "o"}
)


def _normalize_csv_header_cell(cell: str) -> str:
    return cell.strip().strip('"').replace(":", "").replace("_", "").lower()


def _resolve_csv_columns(header: list[str], line_number: int, line: str) -> tuple[int, int, int]:
    """Map a relationship-export header row to (subject, label, object) columns."""
    subject = label = obj = None
    for index, cell in enumerate(header):
        name = _normalize_csv_header_cell(cell)
        if name in _CSV_SUBJECT_NAMES and subject is None:
            subject = index
        elif name in _CSV_LABEL_NAMES and label is None:
            label = index
        elif name in _CSV_OBJECT_NAMES and obj is None:
            obj = index
    if subject is not None and label is not None and obj is not None:
        return subject, label, obj
    if subject is None and label is None and obj is None and len(header) == 3:
        # Headerless positional export: treat the columns as
        # subject,label,object and the first row as data.
        return -1, -1, -1
    raise TripleParseError(
        line_number,
        line,
        "unrecognized CSV export header (need start/type/end or "
        "subject/predicate/object columns)",
    )


def _iter_csv_triples(lines: Iterable[str]) -> Iterator[Triple]:
    """Parse a Neo4j/AGE-style relationship CSV export into triples."""
    import csv  # here, not at the top: a snapshot-backed process never parses

    columns: tuple[int, int, int] | None = None
    for line_number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            row = next(csv.reader([stripped]))
        except csv.Error as exc:
            raise TripleParseError(line_number, line, f"bad CSV row: {exc}") from exc
        if columns is None:
            columns = _resolve_csv_columns(row, line_number, line)
            if columns != (-1, -1, -1):
                continue  # header row consumed
            columns = (0, 1, 2)  # headerless: this row is data
        s_col, l_col, o_col = columns
        width = max(s_col, l_col, o_col) + 1
        if len(row) < width:
            raise TripleParseError(
                line_number, line, f"expected at least {width} CSV fields"
            )
        subject = row[s_col].strip()
        label = row[l_col].strip()
        obj = row[o_col].strip()
        if not subject or not label or not obj:
            raise TripleParseError(line_number, line, "empty field")
        yield Triple(subject, label, obj)


def iter_triples(lines: Iterable[str], fmt: str = "auto") -> Iterator[Triple]:
    """Yield triples parsed from an iterable of text lines.

    ``fmt`` is one of ``"tsv"``, ``"nt"``, ``"csv"`` or ``"auto"`` (detected
    from the first non-comment line; CSV is never auto-detected from content
    — pass ``fmt="csv"`` or use a ``.csv`` / ``.csv.gz`` path).
    """
    if fmt == "csv":
        yield from _iter_csv_triples(lines)
        return
    parser = None
    if fmt == "tsv":
        parser = _parse_tsv_line
    elif fmt == "nt":
        parser = _parse_nt_line
    elif fmt != "auto":
        raise ValueError(f"unknown triple format {fmt!r}")

    for line_number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if parser is None:
            parser = _parse_nt_line if _detect_format(line) == "nt" else _parse_tsv_line
        yield parser(line, line_number)


def triples_from_strings(text: str, fmt: str = "auto") -> list[Triple]:
    """Parse triples out of a multi-line string."""
    return list(iter_triples(io.StringIO(text), fmt=fmt))


def _open_text(path: str | Path, mode: str = "r") -> io.TextIOBase:
    """Open a triple file for text I/O, decompressing ``.gz`` transparently."""
    if str(path).endswith(".gz"):
        import gzip  # as csv above

        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def resolve_path_format(path: str | Path, fmt: str = "auto") -> str:
    """Resolve ``fmt="auto"`` from the file name where the suffix decides.

    ``.csv`` / ``.csv.gz`` files parse as CSV relationship exports (their
    content is ambiguous with TSV, so the extension is authoritative);
    everything else keeps content sniffing (``auto``).
    """
    if fmt != "auto":
        return fmt
    name = str(path)
    if name.endswith(".gz"):
        name = name[: -len(".gz")]
    if name.endswith(".csv"):
        return "csv"
    return "auto"


def read_triples(path: str | Path, fmt: str = "auto") -> list[Triple]:
    """Read all triples from a file (``.gz`` paths are decompressed)."""
    with _open_text(path) as handle:
        return list(iter_triples(handle, fmt=resolve_path_format(path, fmt)))


def iter_triples_chunked(
    path: str | Path, fmt: str = "auto", chunk_size: int = 65536
) -> Iterator[list[Triple]]:
    """Yield triples from a file in bounded-size lists.

    The streaming build reads dumps through this so at most ``chunk_size``
    parsed triples are resident at a time, whatever the file size.  Formats,
    ``.gz`` handling, comment/blank skipping and the line-number discipline
    of :exc:`~repro.exceptions.TripleParseError` all match
    :func:`read_triples`; the concatenation of the yielded chunks is exactly
    its return value.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    with _open_text(path) as handle:
        chunk: list[Triple] = []
        for triple in iter_triples(handle, fmt=resolve_path_format(path, fmt)):
            chunk.append(triple)
            if len(chunk) >= chunk_size:
                yield chunk
                chunk = []
        if chunk:
            yield chunk


def load_graph(path: str | Path, fmt: str = "auto") -> KnowledgeGraph:
    """Read a triple file and return it as a :class:`KnowledgeGraph`."""
    return KnowledgeGraph(read_triples(path, fmt=fmt))


def write_triples(
    triples: Iterable[Triple], path: str | Path, fmt: str = "tsv"
) -> int:
    """Write triples to ``path`` in the requested format; return the count.

    A ``.gz`` path writes a gzip-compressed file readable back through
    :func:`read_triples`.
    """
    count = 0
    with _open_text(path, "w") as handle:
        for triple in triples:
            handle.write(format_triple(triple, fmt=fmt))
            handle.write("\n")
            count += 1
    return count


def format_triple(triple: Triple, fmt: str = "tsv") -> str:
    """Render one triple as a line of text in the requested format."""
    if fmt == "tsv":
        return f"{triple.subject}\t{triple.label}\t{triple.object}"
    if fmt == "nt":
        return f"<{triple.subject}> <{triple.label}> <{triple.object}> ."
    raise ValueError(f"unknown triple format {fmt!r}")


def graph_to_triples(graph: KnowledgeGraph) -> list[Triple]:
    """Return the graph's edges as a sorted, deterministic list of triples."""
    return sorted(graph.edges)
