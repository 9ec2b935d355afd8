"""Plain-text rendering of experiment results (tables and figure series).

``gqbe experiment`` uses these helpers to print the same rows/series the
paper reports, so a reader can compare shapes side by side with the PDF.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
    float_digits: int = 3,
) -> str:
    """Render a list of dictionaries as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    columns = list(columns) if columns else list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{float_digits}f}"
        if value is None:
            return "undefined"
        if isinstance(value, (tuple, list)):
            return "<" + ", ".join(str(v) for v in value) + ">"
        return str(value)

    rendered = [[render(row.get(column)) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(column.ljust(widths[i]) for i, column in enumerate(columns))
    lines.append(header)
    lines.append("-+-".join("-" * width for width in widths))
    for line in rendered:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
    return "\n".join(lines)


def format_answer_list(
    query_id: str, answers: Sequence[tuple[str, ...]]
) -> str:
    """Render a case-study entry (Table II style)."""
    lines = [f"{query_id}:"]
    for rank, answer in enumerate(answers, start=1):
        rendered = ", ".join(answer)
        lines.append(f"  {rank}. <{rendered}>")
    return "\n".join(lines)
