"""The fixed-width table renderer shared by the CLI, examples and benchmarks."""

from __future__ import annotations

__all__ = ["format_table"]


def format_table(rows: list[dict[str, object]], title: str | None = None) -> str:
    """Render a list of dict rows as a fixed-width text table.

    Used by the benchmarks to print the series each paper figure reports.
    """
    if not rows:
        return f"{title or 'table'}: (empty)"
    columns: list[str] = []
    for row in rows:
        for col in row:
            if col not in columns:
                columns.append(col)
    widths = {
        col: max(len(str(col)), *(len(_fmt(row.get(col))) for row in rows)) for col in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(col).ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[col] for col in columns))
    for row in rows:
        lines.append(" | ".join(_fmt(row.get(col)).ljust(widths[col]) for col in columns))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)
