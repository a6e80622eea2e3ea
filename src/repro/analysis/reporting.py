"""ASCII rendering for benchmark output.

Benches print each figure as text so a terminal run of
``pytest benchmarks/`` shows the reproduced shapes directly: bar charts for
distributions, line-ish sparkline/series charts for time series, and
aligned tables for numeric comparisons.
"""

from __future__ import annotations

from repro.errors import ValidationError

#: Eight-level block characters for sparklines.
_BLOCKS = "▁▂▃▄▅▆▇█"


def render_table(headers: list[str], rows: list[list[object]]) -> str:
    """Render an aligned text table.

    Args:
        headers: column titles.
        rows: cell values (stringified); each row must match the header
            count.
    """
    table = [list(map(str, headers))] + [[str(c) for c in row] for row in rows]
    for row in table:
        if len(row) != len(headers):
            raise ValidationError(
                f"row width {len(row)} does not match header count {len(headers)}"
            )
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(table):
        line = "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        lines.append(line.rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def bar_chart(
    labels: list[str], values: list[float], width: int = 40, unit: str = ""
) -> str:
    """Horizontal bar chart with one row per label."""
    if len(labels) != len(values):
        raise ValidationError("labels and values must align")
    if width <= 0:
        raise ValidationError("width must be positive")
    if not values:
        return "(empty)"
    peak = max(values)
    label_width = max(len(label) for label in labels)
    lines = []
    for label, value in zip(labels, values):
        length = 0 if peak == 0 else round(value / peak * width)
        bar = "█" * length
        suffix = f" {value:g}{unit}"
        lines.append(f"{label.rjust(label_width)} | {bar}{suffix}")
    return "\n".join(lines)


def sparkline(values: list[float]) -> str:
    """One-line sparkline of a series (empty string for empty input)."""
    if not values:
        return ""
    low = min(values)
    high = max(values)
    span = high - low
    if span == 0:
        return _BLOCKS[0] * len(values)
    out = []
    for value in values:
        index = int((value - low) / span * (len(_BLOCKS) - 1))
        out.append(_BLOCKS[index])
    return "".join(out)
