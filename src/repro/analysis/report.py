"""Plain-text tables and bar charts for experiment output.

The benchmarks print the same rows and series the paper's tables and
figures report; these helpers keep that output aligned and readable in
a terminal or a log file.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple


class Table:
    """A fixed-column text table with a title and optional caption."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []
        self.caption: Optional[str] = None

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                "row has %d cells for %d columns" % (len(cells), len(self.columns))
            )
        self.rows.append([_fmt(c) for c in cells])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, ""]
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if self.caption:
            lines.extend(["", self.caption])
        return "\n".join(lines)


#: Characters in a bar chart's longest bar.
BAR_WIDTH = 48


def bar_chart(
    title: str,
    entries: Iterable[Tuple[str, float]],
    unit: str = "",
) -> str:
    """A horizontal ASCII bar chart (one figure series), the longest bar
    ``BAR_WIDTH`` characters."""
    items = list(entries)
    if not items:
        return title + "\n(no data)"
    peak = max(v for _, v in items) or 1.0
    label_w = max(len(k) for k, _ in items)
    lines = [title, ""]
    for key, value in items:
        bar = "#" * max(1, int(round(value / peak * BAR_WIDTH)))
        lines.append("%s  %s %.3g %s" % (key.ljust(label_w), bar, value, unit))
    return "\n".join(lines)


def format_series(
    title: str,
    x_label: str,
    xs: Sequence,
    series: Sequence[Tuple[str, Sequence[float]]],
    unit: str = "",
) -> str:
    """A figure rendered as columns: x values against several series."""
    table = Table(title, [x_label] + [name for name, _ in series])
    for i, x in enumerate(xs):
        table.add_row(x, *("%.4g" % values[i] for _, values in series))
    if unit:
        table.caption = "values in %s" % unit
    return table.render()


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return "%.4g" % cell
    return str(cell)
