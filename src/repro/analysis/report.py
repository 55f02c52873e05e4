"""Plain-text tables for experiment output.

The paper's results are tables and sentences, not plots; ``repro experiment``
prints the same kind of rows ("engine, query time, speedup, accuracy") so a
reader can compare them with the paper directly from the terminal.  No
plotting dependency is used — everything renders as aligned monospace text.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

Number = Union[int, float]
Cell = Union[str, Number]


def _format_cell(value: Cell, precision: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000 or (abs(value) < 0.001 and value != 0):
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Cell]],
    precision: int = 3,
    title: Optional[str] = None,
) -> str:
    """Render an aligned plain-text table.

    Column widths adapt to content; floats are formatted to ``precision``
    digits (switching to scientific notation for very large/small values).
    """
    headers = [str(h) for h in headers]
    formatted = [[_format_cell(cell, precision) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in formatted:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(render_row(headers))
    lines.append(render_row(["-" * w for w in widths]))
    lines.extend(render_row(row) for row in formatted)
    return "\n".join(lines)


def summarize_result(result, title: Optional[str] = None, precision: int = 3) -> str:
    """Per-window summary table for any unified-protocol result.

    Consumes only the protocol surface (``describe()``, ``num_windows``,
    ``to_edges()``), so thresholded series, top-k and lagged results all
    render with the same columns: edge count, mean |weight|, and — when any
    edge carries one — the mean absolute lag.  This is the table the CLI
    prints for every ``--mode``.
    """
    edges_by_window: Dict[int, List] = {k: [] for k in range(result.num_windows)}
    for edge in result.to_edges():
        edges_by_window.setdefault(edge.window, []).append(edge)
    any_lag = any(
        edge.lag for edges in edges_by_window.values() for edge in edges
    )

    headers = ["window", "edges", "mean_|weight|"]
    if any_lag:
        headers.append("mean_|lag|")
    rows: List[List[Cell]] = []
    for k in sorted(edges_by_window):
        edges = edges_by_window[k]
        mean_weight = (
            sum(abs(e.weight) for e in edges) / len(edges) if edges else 0.0
        )
        row: List[Cell] = [k, len(edges), mean_weight]
        if any_lag:
            row.append(
                sum(abs(e.lag) for e in edges) / len(edges) if edges else 0.0
            )
        rows.append(row)
    return format_table(
        headers, rows, precision=precision, title=title or result.describe()
    )
