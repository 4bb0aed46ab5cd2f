"""Plain-text rendering of experiment results as tables and series.

The benchmark harness regenerates every table and figure of the paper; since
the environment is head-less, "figures" are rendered as aligned text series
(node count vs. runtime) that can be eyeballed or diffed, and tables as
aligned text grids in the same layout as the paper's Tables 1-2.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned, pipe-separated text table."""
    columns = len(headers)
    normalised_rows: List[List[str]] = []
    for row in rows:
        cells = [_format_cell(cell) for cell in row]
        if len(cells) < columns:
            cells += [""] * (columns - len(cells))
        normalised_rows.append(cells[:columns])
    widths = [len(str(header)) for header in headers]
    for row in normalised_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row([str(header) for header in headers]))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in normalised_rows)
    return "\n".join(lines)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_series(
    series: Mapping[int, float],
    x_label: str = "nodes",
    y_label: str = "value",
    title: Optional[str] = None,
    bar_width: int = 40,
) -> str:
    """Render an x->y mapping as a text series with proportional bars.

    Used for the "figures" of the paper (runtime vs. number of nodes): each
    line shows the x value, the y value and a bar proportional to y, so the
    hyperbolic-then-flat shape of Fig. 7 is visible directly in the report.
    """
    if not series:
        return title or ""
    maximum = max(series.values()) or 1.0
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{x_label:>8} | {y_label}")
    for x in sorted(series.keys()):
        y = series[x]
        bar = "#" * max(1, int(round(bar_width * y / maximum))) if y > 0 else ""
        lines.append(f"{x:>8} | {y:>12.4f} {bar}")
    return "\n".join(lines)


def format_accuracy_table(
    results: Mapping[str, Mapping[int, float]],
    cluster_counts: Optional[Mapping[str, int]] = None,
    title: Optional[str] = None,
) -> str:
    """Render per-dataset accuracy-vs-nodes results in the layout of Tables 1-2.

    Parameters
    ----------
    results:
        Mapping dataset name -> {node count: F-measure}.
    cluster_counts:
        Optional mapping dataset name -> number of clusters (the "# of
        clusters" column of the paper's tables).
    """
    headers = ["set", "# of clusters", "# of nodes", "F-measure (avg)"]
    rows: List[List[object]] = []
    for dataset in results:
        per_nodes = results[dataset]
        clusters = cluster_counts.get(dataset, "") if cluster_counts else ""
        first = True
        for nodes in sorted(per_nodes.keys()):
            rows.append(
                [
                    dataset if first else "",
                    clusters if first else "",
                    nodes,
                    per_nodes[nodes],
                ]
            )
            first = False
    return format_table(headers, rows, title=title)
