"""Plain-text rendering of experiment results.

The paper presents its evaluation as figures; this reproduction regenerates
the underlying numbers and renders them as aligned text tables and series so
they can be diffed, recorded in EXPERIMENTS.md and printed by the benchmark
harness without a plotting dependency.
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING, Sequence

from repro.util.stats import TimeSeries

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.experiments.fig3 import Figure3Result
    from repro.experiments.fig4 import Figure4Result
    from repro.experiments.fig5 import Figure5Result

__all__ = [
    "format_table",
    "format_series",
    "series_to_csv",
    "render_figure3",
    "render_figure4",
    "render_figure5",
    "render_profile",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render rows as an aligned, pipe-separated text table."""
    rendered_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        " | ".join(str(header).ljust(widths[index]) for index, header in enumerate(headers)),
        "-+-".join("-" * width for width in widths),
    ]
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def format_series(series: TimeSeries, time_unit: float = 3600.0, label: str = "t") -> str:
    """Render a time series as ``t=.. value=..`` lines (time in hours by default)."""
    lines = [f"# {series.name}"]
    for time, value in series:
        lines.append(f"{label}={time / time_unit:6.2f}  value={value:10.2f}")
    return "\n".join(lines)


def series_to_csv(series_list: Sequence[TimeSeries], time_unit: float = 3600.0) -> str:
    """Render several aligned time series as CSV text (one column per series)."""
    if not series_list:
        raise ValueError("at least one series is required")
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["time"] + [series.name for series in series_list])
    length = len(series_list[0])
    for series in series_list:
        if len(series) != length:
            raise ValueError("all series must have the same length to share a CSV")
    for index in range(length):
        row = [f"{series_list[0].times[index] / time_unit:.4f}"]
        row.extend(f"{series.values[index]:.4f}" for series in series_list)
        writer.writerow(row)
    return buffer.getvalue()


# --------------------------------------------------------------------- #
# Figure-specific renderers
# --------------------------------------------------------------------- #


def render_figure3(result: "Figure3Result", bins: int = 16) -> str:
    """Figure 3: expected clients per base-key value, coarsened into bins."""
    lines = ["Figure 3 — workload skew over the base key values", ""]
    headers = ["bin"] + [f"workload {name}" for name in result.workload_names]
    rows = []
    bin_width = max(1, len(result.counts[result.workload_names[0]]) // bins)
    for start in range(0, len(result.counts[result.workload_names[0]]), bin_width):
        row: list[object] = [f"{start:4d}-{start + bin_width - 1:4d}"]
        for name in result.workload_names:
            row.append(sum(result.counts[name][start : start + bin_width]))
        rows.append(row)
    lines.append(format_table(headers, rows))
    lines.append("")
    lines.append("Skew statistics:")
    stat_headers = ["workload", "max/mean", "hottest value share", "hottest window share", "entropy"]
    stat_rows = [
        [
            name,
            result.skew[name]["max_over_mean"],
            result.skew[name]["hottest_share"],
            result.skew[name]["hottest_window_share"],
            result.skew[name]["normalised_entropy"],
        ]
        for name in result.workload_names
    ]
    lines.append(format_table(stat_headers, stat_rows))
    return "\n".join(lines)


def render_figure4(result: "Figure4Result") -> str:
    """Figure 4: the four panels as per-phase tables plus the CLASH depth series."""
    lines = [f"Figure 4 — load distribution ({result.scale_name} scale)", ""]
    headers = ["system", "workload", "max load %", "avg load %", "active servers"]
    rows = []
    for label in result.labels():
        for phase in result.results[label].phase_summaries():
            rows.append(
                [
                    label,
                    phase.workload,
                    phase.peak_max_load_percent,
                    phase.mean_avg_load_percent,
                    phase.mean_active_servers,
                ]
            )
    lines.append(format_table(headers, rows))
    lines.append("")
    lines.append("CLASH depth variation (per phase):")
    depth_headers = ["workload", "mean depth", "depth spread (max-min)", "splits", "merges"]
    depth_rows = [
        [
            phase.workload,
            phase.mean_depth,
            phase.depth_spread,
            phase.total_splits,
            phase.total_merges,
        ]
        for phase in result.results["CLASH"].phase_summaries()
    ]
    lines.append(format_table(depth_headers, depth_rows))
    notes = result.results["CLASH"].notes
    lines.append("")
    lines.append(
        f"CLASH balance loop: {notes['balance_iterations']:.0f} load checks, "
        f"{notes['balance_cap_hits']:.0f} period(s) ended on the iteration cap"
    )
    return "\n".join(lines)


def render_profile(stats, top: int = 25, sort: str = "cumtime") -> str:
    """Render a ``pstats.Stats`` object as a top-N profile table.

    Used by the CLI's ``--profile`` flag so perf PRs can show a before/after
    profile without leaving the text-report toolchain.  ``sort`` picks the
    ranking column: ``"cumtime"`` (default) surfaces the call-tree owners,
    ``"tottime"`` the functions burning time in their own frames.
    """
    if sort not in ("cumtime", "tottime"):
        raise ValueError(f"sort must be 'cumtime' or 'tottime', got {sort!r}")
    rows = []
    for (filename, lineno, function), (
        _primitive_calls,
        call_count,
        total_time,
        cumulative_time,
        _callers,
    ) in stats.stats.items():
        location = f"{filename}:{lineno}({function})" if lineno else function
        rows.append((cumulative_time, total_time, call_count, location))
    if sort == "tottime":
        rows.sort(key=lambda row: (-row[1], row[3]))
    else:
        rows.sort(key=lambda row: (-row[0], row[3]))
    table_rows = [
        [call_count, f"{total_time:.4f}", f"{cumulative_time:.4f}", location]
        for cumulative_time, total_time, call_count, location in rows[:top]
    ]
    return format_table(
        ["calls", "tottime (s)", "cumtime (s)", "function"], table_rows
    )


def render_figure5(result: "Figure5Result") -> str:
    """Figure 5: signalling messages per second per server."""
    lines = [f"Figure 5 — CLASH communication overhead ({result.scale_name} scale)", ""]
    headers = ["query clients", "Ld", "workload", "messages/sec/server"]
    rows = []
    for case in result.cases:
        for phase in case.result.phase_summaries():
            rows.append(
                [
                    case.query_clients,
                    int(case.mean_stream_length),
                    phase.workload,
                    phase.messages_per_server_per_second,
                ]
            )
    lines.append(format_table(headers, rows))
    return "\n".join(lines)
