"""Plain-text rendering for reproduced tables and figure series."""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence


def banner(title: str, width: int = 78) -> str:
    """A section banner for benchmark output."""
    pad = max(0, width - len(title) - 2)
    left = pad // 2
    right = pad - left
    return f"\n{'=' * left} {title} {'=' * right}"


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def fmt_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render an aligned text table."""
    str_rows: List[List[str]] = [[_fmt_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def fmt_series(name: str, xs: Sequence, ys: Sequence[float],
               y_fmt: str = "{:.2f}") -> str:
    """Render one figure series as 'name: x=y, x=y, ...'."""
    pairs = ", ".join(f"{x}={y_fmt.format(y)}" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"


def fmt_counters(title: str, counters: Mapping[str, object],
                 skip_zero: bool = True) -> str:
    """Render a counter mapping (e.g. ``asdict(fault_stats)``) as a
    two-column table."""
    rows = [(k, v) for k, v in counters.items() if v or not skip_zero]
    if not rows:
        return f"{title}: (all zero)"
    return f"{title}\n" + fmt_table(("counter", "value"), rows)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """A coarse unicode sparkline for timeline sanity checks."""
    if not values:
        return ""
    blocks = " .:-=+*#%@"
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    step = max(1, len(values) // width)
    out = []
    for i in range(0, len(values), step):
        chunk = values[i:i + step]
        v = max(chunk)
        idx = int((v - lo) / span * (len(blocks) - 1))
        out.append(blocks[idx])
    return "".join(out)
