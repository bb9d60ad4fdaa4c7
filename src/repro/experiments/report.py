"""Plain-text rendering of experiment results in the paper's shapes."""

from __future__ import annotations

from typing import Sequence


def render_table(
    title: str,
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """A fixed-width table like Table 2."""
    columns = [list(map(str, col)) for col in zip(header, *rows)]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = [title, ""]
    lines.append(
        "  ".join(str(h).rjust(w) for h, w in zip(header, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(str(cell).rjust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)


def render_series(
    title: str,
    x_label: str,
    series: dict[str, list[tuple[object, object]]],
) -> str:
    """Figure data as labelled (x, y) columns — one column per line in
    the paper's plot."""
    lines = [title, ""]

    def x_key(x):
        return (0, x, "") if isinstance(x, (int, float)) else (1, 0, str(x))

    xs = sorted(
        {x for points in series.values() for x, _ in points}, key=x_key
    )
    header = [x_label] + list(series)
    widths = [max(len(str(h)), 12) for h in header]
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    lookup = {
        name: {x: y for x, y in points} for name, points in series.items()
    }
    for x in xs:
        row = [x] + [lookup[name].get(x, "") for name in series]
        lines.append(
            "  ".join(
                (f"{cell:.2f}" if isinstance(cell, float) else str(cell)).rjust(w)
                for cell, w in zip(row, widths)
            )
        )
    return "\n".join(lines)
