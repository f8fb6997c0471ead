"""Minimal dependency-free SVG line charts with deterministic output bytes."""

from .errors import EmptyData, ParseError

_WIDTH, _HEIGHT = 640, 420
_MARGIN = 50
_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def _fmt(v: float) -> str:
    if not abs(v) < float("inf"):  # a NaN or infinite cell, or a span that overflows
        raise ParseError(f"cannot draw a point at {v}: every cell and span must be finite")
    return f"{v:.3f}"


def line_chart(
    header: list[str], rows: list[list[str]], x: str, y: str, group: str | None
) -> str:
    """One polyline per group key, drawn in sorted-key order."""
    if not rows:
        raise EmptyData("no data rows to plot")
    for col in (x, y) + ((group,) if group else ()):
        if col not in header:
            raise ParseError(f"column {col!r} not in CSV header {header}")
    xi, yi = header.index(x), header.index(y)
    gi = header.index(group) if group else None
    series: dict[str, list[tuple[float, float]]] = {}
    try:
        for row in rows:
            key = row[gi] if gi is not None else ""
            series.setdefault(key, []).append((float(row[xi]), float(row[yi])))
    except ValueError as exc:
        raise ParseError(f"non-numeric cell in column {x!r}/{y!r}: {exc}") from exc
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    spanx = (x1 - x0) or 1.0
    spany = (y1 - y0) or 1.0

    def sx(v):
        return _MARGIN + (v - x0) / spanx * (_WIDTH - 2 * _MARGIN)

    def sy(v):
        return _HEIGHT - _MARGIN - (v - y0) / spany * (_HEIGHT - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 10}" text-anchor="middle">{x}</text>',
        f'<text x="15" y="{_HEIGHT // 2}" text-anchor="middle" '
        f'transform="rotate(-90 15 {_HEIGHT // 2})">{y}</text>',
    ]
    for idx, key in enumerate(sorted(series)):
        pts = sorted(series[key])
        coords = " ".join(f"{_fmt(sx(px))},{_fmt(sy(py))}" for px, py in pts)
        color = _COLORS[idx % len(_COLORS)]
        parts.append(f'<polyline fill="none" stroke="{color}" points="{coords}"/>')
        if key:
            parts.append(
                f'<text x="{_WIDTH - _MARGIN + 4}" y="{_MARGIN + 14 * idx}" '
                f'fill="{color}" font-size="11">{key}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
