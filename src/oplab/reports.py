"""Deterministic CSV tables and dependency-free SVG plots.

Every plot is a plain text SVG assembled from the same repr strings
that go into its companion CSV, so any value that can be read off a
picture can be grepped in the table next to it.  Pixel coordinates are
integers; the only floating-point text in an SVG is quoted data.
"""

from pathlib import Path

from .errors import PreconditionError
from .homotopy import CertificateReport
from .locality import DecayProfile

WIDTH = 640
HEIGHT = 360
PAD = 48


def write_csv(path: str | Path, lines) -> Path:
    """Write pre-rendered CSV lines (strings or cell tuples)."""
    path = Path(path)
    rendered = []
    for line in lines:
        if isinstance(line, str):
            rendered.append(line)
        else:
            rendered.append(",".join(str(cell) for cell in line))
    path.write_text("\n".join(rendered) + "\n", encoding="ascii")
    return path


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span == 0.0:
        mid = (out_lo + out_hi) // 2
        return [mid for _ in values]
    return [
        round(out_lo + (v - lo) / span * (out_hi - out_lo)) for v in values
    ]


def _svg(body: list) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    frame = (
        f'<rect x="{PAD}" y="{PAD}" width="{WIDTH - 2 * PAD}" '
        f'height="{HEIGHT - 2 * PAD}" fill="none" stroke="black"/>'
    )
    return "\n".join([head, frame, *body, "</svg>"]) + "\n"


def _text(x: int, y: int, content: str, anchor: str = "start") -> str:
    return (
        f'<text x="{x}" y="{y}" font-family="monospace" font-size="12" '
        f'text-anchor="{anchor}">{content}</text>'
    )


def line_plot_svg(title: str, xs, ys, x_label: str, y_label: str) -> str:
    """Polyline of ys over xs with the data extremes quoted verbatim."""
    if len(xs) != len(ys) or not xs:
        raise PreconditionError("line plot needs equally many xs and ys")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    px = _scale(xs, x_lo, x_hi, PAD, WIDTH - PAD)
    py = _scale(ys, y_lo, y_hi, HEIGHT - PAD, PAD)
    points = " ".join(f"{x},{y}" for x, y in zip(px, py))
    body = [
        f'<polyline points="{points}" fill="none" stroke="black"/>',
        _text(PAD, PAD - 8, title),
        _text(PAD, HEIGHT - PAD + 16, f"{x_label} min {xs[0]!r}"),
        _text(WIDTH - PAD, HEIGHT - PAD + 16, f"{x_label} max {xs[-1]!r}", "end"),
        _text(PAD, PAD + 12, f"{y_label} max {y_hi!r}"),
        _text(PAD, HEIGHT - PAD - 4, f"{y_label} min {y_lo!r}"),
    ]
    return _svg(body)


def bar_chart_svg(title: str, labels, values) -> str:
    """Bars for small integer series; each bar quotes its own value."""
    if len(labels) != len(values) or not labels:
        raise PreconditionError("bar chart needs equally many labels and values")
    v_lo, v_hi = min(0, min(values)), max(0, max(values))
    base = _scale([0], v_lo, v_hi, HEIGHT - PAD, PAD)[0]
    tops = _scale(values, v_lo, v_hi, HEIGHT - PAD, PAD)
    slot = (WIDTH - 2 * PAD) // len(labels)
    width = max(8, (slot * 3) // 5)
    body = [_text(PAD, PAD - 8, title)]
    for i, (label, value, top) in enumerate(zip(labels, values, tops)):
        x = PAD + i * slot + (slot - width) // 2
        y0, y1 = sorted((base, top))
        height = max(1, y1 - y0)
        body.append(
            f'<rect x="{x}" y="{y0}" width="{width}" height="{height}" '
            f'fill="gray" stroke="black"/>'
        )
        body.append(_text(x + width // 2, HEIGHT - PAD + 16, str(label), "middle"))
        body.append(_text(x + width // 2, y0 - 4, str(value), "middle"))
    return _svg(body)


def _certificate_files(report: CertificateReport, out_dir: Path, stem: str) -> list:
    files = [write_csv(out_dir / f"{stem}.csv", report.csv_rows())]
    seg_lines = ["segment,kind,label,samples,max_unitarity_defect,"
                 "min_singular_value,max_locality_defect,dense_samples,max_bound_excess,"
                 "largest_block"]
    for i, stats in enumerate(report.segment_stats):
        excess = stats["max_bound_excess"]
        seg_lines.append(
            ",".join(
                (
                    str(i),
                    stats["kind"],
                    stats.get("label", ""),
                    str(stats["samples"]),
                    repr(stats["max_unitarity_defect"]),
                    repr(stats["min_singular_value"]),
                    repr(stats["max_locality_defect"]),
                    str(stats["dense_samples"]),
                    "" if excess is None else repr(excess),
                    str(stats["largest_block"]),
                )
            )
        )
    files.append(write_csv(out_dir / f"{stem}_segments.csv", seg_lines))

    ts = [row[0] for row in report.series]
    metrics = [
        ("unitarity_defect", 1),
        ("min_singular_value", 2),
        ("locality_defect", 3),
    ]
    if report.is_projection_path:
        metrics.append(("idempotency_defect", 4))
    for name, col in metrics:
        ys = [row[col] for row in report.series]
        svg = line_plot_svg(f"{stem} {name} vs t", ts, ys, "t", name)
        target = out_dir / f"{stem}_{name}.svg"
        target.write_text(svg, encoding="ascii")
        files.append(target)
    return files


def _decay_files(profile: DecayProfile, out_dir: Path, stem: str) -> list:
    files = [write_csv(out_dir / f"{stem}.csv", profile.csv_rows())]
    if profile.values:
        xs = [float(r) for r in profile.radii]
        svg = line_plot_svg(f"{stem} block norm vs cutoff", xs, list(profile.values),
                            "radius", "norm")
        target = out_dir / f"{stem}.svg"
        target.write_text(svg, encoding="ascii")
        files.append(target)
    return files


def _sweep_files(rows, out_dir: Path, stem: str) -> list:
    rows = [(int(k), int(v)) for k, v in rows]
    lines = ["k,index"] + [f"{k},{v}" for k, v in rows]
    files = [write_csv(out_dir / f"{stem}.csv", lines)]
    if rows:
        svg = bar_chart_svg(f"{stem} index vs k", [k for k, _ in rows],
                            [v for _, v in rows])
        target = out_dir / f"{stem}.svg"
        target.write_text(svg, encoding="ascii")
        files.append(target)
    return files


def emit_plots(report, out_dir: str | Path, stem: str = "") -> list:
    """Write the CSVs and SVG plots for a report; returns the new paths.

    Accepts a path certificate, a block-norm decay profile, or an
    iterable of (k, index) pairs.  An empty decay profile gets its CSV
    header but no picture.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(report, CertificateReport):
        return _certificate_files(report, out_dir, stem or "certificate")
    if isinstance(report, DecayProfile):
        return _decay_files(report, out_dir, stem or "decay")
    try:
        rows = [(k, v) for k, v in report]
    except TypeError:
        raise PreconditionError(
            "emit_plots takes a certificate, a decay profile, or (k, index) pairs"
        ) from None
    return _sweep_files(rows, out_dir, stem or "index_sweep")
