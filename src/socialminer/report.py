"""Aggregate classified, binned profiles into distributions and render them
as CSV tables and static SVG charts (pie charts per age range, line charts
and male/female comparison charts)."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import ChartError, ReportError
from .ingest import FIELD_ENUMS

# The fields a report groups by and those it measures: keys whose kind in
# ``ingest.STAGE_RECORD`` is an enumeration, which gives their values in order.
GROUP_FIELDS = ("age_range", "gender")
MEASURE_FIELDS = ("about_me_class", "wall_count_class", "music_share_class",
                  "activity_interest_class")
# The fields of a tally key, in order.
REPORT_FIELDS = (*GROUP_FIELDS, *MEASURE_FIELDS)
# The (group_by, measure) tables of a report, in the order they are written;
# together they cover every field of REPORT_FIELDS. They are the report's
# whole layout: ``pipeline.stage_report`` names each file from these fields.
REPORT_TABLES = (
    ("age_range", "about_me_class"),
    *(("gender", measure) for measure in MEASURE_FIELDS),
)

_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6",
)


@dataclass
class Distribution:
    """Counts per bucket for one measure over one filtered population."""

    dimension: str
    population: str
    bucket_counts: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.bucket_counts.values())


def tally(profiles: Iterable[dict]) -> Counter:
    """Count the profiles by their tuple of ``REPORT_FIELDS`` values, in one
    pass; there are at most as many keys as combinations of those values.
    Every profile must have both fields of each of ``REPORT_TABLES``; the
    first one that lacks a field raises ReportError naming it and the first
    table it cannot be counted in."""
    values_of = itemgetter(*REPORT_FIELDS)
    counts: Counter = Counter()
    for profile in profiles:
        try:
            values = values_of(profile)
        except KeyError:
            for group_by, measure in REPORT_TABLES:
                if group_by not in profile or measure not in profile:
                    raise ReportError(
                        f"profile {profile['id']!r} missing {group_by} or {measure}"
                    ) from None
        counts[values] += 1
    return counts


def aggregate(counts: Counter, group_by: str, measure: str) -> list[Distribution]:
    """One Distribution per group value, in enumeration order, from a
    ``tally``; every group is listed even when empty and every bucket is
    zero-filled."""
    if group_by not in GROUP_FIELDS:
        raise ReportError(f"cannot group by {group_by!r}")
    if measure not in MEASURE_FIELDS:
        raise ReportError(f"cannot measure {measure!r}")
    buckets = [member.value for member in FIELD_ENUMS[measure]]
    table = {member.value: dict.fromkeys(buckets, 0) for member in FIELD_ENUMS[group_by]}
    group_at, measure_at = REPORT_FIELDS.index(group_by), REPORT_FIELDS.index(measure)
    for values, n in counts.items():
        table[values[group_at]][values[measure_at]] += n
    return [
        Distribution(measure, f"{group_by}={group}", bucket_counts)
        for group, bucket_counts in table.items()
    ]


def emit_table(dist: Distribution, other: Distribution | None = None) -> str:
    """Comma-separated table, one row per bucket, LF line endings: the count
    and percent of ``dist``, or the raw counts of ``dist`` and ``other`` side
    by side. Two distributions of one ``aggregate`` share their buckets."""
    if other is not None:
        lines = [f"bucket,{dist.population},{other.population}"]
        for bucket, count in dist.bucket_counts.items():
            lines.append(f"{bucket},{count},{other.bucket_counts[bucket]}")
        return "\n".join(lines) + "\n"
    total = dist.total
    lines = ["bucket,count,percent"]
    for bucket, count in dist.bucket_counts.items():
        percent = 100.0 * count / total if total else 0.0
        lines.append(f"{bucket},{count},{percent:.2f}")
    return "\n".join(lines) + "\n"


def pie_angles(counts: Sequence[int]) -> list[float]:
    """Slice angles in degrees, proportional to counts; they sum to 360."""
    total = sum(counts)
    if total <= 0:
        raise ChartError("cannot draw a pie chart of an all-zero distribution")
    return [count / total * 360.0 for count in counts]


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_open(width: int, height: int) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]


def _title(lines: list[str], width: int, text: str) -> None:
    lines.append(
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_escape(text)}</text>'
    )


def _legend(lines: list[str], x: int, y: int, entries: Sequence[tuple[str, str]]) -> None:
    for i, (color, label) in enumerate(entries):
        ly = y + i * 22
        lines.append(f'<rect x="{x}" y="{ly - 11}" width="13" height="13" fill="{color}"/>')
        lines.append(
            f'<text x="{x + 20}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{_escape(label)}</text>'
        )


def _pie_svg(dist: Distribution) -> str:
    counts = list(dist.bucket_counts.values())
    angles = pie_angles(counts)
    total = dist.total
    width, height = 780, max(420, 70 + 22 * len(counts))
    cx, cy, r = 210.0, height / 2 + 10, 165.0
    lines = _svg_open(width, height)
    _title(lines, width, f"{dist.dimension} ({dist.population})")

    start = -90.0
    for i, angle in enumerate(angles):
        color = _PALETTE[i % len(_PALETTE)]
        if angle <= 0.0:
            continue
        if angle >= 360.0 - 1e-9:
            lines.append(f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{r:.3f}" fill="{color}"/>')
            start += angle
            continue
        end = start + angle
        x0 = cx + r * math.cos(math.radians(start))
        y0 = cy + r * math.sin(math.radians(start))
        x1 = cx + r * math.cos(math.radians(end))
        y1 = cy + r * math.sin(math.radians(end))
        large = 1 if angle > 180.0 else 0
        lines.append(
            f'<path d="M {cx:.3f} {cy:.3f} L {x0:.3f} {y0:.3f} '
            f'A {r:.3f} {r:.3f} 0 {large} 1 {x1:.3f} {y1:.3f} Z" fill="{color}"/>'
        )
        start = end

    entries = []
    for i, (bucket, count) in enumerate(dist.bucket_counts.items()):
        pct = 100.0 * count / total
        entries.append((_PALETTE[i % len(_PALETTE)], f"{bucket} — {count} ({pct:.1f}%)"))
    _legend(lines, 430, 70, entries)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _line_svg(title: str, dists: Sequence[Distribution]) -> str:
    """Line chart of one series per distribution, named by its population,
    over their shared buckets, each point labelled with its count. Series i
    is drawn in palette colour 2·i; more than one series adds a legend row
    of their names below the plot."""
    series = [(d.population, list(d.bucket_counts.values())) for d in dists]
    buckets = list(dists[0].bucket_counts)
    width, height = 780, 420 if len(series) == 1 else 440
    left, right, top, bottom = 60.0, width - 40.0, 50.0, 340.0
    y_max = max([max(counts) for _, counts in series] + [1])
    n = len(buckets)
    xs = [(left + right) / 2] if n == 1 else [left + (right - left) * i / (n - 1) for i in range(n)]
    lines = _svg_open(width, height)
    _title(lines, width, title)
    lines.append(
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="#000" stroke-width="1"/>'
    )
    lines.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="#000" stroke-width="1"/>'
    )
    for i in range(5):
        value = y_max * (i + 1) / 5
        y = bottom - (bottom - top) * (i + 1) / 5
        lines.append(
            f'<line x1="{left}" y1="{y:.2f}" x2="{right}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{left - 6}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{value:g}</text>'
        )
    legend = []
    for i, (name, counts) in enumerate(series):
        color = _PALETTE[2 * i % len(_PALETTE)]
        legend.append((color, name))
        points = [(x, bottom - (bottom - top) * count / y_max) for x, count in zip(xs, counts)]
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        lines.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{path}"/>')
        for (x, y), count in zip(points, counts):
            lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')
            lines.append(
                f'<text x="{x:.2f}" y="{y - 7:.2f}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="10">{count}</text>'
            )
    for x, bucket in zip(xs, buckets):
        lines.append(
            f'<text x="{x:.2f}" y="{bottom + 14:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10" '
            f'transform="rotate(-30 {x:.2f} {bottom + 14:.2f})">{_escape(bucket)}</text>'
        )
    if len(series) > 1:
        _legend(lines, int(left), height - 28, legend)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def emit_chart(dist: Distribution, kind: str) -> str:
    """Self-contained SVG document: 'pie' or 'line'."""
    if kind == "pie":
        return _pie_svg(dist)
    if kind == "line":
        return _line_svg(f"{dist.dimension} ({dist.population})", [dist])
    raise ChartError(f"unknown chart kind {kind!r}")


def emit_comparison_chart(left: Distribution, right: Distribution) -> str:
    """Two-series line chart comparing the left and right populations."""
    return _line_svg(f"{left.dimension}: {left.population} vs {right.population}", [left, right])
