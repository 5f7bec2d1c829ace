"""Fixture writers, fixture data and a chart reader that only the tests use.

The package reads legacy bench recordings and calibration files but never
writes them, and never reads its charts back; these helpers make the files
and the counts the tests check.
"""

from __future__ import annotations

from typing import Iterable

from solesense.sensor import CALIBRATION_HEADER, CalibrationPoint
from solesense.store import LEGACY_COLUMNS, LegacyRecord

# (time_s, pressure_pa, resistance_ohm) bench recording of one fabricated
# sensor, pressed and released. The two columns were logged by separate
# instruments and do not track each other exactly; the log is a legacy
# recording to replay, not calibration data.
BENCH_TIME_LOG: tuple[tuple[float, float, float], ...] = (
    (0.0, 428589.8, 3342900.0),
    (1.0, 428589.8, 3342900.0),
    (2.0, 428589.8, 3342900.0),
    (3.0, 428589.8, 3342900.0),
    (4.0, 428589.8, 3342900.0),
    (5.0, 434370.1, 29162.12),
    (6.0, 469052.1, 29162.12),
    (7.0, 469052.1, 29162.12),
    (8.0, 469052.1, 29162.12),
    (9.0, 469052.1, 29162.12),
    (10.0, 480612.8, 3342900.0),
    (11.0, 509514.4, 3342900.0),
    (12.0, 532635.8, 3342900.0),
    (13.0, 549976.8, 3342900.0),
    (14.0, 648242.5, 8387.898),
)


def write_legacy_csv(path, records: Iterable[LegacyRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(LEGACY_COLUMNS) + "\n")
        for record in records:
            fh.write(
                f"{record.time_s!r},{record.pressure_pa!r},{record.resistance_ohm!r}\n"
            )


def write_calibration_csv(path, points: list[CalibrationPoint]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CALIBRATION_HEADER) + "\n")
        for point in points:
            fh.write(f"{point.pressure_pa!r},{point.resistance_ohm!r}\n")


def count_series(svg_text: str) -> int:
    """Number of distinct data series in a chart produced by line_chart_svg."""
    names = set()
    for chunk in svg_text.split('data-name="')[1:]:
        names.add(chunk.split('"', 1)[0])
    return len(names)
