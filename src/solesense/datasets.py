"""Built-in measurement data captured from the fabricated sensor's bench runs.

Two datasets ship with the package:

* ``MEASURED_CALIBRATION`` -- the pressure/resistance sweep recorded while
  loading one fabricated sensor (raw rows, duplicates included as logged).
* the side-by-side comparison setup: per-device press schedules plus the
  resistance levels of the fabricated sensor and of a commercial force
  sensing resistor (FSR) ran next to it.
"""

from __future__ import annotations

# (pressure_pa, resistance_ohm) rows of the lab calibration sweep.
MEASURED_CALIBRATION: tuple[tuple[float, float], ...] = (
    (428589.8, 3342900.0),
    (428589.8, 3342900.0),
    (428589.8, 3342900.0),
    (469052.1, 1924700.0),
    (480612.8, 1711436.842),
    (486393.1, 1620800.0),
    (509514.4, 1333783.333),
    (532635.8, 1128771.429),
    (723386.8, 463322.9508),
)

# Datasheet end points: lightest characterized load and full load.
DATASHEET_RANGE: tuple[tuple[float, float], ...] = (
    (200_000.0, 150_000.0),
    (750_000.0, 200.0),
)

# Sensor turn-on pressure: below this the device reads as an open circuit.
DATASHEET_ONSET_PA = 200_000.0
DATASHEET_MAX_PA = 750_000.0

# Comparison bench: stimulus levels (Pa) shared by both press schedules.
COMPARISON_IDLE_PA = 428589.8
COMPARISON_PRESS_PA = 469052.1
COMPARISON_SOFT_PRESS_PA = 450000.0

# Resistance levels of the fabricated sensor on the comparison bench.
COMPARISON_SENSOR_POINTS: tuple[tuple[float, float], ...] = (
    (COMPARISON_IDLE_PA, 3342900.0),
    (COMPARISON_PRESS_PA, 29162.12),
)

# Resistance levels of the commercial FSR: idle, soft press, hard press.
FSR_POINTS: tuple[tuple[float, float], ...] = (
    (COMPARISON_IDLE_PA, 3342900.0),
    (COMPARISON_SOFT_PRESS_PA, 2051325.0),
    (COMPARISON_PRESS_PA, 123811.11),
)


def comparison_stimulus() -> tuple[list[float], list[list[float]]]:
    """Per-device press schedules of the built-in comparison bench run.

    Returns (times_s, [sensor_pressures_pa, fsr_pressures_pa]), one row per
    second. Each device was pressed by hand on its own schedule: the
    fabricated sensor once (seconds 5-9), the FSR twice (hard at seconds 4-6,
    soft at seconds 11-13).
    """
    times = [float(t) for t in range(14)]
    idle, press, soft = COMPARISON_IDLE_PA, COMPARISON_PRESS_PA, COMPARISON_SOFT_PRESS_PA
    sensor = [idle] * 5 + [press] * 5 + [idle] * 4
    fsr = [idle] * 4 + [press] * 3 + [idle] * 4 + [soft] * 3
    return times, [sensor, fsr]
