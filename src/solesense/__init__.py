"""Digital twin of a five-channel piezoresistive pressure-sensing shoe sole.

The package simulates the sensor physics and acquisition electronics of a
soft plantar-pressure insole, streams samples over a binary telemetry
protocol, and detects/scores gait phases from the five-channel pressure
field. See README.md for the tour.
"""

from .acquisition import (
    AdcCount,
    DividerConfig,
    count_to_pressure,
    dequantize,
    divider_current,
    divider_out,
    invert_divider,
    pressure_to_count,
    quantize,
)
from .analysis import (
    Analyzer,
    ContactState,
    GaitEvent,
    GaitEventKind,
    GaitReport,
    analyze,
    classify_phase,
    compare_sensors,
)
from .sensor import (
    CalibrationError,
    CalibrationPoint,
    CalibrationProfile,
    DynamicsConfig,
    SensorState,
    builtin_profile,
    characterize,
    fit_profile,
    static_resistance,
    step,
)
from .synth import GaitParams, ground_truth, synthesize
from .telemetry import (
    Collector,
    Deframer,
    Emitter,
    SessionHeader,
    TelemetryFrame,
    crc16_ccitt_false,
    decode,
    encode,
)
from .units import (
    CHANNEL_ORDER,
    FootRegion,
    Force,
    GaitPhase,
    Pressure,
    PressureSample,
    Resistance,
    SoleChannel,
    Voltage,
    force_from_mass,
    mass_table,
    pressure_from_force,
)

__version__ = "0.1.0"
