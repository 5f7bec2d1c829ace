"""Fitting a calibration profile and reading its figures of merit.

The built-in "measured" profile interpolates the lab pressure/resistance
sweep of the fabricated sensor (log-resistance, piecewise linear in
pressure). characterize() then measures datasheet-style figures from the
model itself: range, both sensitivity conventions, step timing, hysteresis.
"""

from solesense.sensor import (
    NOMINAL_SENSITIVITY_PA_PER_OHM,
    builtin_profile,
    characterize,
    static_resistance,
)
from solesense.units import Pressure

profile = builtin_profile("measured")
print(f"profile {profile.name!r}: {len(profile.points)} points,"
      f" onset {profile.onset_pressure.pascals / 1000:.0f} kPa\n")

print("calibrated curve (and two interpolated points):")
queries = [p.pressure_pa for p in profile.points] + [500_000.0, 600_000.0]
for pressure in sorted(queries):
    r = static_resistance(profile, Pressure(pressure))
    print(f"  {pressure:>10,.1f} Pa -> {r.ohms:>14,.1f} ohm")

print("\nbelow onset the sensor is an open circuit:")
print(f"  100 kPa -> {static_resistance(profile, Pressure(100_000.0))}")

print("\ndatasheet-style characterization of the two-point 'datasheet' profile:")
figures = characterize(builtin_profile("datasheet"))
print(f"  range: {figures.resistance_at_min_ohm:,.0f} ohm @ {figures.pressure_min_pa / 1000:.0f} kPa"
      f" ... {figures.resistance_at_max_ohm:,.0f} ohm @ {figures.pressure_max_pa / 1000:.0f} kPa")
print(f"  sensitivity: {figures.sensitivity_ohm_per_pa:.4f} ohm/Pa"
      f" = {figures.sensitivity_pa_per_ohm:.4f} Pa/ohm")
print(f"  response time (10-90%): {figures.response_time_s * 1000:.1f} ms")
print(f"  recovery time (10-90%): {figures.recovery_time_s * 1000:.1f} ms")
print(f"  hysteresis loop width: {figures.hysteresis_fraction * 100:.2f} % of span")
print(f"  nominal sensitivity match: {figures.matches_nominal_sensitivity}"
      f" (nominal {NOMINAL_SENSITIVITY_PA_PER_OHM} Pa/ohm is not reproducible"
      " from the end points; trust the computed value)")
