"""Dynamic sensor behavior: first-order lag and play-operator hysteresis.

A pressure step does not change the resistance instantly; the model lags in
log-resistance space with separate loading/recovery time constants. The play
operator makes the static curve history-dependent: loading and unloading
branches differ by a fixed pressure width.
"""

import math

from solesense.sensor import DynamicsConfig, SensorState, builtin_profile, static_resistance, step
from solesense.units import Pressure

profile = builtin_profile("datasheet")
dynamics = DynamicsConfig()
print(f"tau_load = {dynamics.tau_load * 1000:.2f} ms, tau_recover = {dynamics.tau_recover * 1000:.2f} ms,"
      f" play half-width = {dynamics.hysteresis_halfwidth / 1000:.1f} kPa\n")

# --- step response at 1 kHz ---------------------------------------------------
print("step 200 kPa -> 750 kPa, sampled at 1 kHz:")
state = SensorState.settled(Pressure(200_000.0), profile)
start = state.lagged_resistance.ohms
target = static_resistance(profile, Pressure(750_000.0 - dynamics.hysteresis_halfwidth)).ohms
for ms in (1, 10, 30, 60, 120, 250, 500):
    state = SensorState.settled(Pressure(200_000.0), profile)
    resistance = None
    for k in range(ms):
        state, resistance = step(state, Pressure(750_000.0), (k + 1) / 1000.0, profile, dynamics)
    progress = (math.log(start) - math.log(resistance.ohms)) / (math.log(start) - math.log(target))
    print(f"  t = {ms:>4} ms: R = {resistance.ohms:>12,.1f} ohm ({progress * 100:5.1f} % of transition)")

# --- hysteresis loop -----------------------------------------------------------
print("\ntriangular sweep 200 -> 750 -> 200 kPa (quasi-static):")
quasi = DynamicsConfig(tau_load=1e-12, tau_recover=1e-12)
state = SensorState.settled(Pressure(200_000.0), profile)
t = 0.0
loading = {}
for k in range(551):
    p = 200_000.0 + k * 1000.0
    t += 1.0
    state, r = step(state, Pressure(p), t, profile, quasi)
    loading[p] = r.ohms
unloading = {}
for k in range(551):
    p = 750_000.0 - k * 1000.0
    t += 1.0
    state, r = step(state, Pressure(p), t, profile, quasi)
    unloading[p] = r.ohms

print(f"{'pressure [kPa]':>15} {'loading [ohm]':>15} {'unloading [ohm]':>16}")
for p in (250_000.0, 400_000.0, 550_000.0, 700_000.0):
    print(f"{p / 1000:>15.0f} {loading[p]:>15,.1f} {unloading[p]:>16,.1f}")
print("\nat the same applied pressure the loading branch reads higher: the play")
print("operator keeps the effective pressure 16.5 kPa behind the applied one on")
print("each branch, which opens a 6 % full-scale loop between the two curves.")
