"""The electrical chain: divider, ADC, and the exact way back.

The sensor is the variable element of a voltage divider against a fixed
150 kohm resistor; a 12-bit ADC quantizes the divider output against the
3.3 V rail. Both stages invert: voltage -> resistance algebraically,
resistance -> pressure by the closed-form inverse of the fitted curve.
"""

from solesense.acquisition import (
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
from solesense.sensor import builtin_profile
from solesense.units import Pressure, Resistance

cfg = DividerConfig()
print(f"divider: v_in = {cfg.v_in.volts} V, r1 = {cfg.r1.ohms / 1000:.0f} kohm, {cfg.adc_bits}-bit ADC\n")

print("resistance -> voltage -> code:")
for ohms in (None, 3_342_900.0, 150_000.0, 29_162.12, 200.0):
    r = Resistance.open_circuit() if ohms is None else Resistance(ohms)
    v = divider_out(r, cfg)
    code = quantize(v, cfg)
    label = "open" if r.is_open else f"{r.ohms:>12,.2f}"
    print(f"  R = {label:>12} ohm -> {v.volts:8.5f} V -> code {code.value:>4}")

print("\nthe inversion is exact (up to the ADC step):")
v = divider_out(Resistance(29_162.12), cfg)
print(f"  invert_divider({v.volts:.6f} V) = {invert_divider(v, cfg).ohms:,.2f} ohm")
code = AdcCount(2048)
print(f"  dequantize(2048) = {dequantize(code, cfg).volts:.6f} V (mid-rise code center)")

print("\nfull chain pressure -> code -> pressure on the measured profile:")
profile = builtin_profile("measured")
for pressure in (0.0, 450_000.0, 550_000.0, 700_000.0):
    code = pressure_to_count(Pressure(pressure), profile, cfg)
    back = count_to_pressure(code, profile, cfg)
    print(f"  {pressure:>10,.0f} Pa -> code {code.value:>4} -> {back.pascals:>12,.1f} Pa")
print("  (0 Pa is below the 200 kPa onset: the open sensor reads full scale,")
print("   which decodes back to 'no contact' = 0 Pa)")

print(f"\nworst-case supply current: {divider_current(Resistance(1e-3), cfg) * 1e6:.0f} uA"
      " -- far under the 1 mA budget")
