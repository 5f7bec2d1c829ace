"""Side-by-side bench run: fabricated sensor vs a commercial FSR.

Each device is pressed on its own schedule (the fabricated sensor once, the
FSR twice at two strengths); both stimuli replay through the same dynamic
sensor model with each device's own calibration profile.
"""

from solesense.analysis import compare_sensors
from solesense.datasets import comparison_stimulus
from solesense.sensor import builtin_profile

times, stimuli = comparison_stimulus()
table = compare_sensors(times, stimuli, [builtin_profile("bench"), builtin_profile("fsr")])

print(f"{'t [s]':>5} {'sensor stim [kPa]':>18} {'sensor [kohm]':>15}"
      f" {'fsr stim [kPa]':>15} {'fsr [kohm]':>12}")
for t, s_p, f_p, s_ohm, f_ohm in zip(times, *stimuli, *table.resistances_ohm):
    print(f"{t:>5.0f} {s_p / 1000:>18.1f} {s_ohm / 1000:>15.5f}"
          f" {f_p / 1000:>15.1f} {f_ohm / 1000:>12.5f}")

print("\nboth columns settle to their logged levels within each one-second dwell;")
print("the FSR's second, softer press lands on its intermediate resistance level.")
