"""Force/pressure mechanics of one sensor face.

A mass resting on the 15 x 15 mm sensor face converts to force under
standard gravity and to pressure over the face area. Every sensor has this
one face: its side and area are the constants ``units.SENSOR_SIDE_M`` and
``units.SENSOR_AREA_M2``. This is the calibration arithmetic used
everywhere else in the package.
"""

from solesense.units import SENSOR_AREA_M2, SENSOR_SIDE_M, force_from_mass, mass_table, pressure_from_force

print("sensor face:", SENSOR_SIDE_M * 1000, "mm square,")
print("area:", SENSOR_AREA_M2, "m^2\n")

print(f"{'mass [kg]':>10} {'force [N]':>10} {'pressure [Pa]':>14} {'pressure [kPa]':>15}")
for mass, (force, pressure) in zip(range(1, 11), mass_table(range(1, 11))):
    print(f"{mass:>10} {force.newtons:>10.2f} {pressure.pascals:>14,.0f} {pressure.pascals / 1000:>15.1f}")

print("\nfractional masses work the same way:")
force = force_from_mass(2.5)
print(f"2.5 kg -> {force.newtons} N -> {pressure_from_force(force).pascals:,.0f} Pa")
