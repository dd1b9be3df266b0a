"""The group of the walk.

Two birational involutions pair the kernel's roots:

    psi(x, y) = (x, c(x)/(a(x) y)),    phi(x, y) = (ct(y)/(at(y) x), y).

Both preserve the step polynomial sum(x^i y^j) over the steps.  The group
they generate is dihedral; its order (twice the order of psi o phi) is
decided here with exact rational arithmetic on a fixed panel of five points.
"""

from fractions import Fraction

from qwalk import group_order, invariant_check, phi, preset, psi
from qwalk.group import RationalPoint

s = preset("simple")
p = RationalPoint(Fraction(2), Fraction(3))
print("simple walk at (2, 3):")
print("  psi ->", psi(s, p), " psi o psi ->", psi(s, psi(s, p)))
print("  phi ->", phi(s, p))
print("  invariant preserved:", invariant_check(s, p))

print("\ngroup orders (exact certification):")
for name in ("simple", "kreweras", "gessel", "gouyou-beauchamps"):
    res = group_order(preset(name))
    print(f"  {name:20s} order {res.order}")

from qwalk import parse_step_set

s_inf = parse_step_set([(-1, 1), (0, -1), (1, -1), (1, 1)])
res = group_order(s_inf, max_half_order=16)
print(f"\n{s_inf}: no identity up to half-order {res.half_order_bound}",
      "(reported as exceeds-bound, never as 'infinite')")
