"""Integral representations vs. the exact counts.

The boundary-value solution expresses the sections of Q through contour
integrals over the traced curve, with a conformal gluing function (t + 1/t
for the unit disc).  The simple walk additionally has explicit real
quadratures.  Every value below is checked against the truncated series
from the exact enumeration.
"""

from qwalk import (
    circle_cgf,
    count,
    preset,
    q00_general,
    q00_simple,
    q10_general,
    q10_simple,
    q11_from_relation,
    series,
    trace_curve_M,
)
from qwalk.bvp import cauchy_value
from qwalk.counting import eval_q_x0, eval_series

s = preset("simple")
z = 0.2
table = count(s, 130, dense_max=0)

print("simple-walk closed forms at z = 0.2:")
gf = q00_simple(z)
oracle = eval_series(series(table, "q00").coeffs, z)
print(f"  Q(0,0,z): quadrature {gf.value:.12f}   series {oracle:.12f}")
gf10 = q10_simple(z)
oracle10 = eval_series(series(table, "q10").coeffs, z)
print(f"  Q(1,0,z): quadrature {gf10.value:.12f}   series {oracle10:.12f}")

gf11 = q11_from_relation(s, z, gf10.value, gf10.value, gf.value)
oracle11 = eval_series(series(table, "q11").coeffs, z)
print(f"  Q(1,1,z): relation   {gf11.value:.12f}   series {oracle11:.12f}")

print("\ngluing-function route (unit-circle curve, w = t + 1/t):")
cgf = circle_cgf()
trace = trace_curve_M(s, z)
for x in (0.3, 0.5j, -0.7):
    lhs = cauchy_value(trace, x, cgf)[0]       # c(x) Q(x,0,z) - c(0) Q(0,0,z)
    rhs = x * eval_q_x0(table, x, z)           # c(x) = x and c(0) = 0 here
    print(f"  x = {x}: contour {lhs:.12f}  series {rhs:.12f}")

print("\nthe same machinery on another unit-circle model (boundary evaluations):")
from qwalk import parse_step_set

lrs = parse_step_set([(-1, -1), (1, -1), (0, 1)])
t2 = count(lrs, 200, dense_max=0)
g = q00_general(lrs, 0.15, cgf)
print("  Q(0,0,0.15):", g.value, g.flags, "  series:",
      eval_series(series(t2, "q00").coeffs, 0.15))
g = q10_general(lrs, 0.15, cgf)
print("  Q(1,0,0.15):", g.value, g.flags, "  series:",
      eval_series(series(t2, "q10").coeffs, 0.15))
