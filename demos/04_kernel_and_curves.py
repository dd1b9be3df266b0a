"""Kernel algebra: discriminants, branch points, branches, and the curve.

For z in (0, 1/|S|) the x-discriminant has four roots ordered
|x1| < x2 < 1 < x3 < |x4| <= infinity.  The two-valued function X(y, z)
traced over the slit [y1, y2] draws a closed curve in the x-plane; for the
simple walk it is the unit circle.  The trace samples it at m staggered
contour nodes.  A point lies inside the domain the curve bounds exactly when
the kernel's branches lead back to it, X0(Y0(x)) = x.
"""

import numpy as np

from qwalk import (
    Y_branches,
    branch_points,
    kernel_eval,
    point_in_G_M,
    preset,
    trace_curve_M,
)
from qwalk.kernel import cleared_disc_int

s = preset("simple")
z = 0.2

print("cleared D(x, z) = z^2 d(x, z), x^k coefficient as (z^0, z^1, z^2) integers:",
      list(cleared_disc_int(s)))
bp = branch_points(s, z)
print("x-plane branch points:", [complex(round(r.real, 6)) for r in bp.x_roots])
print("ordering asserted:", bp.ordering_asserted)
print("reciprocal pairs: x1*x4 =", (bp.x_roots[0] * bp.x_roots[3]).real,
      " x2*x3 =", (bp.x_roots[1] * bp.x_roots[2]).real)

y0, y1 = Y_branches(s, 0.7 + 0.2j, z)
print("\nbranches at x = 0.7+0.2j:  Y0 =", y0, " Y1 =", y1)
print("kernel residual |K(x, Y0, z)| =", abs(kernel_eval(s, 0.7 + 0.2j, y0, z)))

trace = trace_curve_M(s, z, m=256)
radii = np.abs(trace.points)
print(f"\ntraced curve over the slit [{trace.y1:.6f}, {trace.y2:.6f}]:")
print("  max | |x| - 1 | over the trace:", float(np.max(np.abs(radii - 1.0))))

for x in (bp.x_roots[0], bp.x_roots[2], 1.0 + 0j, 0.3 + 0.4j):
    print(f"  position of {x}: {point_in_G_M(trace, x)}")
