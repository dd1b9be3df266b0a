"""Helpers shared by the test modules."""

import math

import numpy as np

from qwalk import kernel


def disc_is_even(s):
    """The cleared x-discriminant has no odd-degree terms (the y-plane one:
    pass s.mirrored())."""
    return not any(any(trip) for trip in kernel.cleared_disc_int(s)[1::2])


def winding(points, x):
    """Winding number around x of the closed polygon through points, the
    last point joined back to the first (sum of turning angles)."""
    rel = np.asarray(points) - x
    assert np.all(rel != 0), f"{x} lies on a polygon vertex"
    return round(float(np.sum(np.angle(np.roll(rel, -1) / rel))) / (2 * math.pi))
