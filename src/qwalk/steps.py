"""Small step sets on {-1,0,1}^2 \\ {(0,0)}, their scalar statistics and
the coefficient polynomials of their kernel.

A walk model is described by the set of allowed unit steps.  Everything
downstream (enumeration, kernel algebra, singularity analysis) consumes the
:class:`StepSet` value type defined here.  The boundary polynomials
(kernel_polys) are plain integer tuples, so the exact layers (the group,
the counts) need nothing from the numeric kernel module.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from .errors import EmptyStepSet, InvalidStep, OutOfRange

Step = tuple[int, int]

_ALLOWED: frozenset[Step] = frozenset(
    (i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if (i, j) != (0, 0)
)


@dataclass(frozen=True)
class StepSet:
    """An immutable set of admissible unit steps."""

    steps: frozenset[Step]

    def __post_init__(self) -> None:
        if not self.steps:
            raise EmptyStepSet("a step set must contain at least one step")
        bad = sorted(set(self.steps) - _ALLOWED)
        if bad:
            raise InvalidStep(f"steps outside the eight neighbours of the origin: {bad}")

    def delta(self, i: int, j: int) -> int:
        """Indicator of the step (i, j): 1 if allowed, else 0."""
        return 1 if (i, j) in self.steps else 0

    def sorted_steps(self) -> tuple[Step, ...]:
        return tuple(sorted(self.steps))

    def mirrored(self) -> "StepSet":
        """Reflection through the main diagonal, (i, j) -> (j, i)."""
        return StepSet(frozenset((j, i) for (i, j) in self.steps))

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        inner = ", ".join(f"({i},{j})" for i, j in self.sorted_steps())
        return f"StepSet({{{inner}}})"


@dataclass(frozen=True)
class DriftData:
    """First- and mixed second-moment statistics of a step set."""

    m_x: int
    m_y: int
    covariance: int
    cardinality: int


#: Named models from the classical literature.  The three non-simple entries
#: are validated by their computed group orders (6, 8, 8) in the test suite.
PRESETS: dict[str, tuple[Step, ...]] = {
    "simple": ((1, 0), (-1, 0), (0, 1), (0, -1)),
    "kreweras": ((-1, 0), (0, -1), (1, 1)),
    "gessel": ((1, 0), (-1, 0), (1, 1), (-1, -1)),
    "gouyou-beauchamps": ((1, 0), (-1, 0), (-1, 1), (1, -1)),
}


def parse_step_set(pairs: Iterable[Iterable[int]]) -> StepSet:
    """Build a StepSet from integer pairs; duplicates collapse.

    Raises EmptyStepSet for an empty list and InvalidStep for anything that
    is not a list of integer pairs, or for pairs outside the eight
    neighbours of the origin (including (0,0) itself).
    """
    try:
        candidates = [tuple(_not_text(pair)) for pair in _not_text(pairs)]
    except TypeError:
        raise InvalidStep(f"not a list of integer pairs: {pairs!r}") from None
    collected = set()
    for step in candidates:
        # bool is a subclass of int, but JSON true/false are not coordinates
        if len(step) != 2 or not all(isinstance(v, int) and not isinstance(v, bool)
                                     for v in step):
            raise InvalidStep(f"not an integer pair: {step!r}")
        collected.add(step)  # validity checked by the StepSet constructor
    if not collected:
        raise EmptyStepSet("a step set must contain at least one step")
    return StepSet(frozenset(collected))


def _not_text(v):
    # a str, bytes or mapping is iterable, but over characters or keys
    if isinstance(v, (str, bytes, Mapping)):
        raise TypeError
    return v


def preset(name: str) -> StepSet:
    """Look up a named step set (see PRESETS)."""
    try:
        return parse_step_set(PRESETS[name])
    except KeyError:
        raise OutOfRange(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None


def from_json(text: str) -> StepSet:
    """Parse the JSON wire format {"steps": [[i, j], ...]}."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: JSONDecodeError, int digit limit
        raise InvalidStep(f"the step set is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or "steps" not in data:
        raise InvalidStep('expected a JSON object of the form {"steps": [[i,j], ...]}')
    return parse_step_set(data["steps"])


def to_json(s: StepSet) -> str:
    return json.dumps({"steps": [list(p) for p in s.sorted_steps()]})


def drift(s: StepSet) -> DriftData:
    """Exact drift vector (M_x, M_y) and covariance C = sum(ij) - M_x*M_y."""
    m_x = sum(i for i, _ in s.steps)
    m_y = sum(j for _, j in s.steps)
    mixed = sum(i * j for i, j in s.steps)
    return DriftData(m_x=m_x, m_y=m_y, covariance=mixed - m_x * m_y, cardinality=len(s))


def is_singular(s: StepSet) -> bool:
    """True iff the walk has no West, South-West or South step."""
    return not ({(-1, 0), (-1, -1), (0, -1)} & s.steps)


def symmetry_class(s: StepSet) -> tuple[StepSet, str]:
    """Canonical representative under the diagonal reflection, with the
    transform ("identity" or "transpose") that maps `s` onto it.

    Only the x<->y reflection is quotiented out: it is the one symmetry of
    the square that preserves quarter-plane confinement.
    """
    mirror = s.mirrored()
    if mirror.sorted_steps() < s.sorted_steps():
        return mirror, "transpose"
    return s, "identity"


def origin_in_hull_interior(s: StepSet) -> bool:
    """True iff the origin lies strictly inside the convex hull of the steps.

    Equivalently, the steps are not contained in any closed half-plane
    through the origin.  Step sets failing this are reducible (the walk is
    equivalent to a half-plane or one-dimensional problem) and fall outside
    the branch-point ordering and critical-point machinery.  Exact integer
    test: a containing half-plane exists iff one exists whose boundary ray is
    perpendicular to some step.
    """
    for (i, j) in s.steps:
        for w in ((-j, i), (j, -i)):
            if all(u * w[0] + v * w[1] <= 0 for (u, v) in s.steps):
                return False
    return True


def all_step_sets() -> Iterator[StepSet]:
    """All 255 nonempty step sets, in a fixed deterministic order."""
    order = sorted(_ALLOWED)
    for mask in range(1, 1 << 8):
        yield StepSet(frozenset(order[k] for k in range(8) if mask >> k & 1))


@dataclass(frozen=True)
class KernelPolys:
    """The six boundary polynomials, each as (x^0, x^1, x^2) coefficients."""

    a: tuple[int, int, int]
    b: tuple[int, int, int]
    c: tuple[int, int, int]
    a_t: tuple[int, int, int]
    b_t: tuple[int, int, int]
    c_t: tuple[int, int, int]


@functools.cache  # at most 255 step sets; every field is an immutable tuple
def kernel_polys(s: StepSet) -> KernelPolys:
    def row(j: int) -> tuple[int, int, int]:
        return (s.delta(-1, j), s.delta(0, j), s.delta(1, j))

    def col(i: int) -> tuple[int, int, int]:
        return (s.delta(i, -1), s.delta(i, 0), s.delta(i, 1))

    return KernelPolys(
        a=row(1), b=row(0), c=row(-1), a_t=col(1), b_t=col(0), c_t=col(-1)
    )


def poly_eval(p, v):
    """Evaluate an ascending coefficient sequence at v by Horner's rule from
    the leading coefficient (0 for no coefficients)."""
    acc = p[-1] if p else 0
    for coeff in p[-2::-1]:
        acc = acc * v + coeff
    return acc
