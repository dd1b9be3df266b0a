"""Exception hierarchy shared across the qwalk modules."""


class QwalkError(Exception):
    """Base class for all qwalk analysis errors."""


class EmptyStepSet(QwalkError, ValueError):
    """The step list was empty."""


class InvalidStep(QwalkError, ValueError):
    """A step outside {-1,0,1}^2 \\ {(0,0)} was supplied."""


class PoleEncountered(QwalkError, ArithmeticError):
    """A group generator was evaluated at a pole of its defining rational map."""


class DegenerateGenerators(QwalkError, ValueError):
    """The generators of the group are not well-defined involutions for this step set."""


class TestPointExhaustion(QwalkError, RuntimeError):
    """Every sampled test point hit a pole; the random panel could not be built."""


class ResourceLimit(QwalkError, RuntimeError):
    """An enumeration request exceeded the configured memory/size cap."""


class RootFindingFailure(QwalkError, ArithmeticError):
    """Polynomial root iteration failed to converge to tolerance."""


class InexactDivision(QwalkError, ArithmeticError):
    """An exact integer polynomial division left a remainder."""


class DegenerateQuadratic(QwalkError, ArithmeticError):
    """Both the quadratic and linear coefficient of a kernel section vanish."""


class GenusZeroRegime(QwalkError, ValueError):
    """The inner branch points have collided; the curve cannot be traced."""


class SlitDegenerate(QwalkError, ValueError):
    """The slit between the two inner branch points has zero length or is not real."""


class NoPositiveSolution(QwalkError, ArithmeticError):
    """The critical-point system has no solution with positive coordinates."""


class SingularWalk(QwalkError, ValueError):
    """The operation is defined for non-singular walks only."""


class ValidationMismatch(QwalkError, ArithmeticError):
    """A candidate double root did not correspond to the inner branch-point collision."""


class OutOfRange(QwalkError, ValueError):
    """An evaluation point lies outside the operation's z-domain."""


class PointOutsideDomain(QwalkError, ValueError):
    """The evaluation point is not inside the required curve-bounded domain."""


class CGFUnavailable(QwalkError, ValueError):
    """No conformal gluing function is available for the requested domain."""


class QuadratureNotConverged(QwalkError, ArithmeticError):
    """A quadrature reached its node cap, or a non-finite sum, before two
    successive node doublings agreed to tolerance."""


class CaseUndetermined(QwalkError, RuntimeError):
    """A domain-membership or case-dispatch test was inconclusive within tolerance."""


class RootOutsideDomain(QwalkError, ValueError):
    """The root of c required by the boundary-value formula lies outside the domain."""


class RemovableSingularity(QwalkError, ArithmeticError):
    """The requested z sits on a removable singularity of the relation; the
    caller must evaluate by a one-sided limit (small offset)."""


class InsufficientData(QwalkError, ValueError):
    """The coefficient sequence is too short for a stable extrapolation."""


class ZeroSequence(QwalkError, ValueError):
    """The coefficient sequence has no nonzero terms."""
