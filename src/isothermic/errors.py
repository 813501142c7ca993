"""Exception hierarchy for the isothermic-net library.

Every failure mode that callers are expected to handle gets its own class;
all inherit from :class:`GeometryError` so blanket handling stays easy.
"""


class GeometryError(Exception):
    """Base class for all geometric failures raised by this package; one
    raised by :meth:`tolerances.Check.require` keeps that check as ``check``."""

    def __init__(self, *args, check=None):
        super().__init__(*args)
        self.check = check


# --- linear algebra / light-cone primitives ---------------------------------

class DegenerateLift(GeometryError):
    """A light-cone representative lies on the infinity boundary of a space form."""


class NonFiniteLift(GeometryError):
    """A lift holds a NaN or infinite entry."""


class DegeneratePoints(GeometryError):
    """A cross-ratio denominator vanishes (coinciding projective points)."""


class DegeneratePair(GeometryError):
    """The two anchor points of a circle transform are proportional."""


class SingularParameter(GeometryError):
    """Circle-transform parameter q is zero (the map is not invertible)."""


class SingularSystem(GeometryError):
    """A dense linear solve hit a pivot below tolerance."""


# --- isothermic nets ---------------------------------------------------------

class NonConcircularFace(GeometryError):
    """A face cross ratio has a non-negligible imaginary part."""


class FactorizationFailure(GeometryError):
    """Face cross ratios do not split into two one-variable edge functions."""


class DegenerateEdge(GeometryError):
    """An edge inner product needed for rescaling or filling vanishes."""


class PoleParameter(GeometryError):
    """Spectral parameter hits a pole 1 - lambda * a = 0 of the connection,
    or gives Darboux quads a cross ratio mu * a of 0 or infinity."""


class NotFlat(GeometryError):
    """Path dependence detected while propagating a frame (input not isothermic)."""


# --- conserved quantities ----------------------------------------------------

class NotConserved(GeometryError):
    """Propagation of a candidate conserved quantity failed to stay polynomial
    or path-consistent; the seed value or the net is wrong."""


class NonzeroRoot(GeometryError):
    """Degree reduction requested at a value that is not a root of the quantity."""


class DegenerateTop(GeometryError):
    """Top coefficient is isotropic; the quantity cannot be normalized."""


class NotNormalized(GeometryError, ValueError):
    """A linear quantity's top coefficient does not have unit Minkowski
    square (also a ValueError, as the argument check it replaces)."""


class SphericalStar(GeometryError):
    """A vertex star is cospherical, so the star system for the sphere
    congruence is singular."""


# --- transforms ----------------------------------------------------------------

class DegenerateStart(GeometryError):
    """A transform's initial value is proportional to the base net's lift."""


class NotPolynomial(GeometryError):
    """A transformed quantity failed to close up to a polynomial."""


class NotBacklund(GeometryError):
    """The orthogonality start condition for a Backlund transform fails."""


class CoincidentTransforms(GeometryError):
    """Two transforms used for permutability coincide at some vertex."""


class EmptyConic(GeometryError):
    """No real isotropic start direction exists orthogonal to the given vector."""


class IncidenceFailure(GeometryError):
    """A reconstructed top coefficient is not orthogonal to the net."""


class NotParallel(GeometryError):
    """A section is not parallel for the connection it was declared under."""


# --- Euclidean reductions ------------------------------------------------------

class NotClosed(GeometryError):
    """A discrete 1-form is not closed: its integral depends on the path."""


class NotChristoffel(GeometryError):
    """A claimed dual pair does not satisfy the dual edge relation."""


# --- surfaces of revolution ----------------------------------------------------

class ConstraintViolated(GeometryError):
    """A mean-curvature or propagation constraint for the meridian fails."""


class DegenerateBasis(GeometryError):
    """Seed-edge data does not span the Lorentz 3-space."""


class InfinityBoundary(GeometryError):
    """A meridian point lies on the infinity boundary of the space form."""


class VanishingX(GeometryError):
    """The auxiliary sphere steering the meridian step vanishes."""


class AxisCrossing(GeometryError):
    """A meridian step left the chosen half of the hyperbolic plane."""


class AxisPoint(GeometryError):
    """A profile point lies on the axis of revolution."""


class RepeatedPoint(GeometryError):
    """Consecutive profile points or rotation angles coincide."""


# --- i/o -------------------------------------------------------------------------

class ParseError(GeometryError):
    """A net file could not be parsed; the message carries line/field context."""


class DimensionMismatch(GeometryError):
    """Array lengths in a net file disagree with its declared grid size."""


class ModelMismatch(GeometryError):
    """Requested export chart is incompatible with the ambient curvature sign."""
