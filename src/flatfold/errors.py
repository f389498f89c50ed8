"""Exception hierarchy for flatfold.

Every error raised by the library derives from FlatfoldError so callers
(and the CLI) can catch validation problems uniformly.
"""


class FlatfoldError(Exception):
    """Base class for all flatfold errors."""


# -- crease pattern construction ------------------------------------------

class ValidationError(FlatfoldError):
    """Generic invalid-input error for pattern construction."""


class CrossingCreases(ValidationError):
    """Two creases intersect away from shared endpoints."""


class OddDegreeInteriorVertex(ValidationError):
    """An interior vertex has odd degree."""


class DanglingCrease(ValidationError):
    """A crease endpoint references no declared vertex or boundary point."""


class NotInteriorVertex(FlatfoldError):
    """The requested vertex is not an interior vertex."""


# -- single-vertex recursion ----------------------------------------------

class KawasakiViolation(FlatfoldError):
    """Alternating angle sum is nonzero (or odd degree)."""

    def __init__(self, vertex=None, message=None):
        self.vertex = vertex
        super().__init__(message or (f"Kawasaki violated at {vertex}" if vertex else "Kawasaki violated"))


class AllAnglesEqual(FlatfoldError):
    """No local-minimum run exists because all sector angles are equal."""


class InvalidRun(FlatfoldError):
    """The supplied run is not a valid local-minimum run of the cone."""


class InvalidAssignment(FlatfoldError, ValueError):
    """A crease value is missing or not +-1, or a run is given the wrong
    number of values."""


class CapExceeded(FlatfoldError):
    """Materialization would exceed the caller-supplied cap."""


class LimitExceeded(FlatfoldError):
    """Brute-force crease limit exceeded."""


# -- SAW graph construction -------------------------------------------------

class UnknownVariant(FlatfoldError):
    """Unknown orientation variant for a degree-4 SAW graph."""


class UnsupportedJ(FlatfoldError):
    """No baby gadget exists for runs of four or more equal angles."""


class NotThreeNice(FlatfoldError):
    """The vertex's crimp recursion meets a run longer than three."""


class AllEqualHighDegree(FlatfoldError):
    """All-equal cone of degree >= 6 reached; no SAW graph is known."""


class NotBoundaryEdge(FlatfoldError):
    """Edge is not on the boundary walk."""


class EdgesNotAdjacent(FlatfoldError):
    """The two edges do not share the required endpoint."""


class NotWaterbomb(FlatfoldError):
    """Vertex does not have the (a,a,b,a,a,b) waterbomb angle structure."""


class UnsupportedVertex(FlatfoldError):
    """Tiling cannot handle this vertex."""

    def __init__(self, vertex, reason):
        self.vertex = vertex
        self.reason = reason
        super().__init__(f"unsupported vertex {vertex}: {reason}")


class DisconnectedInterior(FlatfoldError):
    """No valid clipping order exists for the interior vertices."""


class TilingError(FlatfoldError):
    """A SAW graph or its boundary walk broke an invariant of the tiling.

    vertex is the pattern vertex being merged when the fault showed (None
    for the base graph or a standalone check); crease names the crease or
    creases involved, when known.
    """

    def __init__(self, message, vertex=None, crease=None):
        self.message = message
        self.vertex = vertex
        self.crease = crease
        super().__init__(message)

    def __str__(self):
        ctx = [f"{k} {v}" for k, v in (("vertex", self.vertex), ("crease", self.crease))
               if v is not None]
        return f"{self.message} ({', '.join(ctx)})" if ctx else self.message


# -- coloring / bijection ----------------------------------------------------

class DisconnectedSawGraph(FlatfoldError, ValueError):
    """The SAW graph to color is not connected."""


class ImproperColoring(FlatfoldError):
    """The coloring violates an adjacency or the root pre-coloring."""


class NoCompletion(FlatfoldError):
    """Color propagation ran into a contradiction."""


class AmbiguousCompletion(FlatfoldError):
    """Color propagation stalled; completion is not unique."""


# -- io ----------------------------------------------------------------------

class ParseError(FlatfoldError):
    """Malformed pattern file."""


class InvalidParameter(FlatfoldError, ValueError):
    """A pattern family or gadget is given a parameter outside its range,
    or an unknown family name."""


class BadMaskLength(InvalidParameter):
    """Reflection mask length does not match the zig-zag column count."""
