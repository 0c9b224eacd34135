"""Exception taxonomy shared by all kneser modules."""


class KneserError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(KneserError):
    """Malformed input file (tri/patch/surface-dump formats)."""


class NonInvolutiveGluing(KneserError):
    """Gluing table is not a pairwise involution at the named (tet, face)."""

    def __init__(self, tet: int, face: int, detail: str = ""):
        self.tet, self.face = tet, face
        msg = f"gluing of (tet {tet}, face {face}) is not involutive"
        super().__init__(msg + (f": {detail}" if detail else ""))


class SelfGluedFace(KneserError):
    """A face is glued to itself by the identity at the named (tet, face)."""

    def __init__(self, tet: int, face: int):
        self.tet, self.face = tet, face
        super().__init__(f"face (tet {tet}, face {face}) is glued to itself")


class NonOrientable(KneserError):
    """No coherent orientation assignment exists."""

    def __init__(self, tet: int, face: int):
        self.tet, self.face = tet, face
        super().__init__(
            f"orientation conflict while crossing (tet {tet}, face {face})"
        )


class NotClosed(KneserError):
    """Triangulation is not a closed 3-manifold, first seen at the named
    slot: a boundary face at (tet, face) (kind "face"), an edge identified
    with itself in reverse at (tet, edge) (kind "edge"), or a vertex link
    that is not a sphere at the least (tet, vertex) slot of its vertex
    orbit (kind "vertex")."""

    def __init__(self, tet: int, index: int, reason: str = "boundary face", kind: str = "face"):
        self.tet, self.index, self.kind = tet, index, kind
        super().__init__(f"not closed at (tet {tet}, {kind} {index}): {reason}")


class Disconnected(KneserError):
    """No tetrahedron chain connects the two given tetrahedra."""


class EmptySupport(KneserError):
    """Support metrics requested for an empty tetrahedron set."""


class BudgetExceeded(KneserError):
    """Enumeration refused or stopped: tetrahedron count above the configured
    budget, or intermediate rays above `vertex_enum.MAX_RAYS`."""


class InconsistentCrossings(KneserError):
    """Edge crossing counts disagree between incident tetrahedra (matching bug)."""


class EmptySurface(KneserError):
    """Operation requires a nonzero coordinate vector."""


class VertexLinkingRejected(KneserError):
    """Crushing a vertex-linking sphere is not allowed (it deletes nothing)."""


class InvalidAfterCrush(KneserError):
    """Crush output failed validation; this signals an implementation bug."""


class TerminationGuardTripped(KneserError):
    """Decomposition loop exceeded the tetrahedron-count bound (a bug)."""


class ConsistencyCheckFailed(KneserError):
    """An internal cross-check of surface or complex bookkeeping failed (a bug)."""


class CenterHit(KneserError):
    """Radial projection evaluated at its own center."""


class CenterOnSurface(KneserError):
    """Projection center lies on the surface being projected."""


class JacobianBoundExceeded(KneserError):
    """The closed-form projected area broke one of its invariants,
    0 <= area(T cap D) <= area(T) or |Omega(T cap D)| <= 2 pi (a bug)."""


class ZeroArea(KneserError):
    """Patch has zero total area; the estimates are vacuous by convention."""


class SampleBudgetExhausted(KneserError):
    """Good-center search used up its sample budget (retry with another seed)."""

    def __init__(self, samples: int):
        self.samples = samples
        super().__init__(f"no good center found within {samples} samples")


class InconsistentLabels(KneserError):
    """Face images disagree along a shared edge of the domain sphere."""
