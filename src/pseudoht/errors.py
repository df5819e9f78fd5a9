"""Exception types shared across the package."""


class PseudoHTError(Exception):
    """Base class for all package errors."""


class UnknownSignature(PseudoHTError):
    """Requested (r, s, n) is not in the shipped catalog."""


class DimensionMismatch(PseudoHTError):
    """Vector or matrix dimensions do not match the structure at hand."""


class NonPositiveScale(PseudoHTError):
    """Dilation scale must be > 0."""


class NonSPDQuadraticForm(PseudoHTError):
    """Gaussian quadratic form must be real symmetric positive definite."""


class SingularAffineMap(PseudoHTError):
    """Affine precomposition requires an invertible linear part."""


class NonPositiveArgument(PseudoHTError):
    """Argument outside the positive domain (Gamma recurrence, Y_nu at 0)."""


class ThetaZero(PseudoHTError):
    """Kernel evaluation requires theta != 0."""


class OnConeRegion(PseudoHTError):
    """Smooth-kernel representation is only valid where |P(x)| > 4|z|."""


class UnsupportedN(PseudoHTError):
    """Operation not implemented for this n or s.

    E.g. the 1/P^{n-1} route needs n >= 2, and the sphere quadrature of the
    center directions exists only for s in (1, 2, 3).
    """


class OddN(PseudoHTError):
    """Iterated-integral Heisenberg pairing is derived for even n only."""


class PolePosition(PseudoHTError):
    """Continuation parameter sits on a genuine pole."""


class NonTimelikeEta(PseudoHTError):
    """Flow averaging requires <eta,eta>_{r,s} > 0."""


class BumpOutsideK(PseudoHTError):
    """Witness bump support must stay inside {<eta,eta>_{r,s} > 0}."""


class NotConverged(RuntimeError):
    """A refined quadrature did not agree with itself by its largest order."""
