"""Exception types raised by the solver stages."""


class RootFindError(Exception):
    """Base class for every failure this package raises deliberately."""


class DegreeZero(RootFindError):
    """An operation that needs degree >= 1 got a constant polynomial."""


class ZeroPolynomial(RootFindError):
    """All coefficients vanish."""


class NonzeroConstantTerm(RootFindError):
    """The openness radius requires p(0) = 0."""


class ConvergenceFailure(RootFindError):
    """An iterative solve exhausted its budget before reaching tolerance.

    ``point`` and ``residual`` are the iterate it stopped at and its
    residual, where the solver names them (None otherwise).
    """

    def __init__(self, message, point=None, residual=None):
        super().__init__(message)
        self.point = point
        self.residual = residual


class AtTarget(RootFindError):
    """A descent step was requested at a point already on target."""


class DegenerateConstant(RootFindError):
    """All recentered coefficients b_k, k >= 1, vanish (constant function)."""


class NoConvergentRadii(RootFindError):
    """Radius selection underflowed without meeting the recipe (defensive)."""


class ContractionStall(RootFindError):
    """Observed contraction ratio exceeded 1/2; the radii recipe is violated."""


class BracketFailure(RootFindError):
    """A node bracket showed no sign change; the radius contract is broken."""


class InterleavingViolation(RootFindError):
    """Boundary nodes do not alternate Q, P, Q, P by angle."""


class StepUnderflow(RootFindError):
    """Continuation step fell below min_step (near-critical passage)."""


class MatchingInconsistency(RootFindError):
    """Arc endpoint bookkeeping failed: a lane met no partner or two, or
    the involution or separation audit failed."""


class InvalidMatching(RootFindError):
    """A matching input is not a fixed-point-free involution on [0, 2n)."""


class LocalizationFailure(RootFindError):
    """No sign-certified box could be pinned down around the crossing."""


class PipelineError(RootFindError):
    """A pipeline stage failed; carries the stage label and the cause."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause
