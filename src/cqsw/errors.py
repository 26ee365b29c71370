"""Exception types shared across the toolkit."""


class CqswError(Exception):
    """Base class for all toolkit errors."""


class NonHermitianError(CqswError):
    pass


class NoConvergenceError(CqswError):
    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class NegativeEigenvalueError(CqswError):
    pass


class DimensionMismatchError(CqswError):
    pass


class SupportViolationError(CqswError):
    pass


class InvalidAlphaError(CqswError):
    pass


class InvalidEpsilonError(CqswError):
    pass


class InvalidMuError(CqswError):
    pass


class DomainError(CqswError):
    pass


class CapExceededError(CqswError):
    pass


class ParseError(CqswError):
    pass


class InvariantViolation(CqswError):
    def __init__(self, invariant, message=None):
        super().__init__(message or f"invariant violated: {invariant}")
        self.invariant = invariant


class RateOutOfWindowError(CqswError):
    pass


class ZeroVarianceError(CqswError):
    pass


class WTooLargeError(CqswError):
    pass


class POVMInvalidError(CqswError):
    pass
