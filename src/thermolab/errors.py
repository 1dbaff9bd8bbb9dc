"""Exception hierarchy shared by all thermolab modules."""


class ThermolabError(Exception):
    """Base class for all package errors."""


class ValidationFailed(ThermolabError):
    """A declared model violates its structure relations beyond tolerance."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or {}


class DomainError(ThermolabError):
    """Point or field outside the model's domain, or non-periodic torus data."""


class StepFailure(ThermolabError):
    """Adaptive ODE controller failed to take a step."""


class TrappedOrbit(ThermolabError):
    """Orbit did not reach the boundary before the configured horizon."""


class BlowupInsideWindow(ThermolabError):
    """Jacobi solution vanished strictly inside the requested window."""

    def __init__(self, message, times=None):
        super().__init__(message)
        self.times = times or []


class NoConvergence(ThermolabError):
    """R-doubling schedule failed to converge or lost monotonicity."""


class RiccatiUnavailable(ThermolabError):
    """Conjugate points block the construction of the r field."""


class IllConditioned(ThermolabError):
    """Singular value spectrum lacks the required gap."""


class SolverDiverged(ThermolabError):
    """Iterative least-squares solver exceeded its iteration cap."""


class ParseError(ThermolabError):
    """Expression text failed to parse."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(ParseError):
    """Expression references an identifier that is not defined."""

    def __init__(self, name, offset):
        super().__init__(f"unknown identifier '{name}'", offset)
