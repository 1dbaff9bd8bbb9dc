"""Exception hierarchy shared by all thermolab modules.

Every package error derives from one of two bases, and the base decides
how `lab` ends: a `ConfigError` (the config's surface, thermostat, fields
or options were refused) exits 1, a `NumericalError` (a computation on an
accepted config failed) exits 2.  `ConfigError` is also a `ValueError`,
so a caller that catches `ValueError` for a bad argument still does.
"""


class ThermolabError(Exception):
    """Base class for all package errors."""


class ConfigError(ThermolabError, ValueError):
    """A config, or a value it sets, was refused: `lab` exits 1."""


class NumericalError(ThermolabError):
    """A computation on an accepted config failed: `lab` exits 2."""


class ValidationFailed(ConfigError):
    """A declared model violates its structure relations beyond tolerance."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or {}


class DomainError(ConfigError):
    """Point or field outside the model's domain, or non-periodic torus data."""


class StepFailure(NumericalError):
    """Adaptive ODE controller failed to take a step."""


class TrappedOrbit(NumericalError):
    """Orbit did not reach the boundary before the configured horizon."""


class BlowupInsideWindow(NumericalError):
    """Jacobi solution vanished strictly inside the requested window."""

    def __init__(self, message, times=None):
        super().__init__(message)
        self.times = times or []


class NoConvergence(NumericalError):
    """R-doubling schedule failed to converge or lost monotonicity."""


class RiccatiUnavailable(NumericalError):
    """Conjugate points block the construction of the r field."""


class IllConditioned(NumericalError):
    """Singular value spectrum lacks the required gap."""


class SolverDiverged(NumericalError):
    """Iterative least-squares solver exceeded its iteration cap."""


class ParseError(ConfigError):
    """Expression text failed to parse."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(ParseError):
    """Expression references an identifier that is not defined."""

    def __init__(self, name, offset):
        super().__init__(f"unknown identifier '{name}'", offset)
