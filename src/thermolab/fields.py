"""Scalar fields on the unit sphere bundle and first-order frame operators.

An SMScalarField wraps a vectorized evaluator over (x, y, theta) together
with a recipe for its first partial derivatives.  Every field the library
builds is expression-backed: it evaluates through a compiled
`expr.Bundle`, built on first use, and differentiates symbolically, so
nested derivatives stay analytic.  A field from a user callable
(`from_callable`) brings its own three partials; sums and products of
such fields take their partials from the sum and product rules when asked.
A field with neither an expression nor partials has no derivatives:
asking for one raises TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import ThermolabError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SMPoint:
    """A point (x, y, theta) of the sphere bundle; theta normalized to [0, 2pi)."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))

    def as_array(self):
        return np.array([self.x, self.y, self.theta])


class SMScalarField:
    """Scalar function on the bundle with evaluable first derivatives.

    The derivatives come from the expression AST when there is one, and
    otherwise from `partials`, a function var -> SMScalarField.
    """

    def __init__(self, func, expression=None, partials=None):
        self._func = func
        self.expression = expression
        self._partials = partials

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_expression(cls, expression):
        e = ex.as_expr(expression)
        bundle = ex.Bundle([e])
        return cls(lambda x, y, theta: bundle(x, y, theta)[0], expression=e)

    @classmethod
    def from_callable(cls, func, dx, dy, dtheta):
        """A field from a vectorized callable and its three partials, each
        an SMScalarField or a callable."""
        given = {"x": dx, "y": dy, "theta": dtheta}
        if any(d is None for d in given.values()):
            raise TypeError("from_callable needs all three partials")
        return cls(func, partials=lambda var: _field_of(given[var]))

    @classmethod
    def constant(cls, value):
        v = float(value)
        return cls.from_expression(ex.Const(v))

    # -- evaluation ------------------------------------------------------

    def eval(self, x, y, theta):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        theta = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape, theta.shape)
        out = np.asarray(self._func(x, y, theta), dtype=float)
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return out

    def __call__(self, p: SMPoint):
        return float(self.eval(p.x, p.y, p.theta))

    # -- derivatives -----------------------------------------------------

    def partial(self, var):
        """Return the partial derivative field with respect to x, y or theta."""
        if var not in ("x", "y", "theta"):
            raise ThermolabError(f"unknown variable {var!r}")
        if self.expression is not None:
            return SMScalarField.from_expression(self.expression.diff(var))
        if self._partials is None:
            raise TypeError("the field has neither an expression nor "
                            "partials, so it has no derivatives")
        return self._partials(var)

    # -- algebra (derivative-propagating) --------------------------------

    def _binary(self, other, combine_expr, combine_func, partial_rule):
        other = _as_field(other)
        if self.expression is not None and other.expression is not None:
            return SMScalarField.from_expression(
                combine_expr(self.expression, other.expression))
        a, b = self, other

        def func(x, y, theta):
            return combine_func(a.eval(x, y, theta), b.eval(x, y, theta))

        return SMScalarField(func, partials=lambda v: partial_rule(a, b, v))

    def __add__(self, other):
        return self._binary(other, ex.add, np.add,
                            lambda a, b, v: a.partial(v) + b.partial(v))

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, ex.sub, np.subtract,
                            lambda a, b, v: a.partial(v) - b.partial(v))

    def __rsub__(self, other):
        return _as_field(other).__sub__(self)

    def __mul__(self, other):
        return self._binary(
            other, ex.mul, np.multiply,
            lambda a, b, v: a.partial(v) * b + a * b.partial(v))

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def _field_of(obj):
    """A given partial as a field; a bare callable has no derivatives."""
    return obj if isinstance(obj, SMScalarField) else SMScalarField(obj)


def _as_field(obj):
    if isinstance(obj, SMScalarField):
        return obj
    if isinstance(obj, (int, float)):
        return SMScalarField.constant(obj)
    if isinstance(obj, (str, ex.Expr)):
        return SMScalarField.from_expression(obj)
    raise TypeError(f"cannot interpret {type(obj)!r} as SMScalarField")


def compile_fields(fields):
    """One function (x, y, theta) -> tuple of the fields' values.

    Expression-backed fields are compiled together into one straight-line
    function, which takes float64 scalars or arrays; any other field makes
    it fall back to each field's own eval.
    """
    exprs = [f.expression for f in fields]
    if all(e is not None for e in exprs):
        return ex.Bundle(exprs).kernel
    evals = [f.eval for f in fields]
    return lambda x, y, theta: tuple(e(x, y, theta) for e in evals)


@dataclass(frozen=True)
class FrameOperator:
    """First-order operator c_x d/dx + c_y d/dy + c_theta d/dtheta."""

    c_x: SMScalarField
    c_y: SMScalarField
    c_theta: SMScalarField

    @classmethod
    def from_expressions(cls, c_x, c_y, c_theta):
        return cls(_as_field(c_x), _as_field(c_y), _as_field(c_theta))

    def apply(self, f) -> SMScalarField:
        """Apply the operator to a field, returning a new field.

        Stays in the expression algebra when both the coefficients and f
        are expression-backed, so repeated application remains analytic.
        """
        f = _as_field(f)
        return (self.c_x * f.partial("x")
                + self.c_y * f.partial("y")
                + self.c_theta * f.partial("theta"))

    def __call__(self, f):
        return self.apply(f)


def commutator(a: FrameOperator, b: FrameOperator, f) -> SMScalarField:
    """[a, b] f = a(b f) - b(a f)."""
    f = _as_field(f)
    return a.apply(b.apply(f)) - b.apply(a.apply(f))
