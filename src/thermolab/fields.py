"""Scalar fields on the unit sphere bundle and first-order frame operators.

An SMScalarField wraps a vectorized evaluator over (x, y, theta) together
with a recipe for its first partial derivatives: either analytic (via the
expression AST or user closures) or 4th-order central finite differences.
Expression-backed fields evaluate through a compiled `expr.Bundle`, built
on first use.  Fields compose: derivatives of derived fields are available
in every mode, so commutators and nested frame applications can always be
evaluated.
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

    derivative mode is 'analytic' when partials come from the expression
    AST or user-supplied closures, 'finite_difference' otherwise.
    """

    def __init__(self, func, expression=None, partials=None, fd_step=1e-4,
                 mode=None):
        self._func = func
        self.expression = expression
        self._partials = dict(partials) if partials else {}
        self.fd_step = fd_step
        if mode is None:
            mode = "analytic" if (expression is not None or partials) \
                else "finite_difference"
        self.mode = mode

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_expression(cls, expression):
        e = ex.as_expr(expression)
        bundle = ex.Bundle([e])
        return cls(lambda x, y, theta: bundle(x, y, theta)[0], expression=e,
                   mode="analytic")

    @classmethod
    def from_callable(cls, func, dx=None, dy=None, dtheta=None, fd_step=1e-4):
        partials = {}
        if dx is not None:
            partials["x"] = dx
        if dy is not None:
            partials["y"] = dy
        if dtheta is not None:
            partials["theta"] = dtheta
        mode = "analytic" if len(partials) == 3 else "finite_difference"
        return cls(func, partials=partials, fd_step=fd_step, mode=mode)

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
        if var in self._partials:
            obj = self._partials[var]
            if isinstance(obj, SMScalarField):
                return obj
            return SMScalarField(obj, fd_step=self.fd_step,
                                 mode="finite_difference")
        return self._fd_partial(var)

    def _fd_partial(self, var):
        h = self.fd_step
        f = self.eval

        if var == "x":
            def dfunc(x, y, theta):
                return (-f(x + 2 * h, y, theta) + 8 * f(x + h, y, theta)
                        - 8 * f(x - h, y, theta) + f(x - 2 * h, y, theta)) / (12 * h)
        elif var == "y":
            def dfunc(x, y, theta):
                return (-f(x, y + 2 * h, theta) + 8 * f(x, y + h, theta)
                        - 8 * f(x, y - h, theta) + f(x, y - 2 * h, theta)) / (12 * h)
        else:
            def dfunc(x, y, theta):
                return (-f(x, y, theta + 2 * h) + 8 * f(x, y, theta + h)
                        - 8 * f(x, y, theta - h) + f(x, y, theta - 2 * h)) / (12 * h)
        return SMScalarField(dfunc, fd_step=self.fd_step,
                             mode="finite_difference")

    # -- algebra (derivative-propagating) --------------------------------

    def _binary(self, other, combine_expr, combine_func, partial_rule):
        other = _as_field(other)
        if self.expression is not None and other.expression is not None:
            return SMScalarField.from_expression(
                combine_expr(self.expression, other.expression))
        a, b = self, other

        def func(x, y, theta):
            return combine_func(a.eval(x, y, theta), b.eval(x, y, theta))

        partials = {
            v: _lazy_partial(partial_rule, a, b, v) for v in ("x", "y", "theta")
        }
        return SMScalarField(func, partials=partials,
                             fd_step=min(a.fd_step, b.fd_step),
                             mode="analytic" if a.mode == b.mode == "analytic"
                             else "finite_difference")

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


def _lazy_partial(rule, a, b, v):
    def func(x, y, theta):
        return rule(a, b, v).eval(x, y, theta)
    return SMScalarField(func, mode="finite_difference")


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
