"""Scalar fields on the unit sphere bundle and first-order frame operators.

An SMScalarField is one expression over (x, y, theta).  It evaluates
through a compiled `expr.Bundle`, built on first use, and differentiates
symbolically, so nested derivatives stay analytic.  A probe that needs
several fields at the same points compiles them together with
`compile_fields`, so that each subexpression they share is computed once
per point; `sample_finite` does so and refuses a sample on which a field
is not finite.

FrameOperators add, subtract and scale by fields, and the commutator of
two is again one, so an identity between first-order operators holds
exactly when three coefficient fields vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import DomainError, ThermolabError

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
    """Scalar function on the bundle with derivatives of every order."""

    def __init__(self, expression):
        self.expression = expression
        self._bundle = ex.Bundle([expression])

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_expression(cls, expression):
        return cls(ex.as_expr(expression))

    @classmethod
    def constant(cls, value):
        v = float(value)
        return cls.from_expression(ex.Const(v))

    # -- evaluation ------------------------------------------------------

    def eval(self, x, y, theta):
        """Values at broadcastable inputs: a float64 array of their common
        shape (0-d for scalar inputs)."""
        return self._bundle(x, y, theta)[0]

    # -- derivatives -----------------------------------------------------

    def partial(self, var):
        """The partial derivative field with respect to x, y or theta."""
        if var not in ("x", "y", "theta"):
            raise ThermolabError(f"unknown variable {var!r}")
        return SMScalarField(self.expression.diff(var))

    # -- algebra ---------------------------------------------------------

    def __add__(self, other):
        return SMScalarField(ex.add(self.expression,
                                   _as_field(other).expression))

    __radd__ = __add__

    def __sub__(self, other):
        return SMScalarField(ex.sub(self.expression,
                                   _as_field(other).expression))

    def __rsub__(self, other):
        return _as_field(other).__sub__(self)

    def __mul__(self, other):
        if isinstance(other, FrameOperator):
            return NotImplemented            # a field times an operator
        return SMScalarField(ex.mul(self.expression,
                                   _as_field(other).expression))

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def _as_field(obj):
    if isinstance(obj, SMScalarField):
        return obj
    if isinstance(obj, (int, float)):
        return SMScalarField.constant(obj)
    if isinstance(obj, (str, ex.Expr)):
        return SMScalarField.from_expression(obj)
    raise TypeError(f"cannot interpret {type(obj)!r} as SMScalarField")


def compile_fields(fields):
    """The fields as one `expr.Bundle`: calling it gives the tuple of their
    values on a grid, evaluated in blocks.  Its one straight-line program
    is bound to numpy ufuncs as `kernel`, for float64 scalars or blocks,
    and to Python floats as `scalar`, for one point with the same bits."""
    return ex.Bundle([f.expression for f in fields])


def state_split(bundle):
    """split(s) -> (rows, at): the rows of a state s, whose first three are
    (x, y, theta), and the binding of bundle to evaluate at them.  One
    state gives Python numbers and the float binding `scalar`, so that
    arithmetic on the rows and the values runs on floats too: a list (the
    one-orbit step's states) as it is, a 1-D array as its floats.  A
    (d, N) block of states gives its float64 rows and the numpy `kernel`.
    Both give the same bits."""
    kernel, scalar = bundle.kernel, bundle.scalar

    def split(s):
        if type(s) is list:
            return s, scalar
        s = np.asarray(s, dtype=float)
        if s.ndim == 1:
            return s.tolist(), scalar
        return s, kernel
    return split


def sample_finite(named_fields, x, y, theta, shape):
    """The fields' values at the nodes (x, y, theta) of a grid of the
    given shape, evaluated through one compiled bundle under one
    np.errstate.  DomainError (`require_finite`) names the first field, in
    the given order, that is not finite at a node, and the first such
    node: nothing can be read off such a sample."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        values = compile_fields(named_fields.values())(x, y, theta)
    require_finite(named_fields, values, (x, y, theta), shape)
    return values


def require_finite(names, values, points, shape, start=0):
    """Raise DomainError naming the first of the names whose values are
    not finite at a node, and the first such node: its index on a grid of
    the given shape and its (x, y, theta).  points holds the C-ordered
    nodes of the grid from flat index start on; a value may be a scalar,
    the value of a constant field at every node."""
    for name, vals in zip(names, values):
        bad = ~np.isfinite(vals)
        if bad.any():
            k = int(np.argmax(bad))
            node = tuple(int(i) for i in np.unravel_index(start + k, shape))
            x_k, y_k, th_k = (float(np.ravel(v)[k]) for v in points)
            raise DomainError(
                f"{name} is {np.ravel(vals)[k]} at grid node {node} of "
                f"{tuple(shape)}: (x, y, theta) = ({x_k:.17g}, "
                f"{y_k:.17g}, {th_k:.17g})")


@dataclass(frozen=True)
class FrameOperator:
    """First-order operator c_x d/dx + c_y d/dy + c_theta d/dtheta."""

    c_x: SMScalarField
    c_y: SMScalarField
    c_theta: SMScalarField

    @classmethod
    def from_expressions(cls, c_x, c_y, c_theta):
        return cls(_as_field(c_x), _as_field(c_y), _as_field(c_theta))

    @property
    def coefficients(self):
        return (self.c_x, self.c_y, self.c_theta)

    def apply(self, f) -> SMScalarField:
        """Apply the operator to a field, returning a new field.

        Stays in the expression algebra, so repeated application remains
        analytic.
        """
        f = _as_field(f)
        return (self.c_x * f.partial("x")
                + self.c_y * f.partial("y")
                + self.c_theta * f.partial("theta"))

    def __call__(self, f):
        return self.apply(f)

    def __add__(self, other):
        return FrameOperator(*(a + b for a, b in
                               zip(self.coefficients, other.coefficients)))

    def __sub__(self, other):
        return FrameOperator(*(a - b for a, b in
                               zip(self.coefficients, other.coefficients)))

    def __rmul__(self, c):
        """The operator c A for a field or number c."""
        return FrameOperator(*(c * a for a in self.coefficients))


def commutator(a: FrameOperator, b: FrameOperator) -> FrameOperator:
    """The operator [a, b] = ab - ba: first order, with the coefficients
    a(b_i) - b(a_i), so only first partials of the coefficients enter."""
    return FrameOperator(*(a.apply(b_i) - b.apply(a_i) for a_i, b_i in
                           zip(a.coefficients, b.coefficients)))
