"""Surface models carrying the canonical frame (X, H, V).

The frame is realized in isothermal coordinates: for a conformal factor
exp(phi) the operators are

    X = e^-phi [ cos(theta) dx + sin(theta) dy
                 + (-phi_x sin(theta) + phi_y cos(theta)) dtheta ]
    H = e^-phi [ -sin(theta) dx + cos(theta) dy
                 - (phi_x cos(theta) + phi_y sin(theta)) dtheta ]
    V = dtheta

with structure scalars I = J = 0 and K = -e^{-2 phi} (phi_xx + phi_yy).
Synthetic models supply their own frames and scalars and are accepted
only after the commutation relations validate on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import expr as ex
from .errors import DomainError, ValidationFailed
from .fields import (FrameOperator, SMPoint, SMScalarField, _as_field,
                     commutator, compile_fields)

TWO_PI = 2.0 * np.pi
# the largest commutator residual a model may show on its validation grid
STRUCTURE_TOLERANCE = 1e-6
# the base window (x0, x1), (y0, y1) that samples plane (synthetic) models
PLANE_WINDOW = ((-0.4, 0.4), (-0.4, 0.4))


@dataclass(frozen=True)
class Domain:
    """Base domain: periodic unit square, closed unit disk, or a plane window."""

    kind: str  # 'torus' | 'disk' | 'plane'

    @property
    def has_boundary(self):
        return self.kind == "disk"

    def contains(self, x, y):
        if self.kind == "disk":
            return x * x + y * y <= 1.0 + 1e-12
        return True

    def require(self, p: SMPoint):
        if not self.contains(p.x, p.y):
            raise DomainError(f"point ({p.x}, {p.y}) outside {self.kind} domain")


TORUS = Domain("torus")
DISK = Domain("disk")


@dataclass(frozen=True)
class FrameTriple:
    X: FrameOperator
    H: FrameOperator
    V: FrameOperator


@dataclass(frozen=True)
class SurfaceModel:
    """A surface plus canonical-frame realization and structure scalars."""

    domain: Domain
    frame: FrameTriple
    I: SMScalarField
    J: SMScalarField
    K: SMScalarField
    phi: SMScalarField  # conformal exponent; the constant 0 when none is given

    def conformal_factor(self, x, y):
        """exp(phi): metric length scale."""
        return np.exp(self.phi.eval(x, y, 0.0))

    def metric_speed(self, x, y, vx, vy):
        """F(v) for a base velocity (vx, vy) at (x, y)."""
        return self.conformal_factor(x, y) * np.hypot(vx, vy)


@dataclass(frozen=True)
class DerivedCurvatures:
    """The coefficient fields of a thermostat F = X + lam V: the generator
    F (a FrameOperator), lamI = lam I, Vlam = V(lam), the core curvature
    core = K - H(lam) - lam J + lam^2, and, built on first read, the
    energy-identity curvature bigK = core + lam I V(lam) + F(V(lam)), the
    Jacobi curvature K_lambda = core + lam I V(lam) - F(lam I) and the
    hyperbolicity quantity anosovD = core + (lam I + V(lam))^2 / 4.  Only
    bigK and K_lambda take second derivatives of lam."""

    F: FrameOperator
    lamI: SMScalarField
    Vlam: SMScalarField
    core: SMScalarField

    @cached_property
    def bigK(self) -> SMScalarField:
        return self.core + self.lamI * self.Vlam + self.F.apply(self.Vlam)

    @cached_property
    def K_lambda(self) -> SMScalarField:
        return self.core + self.lamI * self.Vlam - self.F.apply(self.lamI)

    @cached_property
    def anosovD(self) -> SMScalarField:
        return self.core + (self.lamI + self.Vlam) * (self.lamI + self.Vlam) \
            * 0.25


@dataclass(frozen=True)
class SyntheticSpec:
    """User-supplied frame + scalars for non-conformal models."""

    X: FrameOperator
    H: FrameOperator
    V: FrameOperator
    I: SMScalarField
    J: SMScalarField
    K: SMScalarField
    phi: Optional[SMScalarField] = None


def _conformal_frame(phi_expr):
    """Build (X, H, V) expressions from a conformal exponent expression."""
    phi_x = phi_expr.diff("x")
    phi_y = phi_expr.diff("y")
    emphi = ex.call("exp", ex.neg(phi_expr))
    cos_t = ex.call("cos", ex.Var("theta"))
    sin_t = ex.call("sin", ex.Var("theta"))

    X = FrameOperator.from_expressions(
        emphi * cos_t,
        emphi * sin_t,
        emphi * (ex.neg(phi_x) * sin_t + phi_y * cos_t),
    )
    H = FrameOperator.from_expressions(
        ex.neg(emphi * sin_t),
        emphi * cos_t,
        ex.neg(emphi * (phi_x * cos_t + phi_y * sin_t)),
    )
    V = FrameOperator.from_expressions(ex.Const(0.0), ex.Const(0.0),
                                       ex.Const(1.0))
    return X, H, V


def _check_torus_periodic(phi_expr):
    ys = np.linspace(0.0, 1.0, 17)
    left = phi_expr.eval(np.zeros_like(ys), ys, 0.0)
    right = phi_expr.eval(np.ones_like(ys), ys, 0.0)
    bottom = phi_expr.eval(ys, np.zeros_like(ys), 0.0)
    top = phi_expr.eval(ys, np.ones_like(ys), 0.0)
    if np.max(np.abs(left - right)) > 1e-9 or \
            np.max(np.abs(bottom - top)) > 1e-9:
        raise DomainError("conformal exponent is not 1-periodic on the torus")


def build_surface_model(kind, phi=None, synthetic=None):
    """Construct a SurfaceModel of the given kind.

    kind 'conformal_torus'/'conformal_disk' takes a conformal exponent
    (expression text or AST); kind 'synthetic' takes a SyntheticSpec, on
    the window PLANE_WINDOW = [-0.4, 0.4]^2.  The frame relations are
    checked as operator identities on an 8^3 grid
    (`validate_structure_relations`); ValidationFailed, carrying the
    residual report, is raised when one exceeds STRUCTURE_TOLERANCE or is
    not a number.
    """
    if kind in ("conformal_torus", "conformal_disk"):
        phi_expr = ex.as_expr(phi if phi is not None else "0")
        if kind == "conformal_torus":
            _check_torus_periodic(phi_expr)
            domain = TORUS
        else:
            domain = DISK
        X, H, V = _conformal_frame(phi_expr)
        lap = phi_expr.diff("x").diff("x") + phi_expr.diff("y").diff("y")
        K = ex.neg(ex.call("exp", ex.Const(-2.0) * phi_expr) * lap)
        model = SurfaceModel(
            domain=domain, frame=FrameTriple(X, H, V),
            I=SMScalarField.constant(0.0), J=SMScalarField.constant(0.0),
            K=SMScalarField.from_expression(K),
            phi=SMScalarField.from_expression(phi_expr))
    elif kind == "synthetic":
        if synthetic is None:
            raise ValueError("synthetic kind needs a SyntheticSpec")
        domain = Domain("plane")
        model = SurfaceModel(
            domain=domain,
            frame=FrameTriple(synthetic.X, synthetic.H, synthetic.V),
            I=_as_field(synthetic.I), J=_as_field(synthetic.J),
            K=_as_field(synthetic.K),
            phi=_as_field(0.0 if synthetic.phi is None else synthetic.phi))
    else:
        raise ValueError(f"unknown surface kind {kind!r}")

    report = validate_structure_relations(model)
    worst = float(np.max([r["max"] for r in report.values()]))
    if not worst <= STRUCTURE_TOLERANCE:
        raise ValidationFailed(
            f"commutator residual {worst:.3e} is not within tolerance "
            f"{STRUCTURE_TOLERANCE:.1e}", residuals=report)
    return model


def constant_curvature_model(K):
    """Synthetic model with constant curvature K (and I = J = 0).

    Uses the isothermal exponents phi = -log cos(k y) for K = -k^2 and
    phi = -log cosh(k y) for K = +k^2, valid on a band around y = 0.
    """
    K = float(K)
    if K == 0.0:
        phi_expr = ex.Const(0.0)
    elif K < 0.0:
        k = np.sqrt(-K)
        phi_expr = ex.neg(ex.call("log", ex.call(
            "cos", ex.Const(k) * ex.Var("y"))))
    else:
        # cosh is not in the expression vocabulary; use (e^ky + e^-ky)/2
        k = np.sqrt(K)
        ky = ex.Const(k) * ex.Var("y")
        cosh = (ex.call("exp", ky) + ex.call("exp", ex.neg(ky))) * ex.Const(0.5)
        phi_expr = ex.neg(ex.call("log", cosh))
    X, H, V = _conformal_frame(phi_expr)
    spec = SyntheticSpec(
        X=X, H=H, V=V,
        I=SMScalarField.constant(0.0), J=SMScalarField.constant(0.0),
        K=SMScalarField.constant(K),
        phi=SMScalarField.from_expression(phi_expr))
    return build_surface_model("synthetic", synthetic=spec)


def flat_torus():
    return build_surface_model("conformal_torus", "0")


def euclidean_disk():
    return build_surface_model("conformal_disk", "0")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def thermostat_generator(model, lam):
    """The generator F = X + lam V as a FrameOperator."""
    return model.frame.X + _as_field(lam) * model.frame.V


def velocity_pairing(model, w_x, w_y):
    """The base 1-form (w_x, w_y) paired with the unit base velocity
    e^{-phi} (cos theta, sin theta): a field of fiber degree +-1.
    """
    emphi = _as_field(ex.call("exp", ex.neg(model.phi.expression)))
    cos_t = ex.call("cos", ex.Var("theta"))
    sin_t = ex.call("sin", ex.Var("theta"))
    return emphi * (_as_field(w_x) * cos_t + _as_field(w_y) * sin_t)


def _grid_axes(model, grid_spec):
    """The three axes of the validation grid of the given sizes: x, y on
    the torus and the plane window, radius and polar angle on the disk
    (strictly inside, to keep FD stencils inside), then the fiber angle."""
    nx, ny, nt = grid_spec
    if model.domain.kind == "torus":
        xs = np.linspace(0.0, 1.0, nx, endpoint=False)
        ys = np.linspace(0.0, 1.0, ny, endpoint=False)
    elif model.domain.kind == "disk":
        xs = np.linspace(0.1, 0.9, nx)
        ys = np.linspace(0.0, TWO_PI, ny, endpoint=False)
    else:
        (x0, x1), (y0, y1) = PLANE_WINDOW
        xs = np.linspace(x0, x1, nx)
        ys = np.linspace(y0, y1, ny)
    return xs, ys, np.linspace(0.0, TWO_PI, nt, endpoint=False)


def runs_of(values, lo, hi, stride):
    """values[(i // stride) % len(values)] for lo <= i < hi, gathered as
    runs of stride equal entries: a grid axis along C-order flat indices."""
    first, last = lo // stride, (hi - 1) // stride
    counts = np.full(last - first + 1, stride)
    counts[0] -= lo - first * stride
    counts[-1] -= (last + 1) * stride - hi
    return np.repeat(values[np.arange(first, last + 1) % len(values)], counts)


def grid_blocks(model, grid_spec, axes=None, block=ex.CHUNK_POINTS):
    """The nodes of a tensor grid over the bundle, in C order over its
    three axes, as (start, (x, y, theta)) for runs of at most block nodes:
    start is the flat index of the run's first node.

    axes are the grid's three 1-D axes, by default those of the validation
    grid of sizes grid_spec; on the disk the first two are a radius r and
    a polar angle a, and a node lies at (r cos a, r sin a).  A probe that
    folds a maximum or a sum over the blocks holds O(block) values,
    whatever the grid's size.
    """
    if axes is None:
        axes = _grid_axes(model, grid_spec)
    _, n1, n2 = shape = tuple(len(a) for a in axes)
    size = math.prod(shape)
    for lo in range(0, size, block):
        hi = min(lo + block, size)
        u = runs_of(axes[0], lo, hi, n1 * n2)
        v = runs_of(axes[1], lo, hi, n2)
        theta = axes[2][np.arange(lo, hi) % n2]
        if model.domain.kind == "disk":
            u, v = u * np.cos(v), u * np.sin(v)
        yield lo, (u, v, theta)


def validation_grid_points(model, grid_spec):
    """The nodes of the validation grid of sizes grid_spec as flat
    (x, y, theta) arrays in C order: the one-block case of `grid_blocks`.
    Only a probe whose unknowns are the grid itself needs them whole."""
    size = math.prod(grid_spec)
    ((_, points),) = grid_blocks(model, grid_spec, block=size)
    return points


def validate_structure_relations(model, grid_spec=(8, 8, 8), lam=None):
    """Max/RMS residuals of the frame commutation relations on a grid.

    Each relation is one first-order operator, such as [V, X] - H, that
    vanishes exactly when the relation holds (`fields.commutator`); its
    max and rms are taken over the operator's three coefficient fields on
    the grid, and a NaN value makes its max NaN.  When lam is given, the
    three thermostat relations for F = X + lam V are checked as well.  All
    coefficient fields are compiled together and evaluated block by block
    over the grid (`grid_blocks`); each block adds to a running max and sum
    of squares per relation, so the rms of a grid of several blocks is
    summed per block.
    """
    X, H, V = model.frame.X, model.frame.H, model.frame.V
    I, J, K = model.I, model.J, model.K
    relations = {
        "[V,X]-H": commutator(V, X) - H,
        "[H,V]-X-IH-JV": commutator(H, V) - X - I * H - J * V,
        "[X,H]-KV": commutator(X, H) - K * V,
    }
    if lam is not None:
        lam = _as_field(lam)
        dc = derived_curvatures(model, lam)
        F, Vlam, core = dc.F, dc.Vlam, dc.core
        relations["[V,F]-H-V(lam)V"] = commutator(V, F) - H - Vlam * V
        relations["[H,V]-F-IH-(J-lam)V"] = (commutator(H, V) - F - I * H
                                            - (J - lam) * V)
        relations["[F,H]-coreV+lamF+lamIH"] = (
            commutator(F, H) - core * V + lam * F + lam * I * H)
    bundle = compile_fields([c for op in relations.values()
                             for c in op.coefficients])
    worst_max = dict.fromkeys(relations, 0.0)
    sq_sum = dict.fromkeys(relations, 0.0)
    for _, points in grid_blocks(model, grid_spec):
        # a NaN field is reported as a NaN relation, not warned about
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            values = iter(bundle(*points))
        for name, op in relations.items():
            for _ in op.coefficients:
                vals = next(values)
                worst_max[name] = float(np.maximum(worst_max[name],
                                                   np.max(np.abs(vals))))
                sq_sum[name] += float(np.sum(vals ** 2))
    count = 3 * math.prod(grid_spec)
    return {name: {"max": worst_max[name],
                   "rms": float(np.sqrt(sq_sum[name] / count))}
            for name in relations}


def derived_curvatures(model, lam) -> DerivedCurvatures:
    """The coefficient fields of the thermostat F = X + lam V: the one
    place where they are derived.  A spec keeps one set
    (`ThermostatSpec.coefficients()`)."""
    lam = _as_field(lam)
    F = thermostat_generator(model, lam)
    Vlam = model.frame.V.apply(lam)
    lamI = lam * model.I
    core = model.K - model.frame.H.apply(lam) - lam * model.J + lam * lam
    return DerivedCurvatures(F=F, lamI=lamI, Vlam=Vlam, core=core)

