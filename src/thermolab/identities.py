"""Liouville-measure quadrature and the energy-identity battery.

The volume form on the bundle is e^{2 phi} dx dy dtheta in isothermal
coordinates.  Interior integrals use periodic trapezoid rules (torus) or
a polar Gauss-Legendre x trapezoid tensor rule (disk).  Boundary
integrals over the unit circle use the contraction of the volume form
with the frame operators, whose densities in the (arclength s, theta)
parametrization are

    F, X:  e^phi cos(theta - s)
    H:    -e^phi sin(theta - s)
    V:     0.

The checks collected here: the pointwise quadratic differential identity
in (Fu, Hu, Vu), the three Stokes consequences of the Lie derivatives of
the volume form, the closed and boundary energy identities, and the
transport identity driven by the fan Riccati solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import DomainError
from .fields import SMPoint, _as_field
from .flow import ThermostatSpec, integrate
from .geometry import derived_curvatures, velocity_pairing
from .jacobi import exterior_fan_r

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Quadrature grids
# ---------------------------------------------------------------------------

@dataclass
class QuadratureGrid:
    """Nodes and weights implementing integration against the bundle volume.

    Interior nodes are flattened (x, y, theta) arrays with positive
    weights; boundary nodes, when present, are (s, theta) pairs on the
    unit circle with product trapezoid weights (the e^phi contraction
    density is applied by the boundary integrators, not baked in).
    """

    kind: str
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    weights: np.ndarray
    boundary_s: Optional[np.ndarray] = None
    boundary_theta: Optional[np.ndarray] = None
    boundary_weights: Optional[np.ndarray] = None

    @property
    def n_nodes(self):
        return self.x.size

    def total_measure(self):
        return float(np.sum(self.weights))


def _spec_tuple(n):
    if np.isscalar(n):
        return int(n), int(n), int(n)
    return tuple(int(k) for k in n)


def torus_quadrature(model, n=32):
    """Periodic trapezoid tensor rule on the unit-square torus bundle.

    Spectrally accurate for trigonometric data; exact (to rounding) for
    band-limited integrands resolved by the grid.
    """
    if model.domain.kind != "torus":
        raise DomainError("torus_quadrature needs a torus model")
    nx, ny, nt = _spec_tuple(n)
    xs = np.linspace(0.0, 1.0, nx, endpoint=False)
    ys = np.linspace(0.0, 1.0, ny, endpoint=False)
    ts = np.linspace(0.0, TWO_PI, nt, endpoint=False)
    X, Y, T = np.meshgrid(xs, ys, ts, indexing="ij")
    x, y, theta = X.ravel(), Y.ravel(), T.ravel()
    cell = (1.0 / nx) * (1.0 / ny) * (TWO_PI / nt)
    density = model.conformal_factor(x, y) ** 2
    return QuadratureGrid(kind="torus", x=x, y=y, theta=theta,
                          weights=cell * density)


def disk_quadrature(model, n=(16, 24, 24)):
    """Polar tensor rule on the disk bundle: Gauss-Legendre radially,
    trapezoid in the polar and fiber angles; plus a 64 x 64 boundary
    (s, theta) trapezoid grid on the unit circle."""
    if model.domain.kind != "disk":
        raise DomainError("disk_quadrature needs a disk model")
    nr, na, nt = _spec_tuple(n)
    gl_nodes, gl_w = np.polynomial.legendre.leggauss(nr)
    r = 0.5 * (gl_nodes + 1.0)
    wr = 0.5 * gl_w
    alphas = np.linspace(0.0, TWO_PI, na, endpoint=False)
    ts = np.linspace(0.0, TWO_PI, nt, endpoint=False)
    R, A, T = np.meshgrid(r, alphas, ts, indexing="ij")
    WR, _, _ = np.meshgrid(wr, alphas, ts, indexing="ij")
    x = (R * np.cos(A)).ravel()
    y = (R * np.sin(A)).ravel()
    theta = T.ravel()
    w = (WR * R).ravel() * (TWO_PI / na) * (TWO_PI / nt)
    w = w * model.conformal_factor(x, y) ** 2

    ns, ntb = 64, 64
    ss = np.linspace(0.0, TWO_PI, ns, endpoint=False)
    tbs = np.linspace(0.0, TWO_PI, ntb, endpoint=False)
    S, TB = np.meshgrid(ss, tbs, indexing="ij")
    wb = np.full(S.size, (TWO_PI / ns) * (TWO_PI / ntb))
    return QuadratureGrid(kind="disk", x=x, y=y, theta=theta, weights=w,
                          boundary_s=S.ravel(), boundary_theta=TB.ravel(),
                          boundary_weights=wb)


def quadrature_for(model, n=None):
    """Default grid for the model's domain kind."""
    if model.domain.kind == "torus":
        return torus_quadrature(model, 32 if n is None else n)
    if model.domain.kind == "disk":
        return disk_quadrature(model, (16, 24, 24) if n is None else n)
    raise DomainError(f"no default quadrature for domain {model.domain.kind!r}")


def liouville_integrate(grid, f):
    """Integral of f over the bundle against the Liouville weights."""
    f = _as_field(f)
    vals = f.eval(grid.x, grid.y, grid.theta)
    return float(np.dot(grid.weights, vals))


def boundary_contraction_values(model, which, s, theta):
    """Density of the volume form contracted with a frame operator,
    restricted to the boundary circle, in (s, theta) coordinates.

    The generator F = X + lam V shares the density of X because the
    vertical contraction vanishes on the boundary of the bundle.
    """
    s = np.asarray(s, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if which == "V":
        return np.zeros(np.broadcast_shapes(s.shape, theta.shape))
    ephi = model.conformal_factor(np.cos(s), np.sin(s))
    if which in ("F", "X"):
        return ephi * np.cos(theta - s)
    if which == "H":
        return -ephi * np.sin(theta - s)
    raise ValueError(f"unknown frame operator {which!r}")


def boundary_integrate(grid, model, factor_field, which):
    """Integral over the bundle boundary of factor * (contraction of the
    volume form with the named frame operator)."""
    if grid.boundary_s is None:
        raise DomainError("grid carries no boundary nodes")
    s, th = grid.boundary_s, grid.boundary_theta
    xb, yb = np.cos(s), np.sin(s)
    factor = _as_field(factor_field).eval(xb, yb, th)
    density = boundary_contraction_values(model, which, s, th)
    return float(np.dot(grid.boundary_weights, factor * density))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class IdentityReport:
    """Two sides of an integral identity plus a named term breakdown."""

    lhs: float
    rhs: float
    terms: dict = dc_field(default_factory=dict)

    @property
    def abs_residual(self):
        return abs(self.lhs - self.rhs)

    @property
    def rel_residual(self):
        # scale by the largest constituent integral so identities whose two
        # sides both vanish by cancellation are still judged fairly
        term_scale = max((abs(v) for v in self.terms.values()
                          if isinstance(v, (int, float))), default=0.0)
        scale = max(abs(self.lhs), abs(self.rhs), term_scale, 1e-30)
        return self.abs_residual / scale

    def as_dict(self):
        return {"lhs": self.lhs, "rhs": self.rhs,
                "abs_residual": self.abs_residual,
                "rel_residual": self.rel_residual,
                "terms": dict(self.terms)}


# ---------------------------------------------------------------------------
# Pointwise quadratic identity
# ---------------------------------------------------------------------------

def _first_order_fields(dc, model, u):
    """u and its first derivatives Fu, Hu, Vu, the generator F taken from
    the coefficient fields dc."""
    u = _as_field(u)
    return {"u": u, "Fu": dc.F.apply(u), "Hu": model.frame.H.apply(u),
            "Vu": model.frame.V.apply(u)}


def check_pestov_pointwise(model, lam, u, points):
    """Residual of the pointwise quadratic differential identity

        2 Hu V(Fu) = (Fu)^2 + (Hu)^2 - core (Vu)^2
                     + F(Hu Vu) - H(Vu Fu) + V(Hu Fu)
                     + Fu (I Hu + J Vu) + Hu Vu (lam I + V(lam))

    with core = K - H(lam) - lam J + lam^2, at the given points.
    points: (x, y, theta) arrays or a list of SMPoints.
    """
    dc = derived_curvatures(model, lam)
    g = _first_order_fields(dc, model, u)
    F, H, V = dc.F, model.frame.H, model.frame.V
    Fu, Hu, Vu = g["Fu"], g["Hu"], g["Vu"]
    lhs = 2.0 * Hu * V.apply(Fu)
    rhs = (Fu * Fu + Hu * Hu - dc.core * (Vu * Vu)
           + F.apply(Hu * Vu) - H.apply(Vu * Fu) + V.apply(Hu * Fu)
           + Fu * (model.I * Hu + model.J * Vu)
           + Hu * Vu * (dc.lamI + dc.Vlam))
    resid = lhs - rhs

    if isinstance(points, (list, tuple)) and points and \
            hasattr(points[0], "theta"):
        xs = np.array([p.x for p in points])
        ys = np.array([p.y for p in points])
        ts = np.array([p.theta for p in points])
    else:
        xs, ys, ts = (np.asarray(a, dtype=float) for a in points)
    vals = resid.eval(xs, ys, ts)
    return {"max_residual": float(np.max(np.abs(vals))),
            "rms_residual": float(np.sqrt(np.mean(vals ** 2))),
            "n_points": int(vals.size)}


# ---------------------------------------------------------------------------
# Stokes consequences on closed models
# ---------------------------------------------------------------------------

def check_lie_derivatives(model, lam, grid, f):
    """The three closed-model Stokes identities for the frame operators:

        int F(f) = -int f (lam I + V(lam)),
        int H(f) =  int f J,
        int V(f) = -int f I.
    """
    if grid.kind != "torus":
        raise DomainError("check_lie_derivatives needs a closed (torus) grid")
    f = _as_field(f)
    H, V = model.frame.H, model.frame.V
    dc = derived_curvatures(model, lam)
    F = dc.F
    div_F = dc.lamI + dc.Vlam

    reports = {}
    reports["F"] = IdentityReport(
        lhs=liouville_integrate(grid, F.apply(f)),
        rhs=-liouville_integrate(grid, f * div_F),
        terms={"divergence": "lam I + V(lam)"})
    reports["H"] = IdentityReport(
        lhs=liouville_integrate(grid, H.apply(f)),
        rhs=liouville_integrate(grid, f * model.J),
        terms={"divergence": "-J"})
    reports["V"] = IdentityReport(
        lhs=liouville_integrate(grid, V.apply(f)),
        rhs=-liouville_integrate(grid, f * model.I),
        terms={"divergence": "I"})
    return reports


# ---------------------------------------------------------------------------
# Energy identities
# ---------------------------------------------------------------------------

def _identity_integrals(model, lam, u, grid):
    """All interior integrals entering the energy identities, the first
    derivatives of u, and the coefficient fields."""
    dc = derived_curvatures(model, lam)
    g = _first_order_fields(dc, model, u)
    Fu, Hu, Vu = g["Fu"], g["Hu"], g["Vu"]
    VFu = model.frame.V.apply(Fu)
    FVu = dc.F.apply(Vu)
    Vu2 = Vu * Vu
    ints = {
        "cross": liouville_integrate(grid, 2.0 * Hu * VFu),
        "Fu_sq": liouville_integrate(grid, Fu * Fu),
        "Hu_sq": liouville_integrate(grid, Hu * Hu),
        "VFu_sq": liouville_integrate(grid, VFu * VFu),
        "FVu_sq": liouville_integrate(grid, FVu * FVu),
        "core_Vu_sq": liouville_integrate(grid, dc.core * Vu2),
        "bigK_Vu_sq": liouville_integrate(grid, dc.bigK * Vu2),
        "lamIVlam_Vu_sq": liouville_integrate(grid, dc.lamI * dc.Vlam * Vu2),
        "FVlam_Vu_sq": liouville_integrate(grid, dc.F.apply(dc.Vlam) * Vu2),
    }
    return ints, g, dc


def check_integral_identity_closed(model, lam, u, grid):
    """The closed-model energy identity and its two halves.

    'first':  int 2 Hu V(Fu) = int (Fu)^2 + int (Hu)^2 - int core (Vu)^2
    'second': int 2 Hu V(Fu) = int (V Fu)^2 - int (F Vu)^2 + int (Hu)^2
                               + int lam I V(lam) (Vu)^2
                               + int F(V(lam)) (Vu)^2
    'final':  int (F Vu)^2 - int bigK (Vu)^2 = int (V Fu)^2 - int (Fu)^2
    """
    if grid.kind != "torus":
        raise DomainError("closed identity needs a closed (torus) grid")
    ints, _, _ = _identity_integrals(model, lam, u, grid)
    first = IdentityReport(
        lhs=ints["cross"],
        rhs=ints["Fu_sq"] + ints["Hu_sq"] - ints["core_Vu_sq"],
        terms=ints)
    second = IdentityReport(
        lhs=ints["cross"],
        rhs=(ints["VFu_sq"] - ints["FVu_sq"] + ints["Hu_sq"]
             + ints["lamIVlam_Vu_sq"] + ints["FVlam_Vu_sq"]),
        terms=ints)
    final = IdentityReport(
        lhs=ints["FVu_sq"] - ints["bigK_Vu_sq"],
        rhs=ints["VFu_sq"] - ints["Fu_sq"],
        terms=ints)
    return {"first": first, "second": second, "final": final}


def check_integral_identity_boundary(model, lam, u, grid):
    """The disk energy identity including the boundary flux term:

        int (F Vu)^2 - int bigK (Vu)^2 + boundary = int (V Fu)^2 - int (Fu)^2

    with boundary = integral over the bundle boundary of

        {Hu Vu + V(lam) (Vu)^2} i_F Theta - (Fu Vu) i_H Theta.

    The report's terms record the boundary term and max |u| on the
    boundary nodes; when u vanishes there the identity reduces to its
    interior form and the boundary term must vanish too.
    """
    if grid.kind != "disk" or grid.boundary_s is None:
        raise DomainError("boundary identity needs a disk grid with "
                          "boundary nodes")
    ints, g, dc = _identity_integrals(model, lam, u, grid)
    Fu, Hu, Vu, Vlam = g["Fu"], g["Hu"], g["Vu"], dc.Vlam
    boundary = (boundary_integrate(grid, model,
                                   Hu * Vu + Vlam * (Vu * Vu), "F")
                - boundary_integrate(grid, model, Fu * Vu, "H"))
    xb, yb = np.cos(grid.boundary_s), np.sin(grid.boundary_s)
    u_boundary = g["u"].eval(xb, yb, grid.boundary_theta)
    terms = dict(ints)
    terms["boundary_term"] = boundary
    terms["u_boundary_max"] = float(np.max(np.abs(u_boundary)))
    return IdentityReport(
        lhs=ints["FVu_sq"] - ints["bigK_Vu_sq"] + boundary,
        rhs=ints["VFu_sq"] - ints["Fu_sq"],
        terms=terms)


# ---------------------------------------------------------------------------
# Transport identity with the fan Riccati solution
# ---------------------------------------------------------------------------

def transport_expansion_residual(model, lam, psi, states):
    """Pointwise check of the square-expansion step behind the transport
    identity: along the flow,

        d/dt[(r - V(lam)) psi^2] = (F psi)^2 - bigK psi^2
                                   + psi^2 V(lam)^2
                                   - psi^2 r (lam I + V(lam))
                                   + lam I V(lam) psi^2
                                   - [F(psi) - r psi + psi V(lam)]^2

    where r is the fan Riccati solution.  The left side is a central
    difference along the orbit, of step dt = 1e-3, with r recomputed at
    the flowed states; the right side is algebraic.  The orbits of all
    states are flowed by -dt and +dt in one batch, and r is computed at all
    3N states in one `exterior_fan_r` call.  Returns the max residual.
    """
    if not len(states):
        return 0.0
    spec, dt = ThermostatSpec(model, lam), 1e-3
    for p in states:
        model.domain.require(p)
    dc = spec.coefficients().curvatures
    psi_f = _as_field(psi)
    Fpsi = dc.F.apply(psi_f)
    starts = np.array([[p.x, p.y, p.theta] for p in states], dtype=float)
    n = len(starts)
    # orbit k < n flows state k by -dt, orbit n + k by +dt
    ends = np.repeat([-dt, dt], n)
    shifts = integrate(spec, np.vstack([starts, starts]), 0.0, ends)
    shifts.require_steps()
    shifted = shifts.state(np.arange(2 * n), ends)
    shifted[:, 2] %= TWO_PI
    points = np.vstack([starts, shifted])
    r0, rm, rp = np.split(exterior_fan_r(
        spec, [SMPoint(*q) for q in points]), 3)

    def at(f, block):
        q = points[block * n:(block + 1) * n]
        return f.eval(q[:, 0], q[:, 1], q[:, 2])

    gm = (rm - at(dc.Vlam, 1)) * at(psi_f, 1) ** 2
    gp = (rp - at(dc.Vlam, 2)) * at(psi_f, 2) ** 2
    lhs = (gp - gm) / (2.0 * dt)
    ps, fp, vl, li = (at(f, 0) for f in (psi_f, Fpsi, dc.Vlam, dc.lamI))
    rhs = (fp ** 2 - at(dc.bigK, 0) * ps ** 2 + ps ** 2 * vl ** 2
           - ps ** 2 * r0 * (li + vl) + li * vl * ps ** 2
           - (fp - r0 * ps + ps * vl) ** 2)
    return float(np.max(np.abs(lhs - rhs)))


def check_second_identity(model, lam, psi, grid, rng=None):
    """The transport energy identity on the disk:

        int (F psi)^2 - int bigK psi^2 = int [F(psi) - r psi + psi V(lam)]^2

    for psi vanishing on the bundle boundary, with r the fan Riccati
    solution, which each grid node launches from its own exterior fan
    (expensive).  The term breakdown includes the orbitwise expansion-step
    residual at 5 random interior states.
    """
    if grid.kind != "disk":
        raise DomainError("second identity needs a disk grid")
    spec = ThermostatSpec(model, lam)
    dc = spec.coefficients().curvatures
    psi_f = _as_field(psi)
    Fpsi = dc.F.apply(psi_f)
    r_vals = exterior_fan_r(spec, [SMPoint(x, y, t) for x, y, t in
                                   zip(grid.x, grid.y, grid.theta)])

    psi_v = psi_f.eval(grid.x, grid.y, grid.theta)
    Fpsi_v = Fpsi.eval(grid.x, grid.y, grid.theta)
    Vlam_v = dc.Vlam.eval(grid.x, grid.y, grid.theta)
    rhs_integrand = (Fpsi_v - r_vals * psi_v + psi_v * Vlam_v) ** 2
    rhs = float(np.dot(grid.weights, rhs_integrand))
    lhs = (liouville_integrate(grid, Fpsi * Fpsi)
           - liouville_integrate(grid, dc.bigK * (psi_f * psi_f)))

    terms = {
        "Fpsi_sq": liouville_integrate(grid, Fpsi * Fpsi),
        "bigK_psi_sq": liouville_integrate(grid, dc.bigK * (psi_f * psi_f)),
        "rhs_nonnegative": bool(rhs >= 0.0),
    }
    rng = np.random.default_rng(0) if rng is None else rng
    states = []
    while len(states) < 5:
        x, y = rng.uniform(-0.6, 0.6, size=2)
        if x * x + y * y < 0.4:
            states.append(SMPoint(x, y, rng.uniform(0.0, TWO_PI)))
    terms["transport_expansion_residual"] = transport_expansion_residual(
        model, spec.lam, psi_f, states)
    return IdentityReport(lhs=lhs, rhs=rhs, terms=terms)


# ---------------------------------------------------------------------------
# Fourier-type invariants for base data
# ---------------------------------------------------------------------------

def check_fourier_facts(model, grid, h, w_x, w_y):
    """Two quadrature facts for base data on a closed model:

        int (h o pi) . omega(v) dmu = 0
        int omega(v)^2 dmu = int (V omega(v))^2 dmu

    where omega(v) = e^{-phi} (w_x cos theta + w_y sin theta) is a base
    1-form paired with the unit direction.
    """
    if grid.kind != "torus":
        raise DomainError("the quadrature facts are for closed models")
    h = _as_field(h)
    omega_v = velocity_pairing(model, w_x, w_y)
    V = model.frame.V
    mixed = IdentityReport(lhs=liouville_integrate(grid, h * omega_v),
                           rhs=0.0)
    Vov = V.apply(omega_v)
    parity = IdentityReport(lhs=liouville_integrate(grid, omega_v * omega_v),
                            rhs=liouville_integrate(grid, Vov * Vov))
    return {"mixed": mixed, "parity": parity}
