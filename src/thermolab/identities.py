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

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DomainError
from .expr import CHUNK_POINTS
from .fields import SMPoint, _as_field, compile_fields, require_finite, \
    sample_finite
from .flow import ThermostatSpec, integrate
from .geometry import SurfaceModel, _grid_axes, derived_curvatures, \
    grid_blocks, runs_of, velocity_pairing
from .jacobi import exterior_fan_r

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Quadrature grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights implementing integration against the bundle volume.

    The interior nodes form a tensor grid over three axes (x, y and the
    fiber angle on the torus; a radius, a polar angle and the fiber angle
    on the disk), ordered as `geometry.grid_blocks` orders them.  A node's
    weight is the cell weight of its first-axis index times e^{2 phi} at
    the node.  `blocks()` yields nodes and weights for runs of at most
    CHUNK_POINTS nodes, so a quadrature holds O(CHUNK_POINTS) values on any
    grid; `x`, `y`, `theta` and `weights` give them as whole arrays, built
    on first read.  Boundary nodes, when present, are (s, theta) pairs on
    the unit circle with product trapezoid weights (the e^phi contraction
    density is applied by the boundary integrators, not baked in).
    """

    kind: str
    model: SurfaceModel = dc_field(repr=False)
    axes: tuple = dc_field(repr=False)
    cell_weights: np.ndarray = dc_field(repr=False)
    boundary_s: Optional[np.ndarray] = None
    boundary_theta: Optional[np.ndarray] = None
    boundary_weights: Optional[np.ndarray] = None

    @property
    def shape(self):
        return tuple(len(a) for a in self.axes)

    @property
    def n_nodes(self):
        return math.prod(self.shape)

    def blocks(self, block=CHUNK_POINTS):
        """(start, (x, y, theta), weights) for runs of at most block nodes,
        in C order; start is the flat index of the run's first node."""
        _, n1, n2 = self.shape
        for lo, points in grid_blocks(self.model, self.shape, self.axes,
                                      block):
            cells = runs_of(self.cell_weights, lo, lo + points[0].size,
                            n1 * n2)
            density = self.model.conformal_factor(points[0], points[1]) ** 2
            yield lo, points, cells * density

    @cached_property
    def _whole(self):
        """The nodes and weights of the one block of the whole grid."""
        ((_, points, weights),) = self.blocks(self.n_nodes)
        return (*points, weights)

    @property
    def x(self):
        return self._whole[0]

    @property
    def y(self):
        return self._whole[1]

    @property
    def theta(self):
        return self._whole[2]

    @property
    def weights(self):
        return self._whole[3]

    def total_measure(self):
        return sum(float(np.sum(w)) for _, _, w in self.blocks())


def _spec_tuple(n):
    if np.isscalar(n):
        return int(n), int(n), int(n)
    return tuple(int(k) for k in n)


def torus_quadrature(model, n=32):
    """Periodic trapezoid tensor rule on the unit-square torus bundle, on
    the nodes of the validation grid.

    Spectrally accurate for trigonometric data; exact (to rounding) for
    band-limited integrands resolved by the grid.
    """
    if model.domain.kind != "torus":
        raise DomainError("torus_quadrature needs a torus model")
    nx, ny, nt = _spec_tuple(n)
    cell = (1.0 / nx) * (1.0 / ny) * (TWO_PI / nt)
    return QuadratureGrid(kind="torus", model=model,
                          axes=_grid_axes(model, (nx, ny, nt)),
                          cell_weights=np.full(nx, cell))


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

    ns, ntb = 64, 64
    ss = np.linspace(0.0, TWO_PI, ns, endpoint=False)
    tbs = np.linspace(0.0, TWO_PI, ntb, endpoint=False)
    S, TB = np.meshgrid(ss, tbs, indexing="ij")
    wb = np.full(S.size, (TWO_PI / ns) * (TWO_PI / ntb))
    return QuadratureGrid(kind="disk", model=model, axes=(r, alphas, ts),
                          cell_weights=wr * r * (TWO_PI / na) * (TWO_PI / nt),
                          boundary_s=S.ravel(), boundary_theta=TB.ravel(),
                          boundary_weights=wb)


def quadrature_for(model, n):
    """The quadrature grid of sizes n on the model's domain; n = None
    gives 32 on the torus and (16, 24, 24) on the disk."""
    if model.domain.kind == "torus":
        return torus_quadrature(model, 32 if n is None else n)
    if model.domain.kind == "disk":
        return disk_quadrature(model, (16, 24, 24) if n is None else n)
    raise DomainError(f"no default quadrature for domain {model.domain.kind!r}")


def liouville_integrate(grid, named_fields):
    """Integrals of the fields, given as {name: field}, over the bundle
    against the Liouville weights, as a list of floats in the given order.

    The fields are compiled together and their kernel runs over the
    grid's blocks (`QuadratureGrid.blocks`) under one np.errstate; each
    block adds its weighted sum to each integral, so neither an integrand
    nor a node or weight is ever held on the whole grid.  DomainError
    (`fields.require_finite`) names the first integrand that is not finite
    at a node of a block, and the first such node.
    """
    kernel = compile_fields(named_fields.values()).kernel
    labels = [f"integrand {name}" for name in named_fields]
    sums = [0.0] * len(named_fields)
    for lo, points, w in grid.blocks():
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            values = kernel(*points)
        require_finite(labels, values, points, (grid.n_nodes,), start=lo)
        for i, v in enumerate(values):
            # a constant integrand comes back as a scalar
            if np.shape(v) != w.shape:
                v = np.full(w.shape, v)
            sums[i] += float(np.dot(w, v))
    return sums


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


def boundary_integrate(grid, model, terms):
    """Integrals over the bundle boundary of factor * (contraction of the
    volume form with the named frame operator), one per (factor, name)
    pair of terms, as a list of floats.  The factors are compiled and
    evaluated together (`fields.sample_finite`): DomainError names the
    first factor that is not finite at a boundary node, and the node."""
    if grid.boundary_s is None:
        raise DomainError("grid carries no boundary nodes")
    s, th = grid.boundary_s, grid.boundary_theta
    factors = sample_finite(
        {f"boundary factor {i} (of i_{which} Theta)": f
         for i, (f, which) in enumerate(terms)},
        np.cos(s), np.sin(s), th, s.shape)
    return [float(np.dot(grid.boundary_weights,
                         factor * boundary_contraction_values(
                             model, which, s, th)))
            for factor, (_, which) in zip(factors, terms)]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class IdentityReport:
    """Two sides of an integral identity, the named integrals they are
    made of, and named diagnostics that are not integrals (flags, labels,
    pointwise residuals)."""

    lhs: float
    rhs: float
    integrals: dict = dc_field(default_factory=dict)
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def terms(self):
        """The integrals, then the diagnostics, in one breakdown."""
        return {**self.integrals, **self.diagnostics}

    @property
    def abs_residual(self):
        return abs(self.lhs - self.rhs)

    @property
    def rel_residual(self):
        # scale by the largest constituent integral so identities whose two
        # sides both vanish by cancellation are still judged fairly
        term_scale = max(map(abs, self.integrals.values()), default=0.0)
        scale = max(abs(self.lhs), abs(self.rhs), term_scale, 1e-30)
        return self.abs_residual / scale

    def as_dict(self):
        return {"lhs": self.lhs, "rhs": self.rhs,
                "abs_residual": self.abs_residual,
                "rel_residual": self.rel_residual,
                "terms": self.terms}


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
    points: the (x, y, theta) arrays of the points.  DomainError
    (`fields.sample_finite`) names the first point where the residual is
    not finite: no maximum or mean can be read off such a sample.
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
    (vals,) = sample_finite({"residual of the pointwise identity":
                             lhs - rhs}, *points, np.shape(points[0]))
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

    Ff, f_div_F, Hf, fJ, Vf, fI = liouville_integrate(grid, {
        "F(f)": F.apply(f), "f (lam I + V(lam))": f * div_F,
        "H(f)": H.apply(f), "f J": f * model.J, "V(f)": V.apply(f),
        "f I": f * model.I})
    return {"F": IdentityReport(
                lhs=Ff, rhs=-f_div_F,
                diagnostics={"divergence": "lam I + V(lam)"}),
            "H": IdentityReport(lhs=Hf, rhs=fJ,
                                diagnostics={"divergence": "-J"}),
            "V": IdentityReport(lhs=Vf, rhs=-fI,
                                diagnostics={"divergence": "I"})}


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
    integrands = {
        "cross": 2.0 * Hu * VFu,
        "Fu_sq": Fu * Fu,
        "Hu_sq": Hu * Hu,
        "VFu_sq": VFu * VFu,
        "FVu_sq": FVu * FVu,
        "core_Vu_sq": dc.core * Vu2,
        "bigK_Vu_sq": dc.bigK * Vu2,
        "lamIVlam_Vu_sq": dc.lamI * dc.Vlam * Vu2,
        "FVlam_Vu_sq": dc.F.apply(dc.Vlam) * Vu2,
    }
    ints = dict(zip(integrands, liouville_integrate(grid, integrands)))
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
        integrals=ints)
    second = IdentityReport(
        lhs=ints["cross"],
        rhs=(ints["VFu_sq"] - ints["FVu_sq"] + ints["Hu_sq"]
             + ints["lamIVlam_Vu_sq"] + ints["FVlam_Vu_sq"]),
        integrals=ints)
    final = IdentityReport(
        lhs=ints["FVu_sq"] - ints["bigK_Vu_sq"],
        rhs=ints["VFu_sq"] - ints["Fu_sq"],
        integrals=ints)
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
    flux_F, flux_H = boundary_integrate(
        grid, model, [(Hu * Vu + Vlam * (Vu * Vu), "F"), (Fu * Vu, "H")])
    boundary = flux_F - flux_H
    xb, yb = np.cos(grid.boundary_s), np.sin(grid.boundary_s)
    u_boundary = g["u"].eval(xb, yb, grid.boundary_theta)
    return IdentityReport(
        lhs=ints["FVu_sq"] - ints["bigK_Vu_sq"] + boundary,
        rhs=ints["VFu_sq"] - ints["Fu_sq"],
        integrals={**ints, "boundary_term": boundary},
        diagnostics={"u_boundary_max": float(np.max(np.abs(u_boundary)))})


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
    starts = np.asarray(states, dtype=float).reshape(-1, 3)
    n = len(starts)
    # orbit k < n flows state k by -dt, orbit n + k by +dt
    ends = np.repeat([-dt, dt], n)
    shifts = integrate(spec, np.vstack([starts, starts]), 0.0, ends)
    shifts.require_steps()
    shifted = shifts.state(np.arange(2 * n), ends)
    shifted[:, 2] %= TWO_PI
    points = np.vstack([starts, shifted])
    r0, rm, rp = np.split(exterior_fan_r(spec, points), 3)
    # each field at the N states, then at their -dt and +dt shifts
    psi_v, Vlam_v, Fpsi_v, lamI_v, bigK_v = (
        np.split(v, 3) for v in compile_fields(
            (psi_f, dc.Vlam, Fpsi, dc.lamI, dc.bigK))(*points.T))

    gm = (rm - Vlam_v[1]) * psi_v[1] ** 2
    gp = (rp - Vlam_v[2]) * psi_v[2] ** 2
    lhs = (gp - gm) / (2.0 * dt)
    ps, fp, vl, li, bk = (v[0] for v in (psi_v, Fpsi_v, Vlam_v, lamI_v,
                                         bigK_v))
    rhs = (fp ** 2 - bk * ps ** 2 + ps ** 2 * vl ** 2
           - ps ** 2 * r0 * (li + vl) + li * vl * ps ** 2
           - (fp - r0 * ps + ps * vl) ** 2)
    return float(np.max(np.abs(lhs - rhs)))


def check_second_identity(model, lam, psi, grid):
    """The transport energy identity on the disk:

        int (F psi)^2 - int bigK psi^2 = int [F(psi) - r psi + psi V(lam)]^2

    for psi vanishing on the bundle boundary, with r the fan Riccati
    solution, which each grid node launches from its own exterior fan
    (expensive).  Its five fields are read through `fields.sample_finite`
    before any fan is integrated.  The term breakdown includes the
    orbitwise expansion-step residual at 5 interior states drawn by
    np.random.default_rng(0).
    """
    if grid.kind != "disk":
        raise DomainError("second identity needs a disk grid")
    spec = ThermostatSpec(model, lam)
    dc = spec.coefficients().curvatures
    psi_f = _as_field(psi)
    Fpsi = dc.F.apply(psi_f)
    psi_v, Fpsi_v, Vlam_v, Fpsi_sq_v, bigK_psi_sq_v = sample_finite(
        {"psi": psi_f, "F(psi)": Fpsi, "V(lam)": dc.Vlam,
         "F(psi)^2": Fpsi * Fpsi, "bigK psi^2": dc.bigK * (psi_f * psi_f)},
        grid.x, grid.y, grid.theta, grid.shape)
    r_vals = exterior_fan_r(spec, np.column_stack([grid.x, grid.y,
                                                   grid.theta]))
    rhs_integrand = (Fpsi_v - r_vals * psi_v + psi_v * Vlam_v) ** 2
    rhs = float(np.dot(grid.weights, rhs_integrand))
    integrals = {"Fpsi_sq": float(np.dot(grid.weights, Fpsi_sq_v)),
                 "bigK_psi_sq": float(np.dot(grid.weights, bigK_psi_sq_v))}
    lhs = integrals["Fpsi_sq"] - integrals["bigK_psi_sq"]

    diagnostics = {"rhs_nonnegative": bool(rhs >= 0.0)}
    rng = np.random.default_rng(0)
    states = []
    while len(states) < 5:
        x, y = rng.uniform(-0.6, 0.6, size=2)
        if x * x + y * y < 0.4:
            states.append(SMPoint(x, y, rng.uniform(0.0, TWO_PI)))
    diagnostics["transport_expansion_residual"] = \
        transport_expansion_residual(model, spec.lam, psi_f, states)
    return IdentityReport(lhs=lhs, rhs=rhs, integrals=integrals,
                          diagnostics=diagnostics)


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
    Vov = V.apply(omega_v)
    mixed, sq, V_sq = liouville_integrate(grid, {
        "h omega(v)": h * omega_v, "omega(v)^2": omega_v * omega_v,
        "(V omega(v))^2": Vov * Vov})
    return {"mixed": IdentityReport(lhs=mixed, rhs=0.0),
            "parity": IdentityReport(lhs=sq, rhs=V_sq)}
