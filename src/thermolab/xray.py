"""Ray transform of (function, 1-form) pairs along thermostat orbits.

A pair (phi, w) is integrated along boundary-to-boundary orbits of the
disk: value = int { phi(gamma) + w(gamma') } dt with gamma' the unit
base velocity.  The module provides the continuum transform with
composite Gauss-Legendre quadrature, the orbitwise primitive chi of a
source term, a boundary corrector enforcing a prescribed normal
derivative, and a discretized operator on a polar node grid for kernel
and inversion experiments: the numerical near-kernel is compared against
the gauge space of pairs (0, d psi) with psi vanishing on the boundary.

Rays are computed as fans.  `transform_fan` integrates all its rays in
one batch (`flow.integrate_to_boundary`) and doubles the quadrature
panels of all unconverged rays together; `transform_pair` is the fan of
one ray.  `assemble_discrete_operator` integrates its rays the same way,
and keeps the orbits, so that `DiscreteXRayOperator.transform` gives the
transform of a pair along the same rays without integrating them again.
The integrand phi + w(gamma') is one compiled field (`PairField.integrand`),
built and compiled once per pair and model and kept on the pair
(`PairField.clamped_integrand`); quadrature nodes are processed in blocks
of at most `CHUNK_POINTS`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import DomainError, IllConditioned, TrappedOrbit
from .expr import CHUNK_POINTS
from .fields import SMPoint, SMScalarField, _as_field
from .flow import DEFAULT_HORIZON, EXITED, OrbitBatch, integrate_orbit, \
    integrate_to_boundary
from .geometry import velocity_pairing

TWO_PI = 2.0 * np.pi

# 8-point Gauss-Legendre panel rule used by all ray quadratures: the bits
# of np.polynomial.legendre.leggauss(8), written out so that a ray
# transform does not import numpy.polynomial
_GL_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329,
    -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
    0.7966664774136267, 0.9602898564975362])
_GL_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
    0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
    0.22238103445337443, 0.10122853629037706])
# the spacing of the quadrature nodes along the rays of a ray matrix
QUAD_SPACING = 0.02
# the least ratio of neighbouring singular values that separates the
# near-kernel of a ray matrix from the rest of its spectrum
MIN_GAP = 10.0


# ---------------------------------------------------------------------------
# Pairs and rays
# ---------------------------------------------------------------------------

@dataclass
class PairField:
    """A function phi plus a 1-form (w_x, w_y) on the base disk."""

    phi: SMScalarField
    w_x: SMScalarField
    w_y: SMScalarField
    # the last clamped integrand: ((model, phi, w_x, w_y), its evaluator)
    _clamped_integrand: tuple = dc_field(default=((None,) * 4, None),
                                         init=False, repr=False,
                                         compare=False)

    @classmethod
    def from_expressions(cls, phi="0", w_x="0", w_y="0"):
        return cls(_as_field(phi), _as_field(w_x), _as_field(w_y))

    @classmethod
    def gauge(cls, psi):
        """The pair (0, d psi); in the kernel of the transform whenever
        psi vanishes on the boundary."""
        psi = _as_field(psi)
        return cls(SMScalarField.constant(0.0),
                   psi.partial("x"), psi.partial("y"))

    def __add__(self, other):
        return PairField(self.phi + other.phi, self.w_x + other.w_x,
                         self.w_y + other.w_y)

    def integrand(self, model):
        """phi + w(gamma') as one field, the base velocity gamma' being
        e^{-phi_model} (cos theta, sin theta)."""
        return self.phi + velocity_pairing(model, self.w_x, self.w_y)

    def clamped_integrand(self, model):
        """The integrand's evaluator on the model, extended by zero outside
        the closed disk.  It is built and compiled once and kept on the
        pair until the model or one of the pair's fields changes."""
        key = (model, self.phi, self.w_x, self.w_y)
        kept, values = self._clamped_integrand
        if any(a is not b for a, b in zip(kept, key)):
            values = _clamped(self.integrand(model))
            self._clamped_integrand = (key, values)
        return values


def _clamped(field):
    """The field's evaluator, extended by zero outside the closed disk."""
    def values(x, y, theta):
        return np.where(x * x + y * y <= 1.0 + 1e-12,
                        field.eval(x, y, theta), 0.0)
    return values


@dataclass
class RayRecord:
    """One boundary-to-boundary orbit with its transform value."""

    entry: SMPoint
    exit: SMPoint
    length: float
    value: float

    @property
    def entry_s(self):
        return float(np.arctan2(self.entry.y, self.entry.x) % TWO_PI)

    @property
    def entry_angle(self):
        return self.entry.theta


def _panel_rules(lo, hi, n_panels):
    """Composite 8-point Gauss-Legendre rules on intervals [lo_i, hi_i].

    Interval i has n_panels[i] panels with edges where np.linspace puts
    them.  Returns the nodes, the weights and the interval of each node,
    interval by interval.
    """
    hi = np.asarray(hi, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), hi.shape)
    n_panels = np.asarray(n_panels, dtype=int)
    which = np.repeat(np.arange(n_panels.size), n_panels)
    k = np.arange(which.size) - np.repeat(np.cumsum(n_panels) - n_panels,
                                          n_panels)
    step = ((hi - lo) / n_panels)[which]
    left = k * step + lo[which]
    right = np.where(k + 1 == n_panels[which], hi[which],
                     (k + 1) * step + lo[which])
    mid = 0.5 * (left + right)
    half = 0.5 * (right - left)
    ts = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    ws = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return ts, ws, np.repeat(which, _GL_NODES.size)


def _blocks(counts):
    """Slices of consecutive items whose counts add up to at most
    CHUNK_POINTS (or of one item, when its count alone is larger): they
    bound the memory a batch of quadrature nodes holds."""
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(ends):
        start = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + CHUNK_POINTS,
                                             side="right")))
        yield slice(lo, hi)
        lo = hi


def _integrals(states_at, values_at, lo, hi):
    """Composite Gauss-Legendre integrals of a state function over the
    intervals [lo_i, hi_i] of orbits, the panels of every interval doubled
    together until its change is below 1e-10 (or it has 4096 panels).

    states_at(i, t) gives the states (n, 3) of the orbits of intervals i
    at the times t; values_at(x, y, theta) the integrand.
    """
    hi = np.asarray(hi, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), hi.shape)
    n = np.maximum(4, np.ceil(np.abs(hi - lo) / 0.25).astype(int))
    totals = np.full(hi.size, np.nan)
    todo = np.arange(hi.size)
    while todo.size:
        total = np.empty(todo.size)
        for block in _blocks(n[todo] * _GL_NODES.size):
            part = todo[block]
            ts, ws, which = _panel_rules(lo[part], hi[part], n[part])
            s = states_at(part[which], ts)
            total[block] = np.bincount(
                which, weights=ws * values_at(s[:, 0], s[:, 1], s[:, 2]),
                minlength=part.size)
        settled = (np.abs(total - totals[todo]) < 1e-10) | (n[todo] >= 4096)
        totals[todo] = total
        n[todo] *= 2
        todo = todo[~settled]
    return totals


def _ray_values(orbits, pair, index):
    """Transform values of the pair along the exited orbits `index` of an
    OrbitBatch, each over [0, its exit time]."""
    integrand = pair.clamped_integrand(orbits.spec.model)
    return _integrals(lambda i, t: orbits.state(index[i], t), integrand,
                      0.0, orbits.end_time[index])


def transform_fan(spec, pair, entries, horizon=DEFAULT_HORIZON):
    """Ray transform of the pair along the orbit through each entry state.

    An entry may sit on the boundary pointing inward or in the interior;
    integration always runs boundary to boundary.  All rays are integrated
    together (`flow.integrate_to_boundary`): interior entries backward to
    the boundary first, then every ray forward to its exit; the quadrature
    panels of all unconverged rays are then doubled together.  Returns one
    RayRecord per entry, None for a ray trapped past the horizon in either
    direction; raises StepFailure naming the first ray whose integration
    failed.
    """
    model = spec.model
    if not model.domain.has_boundary:
        raise DomainError("the ray transform needs a disk model")
    starts = np.array([[p.x, p.y, p.theta] for p in entries],
                      dtype=float).reshape(-1, 3)
    records = [None] * len(starts)
    interior = np.flatnonzero(starts[:, 0] ** 2 + starts[:, 1] ** 2
                              < 1.0 - 1e-12)
    alive = np.ones(len(starts), dtype=bool)
    if interior.size:
        back = integrate_to_boundary(spec, starts[interior], direction=-1,
                                     horizon=horizon)
        back.require_steps("ray", interior)
        exited = back.outcome == EXITED
        starts[interior[exited]] = back.exit_state[exited]
        starts[interior[exited], 2] %= TWO_PI
        alive[interior[~exited]] = False
    rays = np.flatnonzero(alive)
    orbits = integrate_to_boundary(spec, starts[rays], horizon=horizon)
    orbits.require_steps("ray", rays)
    exited = np.flatnonzero(orbits.outcome == EXITED)
    values = _ray_values(orbits, pair, exited)
    for i, value in zip(exited, values):
        records[rays[i]] = RayRecord(
            entry=SMPoint(*starts[rays[i]]),
            exit=SMPoint(*orbits.exit_state[i]),
            length=float(orbits.end_time[i]), value=float(value))
    return records


def transform_pair(spec, pair, entry: SMPoint):
    """Ray transform of the pair along the orbit through one entry state:
    `transform_fan` for a fan of one.  Raises TrappedOrbit when either
    direction fails to exit within DEFAULT_HORIZON.
    """
    (record,) = transform_fan(spec, pair, [entry])
    if record is None:
        raise TrappedOrbit(f"orbit trapped past horizon {DEFAULT_HORIZON}",
                           horizon=DEFAULT_HORIZON)
    return record


def ray_fan(n_boundary=20, n_angles=20, margin_deg=5.0):
    """Entry states: uniform boundary points x uniform inward angles.

    The inward angle beta is measured from the inward normal and kept
    away from tangency by the margin, since near-tangential rays carry
    little information and degrade conditioning.
    """
    margin = np.deg2rad(margin_deg)
    ss = np.linspace(0.0, TWO_PI, n_boundary, endpoint=False)
    betas = np.linspace(-0.5 * np.pi + margin, 0.5 * np.pi - margin, n_angles)
    fan = []
    for s in ss:
        for b in betas:
            fan.append(SMPoint(np.cos(s), np.sin(s), s + np.pi + b))
    return fan


# ---------------------------------------------------------------------------
# The orbitwise primitive chi
# ---------------------------------------------------------------------------

def chi_field(spec, q, state: SMPoint, tail=0.0):
    """chi at a state: the integral of q over the backward orbit from the
    (backward) boundary exit up to the state.

    q is a bundle scalar, extended by zero outside the disk; chi
    vanishes identically outside and F(chi) = q inside.  `tail` extends
    the integration start beyond the exit; the clamped integrand makes
    the value independent of the choice.
    """
    q = _as_field(q)
    if state.x ** 2 + state.y ** 2 > 1.0 + 1e-12:
        return 0.0
    back = integrate_orbit(spec, state, (0.0, -DEFAULT_HORIZON),
                           stop_at_boundary=True)
    if back.exit_time is None:
        raise TrappedOrbit("backward orbit trapped", horizon=DEFAULT_HORIZON)
    t_cross = float(back.exit_time)
    t_start = t_cross - tail
    orbit, lo, hi = back, [t_cross], [0.0]
    if tail > 0.0:
        # split at the boundary crossing: the clamped integrand is only
        # piecewise smooth there
        orbit = integrate_orbit(spec, state, (0.0, t_start),
                                stop_at_boundary=False)
        lo, hi = [t_start, t_cross], [t_cross, 0.0]
    return float(np.sum(_integrals(lambda i, t: orbit.sol(t).T, _clamped(q),
                                   lo, hi)))


# ---------------------------------------------------------------------------
# Boundary corrector
# ---------------------------------------------------------------------------

def boundary_corrector(model, w_x, w_y):
    """A function psi with psi = 0 on the boundary circle and normal
    derivative (with respect to the model metric) matching the 1-form
    paired with the unit outward normal.

    psi = -(1 - x^2 - y^2) (x w_x + y w_y) / 2, whose Euclidean radial
    derivative on the rim is x w_x + y w_y = w(n).  The conformal factors
    in the metric normal and the metric distance cancel, leaving the
    Euclidean formula valid for every conformal model, so `model` is not
    read.  psi is a polynomial times w, expression-backed when w is.  It
    is not supported in a collar of the rim, as a cutoff construction
    would be; no caller or test relies on such support.
    """
    x, y = _as_field("x"), _as_field("y")
    return (x * x + y * y - 1.0) * (x * w_x + y * w_y) * 0.5


def corrected_pair(model, pair):
    """Subtract the differential of the boundary corrector from the
    1-form part, making the integrand vanish on boundary states for
    gauge pairs."""
    psi = boundary_corrector(model, pair.w_x, pair.w_y)
    return PairField(pair.phi,
                     pair.w_x - psi.partial("x"),
                     pair.w_y - psi.partial("y")), psi


# ---------------------------------------------------------------------------
# Polar node grid and interpolation
# ---------------------------------------------------------------------------

@dataclass
class PolarNodeGrid:
    """Nodes for pair discretization: one center node plus uniform rings.

    n_nodes = 1 + (n_r - 1) * n_alpha; the outermost ring lies on the
    boundary circle.  Interpolation is bilinear in (r, alpha) with
    angular periodicity; inside the first ring the angular dependence
    interpolates linearly toward the single center value.
    """

    n_r: int
    n_alpha: int

    @property
    def n_nodes(self):
        return 1 + (self.n_r - 1) * self.n_alpha

    def node_xy(self):
        xs = [0.0]
        ys = [0.0]
        radii = np.linspace(0.0, 1.0, self.n_r)
        alphas = np.linspace(0.0, TWO_PI, self.n_alpha, endpoint=False)
        for r in radii[1:]:
            xs.extend(r * np.cos(alphas))
            ys.extend(r * np.sin(alphas))
        return np.array(xs), np.array(ys)

    def interpolation(self, x, y):
        """The interpolation at the points (x, y): for each point, the
        indices (n, 4) of its nodes and their weights (n, 4).  A point
        inside the first ring has three nodes, the center and two nodes of
        ring 1; its second entry is the center again, with weight 0."""
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        r = np.minimum(np.hypot(x, y), 1.0)
        alpha = np.arctan2(y, x) % TWO_PI
        dr = 1.0 / (self.n_r - 1)
        da = TWO_PI / self.n_alpha
        i = np.minimum((r / dr).astype(int), self.n_r - 2)
        tr = r / dr - i
        j0 = (alpha / da).astype(int) % self.n_alpha
        ta = alpha / da - (alpha / da).astype(int)
        j1 = (j0 + 1) % self.n_alpha
        # the first node of ring i (ring 0 is the center) and of ring i + 1
        low = 1 + (i - 1) * self.n_alpha
        high = low + self.n_alpha
        index = np.stack([low + j0, low + j1, high + j0, high + j1], axis=1)
        weight = np.stack([(1.0 - tr) * (1.0 - ta), (1.0 - tr) * ta,
                           tr * (1.0 - ta), tr * ta], axis=1)
        # between the center node and ring 1
        inner = i == 0
        index[inner, :2] = 0
        weight[inner, 0] = 1.0 - tr[inner]
        weight[inner, 1] = 0.0
        return index, weight

    def interpolate(self, values, x, y):
        shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
        index, weight = self.interpolation(x, y)
        out = (np.asarray(values, dtype=float)[index] * weight).sum(axis=1)
        return out.reshape(shape) if shape else float(out[0])

    def discretize(self, f):
        f = _as_field(f)
        xs, ys = self.node_xy()
        return f.eval(xs, ys, np.zeros_like(xs))

    def discretize_pair(self, pair):
        return np.concatenate([self.discretize(pair.phi),
                               self.discretize(pair.w_x),
                               self.discretize(pair.w_y)])


# ---------------------------------------------------------------------------
# Discrete operator
# ---------------------------------------------------------------------------

@dataclass
class DiscreteXRayOperator:
    """Dense matrix realization of the ray transform on nodal pairs.

    Columns are [phi nodes | w_x nodes | w_y nodes]; rows are the rays
    that exited within the horizon.  n_dropped counts the rays that were
    trapped or whose integration failed.  The operator keeps the orbits it
    integrated (orbit_index[k] is the orbit of row k), so that `transform`
    can integrate pairs along its rays.
    """

    matrix: np.ndarray
    rays: list
    node_grid: PolarNodeGrid
    n_dropped: int
    orbits: OrbitBatch = dc_field(repr=False)
    orbit_index: np.ndarray = dc_field(repr=False)

    @cached_property
    def thin_svd(self):
        """(U, sigma, Vt) of the matrix, computed on first use and kept."""
        return np.linalg.svd(self.matrix, full_matrices=False)

    def apply(self, pair_vector):
        return self.matrix @ np.asarray(pair_vector, dtype=float)

    def transform(self, pair):
        """Transform values of the pair along the rows' rays, with the
        quadrature of `transform_fan`, on the orbits of the assembly."""
        return _ray_values(self.orbits, pair, self.orbit_index)


def assemble_discrete_operator(spec, node_grid, rays):
    """Build the ray matrix: each entry is a quadrature weight times an
    interpolation coefficient, with quadrature nodes QUAD_SPACING apart.
    All rays are integrated forward together
    (`flow.integrate_to_boundary`); their quadrature nodes are then taken
    in blocks of at most CHUNK_POINTS, with one `interpolation` call per
    block, and each block's rows are sums over its nodes (`np.bincount`).
    Rays trapped past DEFAULT_HORIZON and rays whose integration fails are
    dropped, with a warning that names each one and its reason; any other
    error propagates."""
    model = spec.model
    orbits = integrate_to_boundary(
        spec, np.array([[p.x, p.y, p.theta] for p in rays], dtype=float))
    dropped = [f"ray {i}: {orbits.reason(i)}"
               for i in np.flatnonzero(orbits.outcome != EXITED)]
    if dropped:
        warnings.warn(f"dropped {len(dropped)} rays during assembly: "
                      + "; ".join(dropped))
    kept = np.flatnonzero(orbits.outcome == EXITED)
    if not kept.size:
        raise TrappedOrbit("all rays trapped", horizon=DEFAULT_HORIZON)
    lengths = orbits.end_time[kept]
    n_panels = np.maximum(2, np.ceil(lengths / (8 * QUAD_SPACING)).astype(int))
    n = node_grid.n_nodes
    matrix = np.empty((kept.size, 3 * n))
    for block in _blocks(n_panels * _GL_NODES.size):
        ts, ws, which = _panel_rules(0.0, lengths[block], n_panels[block])
        sx, sy, st = orbits.state(kept[block][which], ts).T
        index, weight = node_grid.interpolation(sx, sy)
        speed = 1.0 / model.conformal_factor(sx, sy)
        # row `which` of the block adds up its quadrature nodes' weights
        # per grid node, in quadrature order
        bins = (which[:, None] * n + index).ravel()
        size = (block.stop - block.start) * n
        for k, w in enumerate((ws, ws * speed * np.cos(st),
                               ws * speed * np.sin(st))):
            matrix[block, k * n:(k + 1) * n] = np.bincount(
                bins, weights=(w[:, None] * weight).ravel(),
                minlength=size).reshape(-1, n)
    records = [RayRecord(entry=rays[i], exit=SMPoint(*orbits.exit_state[i]),
                         length=float(orbits.end_time[i]), value=0.0)
               for i in kept]
    return DiscreteXRayOperator(matrix=matrix, rays=records,
                                node_grid=node_grid, n_dropped=len(dropped),
                                orbits=orbits, orbit_index=kept)


# ---------------------------------------------------------------------------
# Gauge basis
# ---------------------------------------------------------------------------

def _bspline3(t):
    """Cardinal cubic B-spline with support (-2, 2)."""
    t = np.abs(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    near = t < 1.0
    mid = (t >= 1.0) & (t < 2.0)
    out[near] = (4.0 - 6.0 * t[near] ** 2 + 3.0 * t[near] ** 3) / 6.0
    out[mid] = (2.0 - t[mid]) ** 3 / 6.0
    return out


def _bspline3_deriv(t):
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    out = np.zeros_like(a)
    near = a < 1.0
    mid = (a >= 1.0) & (a < 2.0)
    out[near] = -2.0 * a[near] + 1.5 * a[near] ** 2
    out[mid] = -0.5 * (2.0 - a[mid]) ** 2
    return out * np.sign(t)


class GaugeBump:
    """Tensor cubic B-spline bump with analytic gradient, supported in
    the square of side 4h about its center."""

    def __init__(self, cx, cy, h):
        self.cx, self.cy, self.h = float(cx), float(cy), float(h)

    def __call__(self, x, y):
        h = self.h
        return _bspline3((np.asarray(x) - self.cx) / h) * \
            _bspline3((np.asarray(y) - self.cy) / h)

    def grad(self, x, y):
        h = self.h
        u = (np.asarray(x) - self.cx) / h
        v = (np.asarray(y) - self.cy) / h
        gx = _bspline3_deriv(u) * _bspline3(v) / h
        gy = _bspline3(u) * _bspline3_deriv(v) / h
        return gx, gy


def gauge_bumps(spacing=0.25):
    """Bump functions whose supports lie inside the disk of radius 0.98."""
    h = spacing
    k_max = int(np.floor(1.0 / spacing))
    centers = spacing * np.arange(-k_max, k_max + 1)
    bumps = []
    for cx in centers:
        for cy in centers:
            if np.hypot(abs(cx) + 2 * h, abs(cy) + 2 * h) <= 0.98:
                bumps.append(GaugeBump(cx, cy, h))
    return bumps


def gauge_basis(node_grid, spacing=0.25):
    """Discretized gauge pairs (0, d psi) for a basis of interior bumps.

    Returns (matrix with one column per bump, list of bumps)."""
    bumps = gauge_bumps(spacing)
    if not bumps:
        raise ValueError("no gauge bumps fit inside the disk at this spacing")
    xs, ys = node_grid.node_xy()
    n = node_grid.n_nodes
    cols = np.zeros((3 * n, len(bumps)))
    for k, b in enumerate(bumps):
        gx, gy = b.grad(xs, ys)
        cols[n:2 * n, k] = gx
        cols[2 * n:, k] = gy
    return cols, bumps


# ---------------------------------------------------------------------------
# Kernel analysis and reconstruction
# ---------------------------------------------------------------------------

def _largest_gap(sigma):
    """Index i maximizing sigma[i]/sigma[i+1] on the descending spectrum
    (floored at 1e-14); returns (index, ratio).  IllConditioned if the
    ratio is under MIN_GAP."""
    s = np.maximum(sigma, 1e-14)
    ratios = s[:-1] / s[1:]
    i = int(np.argmax(ratios))
    if ratios[i] < MIN_GAP:
        raise IllConditioned(
            f"singular-value gap {ratios[i]:.2f}x is below {MIN_GAP:.0f}x")
    return i, float(ratios[i])


def _orth(a):
    """An orthonormal basis of the column space of a, as scipy.linalg.orth:
    the left singular vectors above eps max(a.shape) times the largest
    singular value."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    tol = np.amax(s, initial=0.0) * np.finfo(float).eps * max(a.shape)
    return u[:, :int(np.sum(s > tol))]


def _subspace_angles(a, b):
    """Principal angles between the column spaces of the real matrices a
    and b, largest first, as scipy.linalg.subspace_angles computes them
    (Knyazev and Argentati, SIAM J. Sci. Comput. 23, 2002): an angle
    whose cosine exceeds sqrt(1/2) is read off the sines, for accuracy at
    small angles."""
    qa, qb = _orth(a), _orth(b)
    cosines = qa.T @ qb
    sigma = np.linalg.svd(cosines, compute_uv=False)
    if qa.shape[1] >= qb.shape[1]:
        rest = qb - qa @ cosines
    else:
        rest = qa - qb @ cosines.T
    small = sigma ** 2 >= 0.5
    sines = np.arcsin(np.clip(np.linalg.svd(rest, compute_uv=False),
                              -1.0, 1.0)) if small.any() else 0.0
    return np.where(small, sines, np.arccos(np.clip(sigma[::-1], -1.0, 1.0)))


def analyze_kernel(op, gauge_matrix):
    """The near-kernel geometry of the ray matrix: the largest relative
    gap in its singular values (`gap_ratio`), the dimension of the
    near-kernel below that gap (`kernel_dim`), the number of gauge columns
    (`gauge_dim`), and the principal angles between the near-kernel and
    their span (`principal_angles_deg`).  IllConditioned if the gap is
    under MIN_GAP."""
    U, sigma, Vt = op.thin_svd
    gap_index, gap_ratio = _largest_gap(sigma)
    angles = _subspace_angles(Vt[gap_index + 1:].T,
                              np.asarray(gauge_matrix, dtype=float))
    return {
        "gap_ratio": gap_ratio,
        "kernel_dim": int(sigma.size - (gap_index + 1)),
        "gauge_dim": int(np.asarray(gauge_matrix).shape[1]),
        "principal_angles_deg": np.rad2deg(angles),
    }


@dataclass
class PairEstimate:
    """Nodal reconstruction: phi values plus the 1-form components.

    The 1-form itself is gauge-ambiguous; its exterior derivative
    (curl), computed by finite differences on the interpolant, is the
    gauge-invariant part."""

    node_grid: PolarNodeGrid
    phi_values: np.ndarray
    w_x_values: np.ndarray
    w_y_values: np.ndarray

    def phi_at(self, x, y):
        return self.node_grid.interpolate(self.phi_values, x, y)

    def curl_at(self, x, y):
        """The curl dw_y/dx - dw_x/dy at (x, y), by central differences
        of step 1e-3."""
        g, h = self.node_grid, 1e-3
        dwy_dx = (g.interpolate(self.w_y_values, np.asarray(x) + h, y)
                  - g.interpolate(self.w_y_values, np.asarray(x) - h, y)) \
            / (2 * h)
        dwx_dy = (g.interpolate(self.w_x_values, x, np.asarray(y) + h)
                  - g.interpolate(self.w_x_values, x, np.asarray(y) - h)) \
            / (2 * h)
        return dwy_dx - dwx_dy


def reconstruct_pair(op, values, rank=None):
    """Minimum-norm least squares through the truncated SVD.

    The truncation rank defaults to the largest-gap index, discarding
    the gauge directions; IllConditioned when the gap is insufficient
    and no explicit rank is supplied.  ValueError for a rank outside
    [1, number of singular values]."""
    U, sigma, Vt = op.thin_svd
    if rank is None:
        rank = _largest_gap(sigma)[0] + 1
    elif not 1 <= rank <= sigma.size:
        raise ValueError(f"rank {rank} is outside [1, {sigma.size}], the "
                         "singular values of the ray matrix")
    coeffs = (U[:, :rank].T @ np.asarray(values, dtype=float)) / sigma[:rank]
    solution = Vt[:rank].T @ coeffs
    n = op.node_grid.n_nodes
    return PairEstimate(node_grid=op.node_grid,
                        phi_values=solution[:n],
                        w_x_values=solution[n:2 * n],
                        w_y_values=solution[2 * n:])

