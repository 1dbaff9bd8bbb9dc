"""Thermostat flow integration on the unit sphere bundle.

The generator is F = X + lam V; in isothermal coordinates the orbit ODE is

    x' = e^-phi cos(theta)
    y' = e^-phi sin(theta)
    theta' = e^-phi (-phi_x sin(theta) + phi_y cos(theta)) + lam.

The three coefficients are compiled once per spec, on the first
`ThermostatSpec.rhs()` call, into one straight-line numpy function that
shares exp(-phi), its partials and cos/sin(theta) between them (see
`expr.Bundle`).  Integration uses an adaptive RK45 controller; boundary
crossings on the disk are located by the solver's event machinery and
refined well below the 1e-10 target.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, StepFailure, TrappedOrbit
from .fields import SMPoint, SMScalarField, _as_field, compile_fields
from .geometry import SurfaceModel, thermostat_generator

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-10
DEFAULT_HORIZON = 100.0
TRANSVERSALITY_TOL = 1e-6


@dataclass(frozen=True)
class ThermostatSpec:
    """A surface model together with the thermostat intensity lam."""

    model: SurfaceModel
    lam: SMScalarField
    _rhs: object = dc_field(default=None, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lam", _as_field(self.lam))

    def rhs(self):
        """Right-hand side f(t, s) of the orbit ODE, s = (x, y, theta).

        Built on the first call and kept on the spec.
        """
        if self._rhs is None:
            gen = thermostat_generator(self.model, self.lam)
            coeffs = compile_fields((gen.c_x, gen.c_y, gen.c_theta))

            def f(t, s):
                # float64 scalars, also for states given as Python lists
                x, y, th = np.asarray(s, dtype=float)
                return coeffs(x, y, th)
            object.__setattr__(self, "_rhs", f)
        return self._rhs


def geodesic_spec(model):
    return ThermostatSpec(model, SMScalarField.constant(0.0))


@dataclass
class Orbit:
    """A sampled lambda-geodesic lift with dense evaluation."""

    spec: ThermostatSpec
    t: np.ndarray
    states: np.ndarray  # shape (n, 3), unwrapped coordinates
    sol: object  # scipy dense OdeSolution
    exit_time: Optional[float] = None
    exit_transversal: Optional[bool] = None
    regular: Optional[bool] = None

    def state(self, t):
        return np.asarray(self.sol(t))

    def point(self, t) -> SMPoint:
        x, y, th = self.state(t)
        return SMPoint(x, y, th)

    @property
    def t_span(self):
        return float(self.t[0]), float(self.t[-1])

    def velocity(self, t):
        """Base velocity (x', y') at parameter t."""
        f = self.spec.rhs()
        d = f(t, self.state(t))
        return float(d[0]), float(d[1])

    def unit_speed_defect(self):
        """max |F(gamma') - 1| over the stored samples."""
        model = self.spec.model
        f = self.spec.rhs()
        worst = 0.0
        for tk, sk in zip(self.t, self.states):
            d = f(tk, sk)
            speed = model.metric_speed(sk[0], sk[1], d[0], d[1])
            worst = max(worst, abs(float(speed) - 1.0))
        return worst

    def to_csv(self, path):
        """Write t,x,y,theta rows with 17-significant-digit floats."""
        with open(path, "w") as fh:
            fh.write("t,x,y,theta\n")
            for tk, sk in zip(self.t, self.states):
                th = sk[2] % (2.0 * np.pi)
                fh.write(",".join(f"{v:.17g}" for v in (tk, sk[0], sk[1], th))
                         + "\n")


def _boundary_event():
    def g(t, s):
        return 1.0 - (s[0] * s[0] + s[1] * s[1])
    g.terminal = True
    g.direction = -1  # leaving the disk
    return g


def integrate_orbit(spec, p0: SMPoint, t_span, stop_at_boundary=None,
                    rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, t_eval=None,
                    max_step=np.inf):
    """Integrate the thermostat orbit from p0 over t_span.

    On bounded domains integration halts at the first boundary crossing
    (when stop_at_boundary, the default there); crossing parameters are
    event-refined.  t_span may be decreasing for backward orbits.
    """
    model = spec.model
    model.domain.require(p0)
    if stop_at_boundary is None:
        stop_at_boundary = model.domain.has_boundary

    events = [_boundary_event()] if stop_at_boundary else None
    res = solve_ivp(spec.rhs(), t_span, [p0.x, p0.y, p0.theta],
                    method="RK45", rtol=rtol, atol=atol, dense_output=True,
                    events=events, t_eval=t_eval, max_step=max_step)
    if res.status == -1:
        raise StepFailure(f"integration failed: {res.message}")
    exit_time = None
    transversal = None
    if stop_at_boundary and res.t_events and len(res.t_events[0]):
        exit_time = float(res.t_events[0][0])
        s = res.sol(exit_time)
        vx, vy = spec.rhs()(exit_time, s)[:2]
        nx, ny = s[0], s[1]  # outward normal of the unit circle
        transversal = abs(vx * nx + vy * ny) / max(np.hypot(vx, vy), 1e-300) \
            > TRANSVERSALITY_TOL
    return Orbit(spec=spec, t=res.t, states=res.y.T, sol=res.sol,
                 exit_time=exit_time, exit_transversal=transversal)


def exit_time(spec, p0: SMPoint, direction=1, horizon=DEFAULT_HORIZON):
    """First |t| > 0 with the base point on the unit circle, signed by direction.

    Raises TrappedOrbit when the orbit stays inside past the horizon.
    """
    if not spec.model.domain.has_boundary:
        raise DomainError("exit_time needs a bounded (disk) domain")
    r2 = p0.x * p0.x + p0.y * p0.y
    if r2 >= 1.0 - 1e-12:
        # on the boundary: leaving (or tangential) immediately counts as l=0
        f = spec.rhs()
        d = f(0.0, [p0.x, p0.y, p0.theta])
        radial = direction * (d[0] * p0.x + d[1] * p0.y)
        if radial >= -1e-12:
            return 0.0
    orbit = integrate_orbit(spec, p0, (0.0, direction * horizon),
                            stop_at_boundary=True)
    if orbit.exit_time is None:
        raise TrappedOrbit(
            f"no boundary hit within horizon {horizon}", horizon=horizon)
    return float(orbit.exit_time)


def exp_map(spec, x, y, angle, t, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Base point of the orbit from (x, y) with direction angle at parameter t.

    Does not stop at the domain boundary: the exponential map is defined on
    the extension of the surface.
    """
    if t < 0:
        raise ValueError("exp_map requires t >= 0")
    p0 = SMPoint(x, y, angle)
    if t == 0:
        return np.array([p0.x, p0.y])
    orbit = integrate_orbit(spec, p0, (0.0, t), stop_at_boundary=False,
                            rtol=rtol, atol=atol)
    s = orbit.state(t)
    return np.array([s[0], s[1]])


def scan_regularity(spec, p0: SMPoint, horizon=DEFAULT_HORIZON,
                    transversality_tol=TRANSVERSALITY_TOL):
    """Classify a state as regular: transversal boundary hits both ways."""
    detail = {}
    f = spec.rhs()
    r2 = p0.x * p0.x + p0.y * p0.y
    on_boundary = r2 >= 1.0 - 1e-12
    if on_boundary:
        d = f(0.0, [p0.x, p0.y, p0.theta])
        radial = d[0] * p0.x + d[1] * p0.y
        detail["boundary_radial_speed"] = float(radial)
        if abs(radial) <= transversality_tol:
            return {"regular": False, "detail": detail}

    regular = True
    for direction, key in ((1, "forward"), (-1, "backward")):
        try:
            orbit = integrate_orbit(spec, p0, (0.0, direction * horizon),
                                    stop_at_boundary=True)
        except StepFailure:
            return {"regular": False, "detail": {**detail, key: "step failure"}}
        if orbit.exit_time is None:
            raise TrappedOrbit(f"{key} orbit trapped past horizon {horizon}",
                               horizon=horizon)
        s = orbit.state(orbit.exit_time)
        vx, vy = f(orbit.exit_time, s)[:2]
        crossing = abs(vx * s[0] + vy * s[1]) / max(np.hypot(vx, vy), 1e-300)
        detail[key] = {"exit_time": float(orbit.exit_time),
                       "crossing": float(crossing)}
        if crossing <= transversality_tol:
            regular = False
    return {"regular": regular, "detail": detail}


def nontrapping_scan(spec, grid_spec=(10, 10, 10), T_max=DEFAULT_HORIZON):
    """List sampled interior states whose orbit fails to exit before T_max."""
    if not spec.model.domain.has_boundary:
        raise DomainError("nontrapping_scan needs a bounded (disk) domain")
    nr, na, nt = grid_spec
    trapped = []
    n_sampled = 0
    for r in np.linspace(0.05, 0.95, nr):
        for a in np.linspace(0.0, 2 * np.pi, na, endpoint=False):
            for th in np.linspace(0.0, 2 * np.pi, nt, endpoint=False):
                p = SMPoint(r * np.cos(a), r * np.sin(a), th)
                n_sampled += 1
                for direction in (1, -1):
                    try:
                        exit_time(spec, p, direction=direction, horizon=T_max)
                    except TrappedOrbit:
                        trapped.append({"x": p.x, "y": p.y, "theta": p.theta,
                                        "direction": direction})
                        break
    return {"n_sampled": n_sampled, "trapped": trapped,
            "nontrapping_at_resolution": not trapped}
