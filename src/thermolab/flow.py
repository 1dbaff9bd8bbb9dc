"""Thermostat flow integration on the unit sphere bundle.

The generator is F = X + lam V; in isothermal coordinates the orbit ODE is

    x' = e^-phi cos(theta)
    y' = e^-phi sin(theta)
    theta' = e^-phi (-phi_x sin(theta) + phi_y cos(theta)) + lam.

The three coefficients are compiled once per spec, on the first
`ThermostatSpec.rhs()` call, into one straight-line numpy function that
shares exp(-phi), its partials and cos/sin(theta) between them (see
`expr.Bundle`); it takes one state or a (3, N) block of states.

Two integrators use it.  `integrate_orbit` follows a single orbit with
scipy's RK45 and returns an `Orbit` with scipy's dense solution; boundary
crossings on the disk are located by the solver's event machinery.
`integrate_to_boundary` follows a whole batch of disk orbits together
until each leaves the disk: a vectorized Dormand-Prince 5(4) integrator
with one step size per orbit and the same tableau, error norm, step
controller and initial step as RK45, so each orbit takes the steps RK45
would take.  Each of its loop iterations makes one attempt at the next
step of every live orbit, with six RHS calls for all of them.  The exit
time is refined on the step's continuous extension, for all orbits at
once, to the tolerance of scipy's event finder.  The per-orbit loops of
the ray transform and the trapping scan run on it.
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

# Dormand-Prince 5(4) (Hairer-Norsett-Wanner, Solving ODEs I, II.5): stage
# weights a_ij (the flow is autonomous, so the nodes c_i never enter), the
# 5th-order weights b_j, and e_j = b_j - (embedded 4th-order weights) over
# the seven stages, the last being the derivative at the new state
DP_A = (np.array([1 / 5]),
        np.array([3 / 40, 9 / 40]),
        np.array([44 / 45, -56 / 15, 32 / 9]),
        np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
        np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                  -5103 / 18656]))
DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200,
                 -22 / 525, 1 / 40])
# quartic continuous extension (Shampine, Math. Comp. 46, 1986): over a
# step from (t_old, y_old) of size h, y(t_old + s h) = y_old + h Q p(s)
# with Q = K^T DP_P (K the stage derivatives) and p(s) = (s, s^2, s^3, s^4)
DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
# step-size controller: new h = h * clip(SAFETY * err^ERROR_EXPONENT)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1 / 5
# exit times are refined to EVENT_TOL * (1 + |t|), as by scipy's brentq
EVENT_TOL = 4 * np.finfo(float).eps

# outcome of each orbit of a batch
EXITED = 0        # left the disk; exit time refined
TRAPPED = 1       # still inside at the horizon
STEP_FAILED = 2   # step size fell below the float spacing of t


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


# ---------------------------------------------------------------------------
# Batched integration to the disk boundary
# ---------------------------------------------------------------------------

@dataclass
class OrbitBatch:
    """Disk orbits of many states, integrated together until each stopped.

    Orbit i starts at the i-th state at t = 0 and runs in the time
    direction direction[i].  outcome[i] is EXITED, TRAPPED or STEP_FAILED,
    and end_time[i] is where the orbit stopped: the refined exit time, the
    signed horizon, or the time of the step that failed.  exit_state[i] is
    the state at the exit (NaN unless EXITED).  The accepted steps are
    kept, sorted by orbit and then by time, so that `state` can evaluate
    the continuous extension at many (orbit, t) pairs at once.

    The counters give the work done: loop iterations of the batch,
    accepted and rejected steps summed over orbits, and batched RHS calls.
    """

    spec: ThermostatSpec
    horizon: float
    direction: np.ndarray
    outcome: np.ndarray
    end_time: np.ndarray
    exit_state: np.ndarray
    iterations: int
    accepted: int
    rejected: int
    rhs_calls: int
    # accepted steps: search key, start time, size, start state (n, 3),
    # and extension coefficients Q (n, 3, 4)
    step_key: np.ndarray = dc_field(repr=False)
    step_t: np.ndarray = dc_field(repr=False)
    step_h: np.ndarray = dc_field(repr=False)
    step_y: np.ndarray = dc_field(repr=False)
    step_q: np.ndarray = dc_field(repr=False)
    last_step: np.ndarray = dc_field(repr=False)  # last step of each orbit

    def reason(self, i):
        """Why orbit i, which did not exit, stopped."""
        if self.outcome[i] == TRAPPED:
            return f"trapped past horizon {self.horizon}"
        return ("integration failed: step size below the float spacing at "
                f"t={float(self.end_time[i])!r}")

    def state(self, orbits, t):
        """States (n, 3) at the pairs (orbits[k], t[k]), each on the
        continuous extension of the orbit's accepted step that covers
        t[k] (orbits that failed before accepting a step have none)."""
        orbits = np.asarray(orbits, dtype=int).ravel()
        t = np.asarray(t, dtype=float).ravel()
        # complex numbers sort lexicographically: by orbit, then by time
        # along the orbit; at a step boundary this takes the earlier step,
        # as scipy's OdeSolution does
        k = np.searchsorted(self.step_key,
                            orbits + 1j * (self.direction[orbits] * t))
        k = np.minimum(k, self.last_step[orbits])
        return _extension(self.step_t[k], self.step_h[k], self.step_y[k],
                          self.step_q[k], t)


def _rms(v):
    """Root mean square over the three coordinates of each column."""
    return np.sqrt(np.sum(v * v, axis=0)) / np.sqrt(3.0)


def _extension(t_old, h, y_old, q, t):
    """States (n, 3) at times t on steps' continuous extensions."""
    s = (t - t_old) / h
    p = np.cumprod(np.repeat(s[:, None], 4, axis=1), axis=1)
    return h[:, None] * np.einsum("nck,nk->nc", q, p) + y_old


def _exit_times(t_old, h, y_old, q, g_old, g_new):
    """Zeros of g = 1 - x^2 - y^2 on steps' continuous extensions, given
    g_old >= 0 at the start of each step and g_new <= 0 at its end.

    Newton's method in s = (t - t_old)/h, kept inside the bracket by
    bisection, for all steps at once, to EVENT_TOL * (1 + |t|) in t.
    """
    hq = h[:, None, None] * q[:, :2, :]       # base-point coefficients
    powers = np.arange(1, 5)
    lo, hi = np.zeros(h.size), np.ones(h.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = g_old / (g_old - g_new)           # the linear guess
    s = np.where((s >= 0) & (s <= 1), s, 0.5)
    tol = EVENT_TOL * (1 + np.abs(t_old) + np.abs(h)) / np.abs(h)
    done = np.zeros(h.size, dtype=bool)
    for _ in range(100):                      # bisection alone needs ~60
        xy = y_old[:, :2] + np.einsum("nck,nk->nc", hq, s[:, None] ** powers)
        dxy = np.einsum("nck,nk->nc", hq, powers * s[:, None] ** (powers - 1))
        g = 1.0 - (xy[:, 0] * xy[:, 0] + xy[:, 1] * xy[:, 1])
        dg = -2.0 * (xy[:, 0] * dxy[:, 0] + xy[:, 1] * dxy[:, 1])
        ahead = g >= 0                        # the exit is later in the step
        lo = np.where(ahead, s, lo)
        hi = np.where(ahead, hi, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = s - g / dg
        s_next = np.where(g == 0, s, np.where((newton > lo) & (newton < hi),
                                              newton, 0.5 * (lo + hi)))
        settled = (np.abs(s_next - s) <= tol) | (hi - lo <= tol)
        s = np.where(done, s, s_next)
        done |= settled
        if done.all():
            break
    return t_old + s * h


def integrate_to_boundary(spec, states, direction=1, horizon=DEFAULT_HORIZON):
    """Integrate the orbits of many disk states together until each stops.

    states is an (N, 3) array of (x, y, theta); direction is +1 or -1, for
    all orbits or one per orbit.  Each orbit takes the steps scipy's RK45
    takes for it (same tableau, error norm, controller and initial step,
    up to rounding), and stops at the first accepted step across which
    1 - x^2 - y^2 goes from >= 0 to <= 0 (the boundary event of
    `integrate_orbit`), at the horizon, or when its step size falls below
    the float spacing of t.  The tolerances are DEFAULT_RTOL and
    DEFAULT_ATOL, as for `integrate_orbit`.  Returns an OrbitBatch.
    """
    rtol, atol = DEFAULT_RTOL, DEFAULT_ATOL
    model = spec.model
    if not model.domain.has_boundary:
        raise DomainError("integrate_to_boundary needs a bounded (disk) "
                          "domain")
    y = np.array(states, dtype=float).reshape(-1, 3).T.copy()   # (3, N)
    n = y.shape[1]
    inside = model.domain.contains(y[0], y[1])
    if not np.all(inside):
        i = int(np.argmin(inside))
        raise DomainError(f"state {i}: point ({y[0, i]}, {y[1, i]}) outside "
                          "disk domain")
    direction = np.broadcast_to(np.asarray(direction, dtype=float),
                                (n,)).copy()
    rhs = spec.rhs()
    rhs_calls = 0

    def derivative(s):
        nonlocal rhs_calls
        rhs_calls += 1
        out = np.empty_like(s)
        out[0], out[1], out[2] = rhs(0.0, s)   # the flow is autonomous
        return out

    # initial step size, as scipy's select_initial_step
    f = derivative(y)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    small = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = np.minimum(np.where(small, 1e-6, 0.01 * d0 / np.where(small, 1, d1)),
                    horizon)
    d2 = _rms((derivative(y + h0 * direction * f) - f) / scale) / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.where(flat, 1, np.maximum(d1, d2))) ** (1 / 5))
    h_abs = np.minimum(np.minimum(100 * h0, h1), horizon)

    outcome = np.full(n, TRAPPED, dtype=np.int8)
    end_time = direction * horizon
    exit_state = np.full((n, 3), np.nan)
    # per iteration: the accepted steps (orbit, t_old, t_new, h, y_old, Q),
    # and those that crossed the boundary (orbit, t_old, h, y_old, Q, g_old,
    # g_new); each list starts with an empty entry
    none, no_y, no_q = np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3, 4))
    steps = [(none.astype(int), none, none, none, no_y, no_q)]
    exits = [(none.astype(int), none, none, no_y, no_q, none, none)]
    iterations = accepted = rejected_steps = 0
    # the live orbits
    ids = np.arange(n)
    t = np.zeros(n)
    d = direction
    g = 1.0 - (y[0] * y[0] + y[1] * y[1])
    rejected = np.zeros(n, dtype=bool)    # the current step was rejected
    while ids.size:
        iterations += 1
        # as in RK45, a new step is at least min_step, and an orbit whose
        # rejected step shrinks below it fails
        min_step = 10 * np.abs(np.nextafter(t, d * np.inf) - t)
        h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
        t_bound = d * horizon
        t_new = t + h_abs * d
        t_new = np.where(d * (t_new - t_bound) > 0, t_bound, t_new)
        h = t_new - t

        K = np.empty((7,) + y.shape)
        stages = K.reshape(7, -1)   # a view: stage j's derivatives in row j
        K[0] = f
        for s, a in enumerate(DP_A, start=1):
            K[s] = derivative(y + (a @ stages[:s]).reshape(y.shape) * h)
        y_new = y + h * (DP_B @ stages[:6]).reshape(y.shape)
        K[6] = derivative(y_new)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        error_norm = _rms((DP_E @ stages).reshape(y.shape) * h / scale)

        ok = error_norm < 1
        with np.errstate(divide="ignore"):    # error 0: factor MAX_FACTOR
            factor = SAFETY * error_norm ** ERROR_EXPONENT
        factor = np.where(ok, np.minimum(MAX_FACTOR, factor),
                          np.fmax(MIN_FACTOR, factor))   # NaN error: shrink
        factor = np.where(ok & rejected, np.minimum(1.0, factor), factor)
        h_abs = np.abs(h) * factor
        rejected = ~ok
        failed = rejected & (h_abs < min_step)
        outcome[ids[failed]] = STEP_FAILED
        end_time[ids[failed]] = t[failed]
        n_ok = int(np.count_nonzero(ok))
        accepted += n_ok
        rejected_steps += ids.size - n_ok

        q = np.einsum("jcn,jk->nck", K[:, :, ok], DP_P)
        steps.append((ids[ok], t[ok], t_new[ok], h[ok], y[:, ok].T, q))
        g_new = 1.0 - (y_new[0] * y_new[0] + y_new[1] * y_new[1])
        crossed = ok & (g >= 0) & (g_new <= 0)
        if crossed.any():
            exits.append((ids[crossed], t[crossed], h[crossed],
                          y[:, crossed].T, q[crossed[ok]], g[crossed],
                          g_new[crossed]))
        stop = failed | crossed | (ok & (d * (t_new - t_bound) >= 0))
        t = np.where(ok, t_new, t)
        y = np.where(ok, y_new, y)
        f = np.where(ok, K[6], f)
        g = np.where(ok, g_new, g)
        if stop.any():
            keep = ~stop
            ids, t, d, g, h_abs, rejected = (
                v[keep] for v in (ids, t, d, g, h_abs, rejected))
            y, f = y[:, keep], f[:, keep]

    e_ids, e_t, e_h, e_y, e_q, e_g, e_g_new = (np.concatenate(c)
                                                for c in zip(*exits))
    t_exit = _exit_times(e_t, e_h, e_y, e_q, e_g, e_g_new)
    outcome[e_ids] = EXITED
    end_time[e_ids] = t_exit
    exit_state[e_ids] = _extension(e_t, e_h, e_y, e_q, t_exit)

    orbit, t_old, t_end, h, y_old, q = (np.concatenate(c)
                                        for c in zip(*steps))
    order = np.argsort(orbit, kind="stable")   # by orbit, then by time
    orbit = orbit[order]
    return OrbitBatch(
        spec=spec, horizon=horizon, direction=direction, outcome=outcome,
        end_time=end_time, exit_state=exit_state, iterations=iterations,
        accepted=accepted, rejected=rejected_steps, rhs_calls=rhs_calls,
        step_key=orbit + 1j * (direction[orbit] * t_end[order]),
        step_t=t_old[order], step_h=h[order], step_y=y_old[order],
        step_q=q[order],
        last_step=np.searchsorted(orbit, np.arange(n), side="right") - 1)


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
    """List sampled interior states whose orbit fails to exit before T_max.

    Every state is integrated forward and backward, all in one batch; a
    trapped state is listed once, with its first trapped direction
    (forward before backward).  Raises StepFailure naming the first state
    whose integration failed.
    """
    if not spec.model.domain.has_boundary:
        raise DomainError("nontrapping_scan needs a bounded (disk) domain")
    nr, na, nt = grid_spec
    r, a, th = (v.ravel() for v in np.meshgrid(
        np.linspace(0.05, 0.95, nr),
        np.linspace(0.0, 2 * np.pi, na, endpoint=False),
        np.linspace(0.0, 2 * np.pi, nt, endpoint=False), indexing="ij"))
    states = np.column_stack([r * np.cos(a), r * np.sin(a), th])
    n = len(states)
    orbits = integrate_to_boundary(spec, np.vstack([states, states]),
                                   direction=np.repeat([1.0, -1.0], n),
                                   horizon=T_max)
    trapped = []
    for k, (x, y, theta) in enumerate(states):
        for direction, i in ((1, k), (-1, n + k)):
            if orbits.outcome[i] == STEP_FAILED:
                raise StepFailure(f"state ({x:.17g}, {y:.17g}, {theta:.17g}), "
                                  f"direction {direction}: "
                                  f"{orbits.reason(i)}")
            if orbits.outcome[i] == TRAPPED:
                trapped.append({"x": float(x), "y": float(y),
                                "theta": float(theta),
                                "direction": direction})
                break
    return {"n_sampled": n, "trapped": trapped,
            "nontrapping_at_resolution": not trapped}
