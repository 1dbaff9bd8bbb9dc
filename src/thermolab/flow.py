"""Thermostat flow integration on the unit sphere bundle.

The generator is F = X + lam V; in isothermal coordinates the orbit ODE is

    x' = e^-phi cos(theta)
    y' = e^-phi sin(theta)
    theta' = e^-phi (-phi_x sin(theta) + phi_y cos(theta)) + lam.

The three coefficients are compiled once per spec, on the first
`ThermostatSpec.rhs()` call, into one straight-line program that shares
exp(-phi), its partials and cos/sin(theta) between them (see
`expr.Bundle`).  The RHS takes one state, evaluated on Python floats by
the program's float binding, or a (3, N) block of states, evaluated by
its numpy binding; both give the same bits.

Every ODE of the package is solved by `integrate`, a Dormand-Prince 5(4)
integrator with the tableau, error norm, step controller and initial step
of scipy's RK45, so that each orbit takes the steps RK45 would take.  It
integrates many orbits together, each with its own step size and time
span: one loop iteration makes one attempt at the next step of every live
orbit, with six RHS calls for all of them.  Its step, `_attempt`, works
on the (d, N) block of the live orbits' states: it forms each stage state
in place with numpy's dot over the flattened stages (whose rounding fixes
the bits) and writes the RHS values straight into the stage's rows.  A
single orbit takes a loop of its own, without masks or compaction, with
the same continuous extension and event refiner: on one orbit, the
masked loop's small-array numpy calls take about three times as long.
Its step, `_float_attempt`, keeps numpy's dot for the stage sums and does
the rest of `_attempt`'s arithmetic, operation for operation, on Python
floats, with the state a list; its six RHS calls, on that list, run on
Python floats too.  It runs the step-size controller on Python floats
and forms the extension coefficients of all its steps at the end.  So
both loops take the same steps, bit for bit.  A state is an orbit (width
3) or an orbit with Jacobi fields (width 6 or 7, see `jacobi`).  An
`Event` is a function of the state whose zeros are refined on the steps'
continuous extensions, to the tolerance of scipy's event finder: leaving
the disk stops an orbit, the zeros of a Jacobi field are recorded.

A run returns an `OrbitBatch`: each orbit's outcome, end, exit state
(stored once) and accepted steps, and the run's counters.
`OrbitBatch.state` is the one lookup of the step that covers a time; the
`DenseSolution` of one orbit is a view of its run (`sol.run`) that reads
its states through it, while the ray transforms take their quadrature
nodes on the steps themselves (`xray._step_integrals`).  An orbit fails
when its step size falls below the float spacing of t, or when it accepts
a step that stops short of its end time and is shorter than
STALL_SPACINGS float spacings of that end time; a run with a failed orbit
raises StepFailure through `OrbitBatch.require_steps`, named by the stage
and the orbit's start state or index.

`integrate_orbit` follows one orbit and returns it as an `Orbit` with a
dense solution.  `integrate_to_boundary` follows a batch of disk orbits
until each leaves the disk; the per-orbit loops of the ray transform and
the trapping scan run on it.  The trapping scan is its orbits
(`scan_orbits`) and a reader of their outcomes (`scan_report`), so that
`lab xray` can integrate them in the batch of its fan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, StepFailure, TrappedOrbit
from .fields import SMPoint, SMScalarField, _as_field, compile_fields, \
    state_split
from .geometry import SurfaceModel, thermostat_generator

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-10
DEFAULT_HORIZON = 100.0

# Dormand-Prince 5(4) (Hairer-Norsett-Wanner, Solving ODEs I, II.5): stage
# weights a_ij (the ODEs are autonomous, so the nodes c_i never enter), the
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
# event zeros are refined to EVENT_TOL * (1 + |t|), as by scipy's brentq
EVENT_TOL = 4 * np.finfo(float).eps
# an accepted step that stops short of its orbit's end time and is shorter
# than STALL_SPACINGS float spacings of that end time makes no headway: the
# orbit fails (a state pressed against the edge of a field's domain, where
# every longer step is NaN, would take such steps without end)
STALL_SPACINGS = 10

# outcome of each orbit of a run
EXITED = 0        # stopped by a terminal event (left the disk); zero refined
TRAPPED = 1       # reached its end time (the horizon, still inside the disk)
STEP_FAILED = 2   # step size fell below the float spacing of t, or stalled


@dataclass(frozen=True)
class ThermostatSpec:
    """A surface model together with the thermostat intensity lam."""

    model: SurfaceModel
    lam: SMScalarField
    _rhs: object = dc_field(default=None, init=False, repr=False,
                            compare=False)
    _coefficients: object = dc_field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lam", _as_field(self.lam))

    def rhs(self):
        """Right-hand side f(t, s) of the orbit ODE, s = (x, y, theta).

        Built on the first call and kept on the spec.
        """
        if self._rhs is None:
            gen = thermostat_generator(self.model, self.lam)
            split = state_split(
                compile_fields((gen.c_x, gen.c_y, gen.c_theta)))

            def f(t, s):
                (x, y, th), at = split(s)
                return at(x, y, th)
            object.__setattr__(self, "_rhs", f)
        return self._rhs

    def coefficients(self):
        """The spec's `jacobi.JacobiCoefficients`: its coefficient fields
        (`geometry.derived_curvatures`) and their compiled right-hand
        sides.  Built on the first call and kept on the spec."""
        if self._coefficients is None:
            from .jacobi import JacobiCoefficients
            object.__setattr__(self, "_coefficients",
                               JacobiCoefficients(self))
        return self._coefficients


def geodesic_spec(model):
    return ThermostatSpec(model, SMScalarField.constant(0.0))


@dataclass(frozen=True)
class Event:
    """A function g of the state whose zeros a run of `integrate` locates.

    It fires on an accepted step across which g goes from >= 0 to <= 0
    (direction -1), or either way (direction 0); its zero is then refined
    on the step's continuous extension.  A terminal event stops the orbit
    there.  g(s) and slope(s, ds), the derivative of g along ds, take
    states as (d, n) blocks; g also takes one state as a list (the
    one-orbit loop).
    """

    g: Callable
    slope: Callable
    direction: int
    terminal: bool

    def fires(self, g_old, g_new):
        down = (g_old >= 0) & (g_new <= 0)
        if self.direction < 0:
            return down
        return down | ((g_old <= 0) & (g_new >= 0))


# leaving the unit disk: 1 - x^2 - y^2 falls to 0
BOUNDARY = Event(g=lambda s: 1.0 - (s[0] * s[0] + s[1] * s[1]),
                 slope=lambda s, ds: -2.0 * (s[0] * ds[0] + s[1] * ds[1]),
                 direction=-1, terminal=True)


@dataclass
class DenseSolution:
    """The continuous solution of orbit i of a run: a view of its steps.

    Step k covers ts[k] to ts[k + 1]: ts[0] is the start and ts[-1] the end
    time (the zero of the event that stopped the orbit, if one did).  It is
    called as scipy's OdeSolution: a time gives the state (d,), an array
    of n times the states (d, n), each read by `OrbitBatch.state` off the
    continuous extension of the step that covers it (at a step boundary,
    the earlier step).  The run's counters are those of `run`.
    """

    run: OrbitBatch
    i: int
    ts: np.ndarray

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        states = self.run.state(np.full(t.size, self.i), t)
        return states[0] if t.ndim == 0 else states.T


@dataclass
class Orbit:
    """A sampled lambda-geodesic lift with dense evaluation."""

    spec: ThermostatSpec
    t: np.ndarray
    states: np.ndarray  # shape (n, 3), unwrapped coordinates
    sol: DenseSolution
    exit_time: Optional[float]

    def state(self, t):
        return np.asarray(self.sol(t))

    def unit_speed_defect(self):
        """max |F(gamma') - 1| over the stored samples."""
        x, y = self.states[:, 0], self.states[:, 1]
        d = self.spec.rhs()(0.0, self.states.T)
        speed = self.spec.model.metric_speed(x, y, d[0], d[1])
        return float(np.max(np.abs(speed - 1.0), initial=0.0))


def integrate_orbit(spec, p0: SMPoint, t_span, stop_at_boundary=None,
                    rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, t_eval=None):
    """Integrate the thermostat orbit from p0 over t_span.

    On bounded domains integration halts at the first boundary crossing
    (when stop_at_boundary, the default there); crossing parameters are
    event-refined.  t_span may be decreasing for backward orbits.  The
    orbit is sampled at the ends of its steps, or at the times of t_eval
    up to where it stopped.
    """
    model = spec.model
    model.domain.require(p0)
    if stop_at_boundary is None:
        stop_at_boundary = model.domain.has_boundary
    start = list(p0)
    run = integrate(spec, [start], *t_span,
                    event=BOUNDARY if stop_at_boundary else None,
                    rtol=rtol, atol=atol)
    run.require_steps("orbit", [start])
    sol, t, states = run.sampled(0, t_eval)
    exit_time = float(run.end_time[0]) if run.outcome[0] == EXITED else None
    return Orbit(spec=spec, t=t, states=states, sol=sol, exit_time=exit_time)


# ---------------------------------------------------------------------------
# The Dormand-Prince core
# ---------------------------------------------------------------------------

@dataclass
class OrbitBatch:
    """The orbits of one run of `integrate`, integrated until each stopped.

    Orbit i starts at t_start[i] and runs in the time direction
    direction[i].  outcome[i] is EXITED, TRAPPED or STEP_FAILED, and
    end_time[i] and end_state[i] are where the orbit stopped: the refined
    zero of a terminal event, its end time, or the time of the step that
    failed; exit_state[i] is end_state[i] for an orbit that exited and NaN
    for the others.  The refined zeros of the run's event are kept in time
    order (`event_times`).  The accepted steps are kept, sorted by orbit
    and then by time, so that `state` can evaluate the continuous extension
    at many (orbit, t) pairs at once and `solution` can give one orbit's.

    The counters give the work done: loop iterations of the run, accepted
    and rejected steps summed over orbits, and batched RHS calls.
    """

    spec: ThermostatSpec
    t_start: np.ndarray
    direction: np.ndarray
    outcome: np.ndarray
    end_time: np.ndarray
    end_state: np.ndarray
    exit_state: np.ndarray
    iterations: int
    accepted: int
    rejected: int
    rhs_calls: int
    # event zeros: orbit (sorted) and time
    event_orbit: np.ndarray = dc_field(repr=False)
    event_t: np.ndarray = dc_field(repr=False)
    # accepted steps: search key, start time, size, start state (n, d),
    # and extension coefficients Q (n, d, 4)
    step_key: np.ndarray = dc_field(repr=False)
    step_t: np.ndarray = dc_field(repr=False)
    step_h: np.ndarray = dc_field(repr=False)
    step_y: np.ndarray = dc_field(repr=False)
    step_q: np.ndarray = dc_field(repr=False)
    last_step: np.ndarray = dc_field(repr=False)  # last step of each orbit

    def reason(self, i):
        """Why orbit i, which no event stopped, stopped."""
        if self.outcome[i] == TRAPPED:
            horizon = abs(float(self.end_time[i] - self.t_start[i]))
            return f"trapped past horizon {horizon}"
        return ("integration failed: step size below the float spacing at "
                f"t={float(self.end_time[i])!r}")

    def require_steps(self, name="state", index=None):
        """Raise StepFailure for the first orbit whose integration failed,
        naming it "{name} {index[i]}".  index labels the orbits checked,
        the first len(index) of the batch, each by a label such as its
        start state; by default every orbit is checked, by its number."""
        checked = self.outcome if index is None else \
            self.outcome[:len(index)]
        for i in np.flatnonzero(checked == STEP_FAILED)[:1]:
            label = i if index is None else index[i]
            raise StepFailure(f"{name} {label}: {self.reason(i)}")

    def event_times(self, i):
        """The refined zeros of the event along orbit i, in time order."""
        lo, hi = np.searchsorted(self.event_orbit, [i, i + 1])
        return self.event_t[lo:hi]

    def state(self, orbits, t):
        """States (n, d) at the pairs (orbits[k], t[k]), each on the
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

    def solution(self, i):
        """The dense solution of orbit i."""
        first = self.last_step[i - 1] + 1 if i else 0
        return DenseSolution(self, i, np.append(
            self.step_t[first:self.last_step[i] + 1], self.end_time[i]))

    def sampled(self, i, t_eval):
        """Orbit i's dense solution, with sample times and states (n, d):
        the ends of its steps, or the times of t_eval up to where it
        stopped."""
        sol = self.solution(i)
        if t_eval is None:
            t = sol.ts
        else:
            t = np.asarray(t_eval, dtype=float)
            t = t[self.direction[i] * (t - self.end_time[i]) <= 0]
        return sol, t, sol(t).T


def _rms(v):
    """Root mean square over the coordinates (the first axis)."""
    return np.sqrt((v * v).sum(axis=0)) / math.sqrt(v.shape[0])


def _derivatives(rhs, s, out=None):
    """rhs at the states s (d, N) as one (d, N) array, written into out if
    given: the ODEs are autonomous, and constant outputs come as
    scalars."""
    k = np.empty(s.shape) if out is None else out
    for row, value in zip(k, rhs(0.0, s)):
        row[...] = value
    return k


def _initial_step(rhs, y, f, direction, interval, rtol, atol):
    """Initial step sizes, as scipy's select_initial_step, for states
    (d, N) with derivatives f over spans of the given lengths."""
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    small = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = np.minimum(np.where(small, 1e-6, 0.01 * d0 / np.where(small, 1, d1)),
                    interval)
    d2 = _rms((_derivatives(rhs, y + h0 * direction * f) - f) / scale) / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.where(flat, 1, np.maximum(d1, d2))) ** (1 / 5))
    # fmin: an empty span (h0 = 0, h1 NaN) gets 0, and one step of size 0
    return np.fmin(np.minimum(100 * h0, h1), interval)


def _attempt(rhs, y, f, h, rtol, atol):
    """One Dormand-Prince step of size h (N,) from the states y (d, N) of
    N orbits with derivatives f (d, N): the new states (d, N), the seven
    stage derivatives K (7, d, N), and the error estimate of each state
    value (d, N), scaled by its tolerance.  Each stage writes rhs(t, s) at
    its states s straight into the rows of K[s] (one orbit takes
    `_float_attempt`).

    The stage states are formed in place as (a . K) h + y: the products
    and sums of y + h (a . K), with numpy's dot over the flattened stages
    for the stage sums.  So are the new states and the error estimate.
    """
    K = np.empty((7,) + y.shape)
    K[0] = f
    stages = K.reshape(7, -1)
    for s, a in enumerate(DP_A, start=1):
        v = a.dot(stages[:s]).reshape(y.shape)
        v *= h
        v += y
        _derivatives(rhs, v, K[s])      # the ODEs are autonomous
    y_new = DP_B.dot(stages[:6]).reshape(y.shape)
    y_new *= h
    y_new += y
    _derivatives(rhs, y_new, K[6])
    scale = abs(y)
    np.maximum(scale, abs(y_new), out=scale)
    scale *= rtol
    scale += atol
    e = DP_E.dot(stages).reshape(y.shape)
    e *= h
    e /= scale
    return y_new, K, e


def _float_attempt(rhs, y, f, h, rtol, atol):
    """`_attempt` on one state y, a list of Python floats, bit for bit:
    the new state as a list, the stage derivatives K (7, d), and the sum
    of the squared scaled error estimates.

    numpy's dot still forms the stage sums, whose rounding fixes the bits
    (BLAS may fuse their products and sums); every other operation is
    `_attempt`'s, in its order, on Python floats: the stage states
    v h + y, the new state, the scale max(|y|, |y_new|) rtol + atol (NaN
    if either is, as np.maximum gives), e h / scale, and the squares
    summed left to right, as numpy sums fewer than eight values.
    """
    K = np.empty((7, len(y)))
    K[0] = f
    for s, a in enumerate(DP_A, start=1):
        K[s] = rhs(0.0, [v * h + yj for v, yj in zip(a.dot(K[:s]).tolist(),
                                                     y)])
    y_new = [v * h + yj for v, yj in zip(DP_B.dot(K[:6]).tolist(), y)]
    K[6] = rhs(0.0, y_new)
    square_sum = 0.0
    for e, yj, zj in zip(DP_E.dot(K).tolist(), y, y_new):
        u, w = abs(yj), abs(zj)
        scale = (u if u > w or u != u else w) * rtol + atol
        try:
            e = e * h / scale
        except ZeroDivisionError:       # atol = 0 at a zero value
            e = np.float64(e * h) / scale
        square_sum += e * e
    return y_new, K, square_sum


def _step_factor(error_norm, rejected):
    """RK45's controller: whether each attempt is accepted, and the factor
    on its size for the next attempt (at most 1 right after a
    rejection)."""
    # an error below 1 gives a factor above SAFETY, and one of 1 or more
    # (or NaN, from a NaN stage) a factor below it, so one clip serves
    # both; the 1e-300 changes no error above 1e-284 and takes an error of
    # 0 to the cap MAX_FACTOR
    factor = SAFETY * (error_norm + 1e-300) ** ERROR_EXPONENT
    return error_norm < 1, np.fmax(MIN_FACTOR, np.minimum(
        np.where(rejected, 1.0, MAX_FACTOR), factor))


def _float_step_factor(error_norm, rejected):
    """`_step_factor` on one orbit, in Python floats, bit for bit: ** is C
    pow as for numpy, and a NaN factor gives MIN_FACTOR as np.fmax
    does."""
    factor = SAFETY * (error_norm + 1e-300) ** ERROR_EXPONENT
    if factor != factor:
        return False, MIN_FACTOR
    return error_norm < 1, max(MIN_FACTOR, min(
        1.0 if rejected else MAX_FACTOR, factor))


def _extension_coefficients(K):
    """Q of the continuous extension: (N, d, 4) from the stage derivatives
    K (7, d, N), or (d, 4) from K (7, d)."""
    return K.T @ DP_P


def _powers(s):
    """(s, s^2, s^3, s^4) on a new last axis, each power the one before
    times s: the bits of a cumprod, which multiplies left to right."""
    s2 = s * s
    s3 = s2 * s
    return np.stack((s, s2, s3, s3 * s), axis=-1)


def _extension(t_old, h, y_old, q, t):
    """States (n, d) at times t on steps' continuous extensions."""
    s = (t - t_old) / np.where(h == 0, 1.0, h)   # a step of size 0: y_old
    return h[:, None] * np.einsum("nck,nk->nc", q, _powers(s)) + y_old


def _event_times(event, t_old, h, y_old, q, g_old, g_new):
    """Zeros of event.g on steps' continuous extensions, given its values
    g_old at the start of each step and g_new at its end, of opposite signs
    or zero.

    Newton's method in s = (t - t_old)/h, kept inside the bracket by
    bisection, for all steps at once, to EVENT_TOL * (1 + |t|) in t.  A
    step of size 0 (a span of length 0) is not refined: its zero is its
    start.
    """
    hq = h[:, None, None] * q
    powers = np.arange(1, 5)
    lo, hi = np.zeros(h.size), np.ones(h.size)
    s = g_old / (g_old - g_new)               # the linear guess
    s = np.where((s >= 0) & (s <= 1), s, 0.5)
    sized = h != 0
    tol = EVENT_TOL * (1 + np.abs(t_old) + np.abs(h)) / np.where(
        sized, np.abs(h), 1.0)
    positive = g_old > 0                      # the sign of g before its zero
    done = ~sized
    for _ in range(100):                      # bisection alone needs ~60
        y = y_old + np.einsum("nck,nk->nc", hq, s[:, None] ** powers)
        dy = np.einsum("nck,nk->nc", hq, powers * s[:, None] ** (powers - 1))
        g, dg = event.g(y.T), event.slope(y.T, dy.T)
        ahead = (g > 0) == positive           # the zero is later in the step
        lo = np.where(ahead, s, lo)
        hi = np.where(ahead, hi, s)
        newton = s - g / dg
        s_next = np.where(g == 0, s, np.where((newton > lo) & (newton < hi),
                                              newton, 0.5 * (lo + hi)))
        settled = (np.abs(s_next - s) <= tol) | (hi - lo <= tol)
        s = np.where(done, s, s_next)
        done |= settled
        if done.all():
            break
    return t_old + s * h


# A NaN or infinite stage (a field undefined there) makes its step's error
# norm NaN, which the controller rejects; empty spans and the event
# refiner's Newton steps divide by zero on purpose.  None of these warns.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def integrate(spec, states, t_start, t_end, rhs=None, event=None,
              rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Integrate the orbits of many states, each over its own time span.

    states is an (N, d) array; orbit i starts at states[i] at time
    t_start[i] and runs to t_end[i] (a scalar time applies to every
    orbit).  rhs(t, s) is the spec's orbit RHS unless given (the Jacobi
    system of `jacobi`); it is called on (d, N) blocks of states and, for
    a single orbit, on one state, a list of d floats, after the initial
    step.  Each orbit takes the steps scipy's RK45 takes for it (same
    tableau, error norm, controller and initial step, up to rounding).  It
    stops at its end time, at the zero of a terminal event, or when it
    fails: its step size falls below the float spacing of t, or it accepts
    a step that stops short of its end time and is shorter than
    STALL_SPACINGS float spacings of that end time (RK45 would go on with
    such steps).  Returns an OrbitBatch;
    raises DomainError for a start or end time that is not finite.
    """
    rhs = spec.rhs() if rhs is None else rhs
    y = np.array(states, dtype=float)
    n, dim = y.shape
    t0, t1 = (np.broadcast_to(np.asarray(v, dtype=float), (n,)).copy()
              for v in (t_start, t_end))
    if not (np.all(np.isfinite(t0)) and np.all(np.isfinite(t1))):
        # a NaN or infinite span makes every step size NaN, and a NaN step
        # is rejected without end
        raise DomainError("integration times must be finite")
    direction = np.where(t1 >= t0, 1.0, -1.0)

    y = y.T
    f = _derivatives(rhs, y)
    h_abs = _initial_step(rhs, y, f, direction, np.abs(t1 - t0), rtol, atol)
    if n == 1:
        run = _one_orbit(rhs, y[:, 0].tolist(), f[:, 0], float(t0[0]),
                         float(t1[0]), float(h_abs[0]), event, rtol, atol)
    else:
        run = _all_orbits(rhs, y, f, t0, t1, direction, h_abs, event, rtol,
                          atol)
    outcome, end_time, end_state, steps, crossings, counts = run

    # each list starts with an empty entry
    none, no_y, no_q = np.zeros(0), np.zeros((0, dim)), np.zeros((0, dim, 4))
    e_ids, e_t, e_h, e_y, e_q, e_g, e_g_new = (np.concatenate(c) for c in zip(
        (none.astype(int), none, none, no_y, no_q, none, none), *crossings))
    t_event = (_event_times(event, e_t, e_h, e_y, e_q, e_g, e_g_new)
               if e_ids.size else none)
    if event is not None and event.terminal:
        outcome[e_ids] = EXITED
        end_time[e_ids] = t_event
        end_state[e_ids] = _extension(e_t, e_h, e_y, e_q, t_event)
    by_orbit = np.argsort(e_ids, kind="stable")

    orbit, t_old, t_new, h, y_old, q = (np.concatenate(c) for c in zip(
        (none.astype(int), none, none, none, no_y, no_q), *steps))
    order = np.argsort(orbit, kind="stable")   # by orbit, then by time
    orbit = orbit[order]
    return OrbitBatch(
        spec=spec, t_start=t0, direction=direction, outcome=outcome,
        end_time=end_time, end_state=end_state,
        exit_state=np.where((outcome == EXITED)[:, None], end_state, np.nan),
        iterations=counts[0],
        accepted=counts[1], rejected=counts[2],
        rhs_calls=2 + 6 * counts[0],   # the initial step's two, six a try
        event_orbit=e_ids[by_orbit], event_t=t_event[by_orbit],
        step_key=orbit + 1j * (direction[orbit] * t_new[order]),
        step_t=t_old[order], step_h=h[order], step_y=y_old[order],
        step_q=q[order],
        last_step=np.searchsorted(orbit, np.arange(n), side="right") - 1)


def _all_orbits(rhs, y, f, t, t_end, direction, h_abs, event, rtol, atol):
    """The loop of `integrate` over N orbits: states y (d, N).

    Returns the outcomes, end times and end states, the accepted steps and
    event crossings of each iteration, and the counters.
    """
    dim, n = y.shape
    outcome = np.full(n, TRAPPED, dtype=np.int8)
    end_time = t_end.copy()
    end_state = np.empty((n, dim))
    # per iteration: the accepted steps (orbit, t_old, t_new, h, y_old, Q),
    # and those across which the event fired (orbit, t_old, h, y_old, Q,
    # g_old, g_new)
    steps, crossings = [], []
    iterations = accepted = rejected_steps = 0
    # the live orbits
    ids = np.arange(n)
    d = direction
    g = event.g(y) if event is not None else None
    rejected = np.zeros(n, dtype=bool)    # the current step was rejected
    stall = STALL_SPACINGS * np.abs(np.spacing(t_end))
    while ids.size:
        iterations += 1
        # as in RK45, a new step is at least min_step, and an orbit whose
        # rejected step shrinks below it fails
        min_step = 10 * np.abs(np.nextafter(t, d * np.inf) - t)
        h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
        t_new = t + h_abs * d
        t_new = np.where(d * (t_new - t_end) > 0, t_end, t_new)
        h = t_new - t
        y_new, K, e = _attempt(rhs, y, f, h, rtol, atol)
        error_norm = _rms(e)
        ok, factor = _step_factor(error_norm, rejected)
        stalled = ok & (t_new != t_end) & (np.abs(h) < stall)
        ok &= ~stalled
        h_abs = np.abs(h) * factor
        rejected = ~ok
        failed = stalled | (rejected & (h_abs < min_step))
        outcome[ids[failed]] = STEP_FAILED
        end_time[ids[failed]] = t[failed]
        n_ok = int(np.count_nonzero(ok))
        accepted += n_ok
        rejected_steps += ids.size - n_ok

        q = _extension_coefficients(K[:, :, ok])
        steps.append((ids[ok], t[ok], t_new[ok], h[ok], y[:, ok].T, q))
        stop = failed | (ok & (d * (t_new - t_end) >= 0))
        if event is not None:
            g_new = event.g(y_new)
            fired = ok & event.fires(g, g_new)
            if fired.any():
                crossings.append((ids[fired], t[fired], h[fired],
                                  y[:, fired].T, q[fired[ok]], g[fired],
                                  g_new[fired]))
                if event.terminal:
                    stop |= fired
            g = np.where(ok, g_new, g)
        t = np.where(ok, t_new, t)
        y = np.where(ok, y_new, y)
        f = np.where(ok, K[6], f)
        if stop.any():
            end_state[ids[stop]] = y[:, stop].T
            keep = ~stop
            ids, t, d, t_end, stall, h_abs, rejected = (
                v[keep] for v in (ids, t, d, t_end, stall, h_abs, rejected))
            y, f = y[:, keep], f[:, keep]
            if event is not None:
                g = g[keep]
    return (outcome, end_time, end_state, steps, crossings,
            (iterations, accepted, rejected_steps))


def _one_orbit(rhs, y, f, t, t_end, h_abs, event, rtol, atol):
    """The loop of `integrate` for one orbit: state y, a list of d Python
    floats, its derivative f (d,), times floats.

    The same steps and bookkeeping as `_all_orbits`, on one orbit, without
    its masks and compaction: the step is `_float_attempt`, which calls
    rhs itself on list states and fills a row of K with its d values, the
    controller runs on Python floats (`_float_step_factor`), the event
    takes list states, and the extension coefficients of the accepted
    steps are formed together at the end.
    """
    dim = len(y)
    root = math.sqrt(dim)       # of the error norm, a root mean square
    d = 1.0 if t_end >= t else -1.0
    g = event.g(y) if event is not None else None
    # the accepted steps: their ends (the start first), sizes, start
    # states (one flat list, so that no list object is kept per step) and
    # stage derivatives
    times, hs, ys, Ks, crossings = [t], [], [], [], []
    outcome, attempts, rejected = TRAPPED, 0, False
    stall = STALL_SPACINGS * math.ulp(t_end)
    while True:
        attempts += 1
        min_step = 10 * abs(math.nextafter(t, d * math.inf) - t)
        if not rejected:
            h_abs = max(h_abs, min_step)
        t_new = t + h_abs * d
        if d * (t_new - t_end) > 0:
            t_new = t_end
        h = t_new - t
        y_new, K, square_sum = _float_attempt(rhs, y, f, h, rtol, atol)
        ok, factor = _float_step_factor(math.sqrt(square_sum) / root,
                                        rejected)
        h_abs = abs(h) * factor
        rejected = not ok
        if rejected:
            if h_abs < min_step:
                outcome = STEP_FAILED
                break
            continue
        if t_new != t_end and abs(h) < stall:
            outcome = STEP_FAILED
            break
        times.append(t_new)
        hs.append(h)
        ys += y
        Ks.append(K)
        fired = False
        if event is not None:
            g_new = event.g(y_new)
            if event.fires(g, g_new):
                crossings.append((np.zeros(1, dtype=int), np.array([t]),
                                  np.array([h]), np.array([y]),
                                  _extension_coefficients(K)[None],
                                  np.array([g]), np.array([g_new])))
                fired = event.terminal
            g = g_new
        t, y, f = t_new, y_new, K[6]
        if fired or d * (t - t_end) >= 0:
            break
    k = len(hs)
    times = np.array(times)
    # the stage derivatives as (7, d, k), each step's K.T @ DP_P
    q = _extension_coefficients(np.array(Ks).reshape(k, 7, dim)
                                .transpose(1, 2, 0))
    block = (np.zeros(k, dtype=int), times[:-1], times[1:], np.array(hs),
             np.array(ys).reshape(k, dim), q)
    return (np.array([outcome], dtype=np.int8), np.array([t]),
            np.array([y]), [block], crossings,
            (attempts, k, attempts - k))


def integrate_to_boundary(spec, states, direction=1, horizon=DEFAULT_HORIZON):
    """Integrate the orbits of many disk states together until each stops.

    states is an (N, 3) array of (x, y, theta); direction is +1 or -1, for
    all orbits or one per orbit.  Each orbit starts at t = 0 and stops at
    the first accepted step across which 1 - x^2 - y^2 goes from >= 0 to
    <= 0 (the boundary event of `integrate_orbit`), at the horizon, or when
    its integration fails (see `integrate`).  The tolerances are
    DEFAULT_RTOL and DEFAULT_ATOL, as for `integrate_orbit`.  Returns an
    OrbitBatch.
    """
    model = spec.model
    if not model.domain.has_boundary:
        raise DomainError("integrate_to_boundary needs a bounded (disk) "
                          "domain")
    states = np.array(states, dtype=float).reshape(-1, 3)
    inside = model.domain.contains(states[:, 0], states[:, 1])
    if not np.all(inside):
        i = int(np.argmin(inside))
        raise DomainError(f"state {i}: point ({states[i, 0]}, "
                          f"{states[i, 1]}) outside disk domain")
    return integrate(spec, states, 0.0,
                     np.asarray(direction, dtype=float) * horizon,
                     event=BOUNDARY)


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
        d = f(0.0, list(p0))
        radial = direction * (d[0] * p0.x + d[1] * p0.y)
        if radial >= -1e-12:
            return 0.0
    orbit = integrate_orbit(spec, p0, (0.0, direction * horizon),
                            stop_at_boundary=True)
    if orbit.exit_time is None:
        raise TrappedOrbit(f"no boundary hit within horizon {horizon}")
    return float(orbit.exit_time)


def scan_orbits():
    """The orbits of the trapping scan: the 3 x 4 x 4 nodes of a grid in
    (r, polar angle, theta), r in [0.05, 0.95], each forward and then each
    backward.  Returns their (96, 3) start states and their directions."""
    r, a, th = (v.ravel() for v in np.meshgrid(
        np.linspace(0.05, 0.95, 3),
        np.linspace(0.0, 2 * np.pi, 4, endpoint=False),
        np.linspace(0.0, 2 * np.pi, 4, endpoint=False), indexing="ij"))
    states = np.column_stack([r * np.cos(a), r * np.sin(a), th])
    return np.vstack([states, states]), np.repeat([1.0, -1.0], len(states))


def scan_report(orbits, first):
    """The report of `nontrapping_scan`, read off the orbits first, first +
    1, ... of a batch that integrated `scan_orbits()` to the boundary in
    that order.  A trapped state is listed once, with its first trapped
    direction (forward before backward).  Raises StepFailure naming the
    first state, and direction, whose integration failed, the states taken
    in order and each forward first."""
    states, _ = scan_orbits()
    n = len(states) // 2
    trapped = []
    for k, (x, y, theta) in enumerate(states[:n]):
        for direction, i in ((1, first + k), (-1, first + n + k)):
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


def nontrapping_scan(spec, T_max):
    """List sampled interior states whose orbit fails to exit before T_max.

    The states and directions are `scan_orbits()`, integrated in one batch
    and read by `scan_report`; `lab xray` integrates them in the batch of
    its fan and reads them the same way.  Raises StepFailure naming the
    first state whose integration failed.
    """
    if not spec.model.domain.has_boundary:
        raise DomainError("nontrapping_scan needs a bounded (disk) domain")
    states, direction = scan_orbits()
    return scan_report(integrate_to_boundary(spec, states, direction,
                                             horizon=T_max), 0)
