"""Jacobi variational system, conjugate points, and Riccati solutions.

The variational state (a, y, z) along an orbit satisfies

    a' = lam y
    y' = lam I y + z
    z' = -{K - H(lam) - lam J + lam^2} y + V(lam) z

and is integrated jointly with the orbit, as one state of width 6, by the
Dormand-Prince core of `flow.integrate`, which also locates the zeros of
y (`Y_ZEROS`).  The coefficient fields come from
`geometry.derived_curvatures`; the generator's three coefficients and
lam, lam I, the core curvature and V(lam) are compiled into one
straight-line program, which serves both the width-6 state and the
width-7 state (x, y, theta, y1, z1, y2, z2) of two Jacobi columns; one
state runs on Python floats, a block of states on numpy arrays.  Each
spec builds its `JacobiCoefficients` once, on first use, and keeps it
(`ThermostatSpec.coefficients()`), so the fields are derived and compiled
once per spec.
Riccati solutions are always obtained through the linear system
(r = y'/y), which turns blowups into exact zeros of y; the fan variant
z/y differs from y'/y by lam I.

The finite-window solution r_R^+/- (`solve_riccati_finite`) walks the
base orbit from the state to -/+R and integrates the combined system from
there to +/-R in runs of at most 5 time units, rescaling (a, y, z) between
runs; `RiccatiTrace.r_at` reads r on [-R, R] off the runs' dense
solutions.

The limits r+/- = lim r_R^+/-(0) are read off one walk per sign
(`riccati_doubling`): the orbit and the columns (y, z)(0) = (1, 0) and
(0, 1) are integrated from the state towards the launch side only
(backward for '+', forward for '-'), each doubling of R extending the
walk from R/2 to R.  The solution that vanishes at -/+R is
y2(-/+R) col1 - y1(-/+R) col2, so

    r_R^+/-(0) = lam I(p0) - y1(-/+R) / y2(-/+R).

By Sturm separation that solution vanishes inside the window exactly when
y2, the solution vanishing at the state, does: BlowupInsideWindow is
raised at the first R whose window holds a conjugate time of the state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowupInsideWindow, NoConvergence, RiccatiUnavailable
from .fields import SMPoint, compile_fields, require_finite, state_split
from .flow import DEFAULT_ATOL, DEFAULT_RTOL, EXITED, DenseSolution, \
    Event, ThermostatSpec, integrate, integrate_orbit, integrate_to_boundary
from .geometry import derived_curvatures, grid_blocks

RICCATI_R_CAP = 2 ** 10
# the tolerances of conjugate-point and Riccati solves
JACOBI_RTOL = 1e-11
JACOBI_ATOL = 1e-12

# the zeros of the Jacobi field y (state coordinate 4), either way
Y_ZEROS = Event(g=lambda s: s[4], slope=lambda s, ds: ds[4], direction=0,
                terminal=False)
# the zeros of y2, the second column of `riccati_doubling`'s walk (state
# coordinate 5 of (x, y, theta, y1, z1, y2, z2)), either way
Y2_ZEROS = Event(g=lambda s: s[5], slope=lambda s, ds: ds[5], direction=0,
                 terminal=False)


class JacobiCoefficients:
    """The coefficient fields of the variational system for one spec, as
    `geometry.derived_curvatures` gives them (`curvatures`), and their
    compiled right-hand sides.  A spec keeps one, built on first use
    (`ThermostatSpec.coefficients()`)."""

    def __init__(self, spec: ThermostatSpec):
        self.curvatures = dc = derived_curvatures(spec.model, spec.lam)
        # the generator's coefficients and lam, lam I, core, V(lam)
        split = state_split(compile_fields((
            dc.F.c_x, dc.F.c_y, dc.F.c_theta, spec.lam, dc.lamI, dc.core,
            dc.Vlam)))

        def rhs(t, s):
            (x, y, th, a, jy, jz), at = split(s)
            dx, dy, dth, lam, lamI, core, Vlam = at(x, y, th)
            return (dx, dy, dth,
                    lam * jy,
                    lamI * jy + jz,
                    -core * jy + Vlam * jz)

        def columns_rhs(t, s):
            (x, y, th, y1, z1, y2, z2), at = split(s)
            dx, dy, dth, _, lamI, core, Vlam = at(x, y, th)
            return (dx, dy, dth,
                    lamI * y1 + z1, -core * y1 + Vlam * z1,
                    lamI * y2 + z2, -core * y2 + Vlam * z2)
        self._rhs, self._columns_rhs = rhs, columns_rhs

    def rhs(self):
        """Right-hand side f(t, s) of orbit + (a, y, z)."""
        return self._rhs

    def columns_rhs(self):
        """Right-hand side f(t, s) of orbit + two (y, z) columns, the state
        (x, y, theta, y1, z1, y2, z2), from the same compiled coefficients
        as `rhs`."""
        return self._columns_rhs


@dataclass
class JacobiTrajectory:
    """(a, y, z) samples along an orbit, with dense evaluation."""

    spec: ThermostatSpec
    t: np.ndarray
    states: np.ndarray          # columns x, y_base, theta, a, jy, jz
    sol: DenseSolution
    zeros: np.ndarray           # the times where y = 0, in time order

    @property
    def a(self):
        return self.states[:, 3]

    @property
    def y(self):
        return self.states[:, 4]

    @property
    def z(self):
        return self.states[:, 5]

    def conjugate_times(self):
        """The zeros of y after the start: the conjugate times of the
        solution y(0) = 0, y'(0) = 1."""
        return [float(t) for t in self.zeros if t > 1e-8]


def integrate_jacobi(spec, p0: SMPoint, t_span, initial=(0.0, 0.0, 1.0),
                     rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                     t_eval=None) -> JacobiTrajectory:
    """Integrate orbit + Jacobi state jointly from p0 over t_span.

    The trajectory is sampled at the ends of its steps, or at t_eval; the
    zeros of y on the way are located, the start included when y(0) = 0.
    """
    start = [*p0, *map(float, initial)]
    run = integrate(spec, [start], *t_span, rhs=spec.coefficients().rhs(),
                    event=Y_ZEROS, rtol=rtol, atol=atol)
    run.require_steps("Jacobi", [start])
    sol, t, states = run.sampled(0, t_eval)
    return JacobiTrajectory(spec=spec, t=t, states=states, sol=sol,
                            zeros=run.event_times(0))


def second_order_residual(traj: JacobiTrajectory):
    """max |y'' - (lam I + V(lam)) y' + K_lambda y| via finite differences
    of step 1e-4, at 50 times of the trajectory.

    Independent consistency check tying the first-order system to the
    second-order Jacobi equation.
    """
    dc = traj.spec.coefficients().curvatures
    h = 1e-4
    t0, t1 = float(traj.t[0]), float(traj.t[-1])
    lo, hi = min(t0, t1), max(t0, t1)
    ts = np.linspace(lo + 2 * h, hi - 2 * h, 50)
    s, s_plus, s_minus = (traj.sol(t) for t in (ts, ts + h, ts - h))
    # lam I at the three sample sets; V(lam) and K_lambda read at s only
    x, y, th = np.hstack((s, s_plus, s_minus))[:3]
    lamI_v, Vlam_v, Klam_v = (np.split(v, 3) for v in compile_fields(
        (dc.lamI, dc.Vlam, dc.K_lambda))(x, y, th))
    # y' = lam I y + z
    yd, yd_plus, yd_minus = (li * u[4] + u[5] for li, u in
                             zip(lamI_v, (s, s_plus, s_minus)))
    ydd = (yd_plus - yd_minus) / (2 * h)
    lamI, Vlam, Klam = lamI_v[0], Vlam_v[0], Klam_v[0]
    return float(np.max(np.abs(ydd - (lamI + Vlam) * yd + Klam * s[4])))


def detect_conjugate_points(spec, p0: SMPoint, T):
    """Zeros of y on (0, T] for the solution y(0)=0, y'(0)=1."""
    return integrate_jacobi(spec, p0, (0.0, T), rtol=JACOBI_RTOL,
                            atol=JACOBI_ATOL).conjugate_times()


@dataclass
class RiccatiTrace:
    """r_R^+/- on the window [-R, R], from the dense solutions of the
    renormalized runs that cover it."""

    R: float
    segments: list              # (t_lo, t_hi, sol)
    lamI_eval: object

    def r_at(self, t):
        """r = y'/y at parameter t in [-R, R], from the dense segment
        solutions; ValueError outside the window."""
        for t_lo, t_hi, sol in self.segments:
            if min(t_lo, t_hi) - 1e-12 <= t <= max(t_lo, t_hi) + 1e-12:
                s = np.asarray(sol(t))
                lamI = self.lamI_eval(s[0], s[1], s[2])
                return float((lamI * s[4] + s[5]) / s[4])
        raise ValueError(f"t={t!r} is outside the Riccati window "
                         f"[-{self.R!r}, {self.R!r}]")


def _renormalized_run(spec, rhs, event, state, t_now, t_end):
    """One run of `integrate` from state at t_now towards t_end, at most 5
    time units long, to JACOBI_RTOL and JACOBI_ATOL.  Returns its end
    time, the run, and the start state of the next run: the end state with
    the Jacobi coordinates (state[3:]) divided by their largest magnitude
    when that exceeds 1e6, which dodges overflow and leaves every ratio of
    Jacobi coordinates unchanged.
    """
    direction = 1.0 if t_end > t_now else -1.0
    t_next = t_now + direction * min(5.0, abs(t_end - t_now))
    # Far out, the orbit can come within ~1e-10 of the edge of the model's
    # chart (|k y| = pi/2 for phi = -log cos(k y) on K = -k^2), and a trial
    # RK stage can step past it, where log gives NaN.  `integrate` rejects
    # a NaN stage, so no NaN enters a result; if no step can avoid it, the
    # integration fails and StepFailure is raised.
    run = integrate(spec, [state], t_now, t_next, rhs=rhs, event=event,
                    rtol=JACOBI_RTOL, atol=JACOBI_ATOL)
    run.require_steps("Riccati", [state.tolist()])
    state = run.end_state[0].copy()
    scale = np.max(np.abs(state[3:]))
    if scale > 1e6:
        state[3:] /= scale
    return t_next, run, state


def solve_riccati_finite(spec, p0: SMPoint, R, sign="+", eval_window=None):
    """Riccati solution r_R^+/- via the linear Jacobi substitution.

    sign '+': y(-R)=0, y'(-R)=1, integrated forward over (-R, R];
    sign '-': y(+R)=0, y'(+R)=1, integrated backward over [-R, R).
    The base orbit is walked from the state to the start of the window,
    and the combined system is integrated from there in runs of at most 5
    time units, (a, y, z) being rescaled between runs (`_renormalized_run`;
    r = y'/y is invariant under the scaling).  Raises BlowupInsideWindow
    when y vanishes strictly inside the evaluation window (default: the
    open interval between the endpoints).
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    t_start = -float(R) if sign == "+" else float(R)
    base = integrate_orbit(spec, p0, (0.0, t_start), stop_at_boundary=False,
                           rtol=JACOBI_RTOL, atol=JACOBI_ATOL)
    coeffs = spec.coefficients()
    state = np.concatenate([base.state(t_start), [0.0, 0.0, 1.0]])
    t_end = -t_start
    direction = 1.0 if sign == "+" else -1.0
    t_now, zeros, segments = t_start, [], []
    while direction * (t_end - t_now) > 1e-14:
        t_next, run, state = _renormalized_run(spec, coeffs.rhs(), Y_ZEROS,
                                               state, t_now, t_end)
        zeros += [float(t) for t in run.event_times(0)
                  if abs(t - t_start) > 1e-9]
        segments.append((t_now, t_next, run.solution(0)))
        t_now = t_next
    if eval_window is None:
        eval_window = (-R + 1e-9, R - 1e-9)
    inside = [t for t in sorted(zeros) if eval_window[0] < t < eval_window[1]]
    if inside:
        raise BlowupInsideWindow(
            f"Jacobi solution vanished inside the window at t={inside[0]:.6g} "
            f"(conjugate point witness)", times=inside)
    return RiccatiTrace(R=float(R), segments=segments,
                        lamI_eval=coeffs.curvatures.lamI.eval)


def riccati_doubling(spec, p0: SMPoint, sign="+"):
    """Yield (R, r_R^+/-(0)) for R = 1, 2, 4, ... from one walk, without
    end: the caller decides when to stop.

    The walk follows the orbit from the state towards the launch side
    (backward for '+', forward for '-') with the two Jacobi columns
    (y, z)(0) = (1, 0) and (0, 1), in the width-7 state
    (x, y, theta, y1, z1, y2, z2); each doubling of R extends it from R/2
    to R.  The solution that vanishes at -/+R is
    y2(-/+R) col1 - y1(-/+R) col2, so

        r_R^+/-(0) = lam I(p0) - y1(-/+R) / y2(-/+R).

    BlowupInsideWindow is raised at the first R whose walk meets a zero of
    y2 inside (-R, 0) (resp. (0, R)), with `times` the state's conjugate
    times on that side, nearest first (the Sturm reading is in
    `solve_riccati_limit`).
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    coeffs = spec.coefficients()
    rhs = coeffs.columns_rhs()
    lamI = float(coeffs.curvatures.lamI.eval(*p0))
    direction = -1.0 if sign == "+" else 1.0
    state = np.array([*p0, 1.0, 0.0, 0.0, 1.0])
    t_now, R, zeros = 0.0, 1.0, []
    while True:
        while R - abs(t_now) > 1e-14:
            t_now, run, state = _renormalized_run(
                spec, rhs, Y2_ZEROS, state, t_now, direction * R)
            # y2 = 0 at the start: not a conjugate time
            zeros += [float(t) for t in run.event_times(0) if abs(t) > 1e-9]
        if zeros:
            raise BlowupInsideWindow(
                f"Jacobi solution vanished inside the window of R={R:g}: "
                f"conjugate time t={zeros[0]:.6g} of the state "
                f"(conjugate point witness)", times=zeros)
        yield R, lamI - state[3] / state[5]
        R *= 2.0


def solve_riccati_limit(spec, p0: SMPoint, tol=1e-6):
    """Limit Riccati values (r+, r-) at the state by R-doubling.

    Each sign reads r_R(0) for R = 1, 2, 4, ... off one walk of the orbit
    and two Jacobi columns (`riccati_doubling`), up to RICCATI_R_CAP:

        r_R^+/-(0) = lam I(p0) - y1(-/+R) / y2(-/+R).

    By Sturm separation the Jacobi solution vanishing at -/+R vanishes
    inside its window exactly when y2, the solution vanishing at the
    state, does: BlowupInsideWindow is raised at the first R whose window
    holds a conjugate time of the state, with `times` those conjugate
    times.  The sequence r_R^+(0) must be decreasing and r_R^-(0)
    increasing; NoConvergence on monotonicity loss or cap overrun.
    """
    limits = {}
    for sign in ("+", "-"):
        prev = None
        for R, r0 in riccati_doubling(spec, p0, sign):
            if prev is not None:
                if sign == "+" and r0 > prev + 1e-9:
                    raise NoConvergence(
                        f"r_R^+(0) not decreasing at R={R}")
                if sign == "-" and r0 < prev - 1e-9:
                    raise NoConvergence(
                        f"r_R^-(0) not increasing at R={R}")
                if abs(r0 - prev) < tol:
                    limits[sign] = r0
                    break
            prev = r0
            if 2.0 * R > RICCATI_R_CAP:
                raise NoConvergence(
                    f"R-doubling exceeded cap {RICCATI_R_CAP}")
    r_plus, r_minus = limits["+"], limits["-"]
    if not r_plus > r_minus - 1e-9:
        raise NoConvergence("ordering r+ > r- lost in the limit")
    return r_plus, r_minus


def riccati_bound_constants(spec):
    """Constants B, C, A: B^2 >= sup|K_lambda|, C >= sup|lam I + V(lam)|,
    the suprema taken over a 12 x 12 x 24 validation grid, folded block by
    block (`geometry.grid_blocks`).  DomainError (`fields.require_finite`)
    names the first of the two fields that is not finite at a node, and
    the first such node: no bound can be read off it."""
    dc = spec.coefficients().curvatures
    bundle = compile_fields((dc.K_lambda, dc.lamI + dc.Vlam))
    names = ("Riccati constant field K_lambda",
             "Riccati constant field lam I + V(lam)")
    shape = (12, 12, 24)
    sup_Klam = sup_div = 0.0
    for lo, points in grid_blocks(spec.model, shape):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            Klam, div = bundle(*points)
        require_finite(names, (Klam, div), points, shape, start=lo)
        sup_Klam = np.maximum(sup_Klam, np.max(np.abs(Klam)))
        sup_div = np.maximum(sup_div, np.max(np.abs(div)))
    B = float(np.sqrt(sup_Klam))
    C = float(sup_div)
    return {"B": B, "C": C, "A": max(B, C)}


def _comparison_w_plus(t, A, D):
    """Closed-form solution of w' - A w + w^2 - A^2 = 0 (upper comparison)."""
    e = np.exp(-A * np.sqrt(5.0) * t + D)
    return A / (1.0 - e) + (A * (np.sqrt(5.0) - 1.0) / 2.0) * (1.0 + e) / (1.0 - e)


def _comparison_w_minus(t, A, E):
    """Closed-form solution of w' + A w + w^2 - A^2 = 0 (lower comparison)."""
    p = np.exp(A * np.sqrt(5.0) * t + E)
    return -A * p / (p - 1.0) + (A * (1.0 + np.sqrt(5.0)) / 2.0) * (p + 1.0) / (p - 1.0)


def comparison_ode_residuals(A, D=0.0, E=0.0):
    """Residuals of the comparison closed forms in their ODEs, at 11 times
    in [0.5, 3].

    Derivatives are taken by complex step, so the residual isolates any
    error in the printed formulas rather than in differencing.
    """
    ts = np.linspace(0.5, 3.0, 11)
    h = 1e-20
    wp = _comparison_w_plus(ts, A, D)
    dwp = np.imag(_comparison_w_plus(ts + 1j * h, A, D)) / h
    res_p = np.max(np.abs(dwp - A * wp + wp ** 2 - A ** 2))
    wm = _comparison_w_minus(ts, A, E)
    dwm = np.imag(_comparison_w_minus(ts + 1j * h, A, E)) / h
    res_m = np.max(np.abs(dwm + A * wm + wm ** 2 - A ** 2))
    return {"w_plus": float(res_p), "w_minus": float(res_m)}


def exterior_fan_r(spec, states):
    """Fan-variant r (= z/y) at disk states from an exterior starting point.

    states is an (N, 3) array-like of (x, y, theta): an array, or a list
    of `SMPoint`s.  For each state the backward orbit is continued a
    margin of 0.1 beyond the boundary; the Jacobi solution launched there
    from the vertical direction defines r along the fan of orbits through
    that point.  All states are integrated together, in three passes:
    backward to the boundary, from the state to the margin beyond it, and
    the Jacobi solution from there forward to the state.  Raises
    RiccatiUnavailable when a backward orbit is trapped or y vanishes
    before reaching the state.
    """
    starts = np.asarray(states, dtype=float).reshape(-1, 3)
    back = integrate_to_boundary(spec, starts, direction=-1)
    back.require_steps()
    if np.any(back.outcome != EXITED):
        raise RiccatiUnavailable("backward orbit trapped")
    t0 = back.end_time - 0.1
    ext = integrate(spec, starts, 0.0, t0)
    ext.require_steps()
    launch = np.column_stack([ext.end_state,
                              np.tile([0.0, 0.0, 1.0], (len(starts), 1))])
    fan = integrate(spec, launch, t0, 0.0, rhs=spec.coefficients().rhs(),
                    event=Y_ZEROS)
    fan.require_steps()
    late = fan.event_t > t0[fan.event_orbit] + 1e-9
    if np.any(late):
        raise RiccatiUnavailable(
            f"conjugate point on the fan at "
            f"t={fan.event_t[np.argmax(late)]:.6g}")
    return fan.end_state[:, 5] / fan.end_state[:, 4]
