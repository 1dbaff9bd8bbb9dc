"""Orbit integration: unit speed, boundary exits, trapping."""

import ast
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import thermolab.flow
from thermolab.errors import DomainError, StepFailure, TrappedOrbit
from thermolab.fields import SMPoint, SMScalarField
from thermolab.flow import DEFAULT_ATOL, DEFAULT_RTOL, EXITED, STEP_FAILED, \
    TRAPPED, ThermostatSpec, _attempt, _derivatives, _float_attempt, \
    _float_step_factor, _rms, _step_factor, exit_time, geodesic_spec, \
    integrate, integrate_orbit, integrate_to_boundary, nontrapping_scan
from thermolab.geometry import build_surface_model, euclidean_disk, flat_torus
from thermolab.jacobi import JACOBI_ATOL, JACOBI_RTOL, Y_ZEROS, \
    integrate_jacobi, solve_riccati_finite


def test_flat_geodesics_are_straight():
    spec = geodesic_spec(flat_torus())
    p0 = SMPoint(0.1, 0.2, 0.7)
    orbit = integrate_orbit(spec, p0, (0.0, 3.0),
                            t_eval=np.linspace(0.0, 3.0, 30))
    xs = 0.1 + orbit.t * np.cos(0.7)
    ys = 0.2 + orbit.t * np.sin(0.7)
    assert np.max(np.abs(orbit.states[:, 0] - xs)) < 1e-9
    assert np.max(np.abs(orbit.states[:, 1] - ys)) < 1e-9
    assert np.max(np.abs(orbit.states[:, 2] - 0.7)) < 1e-12


def test_unit_speed_defect():
    model = build_surface_model("conformal_torus",
                                phi="0.1*sin(2*pi*x)*cos(2*pi*y)")
    spec = ThermostatSpec(model, SMScalarField.from_expression(
        "0.2*sin(2*pi*y)"))
    orbit = integrate_orbit(spec, SMPoint(0.3, 0.4, 1.1), (0.0, 5.0),
                            t_eval=np.linspace(0.0, 5.0, 60))
    assert orbit.unit_speed_defect() < 1e-12


def test_empty_span_keeps_the_start():
    spec = geodesic_spec(flat_torus())
    orbit = integrate_orbit(spec, SMPoint(0.1, 0.2, 0.3), (0.0, 0.0))
    assert list(orbit.t) == [0.0, 0.0]
    assert np.array_equal(orbit.states, [[0.1, 0.2, 0.3]] * 2)
    assert np.array_equal(orbit.state(0.0), [0.1, 0.2, 0.3])


def test_disk_chord_exit_time():
    # Euclidean geodesic from boundary point at angle beta off inward
    # normal: chord length 2 cos(beta)
    spec = geodesic_spec(euclidean_disk())
    s = 0.9
    for beta in (0.0, 0.4, -1.1):
        p = SMPoint(np.cos(s), np.sin(s), s + np.pi + beta)
        t = exit_time(spec, p, direction=1)
        assert t == pytest.approx(2 * np.cos(beta), abs=1e-9)


def test_constant_thermostat_circles():
    # lam = c on the Euclidean disk bends orbits into circles of radius 1/c
    spec = ThermostatSpec(euclidean_disk(), SMScalarField.constant(0.5))
    orbit = integrate_orbit(spec, SMPoint(0.0, 0.0, 0.0), (0.0, 1.5),
                            stop_at_boundary=False,
                            t_eval=np.linspace(0.0, 1.5, 20))
    # circle center is at (0, 1/c) = (0, 2)
    r = np.hypot(orbit.states[:, 0], orbit.states[:, 1] - 2.0)
    assert np.max(np.abs(r - 2.0)) < 1e-9


def test_strong_thermostat_traps():
    # tight circles of radius 1/5 never reach the boundary from the center
    spec = ThermostatSpec(euclidean_disk(), SMScalarField.constant(5.0))
    with pytest.raises(TrappedOrbit):
        exit_time(spec, SMPoint(0.0, 0.0, 0.3), horizon=20.0)


def test_nontrapping_scan():
    spec = geodesic_spec(euclidean_disk())
    scan = nontrapping_scan(spec, grid_spec=(3, 4, 4), T_max=10.0)
    assert scan["nontrapping_at_resolution"]
    assert scan["n_sampled"] == 3 * 4 * 4


def test_backward_integration():
    spec = geodesic_spec(euclidean_disk())
    t_exit = exit_time(spec, SMPoint(0.0, 0.0, 0.0), direction=-1)
    assert t_exit == pytest.approx(-1.0, abs=1e-9)


def test_rhs_built_once_per_spec(monkeypatch):
    calls = []
    build = thermolab.flow.thermostat_generator

    def counted(model, lam):
        calls.append(1)
        return build(model, lam)
    monkeypatch.setattr(thermolab.flow, "thermostat_generator", counted)
    spec = ThermostatSpec(euclidean_disk(), SMScalarField.from_expression(
        "0.2 - 0.1*x"))
    f = spec.rhs()
    assert spec.rhs() is f
    orbit = integrate_orbit(spec, SMPoint(0.0, 0.0, 0.3), (0.0, 5.0))
    orbit.unit_speed_defect()
    exit_time(spec, SMPoint(0.1, 0.0, 0.3))
    assert len(calls) == 1
    # the same values for a state given as a list or as an array
    assert f(0.0, [0.1, 0.2, 0.3]) == f(0.0, np.array([0.1, 0.2, 0.3]))


def _same_bits(a, b):
    """a and b hold the same float64 values, bit for bit, NaN equal to
    NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and all(
        u.tobytes() == v.tobytes() or (np.isnan(u) and np.isnan(v))
        for u, v in zip(a.ravel(), b.ravel()))


@pytest.mark.parametrize("lam", ["0.2*sin(2*pi*y)", "-x*y"])
def test_rhs_list_states_match_array_states(lam):
    # the one-orbit step hands the RHS closures lists, which go to the
    # float binding as they are; a list of ints or with -0.0 gives the
    # bits of the float64 array (with int arithmetic, -x*y at x = 0 would
    # be 0, not -0.0)
    spec = ThermostatSpec(
        build_surface_model("conformal_torus",
                            phi="0.1*sin(2*pi*x)*cos(2*pi*y)"),
        SMScalarField.from_expression(lam))
    coefficients = spec.coefficients()
    for rhs, states in (
            (spec.rhs(), [[0, 1, 0], [-0.0, 1, -0.0], [0.1, 0.2, 0.3]]),
            (coefficients.rhs(), [[0, 1, 0, 0, 1, -1],
                                  [-0.0, 0.5, 0, -0.0, -0.0, 1.0]]),
            (coefficients.columns_rhs(), [[0, 1, 0, 1, 0, -0.0, 1],
                                          [-0.0, 0, 2, 0, -1, 1, -0.0]])):
        for state in states:
            values = rhs(0.0, state)
            assert all(type(v) is float for v in values)
            assert _same_bits(values,
                              rhs(0.0, np.array(state, dtype=float))), state


# ---------------------------------------------------------------------------
# The batched engine against scipy's RK45, one solve_ivp call per orbit
# ---------------------------------------------------------------------------

def curved_disk_spec():
    model = build_surface_model("conformal_disk",
                                phi="0.04*(x^2+y^2) + 0.01*x*y")
    return ThermostatSpec(model, SMScalarField.from_expression(
        "0.2 - 0.03*x + 0.05*sin(theta)"))


def leaving_disk(t, s):
    return 1.0 - (s[0] * s[0] + s[1] * s[1])


leaving_disk.terminal = True
leaving_disk.direction = -1


def reference_orbit(spec, state, t_end):
    """solve_ivp with the engine's tolerances and boundary event."""
    return solve_ivp(spec.rhs(), (0.0, t_end), state, method="RK45",
                     rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, dense_output=True,
                     events=leaving_disk)


@pytest.mark.parametrize("direction", [1, -1])
def test_batch_matches_integrate_orbit(direction):
    spec = curved_disk_spec()
    rng = np.random.default_rng(8)
    r = np.sqrt(rng.uniform(0.0, 0.95, 12))
    a = rng.uniform(0.0, 2 * np.pi, 12)
    states = np.column_stack([r * np.cos(a), r * np.sin(a),
                              rng.uniform(0.0, 2 * np.pi, 12)])
    batch = integrate_to_boundary(spec, states, direction=direction)
    assert np.all(batch.outcome == EXITED)
    steps = 0
    for i, s in enumerate(states):
        ref = reference_orbit(spec, s, direction * 100.0)
        (t_exit,) = ref.t_events[0]
        assert batch.end_time[i] == pytest.approx(t_exit, abs=1e-10)
        assert np.allclose(batch.exit_state[i], ref.y_events[0][0],
                           rtol=0, atol=1e-10)
        ts = np.linspace(0.0, t_exit, 9)
        assert np.allclose(batch.state(np.full(9, i), ts), ref.sol(ts).T,
                           rtol=0, atol=1e-10)
        assert batch.solution(i).ts.size == ref.sol.ts.size
        steps += ref.sol.ts.size - 1
    # the same steps as solve_ivp, taken for all orbits at once
    assert batch.accepted == steps
    assert batch.iterations < batch.accepted
    assert batch.rhs_calls == 2 + 6 * batch.iterations


def test_batch_trapped_ray_leaves_others_unchanged():
    # radius-0.2 thermostat circles: the orbit from the centre never exits,
    # the two near the rim leave within the horizon
    spec = ThermostatSpec(euclidean_disk(), SMScalarField.constant(5.0))
    leaving = np.array([[0.9, 0.0, 0.0], [0.0, -0.85, 4.0]])
    mixed = np.vstack([leaving[:1], [[0.0, 0.0, 0.3]], leaving[1:]])
    alone = integrate_to_boundary(spec, leaving, horizon=5.0)
    batch = integrate_to_boundary(spec, mixed, horizon=5.0)
    assert list(batch.outcome) == [EXITED, TRAPPED, EXITED]
    assert batch.end_time[1] == 5.0
    assert "trapped past horizon 5.0" in batch.reason(1)
    assert np.all(np.isnan(batch.exit_state[1]))
    for i, j in ((0, 0), (2, 1)):
        assert batch.end_time[i] == pytest.approx(alone.end_time[j],
                                                  abs=1e-13)
        assert np.allclose(batch.exit_state[i], alone.exit_state[j],
                           rtol=0, atol=1e-13)
        ref = reference_orbit(spec, mixed[i], 5.0)
        assert batch.end_time[i] == pytest.approx(ref.t_events[0][0],
                                                  abs=1e-10)


def test_batch_needs_disk_states():
    spec = curved_disk_spec()
    with pytest.raises(DomainError, match="state 1"):
        integrate_to_boundary(spec, [[0.0, 0.0, 0.0], [1.2, 0.0, 0.0]])
    with pytest.raises(DomainError):
        integrate_to_boundary(geodesic_spec(flat_torus()), [[0.1, 0.2, 0.3]])


def test_batch_step_failure_matches_integrate_orbit():
    # lam = sqrt(0.5 - x) is NaN past x = 0.5: trial stages there are
    # rejected until the step size falls below the float spacing of t,
    # where solve_ivp fails too; the other orbit of the batch exits
    spec = ThermostatSpec(euclidean_disk(),
                          SMScalarField.from_expression("sqrt(0.5 - x)"))
    states = [[0.3, 0.0, 0.0], [-0.3, 0.0, 3.0]]
    with np.errstate(invalid="ignore"):
        batch = integrate_to_boundary(spec, states)
        failing = reference_orbit(spec, states[0], 100.0)
        exiting = reference_orbit(spec, states[1], 100.0)
        with pytest.raises(StepFailure, match="step size below"):
            integrate_orbit(spec, SMPoint(*states[0]), (0.0, 100.0))
    assert failing.status == -1
    assert list(batch.outcome) == [STEP_FAILED, EXITED]
    assert batch.reason(0).startswith("integration failed: step size")
    # a path from x = 0.3 to x = 0.5 at unit speed takes at least 0.2
    assert 0.2 < batch.end_time[0] < 0.21
    assert batch.end_time[0] == pytest.approx(failing.t[-1], abs=1e-10)
    assert batch.end_time[1] == pytest.approx(exiting.t_events[0][0],
                                              abs=1e-10)


def test_step_failures_name_stage_and_start_state():
    # the lam of the test above: each one-orbit integration fails at
    # x = 0.5 and names its stage and the exact state it started from
    spec = ThermostatSpec(euclidean_disk(),
                          SMScalarField.from_expression("sqrt(0.5 - x)"))
    p0 = SMPoint(0.3, 0.1, 0.2)
    failures = {}
    # lam's x-derivative divides by zero at x = 0.5 in a Riccati stage
    with np.errstate(invalid="ignore", divide="ignore"):
        for stage, solve in (
                ("orbit", lambda: integrate_orbit(spec, p0, (0.0, 100.0))),
                ("Jacobi", lambda: integrate_jacobi(spec, p0, (0.0, 100.0))),
                ("Riccati", lambda: solve_riccati_finite(spec, p0, 1.0))):
            with pytest.raises(StepFailure, match="step size below") as err:
                solve()
            failures[stage] = str(err.value)
        base = integrate_orbit(spec, p0, (0.0, -1.0), stop_at_boundary=False,
                               rtol=JACOBI_RTOL, atol=JACOBI_ATOL)
    starts = {"orbit": [0.3, 0.1, 0.2],
              "Jacobi": [0.3, 0.1, 0.2, 0.0, 0.0, 1.0],
              "Riccati": [*base.state(-1.0), 0.0, 0.0, 1.0]}
    for stage, message in failures.items():
        head, reason = message.split(": ", 1)
        assert head.split(" ", 1)[0] == stage
        assert ast.literal_eval(head.split(" ", 1)[1]) == starts[stage]
        assert reason.startswith("integration failed: step size below")


def test_nan_stages_fail_steps_without_warnings():
    # the failures of the test above with no np.errstate around them: under
    # pytest's error::RuntimeWarning a numpy warning from a NaN stage would
    # escape as RuntimeWarning, so this passes only if each run rejects its
    # NaN stages quietly and ends in StepFailure or STEP_FAILED
    spec = ThermostatSpec(euclidean_disk(),
                          SMScalarField.from_expression("sqrt(0.5 - x)"))
    p0 = SMPoint(0.3, 0.1, 0.2)
    error_state = np.geterr()
    base = integrate_orbit(spec, p0, (0.0, -1.0), stop_at_boundary=False,
                           rtol=JACOBI_RTOL, atol=JACOBI_ATOL)
    starts = {"orbit": "[0.3, 0.1, 0.2]",
              "Jacobi": "[0.3, 0.1, 0.2, 0.0, 0.0, 1.0]",
              "Riccati": repr([*base.state(-1.0).tolist(), 0.0, 0.0, 1.0])}
    for stage, solve in (
            ("orbit", lambda: integrate_orbit(spec, p0, (0.0, 100.0))),
            ("Jacobi", lambda: integrate_jacobi(spec, p0, (0.0, 100.0))),
            ("Riccati", lambda: solve_riccati_finite(spec, p0, 1.0))):
        with pytest.raises(StepFailure) as err:
            solve()
        assert str(err.value).startswith(
            f"{stage} {starts[stage]}: integration failed: step size below")
    states = [[0.3, 0.1, 0.2], [-0.3, 0.0, 3.0]]
    batch = integrate_to_boundary(spec, states)
    assert list(batch.outcome) == [STEP_FAILED, EXITED]
    with pytest.raises(StepFailure) as err:
        batch.require_steps("ray", states)
    assert str(err.value).startswith(
        "ray [0.3, 0.1, 0.2]: integration failed: step size below")
    assert np.geterr() == error_state


# ---------------------------------------------------------------------------
# The one-orbit loop: its float controller and its RHS calls
# ---------------------------------------------------------------------------

def test_one_orbit_float_fallback_fails_steps_as_numpy_does():
    # lam divides by zero at the start (x = 0.3) and takes sin(1/0) there
    # (y = 0.2): the float binding raises at such stages and each is
    # evaluated again by the numpy kernel, whose inf and nan reject every
    # attempt, quietly under pytest's error::RuntimeWarning; the counts
    # are those of the numpy kernel alone: 462 rejected attempts, then
    # STEP_FAILED at the start
    spec = ThermostatSpec(
        build_surface_model("conformal_torus",
                            phi="0.1*sin(2*pi*x)*cos(2*pi*y)"),
        SMScalarField.from_expression("0.2/(x - 0.3) + sin(1/(y - 0.2))"))
    for rhs, start in ((None, [0.3, 0.2, 0.0]),
                       (spec.coefficients().rhs(),
                        [0.3, 0.2, 0.0, 0.0, 0.0, 1.0])):
        run = integrate(spec, [start], 0.0, 2.0, rhs=rhs)
        assert list(run.outcome) == [STEP_FAILED]
        assert (run.iterations, run.accepted) == (462, 0)
        assert run.end_time.tolist() == [0.0]
        assert run.end_state.tolist() == [start]


def _pinned_rhs_cases():
    """(rhs, state) pairs of widths 3, 6 and 7, among them states from
    which a step either way leaves lam's domain (NaN stages) and one where
    the float binding falls back to numpy (the lam of the test above)."""
    torus = build_surface_model("conformal_torus",
                                phi="0.1*sin(2*pi*x)*cos(2*pi*y)")
    smooth = ThermostatSpec(torus, SMScalarField.from_expression(
        "0.2*sin(2*pi*y)"))
    nan = ThermostatSpec(euclidean_disk(),
                         SMScalarField.from_expression("sqrt(0.5 - x)"))
    fallback = ThermostatSpec(torus, SMScalarField.from_expression(
        "0.2/(x - 0.3) + sin(1/(y - 0.2))"))
    cases = []
    for spec, start in ((smooth, [0.1, 0.2, 0.3]), (nan, [0.49, 0.0, 0.1]),
                        (nan, [0.49, 0.0, 3.2]), (fallback, [0.3, 0.2, 0.0])):
        cases += [(spec.rhs(), start),
                  (spec.coefficients().rhs(), start + [0.0, 0.0, 1.0]),
                  (spec.coefficients().columns_rhs(),
                   start + [1.0, 0.0, 0.0, 1.0])]
    return cases


def _both_attempts(rhs, flat_rhs, start, h, atol=DEFAULT_ATOL):
    """One step from start by `_attempt`, as the batched loop runs it (on
    flat_rhs, with one step size per value), and by `_float_attempt` (on
    rhs, from a list); asserts that the new states, every stage row, the
    error norms and the accept flags have the same bits, and returns the
    stages K and the error norm."""
    dim = len(start)
    with np.errstate(all="ignore"):
        f = np.array(flat_rhs(0.0, np.array(start)), dtype=float)
        y_new, K, e = _attempt(flat_rhs, np.array(start), f,
                               np.full(dim, h), DEFAULT_RTOL, atol)
        norm = _rms(e.reshape(dim, 1))[0]
        ok, _ = _step_factor(norm, False)
        float_y_new, float_K, square_sum = _float_attempt(
            rhs, list(start), f, h, DEFAULT_RTOL, atol)
    float_norm = math.sqrt(square_sum) / math.sqrt(dim)
    float_ok, _ = _float_step_factor(float_norm, False)
    assert type(float_y_new) is list
    assert _same_bits(float_y_new, y_new), start
    for row, float_row in zip(K, float_K):
        assert _same_bits(float_row, row), start
    assert _same_bits(float_norm, norm), start
    assert float_ok is bool(ok), start
    return K, norm


@pytest.mark.parametrize("h", [0.05, -0.05, 0.0])
def test_float_attempt_matches_batched_attempt(h):
    # the one-orbit step on Python floats against the batched step (the
    # RHS on (d, 1) blocks by the numpy kernel), bit for bit, NaN stages
    # and the float binding's fallback included
    kinds = set()
    for rhs, start in _pinned_rhs_cases():
        dim = len(start)

        def flat_rhs(t, s, rhs=rhs, dim=dim):
            return _derivatives(rhs, s.reshape(dim, -1)).reshape(-1)
        K, _ = _both_attempts(rhs, flat_rhs, start, h)
        kinds.add((dim, start[0], np.isfinite(K).all()))
    # every width, with finite stages, and NaN stages from each lam
    for dim in (3, 6, 7):
        assert {(dim, 0.1, True), (dim, 0.3, False)} <= kinds
        if h != 0:
            assert (dim, 0.49, False) in kinds


def test_float_attempt_scale_propagates_nan():
    # stages 2 and 4 infinite in the first coordinate: the 5th-order sum
    # weighs them + and -, so the new value is NaN, while the error sum
    # weighs both + and is inf; the error norm is NaN only because the
    # scale max(|y|, |y_new|) is, as np.maximum gives it
    calls = []

    def rhs(t, s):
        # call 1 gives f, then each step makes six: stage k is call k + 1
        calls.append(1)
        return [math.inf if len(calls) % 6 in (3, 5) else 1.0, 1.0, 1.0]
    K, norm = _both_attempts(rhs, rhs, [0.1, 0.2, 0.3], 0.1)
    assert np.isinf(K[[2, 4], 0]).all()
    assert np.isfinite(np.delete(K, [2, 4], axis=0)).all()
    assert math.isnan(norm)


def test_float_attempt_zero_scale_gives_numpy_nan():
    # atol = 0 at a coordinate that stays 0 (theta on a flat geodesic):
    # the scaled error there is 0/0, NaN as numpy gives it, not a
    # ZeroDivisionError
    rhs = geodesic_spec(flat_torus()).rhs()
    _, norm = _both_attempts(rhs, rhs, [0.1, 0.2, 0.0], 0.1, atol=0.0)
    assert math.isnan(norm)


@pytest.mark.parametrize("rejected", [False, True])
def test_float_controller_matches_step_factor(rejected):
    # the one-orbit loop's controller on Python floats against the
    # batched numpy one, bit for bit, also at 0, overflowing powers,
    # infinite and NaN error norms
    norms = [0.0, 1e-300, 0.3, math.nextafter(1.0, 0.0), 1.0, 7.5, 1e300,
             math.inf, math.nan]
    ok, factor = _step_factor(np.array(norms), np.full(len(norms), rejected))
    for i, norm in enumerate(norms):
        float_ok, float_factor = _float_step_factor(norm, rejected)
        assert type(float_factor) is float
        assert float_ok is bool(ok[i])
        assert np.float64(float_factor).tobytes() == factor[i].tobytes()
        scalar_ok, scalar_factor = _step_factor(np.float64(norm), rejected)
        assert scalar_ok == float_ok
        assert np.float64(scalar_factor).tobytes() == factor[i].tobytes()


def test_rhs_calls_count_every_call():
    # a flow orbit and a Jacobi run with its zeros, each through a counting
    # rhs: rhs_calls is the true number of calls, two for the initial step
    # and six per attempt, accepted or rejected
    spec = ThermostatSpec(
        build_surface_model("conformal_torus",
                            phi="0.1*sin(2*pi*x)*cos(2*pi*y)"),
        SMScalarField.from_expression("0.2*sin(2*pi*y)"))
    for rhs, start, t_end, event in (
            (spec.rhs(), [0.1, 0.2, 0.3], 40.0, None),
            (spec.coefficients().rhs(), [0.6, 0.4, 1.1, 0.0, 0.0, 1.0],
             10.0, Y_ZEROS)):
        calls = []

        def counted(t, s, rhs=rhs):
            calls.append(1)
            return rhs(t, s)
        run = integrate(spec, [start], 0.0, t_end, rhs=counted, event=event)
        assert len(calls) == run.rhs_calls == 2 + 6 * run.iterations
        assert run.iterations == run.accepted + run.rejected
        assert run.rejected > 0
        assert run.accepted == run.solution(0).ts.size - 1
    assert run.event_t.size > 1
