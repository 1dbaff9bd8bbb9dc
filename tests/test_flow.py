"""Orbit integration: unit speed, boundary exits, trapping, regularity."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import thermolab.flow
from thermolab.errors import DomainError, StepFailure, TrappedOrbit
from thermolab.fields import SMPoint, SMScalarField
from thermolab.flow import DEFAULT_ATOL, DEFAULT_RTOL, EXITED, STEP_FAILED, \
    TRAPPED, ThermostatSpec, exit_time, exp_map, geodesic_spec, \
    integrate_orbit, integrate_to_boundary, nontrapping_scan, \
    scan_regularity
from thermolab.geometry import build_surface_model, euclidean_disk, flat_torus


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


def test_exp_map_flat():
    spec = geodesic_spec(euclidean_disk())
    q = exp_map(spec, 0.1, 0.2, 0.5, 0.7)
    assert np.allclose(q, [0.1 + 0.7 * np.cos(0.5), 0.2 + 0.7 * np.sin(0.5)],
                       atol=1e-10)


def test_scan_regularity_and_nontrapping():
    spec = geodesic_spec(euclidean_disk())
    assert scan_regularity(spec, SMPoint(0.2, 0.1, 0.4))["regular"]
    # a boundary-tangent state is not regular
    s = 0.3
    tangent = SMPoint(np.cos(s), np.sin(s), s + np.pi / 2)
    assert not scan_regularity(spec, tangent)["regular"]
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


def test_rhs_with_callable_intensity():
    # a closure-backed intensity cannot be compiled: the right-hand side
    # falls back to the fields' own evaluators and agrees with the
    # expression-backed one
    model = build_surface_model("conformal_disk", phi="0.04*(x^2+y^2)")
    lam_text = "0.2 - 0.1*x"
    compiled = ThermostatSpec(model, SMScalarField.from_expression(lam_text))
    lam = SMScalarField.from_expression(lam_text)
    closure = ThermostatSpec(model, SMScalarField.from_callable(
        lam.eval, dx=lam.partial("x"), dy=lam.partial("y"),
        dtheta=lam.partial("theta")))
    assert closure.lam.expression is None
    for s in ([0.1, 0.2, 0.3], [-0.5, 0.4, 2.0]):
        assert np.allclose(closure.rhs()(0.0, s), compiled.rhs()(0.0, s),
                           rtol=1e-15, atol=1e-15)


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
