"""Orbit integration: unit speed, boundary exits, trapping, regularity."""

import numpy as np
import pytest

import thermolab.flow
from thermolab.errors import TrappedOrbit
from thermolab.fields import SMPoint, SMScalarField
from thermolab.flow import ThermostatSpec, exit_time, exp_map, \
    geodesic_spec, integrate_orbit, nontrapping_scan, scan_regularity
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
