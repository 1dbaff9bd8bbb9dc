"""Jacobi fields, conjugate points, and the Riccati solutions."""

import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from thermolab.fields import SMPoint, SMScalarField
from thermolab.flow import DEFAULT_ATOL, DEFAULT_RTOL, ThermostatSpec, \
    geodesic_spec
from thermolab.geometry import build_surface_model, constant_curvature_model, \
    euclidean_disk, flat_torus
from thermolab.errors import BlowupInsideWindow
from thermolab.jacobi import JacobiCoefficients, comparison_ode_residuals, \
    detect_conjugate_points, exterior_fan_r, integrate_jacobi, riccati_bound_constants, \
    riccati_doubling, second_order_residual, solve_riccati_finite, \
    solve_riccati_limit


def test_flat_jacobi_linear_growth():
    spec = geodesic_spec(flat_torus())
    traj = integrate_jacobi(spec, SMPoint(0.1, 0.2, 0.5), (0.0, 4.0),
                            initial=(0.0, 0.0, 1.0),
                            t_eval=np.linspace(0.0, 4.0, 20))
    # y'' = 0 with y(0)=0, y'(0)=1: y = t, z = 1
    assert np.max(np.abs(traj.y - traj.t)) < 1e-9
    assert np.max(np.abs(traj.z - 1.0)) < 1e-9


def test_hyperbolic_jacobi_sinh():
    spec = geodesic_spec(constant_curvature_model(-1.0))
    traj = integrate_jacobi(spec, SMPoint(0.0, 0.0, 0.3), (0.0, 2.0),
                            initial=(0.0, 0.0, 1.0),
                            t_eval=np.linspace(0.0, 2.0, 15))
    assert np.max(np.abs(traj.y - np.sinh(traj.t))) < 1e-8


def test_second_order_residual_small():
    model = build_surface_model("conformal_torus",
                                phi="0.1*sin(2*pi*x)*cos(2*pi*y)")
    spec = ThermostatSpec(model, SMScalarField.from_expression(
        "0.2*sin(2*pi*y)"))
    traj = integrate_jacobi(spec, SMPoint(0.1, 0.2, 0.3), (0.0, 3.0),
                            initial=(0.0, 1.0, 0.2),
                            t_eval=np.linspace(0.0, 3.0, 40))
    assert second_order_residual(traj) < 1e-5


def y_zero(t, s):
    return s[4]


@pytest.mark.parametrize("T", [7.0, -7.0])
def test_integrate_jacobi_matches_solve_ivp(T):
    # on the unit sphere y = sin t: zeros at 0, where it starts, at pi
    # (falling) and at 2 pi (rising), or at -pi and -2 pi backward
    spec = geodesic_spec(constant_curvature_model(1.0))
    coeffs = JacobiCoefficients(spec)
    p0 = SMPoint(0.1, -0.2, 0.4)
    start = [p0.x, p0.y, p0.theta, 0.0, 0.0, 1.0]
    for t_eval in (None, np.linspace(0.0, T, 25)):
        traj = integrate_jacobi(spec, p0, (0.0, T), t_eval=t_eval)
        ref = solve_ivp(coeffs.rhs(), (0.0, T), start, method="RK45",
                        rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                        dense_output=True, events=y_zero, t_eval=t_eval)
        assert traj.sol.ts.size == ref.sol.ts.size    # the same steps
        assert np.allclose(traj.sol.ts, ref.sol.ts, rtol=0, atol=1e-10)
        assert np.allclose(traj.t, ref.t, rtol=0, atol=1e-10)
        assert np.allclose(traj.states, ref.y.T, rtol=0, atol=1e-10)
        ts = np.linspace(0.0, T, 37)
        assert np.allclose(traj.sol(ts), ref.sol(ts), rtol=0, atol=1e-10)
        assert np.allclose(traj.zeros, ref.t_events[0], rtol=0, atol=1e-10)
        assert np.allclose(traj.zeros, np.sign(T) * np.pi * np.arange(3),
                           rtol=0, atol=1e-8)


def test_conjugate_time_sphere():
    spec = geodesic_spec(constant_curvature_model(1.0))
    times = detect_conjugate_points(spec, SMPoint(0.0, 0.0, 0.2), 4.0)
    assert len(times) == 1
    assert times[0] == pytest.approx(np.pi, abs=1e-8)


def test_no_conjugate_points_flat_and_hyperbolic():
    for model in (flat_torus(), constant_curvature_model(-1.0)):
        spec = geodesic_spec(model)
        assert detect_conjugate_points(spec, SMPoint(0.0, 0.0, 0.2),
                                       10.0) == []


def test_riccati_coth():
    spec = geodesic_spec(constant_curvature_model(-1.0))
    p0 = SMPoint(0.0, 0.0, 0.3)
    for R in (1.0, 3.0):
        trace = solve_riccati_finite(spec, p0, R, sign="+")
        assert trace.r_at(0.0) == pytest.approx(1.0 / np.tanh(R), abs=1e-10)


def test_riccati_flat():
    spec = geodesic_spec(flat_torus())
    trace = solve_riccati_finite(spec, SMPoint(0.1, 0.1, 0.4), 2.0, sign="+")
    assert trace.r_at(0.0) == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_riccati_trace_refuses_times_outside_the_window(sign):
    spec = geodesic_spec(flat_torus())
    trace = solve_riccati_finite(spec, SMPoint(0.1, 0.1, 0.4), 2.0,
                                 sign=sign)
    # y = t + 2 (sign +) or t - 2 (sign -), so r = 1/y is 1/4 or -1/4 at
    # the far end of the window, which is still inside it
    far = 2.0 if sign == "+" else -2.0
    assert trace.r_at(far) == pytest.approx(1.0 / (2.0 * far), abs=1e-10)
    for t in (-2.5, 2.5):
        with pytest.raises(ValueError):
            trace.r_at(t)


def test_riccati_limits_hyperbolic():
    spec = geodesic_spec(constant_curvature_model(-1.0))
    r_plus, r_minus = solve_riccati_limit(spec, SMPoint(0.0, 0.0, 0.3))
    assert r_plus == pytest.approx(1.0, abs=1e-6)
    assert r_minus == pytest.approx(-1.0, abs=1e-6)


@pytest.mark.parametrize("lam", [0.3, 0.5])
def test_riccati_limits_thermostat_closed_form(lam):
    # K = -1, I = 0 and constant lam: y'' = (1 - lam^2) y, so the limits
    # are the exponents +/- sqrt(1 - lam^2)
    spec = ThermostatSpec(constant_curvature_model(-1.0),
                          SMScalarField.constant(lam))
    r_plus, r_minus = solve_riccati_limit(spec, SMPoint(0.0, 0.0, 0.3))
    assert r_plus == pytest.approx(np.sqrt(1.0 - lam ** 2), abs=1e-6)
    assert r_minus == pytest.approx(-np.sqrt(1.0 - lam ** 2), abs=1e-6)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_riccati_doubling_matches_finite_window(sign):
    model = build_surface_model("conformal_torus",
                                phi="0.1*sin(2*pi*x)*cos(2*pi*y)")
    spec = ThermostatSpec(model, SMScalarField.from_expression(
        "0.2*sin(2*pi*y)"))
    p0 = SMPoint(0.1, 0.2, 0.3)
    walk = riccati_doubling(spec, p0, sign)
    for R in (1.0, 2.0):
        R_walk, r_walk = next(walk)
        window = (-R + 1e-9, 1e-9) if sign == "+" else (-1e-9, R - 1e-9)
        trace = solve_riccati_finite(spec, p0, R, sign=sign,
                                     eval_window=window)
        assert R_walk == R
        assert r_walk == pytest.approx(trace.r_at(0.0), abs=1e-8)


def test_riccati_limit_blowup_at_conjugate_time():
    # on the unit sphere the state's first conjugate time backward is -pi,
    # inside the window of R = 4 and not of R = 2
    spec = geodesic_spec(constant_curvature_model(1.0))
    p0 = SMPoint(0.0, 0.0, 0.2)
    walk = riccati_doubling(spec, p0, "+")
    assert [next(walk)[0] for _ in range(2)] == [1.0, 2.0]
    with pytest.raises(BlowupInsideWindow) as info:
        next(walk)
    assert "R=4" in str(info.value)
    assert info.value.times[0] == pytest.approx(-np.pi, abs=1e-8)
    with pytest.raises(BlowupInsideWindow) as info:
        solve_riccati_limit(spec, p0)
    assert info.value.times[0] == pytest.approx(-np.pi, abs=1e-8)


def test_riccati_bound():
    spec = geodesic_spec(constant_curvature_model(-1.0))
    consts = riccati_bound_constants(spec)
    assert consts["A"] >= consts["B"]
    bound = consts["A"] * (1 + np.sqrt(5.0)) / 2
    for th in (0.1, 1.3):
        r_plus, r_minus = solve_riccati_limit(spec, SMPoint(0.0, 0.0, th))
        assert abs(r_plus) <= bound + 1e-6
        assert abs(r_minus) <= bound + 1e-6


def test_comparison_ode_residuals():
    res = comparison_ode_residuals(A=1.3, D=0.2, E=-0.1)
    assert res["w_plus"] < 1e-9
    assert res["w_minus"] < 1e-9


def test_exterior_fan_r_flat():
    # flat fan solution launched a distance d behind the state: r = 1/d
    spec = geodesic_spec(euclidean_disk())
    p = SMPoint(0.2, 0.0, 0.0)
    r = exterior_fan_r(spec, [p])[0]
    d = 0.2 - (-1.0) + 0.1  # backward distance to boundary plus margin
    assert r == pytest.approx(1.0 / d, abs=1e-8)


def test_zero_length_span_keeps_the_start():
    # y = 0 at the start fires the zero event on the one step, of size 0:
    # its zero is the start, with no division by the step size
    spec = geodesic_spec(flat_torus())
    p0 = SMPoint(0.1, 0.2, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate_jacobi(spec, p0, (0.0, 0.0))
    assert traj.zeros.tolist() == [0.0]
    start = [p0.x, p0.y, p0.theta, 0.0, 0.0, 1.0]
    assert traj.states.tolist() == [start, start]
