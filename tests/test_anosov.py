"""Hyperbolicity criterion and cohomological-equation residuals."""

import numpy as np
import pytest

from thermolab.anosov import FIBER_BAND
from thermolab.errors import DomainError
from thermolab.anosov import GridTransportOperator, cohomological_residual, \
    quadratic_form_rate, theoremD_criterion
from thermolab.fields import SMPoint, SMScalarField
from thermolab.flow import ThermostatSpec, geodesic_spec
from thermolab.geometry import build_surface_model, constant_curvature_model, \
    flat_torus
from thermolab.jacobi import integrate_jacobi


def test_criterion_flat():
    model = flat_torus()
    rep = theoremD_criterion(model, 0.0, (8, 8, 8))
    assert rep.sup_value == pytest.approx(0.0, abs=1e-12)
    assert not rep.anosov_flag


def test_criterion_flat_constant_lambda():
    model = flat_torus()
    rep = theoremD_criterion(model, 0.7, (8, 8, 8))
    assert rep.sup_value == pytest.approx(0.49, rel=1e-10)
    assert not rep.anosov_flag


def test_criterion_hyperbolic():
    model = constant_curvature_model(-1.0)
    rep = theoremD_criterion(model, 0.0, (8, 8, 8))
    assert rep.sup_value == pytest.approx(-1.0, rel=1e-9)
    assert rep.anosov_flag


def test_criterion_theta_grid_invariance():
    model = build_surface_model("conformal_torus",
                                phi="0.1*sin(2*pi*x)*cos(2*pi*y)")
    lam = SMScalarField.from_expression("0.2*sin(2*pi*y)")
    a = theoremD_criterion(model, lam, (10, 10, 8)).sup_value
    b = theoremD_criterion(model, lam, (10, 10, 32)).sup_value
    assert a == pytest.approx(b, abs=1e-12)


def test_rate_flat_degenerate():
    spec = geodesic_spec(flat_torus())
    traj = integrate_jacobi(spec, SMPoint(0.1, 0.2, 0.3), (0.0, 1.0),
                            initial=(0.0, 1.0, 0.0),
                            t_eval=np.linspace(0.0, 1.0, 5))
    out = quadratic_form_rate(spec, traj)
    s = out["states"][0]
    assert s.rate == pytest.approx(0.0, abs=1e-12)  # (y, z) = (1, 0)
    assert not s.rate_positive_definite
    assert out["sylvester_consistent"]


def test_rate_hyperbolic_positive():
    spec = geodesic_spec(constant_curvature_model(-1.0))
    traj = integrate_jacobi(spec, SMPoint(0.0, 0.0, 0.4), (0.0, 0.5),
                            initial=(0.0, 1.0, 0.5),
                            t_eval=np.linspace(0.0, 0.5, 5))
    out = quadratic_form_rate(spec, traj)
    for s in out["states"]:
        assert s.rate == pytest.approx(s.y ** 2 + s.z ** 2, rel=1e-8)
        assert s.rate_positive_definite
    assert out["sylvester_consistent"]


def test_rate_matches_fd_along_orbit():
    model = build_surface_model("conformal_torus",
                                phi="0.1*sin(2*pi*x)*cos(2*pi*y)")
    spec = ThermostatSpec(model, SMScalarField.from_expression(
        "0.2*sin(2*pi*y)"))
    traj = integrate_jacobi(spec, SMPoint(0.1, 0.2, 0.3), (0.0, 3.0),
                            initial=(0.0, 1.0, 0.2),
                            t_eval=np.linspace(0.0, 3.0, 30))
    out = quadratic_form_rate(spec, traj)
    assert out["max_fd_deviation"] < 1e-5
    assert out["sylvester_consistent"]


def _central_diff4(u, axis, h):
    # 4th-order periodic central difference, written with rolls
    return (-np.roll(u, -2, axis=axis) + 8.0 * np.roll(u, -1, axis=axis)
            - 8.0 * np.roll(u, 1, axis=axis) + np.roll(u, 2, axis=axis)) \
        / (12.0 * h)


def test_transport_operator_matches_stencil():
    # the assembled matrix against the roll stencil; at n = 4 the offsets
    # +2 and -2 wrap onto one column, and the products must sum both
    model = build_surface_model("conformal_torus",
                                phi="0.1*sin(2*pi*x)*cos(2*pi*y)")
    lam = SMScalarField.from_expression("0.2*sin(2*pi*y)")
    rng = np.random.default_rng(7)
    for n in (4, 5, 16, 17):
        op = GridTransportOperator(model, lam, n)
        hs = (op.h_xy, op.h_xy, op.h_t)
        cs = (op.cx, op.cy, op.ct)
        u = rng.standard_normal(op.X.shape)
        v = rng.standard_normal(op.X.shape)
        Fu = sum(c * _central_diff4(u, a, h)
                 for a, (c, h) in enumerate(zip(cs, hs)))
        # central differences are antisymmetric on the periodic grid
        FTv = -sum(_central_diff4(c * v, a, h)
                   for a, (c, h) in enumerate(zip(cs, hs)))
        assert np.linalg.norm(op.apply(u) - Fu) <= \
            1e-13 * np.linalg.norm(Fu)
        assert np.linalg.norm(op.apply_adjoint(v) - FTv) <= \
            1e-13 * np.linalg.norm(FTv)
        lhs = np.vdot(op.apply(u), v)
        rhs = np.vdot(u, op.apply_adjoint(v))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_cohomology_exact_gauge():
    ft = flat_torus()
    w_x = SMScalarField.from_expression("2*pi*cos(2*pi*x)")
    res = cohomological_residual(ft, 0.0, w_x=w_x, n=32)
    assert res["residual"] < 1e-8
    # minimizer equals psi on every fiber slice the generator couples to x
    op = res["operator"]
    psi = np.sin(2 * np.pi * op.X)
    mask = np.abs(np.cos(op.T)) > 1e-3
    dev = np.abs(res["minimizer"] - psi)[mask]
    assert np.max(dev) < 1e-3


def test_cohomology_obstructed_scalar():
    ft = flat_torus()
    h = SMScalarField.from_expression("sin(2*pi*x)")
    res = cohomological_residual(ft, 0.0, h=h, n=32)
    assert res["residual"] >= 0.1


def test_cohomology_obstructed_closed_form():
    ft = flat_torus()
    res = cohomological_residual(ft, 0.0, w_x=SMScalarField.constant(1.0),
                                 n=24)
    assert res["residual"] >= 0.1


def test_cohomology_round_trip():
    ft = flat_torus()
    rng = np.random.default_rng(12)
    op = GridTransportOperator(ft, 0.15, 16)
    for _ in range(10):
        w = rng.standard_normal(op.X.shape)
        rhs = op.apply(w)
        res = cohomological_residual(ft, 0.15, rhs_grid=rhs, n=16)
        assert res["residual"] < 1e-7


def test_cohomology_band_limit_curved_torus():
    # on the fiber band the n=32 solve converges; over the full grid it
    # stagnated at the iteration cap and raised SolverDiverged
    model = build_surface_model("conformal_torus",
                                phi="0.1*sin(2*pi*x)*cos(2*pi*y)")
    lam = SMScalarField.from_expression("0.2*sin(2*pi*y)")
    h = SMScalarField.from_expression("sin(2*pi*x)")
    res = cohomological_residual(model, lam, h=h, n=32)
    assert res["cg_info"] == 0
    assert res["residual"] >= 0.1
    w_x = SMScalarField.from_expression("2*pi*cos(2*pi*x)")
    res = cohomological_residual(model, lam, w_x=w_x, n=32)
    assert res["residual"] < 1e-8


def test_cohomology_residual_grid_independent():
    # distance from sin 2 pi x to coboundaries of fiber degree <= M = 8 is
    # 1/3 on the flat torus, on every grid with n > 2M + 2
    ft = flat_torus()
    h = SMScalarField.from_expression("sin(2*pi*x)")
    for n in (24, 32, 48):
        res = cohomological_residual(ft, 0.0, h=h, n=n)
        assert res["residual"] == pytest.approx(1.0 / 3.0, rel=1e-8)
        coeffs = np.fft.rfft(res["minimizer"], axis=2)
        assert np.max(np.abs(coeffs[..., FIBER_BAND + 1:])) < 1e-9


def test_cohomology_odd_full_grid_refused():
    # an odd fiber grid with n <= 2M + 1 has no node with cos theta = 0,
    # so sin 2 pi x read as exact (residual 0) at n = 9, 15 and 17
    ft = flat_torus()
    h = SMScalarField.from_expression("sin(2*pi*x)")
    for n in (9, 17):
        with pytest.raises(DomainError, match="cos"):
            cohomological_residual(ft, 0.0, h=h, n=n)
    # odd grids past the band are solved on the band, even grids as before
    assert cohomological_residual(ft, 0.0, h=h, n=19)["residual"] == \
        pytest.approx(1.0 / 3.0, rel=1e-8)
    assert cohomological_residual(ft, 0.0, h=h, n=16)["residual"] == \
        pytest.approx(np.sqrt(2.0 / 16), rel=1e-6)
