"""Surface models: frames, commutation relations, derived curvatures."""

import numpy as np
import pytest

from thermolab.errors import DomainError
from thermolab.fields import SMScalarField
from thermolab.geometry import SyntheticSpec, build_surface_model, \
    classify_magnetic, constant_curvature_model, derived_curvatures, \
    euclidean_disk, flat_torus, validate_structure_relations, \
    velocity_pairing


def worst(report):
    return max(r["max"] for r in report.values())


def test_flat_torus_structure():
    model = flat_torus()
    assert model.phi.expression is not None
    assert worst(validate_structure_relations(model, (6, 6, 6))) < 1e-12


def test_conformal_torus_structure_with_thermostat():
    model = build_surface_model("conformal_torus",
                                phi="0.1*sin(2*pi*x)*cos(2*pi*y)")
    lam = SMScalarField.from_expression("0.2*sin(2*pi*y)")
    rep = validate_structure_relations(model, (8, 8, 8), lam=lam)
    assert worst(rep) < 1e-9


def test_disk_structure():
    model = build_surface_model("conformal_disk", phi="0.2*(x^2 - y^2)")
    assert model.phi.expression is not None
    assert worst(validate_structure_relations(model, (6, 6, 6))) < 1e-9


def test_nonperiodic_phi_rejected_on_torus():
    with pytest.raises(DomainError):
        build_surface_model("conformal_torus", phi="x^2")


def test_constant_curvature_models():
    for K in (-1.0, 1.0, -4.0):
        model = constant_curvature_model(K)
        xs = np.linspace(-0.3, 0.3, 5)
        vals = model.K.eval(xs, xs, 0.0)
        assert np.allclose(vals, K, atol=1e-9)
        assert model.phi.expression is not None
        assert worst(validate_structure_relations(model, (6, 6, 6))) < 1e-9


def test_synthetic_spec_without_phi_gets_zero():
    flat = flat_torus()
    X, H, V = flat.frame.X, flat.frame.H, flat.frame.V
    spec = SyntheticSpec(X=X, H=H, V=V, I=flat.I, J=flat.J, K=flat.K)
    model = build_surface_model("synthetic", synthetic=spec)
    assert model.phi.expression is not None
    assert np.array_equal(model.conformal_factor(np.array([0.1, -0.2]), 0.3),
                          [1.0, 1.0])


def test_gauss_curvature_formula():
    # K = -e^{-2 phi} (phi_xx + phi_yy) for phi = 0.1 sin(2 pi x) cos(2 pi y)
    model = build_surface_model("conformal_torus",
                                phi="0.1*sin(2*pi*x)*cos(2*pi*y)")
    x, y = 0.13, 0.37
    phi = 0.1 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    lap = -2 * (2 * np.pi) ** 2 * 0.1 * np.sin(2 * np.pi * x) \
        * np.cos(2 * np.pi * y)
    assert model.K.eval(x, y, 0.0) == pytest.approx(-np.exp(-2 * phi) * lap,
                                                    rel=1e-12)


def test_first_order_readers_take_lam_with_callable_partials():
    # the magnetic check and the thermostat relations read only first
    # derivatives of lam, so a lam whose partials are plain callables,
    # without partials of their own, serves them
    model = flat_torus()
    lam = SMScalarField.from_callable(
        lambda x, y, t: 0.2 * np.sin(2 * np.pi * y),
        dx=lambda x, y, t: 0.0 * x,
        dy=lambda x, y, t: 0.4 * np.pi * np.cos(2 * np.pi * y),
        dtheta=lambda x, y, t: 0.0 * x)
    assert classify_magnetic(model, lam)["magnetic"]
    assert worst(validate_structure_relations(model, (6, 6, 6),
                                              lam=lam)) < 1e-9


def test_derived_curvatures_flat_constant_lambda():
    model = flat_torus()
    for c in (0.0, 0.5, -0.3):
        dc = derived_curvatures(model, SMScalarField.constant(c))
        assert dc.core.eval(0.2, 0.3, 0.4) == pytest.approx(c * c)
        assert dc.bigK.eval(0.2, 0.3, 0.4) == pytest.approx(c * c)
        assert dc.K_lambda.eval(0.2, 0.3, 0.4) == pytest.approx(c * c)
        assert dc.anosovD.eval(0.2, 0.3, 0.4) == pytest.approx(c * c)


def test_derived_curvatures_hyperbolic():
    model = constant_curvature_model(-1.0)
    dc = derived_curvatures(model, SMScalarField.constant(0.0))
    assert dc.anosovD.eval(0.1, -0.2, 1.0) == pytest.approx(-1.0, rel=1e-9)


def test_classify_magnetic():
    model = flat_torus()
    # base-dependent lam has V(lam) = 0 and I = 0: magnetic
    lam = SMScalarField.from_expression("0.3*sin(2*pi*x)")
    assert classify_magnetic(model, lam)["magnetic"]
    lam2 = SMScalarField.from_expression("0.3*sin(theta)")
    assert not classify_magnetic(model, lam2)["magnetic"]


def test_callable_fields_need_all_partials():
    f = SMScalarField.from_expression("x*y + sin(theta)")
    with pytest.raises(TypeError):
        SMScalarField.from_callable(f.eval, dx=f.partial("x"),
                                    dy=f.partial("y"))
    with pytest.raises(TypeError):
        SMScalarField(f.eval).partial("x")
    # a product of a callable-backed and an expression-backed field takes
    # its partials from the product rule
    g = SMScalarField.from_callable(f.eval, dx=f.partial("x"),
                                    dy=f.partial("y"),
                                    dtheta=f.partial("theta").eval)
    prod = g * SMScalarField.from_expression("cos(x)")
    assert prod.expression is None
    exact = (f * SMScalarField.from_expression("cos(x)"))
    pts = (np.array([0.1, 0.7]), np.array([-0.3, 0.2]), np.array([1.0, 4.0]))
    for v in ("x", "y", "theta"):
        assert np.allclose(prod.partial(v).eval(*pts),
                           exact.partial(v).eval(*pts), rtol=1e-14,
                           atol=1e-15)
    # a partial given as a bare callable has no derivatives of its own
    with pytest.raises(TypeError):
        g.partial("theta").partial("x")


def test_velocity_pairing():
    model = build_surface_model("conformal_disk", phi="0.2*(x^2 - y^2)")
    omega = velocity_pairing(model, "y", SMScalarField.from_expression("-x"))
    assert omega.expression is not None
    x, y, th = 0.3, -0.1, 0.7
    assert omega.eval(x, y, th) == pytest.approx(
        np.exp(-0.2 * (x * x - y * y)) * (y * np.cos(th) - x * np.sin(th)),
        rel=1e-14)
    # a callable-backed component still pairs, through field algebra
    w = SMScalarField.from_expression("y")
    mixed = velocity_pairing(model, SMScalarField.from_callable(
        w.eval, dx=w.partial("x"), dy=w.partial("y"),
        dtheta=w.partial("theta")), "-x")
    assert mixed.expression is None
    assert mixed.eval(x, y, th) == pytest.approx(omega.eval(x, y, th),
                                                 rel=1e-14)
    assert mixed.partial("theta").eval(x, y, th) == pytest.approx(
        omega.partial("theta").eval(x, y, th), rel=1e-14)


def test_metric_speed():
    model = build_surface_model("conformal_disk", phi="0.2*(x^2 - y^2)")
    x, y = 0.3, -0.1
    s = model.metric_speed(x, y, 0.6, 0.8)
    assert s == pytest.approx(np.exp(0.2 * (x * x - y * y)), rel=1e-12)
    assert euclidean_disk().metric_speed(0.1, 0.2, 3.0, 4.0) == \
        pytest.approx(5.0)
