"""Surface models: frames, commutation relations, derived curvatures."""

import numpy as np
import pytest

from thermolab.errors import DomainError, ValidationFailed
from thermolab.fields import SMScalarField
from thermolab.geometry import STRUCTURE_TOLERANCE, SyntheticSpec, \
    build_surface_model, classify_magnetic, constant_curvature_model, \
    derived_curvatures, euclidean_disk, flat_torus, \
    validate_structure_relations, velocity_pairing


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


def test_wrong_curvature_rejected():
    # the flat frame declared with K = 1 breaks [X, H] = K V alone
    flat = flat_torus()
    X, H, V = flat.frame.X, flat.frame.H, flat.frame.V
    spec = SyntheticSpec(X=X, H=H, V=V, I=flat.I, J=flat.J,
                         K=SMScalarField.constant(1.0))
    with pytest.raises(ValidationFailed) as info:
        build_surface_model("synthetic", synthetic=spec)
    failed = [name for name, r in info.value.residuals.items()
              if not r["max"] <= STRUCTURE_TOLERANCE]
    assert failed == ["[X,H]-KV"]


def test_nan_residuals_rejected():
    # sqrt(x + 0.5) is NaN on the disk's validation points with x < -0.5
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValidationFailed) as info:
            build_surface_model("conformal_disk", phi="sqrt(x+0.5)")
    assert all(np.isnan(r["max"]) for r in info.value.residuals.values())


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


def test_field_eval_shape_and_dtype():
    # eval gives float64 values of the inputs' broadcast shape, also for
    # fields that do not read every input
    xs, ys = np.linspace(0.0, 1.0, 5), np.zeros(5, dtype=int)
    for field, want in ((SMScalarField.constant(2.0), np.full(5, 2.0)),
                        (SMScalarField.from_expression("x"), xs)):
        vals = field.eval(xs, ys, 0.3)
        assert vals.dtype == np.float64 and vals.shape == (5,)
        assert np.array_equal(vals, want)
        scalar = field.eval(0.5, 0.2, 0.3)
        assert scalar.dtype == np.float64 and scalar.shape == ()
        assert scalar == want[2]


def test_velocity_pairing():
    model = build_surface_model("conformal_disk", phi="0.2*(x^2 - y^2)")
    omega = velocity_pairing(model, "y", SMScalarField.from_expression("-x"))
    x, y, th = 0.3, -0.1, 0.7
    assert omega.eval(x, y, th) == pytest.approx(
        np.exp(-0.2 * (x * x - y * y)) * (y * np.cos(th) - x * np.sin(th)),
        rel=1e-14)


def test_metric_speed():
    model = build_surface_model("conformal_disk", phi="0.2*(x^2 - y^2)")
    x, y = 0.3, -0.1
    s = model.metric_speed(x, y, 0.6, 0.8)
    assert s == pytest.approx(np.exp(0.2 * (x * x - y * y)), rel=1e-12)
    assert euclidean_disk().metric_speed(0.1, 0.2, 3.0, 4.0) == \
        pytest.approx(5.0)
