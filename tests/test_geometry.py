"""Surface models: frames, commutation relations, derived curvatures."""

import itertools
import tracemalloc

import numpy as np
import pytest

from thermolab.errors import DomainError, ValidationFailed
from thermolab.expr import CHUNK_POINTS
from thermolab.fields import SMPoint, SMScalarField, _as_field, \
    commutator, compile_fields
from thermolab.geometry import PLANE_WINDOW, STRUCTURE_TOLERANCE, \
    TWO_PI, SyntheticSpec, build_surface_model, constant_curvature_model, \
    derived_curvatures, euclidean_disk, flat_torus, grid_blocks, \
    validate_structure_relations, validation_grid_points, velocity_pairing

# a few base points where the models' exponents are checked
XS = np.array([0.0, 0.13, -0.21, 0.3])
YS = np.array([0.0, -0.27, 0.19, 0.05])


def worst(report):
    return max(r["max"] for r in report.values())


def test_validation_fields_compile_to_the_tree_walk():
    # the nine coefficient fields that validate the frame relations of the
    # benchmark's curved torus, compiled together (derivatives built once
    # per node and shared), give the floats of Expr.eval bit for bit
    model = build_surface_model("conformal_torus",
                                phi="0.1*sin(2*pi*x)*cos(2*pi*y)")
    X, H, V = model.frame.X, model.frame.H, model.frame.V
    relations = (commutator(V, X) - H,
                 commutator(H, V) - X - model.I * H - model.J * V,
                 commutator(X, H) - model.K * V)
    fields = [c for op in relations for c in op.coefficients]
    assert len(fields) == 9
    points = validation_grid_points(model, (12, 12, 12))
    for field, compiled in zip(fields, compile_fields(fields)(*points)):
        walked = np.broadcast_to(field.expression.eval(*points),
                                 compiled.shape)
        assert np.array_equal(compiled, walked), str(field.expression)


def test_flat_torus_structure():
    model = flat_torus()
    assert np.array_equal(model.phi.eval(XS, YS, 0.4), np.zeros(4))
    assert worst(validate_structure_relations(model, (6, 6, 6))) < 1e-12


def test_conformal_torus_structure_with_thermostat():
    model = build_surface_model("conformal_torus",
                                phi="0.1*sin(2*pi*x)*cos(2*pi*y)")
    lam = SMScalarField.from_expression("0.2*sin(2*pi*y)")
    rep = validate_structure_relations(model, (8, 8, 8), lam=lam)
    assert worst(rep) < 1e-9


def test_disk_structure():
    model = build_surface_model("conformal_disk", phi="0.2*(x^2 - y^2)")
    assert np.allclose(model.phi.eval(XS, YS, 0.4),
                       0.2 * (XS ** 2 - YS ** 2), rtol=1e-15, atol=1e-16)
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
        k = np.sqrt(abs(K))
        phi = -np.log(np.cos(k * YS)) if K < 0 else -np.log(np.cosh(k * YS))
        assert np.allclose(model.phi.eval(XS, YS, 0.4), phi, rtol=1e-13,
                           atol=1e-15)
        assert worst(validate_structure_relations(model, (6, 6, 6))) < 1e-9


def test_synthetic_spec_without_phi_gets_zero():
    flat = flat_torus()
    X, H, V = flat.frame.X, flat.frame.H, flat.frame.V
    spec = SyntheticSpec(X=X, H=H, V=V, I=flat.I, J=flat.J, K=flat.K)
    model = build_surface_model("synthetic", synthetic=spec)
    assert np.array_equal(model.phi.eval(XS, YS, 0.4), np.zeros(4))
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


def test_points_are_float_tuples():
    # a point is the tuple of its float coordinates, theta in [0, 2 pi):
    # a list of points is an (N, 3) array, and a row gives the point back
    points = [SMPoint(1, np.float64(-0.5), 7.0), SMPoint(0.25, 0.5, -1.0),
              SMPoint(0.0, 0.0, TWO_PI)]
    rows = np.asarray(points)
    assert rows.shape == (3, 3) and rows.dtype == np.float64
    assert rows[:, 2].tolist() == [7.0 % TWO_PI, -1.0 % TWO_PI, 0.0]
    for p, row in zip(points, rows):
        assert all(type(v) is float for v in p)
        assert 0.0 <= p.theta < TWO_PI
        assert (p.x, p.y, p.theta) == tuple(row.tolist())
        assert SMPoint(*row) == p


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


def _per_field_relations(model, grid_spec, lam=None):
    """validate_structure_relations as one evaluation per coefficient field
    of each relation's residual operator: the reference its single
    compiled pass must reproduce bit for bit."""
    X, H, V = model.frame.X, model.frame.H, model.frame.V
    I, J, K = model.I, model.J, model.K
    xg, yg, tg = validation_grid_points(model, grid_spec)
    relations = {
        "[V,X]-H": commutator(V, X) - H,
        "[H,V]-X-IH-JV": commutator(H, V) - X - I * H - J * V,
        "[X,H]-KV": commutator(X, H) - K * V,
    }
    if lam is not None:
        lam = _as_field(lam)
        dc = derived_curvatures(model, lam)
        F = dc.F
        relations["[V,F]-H-V(lam)V"] = commutator(V, F) - H - dc.Vlam * V
        relations["[H,V]-F-IH-(J-lam)V"] = (commutator(H, V) - F - I * H
                                            - (J - lam) * V)
        relations["[F,H]-coreV+lamF+lamIH"] = (
            commutator(F, H) - dc.core * V + lam * F + lam * I * H)
    out = {}
    for name, op in relations.items():
        worst_max, sq_sum, count = 0.0, 0.0, 0
        for coefficient in op.coefficients:
            vals = coefficient.eval(xg, yg, tg)
            worst_max = float(np.maximum(worst_max, np.max(np.abs(vals))))
            sq_sum += float(np.sum(vals ** 2))
            count += vals.size
        out[name] = {"max": worst_max, "rms": float(np.sqrt(sq_sum / count))}
    return out


@pytest.mark.parametrize("make_model, lam", [
    (lambda: build_surface_model("conformal_torus",
                                 phi="0.1*sin(2*pi*x)*cos(2*pi*y)"),
     "0.2*sin(2*pi*y)"),
    (lambda: build_surface_model("conformal_disk", phi="0.2*(x^2 - y^2)"),
     None),
    (lambda: constant_curvature_model(-1.0), None),
], ids=["torus_lam", "disk", "curvature_-1"])
def test_validation_matches_per_field_evaluation(make_model, lam):
    # one compiled pass over the grid (24^3 > CHUNK_POINTS, so it runs in
    # blocks) gives the bits of one evaluation per residual field
    model = make_model()
    got = validate_structure_relations(model, (24, 24, 24), lam=lam)
    want = _per_field_relations(model, (24, 24, 24), lam=lam)
    assert list(got) == list(want)
    for name in want:
        assert got[name]["max"] == want[name]["max"], name
        assert got[name]["rms"] == want[name]["rms"], name


# test fields f with fiber modes 0, +-1 and +-2
PROBES = ("sin(2*pi*x)*cos(theta)",
          "cos(2*pi*y)*sin(theta)+0.3*sin(2*pi*x)",
          "sin(2*pi*x+2*pi*y)+cos(2*theta)",
          "sin(x+2*y)*cos(theta)",
          "x*y+sin(theta)",
          "cos(x)*sin(y)+sin(2*theta)")


@pytest.mark.parametrize("make_model, lam", [
    (lambda: build_surface_model("conformal_torus",
                                 phi="0.1*sin(2*pi*x)*cos(2*pi*y)"),
     "0.2*sin(2*pi*y)"),
    (lambda: build_surface_model("conformal_disk", phi="0.2*(x^2 - y^2)"),
     None),
    (lambda: constant_curvature_model(-1.0), None),
], ids=["torus_lam", "disk", "curvature_-1"])
def test_commutator_matches_second_order_definition(make_model, lam):
    # [A, B] f from the bracket's first-order coefficients equals
    # A(B f) - B(A f), which takes second derivatives of f
    model = make_model()
    frame = [model.frame.X, model.frame.H, model.frame.V]
    if lam is not None:
        frame.append(derived_curvatures(model, lam).F)
    bracket, definition = [], []
    for (A, B), f in itertools.product(itertools.combinations(frame, 2),
                                       PROBES):
        bracket.append(commutator(A, B).apply(f))
        definition.append(A.apply(B.apply(f)) - B.apply(A.apply(f)))
    grid = validation_grid_points(model, (6, 6, 6))
    got = compile_fields(bracket)(*grid)
    want = compile_fields(definition)(*grid)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-12


def _meshgrid_points(model, grid_spec):
    """The validation grid built whole from meshgrids of its axes: the
    reference the block iterator must reproduce bit for bit."""
    nx, ny, nt = grid_spec
    ts = np.linspace(0.0, TWO_PI, nt, endpoint=False)
    if model.domain.kind == "disk":
        R, A = np.meshgrid(np.linspace(0.1, 0.9, nx),
                           np.linspace(0.0, TWO_PI, ny, endpoint=False),
                           indexing="ij")
        X3, T3 = np.meshgrid((R * np.cos(A)).ravel(), ts, indexing="ij")
        Y3, _ = np.meshgrid((R * np.sin(A)).ravel(), ts, indexing="ij")
        return X3.ravel(), Y3.ravel(), T3.ravel()
    if model.domain.kind == "torus":
        xs = np.linspace(0.0, 1.0, nx, endpoint=False)
        ys = np.linspace(0.0, 1.0, ny, endpoint=False)
    else:
        (x0, x1), (y0, y1) = PLANE_WINDOW
        xs, ys = np.linspace(x0, x1, nx), np.linspace(y0, y1, ny)
    return tuple(v.ravel() for v in np.meshgrid(xs, ys, ts, indexing="ij"))


@pytest.mark.parametrize("grid_spec, blocks", [
    ((8, 8, 8), (0, True)), ((32, 32, 32), (4, False)),
    ((20, 20, 24), (1, True))],
    ids=["one_block", "whole_blocks", "partial_block"])
@pytest.mark.parametrize("make_model", [
    flat_torus, euclidean_disk, lambda: constant_curvature_model(-1.0)],
    ids=["torus", "disk", "plane"])
def test_grid_blocks_concatenate_to_the_grid(make_model, grid_spec, blocks):
    # runs of at most CHUNK_POINTS nodes, in C order, whose concatenation
    # is the whole grid bit for bit, on grids of one block, of whole
    # blocks and ending in a partial block
    model = make_model()
    whole, rest = divmod(int(np.prod(grid_spec)), CHUNK_POINTS)
    assert (whole, rest > 0) == blocks
    starts, parts = zip(*grid_blocks(model, grid_spec))
    assert starts == tuple(range(0, int(np.prod(grid_spec)), CHUNK_POINTS))
    assert all(0 < p[0].size <= CHUNK_POINTS for p in parts)
    got = [np.concatenate(v) for v in zip(*parts)]
    for g, one, ref in zip(got, validation_grid_points(model, grid_spec),
                           _meshgrid_points(model, grid_spec)):
        assert np.array_equal(g.view(np.uint64), one.view(np.uint64))
        assert np.array_equal(g.view(np.uint64), ref.view(np.uint64))


def test_validation_memory_stays_blockwise():
    # the 18 coefficient fields of the relations with lam are folded block
    # by block, never held on the whole grid: the traced peak is the same
    # on 24^3 and 48^3 nodes, where one field on the whole grid would add
    # 48^3 x 8 bytes
    model = build_surface_model("conformal_torus",
                                phi="0.1*sin(2*pi*x)*cos(2*pi*y)")
    lam = SMScalarField.from_expression("0.2*sin(2*pi*y)")
    peaks = []
    for n in (24, 48):
        tracemalloc.start()
        try:
            validate_structure_relations(model, (n, n, n), lam=lam)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 48 ** 3 * 8
