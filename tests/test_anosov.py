"""Hyperbolicity criterion and cohomological-equation residuals."""

import tracemalloc

import numpy as np
import pytest

from thermolab import anosov
from thermolab.anosov import FIBER_BAND
from thermolab.errors import DomainError, SolverDiverged
from thermolab.expr import CHUNK_POINTS
from thermolab.anosov import GridTransportOperator, cohomological_residual, \
    quadratic_form_rate, theoremD_criterion
from thermolab.fields import SMPoint, SMScalarField
from thermolab.flow import ThermostatSpec, geodesic_spec
from thermolab.geometry import build_surface_model, constant_curvature_model, \
    derived_curvatures, flat_torus, validation_grid_points, velocity_pairing
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


def test_criterion_first_maximizer_across_blocks():
    # with lam = 0 the quantity is K = 4 pi^2 a sin(2 pi x) e^{-2 a sin 2 pi x}
    # for phi = a sin(2 pi x), the same bits on the whole x = 1/4 slice:
    # its 96 x 96 nodes tie for the maximum from flat index 9216, inside
    # the second block, through the third block
    model = build_surface_model("conformal_torus", phi="0.1*sin(2*pi*x)")
    grid_spec = (4, 96, 96)
    values = derived_curvatures(model, 0.0).anosovD.eval(
        *validation_grid_points(model, grid_spec))
    ties = np.flatnonzero(values == values.max())
    assert ties[0] == 9216 and ties[-1] == 18431
    assert ties[0] // CHUNK_POINTS == 1 and ties[-1] // CHUNK_POINTS == 2
    rep = theoremD_criterion(model, 0.0, grid_spec)
    assert rep.sup_value == values.max()
    assert (rep.argmax.x, rep.argmax.y, rep.argmax.theta) == (0.25, 0.0, 0.0)


def test_criterion_memory_stays_blockwise():
    # the scan folds a running maximum per block: its traced peak is the
    # same on 24^3 and 48^3 nodes, where the quantity on the whole grid
    # would add 48^3 x 8 bytes
    model = build_surface_model("conformal_torus",
                                phi="0.1*sin(2*pi*x)*cos(2*pi*y)")
    lam = SMScalarField.from_expression("0.2*sin(2*pi*y)")
    peaks = []
    for n in (24, 48):
        tracemalloc.start()
        try:
            theoremD_criterion(model, lam, (n, n, n))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 48 ** 3 * 8


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
    # 4th-order periodic central difference, written with rolls; each
    # offset pair is differenced first, so on grids where the offsets wrap
    # onto one node (n = 2) the terms cancel exactly
    return (8.0 * (np.roll(u, -1, axis=axis) - np.roll(u, 1, axis=axis))
            - (np.roll(u, -2, axis=axis) - np.roll(u, 2, axis=axis))) \
        / (12.0 * h)


def test_transport_operator_matches_stencil():
    # the wrapped-slice differences against the roll stencil; at n = 4 the
    # offsets +2 and -2 wrap onto one node, at n = 3 they wrap onto -1 and
    # +1, and at n = 2 onto the node itself: the terms must add
    model = build_surface_model("conformal_torus",
                                phi="0.1*sin(2*pi*x)*cos(2*pi*y)")
    lam = SMScalarField.from_expression("0.2*sin(2*pi*y)")
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5, 16, 17):
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
    # one node per axis has no wrap of 2 on either side
    with pytest.raises(DomainError, match="n >= 2"):
        GridTransportOperator(model, lam, 1)


def test_transport_operator_difference_matrix():
    # D is the stencil applied to the columns of the identity, with the
    # terms of coinciding offsets added (n <= 4), and exactly 0 at n = 2
    model = flat_torus()
    for n in range(2, 7):
        op = GridTransportOperator(model, 0.0, n)
        assert np.array_equal(op.D, _central_diff4(np.eye(n), 0, 1 / 12.0))
        assert np.array_equal(op.D.T, -op.D)
    assert not np.any(GridTransportOperator(model, 0.0, 2).D)


def test_cohomology_rhs_orthogonal_to_range(monkeypatch):
    # on the flat torus with lam = 0 a constant is orthogonal to the range
    # of F: F^T 1 = -sum_a D_a(c_a / 12h_a) is exactly 0, since c_x and
    # c_y are constant along x and y and c_theta is 0, so the solve takes
    # the shortcut u = 0 with no operator apply
    calls = []
    apply = GridTransportOperator.apply

    def counting_apply(self, u):
        calls.append(1)
        return apply(self, u)
    monkeypatch.setattr(GridTransportOperator, "apply", counting_apply)
    res = cohomological_residual(flat_torus(), 0.0, h="1", n=8)
    assert calls == []
    assert res["residual"] == 1.0
    assert res["cg_info"] == 0
    assert not res["minimizer"].any()


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


def _curved_torus():
    # the model and intensity of the benchmark's cohomology job
    model = build_surface_model("conformal_torus",
                                phi="0.1*sin(2*pi*x)*cos(2*pi*y)")
    return model, SMScalarField.from_expression("0.2*sin(2*pi*y)")


@pytest.mark.parametrize("n", [8, 16, 24, 32])
def test_preconditioner_symmetric_positive_definite_on_band(n):
    # preconditioned CG needs a symmetric positive definite M on the band
    op = GridTransportOperator(*_curved_torus(), n)
    precondition = anosov._frozen_preconditioner(op)
    project = anosov._fiber_band_projector(n, FIBER_BAND)
    rng = np.random.default_rng(n)
    u, v = (project(rng.standard_normal(op.X.shape)) for _ in range(2))
    Mu, Mv = precondition(u), precondition(v)
    uMv = np.vdot(u, Mv)
    assert abs(uMv - np.vdot(Mu, v)) <= 1e-12 * abs(uMv)
    assert np.vdot(u, Mu) > 0.0
    # it reads and writes only the band: M = P M P
    w = rng.standard_normal(op.X.shape)
    Mw = precondition(w)
    assert np.linalg.norm(project(Mw) - Mw) <= 1e-12 * np.linalg.norm(Mw)
    assert np.linalg.norm(precondition(project(w)) - Mw) <= \
        1e-12 * np.linalg.norm(Mw)


def test_cohomology_preconditioned_work(monkeypatch):
    # the benchmark's cohomology job took 2974 operator applies with
    # plain conjugate gradients
    calls = []
    apply = GridTransportOperator.apply

    def counting_apply(self, u):
        calls.append(1)
        return apply(self, u)
    monkeypatch.setattr(GridTransportOperator, "apply", counting_apply)
    model, lam = _curved_torus()
    w_x = SMScalarField.from_expression("2*pi*cos(2*pi*x)")
    res = cohomological_residual(model, lam, w_x=w_x, n=16)
    assert len(calls) < 400
    assert res["cg_info"] == 0
    assert res["residual"] < 1e-8


def test_pcg_matches_scipy_cg():
    # the numpy loop against scipy's preconditioned CG on the benchmark's
    # cohomology job (n=16: the band holds the whole fiber grid)
    from scipy.sparse.linalg import LinearOperator, cg
    model, lam = _curved_torus()
    op = GridTransportOperator(model, lam, 16)
    (rhs,) = op.sample({"rhs": velocity_pairing(model, "2*pi*cos(2*pi*x)",
                                                 "0")})
    b = op.apply_adjoint(rhs).ravel()
    frozen = anosov._frozen_preconditioner(op)

    def normal(v):
        return op.apply_adjoint(op.apply(v.reshape(rhs.shape))).ravel()

    def precondition(v):
        return frozen(v.reshape(rhs.shape)).ravel()
    ours, info = anosov._pcg(normal, precondition, b)
    square = (b.size, b.size)
    theirs, their_info = cg(LinearOperator(square, matvec=normal), b,
                            rtol=anosov.CG_TOL, atol=0.0,
                            maxiter=anosov.CG_MAXITER,
                            M=LinearOperator(square, matvec=precondition))
    assert info == their_info == 0
    ours_res, theirs_res = (
        np.linalg.norm(op.apply(u.reshape(rhs.shape)) - rhs)
        / np.linalg.norm(rhs) for u in (ours, theirs))
    assert theirs_res / 10 <= ours_res <= 10 * theirs_res


def test_cohomology_nonfinite_fields_name_field_and_node():
    # lam = sqrt(x - 0.5) is NaN on the nodes with x < 0.5, the first
    # being node (0, 0, 0); log(x) is -inf on the nodes with x = 0
    ft = flat_torus()
    with pytest.raises(DomainError, match=r"c_theta = .* is nan at grid "
                       r"node \(0, 0, 0\) of \(8, 8, 8\)"):
        cohomological_residual(ft, "sqrt(x-0.5)", h="sin(2*pi*x)", n=8)
    with pytest.raises(DomainError, match=r"right-hand side .* is -inf at "
                       r"grid node \(0, 0, 0\) of \(8, 8, 8\)"):
        cohomological_residual(ft, 0.0, h="log(x)", n=8)


def test_cohomology_divergence_names_grid_and_band(monkeypatch):
    monkeypatch.setattr(anosov, "CG_MAXITER", 3)
    model, lam = _curved_torus()
    w_x = SMScalarField.from_expression("2*pi*cos(2*pi*x)")
    with pytest.raises(SolverDiverged) as failure:
        cohomological_residual(model, lam, w_x=w_x, n=16)
    message = str(failure.value)
    for part in ("n=16", f"|m| <= {FIBER_BAND}", "preconditioned",
                 "3-iteration cap", "residual"):
        assert part in message
