"""Quadrature, pointwise energy identity, and integral identities."""

import tracemalloc

import numpy as np
import pytest

from thermolab.errors import DomainError
from thermolab.expr import CHUNK_POINTS
from thermolab.fields import SMPoint, SMScalarField
from thermolab.geometry import build_surface_model, euclidean_disk, flat_torus
from thermolab.identities import IdentityReport, check_fourier_facts, \
    check_integral_identity_boundary, check_integral_identity_closed, \
    check_lie_derivatives, check_pestov_pointwise, check_second_identity, \
    disk_quadrature, liouville_integrate, torus_quadrature, \
    transport_expansion_residual

PHI_TEXT = "0.1*sin(2*pi*x)*cos(2*pi*y)"
LAM_TEXT = "0.2*sin(2*pi*y)"


def conformal_model():
    return build_surface_model("conformal_torus", phi=PHI_TEXT)


def lam_field():
    return SMScalarField.from_expression(LAM_TEXT)


def test_torus_measure_flat():
    grid = torus_quadrature(flat_torus(), 16)
    assert grid.total_measure() == pytest.approx(2 * np.pi, rel=1e-12)


def test_torus_measure_conformal():
    from scipy.integrate import dblquad
    model = conformal_model()
    grid = torus_quadrature(model, 24)
    area, _ = dblquad(
        lambda y, x: np.exp(0.2 * np.sin(2 * np.pi * x)
                            * np.cos(2 * np.pi * y)),
        0, 1, 0, 1, epsabs=1e-13)
    assert grid.total_measure() == pytest.approx(2 * np.pi * area, rel=1e-10)


def test_disk_measure_flat():
    grid = disk_quadrature(euclidean_disk(), (12, 16, 16))
    assert grid.total_measure() == pytest.approx(2 * np.pi * np.pi, rel=1e-10)


def test_liouville_integrate_odd_function():
    grid = torus_quadrature(flat_torus(), 16)
    (val,) = liouville_integrate(grid, {
        "sin(theta)": SMScalarField.from_expression("sin(theta)")})
    assert abs(val) < 1e-13


@pytest.mark.parametrize("n, blocks", [
    ((16, 16, 16), (0, True)), ((32, 32, 32), (4, False)),
    ((20, 20, 24), (1, True))],
    ids=["one_block", "whole_blocks", "partial_block"])
def test_liouville_integrate_matches_full_dot(n, blocks):
    # block sums equal one dot product over the grid up to rounding, on
    # grids of one block, of whole blocks and ending in a partial block
    grid = torus_quadrature(conformal_model(), n)
    whole, rest = divmod(grid.n_nodes, CHUNK_POINTS)
    assert (whole, rest > 0) == blocks
    fields = {text: SMScalarField.from_expression(text) for text in (
        "2.5", "cos(theta)^2", "sin(2*pi*x)*cos(2*pi*y)+1",
        "exp(sin(2*pi*(x-y)))*sin(theta)^2")}
    got = liouville_integrate(grid, fields)
    want = [float(np.dot(grid.weights, f.eval(grid.x, grid.y, grid.theta)))
            for f in fields.values()]
    scale = max(abs(v) for v in want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13 * scale
    if grid.n_nodes <= CHUNK_POINTS:
        assert got == want


def test_disk_liouville_integrate_matches_whole_arrays():
    # the disk rule built whole from meshgrids of its axes, as a polar
    # Gauss-Legendre x trapezoid tensor rule: its nodes and weights, and
    # the block sums over them, are those of the grid's blocks bit for bit
    model = build_surface_model("conformal_disk", phi="0.2*(x^2 - y^2)")
    nr, na, nt = 16, 24, 24
    grid = disk_quadrature(model, (nr, na, nt))
    gl_nodes, gl_w = np.polynomial.legendre.leggauss(nr)
    r, wr = 0.5 * (gl_nodes + 1.0), 0.5 * gl_w
    alphas = np.linspace(0.0, 2 * np.pi, na, endpoint=False)
    ts = np.linspace(0.0, 2 * np.pi, nt, endpoint=False)
    R, A, T = np.meshgrid(r, alphas, ts, indexing="ij")
    WR, _, _ = np.meshgrid(wr, alphas, ts, indexing="ij")
    x, y, theta = (R * np.cos(A)).ravel(), (R * np.sin(A)).ravel(), T.ravel()
    w = (WR * R).ravel() * (2 * np.pi / na) * (2 * np.pi / nt)
    w = w * model.conformal_factor(x, y) ** 2
    for got, want in ((grid.x, x), (grid.y, y), (grid.theta, theta),
                      (grid.weights, w)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert grid.n_nodes > CHUNK_POINTS
    fields = {text: SMScalarField.from_expression(text) for text in (
        "1", "x*sin(theta)", "exp(x*y)*cos(theta)^2")}
    want = [0.0] * len(fields)
    for lo in range(0, grid.n_nodes, CHUNK_POINTS):
        block = slice(lo, lo + CHUNK_POINTS)
        for i, f in enumerate(fields.values()):
            want[i] += float(np.dot(w[block], f.eval(
                x[block], y[block], theta[block])))
    assert liouville_integrate(grid, fields) == want


def test_liouville_integrate_names_first_nonfinite_node():
    # 1 / (x - 1/2) is inf on the nodes with x = 1/2, the first of which,
    # flat index 16 * 32 * 32, lies in the third block of CHUNK_POINTS
    grid = torus_quadrature(flat_torus(), 32)
    assert 16 * 32 * 32 >= 2 * CHUNK_POINTS
    with pytest.raises(DomainError, match=r"integrand pole is inf at grid "
                       r"node \(16384,\) of \(32768,\): \(x, y, theta\) = "
                       r"\(0.5, 0, 0\)"):
        liouville_integrate(grid, {
            "one": SMScalarField.constant(1.0),
            "pole": SMScalarField.from_expression("1/(x-0.5)")})


def test_closed_identity_memory_stays_blockwise():
    # the integrands are summed block by block, never held on the whole
    # grid: nine of them on 48^3 nodes would take 9 x grid.x.nbytes
    model = conformal_model()
    lam = lam_field()
    u = SMScalarField.from_expression("sin(2*pi*x)*cos(theta)")
    grid = torus_quadrature(model, 48)
    tracemalloc.start()
    try:
        check_integral_identity_closed(model, lam, u, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * grid.x.nbytes


def test_rel_residual_scales_by_integrals_only():
    # flags and diagnostics are reported with the integrals but do not
    # scale the residual: a True flag would read as 1.0
    rep = IdentityReport(lhs=1.0e-3, rhs=1.0e-3 + 2.0e-9,
                         integrals={"a": 1.5e-3, "b": -2.0e-3},
                         diagnostics={"flag": True, "pointwise": 0.5,
                                      "label": "text"})
    assert rep.rel_residual == pytest.approx(2.0e-9 / 2.0e-3, rel=1e-6)
    assert list(rep.terms) == ["a", "b", "flag", "pointwise", "label"]
    assert rep.as_dict()["terms"] == rep.terms


def test_pestov_pointwise():
    model = conformal_model()
    u = SMScalarField.from_expression("sin(2*pi*x)*cos(theta)")
    rng = np.random.default_rng(2)
    pts = (rng.uniform(0, 1, 500), rng.uniform(0, 1, 500),
           rng.uniform(0, 2 * np.pi, 500))
    rep = check_pestov_pointwise(model, lam_field(), u, pts)
    assert rep["max_residual"] < 1e-10


def test_lie_derivative_integrals():
    model = conformal_model()
    grid = torus_quadrature(model, 24)
    f = SMScalarField.from_expression("cos(2*pi*x)*sin(theta) + 0.5")
    reps = check_lie_derivatives(model, lam_field(), grid, f)
    for key in ("F", "H", "V"):
        assert reps[key].abs_residual < 1e-10, key


def test_closed_integral_identities():
    model = conformal_model()
    grid = torus_quadrature(model, 32)
    for text in ("sin(2*pi*x)*cos(theta)",
                 "cos(2*pi*y)",
                 "sin(2*pi*(x+y)) + 0.3*sin(theta)*cos(2*pi*x)"):
        u = SMScalarField.from_expression(text)
        reps = check_integral_identity_closed(model, lam_field(), u, grid)
        for key in ("first", "second", "final"):
            assert reps[key].rel_residual < 1e-10, (text, key)


def test_boundary_identity_vanishing_u():
    model = build_surface_model("conformal_disk", phi="0.1*(x^2 - y^2)")
    lam = SMScalarField.from_expression("0.1*x")
    grid = disk_quadrature(model, (12, 16, 16))
    u = SMScalarField.from_expression("(1 - x^2 - y^2)*sin(theta)")
    rep = check_integral_identity_boundary(model, lam, u, grid)
    assert abs(rep.terms["boundary_term"]) < 1e-10
    assert rep.rel_residual < 1e-10


def test_boundary_identity_nonvanishing_u():
    model = euclidean_disk()
    lam = SMScalarField.constant(0.0)
    grid = disk_quadrature(model, (12, 16, 16))
    u = SMScalarField.from_expression("x*sin(theta)")
    rep = check_integral_identity_boundary(model, lam, u, grid)
    assert rep.terms["u_boundary_max"] > 0.5  # u does not vanish on the rim
    assert rep.rel_residual < 1e-10


def test_fourier_facts():
    model = conformal_model()
    grid = torus_quadrature(model, 24)
    reps = check_fourier_facts(
        model, grid,
        h=SMScalarField.from_expression("cos(2*pi*y)"),
        w_x=SMScalarField.from_expression("sin(2*pi*x)"),
        w_y=SMScalarField.from_expression("cos(2*pi*(x+y))"))
    assert reps["mixed"].abs_residual < 1e-12
    assert reps["parity"].rel_residual < 1e-12


def test_transport_expansion_along_orbit():
    model = euclidean_disk()
    lam = SMScalarField.from_expression("0.2*x")
    psi = SMScalarField.from_expression("(1 - x^2 - y^2)*cos(theta)")
    states = [SMPoint(0.1, 0.2, 0.5), SMPoint(-0.3, 0.1, 2.0)]
    res = transport_expansion_residual(model, lam, psi, states)
    assert res < 1e-4


def test_second_identity_nonnegative_rhs():
    model = euclidean_disk()
    lam = SMScalarField.from_expression("0.2*x")
    psi = SMScalarField.from_expression("(1 - x^2 - y^2)*cos(theta)")
    grid = disk_quadrature(model, (8, 12, 12))
    rep = check_second_identity(model, lam, psi, grid)
    assert rep.terms["rhs_nonnegative"]
    assert rep.rel_residual < 5e-3


def test_second_identity_nonfinite_field_is_domain_error():
    # sqrt(x) is NaN at the nodes with x < 0: the fields are sampled before
    # any exterior fan is integrated, and no numpy warning escapes
    model = euclidean_disk()
    grid = disk_quadrature(model, (4, 6, 4))
    with pytest.raises(DomainError, match=r"^psi is nan at grid node "
                       r"\(0, \d, \d\) of \(4, 6, 4\): \(x, y, theta\)"):
        check_second_identity(model, SMScalarField.constant(0.2),
                              "sqrt(x)*(1 - x^2 - y^2)", grid)
