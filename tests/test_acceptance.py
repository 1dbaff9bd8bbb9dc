"""Acceptance gate: one pass/fail line per numbered criterion.

Each test prints `criterion N (<title>): PASS|FAIL <detail>` and asserts the
stated tolerances.  Run with `pytest -v -s tests/test_acceptance.py` to see
the lines as they appear.
"""

import time

import numpy as np
import pytest

from thermolab.fields import SMPoint, SMScalarField
from thermolab.flow import ThermostatSpec, geodesic_spec
from thermolab.geometry import build_surface_model, constant_curvature_model, \
    euclidean_disk, flat_torus, validate_structure_relations

PHI_TEXT = "0.1*sin(2*pi*x)*cos(2*pi*y)"
LAM_TEXT = "0.2*sin(2*pi*y)"


def report(num, title, ok, detail=""):
    line = f"criterion {num} ({title}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print("\n" + line)
    return ok


def conformal_model():
    return build_surface_model("conformal_torus", phi=PHI_TEXT)


def lam_field():
    return SMScalarField.from_expression(LAM_TEXT)


def test_criterion_1_structure_equations():
    t0 = time.time()
    model = conformal_model()
    rep1 = validate_structure_relations(model, (24, 24, 24))
    worst1 = max(r["max"] for r in rep1.values())
    rep2 = validate_structure_relations(model, (24, 24, 24), lam=lam_field())
    worst2 = max(r["max"] for r in rep2.values())
    elapsed = time.time() - t0
    ok = worst1 < 1e-6 and worst2 < 1e-6 and elapsed < 30
    assert report(1, "structure equations", ok,
                  f"residuals {worst1:.2e}/{worst2:.2e}, {elapsed:.1f}s")


def test_criterion_2_pointwise_energy_identity():
    from thermolab.identities import check_pestov_pointwise
    t0 = time.time()
    model = conformal_model()
    u = SMScalarField.from_expression("sin(2*pi*x)*cos(theta)")
    rng = np.random.default_rng(0)
    pts = (rng.uniform(0, 1, 1000), rng.uniform(0, 1, 1000),
           rng.uniform(0, 2 * np.pi, 1000))
    rep = check_pestov_pointwise(model, lam_field(), u, pts)
    elapsed = time.time() - t0
    ok = rep["max_residual"] < 1e-6 and elapsed < 10
    assert report(2, "pointwise energy identity", ok,
                  f"max residual {rep['max_residual']:.2e}, {elapsed:.1f}s")


def test_criterion_3_closed_integral_identity():
    from thermolab.identities import check_fourier_facts, \
        check_integral_identity_closed, torus_quadrature
    t0 = time.time()
    model = conformal_model()
    lam = lam_field()
    grid = torus_quadrature(model, 48)
    worst = 0.0
    for text in ("sin(2*pi*x)*cos(theta)",
                 "cos(2*pi*y)",
                 "sin(2*pi*(x+y)) + 0.3*sin(theta)*cos(2*pi*x)"):
        u = SMScalarField.from_expression(text)
        reps = check_integral_identity_closed(model, lam, u, grid)
        worst = max(worst, reps["final"].rel_residual)
    fr = check_fourier_facts(
        model, grid,
        h=SMScalarField.from_expression("cos(2*pi*y)"),
        w_x=SMScalarField.from_expression("sin(2*pi*x)"),
        w_y=SMScalarField.from_expression("cos(2*pi*(x+y))"))
    parity = fr["parity"].rel_residual
    elapsed = time.time() - t0
    ok = worst < 1e-6 and parity < 1e-9 and elapsed < 60
    assert report(3, "closed integral identity", ok,
                  f"worst rel {worst:.2e}, parity {parity:.2e}, "
                  f"{elapsed:.1f}s")


def test_criterion_4_boundary_integral_identity():
    from thermolab.identities import check_integral_identity_boundary, \
        disk_quadrature
    t0 = time.time()
    model = euclidean_disk()
    lam = SMScalarField.constant(0.0)
    grid = disk_quadrature(model, (16, 24, 24))
    rep1 = check_integral_identity_boundary(
        model, lam, SMScalarField.from_expression("x*sin(theta)"), grid)
    rep2 = check_integral_identity_boundary(
        model, lam,
        SMScalarField.from_expression("(1 - x^2 - y^2)*sin(theta)"), grid)
    bterm = abs(rep2.terms["boundary_term"])
    elapsed = time.time() - t0
    ok = rep1.rel_residual < 1e-5 and bterm < 1e-10 and elapsed < 120
    assert report(4, "boundary integral identity", ok,
                  f"rel {rep1.rel_residual:.2e}, boundary term {bterm:.2e}, "
                  f"{elapsed:.1f}s")


def test_criterion_5_riccati_theory():
    from thermolab.jacobi import comparison_ode_residuals, \
        riccati_bound_constants, solve_riccati_finite, solve_riccati_limit
    t0 = time.time()
    spec = geodesic_spec(constant_curvature_model(-1.0))
    p0 = SMPoint(0.0, 0.0, 0.3)
    errs = []
    for R in (1.0, 2.0, 3.0):
        trace = solve_riccati_finite(spec, p0, R, sign="+")
        errs.append(abs(trace.r_at(0.0) - 1.0 / np.tanh(R)))
    coth_err = max(errs)
    r_plus, r_minus = solve_riccati_limit(spec, p0, tol=1e-7)
    limit_err = max(abs(r_plus - 1.0), abs(r_minus + 1.0))
    consts = riccati_bound_constants(spec)
    bound = 0.5 * consts["A"] * (1.0 + np.sqrt(5.0))
    bound_ok = (abs(r_plus) <= bound + 1e-9 and abs(r_minus) <= bound + 1e-9
                and bound == pytest.approx(1.618, abs=2e-3))
    ode = comparison_ode_residuals(A=consts["A"])
    ode_res = max(ode["w_plus"], ode["w_minus"])
    elapsed = time.time() - t0
    ok = (coth_err < 1e-8 and limit_err < 1e-6 and bound_ok
          and ode_res < 1e-9 and elapsed < 10)
    assert report(5, "riccati theory", ok,
                  f"coth {coth_err:.2e}, limits {limit_err:.2e}, "
                  f"bound {bound:.4f}, ode {ode_res:.2e}, {elapsed:.1f}s")


def test_criterion_6_conjugate_points():
    from thermolab.jacobi import detect_conjugate_points
    sphere = geodesic_spec(constant_curvature_model(1.0))
    times = detect_conjugate_points(sphere, SMPoint(0.0, 0.0, 0.2), 4.0)
    sphere_ok = len(times) >= 1 and abs(times[0] - np.pi) < 1e-8
    none_ok = True
    for model in (flat_torus(), constant_curvature_model(-1.0)):
        spec = geodesic_spec(model)
        none_ok &= detect_conjugate_points(spec, SMPoint(0.0, 0.0, 0.2),
                                           10.0) == []
    ok = sphere_ok and none_ok
    detail = f"sphere time {times[0]:.12f}" if times else "no sphere time"
    assert report(6, "conjugate points", ok, detail)


def test_criterion_7_xray_gauge_and_kernel():
    from thermolab.errors import IllConditioned
    from thermolab.xray import PairField, PolarNodeGrid, analyze_kernel, \
        assemble_discrete_operator, gauge_basis, ray_fan, transform_pair
    t0 = time.time()
    disk = euclidean_disk()
    geo = geodesic_spec(disk)
    fan = ray_fan(20, 20)

    psi = SMScalarField.from_expression("(1 - x^2 - y^2)^2")
    gauge = PairField.gauge(psi)
    worst_gauge = max(abs(transform_pair(geo, gauge, e).value) for e in fan)

    unit = PairField.from_expressions(phi="1")
    worst_chord = 0.0
    for e in fan[::7]:
        rec = transform_pair(geo, unit, e)
        beta = (e.theta - np.arctan2(e.y, e.x) - np.pi)
        d = abs(np.sin(beta))
        worst_chord = max(worst_chord,
                          abs(rec.length - 2 * np.sqrt(max(1 - d * d, 0.0))))

    node_grid = PolarNodeGrid(12, 12)
    G, _ = gauge_basis(node_grid)
    svd_ok = True
    svd_detail = []
    for lam_val in (0.0, 0.3):
        spec = ThermostatSpec(disk, SMScalarField.constant(lam_val))
        op = assemble_discrete_operator(spec, node_grid, fan)
        try:
            kern = analyze_kernel(op, G)
            angle = float(np.max(kern["principal_angles_deg"]))
            this_ok = (kern["gap_ratio"] >= 10.0
                       and kern["kernel_dim"] == kern["gauge_dim"]
                       and angle < 5.0)
            svd_detail.append(
                f"lam={lam_val}: gap {kern['gap_ratio']:.1f}x, "
                f"dim {kern['kernel_dim']}/{kern['gauge_dim']}, "
                f"angle {angle:.1f}deg")
        except IllConditioned as e:
            this_ok = False
            svd_detail.append(f"lam={lam_val}: {e}")
        svd_ok &= this_ok

    elapsed = time.time() - t0
    ok = (worst_gauge < 1e-9 and worst_chord < 1e-8 and svd_ok
          and elapsed < 120)
    assert report(7, "ray-transform gauge and kernel", ok,
                  f"gauge {worst_gauge:.2e}, chord {worst_chord:.2e}, "
                  + "; ".join(svd_detail) + f", {elapsed:.1f}s")


def test_criterion_8_reconstruction():
    from thermolab.xray import PairField, PolarNodeGrid, \
        assemble_discrete_operator, ray_fan, reconstruct_pair, transform_pair
    t0 = time.time()
    spec = geodesic_spec(euclidean_disk())
    node_grid = PolarNodeGrid(12, 12)
    op = assemble_discrete_operator(spec, node_grid, ray_fan(20, 20))
    pair = PairField.from_expressions(phi="1 - x^2 - y^2")
    values = np.array([transform_pair(spec, pair, r.entry).value
                       for r in op.rays])
    est = reconstruct_pair(op, values, rank=280)
    rng = np.random.default_rng(3)
    r = np.sqrt(rng.uniform(0, 0.95, 400))
    a = rng.uniform(0, 2 * np.pi, 400)
    x, y = r * np.cos(a), r * np.sin(a)
    truth = 1 - x ** 2 - y ** 2
    rel = np.linalg.norm(est.phi_at(x, y) - truth) / np.linalg.norm(truth)
    zero_est = reconstruct_pair(op, np.zeros(len(op.rays)), rank=280)
    zero_phi = float(np.max(np.abs(zero_est.phi_at(x, y))))
    zero_curl = float(np.max(np.abs(zero_est.curl_at(x[:50], y[:50]))))
    elapsed = time.time() - t0
    ok = rel < 0.05 and zero_phi < 1e-10 and zero_curl < 1e-8 \
        and elapsed < 120
    assert report(8, "reconstruction", ok,
                  f"rel L2 {rel:.3f}, zero-data {zero_phi:.1e}/"
                  f"{zero_curl:.1e}, {elapsed:.1f}s")


def test_criterion_9_hyperbolicity_criterion():
    from thermolab.anosov import rate_form_positive_definite, \
        theoremD_criterion
    from thermolab.geometry import derived_curvatures, \
        validation_grid_points
    flat = flat_torus()
    v0 = theoremD_criterion(flat, 0.0, (12, 12, 12)).sup_value
    c = 0.6
    vc = theoremD_criterion(flat, c, (12, 12, 12)).sup_value
    hyp = constant_curvature_model(-1.0)
    rep = theoremD_criterion(hyp, 0.0, (12, 12, 12))

    # Sylvester sign equivalence on a mixed-sign model
    model = conformal_model()
    lam = lam_field()
    x, y, th = validation_grid_points(model, (10, 10, 10))
    D = derived_curvatures(model, lam).anosovD.eval(x, y, th)
    posdef = rate_form_positive_definite(model, lam, x, y, th)
    mask = np.abs(D) > 1e-9
    sylvester_ok = bool(np.all(posdef[mask] == (D[mask] < 0.0)))
    has_both = bool(np.any(D[mask] > 0)) and bool(np.any(D[mask] < 0))

    ok = (abs(v0) < 1e-12 and abs(vc - c * c) < 1e-10
          and abs(rep.sup_value + 1.0) < 1e-9 and rep.anosov_flag
          and sylvester_ok and has_both)
    assert report(9, "hyperbolicity criterion", ok,
                  f"flat {v0:.1e}, lam=c {vc:.4f}, hyperbolic "
                  f"{rep.sup_value:.6f}, sylvester {sylvester_ok}")


def test_criterion_10_cohomological_residuals():
    from thermolab.anosov import cohomological_residual
    t0 = time.time()
    ft = flat_torus()
    w_x = SMScalarField.from_expression("2*pi*cos(2*pi*x)")
    exact = cohomological_residual(ft, 0.0, w_x=w_x, n=32)
    op = exact["operator"]
    psi = np.sin(2 * np.pi * op.X)
    mask = np.abs(np.cos(op.T)) > 1e-3
    minimizer_dev = float(np.max(np.abs(exact["minimizer"] - psi)[mask]))

    h = SMScalarField.from_expression("sin(2*pi*x)")
    res32 = cohomological_residual(ft, 0.0, h=h, n=32)["residual"]
    res64 = cohomological_residual(ft, 0.0, h=h, n=64)["residual"]

    closed = cohomological_residual(ft, 0.0, w_x=SMScalarField.constant(1.0),
                                    n=32)["residual"]
    elapsed = time.time() - t0
    ok = (exact["residual"] < 1e-8 and minimizer_dev < 1e-3
          and res32 >= 0.1 and res64 >= 0.1 and res64 >= res32 - 1e-12
          and closed >= 0.1 and elapsed < 300)
    assert report(10, "cohomological residuals", ok,
                  f"exact {exact['residual']:.1e} (minimizer dev "
                  f"{minimizer_dev:.1e}), h-obstruction {res32:.3f}->"
                  f"{res64:.3f}, closed-form {closed:.3f}, {elapsed:.1f}s")
