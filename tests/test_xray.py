"""Ray transform of function/1-form pairs and its discretization."""

import numpy as np
import pytest

import thermolab.xray
from thermolab.errors import DomainError
from thermolab.fields import SMPoint, SMScalarField
from thermolab.flow import STEP_FAILED, OrbitBatch, ThermostatSpec, \
    geodesic_spec, integrate_to_boundary
from thermolab.geometry import build_surface_model, euclidean_disk
from thermolab.xray import MAX_PANELS, QUAD_SPACING, PairField, \
    PolarNodeGrid, _panel_rules, _step_integrals, _subspace_angles, \
    assemble_discrete_operator, boundary_corrector, chi_field, \
    corrected_pair, gauge_basis, gauge_bumps, ray_fan, reconstruct_pair, \
    transform_fan, transform_pair


def disk_spec():
    return geodesic_spec(euclidean_disk())


def entry_state(s, beta):
    return SMPoint(np.cos(s), np.sin(s), s + np.pi + beta)


def test_panel_rule_is_leggauss_8():
    # the written-out rule has the bits of numpy's 8-point Gauss-Legendre
    nodes, weights = np.polynomial.legendre.leggauss(8)
    for got, want in ((thermolab.xray._GL_NODES, nodes),
                      (thermolab.xray._GL_WEIGHTS, weights)):
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_step_rule_is_leggauss_4():
    nodes, weights = np.polynomial.legendre.leggauss(4)
    for got, want in ((thermolab.xray._GL4_NODES, nodes),
                      (thermolab.xray._GL4_WEIGHTS, weights)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_chord_lengths():
    spec = disk_spec()
    pair = PairField.from_expressions(phi="1")
    for s, beta in ((0.0, 0.0), (1.2, 0.5), (3.0, -1.0)):
        rec = transform_pair(spec, pair, entry_state(s, beta))
        d = np.sin(abs(beta))
        assert rec.length == pytest.approx(2 * np.sqrt(1 - d * d), abs=1e-10)
        assert rec.value == pytest.approx(rec.length, abs=1e-10)


def test_gauge_pair_integrates_to_zero():
    spec = disk_spec()
    psi = SMScalarField.from_expression("(1 - x^2 - y^2)^2")
    pair = PairField.gauge(psi)
    rng = np.random.default_rng(4)
    for _ in range(10):
        s = rng.uniform(0, 2 * np.pi)
        beta = rng.uniform(-1.2, 1.2)
        rec = transform_pair(spec, pair, entry_state(s, beta))
        assert abs(rec.value) < 1e-9


def test_transform_additive():
    spec = disk_spec()
    a = PairField.from_expressions(phi="1 - x^2 - y^2")
    b = PairField.from_expressions(w_x="y", w_y="-x")
    e = entry_state(0.7, 0.3)
    va = transform_pair(spec, a, e).value
    vb = transform_pair(spec, b, e).value
    vab = transform_pair(spec, a + b, e).value
    assert vab == pytest.approx(va + vb, abs=1e-9)


def test_fan_chord_lengths():
    # Euclidean disk: the chord at distance d = |sin beta| from the centre
    # has length 2 sqrt(1 - d^2), and the transform of phi = 1 is its length
    fan = ray_fan(8, 9)
    records = transform_fan(disk_spec(), PairField.from_expressions(phi="1"),
                            fan)
    for entry, rec in zip(fan, records):
        beta = entry.theta - np.arctan2(entry.y, entry.x) - np.pi
        d = abs(np.sin(beta))
        assert rec.length == pytest.approx(2 * np.sqrt(1 - d * d), abs=1e-10)
        assert rec.value == pytest.approx(rec.length, abs=1e-10)


def test_chord_integrals_closed_form():
    # Euclidean disk, lam = 0: phi = 1 - x^2 - y^2 along the chord of
    # length L at distance d = sqrt(1 - L^2/4) from the centre integrates to
    # (1 - d^2) L - L^3/12 = L^3/6
    fan = ray_fan(9, 11)
    records = transform_fan(disk_spec(), PairField.from_expressions(
        phi="1 - x^2 - y^2"), fan)
    for rec in records:
        assert abs(rec.value - rec.length ** 3 / 6) < 1e-12


def test_exact_forms_closed_form():
    # lam = 0.3 on the Euclidean disk: theta = theta_0 + 0.3 t on the
    # computed orbits to rounding, so d psi for psi = x + 2y, whose pairing
    # with gamma' = (cos theta, sin theta) depends on theta alone,
    # integrates to psi(exit) - psi(entry) along the arc of the computed
    # length; every ray's last step is cut at its exit
    lam = 0.3
    spec = ThermostatSpec(euclidean_disk(), SMScalarField.constant(lam))
    fan = ray_fan(9, 11)
    for rec in transform_fan(spec, PairField.gauge("x + 2*y"), fan):
        th0 = rec.entry.theta
        th1 = th0 + lam * rec.length
        arc = (np.sin(th1) - np.sin(th0) - 2 * (np.cos(th1) - np.cos(th0))) \
            / lam
        assert abs(rec.value - arc) < 1e-12
    # d(xy) pairs with the computed states: its identity holds to the
    # orbits' own error at tolerance 1e-10 (1.1e-9 here), not to rounding
    for rec in transform_fan(spec, PairField.gauge("x*y"), fan):
        psi = rec.exit.x * rec.exit.y - rec.entry.x * rec.entry.y
        assert abs(rec.value - psi) < 5e-9


def test_step_quadrature_stops_at_the_panel_cap():
    # an integrand that never settles: the ray doubles its panels until it
    # has MAX_PANELS of them, and no further
    orbits = integrate_to_boundary(disk_spec(), [entry_state(0.3, 0.2)])
    panels = []

    def noise(x, y, theta):
        panels.append(x.shape[-1] // 4)      # per step, of 4 nodes each
        return np.sin(1e6 * x)
    _step_integrals(orbits, [0], noise, "noise")
    steps = orbits.last_step[0] + 1
    assert steps > 1 and panels == [2 ** r for r in range(len(panels))]
    assert steps * panels[-1] >= MAX_PANELS > steps * panels[-2]


def test_transforms_search_no_steps(monkeypatch):
    # each quadrature node lies on a known step, so neither transform nor
    # chi looks a node's step up through OrbitBatch.state
    spec = disk_spec()
    rays = ray_fan(4, 3)
    op = assemble_discrete_operator(spec, PolarNodeGrid(5, 6), rays)

    def no_lookup(self, orbits, t):
        raise AssertionError("OrbitBatch.state called")
    monkeypatch.setattr(OrbitBatch, "state", no_lookup)
    pair = PairField.from_expressions(phi="1")
    lengths = [rec.length for rec in transform_fan(spec, pair, rays)]
    assert np.allclose(op.transform(pair), lengths, rtol=0, atol=1e-12)
    assert chi_field(spec, "1", SMPoint(0.2, 0.0, 0.0), tail=0.5) == \
        pytest.approx(1.2, abs=1e-10)


def test_fan_matches_one_ray_transform():
    # a curved disk with a thermostat; boundary entries and interior ones,
    # which are first followed backward to the boundary
    model = build_surface_model("conformal_disk",
                                phi="0.04*(x^2+y^2) + 0.01*x*y")
    spec = ThermostatSpec(model, SMScalarField.from_expression(
        "0.2 - 0.03*x"))
    pair = PairField.from_expressions(phi="exp(-(x^2+y^2))", w_x="0.3*y",
                                      w_y="-0.3*x")
    entries = ray_fan(5, 4) + [SMPoint(0.1, -0.2, 0.7), SMPoint(-0.5, 0.3,
                                                                2.9)]
    records = transform_fan(spec, pair, entries)
    for entry, rec in zip(entries, records):
        one = transform_pair(spec, pair, entry)
        assert rec.length == pytest.approx(one.length, abs=1e-10)
        assert rec.value == pytest.approx(one.value, abs=1e-10)
        for a, b in ((rec.entry, one.entry), (rec.exit, one.exit)):
            assert np.allclose(a, b, rtol=0, atol=1e-10)


def test_pair_keeps_its_integrand():
    # one compile per pair and model, rebuilt when either changes
    spec = disk_spec()
    pair = PairField.from_expressions(phi="1 - x^2 - y^2", w_x="0.3*y")
    e = entry_state(0.7, 0.3)
    first = transform_pair(spec, pair, e).value
    kept = pair.clamped_integrand(spec.model)
    assert transform_pair(spec, pair, e).value == first
    assert pair.clamped_integrand(spec.model) is kept
    assert pair.clamped_integrand(euclidean_disk()) is not kept
    pair.phi = SMScalarField.constant(1.0)
    pair.w_x = SMScalarField.constant(0.0)
    rec = transform_pair(spec, pair, e)
    assert rec.value == pytest.approx(rec.length, abs=1e-10)


def test_fan_reports_trapped_rays_as_none():
    # tight thermostat circles: the interior entry at the centre never
    # reaches the boundary; the boundary entry leaves at once
    spec = ThermostatSpec(euclidean_disk(), SMScalarField.constant(5.0))
    pair = PairField.from_expressions(phi="1")
    trapped, rec = transform_fan(spec, pair, [SMPoint(0.0, 0.0, 0.3),
                                              entry_state(0.5, 0.2)],
                                 horizon=5.0)
    assert trapped is None
    assert rec.value == pytest.approx(rec.length, abs=1e-10)


def test_operator_transform_matches_fan():
    # values on the assembled orbits are the fan transform's values
    spec = disk_spec()
    rays = ray_fan(6, 5)
    op = assemble_discrete_operator(spec, PolarNodeGrid(6, 6), rays)
    pair = PairField.from_expressions(phi="1 - x^2 - y^2", w_x="0.3*y")
    direct = [r.value for r in transform_fan(spec, pair, rays)]
    assert np.max(np.abs(op.transform(pair) - direct)) < 1e-12


def test_chi_primitive():
    # chi at an interior state equals the integral along the backward ray,
    # and is independent of how far past the boundary the tail extends
    spec = disk_spec()
    q = SMScalarField.from_expression("1")
    state = SMPoint(0.2, 0.0, 0.0)
    val = chi_field(spec, q, state)
    assert val == pytest.approx(1.2, abs=1e-10)  # backward distance to rim
    assert chi_field(spec, q, state, tail=0.5) == pytest.approx(val,
                                                                abs=1e-10)


def test_boundary_corrector_vanishes_on_rim():
    model = euclidean_disk()
    w_x = SMScalarField.from_expression("1")
    w_y = SMScalarField.from_expression("0")
    psi = boundary_corrector(model, w_x, w_y)
    ss = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    vals = psi.eval(np.cos(ss), np.sin(ss), 0.0)
    assert np.max(np.abs(vals)) < 1e-14


def test_boundary_corrector_normal_derivative():
    # on the rim the radial derivative x psi_x + y psi_y is w(n)
    model = build_surface_model("conformal_disk", phi="0.04*(x^2+y^2)")
    pair = PairField.from_expressions(phi="x", w_x="1 + x*y - y^2",
                                      w_y="exp(x)*cos(y)")
    psi = boundary_corrector(model, pair.w_x, pair.w_y)
    ss = np.linspace(0, 2 * np.pi, 37, endpoint=False)
    x, y = np.cos(ss), np.sin(ss)
    radial = x * psi.partial("x").eval(x, y, 0.0) \
        + y * psi.partial("y").eval(x, y, 0.0)
    wn = x * pair.w_x.eval(x, y, 0.0) + y * pair.w_y.eval(x, y, 0.0)
    assert np.max(np.abs(radial - wn)) < 1e-13
    fixed, psi2 = corrected_pair(model, pair)
    # closed forms at interior points: psi = (r^2 - 1) g / 2 with
    # g = x w_x + y w_y, and the corrected 1-form is w - d psi
    x, y = np.array([0.0, 0.3, -0.45, 0.1]), np.array([0.0, -0.2, 0.35, 0.8])
    w_x, w_y = 1 + x * y - y * y, np.exp(x) * np.cos(y)
    g = x * w_x + y * w_y
    g_x = w_x + x * y + y * np.exp(x) * np.cos(y)
    g_y = x * (x - 2 * y) + w_y - y * np.exp(x) * np.sin(y)
    half = 0.5 * (x * x + y * y - 1)
    want = {"psi": half * g, "phi": x,
            "w_x": w_x - (x * g + half * g_x),
            "w_y": w_y - (y * g + half * g_y)}
    for name, field in (("psi", psi), ("psi", psi2), ("phi", fixed.phi),
                        ("w_x", fixed.w_x), ("w_y", fixed.w_y)):
        assert np.allclose(field.eval(x, y, 0.7), want[name], rtol=1e-13,
                           atol=1e-15), name


def test_corrected_pair_same_transform():
    # subtracting an interior-supported gauge pair leaves ray data unchanged
    spec = disk_spec()
    pair = PairField.from_expressions(w_x="1 - x^2 - y^2")
    fixed, _ = corrected_pair(spec.model, pair)
    e = entry_state(1.0, 0.4)
    assert transform_pair(spec, fixed, e).value == pytest.approx(
        transform_pair(spec, pair, e).value, abs=1e-7)


def test_polar_grid_partition_of_unity():
    grid = PolarNodeGrid(8, 10)
    rng = np.random.default_rng(1)
    r = np.sqrt(rng.uniform(0, 1, 50))
    a = rng.uniform(0, 2 * np.pi, 50)
    x, y = r * np.cos(a), r * np.sin(a)
    ones = grid.interpolate(np.ones(grid.n_nodes), x, y)
    assert np.max(np.abs(ones - 1.0)) < 1e-12


def test_polar_grid_interpolates_smooth_field():
    grid = PolarNodeGrid(14, 14)
    f = lambda x, y: 1 - x ** 2 - y ** 2
    nx, ny = grid.node_xy()
    vals = f(nx, ny)
    rng = np.random.default_rng(6)
    r = np.sqrt(rng.uniform(0, 0.95, 100))
    a = rng.uniform(0, 2 * np.pi, 100)
    x, y = r * np.cos(a), r * np.sin(a)
    err = grid.interpolate(vals, x, y) - f(x, y)
    assert np.max(np.abs(err)) < 0.05


def test_ray_fan_size_and_margin():
    fan = ray_fan(10, 8)
    assert len(fan) == 80
    for p in fan:
        assert np.hypot(p.x, p.y) == pytest.approx(1.0)


def test_one_angle_fan_shoots_along_the_inward_normal():
    # np.linspace(a, b, 1) is [a]: one angle used to aim 5 degrees off
    # tangency, at beta = -85 degrees
    for n_boundary in (1, 4):
        for s, p in zip(np.linspace(0.0, 2 * np.pi, n_boundary,
                                    endpoint=False),
                        ray_fan(n_boundary, 1)):
            assert p.theta == (s + np.pi) % (2 * np.pi)
    betas = [p.theta - np.pi for p in ray_fan(1, 3)]
    assert np.rad2deg(betas) == pytest.approx([-85.0, 0.0, 85.0])


def test_operator_builds_its_records_on_first_read():
    rays = ray_fan(4, 3)
    op = assemble_discrete_operator(disk_spec(), PolarNodeGrid(4, 6), rays)
    assert "rays" not in vars(op)
    assert [r.entry for r in op.rays] == rays
    assert op.rays is op.rays
    for i, r in zip(op.orbit_index, op.rays):
        assert r.length == op.orbits.end_time[i]
        assert r.exit == SMPoint(*op.orbits.exit_state[i])


def test_discrete_operator_matches_transform():
    spec = disk_spec()
    grid = PolarNodeGrid(10, 10)
    rays = ray_fan(8, 8)
    op = assemble_discrete_operator(spec, grid, rays)
    assert op.matrix.shape == (64, 3 * grid.n_nodes)
    pair = PairField.from_expressions(phi="1 - x^2 - y^2", w_x="0.3*y")
    vec = grid.discretize_pair(pair)
    direct = np.array([r.value for r in [
        transform_pair(spec, pair, r.entry) for r in op.rays]])
    assert np.max(np.abs(op.apply(vec) - direct)) < 0.05


def test_assembled_matrix_is_the_csr_product():
    # each block of the ray matrix is (quadrature weights) x
    # (interpolation) as a product of sparse matrices, bit for bit; the
    # points inside ring 1 and the angular wrap-around are both crossed
    from scipy.sparse import csr_matrix
    model = build_surface_model("conformal_disk",
                                phi="0.04*(x^2+y^2) + 0.01*x*y")
    spec = ThermostatSpec(model, SMScalarField.from_expression(
        "0.2 - 0.03*x"))
    grid = PolarNodeGrid(7, 9)
    op = assemble_discrete_operator(spec, grid, ray_fan(7, 7))
    lengths = op.orbits.end_time[op.orbit_index]
    n_panels = np.maximum(2, np.ceil(lengths / (8 * QUAD_SPACING)).astype(
        int))
    ts, ws, which = _panel_rules(0.0, lengths, n_panels)
    sx, sy, st = op.orbits.state(op.orbit_index[which], ts).T
    index, weight = grid.interpolation(sx, sy)
    assert np.any(np.hypot(sx, sy) < 1.0 / 6.0)
    coeff = csr_matrix((weight.ravel(), index.ravel(),
                        np.arange(0, weight.size + 1, 4)),
                       shape=(ts.size, grid.n_nodes))
    indptr = np.searchsorted(which, np.arange(lengths.size + 1))
    speed = 1.0 / model.conformal_factor(sx, sy)
    want = np.hstack([
        (csr_matrix((w, np.arange(ts.size), indptr),
                    shape=(lengths.size, ts.size)) @ coeff).toarray()
        for w in (ws, ws * speed * np.cos(st), ws * speed * np.sin(st))])
    assert np.array_equal(op.matrix, want)


def test_interpolation_is_bilinear_in_polar_coordinates():
    grid = PolarNodeGrid(5, 8)
    nx, ny = grid.node_xy()
    index, weight = grid.interpolation(nx, ny)
    # at a node, the node itself with weight 1
    assert np.array_equal(np.take_along_axis(
        index, np.argmax(weight, axis=1)[:, None], axis=1)[:, 0],
        np.arange(grid.n_nodes))
    assert np.allclose(weight.max(axis=1), 1.0, rtol=0, atol=1e-12)
    # halfway between rings 1 and 2 and two angular nodes, across the wrap
    alpha = 2 * np.pi * 7.5 / 8
    index, weight = grid.interpolation(0.375 * np.cos(alpha),
                                       0.375 * np.sin(alpha))
    assert sorted(index[0]) == [1, 8, 9, 16]
    assert np.allclose(weight, 0.25, rtol=0, atol=1e-12)
    # inside ring 1: the center and two ring-1 nodes
    index, weight = grid.interpolation(0.125, 0.0)
    assert list(index[0]) == [0, 0, 1, 2]
    assert np.allclose(weight[0], [0.5, 0.0, 0.5, 0.0], rtol=0, atol=1e-12)


def _rotated_pair(rng, m, k, angles):
    # orthonormal bases of two subspaces with the given principal angles
    q, _ = np.linalg.qr(rng.standard_normal((m, 2 * k)))
    a, b = q[:, :k], q[:, k:]
    return a, a * np.cos(angles) + b * np.sin(angles)


@pytest.mark.parametrize("case", ["random", "nearly-parallel",
                                  "rank-deficient", "wide-second"])
def test_subspace_angles_match_scipy(case):
    from scipy.linalg import subspace_angles
    rng = np.random.default_rng(3)
    if case == "random":
        a, b = rng.standard_normal((40, 5)), rng.standard_normal((40, 7))
    elif case == "nearly-parallel":
        a, b = _rotated_pair(rng, 30, 4, np.array([1e-9, 1e-6, 0.3, 1.2]))
    elif case == "rank-deficient":
        a = rng.standard_normal((25, 3))
        a = np.hstack([a, a @ rng.standard_normal((3, 2)), np.zeros((25, 1))])
        b = rng.standard_normal((25, 4))
    else:
        a, b = rng.standard_normal((20, 3)), rng.standard_normal((20, 6))
        b[:, :2] = a[:, :2] + 1e-8 * rng.standard_normal((20, 2))
    got, want = _subspace_angles(a, b), subspace_angles(a, b)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


def test_assembly_drops_failed_rays_with_reasons(monkeypatch):
    spec = disk_spec()
    rays = [entry_state(s, 0.3) for s in (0.0, 1.0, 2.0)]
    integrate = thermolab.xray.integrate_to_boundary

    def failing(*args, **kwargs):
        # the engine reports a failed step for ray 1
        orbits = integrate(*args, **kwargs)
        orbits.outcome[1] = STEP_FAILED
        return orbits
    monkeypatch.setattr(thermolab.xray, "integrate_to_boundary", failing)
    with pytest.warns(UserWarning, match="ray 1: integration failed: step"):
        op = assemble_discrete_operator(spec, PolarNodeGrid(4, 6), rays)
    assert op.n_dropped == 1
    assert [r.entry for r in op.rays] == [rays[0], rays[2]]


def test_assembly_propagates_other_errors(monkeypatch):
    def failing(*args, **kwargs):
        raise DomainError("point outside disk domain")
    monkeypatch.setattr(thermolab.xray, "integrate_to_boundary", failing)
    with pytest.raises(DomainError):
        assemble_discrete_operator(disk_spec(), PolarNodeGrid(4, 6),
                                   [entry_state(0.0, 0.3)])


def test_gauge_basis_shape():
    grid = PolarNodeGrid(12, 12)
    G, bumps = gauge_basis(grid)
    assert G.shape == (3 * grid.n_nodes, len(bumps))
    assert len(bumps) == len(gauge_bumps())
    # gauge vectors have no function component
    assert np.max(np.abs(G[:grid.n_nodes])) == 0.0


def test_reconstruct_phi_with_explicit_rank():
    spec = disk_spec()
    grid = PolarNodeGrid(12, 12)
    op = assemble_discrete_operator(spec, grid, ray_fan(20, 20))
    pair = PairField.from_expressions(phi="1 - x^2 - y^2")
    values = np.array([transform_pair(spec, pair, r.entry).value
                       for r in op.rays])
    est = reconstruct_pair(op, values, rank=280)
    rng = np.random.default_rng(9)
    r = np.sqrt(rng.uniform(0, 0.9, 300))
    a = rng.uniform(0, 2 * np.pi, 300)
    x, y = r * np.cos(a), r * np.sin(a)
    truth = 1 - x ** 2 - y ** 2
    err = np.linalg.norm(est.phi_at(x, y) - truth) / np.linalg.norm(truth)
    assert err < 0.05
