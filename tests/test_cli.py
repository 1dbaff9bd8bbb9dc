"""CLI: config ingestion, subcommand dispatch, exit codes, serialization."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import thermolab
from thermolab.cli import COMMANDS, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, \
    dumps, main, pestov_points
from thermolab.geometry import PLANE_WINDOW, constant_curvature_model, \
    euclidean_disk, flat_torus


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def flat_torus_cfg(**extra):
    return {"schema": 1,
            "surface": {"kind": "conformal_torus", "phi": "0"}, **extra}


def test_validate_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", flat_torus_cfg())
    assert main(["validate", "--config", cfg]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True


def test_bad_schema(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"schema": 2})
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG


def test_invalid_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG


def test_unknown_identifier(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "schema": 1, "surface": {"kind": "conformal_torus", "phi": "zz(x)"}})
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize("lam", ["1/0", "log(0)*x"])
def test_constant_division_by_zero_is_config_error(tmp_path, capsys, lam):
    # 1/0 is folded at parse time; log(0)*x has 1/0 in its derivative
    cfg = write_config(tmp_path, "c.json", flat_torus_cfg(**{"lambda": lam}))
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    assert "divides by zero" in capsys.readouterr().err


def test_validate_nan_field_is_validation_failure(tmp_path, capsys):
    # lam = sqrt(x + 0.5) is NaN on the disk's validation points with
    # x < -0.5; under pytest's error::RuntimeWarning a numpy warning from
    # the validation pass would escape instead of the report
    cfg = write_config(tmp_path, "c.json", {
        "schema": 1, "surface": {"kind": "conformal_disk", "phi": "0"},
        "lambda": "sqrt(x+0.5)"})
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is False and math.isnan(out["worst"])
    # NaN exactly in the relations whose coefficient fields read lam:
    # V(lam) is 0 symbolically, so [V, F] - H - V(lam) V does not
    nan = {name for name, r in out["residuals"].items()
           if math.isnan(r["max"])}
    assert nan == {"[H,V]-F-IH-(J-lam)V", "[F,H]-coreV+lamF+lamIH"}
    assert out["residuals"]["[V,F]-H-V(lam)V"]["max"] <= 1e-13


def test_nan_lambda_orbits_fail_quietly(tmp_path):
    # lam = sqrt(x+0.5) is NaN for x < -0.5: the Jacobi run's orbit gets
    # there and its step fails (exit 2, naming the stage and start state),
    # while the flow orbit (default T = 5) does not; the RuntimeWarnings
    # numpy would give for NaN stages reach neither stderr (a fresh
    # process, outside pytest's warning filter)
    cfg = write_config(tmp_path, "c.json", {
        "schema": 1, "surface": {"kind": "conformal_disk", "phi": "0"},
        "lambda": "sqrt(x+0.5)"})
    src = os.path.dirname(os.path.dirname(thermolab.__file__))
    stderr = {}
    for command, code in (("jacobi", EXIT_NUMERICAL), ("flow", EXIT_OK)):
        done = subprocess.run(
            [sys.executable, "-m", "thermolab.cli", command, "--config", cfg,
             "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=60)
        assert done.returncode == code, done.stderr
        stderr[command] = done.stderr
    assert stderr["jacobi"].startswith(
        "numerical failure: Jacobi [0.1, 0.2, 0.3, 0.0, 0.0, 1.0]: "
        "integration failed: step size below")
    assert stderr["jacobi"].count("\n") == 1
    assert stderr["flow"] == ""
    assert (tmp_path / "out" / "flow.json").exists()


def test_small_grid_rejected(tmp_path):
    cfg = write_config(tmp_path, "c.json", flat_torus_cfg(grid=[2, 2, 2]))
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG


def test_flow_csv(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "schema": 1, "surface": {"kind": "conformal_disk", "phi": "0"},
        "initial": [0.0, 0.0, 0.3], "T": 2.0})
    out = tmp_path / "out"
    assert main(["flow", "--config", cfg, "--out", str(out),
                 "--format", "csv"]) == EXIT_OK
    lines = (out / "flow.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,theta"
    assert len(lines) > 3


def test_deterministic_json(tmp_path):
    cfg = write_config(tmp_path, "c.json", flat_torus_cfg())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["validate", "--config", cfg, "--out", str(out1)])
    main(["validate", "--config", cfg, "--out", str(out2)])
    assert (out1 / "validate.json").read_bytes() == \
        (out2 / "validate.json").read_bytes()


def test_dumps_formats():
    text = dumps({"b": 1.0 / 3.0, "a": [1, True, None], "c": np.float64(2.0),
                  "d": [-0.0, 1e16, -3.0]})
    parsed = json.loads(text)
    assert parsed["b"] == pytest.approx(1.0 / 3.0, rel=1e-16)
    assert parsed["a"] == [1, True, None]
    assert list(json.loads(text)) == ["a", "b", "c", "d"]
    # floats stay floats, -0.0 keeps its sign
    assert '"c": 2.0' in text
    assert "[-0.0, 10000000000000000.0, -3.0]" in text


DUMPS_LEAVES = [1.0, -0.0, 0.1, 1e-300, 5e-324, math.nan, math.inf, -math.inf,
                np.float64(2.0), 3, True, None]


def test_dumps_flat_lists_match_the_general_form():
    # a flat float list is formatted in one pass; every list must read as
    # its elements formatted one by one, whether it takes that pass or not
    def general(values):
        return "[" + ", ".join(dumps(v) for v in values) + "]"
    floats = [v for v in DUMPS_LEAVES if type(v) is float]
    assert dumps(floats) == general(floats) == (
        "[1.0, -0.0, 0.10000000000000001, 1e-300, "
        "4.9406564584124654e-324, NaN, Infinity, -Infinity]")
    for values in (floats, DUMPS_LEAVES, [[v] for v in DUMPS_LEAVES], []):
        assert dumps(values) == general(values)
        assert dumps(tuple(values)) == general(values)
    assert dumps(np.array(floats)) == general(floats)
    assert dumps(np.array(floats).reshape(2, 4)) == \
        general([floats[:4], floats[4:]])
    assert general(DUMPS_LEAVES).endswith(", 2.0, 3, true, null]")
    for v in DUMPS_LEAVES:
        assert dumps([v]) == "[" + dumps(v) + "]"


_REPORT_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 18, 10 ** 18), st.floats(),
    st.floats().map(np.float64), st.text(max_size=6))
REPORTS = st.dictionaries(st.text(max_size=6), st.recursive(
    _REPORT_LEAVES,
    lambda values: st.one_of(
        st.lists(values, max_size=4),
        st.lists(st.floats(), max_size=4).map(np.array),
        st.dictionaries(st.text(max_size=6), values, max_size=4)),
    max_leaves=20), max_size=5)


def _reversed(obj):
    """The same report with every dict built in reverse key order."""
    if isinstance(obj, dict):
        return {k: _reversed(obj[k]) for k in reversed(list(obj))}
    if isinstance(obj, list):
        return [_reversed(v) for v in obj]
    return obj


def _same(read, obj):
    """Whether JSON read back from dumps(obj) holds obj's values; a float
    must read back as a float with the same sign bit (any NaN as NaN)."""
    if isinstance(obj, dict):
        return isinstance(read, dict) and read.keys() == obj.keys() and \
            all(_same(read[k], obj[k]) for k in obj)
    if isinstance(obj, (list, np.ndarray)):
        return isinstance(read, list) and len(read) == len(obj) and \
            all(_same(r, v) for r, v in zip(read, obj))
    if isinstance(obj, (float, np.floating)):
        if obj != obj:
            return isinstance(read, float) and read != read
        return isinstance(read, float) and read == obj and \
            math.copysign(1.0, read) == math.copysign(1.0, obj)
    return read == obj


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(REPORTS)
def test_dumps_deterministic_on_random_reports(report):
    text = dumps(report)
    assert dumps(_reversed(report)) == text
    assert _same(json.loads(text), report)


def test_pestov_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "schema": 1,
        "surface": {"kind": "conformal_torus",
                    "phi": "0.1*sin(2*pi*x)*cos(2*pi*y)"},
        "lambda": "0.2*sin(2*pi*y)", "n_points": 100})
    assert main(["pestov", "--config", cfg]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["max_residual"] < 1e-10


@pytest.mark.parametrize("make_model", [flat_torus, euclidean_disk],
                         ids=["torus", "disk"])
def test_pestov_points(make_model):
    # Kronecker points inside the sample region (the unit square, or the
    # disk of radius 0.9), the same for a seed, none shared by two seeds
    model = make_model()
    x, y, theta = pestov_points(model, 2000, 7)
    if model.domain.kind == "disk":
        assert np.all(np.hypot(x, y) <= 0.9)
        assert np.max(np.hypot(x, y)) > 0.89
    else:
        assert np.all((0.0 <= x) & (x < 1.0) & (0.0 <= y) & (y < 1.0))
    assert np.all((0.0 <= theta) & (theta < 2 * np.pi))
    again = pestov_points(model, 2000, 7)
    assert all(np.array_equal(a, b) for a, b in zip((x, y, theta), again))
    for seed in (0, 8, 2 ** 31 - 1, 10 ** 30):
        other = set(zip(*pestov_points(model, 2000, seed)))
        assert not other & set(zip(x, y, theta)), seed


def test_pestov_command_plane_window(tmp_path, capsys):
    # a plane model is sampled on its window PLANE_WINDOW, where its
    # exponent -log cos 2y is finite; the unit square would reach the
    # singularity at y = pi/4
    cfg = write_config(tmp_path, "c.json", {
        "schema": 1, "surface": {"kind": "synthetic", "K": -4.0},
        "n_points": 200})
    assert main(["pestov", "--config", cfg]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["max_residual"] < 1e-6
    x, y, _ = pestov_points(constant_curvature_model(-4.0), 200, 0)
    (x0, x1), (y0, y1) = PLANE_WINDOW
    assert np.all((x0 <= x) & (x < x1) & (y0 <= y) & (y < y1))


def test_unknown_subcommand_exits_1_naming_choices(tmp_path, capsys):
    # a usage error is a configuration failure; exit 2 means a numerical one
    cfg = write_config(tmp_path, "c.json", flat_torus_cfg())
    assert main(["transport", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "invalid choice: 'transport'" in err
    assert all(repr(name) in err for name in COMMANDS)


def test_missing_config_exits_1_and_help_exits_0(capsys):
    assert main(["validate"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "the following arguments are required: --config" in captured.err
    assert main(["--help"]) == EXIT_OK
    assert "usage: lab" in capsys.readouterr().out


def test_identity_command_torus(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "schema": 1,
        "surface": {"kind": "conformal_torus",
                    "phi": "0.1*sin(2*pi*x)*cos(2*pi*y)"},
        "lambda": "0.2*sin(2*pi*y)", "n_quad": [24, 24, 24]})
    assert main(["identity", "--config", cfg]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["final"]["rel_residual"] < 1e-9


def test_xray_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "schema": 1, "surface": {"kind": "conformal_disk", "phi": "0"},
        "phi_field": "1", "n_boundary": 4, "n_angles": 4,
        "trap_scan": False})
    assert main(["xray", "--config", cfg]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert len(out["value"]) == 16
    assert out["n_trapped"] == 0
    assert np.allclose(out["value"], out["length"])


def test_xray_trapped_partial_fan(tmp_path, capsys):
    # strong thermostat: tight interior circles never reach the boundary;
    # the run still succeeds and reports the trapped samples as warnings
    cfg = write_config(tmp_path, "c.json", {
        "schema": 1, "surface": {"kind": "conformal_disk", "phi": "0"},
        "lambda": "5", "phi_field": "1", "n_boundary": 3, "n_angles": 3,
        "horizon": 5.0, "trap_scan": True})
    assert main(["xray", "--config", cfg]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["warnings"] > 0


def test_invert_ill_conditioned_is_numerical_failure(tmp_path):
    # tiny fan cannot support reconstruction without an explicit rank
    cfg = write_config(tmp_path, "c.json", {
        "schema": 1, "surface": {"kind": "conformal_disk", "phi": "0"},
        "phi_field": "1", "nodes": [5, 6], "n_boundary": 4, "n_angles": 4})
    assert main(["invert", "--config", cfg]) == EXIT_NUMERICAL


def test_invert_ill_conditioned_with_rank_reports_spectrum(tmp_path, capsys):
    # with an explicit rank the run goes on and reports the one spectrum
    cfg = write_config(tmp_path, "c.json", {
        "schema": 1, "surface": {"kind": "conformal_disk", "phi": "0"},
        "phi_field": "1", "nodes": [5, 6], "n_boundary": 4, "n_angles": 4,
        "rank": 10})
    assert main(["invert", "--config", cfg]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["spectrum"] == {"gap_ratio": None}
    assert len(out["sigma"]) == 16
    assert out["sigma"] == sorted(out["sigma"], reverse=True)


def test_jacobi_command_conjugate_times(tmp_path, capsys):
    # one solve gives the samples and the conjugate times of
    # detect_conjugate_points: pi on the unit sphere
    from thermolab.cli import spec_from
    from thermolab.fields import SMPoint
    from thermolab.jacobi import detect_conjugate_points
    config = {"schema": 1, "surface": {"kind": "synthetic", "K": 1.0},
              "lambda": "0", "initial": [0.0, 0.0, 0.2], "T": 4.0}
    cfg = write_config(tmp_path, "c.json", config)
    assert main(["jacobi", "--config", cfg]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["conjugate_times"] == detect_conjugate_points(
        spec_from(config), SMPoint(0.0, 0.0, 0.2), 4.0)
    assert out["conjugate_times"] == pytest.approx([math.pi], abs=1e-8)
    assert len(out["t"]) == 100


def test_cohomology_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", flat_torus_cfg(
        h="sin(2*pi*x)", n=16))
    assert main(["cohomology", "--config", cfg]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["residual"] >= 0.1


def test_cohomology_odd_small_grid_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", flat_torus_cfg(
        h="sin(2*pi*x)", n=17))
    assert main(["cohomology", "--config", cfg]) == EXIT_CONFIG
    assert "n=17" in capsys.readouterr().err


def test_cohomology_nonfinite_lambda_is_config_error(tmp_path, capsys):
    # lam = sqrt(x - 0.5) is NaN on the grid nodes with x < 0.5, the first
    # being node (0, 0, 0); the operator's fiber coefficient is lam there
    cfg = write_config(tmp_path, "c.json", flat_torus_cfg(
        **{"lambda": "sqrt(x-0.5)", "h": "sin(2*pi*x)", "n": 8}))
    assert main(["cohomology", "--config", cfg]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "c_theta = sqrt((x-0.5))" in captured.err
    assert "grid node (0, 0, 0) of (8, 8, 8)" in captured.err


@pytest.mark.parametrize("command, extra, where", [
    ("pestov", {"n_points": 200, "seed": 1},
     r"residual of the pointwise identity is nan at grid node \(\d+,\) "
     r"of \(200,\)"),
    ("identity", {"n_quad": 8},
     r"integrand cross is nan at grid node \(0,\) of \(512,\)"),
    # on the disk, sqrt(0.995 - r^2) is finite on the interior nodes
    # (r^2 < 0.99) and NaN on the boundary circle only, where the flux
    # factor Fu Vu carries lam
    ("identity", {"surface": {"kind": "conformal_disk", "phi": "0"},
                  "lambda": "sqrt(0.995-x*x-y*y)"},
     r"boundary factor 1 \(of i_H Theta\) is nan at grid node \(0,\) of "
     r"\(4096,\)"),
], ids=["pestov", "identity", "identity-disk-boundary"])
def test_identity_probes_nonfinite_lambda_is_config_error(
        tmp_path, capsys, command, extra, where):
    # on the torus, lam = sqrt(x - 0.5) is NaN on the sample points and
    # quadrature nodes with x < 0.5; no residual or integral can be read
    # off such a sample
    cfg = write_config(tmp_path, "c.json", {
        **flat_torus_cfg(**{"lambda": "sqrt(x-0.5)"}), **extra})
    assert main([command, "--config", cfg]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(where, captured.err)


SMALL_INVERT = {"schema": 1, "surface": {"kind": "conformal_disk", "phi": "0"},
                "phi_field": "1", "nodes": [5, 6], "n_boundary": 4,
                "n_angles": 4}


@pytest.mark.parametrize("command, config", [
    ("invert", dict(SMALL_INVERT, nodes=[1, 12])),
    ("cohomology", flat_torus_cfg(h="sin(2*pi*x)", n=0)),
    ("cohomology", flat_torus_cfg(h="sin(2*pi*x)", n=2)),
    ("flow", flat_torus_cfg(initial=[0.1])),
    ("flow", {"schema": 1, "surface": [1, 2]}),
    ("invert", dict(SMALL_INVERT, rank=-3)),
    ("invert", dict(SMALL_INVERT, rank=0)),
    ("invert", dict(SMALL_INVERT, rank=100000)),
    ("pestov", flat_torus_cfg(n_points=0)),
    ("pestov", flat_torus_cfg(n_points=3.7)),
    ("pestov", flat_torus_cfg(seed=-1)),
    ("pestov", flat_torus_cfg(n_points=True)),
    ("pestov", flat_torus_cfg(seed=2.5)),
], ids=["nodes", "n0", "n2", "initial", "surface", "rank-3", "rank0",
        "rank100000", "n_points0", "n_points3.7", "seed-1", "n_points-true",
        "seed2.5"])
def test_config_mistakes_are_config_errors(tmp_path, capsys, command,
                                           config):
    # the 16 rays of SMALL_INVERT give 16 singular values
    cfg = write_config(tmp_path, "c.json", config)
    assert main([command, "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    for key in ("n_points", "seed"):
        if key in config:
            assert f"{key} must be an integer" in err


@pytest.mark.parametrize("command, text", [
    ("flow", '{"schema": 1, "T": NaN}'),
    ("flow", '{"schema": 1, "T": 1e400}'),
    ("flow", '{"schema": 1, "n_samples": 1e400}'),
    ("validate", '{"schema": 1, "grid": 1e400}'),
    ("flow", '{"schema": 1, "T": 1' + '0' * 400 + '}'),
], ids=["NaN", "1e400", "n_samples-1e400", "grid-1e400", "int-1e400"])
def test_non_finite_time_span_is_config_error(tmp_path, command, text):
    # JSON reads NaN as a literal and 1e400 as inf; a run over such a span
    # never ends, so it runs in a subprocess with a timeout
    path = tmp_path / "c.json"
    path.write_text(text)
    src = os.path.dirname(os.path.dirname(thermolab.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "thermolab.cli", command, "--config",
         str(path)], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_CONFIG
    assert "config error" in done.stderr


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def thread_vars_after_import(**env):
    """The thread variables a fresh interpreter sees after importing the CLI."""
    src = os.path.dirname(os.path.dirname(thermolab.__file__))
    base = {k: v for k, v in os.environ.items()
            if k not in THREAD_VARS + ("LAB_THREADS",)}
    base["PYTHONPATH"] = src
    code = ("import json, os, thermolab.cli; "
            f"print(json.dumps([os.environ.get(v) for v in {THREAD_VARS!r}]))")
    done = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_lab_threads_overrides_thread_variables():
    assert thread_vars_after_import(LAB_THREADS="1", OMP_NUM_THREADS="4") \
        == ["1", "1", "1", "1"]
    assert thread_vars_after_import(OMP_NUM_THREADS="4") == \
        ["4", None, None, None]


def test_cli_import_leaves_out_scipy_integrate():
    # every ODE runs on thermolab's own integrator; scipy.integrate alone
    # would add most of the start-up time of a `lab` run
    src = os.path.dirname(os.path.dirname(thermolab.__file__))
    code = ("import sys, thermolab.cli; "
            "print('scipy.integrate' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def modules_after(tmp_path, prefix, *runs):
    """The modules named prefix or prefix.* that a fresh interpreter has
    loaded after `lab` runs, each a subcommand and its config; every run
    must exit 0."""
    src = os.path.dirname(os.path.dirname(thermolab.__file__))
    argvs = [[sub, "--config", write_config(tmp_path, f"{i}.json", cfg),
              "--out", str(tmp_path / "out")]
             for i, (sub, cfg) in enumerate(runs)]
    code = ("import json, sys; from thermolab.cli import main; "
            f"codes = [main(argv) for argv in {argvs!r}]; "
            "print(json.dumps([codes, sorted(m for m in sys.modules "
            f"if m == {prefix!r} or m.startswith({prefix + '.'!r}))]))")
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    codes, modules = json.loads(done.stdout.strip().splitlines()[-1])
    assert codes == [EXIT_OK] * len(runs)
    return modules


# this fan and grid have a singular-value gap, so `lab invert` also takes
# the principal angles
DISK_FAN = {"schema": 1, "surface": {"kind": "conformal_disk", "phi": "0"},
            "phi_field": "1", "n_boundary": 12, "n_angles": 12}


def test_lab_runs_on_numpy_alone(tmp_path):
    # ray matrices, their SVD and principal angles, the hyperbolicity scan,
    # the cohomology operator and its CG all run on numpy; scipy's import
    # would double the start-up time of these subcommands
    assert modules_after(
        tmp_path, "scipy", ("xray", DISK_FAN),
        ("invert", dict(DISK_FAN, nodes=[8, 8])),
        ("anosov", flat_torus_cfg(grid=[6, 6, 6])),
        ("cohomology", flat_torus_cfg(h="sin(2*pi*x)", n=8))) == []


def test_lab_loads_no_numpy_random_or_polynomial(tmp_path):
    # pestov draws its points from a Kronecker sequence and the ray
    # quadrature's Gauss-Legendre rule is written out, so neither the
    # random generators nor the polynomial package are loaded
    rays = (("xray", DISK_FAN), ("invert", dict(DISK_FAN, nodes=[8, 8])))
    assert modules_after(
        tmp_path, "numpy.random", ("validate", flat_torus_cfg()),
        ("pestov", flat_torus_cfg(n_points=50, seed=3)),
        ("identity", flat_torus_cfg(n_quad=8)),
        ("anosov", flat_torus_cfg(grid=[6, 6, 6])), *rays) == []
    assert modules_after(tmp_path, "numpy.polynomial", *rays) == []


def test_lab_loads_no_numpy_fft(tmp_path):
    # the cohomology solve reaches the fiber band and the spatial Fourier
    # modes of its preconditioner by matrix products, on the full band
    # (n = 8) and where the band is cut (n = 24)
    assert modules_after(
        tmp_path, "numpy.fft",
        ("cohomology", flat_torus_cfg(h="sin(2*pi*x)", n=8)),
        ("cohomology", flat_torus_cfg(h="sin(2*pi*x)", n=24)),
        ("anosov", flat_torus_cfg(grid=[6, 6, 6])),
        ("identity", flat_torus_cfg(n_quad=8))) == []


def test_anosov_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "schema": 1, "surface": {"kind": "synthetic", "K": -1.0},
        "grid": [6, 6, 6]})
    assert main(["anosov", "--config", cfg]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["anosov_flag"] is True


def test_anosov_nonfinite_lambda_is_config_error(tmp_path, capsys):
    # lam = sqrt(x - 0.5) is NaN on the grid nodes with x < 0.5, the first
    # being node (0, 0, 0); no supremum or flag can be read off such a scan
    cfg = write_config(tmp_path, "c.json", flat_torus_cfg(
        **{"lambda": "sqrt(x-0.5)", "grid": [8, 8, 8]}))
    assert main(["anosov", "--config", cfg]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "grid node (0, 0, 0) of (8, 8, 8)" in captured.err


def test_riccati_nonfinite_constants_are_config_error(tmp_path, capsys):
    # lam = 1e-300 sqrt(0.35 - y) is NaN on the nodes of the synthetic
    # window [-0.4, 0.4]^2 with y > 0.35, and so is K_lambda there.  No
    # bound can be read off such a grid.  The orbit from the origin along
    # the x axis and its Riccati limit stay at y = 0; the one at theta = 0.3
    # reaches y > 0.35, where the Riccati walks would fail their steps
    # (exit 2), but the constants are taken first and refuse the config
    for initial in ([0.0, 0.0, 0.0], [0.0, 0.0, 0.3]):
        cfg = write_config(tmp_path, "c.json", {
            "schema": 1, "surface": {"kind": "synthetic", "K": -1.0},
            "lambda": "1e-300*sqrt(0.35-y)", "initial": initial})
        assert main(["riccati", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Riccati constant field K_lambda is nan at grid node " \
            "(0, 11, 0) of (12, 12, 24)" in captured.err


def test_spectrum_csv(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "schema": 1, "surface": {"kind": "conformal_disk", "phi": "0"},
        "phi_field": "1 - x^2 - y^2", "nodes": [6, 6],
        "n_boundary": 8, "n_angles": 8, "rank": 60})
    out = tmp_path / "out"
    assert main(["invert", "--config", cfg, "--out", str(out),
                 "--format", "csv"]) == EXIT_OK
    lines = (out / "invert.csv").read_text().splitlines()
    assert lines[0] == "index,sigma"
    sigmas = [float(l.split(",")[1]) for l in lines[1:]]
    assert sigmas == sorted(sigmas, reverse=True)
