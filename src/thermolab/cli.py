"""Command-line front end: `lab <subcommand> --config file.json`.

A JSON config (schema 1) names the surface, the thermostat intensity, and
any scalar/1-form fields as expression strings; the subcommand picks the
experiment.  Reports are serialized deterministically (sorted keys,
17-significant-digit floats) so repeated runs produce byte-identical
files.  Exit codes: 0 success, 1 configuration/validation failure,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import errors
from .expr import parse_expression
from .fields import SMPoint, SMScalarField
from .geometry import PLANE_WINDOW, build_surface_model, \
    constant_curvature_model, validate_structure_relations
from .flow import ThermostatSpec, integrate_orbit, nontrapping_scan

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

CONFIG_ERRORS = (errors.ParseError, errors.ValidationFailed,
                 errors.DomainError, KeyError, TypeError, ValueError)
NUMERICAL_ERRORS = (errors.StepFailure, errors.TrappedOrbit,
                    errors.BlowupInsideWindow, errors.NoConvergence,
                    errors.RiccatiUnavailable, errors.IllConditioned,
                    errors.SolverDiverged)


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _format_float(v):
    if v != v:
        return "NaN"
    if v == float("inf"):
        return "Infinity"
    if v == float("-inf"):
        return "-Infinity"
    text = f"{v:.17g}"
    # a float reads back as a float, with its sign: 1.0 and -0.0, not 1, -0
    return text if "." in text or "e" in text else text + ".0"


def dumps(obj, indent=0):
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            items.append(f'{pad}  {json.dumps(str(k))}: '
                         + dumps(obj[k], indent + 1))
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) \
            else list(obj)
        return "[" + ", ".join(dumps(v, indent) for v in seq) + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def write_report(bundle, fmt, path):
    """Write a report bundle as deterministic JSON or plot-ready CSV.

    CSV applies to tabular bundles: orbit traces (keys t, x, y, theta),
    singular-value spectra (key sigma), and residual-vs-grid curves
    (keys grid, residual); everything else falls back to JSON.
    """
    if fmt == "json":
        with open(path, "w") as fh:
            fh.write(dumps(bundle) + "\n")
        return
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w") as fh:
        if "sigma" in bundle:
            fh.write("index,sigma\n")
            for i, s in enumerate(bundle["sigma"]):
                fh.write(f"{i},{float(s):.17g}\n")
        elif {"t", "x", "y", "theta"} <= set(bundle):
            fh.write("t,x,y,theta\n")
            for row in zip(bundle["t"], bundle["x"], bundle["y"],
                           bundle["theta"]):
                fh.write(",".join(f"{float(v):.17g}" for v in row) + "\n")
        elif {"grid", "residual"} <= set(bundle):
            fh.write("grid,residual\n")
            for g, r in zip(bundle["grid"], bundle["residual"]):
                fh.write(f"{int(g)},{float(r):.17g}\n")
        else:
            raise ValueError("bundle has no tabular CSV layout; use json")


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------

def _refuse_constant(name):
    # JSON has no NaN or Infinity; Python's parser accepts them as literals
    raise ValueError(f"the non-finite literal {name} is not a number")


def _finite_float(text):
    # a JSON number too large for a float would read as inf
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"the number {text} does not fit a float")
    return value


def _float_sized_int(text):
    # commands read numbers with float(), which raises OverflowError on an
    # integer past the float range
    value = int(text)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"the {len(text)}-digit integer in the config "
                         "does not fit a float") from None
    return value


def load_config(path):
    with open(path) as fh:
        cfg = json.load(fh, parse_constant=_refuse_constant,
                        parse_float=_finite_float,
                        parse_int=_float_sized_int)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"config schema must be {SCHEMA_VERSION}")
    for key in ("tolerance",):
        if key in cfg and not float(cfg[key]) > 0:
            raise ValueError(f"{key} must be positive")
    for key, least in (("n_points", 1), ("seed", 0)):
        if key in cfg and not (type(cfg[key]) is int and cfg[key] >= least):
            raise ValueError(f"{key} must be an integer >= {least}, got "
                             f"{cfg[key]!r}")
    for key in ("grid", "n_quad", "n", "nodes"):
        if key in cfg:
            spec = cfg[key]
            sizes = spec if isinstance(spec, list) else [spec]
            if any(int(s) < 4 for s in sizes):
                raise ValueError(f"{key} sizes must be >= 4")
    if "surface" in cfg and not isinstance(cfg["surface"], dict):
        raise ValueError("surface must be a JSON object")
    if "initial" in cfg and not (
            isinstance(cfg["initial"], list) and len(cfg["initial"]) == 3
            and all(type(v) in (int, float) for v in cfg["initial"])):
        raise ValueError("initial must be three numbers: x, y, theta")
    return cfg


def field_from(cfg, key, default="0"):
    return SMScalarField.from_expression(
        parse_expression(str(cfg.get(key, default))))


def model_from(cfg):
    surf = cfg.get("surface", {"kind": "conformal_torus", "phi": "0"})
    kind = surf.get("kind", "conformal_torus")
    if kind == "synthetic":
        return constant_curvature_model(float(surf.get("K", -1.0)))
    return build_surface_model(kind, phi=parse_expression(
        str(surf.get("phi", "0"))))


def spec_from(cfg):
    model = model_from(cfg)
    lam = field_from(cfg, "lambda", "0")
    return ThermostatSpec(model, lam)


def initial_point(cfg, default=(0.1, 0.2, 0.3)):
    s = cfg.get("initial", list(default))
    return SMPoint(float(s[0]), float(s[1]), float(s[2]))


def _grid_tuple(cfg, key, default):
    g = cfg.get(key, default)
    if isinstance(g, (int, float)):
        return (int(g),) * len(default)
    return tuple(int(v) for v in g)


# ---------------------------------------------------------------------------
# subcommand implementations (each returns a report bundle)
# ---------------------------------------------------------------------------

def cmd_validate(cfg):
    model = model_from(cfg)
    lam = field_from(cfg, "lambda", "0")
    grid = _grid_tuple(cfg, "grid", (8, 8, 8))
    report = validate_structure_relations(model, grid, lam=lam)
    worst = float(np.max([r["max"] for r in report.values()]))
    ok = worst <= float(cfg.get("tolerance", 1e-6))
    bundle = {"experiment": "validate", "residuals": report,
              "worst": worst, "passed": ok}
    return bundle, EXIT_OK if ok else EXIT_CONFIG


def cmd_flow(cfg):
    spec = spec_from(cfg)
    p0 = initial_point(cfg)
    T = float(cfg.get("T", 5.0))
    n = int(cfg.get("n_samples", 200))
    orbit = integrate_orbit(spec, p0, (0.0, T),
                            t_eval=np.linspace(0.0, T, n))
    ts = orbit.t
    bundle = {"experiment": "flow",
              "t": ts.tolist(),
              "x": orbit.states[:, 0].tolist(),
              "y": orbit.states[:, 1].tolist(),
              "theta": (orbit.states[:, 2] % (2 * np.pi)).tolist(),
              "exit_time": orbit.exit_time,
              "unit_speed_defect": orbit.unit_speed_defect()}
    return bundle, EXIT_OK


def cmd_jacobi(cfg):
    from .jacobi import JACOBI_ATOL, JACOBI_RTOL, integrate_jacobi, \
        second_order_residual
    spec = spec_from(cfg)
    p0 = initial_point(cfg)
    T = float(cfg.get("T", 5.0))
    # the tolerances of detect_conjugate_points, so one solve gives both
    # the samples and the conjugate times
    traj = integrate_jacobi(spec, p0, (0.0, T), rtol=JACOBI_RTOL,
                            atol=JACOBI_ATOL,
                            t_eval=np.linspace(0.0, T, 100))
    bundle = {"experiment": "jacobi",
              "t": traj.t.tolist(),
              "a": traj.a.tolist(),
              "jy": traj.y.tolist(),
              "jz": traj.z.tolist(),
              "conjugate_times": traj.conjugate_times(),
              "second_order_residual": second_order_residual(traj)}
    return bundle, EXIT_OK


def cmd_riccati(cfg):
    from .jacobi import riccati_bound_constants, solve_riccati_limit
    spec = spec_from(cfg)
    p0 = initial_point(cfg, default=(0.0, 0.0, 0.3))
    r_plus, r_minus = solve_riccati_limit(spec, p0,
                                          tol=float(cfg.get("tolerance",
                                                            1e-6)))
    bundle = {"experiment": "riccati", "r_plus": r_plus, "r_minus": r_minus,
              "constants": riccati_bound_constants(spec)}
    return bundle, EXIT_OK


# the R3 Kronecker step (g^-1, g^-2, g^-3) with g^4 = g + 1, whose points
# frac(s + k step) spread evenly over the unit cube (Roberts 2018)
_KRONECKER_STEP = tuple(1.2207440846057596 ** -p for p in (1, 2, 3))
# frac(seed * (sqrt 2, sqrt 3, sqrt 5)) shifts the sequence for a seed: each
# irrational is held as the integer floor(2^64 sqrt p), so the shift is
# taken in integer arithmetic for a seed of any size
_SHIFT_NUMERATORS = tuple(math.isqrt(p << 128) for p in (2, 3, 5))


def pestov_points(model, n, seed):
    """n sample points (x, y, theta) of `lab pestov`, the R3 Kronecker
    points frac(s + k (g^-1, g^-2, g^-3)), k = 1..n, with g^4 = g + 1 and
    the shift s = frac(seed (sqrt 2, sqrt 3, sqrt 5)), mapped to the disk
    r <= 0.9 by area (r^2 and the polar angle uniform), to PLANE_WINDOW or
    to the unit square of the torus, and to a fiber angle in [0, 2 pi).  A
    seed repeats its points; two seeds shift the sequence apart."""
    k = np.arange(1, n + 1)
    u, v, w = ((((seed * c) % 2 ** 64) / 2 ** 64 + k * step) % 1.0
               for c, step in zip(_SHIFT_NUMERATORS, _KRONECKER_STEP))
    if model.domain.kind == "disk":
        r, a = np.sqrt(0.81 * u), 2 * np.pi * v
        u, v = r * np.cos(a), r * np.sin(a)
    elif model.domain.kind == "plane":
        (x0, x1), (y0, y1) = PLANE_WINDOW
        u, v = x0 + (x1 - x0) * u, y0 + (y1 - y0) * v
    return u, v, 2 * np.pi * w


def cmd_pestov(cfg):
    from .identities import check_pestov_pointwise
    spec = spec_from(cfg)
    u = field_from(cfg, "u", "sin(2*pi*x)*cos(theta)")
    points = pestov_points(spec.model, cfg.get("n_points", 1000),
                           cfg.get("seed", 0))
    rep = check_pestov_pointwise(spec.model, spec.lam, u, points)
    return {"experiment": "pestov", **rep}, EXIT_OK


def cmd_identity(cfg):
    from .identities import check_integral_identity_boundary, \
        check_integral_identity_closed, quadrature_for
    spec = spec_from(cfg)
    u = field_from(cfg, "u", "sin(2*pi*x)*cos(theta)"
                   if spec.model.domain.kind == "torus" else "x*sin(theta)")
    grid = quadrature_for(spec.model, n=cfg.get("n_quad"))
    if spec.model.domain.has_boundary:
        rep = check_integral_identity_boundary(spec.model, spec.lam, u, grid)
        bundle = {"experiment": "identity", "boundary": rep.as_dict()}
    else:
        reps = check_integral_identity_closed(spec.model, spec.lam, u, grid)
        bundle = {"experiment": "identity",
                  **{k: v.as_dict() for k, v in reps.items()}}
    return bundle, EXIT_OK


def cmd_xray(cfg):
    from .xray import PairField, ray_fan, transform_fan
    spec = spec_from(cfg)
    pair = PairField.from_expressions(phi=str(cfg.get("phi_field", "0")),
                                      w_x=str(cfg.get("w_x", "0")),
                                      w_y=str(cfg.get("w_y", "0")))
    nb = int(cfg.get("n_boundary", 20))
    na = int(cfg.get("n_angles", 20))
    horizon = float(cfg.get("horizon", 100.0))
    scan = nontrapping_scan(spec, grid_spec=(3, 4, 4), T_max=horizon) \
        if bool(cfg.get("trap_scan", True)) else {"trapped": []}
    fan = transform_fan(spec, pair, ray_fan(
        nb, na, margin_deg=float(cfg.get("margin_deg", 5.0))),
        horizon=horizon)
    records = [r for r in fan if r is not None]
    n_trapped = len(fan) - len(records)
    if n_trapped:
        warnings.warn(f"{n_trapped} rays trapped past horizon {horizon}; "
                      "emitting the partial fan")
    bundle = {"experiment": "xray",
              "entry_s": [r.entry_s for r in records],
              "entry_angle": [r.entry_angle for r in records],
              "length": [r.length for r in records],
              "value": [r.value for r in records],
              "n_trapped": n_trapped,
              "warnings": n_trapped + len(scan["trapped"])}
    return bundle, EXIT_OK


def cmd_invert(cfg):
    from .xray import PairField, PolarNodeGrid, analyze_kernel, \
        assemble_discrete_operator, gauge_basis, ray_fan, reconstruct_pair
    spec = spec_from(cfg)
    nr, na = _grid_tuple(cfg, "nodes", (12, 12))
    node_grid = PolarNodeGrid(nr, na)
    rays = ray_fan(int(cfg.get("n_boundary", 20)),
                   int(cfg.get("n_angles", 20)))
    op = assemble_discrete_operator(spec, node_grid, rays)
    pair = PairField.from_expressions(phi=str(cfg.get("phi_field", "0")),
                                      w_x=str(cfg.get("w_x", "0")),
                                      w_y=str(cfg.get("w_y", "0")))
    values = op.transform(pair)
    G, _ = gauge_basis(node_grid, spacing=float(cfg.get("gauge_spacing",
                                                        0.25)))
    try:
        kern = analyze_kernel(op, G)
        spectrum_info = {"gap_ratio": kern["gap_ratio"],
                         "kernel_dim": kern["kernel_dim"],
                         "gauge_dim": kern["gauge_dim"],
                         "max_principal_angle_deg":
                             float(np.max(kern["principal_angles_deg"]))}
    except errors.IllConditioned:
        spectrum_info = {"gap_ratio": None}
    rank = cfg.get("rank")
    est = reconstruct_pair(op, values,
                           rank=int(rank) if rank is not None else None)
    bundle = {"experiment": "invert", "sigma": op.thin_svd[1].tolist(),
              "spectrum": spectrum_info,
              "phi_norm": float(np.linalg.norm(est.phi_values))}
    return bundle, EXIT_OK


def cmd_anosov(cfg):
    from .anosov import theoremD_criterion
    model = model_from(cfg)
    lam = field_from(cfg, "lambda", "0")
    rep = theoremD_criterion(model, lam, _grid_tuple(cfg, "grid",
                                                     (16, 16, 16)))
    return {"experiment": "anosov", **rep.as_dict()}, EXIT_OK


def cmd_cohomology(cfg):
    from .anosov import cohomological_residual
    model = model_from(cfg)
    lam = field_from(cfg, "lambda", "0")
    res = cohomological_residual(model, lam, h=field_from(cfg, "h"),
                                 w_x=field_from(cfg, "w_x"),
                                 w_y=field_from(cfg, "w_y"),
                                 n=int(cfg.get("n", 32)))
    bundle = {"experiment": "cohomology", "residual": res["residual"],
              "rhs_norm": res["rhs_norm"], "grid": res["grid"],
              "minimizer_norm": float(np.linalg.norm(res["minimizer"]))}
    return bundle, EXIT_OK


COMMANDS = {
    "validate": cmd_validate,
    "flow": cmd_flow,
    "jacobi": cmd_jacobi,
    "riccati": cmd_riccati,
    "pestov": cmd_pestov,
    "identity": cmd_identity,
    "xray": cmd_xray,
    "invert": cmd_invert,
    "anosov": cmd_anosov,
    "cohomology": cmd_cohomology,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lab", description="thermostat-flow numerical laboratory")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None,
                        help="output directory (default: report to stdout)")
    parser.add_argument("--format", default="json", choices=("json", "csv"))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except CONFIG_ERRORS as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        bundle, code = COMMANDS[args.command](cfg)
    except CONFIG_ERRORS as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERICAL_ERRORS as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        ext = "json" if args.format == "json" else "csv"
        path = os.path.join(args.out, f"{args.command}.{ext}")
        write_report(bundle, args.format, path)
        print(path)
    else:
        print(dumps(bundle))
    return code


if __name__ == "__main__":
    sys.exit(main())
