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
from .fields import SMPoint, SMScalarField
from .geometry import build_surface_model, constant_curvature_model, \
    validate_structure_relations
from .flow import ThermostatSpec, integrate_orbit, integrate_to_boundary, \
    scan_orbits, scan_report

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
    if v == math.inf:
        return "Infinity"
    if v == -math.inf:
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
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        if all(type(v) is float for v in seq):
            # a flat float list (a 1-D float array's tolist()): one pass
            return "[" + ", ".join(map(_format_float, seq)) + "]"
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

    CSV applies to tabular bundles: orbit traces (keys t, x, y, theta, from
    `lab flow`) and singular-value spectra (key sigma, from `lab invert`).
    Any other bundle raises ValueError before the file is opened.
    """
    if fmt == "json":
        rows = [dumps(bundle)]
    elif fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    elif "sigma" in bundle:
        rows = ["index,sigma"] + [f"{i},{float(s):.17g}"
                                  for i, s in enumerate(bundle["sigma"])]
    elif {"t", "x", "y", "theta"} <= set(bundle):
        rows = ["t,x,y,theta"] + [
            ",".join(f"{float(v):.17g}" for v in row) for row in zip(
                bundle["t"], bundle["x"], bundle["y"], bundle["theta"])]
    else:
        raise ValueError(f"the {bundle['experiment']} report has no CSV "
                         "layout; use --format json")
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


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
    # the readers take numbers as floats, and float() raises OverflowError
    # on an integer past the float range
    value = int(text)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"the {len(text)}-digit integer in the config "
                         "does not fit a float") from None
    return value


def load_config(path):
    """The config: a JSON object of the schema, its keys unchecked."""
    with open(path) as fh:
        cfg = json.load(fh, parse_constant=_refuse_constant,
                        parse_float=_finite_float,
                        parse_int=_float_sized_int)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    schema = cfg.get("schema")
    # JSON true and 1.0 equal 1 in Python, but are not the integer 1
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ValueError(f"config schema must be the integer "
                         f"{SCHEMA_VERSION}, got {schema!r}")
    return cfg


# A reader returns a key's value, or its default when the key is absent, and
# raises ValueError naming the key for a value of another kind.  A number is
# an int or a float: JSON true and false are not numbers.
_NUMBER = (int, float)


def _read(cfg, key, default, accepts, kind):
    value = cfg.get(key, default)
    if key in cfg and not accepts(value):
        raise ValueError(f"{key} must be {kind}, got {value!r}")
    return value


def _count(cfg, key, default, least=1):
    return _read(cfg, key, default, lambda v: type(v) is int and v >= least,
                 f"an integer >= {least}")


def _number(cfg, key, default, positive=False):
    return float(_read(cfg, key, default, lambda v: type(v) in _NUMBER
                       and (v > 0 or not positive),
                       "a positive number" if positive else "a number"))


def _flag(cfg, key, default):
    return _read(cfg, key, default, lambda v: type(v) is bool, "true or false")


def _sizes(cfg, key, default, n_axes=3):
    """Grid sizes: an integer >= 4 for every axis, or a list of n_axes."""
    def fits(v):
        axes = v if isinstance(v, list) and len(v) == n_axes else [v]
        return all(type(n) is int and n >= 4 for n in axes)
    value = _read(cfg, key, default, fits,
                  f"an integer >= 4 or a list of {n_axes} of them")
    return (value,) * n_axes if type(value) is int else value


def _state(cfg, key, default):
    return SMPoint(*_read(cfg, key, default, lambda v: isinstance(v, list)
                          and len(v) == 3
                          and all(type(x) in _NUMBER for x in v),
                          "three numbers: x, y, theta"))


def _expression(cfg, key, default="0"):
    return str(_read(cfg, key, default,
                     lambda v: isinstance(v, str) or type(v) in _NUMBER,
                     "an expression string or a number"))


def field_from(cfg, key, default="0"):
    return SMScalarField.from_expression(_expression(cfg, key, default))


def model_from(cfg):
    surf = _read(cfg, "surface", {}, lambda v: isinstance(v, dict),
                 "a JSON object")
    kind = surf.get("kind", "conformal_torus")
    if kind == "synthetic":
        return constant_curvature_model(_number(surf, "K", -1.0))
    return build_surface_model(kind, phi=_expression(surf, "phi"))


def spec_from(cfg):
    lam = field_from(cfg, "lambda")
    return ThermostatSpec(model_from(cfg), lam)


def pair_from(cfg):
    from .xray import PairField
    return PairField(*(field_from(cfg, key)
                       for key in ("phi_field", "w_x", "w_y")))


# ---------------------------------------------------------------------------
# subcommand implementations (each returns a report bundle)
# ---------------------------------------------------------------------------

def cmd_validate(cfg):
    lam = field_from(cfg, "lambda")
    grid = _sizes(cfg, "grid", (8, 8, 8))
    tolerance = _number(cfg, "tolerance", 1e-6, positive=True)
    report = validate_structure_relations(model_from(cfg), grid, lam=lam)
    worst = float(np.max([r["max"] for r in report.values()]))
    ok = worst <= tolerance
    bundle = {"experiment": "validate", "residuals": report,
              "worst": worst, "passed": ok}
    return bundle, EXIT_OK if ok else EXIT_CONFIG


def cmd_flow(cfg):
    p0 = _state(cfg, "initial", (0.1, 0.2, 0.3))
    T = _number(cfg, "T", 5.0)
    n = _count(cfg, "n_samples", 200)
    orbit = integrate_orbit(spec_from(cfg), p0, (0.0, T),
                            t_eval=np.linspace(0.0, T, n))
    bundle = {"experiment": "flow",
              "t": orbit.t.tolist(),
              "x": orbit.states[:, 0].tolist(),
              "y": orbit.states[:, 1].tolist(),
              "theta": (orbit.states[:, 2] % (2 * np.pi)).tolist(),
              "exit_time": orbit.exit_time,
              "unit_speed_defect": orbit.unit_speed_defect()}
    return bundle, EXIT_OK


def cmd_jacobi(cfg):
    from .jacobi import JACOBI_ATOL, JACOBI_RTOL, integrate_jacobi, \
        second_order_residual
    p0 = _state(cfg, "initial", (0.1, 0.2, 0.3))
    T = _number(cfg, "T", 5.0)
    # the tolerances of detect_conjugate_points, so one solve gives both
    # the samples and the conjugate times
    traj = integrate_jacobi(spec_from(cfg), p0, (0.0, T), rtol=JACOBI_RTOL,
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
    p0 = _state(cfg, "initial", (0.0, 0.0, 0.3))
    tolerance = _number(cfg, "tolerance", 1e-6, positive=True)
    spec = spec_from(cfg)
    # first the constants: a field that is not finite on their grid is a
    # configuration error, found in milliseconds, before the limit's walks
    constants = riccati_bound_constants(spec)
    r_plus, r_minus = solve_riccati_limit(spec, p0, tol=tolerance)
    bundle = {"experiment": "riccati", "r_plus": r_plus, "r_minus": r_minus,
              "constants": constants}
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
    the shift s = frac(seed (sqrt 2, sqrt 3, sqrt 5)), mapped to the base
    by the domain (`Domain.from_unit`) and to a fiber angle in [0, 2 pi).  A
    seed repeats its points; two seeds shift the sequence apart."""
    k = np.arange(1, n + 1)
    u, v, w = ((((seed * c) % 2 ** 64) / 2 ** 64 + k * step) % 1.0
               for c, step in zip(_SHIFT_NUMERATORS, _KRONECKER_STEP))
    return (*model.domain.from_unit(u, v), 2 * np.pi * w)


def cmd_pestov(cfg):
    from .identities import check_pestov_pointwise
    u = field_from(cfg, "u", "sin(2*pi*x)*cos(theta)")
    n = _count(cfg, "n_points", 1000)
    seed = _count(cfg, "seed", 0, least=0)
    spec = spec_from(cfg)
    points = pestov_points(spec.model, n, seed)
    rep = check_pestov_pointwise(spec.model, spec.lam, u, points)
    return {"experiment": "pestov", **rep}, EXIT_OK


def cmd_identity(cfg):
    from .identities import check_integral_identity_boundary, \
        check_integral_identity_closed, quadrature_for
    n = _sizes(cfg, "n_quad", None)
    spec = spec_from(cfg)
    # u's default depends on the domain, so it is read after the build
    u = field_from(cfg, "u", "sin(2*pi*x)*cos(theta)"
                   if spec.model.domain.kind == "torus" else "x*sin(theta)")
    grid = quadrature_for(spec.model, n)
    if spec.model.domain.has_boundary:
        rep = check_integral_identity_boundary(spec.model, spec.lam, u, grid)
        bundle = {"experiment": "identity", "boundary": rep.as_dict()}
    else:
        reps = check_integral_identity_closed(spec.model, spec.lam, u, grid)
        bundle = {"experiment": "identity",
                  **{k: v.as_dict() for k, v in reps.items()}}
    return bundle, EXIT_OK


def cmd_xray(cfg):
    from .xray import fan_columns, ray_fan
    pair = pair_from(cfg)
    rays = np.array(ray_fan(_count(cfg, "n_boundary", 20),
                            _count(cfg, "n_angles", 20)))
    horizon = _number(cfg, "horizon", 100.0, positive=True)
    trap_scan = _flag(cfg, "trap_scan", True)
    spec = spec_from(cfg)
    # one batch: the fan's rays forward, then the trap scan's orbits
    scan, scan_direction = scan_orbits() if trap_scan else (
        np.empty((0, 3)), np.empty(0))
    orbits = integrate_to_boundary(
        spec, np.vstack([rays, scan]),
        np.concatenate([np.ones(len(rays)), scan_direction]), horizon)
    # a scan state's failure is named before any ray's
    trapped = scan_report(orbits, len(rays))["trapped"] if trap_scan else []
    columns = fan_columns(orbits, pair, rays)
    n_trapped = len(rays) - len(columns["value"])
    if n_trapped:
        warnings.warn(f"{n_trapped} rays trapped past horizon {horizon}; "
                      "emitting the partial fan")
    bundle = {"experiment": "xray", **columns, "n_trapped": n_trapped,
              "warnings": n_trapped + len(trapped)}
    return bundle, EXIT_OK


def cmd_invert(cfg):
    from .xray import PolarNodeGrid, analyze_kernel, \
        assemble_discrete_operator, gauge_basis, ray_fan, reconstruct_pair
    node_grid = PolarNodeGrid(*_sizes(cfg, "nodes", (12, 12), n_axes=2))
    rays = ray_fan(_count(cfg, "n_boundary", 20), _count(cfg, "n_angles", 20))
    pair = pair_from(cfg)
    rank = _count(cfg, "rank", None)
    op = assemble_discrete_operator(spec_from(cfg), node_grid, rays)
    values = op.transform(pair)
    try:
        kern = analyze_kernel(op, gauge_basis(node_grid)[0])
        spectrum_info = {"gap_ratio": kern["gap_ratio"],
                         "kernel_dim": kern["kernel_dim"],
                         "gauge_dim": kern["gauge_dim"],
                         "max_principal_angle_deg":
                             float(np.max(kern["principal_angles_deg"]))}
    except errors.IllConditioned:
        spectrum_info = {"gap_ratio": None}
    est = reconstruct_pair(op, values, rank)
    bundle = {"experiment": "invert", "sigma": op.thin_svd[1].tolist(),
              "spectrum": spectrum_info,
              "phi_norm": float(np.linalg.norm(est.phi_values))}
    return bundle, EXIT_OK


def cmd_anosov(cfg):
    from .anosov import theoremD_criterion
    lam = field_from(cfg, "lambda")
    grid = _sizes(cfg, "grid", (16, 16, 16))
    rep = theoremD_criterion(model_from(cfg), lam, grid)
    return {"experiment": "anosov", **rep.as_dict()}, EXIT_OK


def cmd_cohomology(cfg):
    from .anosov import cohomological_residual
    lam, h, w_x, w_y = (field_from(cfg, key)
                        for key in ("lambda", "h", "w_x", "w_y"))
    n = _count(cfg, "n", 32, least=4)
    res = cohomological_residual(model_from(cfg), lam, h, w_x, w_y, n)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse has printed its usage message or help; a usage error is
        # a configuration failure, not the numerical failure of its exit 2
        return EXIT_OK if e.code == 0 else EXIT_CONFIG
    try:
        bundle, code = COMMANDS[args.command](load_config(args.config))
    except (OSError,) + CONFIG_ERRORS as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERICAL_ERRORS as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{args.command}.{args.format}")
        try:
            write_report(bundle, args.format, path)
        except ValueError as e:
            print(f"config error: {e}", file=sys.stderr)
            return EXIT_CONFIG
        print(path)
    else:
        print(dumps(bundle))
    return code


if __name__ == "__main__":
    sys.exit(main())
