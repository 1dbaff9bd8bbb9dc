"""Command-line front end: `lab <subcommand> --config file.json`.

A JSON config (schema 1) names the surface, the thermostat intensity, and
any scalar/1-form fields as expression strings; the subcommand picks the
experiment, and its table KEYS[subcommand] is every key it takes, each
with its reader and default.  Reports are serialized deterministically
(sorted keys, 17-significant-digit floats), so repeated runs with one BLAS
thread (LAB_THREADS=1) produce byte-identical files.  Exit codes: 0
success, 1 for an `errors.ConfigError` or a refused allocation, 2 for an
`errors.NumericalError`; the class hierarchy of `errors` is the policy.
"""

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
    Any other bundle raises ConfigError before the file is opened, and so
    does an OSError of making path's directory or writing path.
    """
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        if fmt == "json":
            rows = [dumps(bundle)]
        elif fmt != "csv":
            raise errors.ConfigError(f"unknown format {fmt!r}")
        elif "sigma" in bundle:
            rows = ["index,sigma"] + [f"{i},{float(s):.17g}"
                                      for i, s in enumerate(bundle["sigma"])]
        elif {"t", "x", "y", "theta"} <= set(bundle):
            rows = ["t,x,y,theta"] + [
                ",".join(f"{float(v):.17g}" for v in row) for row in zip(
                    bundle["t"], bundle["x"], bundle["y"], bundle["theta"])]
        else:
            raise errors.ConfigError(f"the {bundle['experiment']} report has "
                                     "no CSV layout; use --format json")
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
    except OSError as e:
        raise errors.ConfigError(str(e)) from e


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------

# A number is an int or a float that fits a float: JSON true and false are
# not numbers, nor are NaN, Infinity and 1e400 (which reads as inf)
def _is_number(v):
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _is_int(v, least):
    return type(v) is int and least <= v <= sys.float_info.max


# A reader is (kind, accepts, convert): a value it accepts reads as
# convert(value), any other is refused as not of the kind
def _sizes(n_axes):
    """Grid sizes: an integer >= 4 for every axis, or a list of n_axes."""
    return (f"an integer >= 4 or a list of {n_axes} of them",
            lambda v: all(_is_int(n, 4) for n in (
                v if isinstance(v, list) and len(v) == n_axes else [v])),
            lambda v: (v,) * n_axes if type(v) is int else v)


_count = ("an integer >= 1", lambda v: _is_int(v, 1), int)
_natural = ("an integer >= 0", lambda v: _is_int(v, 0), int)
_side = ("an integer >= 4", lambda v: _is_int(v, 4), int)
_number = ("a number", _is_number, float)
_positive = ("a positive number", lambda v: _is_number(v) and v > 0, float)
_flag = ("true or false", lambda v: type(v) is bool, bool)
_state = ("three numbers: x, y, theta", lambda v: isinstance(v, list)
          and len(v) == 3 and all(map(_is_number, v)), lambda v: SMPoint(*v))
_field = ("an expression string or a number",
          lambda v: isinstance(v, str) or _is_number(v),
          lambda v: SMScalarField.from_expression(str(v)))

# the keys of a surface object besides its kind, by kind
_CONFORMAL = (("phi", _field, "0"),)
SURFACES = {"conformal_torus": _CONFORMAL, "conformal_disk": _CONFORMAL,
            "synthetic": (("K", _number, -1.0),)}


def _surface(kinds=tuple(SURFACES), by=""):
    """The reader of a surface object whose kind is one of kinds; by names
    the subcommand that takes only those."""
    def read(value):
        kind = value.get("kind", "conformal_torus")
        if not isinstance(kind, str) or kind not in kinds:
            raise errors.ConfigError(f"surface.kind must be one of "
                                     f"{', '.join(kinds)}{by}, got {kind!r}")
        return {"kind": kind, **_values(SURFACES[kind], value)}
    return "a JSON object", lambda v: isinstance(v, dict), read


def _values(table, cfg):
    """cfg's values of a table's (key, reader, default) entries, read in
    table order.  An absent key reads its default; a default of None stays
    None, and a callable default is called on the values before it."""
    values = {}
    for key, (kind, accepts, convert), default in table:
        value = cfg[key] if key in cfg else \
            default(values) if callable(default) else default
        if key in cfg and not accepts(value):
            raise errors.ConfigError(f"{key} must be {kind}, got {value!r}")
        values[key] = None if value is None else convert(value)
    return values


def _on_torus(values):
    return values["surface"]["kind"] == "conformal_torus"


# Each subcommand's keys: every key its config may set besides schema
SPEC = (("surface", _surface(), {}), ("lambda", _field, "0"))
PAIR = (("phi_field", _field, "0"), ("w_x", _field, "0"), ("w_y", _field, "0"))
FAN = (("n_boundary", _count, 20), ("n_angles", _count, 20))
_INITIAL = ("initial", _state, [0.1, 0.2, 0.3])
_TIME = ("T", _number, 5.0)
_TOLERANCE = ("tolerance", _positive, 1e-6)
KEYS = {
    "validate": SPEC + (("grid", _sizes(3), 8), _TOLERANCE),
    "flow": SPEC + (_INITIAL, _TIME, ("n_samples", _count, 200)),
    "jacobi": SPEC + (_INITIAL, _TIME),
    "riccati": SPEC + (("initial", _state, [0.0, 0.0, 0.3]), _TOLERANCE),
    "pestov": SPEC + (("u", _field, "sin(2*pi*x)*cos(theta)"),
                      ("n_points", _count, 1000), ("seed", _natural, 0)),
    # the quadratures cover the torus and the disk, not the synthetic plane
    "identity": (("surface", _surface(("conformal_torus", "conformal_disk"),
                                      " for lab identity"), {}), SPEC[1],
                 ("u", _field, lambda values: "sin(2*pi*x)*cos(theta)"
                  if _on_torus(values) else "x*sin(theta)"),
                 ("n_quad", _sizes(3), lambda values: 32
                  if _on_torus(values) else (16, 24, 24))),
    "xray": SPEC + PAIR + FAN + (("horizon", _positive, 100.0),
                                 ("trap_scan", _flag, True)),
    "invert": SPEC + PAIR + FAN + (("nodes", _sizes(2), 12),
                                   ("rank", _count, None)),
    "anosov": SPEC + (("grid", _sizes(3), 16),),
    "cohomology": SPEC + (("h", _field, "0"), *PAIR[1:], ("n", _side, 32)),
}
# keys of options now fixed, ignored with a note
RETIRED_KEYS = ("gauge_spacing", "margin_deg")


def load_config(path, sub):
    """The values of lab sub's keys in the JSON config at path, read by
    KEYS[sub].  A file that cannot be read or parsed, any other key, and a
    surface key its kind does not take raise ConfigError."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as e:
        raise errors.ConfigError(str(e)) from e
    if not isinstance(cfg, dict):
        raise errors.ConfigError("config must be a JSON object")
    schema = cfg.get("schema")
    # JSON true and 1.0 equal 1 in Python, but are not the integer 1
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise errors.ConfigError(f"config schema must be the integer "
                                 f"{SCHEMA_VERSION}, got {schema!r}")
    keys = {key for key, _, _ in KEYS[sub]}
    for key in cfg:
        if key in RETIRED_KEYS:
            print(f"note: lab {sub} ignores the key {key}", file=sys.stderr)
        elif key not in keys and key != "schema":
            raise errors.ConfigError(f"{key} is not a config key of lab {sub}")
    values = _values(KEYS[sub], cfg)
    surface = values["surface"]
    for key in cfg.get("surface", {}):
        if key not in surface:
            raise errors.ConfigError(f"surface.{key} is not a config key of "
                                     f"lab {sub} on a {surface['kind']} "
                                     "surface")
    return values


def model_from(surface):
    if surface["kind"] == "synthetic":
        return constant_curvature_model(surface["K"])
    return build_surface_model(surface["kind"], phi=surface["phi"].expression)


def _spec(values):
    return ThermostatSpec(model_from(values["surface"]), values["lambda"])


def _pair(values):
    from .xray import PairField
    return PairField(values["phi_field"], values["w_x"], values["w_y"])


def spec_from(cfg):
    """The thermostat spec of a config's surface and lambda keys."""
    return _spec(_values(SPEC, cfg))


def pair_from(cfg):
    """The function/1-form pair of a config's phi_field, w_x and w_y."""
    return _pair(_values(PAIR, cfg))


# ---------------------------------------------------------------------------
# subcommand implementations (each returns a report bundle)
# ---------------------------------------------------------------------------

def cmd_validate(opt):
    report = validate_structure_relations(model_from(opt["surface"]),
                                          opt["grid"], lam=opt["lambda"])
    worst = float(np.max([r["max"] for r in report.values()]))
    ok = worst <= opt["tolerance"]
    bundle = {"experiment": "validate", "residuals": report,
              "worst": worst, "passed": ok}
    return bundle, EXIT_OK if ok else EXIT_CONFIG


def cmd_flow(opt):
    T = opt["T"]
    orbit = integrate_orbit(_spec(opt), opt["initial"], (0.0, T),
                            t_eval=np.linspace(0.0, T, opt["n_samples"]))
    bundle = {"experiment": "flow",
              "t": orbit.t.tolist(),
              "x": orbit.states[:, 0].tolist(),
              "y": orbit.states[:, 1].tolist(),
              "theta": (orbit.states[:, 2] % (2 * np.pi)).tolist(),
              "exit_time": orbit.exit_time,
              "unit_speed_defect": orbit.unit_speed_defect()}
    return bundle, EXIT_OK


def cmd_jacobi(opt):
    from .jacobi import JACOBI_ATOL, JACOBI_RTOL, integrate_jacobi, \
        second_order_residual
    T = opt["T"]
    # the tolerances of detect_conjugate_points, so one solve gives both
    # the samples and the conjugate times
    traj = integrate_jacobi(_spec(opt), opt["initial"], (0.0, T),
                            rtol=JACOBI_RTOL, atol=JACOBI_ATOL,
                            t_eval=np.linspace(0.0, T, 100))
    bundle = {"experiment": "jacobi",
              "t": traj.t.tolist(),
              "a": traj.a.tolist(),
              "jy": traj.y.tolist(),
              "jz": traj.z.tolist(),
              "conjugate_times": traj.conjugate_times(),
              "second_order_residual": second_order_residual(traj)}
    return bundle, EXIT_OK


def cmd_riccati(opt):
    from .jacobi import riccati_bound_constants, solve_riccati_limit
    spec = _spec(opt)
    # first the constants: a field that is not finite on their grid is a
    # configuration error, found in milliseconds, before the limit's walks
    constants = riccati_bound_constants(spec)
    r_plus, r_minus = solve_riccati_limit(spec, opt["initial"],
                                          tol=opt["tolerance"])
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


def cmd_pestov(opt):
    from .identities import check_pestov_pointwise
    spec = _spec(opt)
    points = pestov_points(spec.model, opt["n_points"], opt["seed"])
    rep = check_pestov_pointwise(spec.model, spec.lam, opt["u"], points)
    return {"experiment": "pestov", **rep}, EXIT_OK


def cmd_identity(opt):
    from .identities import check_integral_identity_boundary, \
        check_integral_identity_closed, quadrature_for
    spec, u = _spec(opt), opt["u"]
    grid = quadrature_for(spec.model, opt["n_quad"])
    if spec.model.domain.has_boundary:
        rep = check_integral_identity_boundary(spec.model, spec.lam, u, grid)
        bundle = {"experiment": "identity", "boundary": rep.as_dict()}
    else:
        reps = check_integral_identity_closed(spec.model, spec.lam, u, grid)
        bundle = {"experiment": "identity",
                  **{k: v.as_dict() for k, v in reps.items()}}
    return bundle, EXIT_OK


def cmd_xray(opt):
    from .xray import fan_columns, ray_fan
    rays = np.array(ray_fan(opt["n_boundary"], opt["n_angles"]))
    horizon, trap_scan = opt["horizon"], opt["trap_scan"]
    spec = _spec(opt)
    # one batch: the fan's rays forward, then the trap scan's orbits
    scan, scan_direction = scan_orbits() if trap_scan else (
        np.empty((0, 3)), np.empty(0))
    orbits = integrate_to_boundary(
        spec, np.vstack([rays, scan]),
        np.concatenate([np.ones(len(rays)), scan_direction]), horizon)
    # a scan state's failure is named before any ray's
    trapped = scan_report(orbits, len(rays))["trapped"] if trap_scan else []
    columns = fan_columns(orbits, _pair(opt), rays)
    n_trapped = len(rays) - len(columns["value"])
    if n_trapped:
        warnings.warn(f"{n_trapped} rays trapped past horizon {horizon}; "
                      "emitting the partial fan")
    bundle = {"experiment": "xray", **columns, "n_trapped": n_trapped,
              "warnings": n_trapped + len(trapped)}
    return bundle, EXIT_OK


def cmd_invert(opt):
    from .xray import PolarNodeGrid, analyze_kernel, \
        assemble_discrete_operator, gauge_basis, ray_fan, reconstruct_pair
    node_grid = PolarNodeGrid(*opt["nodes"])
    rays = ray_fan(opt["n_boundary"], opt["n_angles"])
    op = assemble_discrete_operator(_spec(opt), node_grid, rays)
    values = op.transform(_pair(opt))
    try:
        kern = analyze_kernel(op, gauge_basis(node_grid)[0])
        spectrum_info = {"gap_ratio": kern["gap_ratio"],
                         "kernel_dim": kern["kernel_dim"],
                         "gauge_dim": kern["gauge_dim"],
                         "max_principal_angle_deg":
                             float(np.max(kern["principal_angles_deg"]))}
    except errors.IllConditioned:
        spectrum_info = {"gap_ratio": None}
    est = reconstruct_pair(op, values, opt["rank"])
    bundle = {"experiment": "invert", "sigma": op.thin_svd[1].tolist(),
              "spectrum": spectrum_info,
              "phi_norm": float(np.linalg.norm(est.phi_values))}
    return bundle, EXIT_OK


def cmd_anosov(opt):
    from .anosov import theoremD_criterion
    rep = theoremD_criterion(model_from(opt["surface"]), opt["lambda"],
                             opt["grid"])
    return {"experiment": "anosov", **rep.as_dict()}, EXIT_OK


def cmd_cohomology(opt):
    from .anosov import cohomological_residual
    res = cohomological_residual(model_from(opt["surface"]), opt["lambda"],
                                 opt["h"], opt["w_x"], opt["w_y"], opt["n"])
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
        opt = load_config(args.config, args.command)
        bundle, code = COMMANDS[args.command](opt)
        if args.out:
            path = os.path.join(args.out, f"{args.command}.{args.format}")
            write_report(bundle, args.format, path)
    except errors.ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except errors.NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as e:
        # numpy refused an allocation that the config's sizes ask for
        print(f"config error: lab {args.command} ran out of memory: {e}",
              file=sys.stderr)
        return EXIT_CONFIG
    print(path if args.out else dumps(bundle))
    return code


if __name__ == "__main__":
    sys.exit(main())
