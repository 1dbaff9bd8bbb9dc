"""Seeded job lists for the thermolab benchmark, and the check of each report.

A workload is a list of ``lab`` jobs: a subcommand plus a schema-1 config
drawn from a seeded generator.  The program sees only the generated JSON
files.  The same seed always gives the same configs.

Why these three workloads:

* ``ray_fan`` -- many short boundary-to-boundary orbits on a conformal
  disk (``lab xray`` then ``lab invert``).  It is the per-ray loop: a
  batched orbit engine or a cheaper RHS shows here, and it skips the grid
  code.
* ``long_orbits`` -- a few long serial orbits (``lab flow``, ``lab jacobi``,
  ``lab riccati``).  It shares the flow layer with ``ray_fan`` but has
  nothing to batch, so a batching engine must show no change here, while a
  cheaper scalar RHS shows fully.
* ``bundle_grids`` -- vectorized field evaluation and the grid solvers
  (``lab validate``, ``pestov``, ``identity``, ``anosov``, ``cohomology``)
  with no ODEs at all.  An orbit engine must leave it unchanged; a vector
  compile or a new cohomology solver shows here.

Generator choices that keep the work steady across seeds:

* The cohomology job keeps its intensity amplitude fixed at 0.2, and its
  exponent amplitude at 0.1.  At n=16 the conjugate-gradient work depends
  on both (about 4300 operator applies at intensity 0.2 against 6000 at
  0.1; 2200 to 3400 applies as the exponent amplitude moves in
  [0.08, 0.12]), so drawing them per seed would swamp the timing.
* The other parameters are drawn from narrow ranges for the same reason:
  the ODE step counts, and on ``long_orbits`` the number of R-doublings of
  the Riccati limit (5 per sign for k in [0.9, 1.1], 6 at k = 0.83 and
  0.86), follow them.  Initial states are drawn within 0.02 of fixed
  states: on these nearly flat tori an orbit's step count follows its
  direction.
* The cohomology job solves the exact gauge ``w_x = 2 pi cos(2 pi x)``
  (the coboundary of ``sin(2 pi x)``).  A non-exact right-hand side is not
  a job: at n=32 with intensity ``0.2*sin(2*pi*y)`` and
  ``h = sin(2*pi*x)*cos(2*pi*y)`` the solver hits its 10000-iteration cap
  after about 17 s and ``lab`` exits 2.  That is a known failure of the
  grid least-squares discretization, left for the Fourier solve.
"""

from __future__ import annotations

import math
import random

TORUS_PHI = "{a:.6f}*sin(2*pi*x)*cos(2*pi*y)"
TORUS_LAMBDA = "{c:.6f}*sin(2*pi*y)"
# the cohomology job's model is the same for every seed; see above
COHOMOLOGY_PHI_AMPLITUDE = 0.1
COHOMOLOGY_LAMBDA_AMPLITUDE = 0.2


def _torus_family(rng):
    """Exponent and intensity amplitudes shared by the torus workloads."""
    return rng.uniform(0.08, 0.12), rng.uniform(0.15, 0.25)


def _torus(a):
    return {"kind": "conformal_torus", "phi": TORUS_PHI.format(a=a)}


def _ray_fan(rng):
    a = rng.uniform(0.035, 0.045)
    b = rng.uniform(-0.01, 0.01)
    c = rng.uniform(0.18, 0.22)
    d = rng.uniform(-0.03, 0.03)
    e = rng.uniform(0.5, 1.5)
    f = rng.uniform(-0.5, 0.5)
    base = {
        "schema": 1,
        "surface": {"kind": "conformal_disk",
                    "phi": f"{a:.6f}*(x^2+y^2){b:+.6f}*x*y"},
        "lambda": f"{c:.6f}{d:+.6f}*x",
        "phi_field": f"{e:.6f}*exp(-(x^2+y^2))",
        "w_x": f"{f:.6f}*y",
        "w_y": f"{-f:.6f}*x",
        "n_boundary": 20,
        "n_angles": 20,
    }
    return [("xray", dict(base, trap_scan=True)),
            ("invert", dict(base, nodes=[12, 12], rank=280))]


def _near(rng, state, jitter=0.02):
    return [v + rng.uniform(-jitter, jitter) for v in state]


def _long_orbits(rng):
    a, c = _torus_family(rng)
    k = rng.uniform(0.95, 1.05)
    torus = {"schema": 1, "surface": _torus(a),
             "lambda": TORUS_LAMBDA.format(c=c)}
    return [("flow", dict(torus, T=40.0, n_samples=200,
                          initial=_near(rng, [0.1, 0.2, 0.3]))),
            ("jacobi", dict(torus, T=10.0,
                            initial=_near(rng, [0.6, 0.4, 1.1]))),
            ("riccati", {"schema": 1,
                         "surface": {"kind": "synthetic", "K": -k * k},
                         "lambda": "0",
                         "initial": _near(rng, [0.0, 0.0, 0.3])})]


def _bundle_grids(rng):
    a, c = _torus_family(rng)
    torus = {"schema": 1, "surface": _torus(a),
             "lambda": TORUS_LAMBDA.format(c=c)}
    return [("validate", dict(torus, grid=24)),
            ("pestov", dict(torus, n_points=20000,
                            seed=rng.randrange(2 ** 31))),
            ("identity", dict(torus, n_quad=48)),
            ("anosov", dict(torus, grid=48)),
            ("cohomology", {"schema": 1,
                            "surface": _torus(COHOMOLOGY_PHI_AMPLITUDE),
                            "lambda": TORUS_LAMBDA.format(
                                c=COHOMOLOGY_LAMBDA_AMPLITUDE),
                            "w_x": "2*pi*cos(2*pi*x)", "n": 16})]


_GENERATORS = {"ray_fan": _ray_fan, "long_orbits": _long_orbits,
               "bundle_grids": _bundle_grids}
WORKLOADS = tuple(_GENERATORS)


def jobs(workload, seed):
    """The (subcommand, config) list of a workload for one seed."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# output checks: each returns None when the report is right, else a reason
# ---------------------------------------------------------------------------

def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


def _check_riccati(cfg, rep):
    k = math.sqrt(-cfg["surface"]["K"])
    if abs(rep["r_plus"] - k) > 1e-6 or abs(rep["r_minus"] + k) > 1e-6:
        return (f"r_plus={rep['r_plus']!r}, r_minus={rep['r_minus']!r}, "
                f"closed form +-{k!r}")
    return None


def _check_flow(cfg, rep):
    if not rep["unit_speed_defect"] < 1e-8:
        return f"unit_speed_defect={rep['unit_speed_defect']!r}"
    return None


def _check_jacobi(cfg, rep):
    if not (_finite(rep["a"]) and _finite(rep["jy"]) and _finite(rep["jz"])):
        return "non-finite Jacobi samples"
    return None


def _check_validate(cfg, rep):
    return None if rep["passed"] is True else f"worst={rep['worst']!r}"


def _check_pestov(cfg, rep):
    if not rep["max_residual"] < 1e-6:
        return f"max_residual={rep['max_residual']!r}"
    return None


def _check_identity(cfg, rep):
    if not rep["final"]["rel_residual"] < 1e-6:
        return f"final.rel_residual={rep['final']['rel_residual']!r}"
    return None


def _check_anosov(cfg, rep):
    return None if _finite([rep["sup_value"]]) else "non-finite sup_value"


def _check_cohomology(cfg, rep):
    if not rep["residual"] < 1e-6:
        return f"residual={rep['residual']!r}"
    return None


def _check_xray(cfg, rep):
    expected = cfg["n_boundary"] * cfg["n_angles"]
    if len(rep["value"]) != expected or not _finite(rep["value"]):
        return f"{len(rep['value'])} values, expected {expected} finite"
    if rep["n_trapped"] != 0:
        return f"n_trapped={rep['n_trapped']}"
    return None


def _check_invert(cfg, rep):
    if not rep["sigma"] or not _finite(rep["sigma"] + [rep["phi_norm"]]):
        return "non-finite sigma or phi_norm"
    return None


CHECKS = {"riccati": _check_riccati, "flow": _check_flow,
          "jacobi": _check_jacobi, "validate": _check_validate,
          "pestov": _check_pestov, "identity": _check_identity,
          "anosov": _check_anosov, "cohomology": _check_cohomology,
          "xray": _check_xray, "invert": _check_invert}


def diagnostics(sub, rep):
    """Numbers recorded with a result but not checked.

    Criterion 7 (the discrete ray transform's near-kernel matching the
    gauge span) is a known failure at 12x12 nodes and 400 rays, so its
    numbers are reported as they come, never filtered.
    """
    if sub == "invert":
        return {"invert.spectrum": rep["spectrum"]}
    return {}
