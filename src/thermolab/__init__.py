"""thermolab: a numerical laboratory for thermostat flows on surfaces.

Conformal torus and disk models (plus synthetic constant-curvature windows)
carry a generalized isokinetic thermostat flow; the package integrates
orbits and Jacobi fields, checks energy-type integral identities by
quadrature, probes the attenuated ray transform of function/1-form pairs,
and evaluates hyperbolicity and cohomological-equation diagnostics.
"""

import os as _os

__version__ = "0.1.0"

# LAB_THREADS caps the BLAS/OpenMP thread pools.  It is applied here, before
# any thermolab module imports numpy, and overrides values already set; it
# has no effect on a numpy that was imported before thermolab.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")
if _os.environ.get("LAB_THREADS"):
    for _var in _THREAD_VARS:
        _os.environ[_var] = _os.environ["LAB_THREADS"]

from .errors import ThermolabError  # noqa: E402,F401
