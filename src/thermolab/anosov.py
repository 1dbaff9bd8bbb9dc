"""Hyperbolicity criterion, quadratic-form monotonicity, and transport residuals.

Three probes of long-time flow behaviour:

* `theoremD_criterion` scans the hyperbolicity quantity
  K - H(lam) - lam J + lam^2 + (lam I + V(lam))^2 / 4 over a bundle grid;
  a negative supremum certifies uniform contraction of the associated
  quadratic form.
* `quadratic_form_rate` evaluates Q = y z along a Jacobi trajectory together
  with its algebraic time derivative and checks the Sylvester positivity of
  the rate form against the sign of the criterion quantity.
* `cohomological_residual` solves the grid least-squares problem
  min_u || F u - h - theta(v) ||_{L^2} on a closed model over unknowns u of
  fiber degree <= M (fiber Fourier modes |m| <= M, M = FIBER_BAND = 8) and
  reports the normalized residual: the distance from the right-hand side to
  the coboundaries of fiber degree <= M.  Obstructed right-hand sides leave
  a residual bounded away from zero, the same on every grid with n > 2M + 2
  points per axis; for n <= 2M nothing is cut and the whole grid is used,
  and odd n <= 2M + 1 is refused (DomainError), since such a fiber grid has
  no node with cos theta = 0 and so reads every right-hand side as exact.
  The band limit is what makes the residual a fixed number: over all u the
  continuum L^2 infimum is 0 for obstructed scalars on the flat torus
  (u = c(x) / cos theta cut off near cos theta = 0), and without the band
  the grid residual of h = sin 2 pi x falls like sqrt(2 / n).
  `GridTransportOperator` assembles the 4th-order periodic stencil of F
  once as a sparse CSR matrix, so each conjugate-gradient matvec on the
  normal equations is one product with F and one with its transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, cg

from .errors import DomainError, SolverDiverged
from .fields import SMPoint, _as_field
from .flow import ThermostatSpec
from .geometry import derived_curvatures, validation_grid_points, \
    velocity_pairing

TWO_PI = 2.0 * np.pi
# fiber degree M of the cohomology unknowns: the modes a 16-point fiber
# grid holds in full, so solves on grids with n <= 16 are not cut
FIBER_BAND = 8
# conjugate gradients on the cohomology normal equations: the relative
# tolerance and the iteration cap
CG_TOL = 1e-10
CG_MAXITER = 10000


@dataclass
class CriterionReport:
    """Supremum of the hyperbolicity quantity over a sample grid."""

    sup_value: float
    argmax: SMPoint
    anosov_flag: bool

    def as_dict(self):
        return {"sup_value": self.sup_value,
                "argmax": {"x": self.argmax.x, "y": self.argmax.y,
                           "theta": self.argmax.theta},
                "anosov_flag": self.anosov_flag}


def theoremD_criterion(model, lam, grid_spec=(24, 24, 24)) -> CriterionReport:
    """Scan the hyperbolicity quantity and flag a negative supremum."""
    dc = derived_curvatures(model, lam)
    x, y, th = validation_grid_points(model, grid_spec)
    vals = np.asarray(dc.anosovD.eval(x, y, th), dtype=float)
    vals = np.broadcast_to(vals, x.shape)
    k = int(np.argmax(vals))
    sup = float(vals[k])
    return CriterionReport(sup_value=sup,
                           argmax=SMPoint(float(x[k]), float(y[k]),
                                          float(th[k])),
                           anosov_flag=sup < 0.0)


@dataclass
class QuadraticFormState:
    """Q = y z and its algebraic rate at one point of a Jacobi trajectory."""

    t: float
    y: float
    z: float
    q_value: float
    rate: float
    anosovD: float
    rate_positive_definite: bool


def _rate_form(dc, x, y, th):
    """Coefficients (A, B) of the rate form A y^2 + B yz + z^2 of Q = y z:
    A = -core and B = lam I + V(lam), from the coefficient fields dc."""
    A = -np.asarray(dc.core.eval(x, y, th), dtype=float)
    B = np.asarray(dc.Vlam.eval(x, y, th), dtype=float) \
        + np.asarray(dc.lamI.eval(x, y, th), dtype=float)
    return A, B


def quadratic_form_rate(spec, traj):
    """Evaluate Q = y z and d/dt Q along a Jacobi trajectory.

    Returns a dict with the per-sample series, the worst deviation between
    the algebraic rate and a central finite difference (step 1e-4) of y z
    along the trajectory, and the grid-wise agreement between Sylvester
    positivity of the rate form and the sign of the hyperbolicity quantity.
    """
    dc = spec.coefficients().curvatures
    fd_step = 1e-4
    t0, t1 = float(traj.t[0]), float(traj.t[-1])
    states: List[QuadraticFormState] = []
    max_fd_dev = 0.0
    sylvester_consistent = True
    for tk in traj.t:
        tk = float(tk)
        x, y_b, th = traj.base_state(tk)
        _, yk, zk = traj.jacobi_state(tk)
        yk, zk = float(yk), float(zk)
        A, B = (float(c) for c in _rate_form(dc, x, y_b, th))
        rate = A * yk * yk + B * yk * zk + zk * zk
        D = float(dc.anosovD.eval(x, y_b, th))
        # positive definite <=> A > 0 and 4A - B^2 > 0
        posdef = (A > 0.0) and (4.0 * A - B * B > 0.0)
        if abs(D) > 1e-9 and posdef != (D < 0.0):
            sylvester_consistent = False
        if t0 + fd_step <= tk <= t1 - fd_step:
            sp = traj.jacobi_state(tk + fd_step)
            sm = traj.jacobi_state(tk - fd_step)
            fd = (sp[1] * sp[2] - sm[1] * sm[2]) / (2.0 * fd_step)
            max_fd_dev = max(max_fd_dev, abs(fd - rate))
        states.append(QuadraticFormState(t=tk, y=yk, z=zk, q_value=yk * zk,
                                         rate=rate, anosovD=D,
                                         rate_positive_definite=posdef))
    return {"states": states, "max_fd_deviation": max_fd_dev,
            "sylvester_consistent": sylvester_consistent}


def rate_form_positive_definite(model, lam, x, y, th):
    """Sylvester check of the rate form at arbitrary bundle points."""
    A, B = _rate_form(derived_curvatures(model, lam), x, y, th)
    return (A > 0.0) & (4.0 * A - B * B > 0.0)


# ---------------------------------------------------------------------------
# cohomological equation on a closed model
# ---------------------------------------------------------------------------

class GridTransportOperator:
    """Generator F = X + lam V discretized on a periodic n^3 bundle grid.

    Spatial directions cover one period [0,1) of the torus, the fiber covers
    [0, 2 pi); derivatives are 4th-order periodic central differences,
    f' ~ (-f[i+2] + 8 f[i+1] - 8 f[i-1] + f[i-2]) / 12h.  The stencil is
    assembled once as the sparse matrix `F` (12 entries per row, offsets
    +-1 and +-2 on each axis), so applying the operator is one sparse
    product and its adjoint one product with the transpose view `F.T`.
    """

    def __init__(self, model, lam, n):
        if model.domain.kind != "torus":
            raise DomainError("grid transport operator needs a closed "
                              "(torus) model")
        self.n = int(n)
        xs = np.linspace(0.0, 1.0, n, endpoint=False)
        ts = np.linspace(0.0, TWO_PI, n, endpoint=False)
        X, Y, T = np.meshgrid(xs, xs, ts, indexing="ij")
        self.X, self.Y, self.T = X, Y, T
        self.h_xy = 1.0 / n
        self.h_t = TWO_PI / n
        # the orbit right-hand side is the generator's three coefficients
        self.cx, self.cy, self.ct = (
            np.broadcast_to(c, X.shape).astype(float)
            for c in ThermostatSpec(model, lam).rhs()(0.0, (X, Y, T)))
        self.F = self._assemble()

    def _assemble(self):
        """The stencil as a CSR matrix on the C-ordered flattened grid.

        Each row stores its columns in the order x, y, theta and, per axis,
        rolls -2, -1, +1, +2; on grids with n <= 4 some offsets wrap onto
        one column, and the products sum those entries.
        """
        size = self.X.size
        index = np.arange(size, dtype=np.int32).reshape(self.X.shape)
        cols = np.empty(self.X.shape + (12,), dtype=np.int32)
        data = np.empty(self.X.shape + (12,))
        axes = ((self.cx, self.h_xy), (self.cy, self.h_xy),
                (self.ct, self.h_t))
        k = 0
        for axis, (c, h) in enumerate(axes):
            for shift, weight in ((-2, -1.0), (-1, 8.0), (1, -8.0),
                                  (2, 1.0)):
                cols[..., k] = np.roll(index, shift, axis=axis)
                data[..., k] = c * (weight / (12.0 * h))
                k += 1
        indptr = np.arange(0, 12 * size + 1, 12, dtype=np.int32)
        return csr_matrix((data.reshape(-1), cols.reshape(-1), indptr),
                          shape=(size, size))

    def sample(self, field):
        field = _as_field(field)
        return np.broadcast_to(field.eval(self.X, self.Y, self.T),
                               self.X.shape).astype(float)

    def apply(self, u):
        return (self.F @ u.ravel()).reshape(u.shape)

    def apply_adjoint(self, v):
        return (self.F.T @ v.ravel()).reshape(v.shape)

    def normal_diagonal(self):
        """Approximate diagonal of F^T F for Jacobi preconditioning."""
        s = 2.0 * ((8.0 / 12.0) ** 2 + (1.0 / 12.0) ** 2)
        d = s * (self.cx ** 2 / self.h_xy ** 2
                 + self.cy ** 2 / self.h_xy ** 2
                 + self.ct ** 2 / self.h_t ** 2)
        return np.maximum(d, 1e-12 * float(np.max(d)))


def _fiber_band_projector(n, band):
    """Orthogonal projection onto fiber Fourier modes |m| <= band.

    It is the identity when an n-point fiber grid holds no mode above the
    band, so those solves run with no transforms added.
    """
    if n // 2 <= band:
        return lambda u: u

    def project(u):
        c = np.fft.rfft(u, axis=2)
        c[..., band + 1:] = 0.0
        return np.fft.irfft(c, n=n, axis=2)
    return project


def cohomological_residual(model, lam, h=None, w_x=None, w_y=None, n=32,
                           rhs_grid=None):
    """Least-squares solve of F u = h + theta(v) on an n^3 periodic grid.

    h is a base scalar and (w_x, w_y) the components of a base 1-form theta;
    the right-hand side on the bundle is h + e^{-phi}(w_x cos + w_y sin).
    The unknowns u are restricted to fiber degree <= M = FIBER_BAND (fiber
    Fourier modes |m| <= M), so the normalized residual is the distance from
    the right-hand side to the coboundaries of fiber degree <= M.  It does
    not depend on the grid once n > 2M + 2, where the fiber quadrature of
    F u is exact (for h = sin 2 pi x on the flat torus it is 1/3 at M = 8:
    1 / sqrt(M + 1) for even M, 1 / sqrt(M + 2) for odd M); for n <= 2M the
    band holds the whole fiber grid and the solve runs on the full grid
    with no projection.  Without a band the residual carries no fixed
    meaning: for obstructed scalars on the flat torus the continuum L^2
    infimum over all u is 0, and on a full grid only the fiber nodes with
    cos theta = 0 are obstructed.  An odd full grid (odd n <= 2M + 1) has
    no such node and reads every right-hand side as exact (sin 2 pi x on
    the flat torus gives 0 at n = 9, 15 and 17), so it raises DomainError.

    Returns the normalized residual, the mean-zero minimizer, and solver
    diagnostics.  Raises SolverDiverged when conjugate gradients on the
    normal equations exhausts the iteration cap CG_MAXITER without meeting
    the tolerance CG_TOL.
    """
    if n % 2 == 1 and n <= 2 * FIBER_BAND + 1:
        raise DomainError(
            f"cohomology grid n={n}: an odd grid with n <= "
            f"{2 * FIBER_BAND + 1} is solved on the full fiber grid, which "
            "has no node with cos(theta) = 0 and so reads obstructed "
            "right-hand sides as exact; use an even n or an odd n > "
            f"{2 * FIBER_BAND + 1}")
    op = GridTransportOperator(model, lam, n)
    if rhs_grid is not None:
        rhs = np.asarray(rhs_grid, dtype=float)
    else:
        rhs = np.zeros_like(op.X)
        if h is not None:
            rhs = rhs + op.sample(h)
        if w_x is not None or w_y is not None:
            pairing = velocity_pairing(model,
                                       w_x if w_x is not None else 0.0,
                                       w_y if w_y is not None else 0.0)
            rhs = rhs + op.sample(pairing)

    shape = rhs.shape
    size = rhs.size
    project = _fiber_band_projector(n, FIBER_BAND)
    b = project(op.apply_adjoint(rhs)).ravel()
    diag = op.normal_diagonal()

    def normal_mv(v):
        return project(op.apply_adjoint(op.apply(
            project(v.reshape(shape))))).ravel()

    def precondition(v):
        return project(v.reshape(shape) / diag).ravel()

    A = LinearOperator((size, size), matvec=normal_mv)
    M = LinearOperator((size, size), matvec=precondition)
    # F^T rhs at roundoff level means rhs is orthogonal to the range:
    # the minimizer is u = 0 and CG would only chase noise
    nb = np.linalg.norm(b)
    b_floor = 1e-10 * np.sqrt(float(np.max(diag))) * np.linalg.norm(rhs)
    if nb <= b_floor:
        u = np.zeros(shape)
        info = 0
    else:
        sol, info = cg(A, b, rtol=CG_TOL, atol=0.0, maxiter=CG_MAXITER,
                       M=M)
        if info > 0:
            # the normal equations are consistent but can stagnate near the
            # attainable floor; accept if the gradient is already tiny
            grad = np.linalg.norm(b - A.matvec(sol)) / nb
            if grad > 1e3 * CG_TOL:
                raise SolverDiverged(
                    f"conjugate gradients hit the {CG_MAXITER}-iteration cap "
                    f"with normal-equation residual {grad:.3e}")
        u = project(sol.reshape(shape))
    u = u - float(np.mean(u))
    misfit = op.apply(u) - rhs
    rhs_norm = float(np.linalg.norm(rhs))
    residual = float(np.linalg.norm(misfit)) / max(rhs_norm, 1e-300)
    return {"residual": residual, "minimizer": u, "rhs_norm": rhs_norm,
            "grid": n, "cg_info": int(info), "operator": op}
