"""Hyperbolicity criterion, quadratic-form monotonicity, and transport residuals.

Three probes of long-time flow behaviour:

* `theoremD_criterion` scans the hyperbolicity quantity
  K - H(lam) - lam J + lam^2 + (lam I + V(lam))^2 / 4 over a bundle grid,
  block by block; a negative supremum certifies uniform contraction of the
  associated quadratic form.
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
  `GridTransportOperator` applies the 4th-order periodic stencil of F
  as one product per axis with its n x n circulant difference matrix, so
  each conjugate-gradient matvec on the normal equations is one stencil
  pass with F and one with its adjoint.  The conjugate gradients
  (`_pcg`, a numpy loop) are preconditioned by the normal operator of F
  with its coefficients averaged over the torus at each fiber angle,
  which is block diagonal in the spatial Fourier modes
  (`_frozen_preconditioner`; T. Chan, SIAM J. Sci. Stat. Comput. 9,
  1988).  The module runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverDiverged
from .fields import SMPoint, _as_field, compile_fields, require_finite, \
    sample_finite
from .geometry import derived_curvatures, grid_blocks, \
    thermostat_generator, validation_grid_points, velocity_pairing

TWO_PI = 2.0 * np.pi
# fiber degree M of the cohomology unknowns: the modes a 16-point fiber
# grid holds in full, so solves on grids with n <= 16 are not cut
FIBER_BAND = 8
# conjugate gradients on the cohomology normal equations: the relative
# tolerance and the iteration cap
CG_TOL = 1e-10
CG_MAXITER = 10000
# regularization of the frozen-coefficient preconditioner, relative to the
# largest entry of its blocks.  Operator applies of a cohomology solve on
# the curved torus (phi = 0.1 sin 2 pi x cos 2 pi y, lam = 0.2 sin 2 pi y)
# at eps = 1e-2, 1e-3, 1e-4: 391, 264, 470 at n=16 on the exact gauge
# w_x = 2 pi cos 2 pi x and 45, 28, 45 at n=32 on h = sin 2 pi x
PRECOND_EPS = 1e-3


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
    """Scan the hyperbolicity quantity and flag a negative supremum.

    The quantity is evaluated block by block over the grid
    (`geometry.grid_blocks`), each block folded into a running maximum, so
    the scan holds O(CHUNK_POINTS) values on any grid; the argmax is the
    first node, in C order, where the supremum is attained.  DomainError
    names the first grid node where the quantity is not finite: no
    supremum or flag can be read off such a scan."""
    dc = derived_curvatures(model, lam)
    bundle = compile_fields([dc.anosovD])
    sup, argmax = None, None
    for lo, points in grid_blocks(model, grid_spec):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            (vals,) = bundle(*points)
        require_finite(["hyperbolicity quantity"], (vals,), points,
                       grid_spec, start=lo)
        k = int(np.argmax(vals))
        if sup is None or vals[k] > sup:
            sup = float(vals[k])
            argmax = SMPoint(*(float(v[k]) for v in points))
    return CriterionReport(sup_value=sup, argmax=argmax,
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


def _rate_form(core, Vlam, lamI):
    """Coefficients (A, B) of the rate form A y^2 + B yz + z^2 of Q = y z:
    A = -core and B = lam I + V(lam), from the values of the coefficient
    fields."""
    return -core, Vlam + lamI


def quadratic_form_rate(spec, traj):
    """Evaluate Q = y z and d/dt Q along a Jacobi trajectory.

    Returns a dict with the per-sample series, the worst deviation between
    the algebraic rate and a central finite difference (step 1e-4) of y z
    along the trajectory, and the grid-wise agreement between Sylvester
    positivity of the rate form and the sign of the hyperbolicity quantity.
    """
    dc = spec.coefficients().curvatures
    fd_step = 1e-4
    t = traj.t
    x, y_b, th, _, y, z = traj.sol(t)
    core, Vlam, lamI, D = compile_fields(
        (dc.core, dc.Vlam, dc.lamI, dc.anosovD))(x, y_b, th)
    A, B = _rate_form(core, Vlam, lamI)
    rate = A * y * y + B * y * z + z * z
    # positive definite <=> A > 0 and 4A - B^2 > 0
    posdef = (A > 0.0) & (4.0 * A - B * B > 0.0)
    sylvester_consistent = not np.any((np.abs(D) > 1e-9)
                                      & (posdef != (D < 0.0)))
    inner = (t[0] + fd_step <= t) & (t <= t[-1] - fd_step)
    plus, minus = (traj.sol(t[inner] + d) for d in (fd_step, -fd_step))
    fd = (plus[4] * plus[5] - minus[4] * minus[5]) / (2.0 * fd_step)
    max_fd_dev = float(np.max(np.abs(fd - rate[inner]), initial=0.0))
    states = [QuadraticFormState(t=float(tk), y=float(yk), z=float(zk),
                                 q_value=float(yk * zk), rate=float(rk),
                                 anosovD=float(dk),
                                 rate_positive_definite=bool(pk))
              for tk, yk, zk, rk, dk, pk in zip(t, y, z, rate, D, posdef)]
    return {"states": states, "max_fd_deviation": max_fd_dev,
            "sylvester_consistent": sylvester_consistent}


def rate_form_positive_definite(model, lam, x, y, th):
    """Sylvester check of the rate form at arbitrary bundle points."""
    dc = derived_curvatures(model, lam)
    A, B = _rate_form(*compile_fields((dc.core, dc.Vlam, dc.lamI))(x, y, th))
    return (A > 0.0) & (4.0 * A - B * B > 0.0)


# ---------------------------------------------------------------------------
# cohomological equation on a closed model
# ---------------------------------------------------------------------------

class GridTransportOperator:
    """Generator F = X + lam V discretized on a periodic n^3 bundle grid.

    Spatial directions cover one period [0,1) of the torus, the fiber covers
    [0, 2 pi); derivatives are 4th-order periodic central differences,
    f' ~ (-f[i+2] + 8 f[i+1] - 8 f[i-1] + f[i-2]) / 12h.  D is the n x n
    circulant 8 (S_1 - S_-1) - (S_2 - S_-2) of 12h f' (S_k f[i] = f[i+k];
    for n <= 4 shifts coincide and add, and at n = 2 D = 0).  With D_a its
    product with the grid along axis a and w_a = c_a / 12h_a,
    F u = sum_a w_a D_a u; D is antisymmetric, so F^T v = -sum_a D_a (w_a v).
    """

    def __init__(self, model, lam, n):
        if model.domain.kind != "torus":
            raise DomainError("grid transport operator needs a closed "
                              "(torus) model")
        self.n = n = int(n)
        if n < 2:
            raise DomainError(f"grid transport operator needs n >= 2 nodes "
                              f"per axis, got n={n}")
        X, Y, T = (v.reshape(n, n, n)
                   for v in validation_grid_points(model, (n, n, n)))
        self.X, self.Y, self.T = X, Y, T
        self.h_xy = 1.0 / n
        self.h_t = TWO_PI / n
        gen = thermostat_generator(model, lam)
        self.cx, self.cy, self.ct = self.sample({
            f"coefficient {name} = {c.expression} of F = X + lam V": c
            for name, c in (("c_x", gen.c_x), ("c_y", gen.c_y),
                            ("c_theta", gen.c_theta))})
        self.weights = tuple(c / (12.0 * h) for c, h in (
            (self.cx, self.h_xy), (self.cy, self.h_xy), (self.ct, self.h_t)))
        shift = {k: np.roll(np.eye(n), k, axis=1) for k in (1, -1, 2, -2)}
        self.D = 8.0 * (shift[1] - shift[-1]) - (shift[2] - shift[-2])
        # grid arrays that every apply reuses: with fresh ones an adjoint
        # apply took 2.1-2.8 times as long at n = 32 and 64 (x86-64, OpenBLAS)
        self._scratch = np.empty((2,) + X.shape)

    def sample(self, named_fields):
        """The fields on the grid (`fields.sample_finite`): DomainError
        names the first field and grid node where a value is not finite."""
        return sample_finite(named_fields, self.X, self.Y, self.T,
                             self.X.shape)

    def _difference(self, u, axis, out):
        """D_a u, D times the grid array u along axis a, written to out."""
        D, n = self.D, self.n
        if axis == 0:
            np.matmul(D, u.reshape(n, -1), out=out.reshape(n, -1))
        elif axis == 1:
            np.matmul(D, u, out=out)
        else:
            np.matmul(u.reshape(-1, n), D.T, out=out.reshape(-1, n))
        return out

    def apply(self, u):
        """F u."""
        out = np.zeros(u.shape)
        d = self._scratch[0]
        for axis, w in enumerate(self.weights):
            out += np.multiply(w, self._difference(u, axis, d), out=d)
        return out

    def apply_adjoint(self, v):
        """F^T v."""
        out = np.zeros(v.shape)
        wv, d = self._scratch
        for axis, w in enumerate(self.weights):
            out -= self._difference(np.multiply(w, v, out=wv), axis, d)
        return out


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


def _frozen_preconditioner(op):
    """Preconditioner of the band-limited normal operator P F^T F P.

    Averaging c_x, c_y and c_theta over (x, y) at each theta freezes F into
    an operator that is diagonal in the (k_x, k_y) Fourier modes, with one
    n x n theta-block per mode,
    B_k = diag(i s(k_x) c_x + i s(k_y) c_y) + diag(c_theta) D_theta,
    where s(k) = (8 sin a - sin 2a) / 6h, a = 2 pi k / n, is the symbol of
    the 4th-order stencil and D_theta its periodic theta matrix.  With W
    the orthonormal DFT rows of the fiber modes |m| <= FIBER_BAND, mode k
    is preconditioned by W^H (W B_k^H B_k W^H + eps m I)^{-1} W, where m is
    the largest entry of any B_k^H B_k and eps = PRECOND_EPS.  Each block
    is Hermitian positive definite, so the map is symmetric positive
    definite on the band and zero off it.  When the band holds the whole
    fiber grid (n <= 2 FIBER_BAND), W is unitary and the map is
    (B_k^H B_k + eps m I)^{-1}.  Past that it inverts the band part of
    B_k^H B_k instead of taking the band part of the inverse: its blocks
    stay 17 x 17, and on the n=32 curved torus CG takes 28 operator
    applies where the band part of the inverse takes 99.  The map is one
    rfftn, one batched product with the blocks and one irfftn: W and W^H
    are the fiber transforms of rfftn and irfftn on the band (with scales
    sqrt(n) and 1/sqrt(n), which cancel).
    """
    n = op.n
    cx, cy, ct = (c.mean(axis=(0, 1)) for c in (op.cx, op.cy, op.ct))
    a = TWO_PI * np.arange(n) / n
    s = (8.0 * np.sin(a) - np.sin(2.0 * a)) / (6.0 * op.h_xy)
    d_theta = op.D / (12.0 * op.h_t)
    band = np.flatnonzero(np.abs(np.fft.fftfreq(n, 1.0 / n)) <= FIBER_BAND)
    W = np.fft.fft(np.eye(n), axis=0, norm="ortho")[band]
    Wh = W.conj().T
    # rfftn keeps the modes k_y <= n // 2; the others are conjugates
    diag = 1j * (s[:, None, None] * cx + s[:n // 2 + 1, None] * cy)
    # B_k W^H, whose Gram matrix is W B_k^H B_k W^H
    BW = diag[..., None] * Wh + ct[:, None] * (d_theta @ Wh)
    gram = np.matmul(BW.conj().swapaxes(-1, -2), BW)
    # the diagonal of B_k^H B_k holds its largest entries: the squared
    # column norms of B_k (D_theta has a zero diagonal)
    m = float((np.abs(diag) ** 2
               + ((ct[:, None] * d_theta) ** 2).sum(axis=0)).max())
    blocks = np.linalg.inv(gram + PRECOND_EPS * m * np.eye(len(W)))

    def apply(u):
        c = np.fft.rfftn(u, axes=(2, 0, 1))
        out = np.zeros_like(c)
        out[..., band] = np.matmul(blocks, c[..., band, None])[..., 0]
        return np.fft.irfftn(out, s=(n, n, n), axes=(2, 0, 1))
    return apply


def _pcg(normal, precondition, b):
    """Preconditioned conjugate gradients on normal(x) = b from x = 0, on
    flat arrays, as scipy.sparse.linalg.cg runs them: they stop once the
    residual b - normal(x), updated step by step, has a norm of at most
    CG_TOL ||b||, or after CG_MAXITER iterations.  Returns x and the
    number of iterations left unconverged: 0, or CG_MAXITER."""
    x = np.zeros_like(b)
    r = b.copy()
    tol = CG_TOL * np.linalg.norm(b)
    p = rho_prev = None
    for _ in range(CG_MAXITER):
        if np.linalg.norm(r) <= tol:
            return x, 0
        z = precondition(r)
        rho = np.dot(r, z)
        p = z if p is None else z + (rho / rho_prev) * p
        q = normal(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, CG_MAXITER


def cohomological_residual(model, lam, h="0", w_x="0", w_y="0", n=32,
                           rhs_grid=None):
    """Least-squares solve of F u = h + theta(v) on an n^3 periodic grid.

    h is a base scalar and (w_x, w_y) the components of a base 1-form theta,
    each 0 unless given; the right-hand side on the bundle is the one field
    h + e^{-phi}(w_x cos + w_y sin), sampled on the grid (or rhs_grid).
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

    The normal equations are solved by conjugate gradients preconditioned
    with the frozen-coefficient Fourier blocks of `_frozen_preconditioner`.
    The minimizer is a least-squares minimizer but not in general the
    minimum-norm one: where F has a null space on the band (the full n=16
    grid of a curved torus) it carries a part of that null space, which
    changes neither F u nor the residual.

    Returns the normalized residual, the mean-zero minimizer, and solver
    diagnostics.  Raises SolverDiverged, naming the grid and the band, when
    the preconditioned conjugate gradients exhaust the iteration cap
    CG_MAXITER without meeting the tolerance CG_TOL.
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
        field = _as_field(h) + velocity_pairing(model, w_x, w_y)
        (rhs,) = op.sample({f"right-hand side {field.expression}": field})

    shape = rhs.shape
    project = _fiber_band_projector(n, FIBER_BAND)
    b = project(op.apply_adjoint(rhs)).ravel()

    def normal(v):
        return project(op.apply_adjoint(op.apply(
            project(v.reshape(shape))))).ravel()

    # F^T rhs at roundoff level means rhs is orthogonal to the range:
    # the minimizer is u = 0 and CG would only chase noise; the scale is
    # the largest column norm of F, whose column j holds -+8 w_a(j +- 1)
    # and +-w_a(j +- 2) for each axis a (w_a = c_a / 12h_a)
    col_sq = sum(weight * np.roll(w * w, shift, axis=axis)
                 for axis, w in enumerate(op.weights)
                 for shift, weight in ((1, 64.0), (-1, 64.0), (2, 1.0),
                                       (-2, 1.0)))
    nb = np.linalg.norm(b)
    b_floor = 1e-10 * np.sqrt(float(col_sq.max())) * np.linalg.norm(rhs)
    if nb <= b_floor:
        u, info, misfit = np.zeros(shape), 0, -rhs
    else:
        precondition = _frozen_preconditioner(op)
        # preconditioned CG from u = 0 returns a minimizer but, where F
        # has a null space on the band, not the minimum-norm one: the
        # preconditioner does not keep the iterates off that null space
        sol, info = _pcg(normal, lambda v: precondition(
            v.reshape(shape)).ravel(), b)
        if info > 0:
            # the normal equations are consistent but can stagnate near the
            # attainable floor; accept if the gradient is already tiny
            grad = np.linalg.norm(b - normal(sol)) / nb
            if grad > 1e3 * CG_TOL:
                raise SolverDiverged(
                    f"cohomology solve on the n={n} grid, fiber band |m| <= "
                    f"{FIBER_BAND}: preconditioned conjugate gradients hit "
                    f"the {CG_MAXITER}-iteration cap with normal-equation "
                    f"residual {grad:.3e}")
        u = project(sol.reshape(shape))
        u = u - float(np.mean(u))
        misfit = op.apply(u) - rhs
    rhs_norm = float(np.linalg.norm(rhs))
    residual = float(np.linalg.norm(misfit)) / max(rhs_norm, 1e-300)
    return {"residual": residual, "minimizer": u, "rhs_norm": rhs_norm,
            "grid": n, "cg_info": int(info), "operator": op}
