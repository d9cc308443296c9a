"""Regularized continuation of Cauchy data from gamma2 to gamma1.

The potential difference between two admissible states is harmonic, so the
completion problem is linear: fit a global harmonic expansion (harmonic
polynomials or fundamental solutions) to the measured trace and flux on
gamma2 and the zero trace on gammaD, with Tikhonov regularization and a
Morozov rule for the weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from corrinv.geometry import (
    BoundaryCurve,
    BoundaryTag,
    GeometryError,
    quadrature_weights,
    segment_distance,
)
from corrinv.reconstruction import BoundaryProfile


class FieldError(ValueError):
    """A setting breaks a rule; ``key`` names its config key, or two keys
    joined by ", " when two are at fault."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class CauchyData:
    """Sampled Dirichlet/Neumann pair on gamma2 with its declared noise level.

    curve carries the sample parameters ``curve.t``, and the points and
    outward normals needed to evaluate basis functions at the samples.
    """

    psi: np.ndarray
    g: np.ndarray
    eps: float
    curve: BoundaryCurve

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if not (len(self.curve) == psi.size == g.size):
            raise ValueError("Cauchy data arrays must have equal lengths")
        if self.eps < 0:
            raise ValueError("noise level must be nonnegative")
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "g", g)


class HarmonicPolynomialBasis:
    """{1, Re z^k, Im z^k : k = 1..N} about a fixed center; every member is
    exactly harmonic."""

    def __init__(self, degree: int, center):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = int(degree)
        self.center = np.asarray(center, dtype=float)

    @property
    def size(self) -> int:
        return 2 * self.degree + 1

    def _z(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return (p[:, 0] - self.center[0]) + 1j * (p[:, 1] - self.center[1])

    def eval(self, points) -> np.ndarray:
        z = self._z(points)
        out = np.empty((z.size, self.size))
        out[:, 0] = 1.0
        zk = np.ones_like(z)
        for k in range(1, self.degree + 1):
            zk = zk * z
            out[:, 2 * k - 1] = zk.real
            out[:, 2 * k] = zk.imag
        return out

    def grad(self, points) -> np.ndarray:
        """Gradients, shape (P, size, 2).  For holomorphic w = z^k:
        grad Re w = (Re w', -Im w'), grad Im w = (Im w', Re w')."""
        z = self._z(points)
        out = np.zeros((z.size, self.size, 2))
        zk = np.ones_like(z)
        for k in range(1, self.degree + 1):
            dw = k * zk  # derivative of z^k
            zk = zk * z
            out[:, 2 * k - 1, 0] = dw.real
            out[:, 2 * k - 1, 1] = -dw.imag
            out[:, 2 * k, 0] = dw.imag
            out[:, 2 * k, 1] = dw.real
        return out


class FundamentalSolutionBasis:
    """log|x - y_m| for charge points y_m strictly outside the domain."""

    def __init__(self, charges):
        c = np.asarray(charges, dtype=float)
        if c.ndim != 2 or c.shape[1] != 2 or c.shape[0] < 1:
            raise ValueError("charges must be an (M, 2) array")
        self.charges = c

    @classmethod
    def around_polygon(cls, vertices, m_charges: int, offset: float):
        """Charges on a circle about the centroid, radius = circumradius +
        offset; verifies every charge is at distance >= offset/2 from all
        polygon edges, and raises GeometryError naming
        ``continuation.offset_factor`` if one is not, as when the offset is
        lost to rounding in the radius."""
        verts = np.asarray(vertices, dtype=float)
        center = verts.mean(axis=0)
        circum = float(np.max(np.hypot(*(verts - center).T)))
        radius = circum + offset
        ang = 2.0 * np.pi * np.arange(m_charges) / m_charges
        charges = center + radius * np.column_stack([np.cos(ang), np.sin(ang)])
        d = segment_distance(charges, verts, np.roll(verts, -1, axis=0))
        if np.any(d < 0.5 * offset):
            raise GeometryError("charge point too close to the domain "
                                "boundary", "continuation.offset_factor")
        return cls(charges)

    @property
    def size(self) -> int:
        return self.charges.shape[0]

    def eval(self, points) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        r = p[:, 0, None] - self.charges[None, :, 0]
        dy = p[:, 1, None] - self.charges[None, :, 1]
        np.hypot(r, dy, out=r)
        return np.log(r, out=r)

    def grad(self, points) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        d = p[:, None, :] - self.charges[None, :, :]
        r2 = d[:, :, 0] ** 2 + d[:, :, 1] ** 2
        return d / r2[:, :, None]


class CornerSingularBasis:
    """A smooth expansion augmented with z^2 log z corner terms.

    Mixed flux boundary conditions put r^2 log r singularities at the
    corners where the flux jumps; a smooth global expansion stalls at a few
    percent relative error there.  Adding Re/Im of z^2 log z centered at the
    offending vertices (branch cut along the outward corner bisector, so the
    terms are harmonic throughout the domain) restores fast convergence, and
    the least squares drives the amplitudes to zero when the data is smooth.
    """

    def __init__(self, inner, corners, cut_angles):
        corners = np.atleast_2d(np.asarray(corners, dtype=float))
        cut_angles = np.atleast_1d(np.asarray(cut_angles, dtype=float))
        if corners.shape[0] != cut_angles.size:
            raise ValueError("one cut angle per corner required")
        self.inner = inner
        self.corners = corners
        self.cut_angles = cut_angles

    @classmethod
    def around_gamma2(cls, inner, domain):
        """Augment at the vertices incident to a gamma2 side, where the
        measured flux meets a different boundary condition."""
        verts = np.asarray(domain.vertices, dtype=float)
        nv = verts.shape[0]
        picked = sorted({
            j for i in domain.sides_with_tag(BoundaryTag.GAMMA2)
            for j in (i, (i + 1) % nv)
        })
        corners, angles = [], []
        for i in picked:
            d_prev = verts[i - 1] - verts[i]
            d_next = verts[(i + 1) % nv] - verts[i]
            inward = d_prev / np.hypot(*d_prev) + d_next / np.hypot(*d_next)
            corners.append(verts[i])
            angles.append(np.arctan2(-inward[1], -inward[0]))
        return cls(inner, corners, angles)

    @property
    def size(self) -> int:
        return self.inner.size + 2 * self.corners.shape[0]

    def _singular(self, points):
        """z^k log z per corner with the log branch rotated onto the cut."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        z = ((p[:, 0, None] - self.corners[None, :, 0])
             + 1j * (p[:, 1, None] - self.corners[None, :, 1]))
        # standard log cuts along the negative real axis; rotate so the cut
        # lies along the outward bisector instead
        shift = self.cut_angles + np.pi
        safe = np.where(z == 0, 1.0, z)
        logz = np.log(safe * np.exp(-1j * shift)[None, :]) + 1j * shift[None, :]
        # z^2 log z and its derivative both vanish at the corner itself
        logz = np.where(z == 0, 0.0, logz)
        return z, logz

    def eval(self, points) -> np.ndarray:
        z, logz = self._singular(points)
        w = z**2 * logz
        inner = self.inner.eval(points)
        k = inner.shape[1]
        out = np.empty((w.shape[0], self.size))
        out[:, :k] = inner
        out[:, k::2] = w.real
        out[:, k + 1::2] = w.imag
        return out

    def grad(self, points) -> np.ndarray:
        z, logz = self._singular(points)
        dw = z * (2.0 * logz + 1.0)
        gi = self.inner.grad(points)
        out = np.zeros((gi.shape[0], self.size, 2))
        out[:, : self.inner.size, :] = gi
        k = self.inner.size
        for j in range(self.corners.shape[0]):
            d = dw[:, j]
            out[:, k, 0] = d.real
            out[:, k, 1] = -d.imag
            out[:, k + 1, 0] = d.imag
            out[:, k + 1, 1] = d.real
            k += 2
        return out


@dataclass(frozen=True)
class ContinuationResult:
    basis: object
    coefficients: np.ndarray
    mu: float
    discrepancy_psi: float
    discrepancy_g: float
    discrepancy_dirichlet: float
    discrepancy: float  # RMS over the three blocks
    condition_number: float
    under_resolved: bool = False


@dataclass(frozen=True)
class ContinuationSystem:
    """The stacked constraint matrix of one basis on one pair of sample
    curves, with its thin SVD, and the basis values and gradients at the
    gamma1 samples.  Only the right-hand side depends on the data, so one
    system serves every data realization sampled at ``t``."""

    basis: object
    t: np.ndarray  # gamma2 sample parameters
    root_weights: np.ndarray  # square roots of the gamma2 quadrature weights
    blocks: dict  # row slices "psi", "g" and "dirichlet"
    A: np.ndarray
    U: np.ndarray
    s: np.ndarray
    Vt: np.ndarray
    condition_number: float
    curve1: BoundaryCurve  # gamma1 samples
    values1: np.ndarray  # basis.eval at curve1, (P, size)
    grads1: np.ndarray  # basis.grad at curve1, (P, size, 2)

    def rhs(self, data: CauchyData) -> np.ndarray:
        """The weighted right-hand side of ``data``; it must be sampled at
        this system's gamma2 parameters."""
        if not np.array_equal(data.curve.t, self.t):
            raise ValueError(
                "Cauchy data is not sampled at the system's gamma2 samples")
        w = self.root_weights
        return np.concatenate([w * data.psi, w * data.g,
                               np.zeros(self.A.shape[0] - 2 * w.size)])


# Morozov search: bisection on log mu over [_MU_LO, _MU_HI]
_MU_LO = 1e-16
_MU_HI = 1e2
_BISECTION_STEPS = 60


def design_matrix(basis, curve2: BoundaryCurve,
                  dirichlet_curve: BoundaryCurve,
                  curve1: BoundaryCurve) -> ContinuationSystem:
    """Stacked constraint system [trace on gamma2; flux on gamma2; trace on
    gammaD], each block row-weighted by the square roots of its arc-length
    quadrature weights so the normal equations approximate the continuous
    L2 misfits, and its thin SVD; with the basis values and gradients at
    the gamma1 samples ``curve1``, where every fit is evaluated.  Raises
    FieldError naming ``continuation.degree`` when the basis overflows at
    the gamma2 or gammaD samples."""
    if len(curve2) < 1 or len(dirichlet_curve) < 1:
        raise ValueError("every constraint block needs at least one sample")
    pts2 = curve2.points
    w2 = np.sqrt(quadrature_weights(curve2.t))
    wD = np.sqrt(quadrature_weights(dirichlet_curve.t))
    with np.errstate(over="ignore", invalid="ignore"):
        dn2 = np.einsum("pkd,pd->pk", basis.grad(pts2), curve2.normals)
        A = np.vstack([
            w2[:, None] * basis.eval(pts2),
            w2[:, None] * dn2,
            wD[:, None] * basis.eval(dirichlet_curve.points),
        ])
    if not np.isfinite(A).all():
        raise FieldError("continuation.degree", "the basis overflows at "
                                                "the boundary samples")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    values1 = basis.eval(curve1.points)
    grads1 = basis.grad(curve1.points)
    # one system is shared by many fits
    for arr in (w2, A, U, s, Vt, values1, grads1):
        arr.flags.writeable = False
    n2 = len(curve2)
    blocks = {
        "psi": slice(0, n2),
        "g": slice(n2, 2 * n2),
        "dirichlet": slice(2 * n2, A.shape[0]),
    }
    return ContinuationSystem(
        basis=basis, t=curve2.t, root_weights=w2, blocks=blocks, A=A,
        U=U, s=s, Vt=Vt,
        condition_number=float(s[0] / s[-1]) if s[-1] > 0 else np.inf,
        curve1=curve1, values1=values1, grads1=grads1)


def fit(system: ContinuationSystem, data: CauchyData,
        mu: float) -> ContinuationResult:
    """Tikhonov-regularized least squares via the system's SVD; mu = 0
    yields the minimum-norm least-squares solution."""
    if mu < 0:
        raise ValueError("regularization weight must be nonnegative")
    b = system.rhs(data)
    s = system.s
    if mu == 0.0:
        cutoff = s.max() * 1e-14 if s.size else 0.0
        filt = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    else:
        filt = s / (s**2 + mu)
    c = system.Vt.T @ (filt * (system.U.T @ b))
    r = system.A @ c - b
    d = {k: float(np.linalg.norm(r[sl])) for k, sl in system.blocks.items()}
    return ContinuationResult(
        basis=system.basis, coefficients=c, mu=mu,
        discrepancy_psi=d["psi"], discrepancy_g=d["g"],
        discrepancy_dirichlet=d["dirichlet"],
        discrepancy=float(np.sqrt(np.mean([v**2 for v in d.values()]))),
        condition_number=system.condition_number)


def _discrepancy(U, s, rhs):
    """RMS block discrepancy of the Tikhonov solutions of the right-hand
    sides ``rhs`` as a function of their weights, one mu per right-hand
    side.  With beta = U^T b the squared residual is sum((mu / (s^2 +
    mu))^2 beta^2) + ||b - U beta||^2 (Hansen 1998, ch. 7), nondecreasing
    in mu also after rounding when written with 1 / (1 + s^2 / mu)."""
    beta = [U.T @ b for b in rhs]
    rho2 = np.array([float(np.sum((b - U @ bt) ** 2))
                     for b, bt in zip(rhs, beta)])
    s2, beta2 = s**2, np.array(beta) ** 2

    def disc(mu):
        damp = 1.0 / (1.0 + s2 / mu[:, None])
        return np.sqrt((np.sum(damp**2 * beta2, axis=1) + rho2) / 3.0)

    return disc


def choose_mu(system: ContinuationSystem, batch, tau: float = 1.2):
    """Morozov discrepancy principle for each realization of ``batch``: the
    largest mu whose RMS block discrepancy stays within tau * eps, found by
    bisection on log mu.  The search needs only the shared SVD, so the
    bisections of all realizations run in lockstep on one array.

    Returns one (mu, under_resolved) per realization.  under_resolved is
    set when even the smallest mu tried overshoots the target.
    """
    if any(data.eps <= 0 for data in batch):
        raise ValueError("Morozov rule needs a positive noise level")
    disc = _discrepancy(system.U, system.s,
                        [system.rhs(data) for data in batch])
    target = np.array([tau * data.eps for data in batch])
    n = target.size
    under = disc(np.full(n, _MU_LO)) > target
    top = disc(np.full(n, _MU_HI)) <= target
    # disc(lo) <= target < disc(hi) for the cells that take the search
    lo, hi = np.full(n, np.log(_MU_LO)), np.full(n, np.log(_MU_HI))
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        below = disc(np.exp(mid)) <= target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    mu = np.where(under, _MU_LO, np.where(top, _MU_HI, np.exp(lo)))
    return [(float(m), bool(u)) for m, u in zip(mu, under)]


def evaluate_on_gamma1(system: ContinuationSystem, coefficients):
    """Reconstructed trace, normal derivative and tangential derivative of
    the expansion with ``coefficients`` on the system's gamma1 samples,
    evaluated analytically from the stored basis values and gradients."""
    curve = system.curve1
    V = system.values1 @ coefficients
    G = np.einsum("pkd,k->pd", system.grads1, coefficients)
    w = np.einsum("pd,pd->p", G, curve.normals)
    dv = np.einsum("pd,pd->p", G, curve.tangents())
    return BoundaryProfile(t=curve.t, v=V, w=w, dv=dv)
