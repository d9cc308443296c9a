"""P1 finite element solver for the nonlinear corrosion boundary value problem.

The potential is harmonic in the domain, grounded on gammaD, driven by a
prescribed current flux on gamma2 and coupled to the corrosion law through
the flux condition on gamma1.  Each mesh has one stiffness object,
``Stiffness``: on the rectangle grid the stiffness matrix is the Kronecker
sum of two 1-D axis operators, which give both its 5-point stencil and the
exact tensor-product solve of the grounded problem.  The nonlinear
boundary term is handled by a damped Newton iteration on the weak-form
residual.  The Jacobian differs from the free stiffness block only on the
gamma1 nodes, so each step is solved exactly by that solve plus a dense
capacitance system on those nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from corrinv.continuation import CauchyData, FieldError
from corrinv.geometry import (
    BoundaryTag,
    Mesh,
    quadrature_weights,
    trace_sample,
)
from corrinv.reconstruction import BoundaryProfile

# 2-point Gauss rule on [0, 1]
_GAUSS_S = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_GAUSS_W = np.array([0.5, 0.5])

# a Newton step past it keeps fewer than half of its digits
_STEP_CONDITION_LIMIT = 1.0 / np.sqrt(np.finfo(float).eps)


def __getattr__(name):
    # perfbench/tracer.py reads forward.spla at install, though no solve
    # uses it; ROADMAP item 1 deletes this shim
    if name == "spla":
        import scipy.sparse.linalg

        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ForwardSolveError(RuntimeError):
    """Newton failed to reach the residual tolerance."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = residual_history or []


class NonlinearityModel:
    """Corrosion law f with f(0) = 0 and a finite Lipschitz constant."""

    def __call__(self, u):
        raise NotImplementedError

    def derivative(self, u):
        raise NotImplementedError


class ExponentialLaw(NonlinearityModel):
    """Butler-Volmer-type exchange law lam*(exp(a*u) - exp(-(1-a)*u)),
    extended linearly outside [-u_max, u_max] so it stays globally Lipschitz
    with constant lam*(a*exp(a*u_max) + (1-a)*exp((1-a)*u_max))."""

    def __init__(self, lam: float, a: float, u_max: float = 5.0):
        if not 0.0 < a < 1.0:
            raise ValueError("transfer coefficient must lie in (0,1)")
        if u_max <= 0:
            raise ValueError("truncation potential must be positive")
        self.lam = float(lam)
        self.a = float(a)
        self.u_max = float(u_max)

    def _core(self, u):
        return self.lam * (np.exp(self.a * u) - np.exp(-(1.0 - self.a) * u))

    def _core_deriv(self, u):
        return self.lam * (
            self.a * np.exp(self.a * u)
            + (1.0 - self.a) * np.exp(-(1.0 - self.a) * u)
        )

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        uc = np.clip(u, -self.u_max, self.u_max)
        out = self._core(uc) + self._core_deriv(uc) * (u - uc)
        return out if out.ndim else float(out)

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        uc = np.clip(u, -self.u_max, self.u_max)
        out = self._core_deriv(uc)
        return out if out.ndim else float(out)


class LinearLaw(NonlinearityModel):
    def __init__(self, slope: float):
        self.slope = float(slope)

    def __call__(self, u):
        return self.slope * np.asarray(u, dtype=float)

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        return np.full_like(u, self.slope) if u.ndim else self.slope


class TabulatedLaw(NonlinearityModel):
    """Piecewise-linear law through sorted knots; the end slopes continue
    outside the knot range.  A knot at (0, 0) is required."""

    def __init__(self, u_knots, f_knots):
        u = np.asarray(u_knots, dtype=float)
        f = np.asarray(f_knots, dtype=float)
        if u.size < 2 or u.size != f.size:
            raise ValueError("need matching knot arrays with >= 2 knots")
        if not np.all(np.diff(u) > 0):
            raise ValueError("knot abscissae must be strictly increasing")
        at_zero = np.isclose(u, 0.0, atol=1e-14)
        if not np.any(at_zero) or not np.allclose(f[at_zero], 0.0, atol=1e-14):
            raise ValueError("tabulated law must contain the knot (0, 0)")
        self.u_knots = u
        self.f_knots = f
        self._slopes = np.diff(f) / np.diff(u)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        out = np.interp(u, self.u_knots, self.f_knots)
        lo, hi = self.u_knots[0], self.u_knots[-1]
        out = np.where(u < lo, self.f_knots[0] + self._slopes[0] * (u - lo), out)
        out = np.where(u > hi, self.f_knots[-1] + self._slopes[-1] * (u - hi), out)
        return out if out.ndim else float(out)

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        idx = np.clip(np.searchsorted(self.u_knots, u, side="right") - 1,
                      0, self._slopes.size - 1)
        out = self._slopes[idx]
        return out if out.ndim else float(out)


class FluxProfile:
    """Prescribed current density on gamma2 as a function of arc length."""

    def __init__(self, kind: str, *, value=None, coeffs=None,
                 t_knots=None, g_knots=None):
        if kind not in ("constant", "polynomial", "tabulated"):
            raise ValueError(f"unknown flux kind {kind!r}")
        self.kind = kind
        if kind == "constant":
            self.value = float(value)
        elif kind == "polynomial":
            self.coeffs = np.asarray(coeffs, dtype=float)  # low to high degree
            if self.coeffs.size == 0:
                raise ValueError("polynomial flux needs a coefficient")
        else:
            self.t_knots = np.asarray(t_knots, dtype=float)
            self.g_knots = np.asarray(g_knots, dtype=float)
            if self.t_knots.size < 2 or self.t_knots.size != self.g_knots.size:
                raise ValueError("need matching knot arrays with >= 2 knots")
            if not np.all(np.diff(self.t_knots) > 0):
                raise ValueError("tabulated flux knots must be increasing")

    @classmethod
    def constant(cls, value):
        return cls("constant", value=value)

    @classmethod
    def polynomial(cls, coeffs):
        return cls("polynomial", coeffs=coeffs)

    @classmethod
    def tabulated(cls, t_knots, g_knots):
        return cls("tabulated", t_knots=t_knots, g_knots=g_knots)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            out = np.full_like(t, self.value)
        elif self.kind == "polynomial":
            out = np.polynomial.polynomial.polyval(t, self.coeffs)
        else:
            out = np.interp(t, self.t_knots, self.g_knots)
        return out if out.ndim else float(out)

    def scaled(self, factor: float) -> "FluxProfile":
        if self.kind == "constant":
            return FluxProfile.constant(factor * self.value)
        if self.kind == "polynomial":
            return FluxProfile.polynomial(factor * self.coeffs)
        return FluxProfile.tabulated(self.t_knots, factor * self.g_knots)

    def sup_on(self, ts) -> float:
        return float(np.max(np.abs(self(np.asarray(ts)))))


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual: float
    energy: float
    stop: str  # the rule that ended Newton: "tolerance" or "rounding_floor"
    residual_history: tuple = field(default_factory=tuple)
    # per Newton step, ||(I - C S)^-1||_1 (1 + ||C S||_1) (see solve_forward)
    step_condition: tuple = field(default_factory=tuple)


def _axis_stiffness(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v along the last axis of v, for the 1-D P1 stiffness
    A = D^T diag(1/h) D on a grid axis of cell widths h, where D takes the
    differences over the cells."""
    return -np.diff(np.diff(v) / h, prepend=0.0, append=0.0)


def _axis_mass(h: np.ndarray) -> np.ndarray:
    """Diagonal of the lumped 1-D mass W on a grid axis of cell widths h:
    half the widths of the cells next to each node."""
    return np.convolve(h, [0.5, 0.5])


def _axis_modes(h: np.ndarray, w: np.ndarray, keep: np.ndarray):
    """Generalized eigenpairs A v = lam W v of the axis operators of cell
    widths h and lumped mass w, restricted to the kept indices; the
    eigenvectors satisfy V^T W V = I.  W is diagonal, so they come from
    the symmetric eigenproblem of W^-1/2 A W^-1/2 with V = W^-1/2 Q (Golub
    and Van Loan, Matrix Computations, 8.7)."""
    A = _axis_stiffness(h, np.eye(w.size))[np.ix_(keep, keep)]
    s = 1.0 / np.sqrt(w[keep])
    lam, Q = np.linalg.eigh(s[:, None] * A * s)
    return lam, s[:, None] * Q


class Stiffness:
    """The P1 stiffness operator K of the Laplacian on the grid of a mesh
    laid out by ``build_rectangle_mesh``, with the exact solve of its
    problem grounded on gammaD.

    The P1 coupling across a right triangle's hypotenuse is zero, so K is
    the 5-point stencil, the Kronecker sum W_y (x) A_x + A_y (x) W_x of
    the 1-D axis stiffness A and lumped mass W.  Each side of the rectangle
    carries one tag, so gammaD takes whole sides and the block K_ff on the
    free nodes keeps that form on the kept indices of each axis, and the
    eigenpairs of both axes give
    K_ff^-1 B = V_y ((V_y^T B V_x) / (lam_y + lam_x)) V_x^T
    (Lynch, Rice and Thomas, Numer. Math. 6, 1964).  Each axis's cell
    widths and mass are computed once, for the stencil and the eigenpairs.
    """

    def __init__(self, mesh: Mesh):
        gx, gy = mesh.gx, mesh.gy
        self._h_x, self._h_y = np.diff(gx), np.diff(gy)
        w_x, w_y = _axis_mass(self._h_x), _axis_mass(self._h_y)
        self._w_x, self._w_y = w_x, w_y[:, None]
        self._shape = (gy.size, gx.size)
        self._free = np.zeros(gy.size * gx.size, dtype=bool)
        self._free[mesh.free_nodes] = True
        free = self._free.reshape(self._shape)
        keep_y, keep_x = free.any(axis=1), free.any(axis=0)
        # kept index of each grid row and column
        self._row, self._col = np.cumsum(keep_y) - 1, np.cumsum(keep_x) - 1
        lam_y, self._vy = _axis_modes(self._h_y, w_y, keep_y)
        lam_x, self._vx = _axis_modes(self._h_x, w_x, keep_x)
        self._inv = 1.0 / (lam_y[:, None] + lam_x[None, :])

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """K u for the nodal values u, no boundary conditions applied."""
        U = np.reshape(u, self._shape)
        return (self._w_y * _axis_stiffness(self._h_x, U)
                + _axis_stiffness(self._h_y, U.T).T * self._w_x).ravel()

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The nodal field x that is 0 on gammaD and solves the free rows
        of K x = b; the entries of b on gammaD are not read."""
        B = np.reshape(b[self._free], self._inv.shape)
        vy, vx = self._vy, self._vx
        x = np.zeros(self._free.size)
        x[self._free] = (vy @ ((vy.T @ B @ vx) * self._inv) @ vx.T).ravel()
        return x

    def capacitance(self, nodes: np.ndarray) -> np.ndarray:
        """S = E^T K_ff^-1 E, where E picks the given free nodes out of the
        free vector.  The nodes are a chain of grid neighbours, such as a
        tagged boundary chain: each straight run of it lies on one grid row
        or column, where the eigenvectors give each block of S in closed
        form at O(n^3), instead of one solve per node (Buzbee, Dorr, George
        and Golub, SIAM J. Numer. Anal. 8, 1971)."""
        j, i = np.divmod(nodes, self._shape[1])
        Y, X = self._vy[self._row[j]], self._vx[self._col[i]]
        along_row = j[1:] == j[:-1]
        cuts = np.flatnonzero(along_row[1:] != along_row[:-1]) + 2
        runs = [slice(a, b) for a, b in zip(np.r_[0, cuts],
                                            np.r_[cuts, nodes.size]) if a < b]
        S = np.zeros((nodes.size, nodes.size))
        for r in runs:
            for c in runs:
                if np.all(j[r] == j[r.start]):  # r lies on one grid row
                    M = ((Y[c] * Y[r.start]) @ self._inv) * X[c]
                    S[r, c] = X[r] @ M.T
                else:  # r lies on one grid column
                    M = ((X[c] * X[r.start]) @ self._inv.T) * Y[c]
                    S[r, c] = Y[r] @ M.T
        return S


def assemble_stiffness(mesh: Mesh) -> Stiffness:
    """The stiffness object of the mesh's grid; ``mesh.stiffness`` keeps
    the one built for each mesh."""
    return Stiffness(mesh)


def _edge_load(n: int, edges, gauss_values) -> np.ndarray:
    """Nodal sums of w * le * value * phi over edges and Gauss points, where
    ``gauss_values[q]`` holds the values at Gauss point q of every edge.
    The terms are added in edge -> Gauss point -> node order, the order of
    a per-edge loop, so the sums do not depend on the vectorization."""
    contrib = np.empty((edges.lengths.size, _GAUSS_S.size, 2))
    for q, (s, w) in enumerate(zip(_GAUSS_S, _GAUSS_W)):
        wg = w * edges.lengths * gauss_values[q]
        contrib[:, q, 0] = wg * (1.0 - s)
        contrib[:, q, 1] = wg * s
    nodes = np.repeat(edges.nodes[:, None, :], _GAUSS_S.size, axis=1)
    return np.bincount(nodes.ravel(), weights=contrib.ravel(), minlength=n)


def _gauss_interp(edges, values: np.ndarray) -> list:
    """Linear interpolation of per-node values at each Gauss point of every
    edge."""
    v0, v1 = values[edges.nodes[:, 0]], values[edges.nodes[:, 1]]
    return [v0 * (1.0 - s) + v1 * s for s in _GAUSS_S]


def assemble_boundary_load(mesh: Mesh, tag: BoundaryTag, density) -> np.ndarray:
    """Load vector of the density tested against P1 boundary basis functions,
    integrated edge-wise with 2-point Gauss quadrature.  The density is a
    function of the tag-local arc length."""
    edges = mesh.tag_edges(tag)
    t0, t1 = edges.t[:, 0], edges.t[:, 1]
    return _edge_load(mesh.nodes.shape[0], edges,
                      [density(t0 + s * (t1 - t0)) for s in _GAUSS_S])


def _nonlinear_load(mesh: Mesh, u: np.ndarray, model: NonlinearityModel) -> np.ndarray:
    """Boundary load of f(u_h) on gamma1, with u_h interpolated linearly
    along each edge."""
    edges = mesh.tag_edges(BoundaryTag.GAMMA1)
    return _edge_load(mesh.nodes.shape[0], edges,
                      [model(ug) for ug in _gauss_interp(edges, u)])


def _nonlinear_jacobian(mesh: Mesh, u: np.ndarray, model: NonlinearityModel,
                        nodes: np.ndarray) -> np.ndarray:
    """Block on the given nodes of the derivative of the gamma1 load with
    respect to the nodal values, as a dense array: a boundary mass matrix
    weighted by f'(u_h) at the Gauss points.  The terms are added in
    edge -> Gauss point -> row -> column order, so each entry sums as in a
    per-edge loop."""
    edges = mesh.tag_edges(BoundaryTag.GAMMA1)
    vals = np.empty((edges.lengths.size, _GAUSS_S.size, 2, 2))
    for q, (s, w, ug) in enumerate(zip(_GAUSS_S, _GAUSS_W,
                                       _gauss_interp(edges, u))):
        wf = w * edges.lengths * model.derivative(ug)
        phi = np.array([1.0 - s, s])
        vals[:, q] = wf[:, None, None] * phi[:, None] * phi  # (wf phi_a) phi_b
    at = np.full(mesh.nodes.shape[0], -1)
    at[nodes] = np.arange(nodes.size)
    pairs = np.broadcast_to(at[edges.nodes][:, None, :, None], vals.shape)
    rows, cols = pairs.ravel(), np.swapaxes(pairs, 2, 3).ravel()
    on = (rows >= 0) & (cols >= 0)
    m = nodes.size
    return np.bincount(rows[on] * m + cols[on], weights=vals.ravel()[on],
                       minlength=m * m).reshape(m, m)


def solve_forward(mesh: Mesh, g: FluxProfile, f: NonlinearityModel,
                  tol: float = 1e-12, max_iter: int = 50):
    """Damped Newton iteration on the weak-form residual, starting from zero.

    The Jacobian block is J_ff = K_ff - E C E^T, where C is the f'(u)
    weighted boundary mass on the m free gamma1 nodes that E picks out.
    Each step J_ff d = r is solved exactly through the capacitance matrix
    S = E^T K_ff^-1 E of ``mesh.stiffness``: (I - C S) y =
    C E^T K_ff^-1 r, then d = K_ff^-1 (r + E y).

    The iteration stops once the free residual is at most tol.  When no
    damped step lowers a residual that is already at most
    tol * max(1, |(K u)_free|), the rounding floor of K u, it stops there
    too: a large field can put that floor above tol.  SolveReport.stop
    names the rule that ended the iteration.

    A step is singular when its condition number ||(I - C S)^-1||_1
    (1 + ||C S||_1), taken against the terms that cancel in I - C S,
    exceeds eps^-1/2, as near a resonance of the law; the report's
    step_condition records it at each step.

    Returns (u, SolveReport), u the nodal values; raises ForwardSolveError when
    a step is singular or the residual tolerance is not met within
    max_iter iterations (the direct problem has no solvability guarantee
    for fast-growing laws), and FieldError naming ``mesh_n`` when gamma1 or
    gamma2 has no node off gammaD, so the solve could not see the flux or
    the law.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    dirichlet = mesh.dirichlet_nodes
    for tag in (BoundaryTag.GAMMA1, BoundaryTag.GAMMA2):
        if np.isin(mesh.tag_polyline(tag)[0], dirichlet).all():
            raise FieldError("mesh_n", f"{tag.value} has no node off gammaD "
                                       "on this mesh; refine it")
    free = mesh.free_nodes
    K = mesh.stiffness
    b_g = assemble_boundary_load(mesh, BoundaryTag.GAMMA2, g)
    chain, _ = mesh.tag_polyline(BoundaryTag.GAMMA1)
    g1 = chain[~np.isin(chain, dirichlet)]
    S = K.capacitance(g1)

    def residual(u):
        return K(u) - b_g - _nonlinear_load(mesh, u, f)

    u = np.zeros(mesh.nodes.shape[0])
    history, conditions = [], []
    stop = "tolerance"
    F = residual(u)
    res = float(np.linalg.norm(F[free]))
    for it in range(1, max_iter + 1):
        history.append(res)
        if res <= tol:
            break
        C = _nonlinear_jacobian(mesh, u, f, g1)
        CS = C @ S
        M = np.eye(g1.size) - CS
        try:
            cond = np.linalg.norm(np.linalg.inv(M), 1) * (
                1.0 + np.linalg.norm(CS, 1))
        except np.linalg.LinAlgError:
            cond = np.inf
        conditions.append(float(cond))
        if not cond <= _STEP_CONDITION_LIMIT:
            raise ForwardSolveError(
                f"singular Newton step at iteration {it}: condition number "
                f"{cond:.3e}", residual_history=history)
        # d and u are 0.0 on gammaD, which K.solve does not read
        r = -F
        r[g1] += np.linalg.solve(M, C @ K.solve(r)[g1])
        d = K.solve(r)
        step = 1.0
        for _ in range(31):
            u_try = u + step * d
            F_try = residual(u_try)
            res_try = float(np.linalg.norm(F_try[free]))
            if res_try < res:
                break
            step *= 0.5
        else:
            if res <= tol * max(1.0, float(np.linalg.norm(K(u)[free]))):
                stop = "rounding_floor"
                break
            raise ForwardSolveError(
                f"Newton stalled at iteration {it} with residual {res:.3e}",
                residual_history=history)
        u, F, res = u_try, F_try, res_try
    else:
        raise ForwardSolveError(
            f"Newton did not converge in {max_iter} iterations "
            f"(residual {res:.3e})", residual_history=history)
    report = SolveReport(iterations=it, residual=res, energy=float(u @ K(u)),
                         stop=stop, residual_history=tuple(history),
                         step_condition=tuple(conditions))
    return u, report


def neumann_trace(u: np.ndarray, mesh: Mesh, tag: BoundaryTag) -> np.ndarray:
    """Variational flux recovery on a tagged boundary portion.

    Per straight side, the flux is the Riesz representative of the stiffness
    residual against the boundary mass matrix, tested only at nodes interior
    to the side (their basis functions see no other boundary portion); the
    two end values are closed by quadratic extrapolation.  This avoids the
    corner contamination of the naive consistent-flux solve and keeps the
    superconvergence of the variational approach.

    Returns the flux at the nodes of ``mesh.tag_polyline(tag)``; a corner
    between two sides of the portion gets the mean of their two values.
    """
    node_ids, _ = mesh.tag_polyline(tag)
    edges = mesh.tag_edges(tag)
    r = mesh.stiffness(u)
    lam = np.empty(node_ids.size)
    cuts = np.concatenate([[0], np.flatnonzero(np.diff(edges.sides)) + 1,
                           [edges.sides.size]])
    for a, b in zip(cuts[:-1], cuts[1:]):
        # the side's edges are a..b-1 and its nodes a..b
        k = b - a
        le = edges.lengths[a:b]
        M = (np.diag(np.convolve(le / 3.0, [1.0, 1.0]))
             + np.diag(le / 6.0, 1) + np.diag(le / 6.0, -1))
        r_side = r[node_ids[a:b + 1]]
        if k >= 3:
            # unknowns lam_1..lam_{k-1}; lam_0, lam_k by extrapolation
            T = np.eye(k + 1, k - 1, -1)
            T[0, [0, 1]] = T[k, [k - 2, k - 3]] = 2.0, -1.0
            lam_side = T @ np.linalg.solve(M[1:k, :] @ T, r_side[1:k])
        else:
            lam_side = np.linalg.solve(M, r_side)
        if a > 0:
            lam_side[0] = 0.5 * (lam[a] + lam_side[0])
        lam[a:b + 1] = lam_side
    return lam


def boundary_profile(u: np.ndarray, mesh: Mesh, tag: BoundaryTag):
    """Direct boundary profile (trace, recovered flux, tangential derivative)
    of a solved field on a tagged portion."""
    w = neumann_trace(u, mesh, tag)
    node_ids, ts = mesh.tag_polyline(tag)
    v = u[node_ids]
    dv = np.gradient(v, ts)
    return BoundaryProfile(t=ts, v=v, w=w, dv=dv)


def extract_cauchy_data(u: np.ndarray, mesh: Mesh, noise_eps: float = 0.0,
                        seed: int = 0, m: int | None = None):
    """Sample the Cauchy pair (trace, flux) on gamma2 at m points and
    perturb it as ``perturb_cauchy_data`` does."""
    node_ids, ts = mesh.tag_polyline(BoundaryTag.GAMMA2)
    if m is None:
        m = ts.size
    curve = trace_sample(mesh, BoundaryTag.GAMMA2, m)
    psi = np.interp(curve.t, ts, u[node_ids])
    gvals = np.interp(curve.t, ts, neumann_trace(u, mesh, BoundaryTag.GAMMA2))
    clean = CauchyData(psi=psi, g=gvals, eps=0.0, curve=curve)
    (data,) = perturb_cauchy_data(clean, [(noise_eps, seed)])
    return data


def perturb_cauchy_data(clean: CauchyData, cells):
    """One noisy copy of clean Cauchy data per (noise_eps, seed) in
    ``cells``: Gaussian noise is added to the trace and then the flux, each
    rescaled to an exact discrete L2 norm of noise_eps; the draws come from
    ``np.random.default_rng(seed)``.  The quadrature weights of the shared
    curve are computed once."""
    if any(noise_eps < 0 for noise_eps, _ in cells):
        raise ValueError("noise level must be nonnegative")
    w = quadrature_weights(clean.curve.t)
    out = []
    for noise_eps, seed in cells:
        psi, gvals = clean.psi.copy(), clean.g.copy()
        if noise_eps > 0:
            rng = np.random.default_rng(seed)
            for arr in (psi, gvals):
                pert = rng.standard_normal(arr.size)
                norm = float(np.sqrt(np.sum(w * pert**2)))
                arr += pert * (noise_eps / norm)
        out.append(CauchyData(psi=psi, g=gvals, eps=noise_eps,
                              curve=clean.curve))
    return out
