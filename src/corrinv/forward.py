"""P1 finite element solver for the nonlinear corrosion boundary value problem.

The potential is harmonic in the domain, grounded on gammaD, driven by a
prescribed current flux on gamma2 and coupled to the corrosion law through
the flux condition on gamma1.  Each mesh has one stiffness object,
``Stiffness``: on the rectangle grid the stiffness matrix is the Kronecker
sum of two 1-D axis operators, which give both its 5-point stencil and the
exact tensor-product solve of the grounded problem.  The flux and the law
act on gamma2 and gamma1 alone, so one capacitance matrix of the two
chains solves every load there that is read only there, the damped Newton
iteration runs on the free gamma1 nodes through its gamma1 block, and the
field is built once, from the last iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from corrinv.continuation import CauchyData, FieldError
from corrinv.geometry import (
    BoundaryTag,
    Mesh,
    quadrature_weights,
    trace_sample,
)

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
    """Corrosion law f with f(0) = 0 and a finite Lipschitz constant: a
    subclass gives ``f(u)`` as ``__call__`` and ``f'(u)`` as ``derivative``."""


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


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual: float
    energy: float
    stop: str  # the rule the residual meets: "tolerance" or "rounding_floor"
    residual_history: tuple = field(default_factory=tuple)
    # per Newton step, the condition number ||(I - C S)^-1||_1 (1 + a),
    # a = ||C S||_1, or its bound (1 + a) / (1 - a) for a < 1 (see
    # solve_trace)
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


def _axis_modes(length: float, keep: np.ndarray):
    """Generalized eigenpairs A v = lam W v of the axis operators of the
    uniform grid of the given length and keep.size nodes, restricted to
    the kept indices; the eigenvectors satisfy V^T W V = I.  The kept
    indices are all but the grounded ends, or none, so the eigenvectors
    are the sine and cosine modes of the second difference with Dirichlet
    or Neumann ends, v_k(j) = sin or cos(theta_k j), with
    lam_k = (4/h^2) sin^2(theta_k/2) (Strang, SIAM Rev. 41, 1999)."""
    N = keep.size - 1
    h = length / N
    j = np.flatnonzero(keep)
    if j.size == 0:  # the grounded sides cover every node
        return np.zeros(0), np.zeros((0, 0))
    lo, hi = not keep[0], not keep[-1]  # the grounded ends
    if lo == hi:  # k pi / N: sines for 0 < k < N, cosines for 0 <= k <= N
        theta = (np.pi / N) * np.arange(int(lo), N + 1 - int(hi))
    else:  # (k + 1/2) pi / N, 0 <= k < N: sines if the first end is grounded
        theta = (np.pi / N) * (np.arange(N) + 0.5)
    V = np.sin(np.outer(j, theta)) if lo else np.cos(np.outer(j, theta))
    scale = np.full(theta.size, np.sqrt(2.0 / (N * h)))
    if not (lo or hi):  # the constant and the alternating mode
        scale[[0, -1]] = np.sqrt(1.0 / (N * h))
    return (4.0 / h**2) * np.sin(0.5 * theta) ** 2, V * scale


class Stiffness:
    """The P1 stiffness operator K of the Laplacian on the grid of a mesh
    laid out by ``build_rectangle_mesh``, with the exact solve of its
    problem grounded on gammaD.

    The P1 coupling across a right triangle's hypotenuse is zero, so K is
    the 5-point stencil, the Kronecker sum W_y (x) A_x + A_y (x) W_x of
    the 1-D axis stiffness A and lumped mass W.  Each side of the rectangle
    carries one tag, so gammaD takes whole sides and the block K_ff on the
    free nodes keeps that form on the kept indices of each axis, and the
    eigenpairs of both axes, in closed form, give
    K_ff^-1 B = V_y ((V_y^T B V_x) / (lam_y + lam_x)) V_x^T
    (Lynch, Rice and Thomas, Numer. Math. 6, 1964).  Each axis's cell
    widths, mass and eigenpairs are computed once (once for two equal
    axes), and ``boundary_block`` by the first solve that reads it.
    """

    def __init__(self, mesh: Mesh):
        gx, gy = mesh.gx, mesh.gy
        self._h_x, self._h_y = np.diff(gx), np.diff(gy)
        self._w_x = _axis_mass(self._h_x)
        self._w_y = _axis_mass(self._h_y)[:, None]
        self._shape = (gy.size, gx.size)
        self._free = np.zeros(gy.size * gx.size, dtype=bool)
        self._free[mesh.free_nodes] = True
        # the gamma1 and gamma2 chains, for the boundary block
        self._chains = {tag: mesh.tag_polyline(tag)[0]
                        for tag in (BoundaryTag.GAMMA1, BoundaryTag.GAMMA2)}
        free = self._free.reshape(self._shape)
        keep_y, keep_x = free.any(axis=1), free.any(axis=0)
        # kept index of each grid row and column
        self._row, self._col = np.cumsum(keep_y) - 1, np.cumsum(keep_x) - 1
        len_y, len_x = gy[-1] - gy[0], gx[-1] - gx[0]
        lam_y, self._vy = _axis_modes(len_y, keep_y)
        # equal lengths and kept indices, as on the default square, give
        # the same eigenpairs
        same = len_x == len_y and np.array_equal(keep_x, keep_y)
        lam_x, self._vx = ((lam_y, self._vy) if same
                           else _axis_modes(len_x, keep_x))
        self._inv = 1.0 / (lam_y[:, None] + lam_x[None, :])

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """K u for the nodal values u, no boundary conditions applied."""
        U = np.reshape(u, self._shape)
        return (self._w_y * _axis_stiffness(self._h_x, U)
                + _axis_stiffness(self._h_y, U.T).T * self._w_x).ravel()

    def apply_at(self, u: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """K u at the given nodes alone, equal to ``self(u)[nodes]`` bit for
        bit: the same terms of the stencil, in the same order."""
        U = np.reshape(u, self._shape)
        j, i = np.divmod(nodes, self._shape[1])

        def axis_term(h, k, along):
            """``_axis_stiffness`` at index k of an axis of cell widths h,
            -(d(k) - d(k - 1)) for the differences d(c) of cell c, 0 off
            the axis as np.diff's prepend and append give; along(c) reads
            U at index c of the axis."""
            def d(c):
                inside = (c >= 0) & (c < h.size)
                c = np.clip(c, 0, h.size - 1)
                return np.where(inside, (along(c + 1) - along(c)) / h[c], 0.0)
            return -(d(k) - d(k - 1))

        ax = axis_term(self._h_x, i, lambda c: U[j, c])
        ay = axis_term(self._h_y, j, lambda c: U[c, i])
        return self._w_y[j, 0] * ax + ay * self._w_x[i]

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
        free vector.  The nodes are one boundary chain or joined ones: cut
        where they turn or jump past a grid neighbour, each run lies on one
        grid row or column, where the eigenvectors give each block of S in
        closed form at O(n^3), instead of one solve per node (Buzbee, Dorr,
        George and Golub, SIAM J. Numer. Anal. 8, 1971).  S is symmetric,
        so of two mirror blocks only one is built."""
        j, i = np.divmod(nodes, self._shape[1])
        Y, X = self._vy[self._row[j]], self._vx[self._col[i]]
        dj, di = np.diff(j), np.diff(i)
        turn = np.r_[False, (dj[1:] == 0) != (dj[:-1] == 0)]
        cuts = np.flatnonzero(turn | (np.abs(dj) + np.abs(di) != 1)) + 1
        runs = [slice(a, b) for a, b in zip(np.r_[0, cuts],
                                            np.r_[cuts, nodes.size]) if a < b]
        S = np.zeros((nodes.size, nodes.size))
        for k, r in enumerate(runs):
            # along r the modes P vary and F stays at the row (or column)
            # of r's line
            if np.all(j[r] == j[r.start]):  # r lies on one grid row
                P, F, inv, line = X, Y, self._inv, j
            else:  # r lies on one grid column
                P, F, inv, line = Y, X, self._inv.T, i
            for c in runs[k:]:
                # c on r's line takes that line's one row of F, broadcast
                on_line = np.all(line[c] == line[r.start])
                f = F[r.start] * (F[r.start] if on_line else F[c])
                S[r, c] = P[r] @ ((f @ inv) * P[c]).T
                if c != r:  # S is symmetric: the mirror block transposed
                    S[c, r] = S[r, c].T
        return S

    @cached_property
    def boundary_block(self):
        """(nodes, on, S), read-only: the free gamma1 chain followed by the
        free gamma2 nodes off it, the slice of the gamma1 chain that the
        first m = on.stop - on.start nodes take, and their capacitance
        matrix.  Raises FieldError naming ``mesh.n`` when gamma1 or gamma2
        has no node off gammaD, so a solve could not see the law or the
        flux; nothing is kept then, so every call raises again."""
        chain1, chain2 = self._chains.values()
        g1, g2 = chain1[self._free[chain1]], chain2[self._free[chain2]]
        for tag, free in zip(self._chains, (g1, g2)):
            if free.size == 0:
                raise FieldError("mesh.n", f"{tag.value} has no node off "
                                           "gammaD on this mesh; refine it")
        nodes = np.concatenate([g1, g2[~np.isin(g2, g1)]])
        S = self.capacitance(nodes)
        nodes.flags.writeable = S.flags.writeable = False
        # gammaD holds at most the ends of the gamma1 chain, so its free
        # nodes take one slice of it
        first = int(not self._free[chain1[0]])
        return nodes, slice(first, first + g1.size), S


def assemble_stiffness(mesh: Mesh) -> Stiffness:
    """The stiffness object of the mesh's grid; ``mesh.stiffness`` keeps
    the one built for each mesh."""
    return Stiffness(mesh)


def _edge_load(size: int, pairs, lengths, gauss_values) -> np.ndarray:
    """Sums at ``size`` nodes of w * le * value * phi over edges, edge k
    joining nodes ``pairs[k]``, and Gauss points, ``gauss_values[q]``
    holding point q's values, or one row of them per load: then one load
    per row, all in one ``np.bincount`` with each row's nodes offset by
    ``size``.  The terms are added in edge -> Gauss point -> node order,
    the order of a per-edge loop, so the sums do not depend on the
    vectorization or on the other rows."""
    rows = np.shape(gauss_values[0])[:-1]  # () or (loads,)
    contrib = np.empty((*rows, lengths.size, _GAUSS_S.size, 2))
    for q, (s, w) in enumerate(zip(_GAUSS_S, _GAUSS_W)):
        wg = w * lengths * gauss_values[q]
        contrib[..., q, 0] = wg * (1.0 - s)
        contrib[..., q, 1] = wg * s
    nodes = np.repeat(pairs[:, None, :], _GAUSS_S.size, axis=1)
    if rows:
        nodes = nodes + size * np.arange(rows[0])[:, None, None, None]
    return np.bincount(nodes.ravel(), weights=contrib.ravel(),
                       minlength=size * (rows[0] if rows else 1)
                       ).reshape(*rows, size)


def assemble_boundary_load(mesh: Mesh, tag: BoundaryTag, density,
                           nodes=None) -> np.ndarray:
    """Load vector of the density tested against P1 boundary basis functions,
    integrated edge-wise with 2-point Gauss quadrature.  The density is a
    function of the tag-local arc length; one that returns a row of values
    per load gives one load per row, each summed as if alone.  With
    ``nodes``, the loads at those nodes alone, in their order."""
    edges = mesh.tag_edges(tag)
    t0, t1 = edges.t[:, 0], edges.t[:, 1]
    pairs, size = edges.nodes, mesh.nodes.shape[0]
    if nodes is not None:
        # each node's place in nodes; every other node sums into one more
        # place, dropped
        place = np.full(size, nodes.size)
        place[nodes] = np.arange(nodes.size)
        pairs, size = place[pairs], nodes.size + 1
    load = _edge_load(size, pairs, edges.lengths,
                      [density(t0 + s * (t1 - t0)) for s in _GAUSS_S])
    return load if nodes is None else load[..., :-1]


def _gamma1_edges(mesh: Mesh, v: np.ndarray):
    """(pairs, lengths, values) of the gamma1 edges, edge k joining nodes k
    and k + 1 of its chain, values[q] linear in the chain values v."""
    k = np.arange(v.size - 1)
    return (np.column_stack([k, k + 1]),
            mesh.tag_edges(BoundaryTag.GAMMA1).lengths,
            [v[:-1] * (1.0 - s) + v[1:] * s for s in _GAUSS_S])


def _gamma1_load(mesh: Mesh, v: np.ndarray, model: NonlinearityModel) -> np.ndarray:
    """Boundary load of f(u_h) on gamma1 at the nodes of its chain, for the
    values v there and u_h linear along each edge."""
    pairs, lengths, values = _gamma1_edges(mesh, v)
    return _edge_load(v.size, pairs, lengths, [model(ug) for ug in values])


def _gamma1_jacobian(mesh: Mesh, v: np.ndarray, model: NonlinearityModel) -> np.ndarray:
    """Derivative of ``_gamma1_load`` in the chain values v, dense: the
    boundary mass weighted by f'(u_h) at the Gauss points, each entry
    summed in the edge -> Gauss point order of a per-edge loop."""
    pairs, lengths, values = _gamma1_edges(mesh, v)
    vals = np.empty((lengths.size, _GAUSS_S.size, 2, 2))
    for q, (s, w, ug) in enumerate(zip(_GAUSS_S, _GAUSS_W, values)):
        wf = w * lengths * model.derivative(ug)
        phi = np.array([1.0 - s, s])
        vals[:, q] = wf[:, None, None] * phi[:, None] * phi  # (wf phi_a) phi_b
    pairs = np.broadcast_to(pairs[:, None, :, None], vals.shape)
    rows, cols = pairs.ravel(), np.swapaxes(pairs, 2, 3).ravel()
    return np.bincount(rows * v.size + cols, weights=vals.ravel(),
                       minlength=v.size ** 2).reshape(v.size, v.size)


@dataclass(frozen=True)
class TraceSolution:
    """The last Newton iterate K_ff^-1 (scale b_g + E load), its trace at
    the gamma1 chain nodes, and the Newton record as in ``SolveReport``."""

    scale: float
    load: np.ndarray
    trace: np.ndarray
    residual_history: tuple
    step_condition: tuple


def solve_trace(mesh: Mesh, b_g: np.ndarray, f: NonlinearityModel,
                tol: float = 1e-12, max_iter: int = 50,
                start=None) -> TraceSolution:
    """Damped Newton for the gamma2 load b_g on the m free gamma1 nodes
    that E picks out, with S = E^T K_ff^-1 E and z_1 = E^T K_ff^-1 b_g read
    off ``Stiffness.boundary_block``, no grid solve, N the gamma1 load of
    the law and C the f'(u)-weighted boundary mass.
    Each iterate of Newton on the whole grid from the field
    u = K_ff^-1 (s b_g + E y) keeps that form, so Newton runs on (s, y),
    start or (0, 0): u has the trace v = s z_1 + S y there and the free
    residual (s - 1) b_g + E (y - N(v)), and a step solves
    (I - C S) e = N(v) - y + (1 - s) C z_1 and moves s to 1 and y by e, or
    part of the way.  It stops at a residual norm of at most tol, or when
    no damped step lowers one of at most tol * max(1, |(K u)_free|), the
    rounding floor of K u.  A step is singular when its condition number
    ||(I - C S)^-1||_1 (1 + a), a = ||C S||_1, taken against the terms
    that cancel in I - C S, exceeds eps^-1/2, as near a resonance of the
    law.  For a < 1 the Neumann series bounds it by (1 + a) / (1 - a); a
    bound within the limit is recorded in its place and the step is one
    solve, else the inverse gives the exact value.
    Raises ForwardSolveError for a singular step, a residual that is not
    finite (a flux so large that it overflows) or tol not met in max_iter
    iterations, and FieldError naming ``mesh.n`` when gamma1 or gamma2 has
    no node off gammaD."""
    nodes, on, S = mesh.stiffness.boundary_block
    g1 = nodes[:on.stop - on.start]
    z1, b1, S = S[:g1.size] @ b_g[nodes], b_g[g1], S[:g1.size, :g1.size]
    chain, _ = mesh.tag_polyline(BoundaryTag.GAMMA1)
    with np.errstate(over="ignore"):
        b_off = np.linalg.norm(b_g[nodes[g1.size:]])  # |b_g| off gamma1

    def state(s, y):
        """v at the chain nodes, y - N(v) and the free residual norm."""
        v = np.zeros(chain.size)
        with np.errstate(over="ignore", invalid="ignore"):
            v[on] = s * z1 + S @ y
            r = y - _gamma1_load(mesh, v, f)[on]
            res = float(np.hypot((s - 1.0) * b_off,
                                 np.linalg.norm((s - 1.0) * b1 + r)))
        if not np.isfinite(res):
            raise ForwardSolveError(f"Newton residual norm is not finite "
                                    f"({res})", residual_history=history)
        return v, r, res

    history, conditions = [], []
    s, y = (0.0, np.zeros(g1.size)) if start is None else start
    v, r, res = state(s, y)
    for it in range(1, max_iter + 1):
        history.append(res)
        if res <= tol:
            break
        # C couples chain neighbours only: C S from its three diagonals
        C = _gamma1_jacobian(mesh, v, f)[on, on]
        CS = np.diagonal(C)[:, None] * S
        CS[1:] += np.diagonal(C, -1)[:, None] * S[:-1]
        CS[:-1] += np.diagonal(C, 1)[:, None] * S[1:]
        rhs = (1.0 - s) * (C @ z1) - r
        a = np.linalg.norm(CS, 1)
        # the Neumann series bounds ||(I - C S)^-1||_1 by 1 / (1 - a)
        cond = (1.0 + a) / (1.0 - a) if a < 1.0 else np.inf
        try:
            if cond <= _STEP_CONDITION_LIMIT:
                e = np.linalg.solve(np.eye(g1.size) - CS, rhs)
            else:
                Minv = np.linalg.inv(np.eye(g1.size) - CS)
                cond = np.linalg.norm(Minv, 1) * (1.0 + a)
                e = Minv @ rhs
        except np.linalg.LinAlgError:
            cond = np.inf
        conditions.append(float(cond))
        if not cond <= _STEP_CONDITION_LIMIT:
            raise ForwardSolveError(
                f"singular Newton step at iteration {it}: condition number "
                f"{cond:.3e}", residual_history=history)
        step = 1.0
        for _ in range(31):
            s_try, y_try = 1.0 - (1.0 - step) * (1.0 - s), y + step * e
            v_try, r_try, res_try = state(s_try, y_try)
            if res_try < res:
                break
            step *= 0.5
        else:
            if res <= tol * max(1.0, float(np.hypot(
                    s * b_off, np.linalg.norm(s * b1 + y)))):
                break
            raise ForwardSolveError(
                f"Newton did not converge: stalled at iteration {it} with "
                f"residual {res:.3e}", residual_history=history)
        s, y, v, r, res = s_try, y_try, v_try, r_try, res_try
    else:
        raise ForwardSolveError(
            f"Newton did not converge in {max_iter} iterations "
            f"(residual {res:.3e})", residual_history=history)
    return TraceSolution(s, y, v, tuple(history), tuple(conditions))


def solve_forward(mesh: Mesh, g: FluxProfile, f: NonlinearityModel,
                  tol: float = 1e-12, max_iter: int = 50):
    """Newton on the free gamma1 nodes (``solve_trace``) from the zero
    field, then the field of its last iterate, built by the one grid solve.
    residual_history holds the free residual of each iterate's field,
    taken on the gamma1 nodes; residual is that of the returned field,
    K u - b_g - N(u) by the stencil, and energy is u . K u.  A field
    whose residual rounds above tol takes one more Newton step on the
    grid, J_ff d = F solved as in ``solve_trace``, with two more grid
    solves; stop is "tolerance" when the residual is then at most tol,
    else "rounding_floor".

    Returns (u, SolveReport), u the nodal values; raises ForwardSolveError
    and FieldError as ``solve_trace`` does, and ForwardSolveError also
    when the field stays above the rounding floor of ``solve_trace``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    K = mesh.stiffness
    nodes, on, S = K.boundary_block
    g1 = nodes[:on.stop - on.start]
    S = S[:g1.size, :g1.size]
    b_g = assemble_boundary_load(mesh, BoundaryTag.GAMMA2, g)
    trace = solve_trace(mesh, b_g, f, tol, max_iter)
    rhs = trace.scale * b_g
    rhs[g1] += trace.load
    u = K.solve(rhs)
    chain, _ = mesh.tag_polyline(BoundaryTag.GAMMA1)
    free = mesh.free_nodes
    for refined in (False, True):
        Ku = K(u)
        F = Ku - b_g
        F[chain] -= _gamma1_load(mesh, u[chain], f)
        with np.errstate(over="ignore", invalid="ignore"):
            res = float(np.linalg.norm(F[free]))
            floor = tol * max(1.0, float(np.linalg.norm(Ku[free])))
        if res <= (floor if refined else tol):
            break
        if refined:
            raise ForwardSolveError(
                f"the field of the last Newton iterate has residual "
                f"{res:.3e}, above its rounding floor {floor:.3e}",
                residual_history=list(trace.residual_history))
        # J_ff^-1 F = K_ff^-1 (F + E e), (I - C S) e = C E^T K_ff^-1 F
        C = _gamma1_jacobian(mesh, u[chain], f)[on, on]
        F[g1] += np.linalg.solve(np.eye(g1.size) - C @ S, C @ K.solve(F)[g1])
        u = u - K.solve(F)
    report = SolveReport(
        iterations=len(trace.residual_history), residual=res,
        energy=float(u @ Ku), stop="tolerance" if res <= tol
        else "rounding_floor", residual_history=trace.residual_history,
        step_condition=trace.step_condition)
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
    r = mesh.stiffness.apply_at(u, node_ids)
    lam = np.empty(node_ids.size)
    cuts = np.concatenate([[0], np.flatnonzero(np.diff(edges.sides)) + 1,
                           [edges.sides.size]])
    for a, b in zip(cuts[:-1], cuts[1:]):
        # the side's edges are a..b-1 and its nodes a..b
        k = b - a
        le = edges.lengths[a:b]
        M = (np.diag(np.convolve(le / 3.0, [1.0, 1.0]))
             + np.diag(le / 6.0, 1) + np.diag(le / 6.0, -1))
        r_side = r[a:b + 1]
        if k >= 3:
            # unknowns lam_1..lam_{k-1}; lam_0, lam_k by extrapolation T,
            # and M[1:k, :] @ T is tridiagonal: M[1:k, 1:k] plus the
            # extrapolated end columns in its first and last rows
            T = np.eye(k + 1, k - 1, -1)
            T[0, [0, 1]] = T[k, [k - 2, k - 3]] = 2.0, -1.0
            A = M[1:k, 1:k]
            A[0, :2] += 2.0 * M[1, 0], -M[1, 0]
            A[-1, [-1, -2]] += 2.0 * M[k - 1, k], -M[k - 1, k]
            lam_side = T @ np.linalg.solve(A, r_side[1:k])
        else:
            lam_side = np.linalg.solve(M, r_side)
        if a > 0:
            lam_side[0] = 0.5 * (lam[a] + lam_side[0])
        lam[a:b + 1] = lam_side
    return lam


def boundary_profile(u: np.ndarray, mesh: Mesh, tag: BoundaryTag):
    """(t, v, w): the arc length, trace and recovered flux of a solved
    field at the nodes of ``mesh.tag_polyline(tag)``."""
    node_ids, ts = mesh.tag_polyline(tag)
    return ts, u[node_ids], neumann_trace(u, mesh, tag)


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
    curve are computed once, and each seed's two draws and their norms
    once, for every level it takes."""
    if any(noise_eps < 0 for noise_eps, _ in cells):
        raise ValueError("noise level must be nonnegative")
    w = quadrature_weights(clean.curve.t)
    draws = {}  # seed -> its (draw, weighted norm) of the trace and flux
    out = []
    for noise_eps, seed in cells:
        psi, gvals = clean.psi.copy(), clean.g.copy()
        if noise_eps > 0:
            if seed not in draws:
                rng = np.random.default_rng(seed)
                perts = [rng.standard_normal(arr.size) for arr in (psi, gvals)]
                draws[seed] = [(pert, float(np.sqrt(np.sum(w * pert**2))))
                               for pert in perts]
            for arr, (pert, norm) in zip((psi, gvals), draws[seed]):
                arr += pert * (noise_eps / norm)
        out.append(CauchyData(psi=psi, g=gvals, eps=noise_eps,
                              curve=clean.curve))
    return out
