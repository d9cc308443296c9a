import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.sparse as sp
import scipy.sparse.linalg as spla

from corrinv import forward
from corrinv.config import parse_config
from corrinv.continuation import FieldError
from corrinv.forward import (
    ExponentialLaw,
    FluxProfile,
    ForwardSolveError,
    LinearLaw,
    SolveReport,
    Stiffness,
    TabulatedLaw,
    _GAUSS_S,
    _GAUSS_W,
    _axis_mass,
    _axis_modes,
    _axis_stiffness,
    _gamma1_jacobian,
    _gamma1_load,
    assemble_boundary_load,
    assemble_stiffness,
    boundary_profile,
    extract_cauchy_data,
    neumann_trace,
    perturb_cauchy_data,
    solve_forward,
    solve_trace,
)
from corrinv.geometry import (
    BoundaryCurve,
    BoundaryTag,
    DomainSpec,
    build_rectangle_mesh,
    quadrature_weights,
)

from conftest import CHAIN_LAYOUTS, l2_error_on_mesh, rectangle, triangles

D, G1, G2 = BoundaryTag.GAMMAD, BoundaryTag.GAMMA1, BoundaryTag.GAMMA2


def finite_diff(f, u, h=1e-6):
    return (f(u + h) - f(u - h)) / (2 * h)


class TestLaws:
    def test_exponential_form(self):
        # lam * (exp(a u) - exp(-(1-a) u)) inside the truncation window
        law = ExponentialLaw(lam=0.3, a=0.25, u_max=4.0)
        for u in (-2.0, -0.1, 0.0, 0.5, 3.0):
            expected = 0.3 * (np.exp(0.25 * u) - np.exp(-0.75 * u))
            assert law(u) == pytest.approx(expected, rel=1e-14)
        assert law(0.0) == 0.0

    def test_exponential_lipschitz_constant(self):
        lam, a, umax = 0.2, 0.4, 3.0
        law = ExponentialLaw(lam=lam, a=a, u_max=umax)
        lipschitz = lam * (a * np.exp(a * umax)
                           + (1 - a) * np.exp((1 - a) * umax))
        # the derivative never exceeds it
        u = np.linspace(-10, 10, 2001)
        assert np.max(law.derivative(u)) <= lipschitz + 1e-12

    def test_exponential_linear_extension(self):
        law = ExponentialLaw(lam=0.1, a=0.5, u_max=2.0)
        # constant slope beyond the window
        assert law.derivative(3.0) == pytest.approx(law.derivative(5.0))
        assert law(3.0) - law(2.5) == pytest.approx(
            0.5 * law.derivative(4.0), rel=1e-12)

    def test_transfer_coefficient_domain(self):
        for a in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                ExponentialLaw(lam=0.1, a=a)

    @given(u=st.floats(-8.0, 8.0).filter(lambda x: abs(x) > 1e-6),
           a=st.floats(0.05, 0.95), lam=st.floats(0.01, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_exponential_monotone_odd_signs(self, u, a, lam):
        law = ExponentialLaw(lam=lam, a=a)
        assert np.sign(law(u)) == np.sign(u)
        assert law.derivative(u) > 0

    def test_derivatives_match_finite_differences(self):
        laws = [ExponentialLaw(0.3, 0.35), LinearLaw(2.5),
                TabulatedLaw([-1.0, 0.0, 1.0, 2.0], [-2.0, 0.0, 0.5, 3.0])]
        for law in laws:
            for u in (-0.7, 0.3, 1.4):
                assert law.derivative(u) == pytest.approx(
                    finite_diff(law, u), rel=1e-6, abs=1e-8)

    def test_tabulated_requires_zero_knot(self):
        with pytest.raises(ValueError):
            TabulatedLaw([1.0, 2.0], [1.0, 2.0])


class TestFluxProfile:
    def test_kinds(self):
        t = np.linspace(0, 1, 5)
        np.testing.assert_allclose(FluxProfile.constant(2.0)(t), 2.0)
        np.testing.assert_allclose(
            FluxProfile.polynomial([1.0, 0.0, 3.0])(t), 1.0 + 3.0 * t**2)
        tab = FluxProfile.tabulated([0.0, 1.0], [0.0, 2.0])
        np.testing.assert_allclose(tab(t), 2.0 * t)


class TestManufacturedSolution:
    """u = xy solves the problem with f(u) = u on top, g = y on the right,
    grounded bottom and left."""

    def exact(self, x, y):
        return x * y

    def solve(self, square, n):
        mesh = build_rectangle_mesh(square, n)
        u, report = solve_forward(mesh, FluxProfile.polynomial([0.0, 1.0]),
                                  LinearLaw(1.0))
        return mesh, u, report

    def test_nodal_accuracy(self, square):
        mesh, u, report = self.solve(square, 32)
        exact = mesh.nodes[:, 0] * mesh.nodes[:, 1]
        assert np.max(np.abs(u - exact)) < 5e-3
        assert report.residual <= 1e-12  # the solve's default tolerance

    def test_l2_convergence_order_two(self, square):
        errs = []
        for n in (8, 16, 32):
            mesh, u, _ = self.solve(square, n)
            errs.append(l2_error_on_mesh(mesh, u, self.exact))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 1.8)

    def test_energy_value(self, square):
        # Dirichlet energy of xy over the unit square is 2/3
        mesh, u, report = self.solve(square, 32)
        assert report.energy == pytest.approx(2.0 / 3.0, abs=2e-3)

    def test_dirichlet_nodes_exact(self, square):
        mesh, u, _ = self.solve(square, 16)
        for i in np.unique(mesh.tag_edges(D).nodes):
            assert u[i] == 0.0


class TestSolveForward:
    def test_zero_flux_gives_zero_field(self, square, exponential_law):
        mesh = build_rectangle_mesh(square, 8)
        u, report = solve_forward(mesh, FluxProfile.constant(0.0),
                                  exponential_law)
        np.testing.assert_allclose(u, 0.0, atol=1e-14)
        assert report.iterations == 1

    # the ramp flux g = y of the ramp_flux fixture
    SCENARIOS = [
        (FluxProfile.polynomial([0.0, 1.0]), ExponentialLaw(0.1, 0.5)),
        (FluxProfile.polynomial([0.0, 1.0]), ExponentialLaw(0.3, 0.25)),
        (FluxProfile.polynomial([0.0, 1.0]), LinearLaw(1.0)),
        (FluxProfile.constant(0.5), ExponentialLaw(0.2, 0.7)),
        (FluxProfile.polynomial([0.2, 0.0, 0.5]),
         TabulatedLaw([-1.0, 0.0, 1.0], [-0.5, 0.0, 0.8])),
    ]

    def test_newton_matches_picard(self, square):
        # oracle: fixed-point iteration, independent of the Jacobian
        mesh = build_rectangle_mesh(square, 16)
        for flux, law in self.SCENARIOS:
            un, _ = solve_forward(mesh, flux, law)
            up, _ = solve_forward_picard(mesh, flux, law)
            assert np.max(np.abs(un - up)) < 1e-8

    def test_newton_matches_direct_newton(self, square):
        mesh = build_rectangle_mesh(square, 16)
        for flux, law in self.SCENARIOS:
            u, report = solve_forward(mesh, flux, law)
            ref, ref_iterations = direct_newton(mesh, flux, law)
            assert np.max(np.abs(u - ref)) < 1e-10
            assert report.iterations <= ref_iterations + 1

    @pytest.mark.parametrize("flux, law", [
        # the Jacobian is far from K_ff from the first step on
        (FluxProfile.polynomial([0.0, 100.0]), ExponentialLaw(1e3, 0.5, 50.0)),
        # many damped steps before the quadratic phase
        (FluxProfile.polynomial([0.0, 5.0]), ExponentialLaw(1.0, 0.5, 20.0)),
    ])
    def test_hard_laws_match_direct_newton(self, square, flux, law):
        mesh = build_rectangle_mesh(square, 16)
        u, report = solve_forward(mesh, flux, law)
        ref, _ = direct_newton(mesh, flux, law)
        assert np.max(np.abs(u - ref)) < 1e-10
        assert report.residual <= 1e-12

    def test_residual_tolerance_everywhere(self, square, ramp_flux):
        for n in (8, 24):
            mesh = build_rectangle_mesh(square, n)
            _, report = solve_forward(mesh, ramp_flux,
                                      ExponentialLaw(0.5, 0.5))
            assert report.residual <= 1e-10

    def test_singular_newton_step_raises(self, square, ramp_flux,
                                         identity_law, monkeypatch):
        # C = I and S = I make I - C S exactly zero
        monkeypatch.setattr(forward, "_gamma1_jacobian",
                            lambda mesh, v, f: np.eye(v.size))
        monkeypatch.setattr(Stiffness, "capacitance",
                            lambda self, nodes: np.eye(nodes.size))
        mesh = build_rectangle_mesh(square, 8)
        with pytest.raises(ForwardSolveError, match="singular Newton step"):
            solve_forward(mesh, ramp_flux, identity_law)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_resonant_linear_law_raises(self, square, ramp_flux, n):
        # f(u) = u / mu with mu the largest eigenvalue of M S, M the gamma1
        # boundary mass and S the capacitance matrix: I - C S is singular
        # up to rounding.  At n = 1 it is 1 x 1, so its own condition
        # number is 1; the step's terms cancel instead.
        mesh = build_rectangle_mesh(square, n)
        slope = resonant_slope(mesh)
        with pytest.raises(ForwardSolveError,
                           match="singular Newton step at iteration 1"):
            solve_forward(mesh, ramp_flux, LinearLaw(slope))
        # 0.1% off resonance the problem is well posed, and its steps are
        # far inside the limit
        u, report = solve_forward(mesh, ramp_flux, LinearLaw(0.999 * slope))
        assert report.stop == "tolerance"
        assert len(report.step_condition) == report.iterations - 1
        assert all(1.0 <= c <= 1e4 for c in report.step_condition)
        assert np.max(np.abs(u)) < 1e3

    def test_stops_at_the_rounding_floor(self):
        # near resonance |u| is about 220: Newton meets the tolerance on
        # the gamma1 nodes, and rounding in the grid solves that build the
        # field holds its residual above it
        spec = DomainSpec(vertices=[(0, 0), (2, 0), (2, 1), (0, 1)],
                          side_tags=(G2, G2, G1, D))
        mesh = build_rectangle_mesh(spec, 32)
        u, report = solve_forward(mesh, FluxProfile.polynomial([0.0, 1.0]),
                                  LinearLaw(0.5))
        Ku = np.linalg.norm(mesh.stiffness(u)[mesh.free_nodes])
        assert 1e-12 < report.residual <= 1e-12 * Ku
        assert report.stop == "rounding_floor"
        assert np.max(np.abs(u)) > 200.0
        # no step follows the last iterate
        assert len(report.step_condition) == report.iterations - 1
        assert 10.0 < max(report.step_condition) < 1e4

    def test_divergence_raises(self, square):
        # supercritical exponential growth: no solution to converge to
        mesh = build_rectangle_mesh(square, 8)
        with pytest.raises(ForwardSolveError):
            solve_forward(mesh, FluxProfile.constant(50.0),
                          ExponentialLaw(lam=50.0, a=0.5, u_max=50.0),
                          max_iter=12)

    def test_boundary_block_is_kept_read_only(self, square, ramp_flux,
                                              exponential_law):
        # the block built by the first solve serves the next one, which
        # then equals a solve on a fresh mesh bit for bit
        mesh = build_rectangle_mesh(square, 16)
        u, report = solve_forward(mesh, ramp_flux, exponential_law)
        nodes, on, S = mesh.stiffness.boundary_block
        assert mesh.stiffness.boundary_block[2] is S
        assert np.array_equal(S, mesh.stiffness.capacitance(nodes))
        assert not nodes.flags.writeable and not S.flags.writeable
        again, report_again = solve_forward(mesh, ramp_flux, exponential_law)
        assert np.array_equal(again, u) and report_again == report

    # gammaD takes neither, one or both ends of the gamma1 chain
    @pytest.mark.parametrize("layout", CHAIN_LAYOUTS
                             + ("gammaD gamma2 gammaD gamma1",))
    def test_boundary_block_slice_is_the_free_gamma1_chain(self, layout):
        mesh = build_rectangle_mesh(rectangle(2.0, layout), 8)
        nodes, on, _ = mesh.stiffness.boundary_block
        m = on.stop - on.start
        chain, _ = mesh.tag_polyline(G1)
        assert np.array_equal(chain[on], nodes[:m])
        assert np.array_equal(nodes[:m], free_gamma1(mesh))
        # then the free gamma2 nodes off gamma1, in chain order
        chain2, _ = mesh.tag_polyline(G2)
        assert np.array_equal(nodes[m:], chain2[
            ~np.isin(chain2, mesh.dirichlet_nodes) & ~np.isin(chain2, chain)])

    # the joined chains jump between nodes that are not grid neighbours;
    # with gamma2 on the bottom and gamma1 on the right, the jump changes
    # the row, as a column step does, and must still end gamma1's run
    @pytest.mark.parametrize("layout", CHAIN_LAYOUTS + (
        "gammaD gamma2 gammaD gamma1", "gamma2 gamma1 gammaD gammaD",
        "gammaD gamma1 gammaD gamma2"))
    @pytest.mark.parametrize("width", [1.0, 2.0], ids=["square", "2x1"])
    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_boundary_block_matches_grid_solves(self, layout, width, n):
        # the oracle: a grid solve of a load on the two chains, read there
        mesh = build_rectangle_mesh(rectangle(width, layout), n)
        nodes, _, S = mesh.stiffness.boundary_block
        chains = np.concatenate([mesh.tag_polyline(G1)[0],
                                 mesh.tag_polyline(G2)[0]])
        b = np.zeros(mesh.nodes.shape[0])
        b[chains] = np.random.default_rng(n).normal(size=chains.size)
        want = mesh.stiffness.solve(b)[nodes]
        gap = np.max(np.abs(S @ b[nodes] - want)) / np.max(np.abs(want))
        assert gap <= 1e-12

    def test_no_free_gamma1_node_raises_on_every_call(self, identity_law):
        spec = DomainSpec(vertices=[(0, 0), (0.2, 0), (0.2, 1), (0, 1)],
                          side_tags=(G2, D, G1, D), r0=0.02)
        mesh = build_rectangle_mesh(spec, 2)
        for _ in range(2):
            with pytest.raises(FieldError, match="gamma1 has no node off "
                                                 "gammaD") as info:
                solve_forward(mesh, FluxProfile.constant(1.0), identity_law)
            assert info.value.key == "mesh.n"

    def test_stiffness_kernel_is_constants(self, square):
        mesh = build_rectangle_mesh(square, 8)
        K = assemble_stiffness(mesh)
        ones = np.ones(mesh.nodes.shape[0])
        np.testing.assert_allclose(K(ones), 0.0, atol=1e-12)


class MatrixStiffness:
    """A stiffness operator that applies the reference matrix, in whole
    and at given nodes."""

    def __init__(self, mesh):
        self.matrix = reference_stiffness(mesh)

    def __call__(self, u):
        return self.matrix @ u

    def apply_at(self, u, nodes):
        return (self.matrix @ u)[nodes]


def reference_stiffness(mesh):
    """P1 stiffness matrix assembled triangle by triangle, with explicit
    zeros wherever two nodes share a triangle; the oracle of the Kronecker
    sum in ``assemble_stiffness``."""
    pts = mesh.nodes
    tris = triangles(mesh)
    p = pts[tris]  # (T, 3, 2)
    b = np.stack([p[:, 1, 1] - p[:, 2, 1],
                  p[:, 2, 1] - p[:, 0, 1],
                  p[:, 0, 1] - p[:, 1, 1]], axis=1)
    c = np.stack([p[:, 2, 0] - p[:, 1, 0],
                  p[:, 0, 0] - p[:, 2, 0],
                  p[:, 1, 0] - p[:, 0, 0]], axis=1)
    area = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    assert np.all(area > 0.0)
    local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    local /= (4.0 * area)[:, None, None]
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    n = pts.shape[0]
    return sp.csr_matrix((local.ravel(), (rows, cols)), shape=(n, n))


def direct_newton(mesh, g, f, tol=1e-12, max_iter=50):
    """Damped Newton with a fresh sparse solve of the Jacobian at every
    step, the reference for the capacitance-system steps of
    ``solve_forward``.  Assembles K triangle by triangle and the gamma1
    Jacobian edge by edge.  Returns (nodal values, iterations)."""
    free = mesh.free_nodes
    K = reference_stiffness(mesh)
    b_g = assemble_boundary_load(mesh, G2, g)

    def residual(u):
        return (K @ u) - b_g - nonlinear_load(mesh, u, f)

    u = np.zeros(mesh.nodes.shape[0])
    F = residual(u)
    res = float(np.linalg.norm(F[free]))
    for it in range(1, max_iter + 1):
        if res <= tol:
            return u, it
        J = K - loop_nonlinear_jacobian(mesh, u, f)
        d = spla.spsolve(J[free][:, free].tocsc(), -F[free])
        step = 1.0
        for _ in range(31):
            u_try = u.copy()
            u_try[free] += step * d
            F_try = residual(u_try)
            res_try = float(np.linalg.norm(F_try[free]))
            if res_try < res:
                break
            step *= 0.5
        else:
            raise AssertionError(f"reference Newton stalled at {it}")
        u, F, res = u_try, F_try, res_try
    raise AssertionError("reference Newton did not converge")


def solve_forward_picard(mesh, g, f, tol=1e-12, max_iter=2000):
    """Fixed-point iteration: each step solves the linear problem with the
    corrosion load frozen at the previous iterate, by a sparse direct solve
    of K_ff.  Slower than Newton but independent of the Jacobian and of
    the mesh's stiffness matrix and solver; the cross-check oracle of
    criterion 9."""
    free = mesh.free_nodes
    K = reference_stiffness(mesh)
    kff = K[free][:, free].tocsc()
    b_g = assemble_boundary_load(mesh, G2, g)
    u = np.zeros(mesh.nodes.shape[0])
    for it in range(1, max_iter + 1):
        rhs = b_g + nonlinear_load(mesh, u, f)
        u_new = np.zeros_like(u)
        u_new[free] = spla.spsolve(kff, rhs[free])
        F = (K @ u_new) - b_g - nonlinear_load(mesh, u_new, f)
        res = float(np.linalg.norm(F[free]))
        delta = float(np.max(np.abs(u_new - u)))
        u = u_new
        if res <= tol and delta <= tol:
            en = float(u @ (K @ u))
            return u, SolveReport(iterations=it, residual=res, energy=en,
                                       stop="tolerance")
    raise ForwardSolveError(f"Picard did not converge in {max_iter} "
                            "iterations")


def free_gamma1(mesh):
    """The gamma1 chain without its grounded end nodes, in chain order."""
    chain, _ = mesh.tag_polyline(G1)
    return chain[~np.isin(chain, mesh.dirichlet_nodes)]


def nonlinear_load(mesh, u, f):
    """The gamma1 load of the nodal field u as a nodal vector."""
    chain, _ = mesh.tag_polyline(G1)
    load = np.zeros(mesh.nodes.shape[0])
    load[chain] = _gamma1_load(mesh, u[chain], f)
    return load


def nonlinear_jacobian(mesh, u, f, nodes):
    """Block on the gamma1 nodes ``nodes``, in chain order, of the
    derivative of the gamma1 load of the nodal field u."""
    chain, _ = mesh.tag_polyline(G1)
    on = np.isin(chain, nodes)
    return _gamma1_jacobian(mesh, u[chain], f)[on][:, on]


def reference_solve_forward(mesh, g, f, tol=1e-12, max_iter=50):
    """Damped Newton on the whole grid, the oracle of the trace Newton in
    ``solve_forward``: the free residual K u - b_g - N(u) of every iterate
    is taken with the stencil, and each step J_ff d = -F solves
    (I - C S) y = C E^T K_ff^-1 r, then d = K_ff^-1 (r + E y), with two
    grid solves.  Returns (u, iterations, stop)."""
    K = mesh.stiffness
    nodes, on, S = K.boundary_block
    m = on.stop - on.start
    g1, S = nodes[:m], S[:m, :m]
    free = mesh.free_nodes
    b_g = assemble_boundary_load(mesh, G2, g)
    u = np.zeros(mesh.nodes.shape[0])

    def residual(u):
        return K(u) - b_g - nonlinear_load(mesh, u, f)

    F = residual(u)
    res = float(np.linalg.norm(F[free]))
    for it in range(1, max_iter + 1):
        if res <= tol:
            return u, it, "tolerance"
        C = nonlinear_jacobian(mesh, u, f, g1)
        r = -F
        r[g1] += np.linalg.solve(np.eye(g1.size) - C @ S, C @ K.solve(r)[g1])
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
                return u, it, "rounding_floor"
            raise AssertionError(f"reference Newton stalled at {it}")
        u, F, res = u_try, F_try, res_try
    raise AssertionError("reference Newton did not converge")


def assert_meets_tolerance(mesh, u, report, tol=1e-12):
    """report.stop names the rule that the returned field's residual
    meets: at most tol, or above it and at most tol * max(1, |(K u)_free|),
    the rounding floor of K u."""
    if report.stop == "tolerance":
        assert report.residual <= tol
    else:
        assert report.stop == "rounding_floor"
        Ku = np.linalg.norm(mesh.stiffness(u)[mesh.free_nodes])
        assert tol < report.residual <= tol * max(1.0, Ku)


def free_residual(mesh, u, g, f):
    """Norm of the free residual K u - b_g - N(u) of a nodal field."""
    F = (mesh.stiffness(u) - assemble_boundary_load(mesh, G2, g)
         - nonlinear_load(mesh, u, f))
    return float(np.linalg.norm(F[mesh.free_nodes]))


def field_of_last_iterate(mesh, g, f, tol):
    """The field K_ff^-1 (s b_g + E y) of ``solve_trace``'s last iterate,
    which ``solve_forward`` builds by its first grid solve."""
    K = mesh.stiffness
    g1 = free_gamma1(mesh)
    b_g = assemble_boundary_load(mesh, G2, g)
    trace = solve_trace(mesh, b_g, f, tol)
    rhs = trace.scale * b_g
    rhs[g1] += trace.load
    return K.solve(rhs)


def resonant_slope(mesh):
    """The slope of the linear law at which I - S C is singular: the
    inverse of the largest eigenvalue of S M, M the gamma1 boundary mass."""
    g1 = free_gamma1(mesh)
    M = nonlinear_jacobian(mesh, np.zeros(mesh.nodes.shape[0]),
                           LinearLaw(1.0), g1)
    return 1.0 / np.linalg.eigvals(M @ mesh.stiffness.capacitance(g1)).real.max()


class TestTraceNewtonMatchesReference:
    """Newton on the gamma1 nodes with one field build agrees with the
    full-grid Newton to 1e-10 relative, in no more iterations from the zero
    field, and its report's residual is the free residual of the field it
    returns."""

    @staticmethod
    def check(mesh, flux, law):
        u, report = solve_forward(mesh, flux, law)
        ref, iterations, _ = reference_solve_forward(mesh, flux, law)
        assert np.max(np.abs(u - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))
        # the same iterates; the stencil's rounding can hold the reference
        # above the tolerance for more of them
        assert report.iterations <= iterations
        assert report.residual == free_residual(mesh, u, flux, law)
        assert_meets_tolerance(mesh, u, report)
        assert len(report.residual_history) == report.iterations
        return u, report

    @pytest.mark.parametrize("law", [
        ExponentialLaw(0.1, 0.5), LinearLaw(1.0),
        TabulatedLaw([-1.0, 0.0, 1.0], [-0.5, 0.0, 0.8]),
    ], ids=["exponential", "linear", "tabulated"])
    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_laws_and_sizes(self, square, ramp_flux, law, n):
        self.check(build_rectangle_mesh(square, n), ramp_flux, law)

    def test_near_resonance(self, square, ramp_flux):
        mesh = build_rectangle_mesh(square, 8)
        self.check(mesh, ramp_flux, LinearLaw(0.999 * resonant_slope(mesh)))

    @pytest.mark.parametrize("width, layout", [
        (2.0, "gammaD gamma2 gamma1 gammaD"),
        # the gamma1 and gamma2 chains share no node
        (1.0, "gammaD gamma1 gammaD gamma2"),
    ], ids=["2x1", "opposite"])
    def test_domains(self, ramp_flux, exponential_law, width, layout):
        mesh = build_rectangle_mesh(rectangle(width, layout), 16)
        self.check(mesh, ramp_flux, exponential_law)


def count_stiffness_calls(monkeypatch):
    """The names of the ``Stiffness`` stencil and solve calls made from
    here on, in call order."""
    calls = []

    def counting(name):
        method = getattr(Stiffness, name)

        def counted(self, b):
            calls.append(name)
            return method(self, b)

        return counted

    for name in ("__call__", "solve"):
        monkeypatch.setattr(Stiffness, name, counting(name))
    return calls


class TestSavedWork:
    """The work the trace Newton saves, counted."""

    @pytest.mark.parametrize("flux, law, iterations", [
        (FluxProfile.constant(0.0), ExponentialLaw(0.1, 0.5), 1),
        (FluxProfile.polynomial([0.0, 1.0]), LinearLaw(1.0), 2),
        (FluxProfile.polynomial([0.0, 5.0]), ExponentialLaw(1.0, 0.5, 20.0),
         12),
    ], ids=["zero", "linear", "steep"])
    def test_one_stencil_and_one_grid_solve_per_solve(
            self, square, monkeypatch, flux, law, iterations):
        calls = count_stiffness_calls(monkeypatch)
        _, report = solve_forward(build_rectangle_mesh(square, 16), flux, law)
        assert report.iterations == iterations
        assert sorted(calls) == ["__call__", "solve"]

    @pytest.mark.parametrize("n, law, scale, tol", [
        (64, ExponentialLaw(0.1, 0.5), 1.0, 1e-14),
        # f' up to 1e3 and |u| = 20
        (16, ExponentialLaw(1e3, 0.5, 50.0), 100.0, 1e-12),
        # |u| = 338; at n = 128 the refined field stays above tol
        (20, "near-resonant", 1.0, 1e-12),
        (128, "near-resonant", 1.0, 1e-12),
    ], ids=["mild", "steep", "near-resonant", "near-resonant-128"])
    def test_a_field_above_tol_takes_one_grid_newton_step(
            self, square, ramp_flux, monkeypatch, n, law, scale, tol):
        # a field built from the last iterate whose residual rounds above
        # tol takes one Newton step on the grid, which counts the law's
        # Jacobian and brings it to tol or its rounding floor; a field at
        # tol is returned as built.  Before the step the residual is 2.3x,
        # 1.9x, 2.4x and 42x tol here: a change of rounding could bring one
        # of the first three to tol, so the test measures it
        mesh = build_rectangle_mesh(square, n)
        if law == "near-resonant":
            law = LinearLaw(0.999 * resonant_slope(mesh))
        flux = FluxProfile.polynomial(scale * ramp_flux.coeffs)
        built = free_residual(mesh, field_of_last_iterate(mesh, flux, law,
                                                          tol), flux, law)
        # at n = 128 the grid step always runs
        assert built > tol or n < 128
        calls = count_stiffness_calls(monkeypatch)
        u, report = solve_forward(mesh, flux, law, tol=tol)
        assert sorted(calls) == (["__call__"] * 2 + ["solve"] * 3
                                 if built > tol else ["__call__", "solve"])
        assert_meets_tolerance(mesh, u, report, tol)
        assert (report.stop == "tolerance") == (n < 128)
        assert report.residual == free_residual(mesh, u, flux, law)
        ref, _, _ = reference_solve_forward(mesh, flux, law, tol)
        assert np.max(np.abs(u - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    def test_a_field_above_its_floor_raises(self, square, ramp_flux,
                                            exponential_law):
        # the refined field (2.3e-15) stays above a floor of 1e-15
        mesh = build_rectangle_mesh(square, 64)
        with pytest.raises(ForwardSolveError,
                           match="above its rounding floor"):
            solve_forward(mesh, ramp_flux, exponential_law, tol=1e-15)

    @pytest.mark.parametrize("width, layout", [
        (1.0, "gammaD gamma2 gamma1 gammaD"),
        (2.0, "gammaD gamma2 gamma1 gammaD"),
        # only the bottom row is grounded: the axes keep other indices
        (1.0, "gammaD gamma2 gamma1 gamma1"),
    ], ids=["square", "2x1", "other-kept"])
    def test_stiffness_takes_no_eigendecomposition(
            self, monkeypatch, width, layout):
        # the axis modes are the closed-form sines and cosines
        def refused(a):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refused)
        mesh = build_rectangle_mesh(rectangle(width, layout), 16)
        K = Stiffness(mesh)
        free = mesh.free_nodes
        b = np.random.default_rng(1).normal(size=mesh.nodes.shape[0])
        kff = reference_stiffness(mesh)[free][:, free].tocsc()
        want = spla.spsolve(kff, b[free])
        assert np.max(np.abs(K.solve(b)[free] - want)) <= 1e-11 * np.max(
            np.abs(want))


def offset_rectangle(layout):
    """A 1.25 x 0.7 rectangle off the origin, whose grid cells are not
    square."""
    return DomainSpec(
        vertices=[(0.3, -0.2), (1.55, -0.2), (1.55, 0.5), (0.3, 0.5)],
        side_tags=tuple(BoundaryTag.parse(t) for t in layout.split()))


DOMAINS = pytest.mark.parametrize("domain", [
    lambda layout: rectangle(1.0, layout),
    lambda layout: rectangle(2.0, layout),
    offset_rectangle,
], ids=["square", "2x1", "offset"])


def applied_columns(K, vectors):
    """K applied to each column of vectors, as the columns of an array."""
    return np.stack([K(v) for v in vectors.T], axis=1)


def stencil_probes(mesh):
    """Nine 0/1 columns, one per class (j mod 3, i mod 3) of the grid node
    (j, i).  The nodes of a class are three grid steps apart, so each row
    of K times a probe is one entry of K, exact in any summation order, and
    the nine products hold every entry of the stencil."""
    j, i = np.divmod(np.arange(mesh.nodes.shape[0]), mesh.gx.size)
    return ((j % 3) * 3 + i % 3 == np.arange(9)[:, None]).T.astype(float)


class TestAssembleStiffness:
    # n <= 8: every column, K applied to the unit vectors; n = 64: random
    # vectors, whose products the stencil and the matrix sum in different
    # orders
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
    @DOMAINS
    @pytest.mark.parametrize("layout", CHAIN_LAYOUTS)
    def test_matches_reference_assembly(self, layout, domain, n):
        mesh = build_rectangle_mesh(domain(layout), n)
        K, ref = assemble_stiffness(mesh), reference_stiffness(mesh)
        size = mesh.nodes.shape[0]
        vectors = (np.eye(size) if n <= 8 else
                   np.random.default_rng(n).normal(size=(size, 4)))
        gap = abs(applied_columns(K, vectors) - ref @ vectors).max()
        assert gap <= 1e-15 * abs(ref).max() * abs(vectors).max()

    # apply_at reads the stencil at the given nodes alone: the same bits
    # as the whole product, signed zeros included, at every node and on
    # each boundary chain
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
    @DOMAINS
    @pytest.mark.parametrize("layout", CHAIN_LAYOUTS)
    def test_apply_at_equals_the_whole_product(self, layout, domain, n):
        mesh = build_rectangle_mesh(domain(layout), n)
        K = assemble_stiffness(mesh)
        rng = np.random.default_rng(n)
        u = rng.normal(size=mesh.nodes.shape[0]) * 10.0 ** rng.integers(
            -6, 6, mesh.nodes.shape[0])
        u[rng.random(u.size) < 0.3] = 0.0
        u[rng.random(u.size) < 0.2] = -0.0
        whole = K(u)
        subsets = [np.arange(u.size), mesh.free_nodes,
                   rng.permutation(u.size)[:5]]
        subsets += [mesh.tag_polyline(tag)[0] for tag in (G1, G2)]
        for nodes in subsets:
            assert np.array_equal(K.apply_at(u, nodes).view(np.int64),
                                  whole[nodes].view(np.int64))

    # the grid spacings are powers of two there, so every product is
    # exact; at n = 3 the stencil divides by h where the reference divides
    # by 4 * area, and some entries differ by one ulp
    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_equals_reference_assembly_on_the_unit_square(self, square, n):
        mesh = build_rectangle_mesh(square, n)
        probes = stencil_probes(mesh)
        assert np.array_equal(applied_columns(mesh.stiffness, probes),
                              reference_stiffness(mesh) @ probes)


class TestStiffnessSolve:
    # the tensor-product solves and the sparse LU solves differ by rounding
    # only; at n = 64 the largest relative gap is about 5e-13
    BOUND = 1e-11

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
    @DOMAINS
    # both y-ends grounded in the last layout
    @pytest.mark.parametrize("layout", CHAIN_LAYOUTS
                             + ("gammaD gamma2 gammaD gamma1",))
    def test_matches_sparse_direct_solve(self, layout, domain, n):
        mesh = build_rectangle_mesh(domain(layout), n)
        free, grounded = mesh.free_nodes, mesh.dirichlet_nodes
        g1 = free_gamma1(mesh)
        K = mesh.stiffness
        rng = np.random.default_rng(n)
        b = rng.normal(size=mesh.nodes.shape[0])
        x = K.solve(b)
        # the solve reads no entry of b on gammaD and puts 0.0 there
        b[grounded] = rng.normal(size=grounded.size)
        assert np.array_equal(K.solve(b), x)
        assert x.shape == b.shape and np.all(x[grounded] == 0.0)
        S = K.capacitance(g1)
        assert S.shape == (g1.size, g1.size)
        if free.size == 0:  # the grounded sides cover every node
            return
        # columns: b, then E, the identity columns of the free gamma1 nodes
        rhs = np.zeros((free.size, 1 + g1.size))
        rhs[:, 0] = b[free]
        rhs[np.searchsorted(free, g1), 1 + np.arange(g1.size)] = 1.0
        kff = reference_stiffness(mesh)[free][:, free]
        ref = spla.spsolve(kff.tocsc(), rhs)
        ref = ref.reshape(free.size, -1)
        for got, want in ((x[free], ref[:, 0]),
                          (S, ref[np.searchsorted(free, g1), 1:])):
            if want.size:
                gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert gap <= self.BOUND


def eigh_axis_modes(length, keep):
    """The eigenpairs of ``_axis_modes`` from the symmetric eigenproblem of
    W^-1/2 A W^-1/2, with V = W^-1/2 Q (Golub and Van Loan, Matrix
    Computations, 8.7), on the same uniform widths: its oracle."""
    h = np.full(keep.size - 1, length / (keep.size - 1))
    A = _axis_stiffness(h, np.eye(keep.size))[np.ix_(keep, keep)]
    s = 1.0 / np.sqrt(_axis_mass(h)[keep])
    lam, Q = np.linalg.eigh(s[:, None] * A * s)
    return lam, s[:, None] * Q


def axis_keeps(mesh):
    """The kept indices of the y and the x axis: those with a free node."""
    free = np.zeros(mesh.nodes.shape[0], dtype=bool)
    free[mesh.free_nodes] = True
    free = free.reshape(mesh.gy.size, mesh.gx.size)
    return free.any(axis=1), free.any(axis=0)


def boundary_nodes(mesh):
    """The nodes of ``Stiffness.boundary_block``, the free gamma1 chain and
    the free gamma2 nodes off it, or none of them where none is free."""
    chain1, chain2 = mesh.tag_polyline(G1)[0], mesh.tag_polyline(G2)[0]
    off = ~np.isin(chain2, mesh.dirichlet_nodes) & ~np.isin(chain2, chain1)
    return np.concatenate([free_gamma1(mesh), chain2[off]])


# every end case of an axis: neither, one or both ends grounded
END_CASES = pytest.mark.parametrize(
    "layout", CHAIN_LAYOUTS + ("gammaD gamma2 gammaD gamma1",))


class TestClosedFormAxisModes:
    """The closed-form modes are the eigenpairs of each axis, and the
    solve and capacitance they give agree with those of the eigh oracle
    to 1e-12 relative up to n = 64."""

    @staticmethod
    def check(monkeypatch, mesh, bound=1e-12):
        for g, keep in zip((mesh.gy, mesh.gx), axis_keeps(mesh)):
            lam, V = _axis_modes(g[-1] - g[0], keep)
            m = int(keep.sum())
            assert lam.shape == (m,) and V.shape == (m, m)
            if m == 0:  # the grounded sides cover every node
                continue
            # against the axis operators of the grid's own widths
            h = np.diff(g)
            A = _axis_stiffness(h, np.eye(g.size))[np.ix_(keep, keep)]
            W = _axis_mass(h)[keep][:, None]
            assert np.max(np.abs(V.T @ (W * V) - np.eye(m))) <= 1e-12
            assert np.max(np.abs(A @ V - W * V * lam)) <= 1e-12 * np.max(
                np.abs(A)) * np.max(np.abs(V))
            want = eigh_axis_modes(g[-1] - g[0], keep)[0]
            assert np.max(np.abs(lam - want)) <= 1e-12 * np.max(want)
        K = Stiffness(mesh)
        monkeypatch.setattr(forward, "_axis_modes", eigh_axis_modes)
        oracle = Stiffness(mesh)
        b = np.random.default_rng(mesh.gx.size).normal(
            size=mesh.nodes.shape[0])
        nodes = boundary_nodes(mesh)
        for got, want in ((K.solve(b), oracle.solve(b)),
                          (K.capacitance(nodes), oracle.capacitance(nodes))):
            assert got.shape == want.shape
            if np.any(want):
                gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert gap <= bound

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
    @DOMAINS
    @END_CASES
    def test_matches_eigh_oracle(self, monkeypatch, layout, domain, n):
        self.check(monkeypatch, build_rectangle_mesh(domain(layout), n))

    # at n = 256 the oracle's own solves are up to 7.9e-12 relative off a
    # sparse LU solve, and the closed form's up to 7.5e-13
    @END_CASES
    def test_matches_eigh_oracle_at_n256(self, monkeypatch, layout):
        self.check(monkeypatch,
                   build_rectangle_mesh(rectangle(1.0, layout), 256), 1e-11)

    def test_matches_sparse_direct_solve_at_n256(self, square):
        # 2.5e-13 on the default layout
        mesh = build_rectangle_mesh(square, 256)
        free = mesh.free_nodes
        b = np.random.default_rng(256).normal(size=mesh.nodes.shape[0])
        kff = reference_stiffness(mesh)[free][:, free].tocsc()
        want = spla.spsolve(kff, b[free])
        gap = np.max(np.abs(mesh.stiffness.solve(b)[free] - want))
        assert gap <= 1e-12 * np.max(np.abs(want))


def recorded_steps(monkeypatch):
    """The matrices I - C S handed to ``np.linalg.solve`` ("solve") or
    ``np.linalg.inv`` ("inv") from here on, in call order."""
    steps = []
    for name in ("solve", "inv"):
        def recording(M, *rest, name=name, fn=getattr(np.linalg, name)):
            steps.append((name, M.copy()))
            return fn(M, *rest)

        monkeypatch.setattr(np.linalg, name, recording)
    return steps


def exact_step_condition(M, inv=np.linalg.inv):
    """(||M^-1||_1 (1 + a), a) for M = I - C S and a = ||C S||_1."""
    a = np.linalg.norm(np.eye(M.shape[0]) - M, 1)
    return float(np.linalg.norm(inv(M), 1) * (1.0 + a)), a


class TestStepCondition:
    """A Newton step with ||C S||_1 = a < 1 is one solve and records the
    bound (1 + a) / (1 - a) of its condition number; any other step forms
    the inverse and records the exact value."""

    @pytest.mark.parametrize("n", [64, 256])
    def test_default_steps_record_a_bound(self, monkeypatch, n):
        settings = parse_config(text="")
        mesh = build_rectangle_mesh(settings.domain, n)
        b_g = assemble_boundary_load(mesh, G2, settings.flux)
        steps = recorded_steps(monkeypatch)
        trace = solve_trace(mesh, b_g, settings.model)
        assert len(trace.step_condition) >= 2
        assert [name for name, _ in steps] == ["solve"] * len(steps)
        assert len(steps) == len(trace.step_condition)
        for (_, M), cond in zip(steps, trace.step_condition):
            exact, a = exact_step_condition(M)
            assert a < 1.0
            assert cond == pytest.approx((1.0 + a) / (1.0 - a), rel=1e-12)
            assert exact <= cond < 1.2

    def test_steep_steps_record_the_exact_value(self, square, monkeypatch):
        # f' up to 200 at |u| = 10: the first steps have a > 1
        mesh = build_rectangle_mesh(square, 16)
        b_g = assemble_boundary_load(mesh, G2,
                                     FluxProfile.polynomial([0.0, 5.0]))
        steps = recorded_steps(monkeypatch)
        trace = solve_trace(mesh, b_g, ExponentialLaw(1.0, 0.5, 20.0))
        assert len(steps) == len(trace.step_condition)
        assert {name for name, _ in steps} == {"solve", "inv"}
        for (name, M), cond in zip(steps, trace.step_condition):
            exact, a = exact_step_condition(M)
            if name == "inv":
                assert a >= 1.0
                assert cond == pytest.approx(exact, rel=1e-12)
            else:
                assert a < 1.0 and exact <= cond

    @pytest.mark.parametrize("n", [2, 8])
    def test_singular_steps_take_the_exact_value(self, square, ramp_flux,
                                                 monkeypatch, n):
        mesh = build_rectangle_mesh(square, n)
        slope = resonant_slope(mesh)
        steps = recorded_steps(monkeypatch)
        with pytest.raises(ForwardSolveError, match="singular Newton step "
                                                    "at iteration 1") as info:
            solve_forward(mesh, ramp_flux, LinearLaw(slope))
        [(name, M)] = steps
        exact, a = exact_step_condition(M)
        assert name == "inv" and a >= 1.0
        cond = float(str(info.value).rsplit(" ", 1)[1])
        assert cond == pytest.approx(exact, rel=1e-2)


class TestNeumannTrace:
    def test_manufactured_flux(self, square):
        # u = xy: flux is y on the right side, x on the top
        mesh = build_rectangle_mesh(square, 32)
        u, _ = solve_forward(mesh, FluxProfile.polynomial([0.0, 1.0]),
                             LinearLaw(1.0))
        _, t2 = mesh.tag_polyline(G2)
        np.testing.assert_allclose(neumann_trace(u, mesh, G2), t2, atol=2e-3)
        n1, _ = mesh.tag_polyline(G1)
        np.testing.assert_allclose(neumann_trace(u, mesh, G1),
                                   mesh.nodes[n1, 0], atol=2e-3)

    def test_flux_recovery_converges(self, square):
        # on gamma2 the variational recovery reproduces the prescribed flux
        # to round-off; on gamma1 the error is genuine and should shrink
        # roughly like h^2
        errs = []
        for n in (8, 16, 32):
            mesh = build_rectangle_mesh(square, n)
            u, _ = solve_forward(mesh, FluxProfile.polynomial([0.0, 1.0]),
                                 LinearLaw(1.0))
            _, t2 = mesh.tag_polyline(G2)
            np.testing.assert_allclose(neumann_trace(u, mesh, G2), t2,
                                       atol=1e-12)
            n1, _ = mesh.tag_polyline(G1)
            lam1 = neumann_trace(u, mesh, G1)
            errs.append(np.max(np.abs(lam1 - mesh.nodes[n1, 0])))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 1.5)

    def test_boundary_profile_consistency(self, square, ramp_flux,
                                          exponential_law):
        # on gamma1 the recovered flux must reproduce f(u): the actual
        # boundary condition of the solve
        mesh = build_rectangle_mesh(square, 32)
        u, _ = solve_forward(mesh, ramp_flux, exponential_law)
        _, v, w = boundary_profile(u, mesh, G1)
        np.testing.assert_allclose(w, exponential_law(v), atol=2e-4)


def reference_side_chains(mesh, tag):
    """Per-edge reference for the side breaks of a tag's edges: node
    chains, one per polygon side, as (side_index, node_ids, t)."""
    table = mesh.edges
    idx = [i for i, s in enumerate(table.sides)
           if mesh.domain.side_tags[s] == tag]
    chains = []
    cur_side = None
    for i in idx:
        s = int(table.sides[i])
        if s != cur_side:
            chains.append((s, [int(table.nodes[i, 0])],
                           [float(table.t[i, 0])]))
            cur_side = s
        chains[-1][1].append(int(table.nodes[i, 1]))
        chains[-1][2].append(float(table.t[i, 1]))
    return [(s, np.asarray(ns, dtype=int), np.asarray(ts, dtype=float))
            for s, ns, ts in chains]


def reference_side_mass(mesh, node_ids):
    k = node_ids.size - 1
    M = np.zeros((k + 1, k + 1))
    for j in range(k):
        le = float(np.hypot(*(mesh.nodes[node_ids[j + 1]]
                              - mesh.nodes[node_ids[j]])))
        M[j, j] += le / 3.0
        M[j + 1, j + 1] += le / 3.0
        M[j, j + 1] += le / 6.0
        M[j + 1, j] += le / 6.0
    return M


def reference_neumann_trace(u, mesh, tag):
    """Chain-by-chain reference for neumann_trace: per-side flux recovery,
    then the sides concatenated with their corner values averaged.
    Returns (BoundaryCurve over the portion's nodes, flux per node)."""
    r = reference_stiffness(mesh) @ u
    chains = reference_side_chains(mesh, tag)
    all_nodes, all_t, all_flux, all_side = [], [], [], []
    for side, node_ids, ts in chains:
        k = node_ids.size - 1
        M = reference_side_mass(mesh, node_ids)
        if k >= 3:
            T = np.zeros((k + 1, k - 1))
            for j in range(1, k):
                T[j, j - 1] = 1.0
            T[0, 0] = 2.0
            T[0, 1] = -1.0
            T[k, k - 2] = 2.0
            T[k, k - 3] = -1.0
            A = M[1:k, :] @ T
            lam = T @ np.linalg.solve(A, r[node_ids[1:k]])
        else:
            lam = np.linalg.solve(M, r[node_ids])
        all_nodes.append(node_ids)
        all_t.append(ts)
        all_flux.append(lam)
        all_side.append(side)
    nodes, ts, flux = [all_nodes[0]], [all_t[0]], [all_flux[0]]
    normals = [np.tile(mesh.domain.side_normal(all_side[0]),
                       (all_nodes[0].size, 1))]
    for c in range(1, len(chains)):
        nid, tt, fl = all_nodes[c], all_t[c], all_flux[c]
        nrm = np.tile(mesh.domain.side_normal(all_side[c]), (nid.size, 1))
        if nid[0] == nodes[-1][-1]:
            flux[-1][-1] = 0.5 * (flux[-1][-1] + fl[0])
            normals[-1][-1] = nrm[0]
            nid, tt, fl, nrm = nid[1:], tt[1:], fl[1:], nrm[1:]
        nodes.append(nid)
        ts.append(tt)
        flux.append(fl)
        normals.append(nrm)
    node_ids = np.concatenate(nodes)
    curve = BoundaryCurve(t=np.concatenate(ts), points=mesh.nodes[node_ids],
                          normals=np.vstack(normals))
    return curve, np.concatenate(flux)


class TestNeumannTraceMatchesReference:
    """The flux read off the mesh's per-tag edge table equals the
    chain-by-chain reference bit for bit, and its nodes are the
    reference curve's."""

    @pytest.mark.parametrize("layout", CHAIN_LAYOUTS)
    @pytest.mark.parametrize("width", [1.0, 2.0])
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_equal_to_reference(self, layout, width, n, ramp_flux,
                                exponential_law, monkeypatch):
        spec = rectangle(width, layout)
        u, _ = solve_forward(build_rectangle_mesh(spec, n), ramp_flux,
                             exponential_law)
        # a mesh whose stiffness operator is the reference matrix, so that
        # both recover the flux from the same stiffness residual
        monkeypatch.setattr(forward, "assemble_stiffness", MatrixStiffness)
        mesh = build_rectangle_mesh(spec, n)
        for tag in (G1, G2):
            curve, lam = reference_neumann_trace(u, mesh, tag)
            node_ids, ts = mesh.tag_polyline(tag)
            assert np.array_equal(neumann_trace(u, mesh, tag), lam)
            assert np.array_equal(ts, curve.t)
            assert np.array_equal(mesh.nodes[node_ids], curve.points)


class TestExtractCauchyData:
    def test_noiseless_matches_solution(self, square, ramp_flux,
                                        identity_law):
        mesh = build_rectangle_mesh(square, 16)
        u, _ = solve_forward(mesh, ramp_flux, identity_law)
        data = extract_cauchy_data(u, mesh)
        # right side: psi = y, g = y for u = xy
        np.testing.assert_allclose(data.psi, data.curve.t, atol=1e-2)
        np.testing.assert_allclose(data.g, data.curve.t, atol=2e-3)

    def test_noise_norm_is_exact(self, square, ramp_flux, identity_law):
        mesh = build_rectangle_mesh(square, 16)
        u, _ = solve_forward(mesh, ramp_flux, identity_law)
        clean = extract_cauchy_data(u, mesh)
        eps = 1e-3
        noisy = extract_cauchy_data(u, mesh, noise_eps=eps, seed=7)
        w = quadrature_weights(noisy.curve.t)
        for clean_arr, noisy_arr in ((clean.psi, noisy.psi),
                                     (clean.g, noisy.g)):
            d = noisy_arr - clean_arr
            assert np.sqrt(np.sum(w * d**2)) == pytest.approx(eps, rel=1e-12)

    def test_seed_determinism(self, square, ramp_flux, identity_law):
        mesh = build_rectangle_mesh(square, 16)
        u, _ = solve_forward(mesh, ramp_flux, identity_law)
        a = extract_cauchy_data(u, mesh, noise_eps=1e-3, seed=3)
        b = extract_cauchy_data(u, mesh, noise_eps=1e-3, seed=3)
        c = extract_cauchy_data(u, mesh, noise_eps=1e-3, seed=4)
        np.testing.assert_array_equal(a.psi, b.psi)
        assert np.max(np.abs(a.psi - c.psi)) > 0

    def test_perturbing_clean_data_keeps_the_stream(self, square, ramp_flux,
                                                    identity_law):
        # oracle: the draw as it was written inside extract_cauchy_data,
        # trace first, then flux, added in place
        mesh = build_rectangle_mesh(square, 16)
        u, _ = solve_forward(mesh, ramp_flux, identity_law)
        clean = extract_cauchy_data(u, mesh, m=41)
        w = quadrature_weights(clean.curve.t)
        cells = ((1e-3, 0), (1e-3, 5), (3e-2, 1), (1e-6, 12345), (0.0, 3))
        for (eps, seed), noisy in zip(cells,
                                      perturb_cauchy_data(clean, cells)):
            direct = extract_cauchy_data(u, mesh, noise_eps=eps, seed=seed,
                                         m=41)
            rng = np.random.default_rng(seed)
            ref = [clean.psi.copy(), clean.g.copy()]
            for arr in ref if eps > 0 else ():
                pert = rng.standard_normal(arr.size)
                arr += pert * (eps / float(np.sqrt(np.sum(w * pert**2))))
            for got in (noisy, direct):
                assert np.array_equal(got.psi, ref[0])
                assert np.array_equal(got.g, ref[1])
                assert got.eps == eps
                assert np.array_equal(got.curve.t, clean.curve.t)
        assert clean.eps == 0.0
        with pytest.raises(ValueError):
            perturb_cauchy_data(clean, [(1e-3, 0), (-1e-3, 0)])


def _edge_length(mesh, n0, n1):
    return float(np.hypot(*(mesh.nodes[n1] - mesh.nodes[n0])))


def loop_boundary_load(mesh, tag, density):
    """Per-edge, per-Gauss-point reference for assemble_boundary_load."""
    load = np.zeros(mesh.nodes.shape[0])
    for i in mesh.tag_edges(tag).ids:
        n0, n1 = mesh.edges.nodes[i]
        t0, t1 = mesh.edges.t[i]
        le = _edge_length(mesh, n0, n1)
        for s, w in zip(_GAUSS_S, _GAUSS_W):
            g = density(t0 + s * (t1 - t0))
            load[n0] += w * le * g * (1.0 - s)
            load[n1] += w * le * g * s
    return load


def loop_nonlinear_load(mesh, u, model):
    load = np.zeros(mesh.nodes.shape[0])
    for i in mesh.tag_edges(G1).ids:
        n0, n1 = mesh.edges.nodes[i]
        le = _edge_length(mesh, n0, n1)
        for s, w in zip(_GAUSS_S, _GAUSS_W):
            fg = model(u[n0] * (1.0 - s) + u[n1] * s)
            load[n0] += w * le * fg * (1.0 - s)
            load[n1] += w * le * fg * s
    return load


def loop_nonlinear_jacobian(mesh, u, model):
    n = mesh.nodes.shape[0]
    rows, cols, vals = [], [], []
    for i in mesh.tag_edges(G1).ids:
        n0, n1 = mesh.edges.nodes[i]
        le = _edge_length(mesh, n0, n1)
        for s, w in zip(_GAUSS_S, _GAUSS_W):
            fp = model.derivative(u[n0] * (1.0 - s) + u[n1] * s)
            phi = np.array([1.0 - s, s])
            for a, na in enumerate((n0, n1)):
                for b, nb in enumerate((n0, n1)):
                    rows.append(na)
                    cols.append(nb)
                    vals.append(w * le * fp * phi[a] * phi[b])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


class TestVectorizedBoundaryTerms:
    """The edge-vectorized loads add their terms in the order of a per-edge
    loop, so they equal it bit for bit."""

    LAWS = [ExponentialLaw(0.3, 0.25, u_max=1.0), LinearLaw(2.0),
            TabulatedLaw([-1.0, 0.0, 1.0], [-0.5, 0.0, 0.8])]
    FLUXES = [FluxProfile.constant(0.7),
              FluxProfile.polynomial([0.2, 1.0, -0.5]),
              FluxProfile.tabulated([0.0, 0.4, 1.0], [0.0, 1.0, 0.3])]

    def test_boundary_load(self, square):
        mesh = build_rectangle_mesh(square, 12)
        for tag in (G1, G2, D):
            for flux in self.FLUXES:
                assert np.array_equal(assemble_boundary_load(mesh, tag, flux),
                                      loop_boundary_load(mesh, tag, flux))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 64])
    @DOMAINS
    @pytest.mark.parametrize("layout", CHAIN_LAYOUTS)
    def test_nonlinear_load_and_jacobian(self, layout, domain, n):
        mesh = build_rectangle_mesh(domain(layout), n)
        u = np.random.default_rng(3).normal(0.0, 1.5, mesh.nodes.shape[0])
        g1 = free_gamma1(mesh)
        for law in self.LAWS:
            assert np.array_equal(nonlinear_load(mesh, u, law),
                                  loop_nonlinear_load(mesh, u, law))
            slow = loop_nonlinear_jacobian(mesh, u, law)[g1][:, g1]
            assert np.array_equal(nonlinear_jacobian(mesh, u, law, g1),
                                  slow.toarray())
