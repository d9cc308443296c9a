from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from corrinv import experiments
from corrinv.config import parse_config
from corrinv.continuation import (
    CauchyData,
    CornerSingularBasis,
    FundamentalSolutionBasis,
    HarmonicPolynomialBasis,
    _discrepancy,
    choose_mu,
    design_matrix,
    evaluate_on_gamma1,
    fit,
)
from corrinv.forward import FluxProfile, LinearLaw, extract_cauchy_data, solve_forward
from corrinv.geometry import (
    BoundaryTag,
    GeometryError,
    build_rectangle_mesh,
    quadrature_weights,
    trace_sample,
)

D, G1, G2 = BoundaryTag.GAMMAD, BoundaryTag.GAMMA1, BoundaryTag.GAMMA2


def interior_points(rng, n=40):
    # keep a margin from the corners where derivatives of the singular
    # terms grow
    return rng.uniform(0.05, 0.95, size=(n, 2))


def fd_laplacian(basis, points, h=1e-4):
    p = np.asarray(points, float)
    acc = -4.0 * basis.eval(p)
    for d in ((h, 0), (-h, 0), (0, h), (0, -h)):
        acc = acc + basis.eval(p + np.array(d))
    return acc / h**2


def fd_gradient(basis, points, h=1e-6):
    p = np.asarray(points, float)
    gx = (basis.eval(p + [h, 0.0]) - basis.eval(p - [h, 0.0])) / (2 * h)
    gy = (basis.eval(p + [0.0, h]) - basis.eval(p - [0.0, h])) / (2 * h)
    return np.stack([gx, gy], axis=-1)


def all_bases(square):
    poly = HarmonicPolynomialBasis(5, square.centroid())
    mfs = FundamentalSolutionBasis.around_polygon(square.vertices, 16, 0.5)
    corner = CornerSingularBasis.around_gamma2(poly, square)
    return [poly, mfs, corner]


class TestBases:
    def test_members_are_harmonic(self, square):
        rng = np.random.default_rng(0)
        pts = interior_points(rng)
        for basis in all_bases(square):
            lap = fd_laplacian(basis, pts)
            assert np.max(np.abs(lap)) < 1e-3, type(basis).__name__

    def test_gradients_match_finite_differences(self, square):
        rng = np.random.default_rng(1)
        pts = interior_points(rng, n=20)
        for basis in all_bases(square):
            g = basis.grad(pts)
            gfd = fd_gradient(basis, pts)
            assert np.max(np.abs(g - gfd)) < 1e-6, type(basis).__name__

    def test_polynomial_size_and_constant(self):
        basis = HarmonicPolynomialBasis(4, (0.5, 0.5))
        assert basis.size == 9
        V = basis.eval([(0.1, 0.2), (0.9, 0.4)])
        np.testing.assert_allclose(V[:, 0], 1.0)

    def test_polynomial_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            HarmonicPolynomialBasis(0, (0.0, 0.0))

    def test_charge_placement_outside(self, square):
        basis = FundamentalSolutionBasis.around_polygon(
            square.vertices, 12, 0.3)
        for q in basis.charges:
            assert not square.contains(q)

    def test_charges_respect_offset(self):
        from corrinv.geometry import segment_distance

        verts = np.array([(0.0, 0.0), (10.0, 0.0), (10.0, 0.1), (0.0, 0.1)])
        offset = 0.05
        basis = FundamentalSolutionBasis.around_polygon(verts, 32, offset)
        d = segment_distance(basis.charges, verts, np.roll(verts, -1, axis=0))
        assert np.all(d >= 0.5 * offset)

    def test_offset_lost_to_rounding(self, square):
        # the radius rounds to the circumradius, and the charge at 45
        # degrees lands on the corner (1, 1)
        with pytest.raises(GeometryError) as info:
            FundamentalSolutionBasis.around_polygon(square.vertices, 16,
                                                    1e-300)
        assert info.value.key == "continuation.offset_factor"

    def test_corner_terms_continuous_inside(self, square):
        # the branch cut must lie outside the domain: walking a small arc
        # around each augmented corner inside the square never jumps
        basis = CornerSingularBasis.around_gamma2(
            HarmonicPolynomialBasis(2, square.centroid()), square)
        assert basis.corners.shape[0] == 2  # (1, 0) and (1, 1)
        for corner in basis.corners:
            ang = np.linspace(0.0, 2.0 * np.pi, 400)
            pts = corner + 0.05 * np.column_stack([np.cos(ang), np.sin(ang)])
            keep = np.array([square.contains(p) for p in pts])
            vals = basis.eval(pts[keep])
            assert np.max(np.abs(np.diff(vals, axis=0))) < 0.05

    def test_corner_terms_vanish_at_corner(self, square):
        basis = CornerSingularBasis.around_gamma2(
            HarmonicPolynomialBasis(2, square.centroid()), square)
        # each pair of singular columns vanishes at its own corner
        V = basis.eval(basis.corners)
        k = basis.inner.size
        for j in range(basis.corners.shape[0]):
            np.testing.assert_allclose(V[j, k + 2 * j:k + 2 * j + 2], 0.0,
                                       atol=1e-14)

    def test_corner_count_mismatch(self):
        with pytest.raises(ValueError):
            CornerSingularBasis(HarmonicPolynomialBasis(2, (0, 0)),
                                [(1.0, 0.0), (1.0, 1.0)], [0.0])


class TestCauchyData:
    def curve(self, square):
        mesh = build_rectangle_mesh(square, 8)
        return trace_sample(mesh, G2, 9)

    def test_length_mismatch(self, square):
        c = self.curve(square)
        with pytest.raises(ValueError):
            CauchyData(psi=c.t[:-1], g=c.t, eps=0.0, curve=c)

    def test_nonincreasing_parameters(self, square):
        c = self.curve(square)
        t = c.t.copy()
        t[3] = t[2]
        with pytest.raises(ValueError):
            CauchyData(psi=c.t, g=c.t, eps=0.0, curve=replace(c, t=t))

    def test_negative_noise(self, square):
        c = self.curve(square)
        with pytest.raises(ValueError):
            CauchyData(psi=c.t, g=c.t, eps=-1.0, curve=c)


def harmonic_cauchy_data(square, m=65, eps=0.0):
    """Samples of u = 2xy on the right side of the unit square: u is
    harmonic, vanishes on the grounded bottom/left, and has flux du/dx = 2y
    there; with gammaD and gamma1 sample curves."""
    mesh = build_rectangle_mesh(square, 8)
    curve = trace_sample(mesh, G2, m)
    y = curve.points[:, 1]
    return (CauchyData(psi=2.0 * y, g=2.0 * y, eps=eps, curve=curve),
            trace_sample(mesh, D, 2 * m - 1), trace_sample(mesh, G1, 101))


class TestDesignMatrix:
    def test_normal_equations_match_dense_quadrature(self, square):
        # oracle: entries of A^T A are sums of curve integrals of products
        # of basis functions (and their normal derivatives), computed here
        # with an independent composite-Simpson integrator
        data, dcurve, curve1 = harmonic_cauchy_data(square)
        basis = HarmonicPolynomialBasis(3, square.centroid())
        A = design_matrix(basis, data.curve, dcurve, curve1).A
        gram = A.T @ A

        V2 = basis.eval(data.curve.points)
        dn2 = np.einsum("pkd,pd->pk", basis.grad(data.curve.points),
                        data.curve.normals)
        VD = basis.eval(dcurve.points)
        oracle = np.zeros_like(gram)
        for i in range(basis.size):
            for j in range(basis.size):
                oracle[i, j] = (
                    simpson(V2[:, i] * V2[:, j], x=data.curve.t)
                    + simpson(dn2[:, i] * dn2[:, j], x=data.curve.t)
                    + simpson(VD[:, i] * VD[:, j], x=dcurve.t)
                )
        np.testing.assert_allclose(gram, oracle, atol=1e-6)

    def test_blocks_partition_rows(self, square):
        data, dcurve, curve1 = harmonic_cauchy_data(square, m=33)
        basis = HarmonicPolynomialBasis(2, square.centroid())
        system = design_matrix(basis, data.curve, dcurve, curve1)
        A, b, blocks = system.A, system.rhs(data), system.blocks
        n = sum(sl.stop - sl.start for sl in blocks.values())
        assert n == A.shape[0] == b.size
        np.testing.assert_allclose(b[blocks["dirichlet"]], 0.0)

    def test_empty_block_rejected(self, square):
        from corrinv.geometry import BoundaryCurve

        data, _, curve1 = harmonic_cauchy_data(square)
        basis = HarmonicPolynomialBasis(2, square.centroid())
        empty = BoundaryCurve(t=np.empty(0), points=np.empty((0, 2)),
                              normals=np.empty((0, 2)))
        with pytest.raises(ValueError):
            design_matrix(basis, data.curve, empty, curve1)


class TestFit:
    def test_exact_recovery_of_harmonic_data(self, square):
        # u = 2xy lies in the span of the degree-2 polynomial basis, so the
        # unregularized fit reproduces it to round-off on gamma1
        data, dcurve, curve1 = harmonic_cauchy_data(square)
        basis = HarmonicPolynomialBasis(4, square.centroid())
        system = design_matrix(basis, data.curve, dcurve, curve1)
        result = fit(system, data, 0.0)
        assert result.discrepancy < 1e-10

        prof = evaluate_on_gamma1(system, result.coefficients)
        x = curve1.points[:, 0]
        np.testing.assert_allclose(prof.v, 2.0 * x, atol=1e-9)
        np.testing.assert_allclose(prof.w, 2.0 * x, atol=1e-9)  # du/dy = 2x
        np.testing.assert_allclose(prof.dv, -2.0, atol=1e-9)

    def test_negative_mu_rejected(self, square):
        data, dcurve, curve1 = harmonic_cauchy_data(square)
        basis = HarmonicPolynomialBasis(2, square.centroid())
        with pytest.raises(ValueError):
            fit(design_matrix(basis, data.curve, dcurve, curve1), data, -1.0)

    def test_regularization_shrinks_coefficients(self, square):
        data, dcurve, curve1 = harmonic_cauchy_data(square)
        basis = HarmonicPolynomialBasis(8, square.centroid())
        system = design_matrix(basis, data.curve, dcurve, curve1)
        free = fit(system, data, 0.0)
        heavy = fit(system, data, 1.0)
        assert np.linalg.norm(heavy.coefficients) < np.linalg.norm(
            free.coefficients)
        assert heavy.discrepancy > free.discrepancy

    def test_discrepancy_blocks_consistent(self, square):
        data, dcurve, curve1 = harmonic_cauchy_data(square)
        basis = HarmonicPolynomialBasis(3, square.centroid())
        r = fit(design_matrix(basis, data.curve, dcurve, curve1), data, 1e-6)
        rms = np.sqrt((r.discrepancy_psi**2 + r.discrepancy_g**2
                       + r.discrepancy_dirichlet**2) / 3.0)
        assert r.discrepancy == pytest.approx(rms, rel=1e-12)


class TestChooseMu:
    def noisy_data(self, square, eps, seed=0):
        mesh = build_rectangle_mesh(square, 32)
        u, _ = solve_forward(mesh, FluxProfile.polynomial([0.0, 1.0]),
                             LinearLaw(1.0))
        data = extract_cauchy_data(u, mesh, noise_eps=eps, seed=seed)
        return data, trace_sample(mesh, D, 129), trace_sample(mesh, G1, 101)

    def test_discrepancy_meets_target(self, square):
        eps = 1e-3
        data, dcurve, curve1 = self.noisy_data(square, eps)
        basis = HarmonicPolynomialBasis(8, square.centroid())
        system = design_matrix(basis, data.curve, dcurve, curve1)
        [(mu, under)] = choose_mu(system, [data])
        assert not under
        result = fit(system, data, mu)
        assert result.discrepancy <= 1.2 * eps + 1e-12
        # mu is (nearly) the largest such weight: a modest increase breaks it
        worse = fit(system, data, 4.0 * mu)
        assert worse.discrepancy > 1.2 * eps

    def test_mu_decreases_with_noise(self, square):
        basis = HarmonicPolynomialBasis(8, (0.5, 0.5))
        mus = []
        for eps in (1e-2, 1e-3, 1e-4):
            data, dcurve, curve1 = self.noisy_data(square, eps)
            [(mu, _)] = choose_mu(
                design_matrix(basis, data.curve, dcurve, curve1), [data])
            mus.append(mu)
        assert mus[0] > mus[1] > mus[2]

    def test_under_resolved_flag(self, square):
        # declared noise far below the discretization error: no mu reaches
        # the Morozov target
        data, dcurve, curve1 = self.noisy_data(square, 1e-12)
        basis = HarmonicPolynomialBasis(6, (0.5, 0.5))
        [(mu, under)] = choose_mu(
            design_matrix(basis, data.curve, dcurve, curve1), [data])
        assert under

    def test_requires_positive_eps(self, square):
        data, dcurve, curve1 = harmonic_cauchy_data(square, eps=0.0)
        basis = HarmonicPolynomialBasis(4, (0.5, 0.5))
        with pytest.raises(ValueError):
            choose_mu(design_matrix(basis, data.curve, dcurve, curve1),
                      [data])


# The basis evaluations as they were before each wrote its columns into one
# preallocated array: a list of columns joined by column_stack or hstack,
# and a log of a separate hypot array.  Downstream products (design matrix,
# gamma1 profile, disk integrals) depend on every bit and on the C layout.

def reference_polynomial_eval(basis, points):
    z = basis._z(points)
    cols = [np.ones_like(z.real)]
    zk = np.ones_like(z)
    for _ in range(basis.degree):
        zk = zk * z
        cols.append(zk.real)
        cols.append(zk.imag)
    return np.column_stack(cols)


def reference_charge_eval(basis, points):
    p = np.atleast_2d(np.asarray(points, dtype=float))
    d = p[:, None, :] - basis.charges[None, :, :]
    return np.log(np.hypot(d[:, :, 0], d[:, :, 1]))


def reference_corner_eval(basis, points):
    inner = (reference_polynomial_eval
             if isinstance(basis.inner, HarmonicPolynomialBasis)
             else reference_charge_eval)
    z, logz = basis._singular(points)
    w = z**2 * logz
    cols = [inner(basis.inner, points)]
    for j in range(basis.corners.shape[0]):
        cols.append(w[:, j].real[:, None])
        cols.append(w[:, j].imag[:, None])
    return np.hstack(cols)


def reference_eval(basis, points):
    if isinstance(basis, CornerSingularBasis):
        return reference_corner_eval(basis, points)
    if isinstance(basis, HarmonicPolynomialBasis):
        return reference_polynomial_eval(basis, points)
    return reference_charge_eval(basis, points)


def eval_bases(square):
    """Poly of three degrees and MFS, bare and with corner terms."""
    inner = [HarmonicPolynomialBasis(d, square.centroid()) for d in (1, 8, 40)]
    inner.append(FundamentalSolutionBasis.around_polygon(
        square.vertices, 64, 0.5))
    return inner + [CornerSingularBasis.around_gamma2(b, square)
                    for b in inner]


class TestEvalMatchesReference:
    @pytest.mark.parametrize("scale", [1e-6, 1e-2, 0.5, 3.0])
    def test_random_points(self, square, scale):
        rng = np.random.default_rng(int(scale * 1e6))
        points = 0.5 + scale * rng.uniform(-1.0, 1.0, size=(300, 2))
        for basis in eval_bases(square):
            V = basis.eval(points)
            assert np.array_equal(V, reference_eval(basis, points)), basis
            assert V.flags.c_contiguous and V.dtype == np.float64

    def test_corner_points_and_edge_shapes(self, square):
        # z == 0 at each augmented corner; one point and no point at all
        for basis in eval_bases(square)[4:]:
            for points in (basis.corners, basis.corners[:1],
                           np.empty((0, 2)), (0.3, 0.7)):
                V = basis.eval(points)
                assert np.array_equal(V, reference_eval(basis, points))
                assert V.shape == (np.atleast_2d(points).shape[0],
                                   basis.size)


class TestEvaluateOnGamma1:
    def test_tangential_derivative_matches_fd(self, square):
        data, dcurve, _ = harmonic_cauchy_data(square)
        basis = HarmonicPolynomialBasis(5, square.centroid())
        curve = trace_sample(build_rectangle_mesh(square, 8), G1, 401)
        system = design_matrix(basis, data.curve, dcurve, curve)
        prof = evaluate_on_gamma1(system, fit(system, data, 0.0).coefficients)
        dv_fd = np.gradient(prof.v, prof.t)
        np.testing.assert_allclose(prof.dv[1:-1], dv_fd[1:-1], atol=1e-4)


# The per-call continuation as it was before one system was shared: the
# design matrix and its SVD built inside every fit and every Morozov search,
# the discrepancy evaluated from the explicit residual A c - b.

def reference_design_matrix(basis, data, dirichlet_curve):
    w2 = np.sqrt(quadrature_weights(data.curve.t))
    dn2 = np.einsum("pkd,pd->pk", basis.grad(data.curve.points),
                    data.curve.normals)
    wD = np.sqrt(quadrature_weights(dirichlet_curve.t))
    A = np.vstack([w2[:, None] * basis.eval(data.curve.points),
                   w2[:, None] * dn2,
                   wD[:, None] * basis.eval(dirichlet_curve.points)])
    b = np.concatenate([w2 * data.psi, w2 * data.g,
                        np.zeros(len(dirichlet_curve))])
    n2 = len(data.curve)
    blocks = {"psi": slice(0, n2), "g": slice(n2, 2 * n2),
              "dirichlet": slice(2 * n2, A.shape[0])}
    return A, b, blocks


def reference_tikhonov(U, s, Vt, b, mu):
    return Vt.T @ ((s / (s**2 + mu)) * (U.T @ b))


def reference_rms(A, b, blocks, c):
    r = A @ c - b
    return float(np.sqrt(np.mean([np.linalg.norm(r[sl]) ** 2
                                  for sl in blocks.values()])))


def reference_fit(basis, data, mu, dirichlet_curve):
    A, b, _ = reference_design_matrix(basis, data, dirichlet_curve)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return reference_tikhonov(U, s, Vt, b, mu)


def reference_choose_mu(basis, data, dirichlet_curve, tau=1.2,
                        mu_lo=1e-16, mu_hi=1e2, iters=60):
    A, b, blocks = reference_design_matrix(basis, data, dirichlet_curve)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    target = tau * data.eps

    def disc(mu):
        return reference_rms(A, b, blocks,
                             reference_tikhonov(U, s, Vt, b, mu))

    if disc(mu_lo) > target:
        return mu_lo, True
    if disc(mu_hi) <= target:
        return mu_hi, False
    lo, hi = np.log(mu_lo), np.log(mu_hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if disc(np.exp(mid)) <= target:
            lo = mid
        else:
            hi = mid
    return float(np.exp(lo)), False


class TestSharedSystemMatchesReference:
    @pytest.mark.parametrize("overrides", [
        {},
        {"basis_kind": "mfs"},
        {"basis_degree": 40},
    ], ids=["default", "mfs", "degree40"])
    def test_noisy_sweep_cells(self, monkeypatch, overrides):
        # the one batch of (system, lifted data) the noise sweep hands to
        # the Morozov search, each cell checked against the per-call
        # reference
        config = replace(parse_config(text=""), mesh_n=16, **overrides)
        calls = []

        def recording_choose_mu(system, batch, tau):
            calls.append((system, batch, tau))
            return choose_mu(system, batch, tau)

        monkeypatch.setattr(experiments, "choose_mu", recording_choose_mu)
        mesh = build_rectangle_mesh(config.domain, config.mesh_n)
        experiments.run_noise_sweep(config, mesh)
        [(system, batch, tau)] = calls
        assert len(batch) == (len(config.eps_levels)
                              * config.seeds_per_level)
        gammad = trace_sample(mesh, D, config.gammad_samples)
        for data, (mu, under) in zip(batch, choose_mu(system, batch, tau)):
            ref_mu, ref_under = reference_choose_mu(system.basis, data,
                                                    gammad, tau)
            assert under == ref_under
            assert mu == pytest.approx(ref_mu, rel=1e-12, abs=0)
            c = fit(system, data, mu).coefficients
            ref_c = reference_fit(system.basis, data, ref_mu, gammad)
            assert (np.linalg.norm(c - ref_c)
                    <= 1e-12 * np.linalg.norm(ref_c))

    def test_fit_and_choose_mu_reject_data_sampled_elsewhere(self, square):
        data, dcurve, curve1 = harmonic_cauchy_data(square, m=65, eps=1e-3)
        system = design_matrix(HarmonicPolynomialBasis(3, (0.5, 0.5)),
                               data.curve, dcurve, curve1)
        coarse, *_ = harmonic_cauchy_data(square, m=33, eps=1e-3)
        shifted = CauchyData(psi=data.psi, g=data.g, eps=1e-3,
                             curve=replace(data.curve, t=data.curve.t + 1e-3))
        for other in (coarse, shifted):
            with pytest.raises(ValueError):
                fit(system, other, 1e-6)
            with pytest.raises(ValueError):
                choose_mu(system, [other])


class TestClosedFormDiscrepancy:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12),
           rows=st.tuples(st.integers(1, 15), st.integers(1, 15),
                          st.integers(1, 15)),
           decades=st.floats(0.0, 4.0))
    def test_equals_explicit_residual_and_is_monotone(self, seed, k, rows,
                                                      decades):
        # random tall A = Q1 diag(s) Q2 with singular values spread over
        # `decades` orders of magnitude (the explicit residual A c - b is
        # itself only accurate to about cond(A) * 1e-16), three row blocks,
        # and b with a part outside the range of A of norm at least 1/2
        m = sum(rows)
        k = min(k, m - 1)
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        q2, _ = np.linalg.qr(rng.standard_normal((k, k)))
        A = q[:, :k] @ (np.logspace(0.0, -decades, k)[:, None] * q2)
        z = rng.standard_normal(m - k)
        b = q[:, :k] @ rng.standard_normal(k) + q[:, k:] @ (
            z * (0.5 + abs(rng.standard_normal())) / np.linalg.norm(z))
        cuts = np.cumsum((0,) + rows)
        blocks = {i: slice(cuts[i], cuts[i + 1]) for i in range(3)}
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        mus = np.logspace(-16, 2, 37)
        closed = _discrepancy(U, s, [b] * mus.size)(mus)
        explicit = np.array([
            reference_rms(A, b, blocks, reference_tikhonov(U, s, Vt, b, mu))
            for mu in mus])
        np.testing.assert_allclose(closed, explicit, rtol=1e-10, atol=0)
        assert np.all(np.diff(closed) >= 0)
        # monotone by construction, however ill-conditioned the system
        mus = np.logspace(-16, 2, 721)
        wide = _discrepancy(U, np.logspace(0.0, -16.0, k), [b] * mus.size)(mus)
        assert np.all(np.diff(wide) >= 0)
