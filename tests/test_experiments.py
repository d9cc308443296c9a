from dataclasses import replace

import numpy as np
import pytest

from corrinv import experiments, forward
from corrinv.config import parse_config
from corrinv.continuation import CauchyData, HarmonicPolynomialBasis, fit
from corrinv.experiments import (
    FieldError,
    continue_data,
    disk_integral,
    fit_rate,
    reconstruct_from_data,
    run_noise_sweep,
    run_oscillation_sweep,
    three_spheres_check,
)
from corrinv.forward import (
    ExponentialLaw,
    FluxProfile,
    ForwardSolveError,
    LinearLaw,
    TabulatedLaw,
    boundary_profile,
    extract_cauchy_data,
    perturb_cauchy_data,
    solve_forward,
)
from corrinv.geometry import (
    BoundaryTag,
    GeometryError,
    build_rectangle_mesh,
    inner_portion,
    trace_sample,
)
from corrinv.reconstruction import (
    BoundaryProfile,
    EmptyIntervalError,
    NoMonotoneSegmentError,
    overlap_and_error,
)

from conftest import config_mesh, interpolant_score, rectangle


def small_config(square, **overrides):
    kwargs = dict(
        domain=square,
        mesh_n=32,
        model=ExponentialLaw(lam=0.1, a=0.5),
        flux=FluxProfile.polynomial([0.0, 1.0]),
        eps_levels=(1e-2, 1e-3, 1e-4),
        seeds_per_level=5,
        basis_degree=8,
        gamma1_samples=61,
        gammad_samples=81,
    )
    kwargs.update(overrides)
    return replace(parse_config(text=""), **kwargs)


class TestExperimentConfig:
    def test_level_validation(self, square):
        with pytest.raises(ValueError):
            small_config(square, eps_levels=(1e-2, 1e-3))
        with pytest.raises(ValueError):
            small_config(square, eps_levels=(1e-4, 1e-3, 1e-2))
        with pytest.raises(ValueError):
            small_config(square, seeds_per_level=2)
        with pytest.raises(ValueError):
            small_config(square, oscillation_magnitudes=(0.5, 0.2, 0.8))

    def test_trial_bound(self, square):
        assert small_config(square, check_trials=10**6).check_trials == 10**6
        with pytest.raises(FieldError) as info:
            small_config(square, check_trials=10**6 + 1)
        assert info.value.key == "check.trials"

    def test_basis_kinds(self, square):
        for kind in ("poly", "mfs"):
            basis = small_config(square, basis_kind=kind).make_basis()
            assert basis.size > 0
        with pytest.raises(ValueError):
            small_config(square, basis_kind="wavelets").make_basis()

    def test_corner_terms_toggle(self, square):
        plain = small_config(square, corner_terms=False).make_basis()
        augmented = small_config(square).make_basis()
        assert augmented.size == plain.size + 4


class TestFitRate:
    def test_log_power_exact_recovery(self):
        C, theta = 2.0, 0.5
        xs = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        ys = C * np.abs(np.log(xs)) ** (-theta)
        C_fit, theta_fit, residual = fit_rate(xs, ys, "log_power")
        assert C_fit == pytest.approx(C, rel=1e-10)
        assert theta_fit == pytest.approx(theta, rel=1e-10)
        assert residual < 1e-12

    def test_exp_stretch_exact_recovery(self):
        c, gamma = 3.0, 2.0
        xs = np.array([0.2, 0.4, 0.8, 1.6])
        ys = np.exp(-((xs / c) ** (-gamma)))
        c_fit, gamma_fit, residual = fit_rate(xs, ys, "exp_stretch")
        assert c_fit == pytest.approx(c, rel=1e-10)
        assert gamma_fit == pytest.approx(gamma, rel=1e-10)
        assert residual < 1e-12

    def test_robust_to_noise(self):
        rng = np.random.default_rng(0)
        C, theta = 1.5, 0.8
        xs = np.logspace(-6, -2, 9)
        clean = C * np.abs(np.log(xs)) ** (-theta)
        ok = 0
        for _ in range(100):
            ys = clean * np.exp(rng.normal(0.0, 0.05, xs.size))
            _, theta_fit, _ = fit_rate(xs, ys, "log_power")
            if abs(theta_fit - theta) <= 0.2 * theta:
                ok += 1
        assert ok >= 90

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_rate([1e-2, 1e-3], [0.1, 0.2], "log_power")
        with pytest.raises(ValueError):
            fit_rate([1e-2, -1e-3, 1e-4], [0.1, 0.2, 0.3], "log_power")
        with pytest.raises(ValueError):
            fit_rate([0.1, 0.2, 0.3], [0.5, 1.5, 0.7], "exp_stretch")
        with pytest.raises(ValueError):
            fit_rate([1e-2, 1e-3, 1e-4], [0.1, 0.2, 0.3], "powerlaw")


class TestReconstructFromData:
    def test_noiseless_linear_law(self, square):
        config = small_config(square, model=LinearLaw(1.0))
        mesh = build_rectangle_mesh(square, config.mesh_n)
        u, _ = solve_forward(mesh, config.flux, config.model)
        data = extract_cauchy_data(u, mesh)
        [(rec, profile, result)] = reconstruct_from_data(
            mesh, config, [data], config.make_system(mesh, data.curve))
        assert not result.under_resolved
        _, err = overlap_and_error(rec, config.model)
        assert err < 5e-3

    def test_noisy_error_grows(self, square):
        config = small_config(square)
        mesh = build_rectangle_mesh(square, config.mesh_n)
        u, _ = solve_forward(mesh, config.flux, config.model)
        errs = []
        for eps in (1e-6, 1e-2):
            data = extract_cauchy_data(u, mesh, noise_eps=eps, seed=1)
            [(rec, *_)] = reconstruct_from_data(
                mesh, config, [data], config.make_system(mesh, data.curve))
            errs.append(overlap_and_error(rec, config.model)[1])
        assert errs[0] < errs[1]

    @pytest.mark.parametrize("model,width", [
        (ExponentialLaw(lam=0.1, a=0.5), 1.0),
        (LinearLaw(0.7), 1.0),
        (TabulatedLaw([-1.0, 0.0, 0.5, 1.0], [-0.2, 0.0, 0.1, 0.35]), 1.0),
        (ExponentialLaw(lam=0.1, a=0.5), 2.0),
    ], ids=["exponential", "linear", "tabulated", "rectangle-2x1"])
    def test_score_agrees_with_the_interpolant_reference(self, square, model,
                                                         width):
        # the sup error of a recovery at noise 1e-3, scored against the
        # law itself and against its interpolant at 1,001 knots
        config = small_config(square, model=model, domain=rectangle(
            width, "gammaD gamma2 gamma1 gammaD"))
        mesh = config_mesh(config)
        u, _ = solve_forward(mesh, config.flux, config.model)
        batch = perturb_cauchy_data(
            extract_cauchy_data(u, mesh), [(1e-3, seed) for seed in range(3)])
        for rec, _, _ in reconstruct_from_data(
                mesh, config, batch, config.make_system(mesh, batch[0].curve)):
            interval, err = overlap_and_error(rec, config.model)
            ref_interval, ref_err = interpolant_score(rec, config.model)
            assert interval == ref_interval
            assert err == pytest.approx(ref_err, rel=1e-8)


# The continuation as it was before the noise sweep's cells moved through
# it as one batch: one realization at a time, its own Morozov bisection on
# scalars, and the basis evaluated on a fresh gamma1 curve for every fit.

def per_cell_choose_mu(system, data, tau):
    b = system.rhs(data)
    beta = system.U.T @ b
    rho2 = float(np.sum((b - system.U @ beta) ** 2))
    s2, beta2 = system.s**2, beta**2

    def disc(mu):
        damp = 1.0 / (1.0 + s2 / mu)
        return float(np.sqrt((np.sum(damp**2 * beta2) + rho2) / 3.0))

    target = tau * data.eps
    if disc(1e-16) > target:
        return 1e-16, True
    if disc(1e2) <= target:
        return 1e2, False
    lo, hi = np.log(1e-16), np.log(1e2)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if disc(np.exp(mid)) <= target:
            lo = mid
        else:
            hi = mid
    return float(np.exp(lo)), False


def lift_load(mesh, flux2, flux1):
    """The load of the lift: the gamma2 flux and a gamma1 flux, zero when
    None."""
    b = forward.assemble_boundary_load(mesh, BoundaryTag.GAMMA2, flux2)
    if flux1 is not None:
        b = b + forward.assemble_boundary_load(mesh, BoundaryTag.GAMMA1, flux1)
    return b


def boundary_lift(mesh, b):
    """The lift of the load b as ``continue_data`` takes it, one product of
    the boundary block, as a nodal vector: its values on the block's nodes,
    0 elsewhere."""
    nodes, _, S = mesh.stiffness.boundary_block
    z = np.zeros(b.size)
    z[nodes] = S @ b[nodes]
    return z


def per_cell_continue_data(mesh, config, data, system):
    curve1 = trace_sample(mesh, BoundaryTag.GAMMA1, config.gamma1_samples)
    basis = system.basis

    def solve_pass(data_fit):
        if data.eps > 0:
            mu, under = per_cell_choose_mu(system, data_fit, config.tau)
        else:
            mu, under = config.mu0, False
        result = replace(fit(system, data_fit, mu), under_resolved=under)
        c = result.coefficients
        G = np.einsum("pkd,k->pd", basis.grad(curve1.points), c)
        return result, BoundaryProfile(
            t=curve1.t, v=basis.eval(curve1.points) @ c,
            w=np.einsum("pd,pd->p", G, curve1.normals),
            dv=np.einsum("pd,pd->p", G, curve1.tangents()))

    if config.lift_passes <= 0:
        result, profile = solve_pass(data)
        return profile, result
    flux2 = FluxProfile.tabulated(data.curve.t, data.g)
    n2, t2 = mesh.tag_polyline(BoundaryTag.GAMMA2)
    n1, t1 = mesh.tag_polyline(BoundaryTag.GAMMA1)
    flux1 = None
    for _ in range(config.lift_passes):
        z = boundary_lift(mesh, lift_load(mesh, flux2, flux1))
        data_fit = CauchyData(
            psi=data.psi - np.interp(data.curve.t, t2, z[n2]),
            g=np.zeros_like(data.g), eps=data.eps, curve=data.curve)
        result, rem = solve_pass(data_fit)
        z1 = np.interp(curve1.t, t1, z[n1])
        w1 = np.zeros_like(z1) if flux1 is None else flux1(curve1.t)
        profile = BoundaryProfile(
            t=curve1.t, v=rem.v + z1, w=rem.w + w1,
            dv=rem.dv + np.gradient(z1, curve1.t))
        flux1 = FluxProfile.tabulated(curve1.t, profile.w)
    return profile, result


class TestBatchMatchesPerCellReference:
    """The noise sweep's batch continuation equals the per-cell one bit for
    bit: profile, coefficients, mu and the under-resolved flag."""

    @pytest.mark.parametrize("text", [
        "",
        "continuation.basis = mfs\n",
        "continuation.lift_passes = 0\n",
        "continuation.lift_passes = 2\n",
        "sweep.eps_levels = 3e-2,1e-2,1e-3,0\nsweep.seeds = 5\n"
        "continuation.lift_passes = 2\n",
        "sweep.eps_levels = 0.5,0.3,0.1,3e-2\n",
        "sweep.eps_levels = 1e-6,1e-8,1e-10,1e-12\n",
    ], ids=["default", "mfs", "lift0", "lift2", "mixed-eps0", "mu-top",
            "under-resolved"])
    def test_cells(self, text):
        config = parse_config(text="mesh.n = 16\n" + text)
        mesh = build_rectangle_mesh(config.domain, config.mesh_n)
        u, _ = solve_forward(mesh, config.flux, config.model)
        clean = extract_cauchy_data(u, mesh, m=config.gamma2_samples)
        system = config.make_system(mesh, clean.curve)
        batch = perturb_cauchy_data(clean, [
            (eps, seed) for eps in config.eps_levels
            for seed in range(config.seeds_per_level)])
        got = continue_data(mesh, config, batch, system)
        assert len(got) == len(batch)
        for data, (profile, result) in zip(batch, got):
            ref_profile, ref_result = per_cell_continue_data(
                mesh, config, data, system)
            for name in ("t", "v", "w", "dv"):
                assert np.array_equal(getattr(profile, name),
                                      getattr(ref_profile, name)), name
            assert np.array_equal(result.coefficients,
                                  ref_result.coefficients)
            assert result.mu == ref_result.mu
            assert result.under_resolved == ref_result.under_resolved
        mus = {result.mu for _, result in got}
        if "0.5,0.3" in text:  # the search's upper end
            assert 1e2 in mus
        if "1e-12" in text:  # even the smallest mu overshoots
            assert any(result.under_resolved for _, result in got)
        if text.startswith("sweep.eps_levels = 3e-2"):  # noiseless cells
            assert config.mu0 in mus


class TestNoiseSweep:
    def test_small_sweep_shape_and_determinism(self, square):
        config = small_config(square, mesh_n=16, gamma1_samples=41,
                              gammad_samples=41, basis_degree=6)
        a = run_noise_sweep(config, config_mesh(config))
        b = run_noise_sweep(config, config_mesh(config))
        assert a.records == b.records
        assert a.theta_fit == b.theta_fit
        assert len(a.records) == 3
        eps = [r[0] for r in a.records]
        assert eps == list(config.eps_levels)
        for _, median, iqr, fails in a.records:
            assert fails <= config.seeds_per_level
            if np.isfinite(median):
                assert median > 0 and iqr >= 0

    def test_eps0_reported(self, square):
        config = small_config(square, mesh_n=16, gamma1_samples=41,
                              gammad_samples=41, basis_degree=6)
        curve = run_noise_sweep(config, config_mesh(config))
        assert curve.eps0 in config.eps_levels or curve.eps0 == 0.0


class TestSweepCellFaults:
    """A sweep cell counts only its own recovery faults as a failed cell;
    any other error is a bug and propagates."""

    def config(self, square):
        return small_config(square, mesh_n=16, gamma1_samples=41,
                            gammad_samples=41, basis_degree=6,
                            oscillation_magnitudes=(0.1, 0.2, 0.3))

    @pytest.mark.parametrize("error", [NoMonotoneSegmentError("flat"),
                                       EmptyIntervalError("trimmed away")])
    def test_recovery_faults_fail_the_cell(self, square, monkeypatch, error):
        def failing(*args):
            raise error

        monkeypatch.setattr(experiments, "recover_law", failing)
        config = self.config(square)
        curve = run_noise_sweep(config, config_mesh(config))
        assert [r[3] for r in curve.records] == [config.seeds_per_level] * 3
        assert curve.eps0 == 0.0

    def test_other_errors_propagate(self, square, monkeypatch):
        def broken(*args):
            raise TypeError("a bug, not a failed cell")

        monkeypatch.setattr(experiments, "recover_law", broken)
        config = self.config(square)
        with pytest.raises(TypeError):
            run_noise_sweep(config, config_mesh(config))

    def test_forward_failure_truncates_the_oscillation_sweep(
            self, square, monkeypatch):
        solve, calls = experiments.solve_trace, []

        def diverging(mesh, b_g, model, start=None):
            calls.append(b_g)
            if len(calls) == 3:
                raise ForwardSolveError("diverged")
            return solve(mesh, b_g, model, start=start)

        config = self.config(square)
        monkeypatch.setattr(experiments, "solve_trace", diverging)
        curve = run_oscillation_sweep(config, config_mesh(config))
        assert curve.truncated_at == 0.3 and len(curve.records) == 2

        def broken(mesh, b_g, model, start=None):
            raise TypeError("a bug, not a divergence")

        monkeypatch.setattr(experiments, "solve_trace", broken)
        with pytest.raises(TypeError):
            run_oscillation_sweep(config, config_mesh(config))


def reference_oscillation_records(config):
    """The records of run_oscillation_sweep with each oscillation read from
    the full gamma1 boundary profile, flux recovery included, of the
    polynomial flux ``config.flux`` scaled in its coefficients."""
    mesh = build_rectangle_mesh(config.domain, config.mesh_n)
    inner = inner_portion(mesh, BoundaryTag.GAMMA2,
                          2.0 * config.domain.r0, 201)
    base_sup = np.max(np.abs(config.flux(inner)))
    records = []
    for m in config.oscillation_magnitudes:
        flux = FluxProfile.polynomial(m / base_sup * config.flux.coeffs)
        u, _ = solve_forward(mesh, flux, config.model)
        v = boundary_profile(u, mesh, BoundaryTag.GAMMA1).v
        records.append((m, float(np.max(np.abs(flux(inner)))),
                        float(np.max(v) - np.min(v))))
    return tuple(records)


class TestOscillationSweep:
    @pytest.mark.parametrize("layout,width", [
        ("gammaD gamma2 gamma1 gammaD", 1.0),
        ("gamma2 gamma2 gamma1 gammaD", 2.0),  # gamma2 turns a corner
    ])
    def test_matches_the_profile_reference_without_flux_recovery(
            self, square, monkeypatch, layout, width):
        config = small_config(square, mesh_n=16,
                              domain=rectangle(width, layout),
                              model=LinearLaw(1.0),
                              oscillation_magnitudes=(0.1, 0.2, 0.3))
        expected = reference_oscillation_records(config)
        neumann, calls = forward.neumann_trace, []

        def counting(*args):
            calls.append(args)
            return neumann(*args)

        monkeypatch.setattr(forward, "neumann_trace", counting)
        records = run_oscillation_sweep(config, config_mesh(config)).records
        assert calls == []
        # the sweep continues in the magnitude, the reference starts each
        # solve from zero: both stop at the Newton tolerance
        assert [r[:2] for r in records] == [r[:2] for r in expected]
        np.testing.assert_allclose([r[2] for r in records],
                                   [r[2] for r in expected], rtol=1e-9)

    @pytest.mark.parametrize("text", [
        "",
        "oscillation.magnitudes = -1,-0.5,0,0.5,1",
        "flux.coeffs = 0.3,1,-2.7",
        "flux.kind = tabulated\nflux.t_knots = 0,0.3,1\n"
        "flux.g_knots = 0.1,0.77,0.35",
        "flux.kind = constant\nflux.value = 0.37",
    ], ids=["default", "signs", "polynomial", "tabulated", "constant"])
    def test_gsup_is_the_magnitude(self, text):
        # the sup of the scaled flux on the inner gamma2 portion
        config = parse_config(text="mesh.n = 16\n" + text)
        records = run_oscillation_sweep(config, config_mesh(config)).records
        assert [m for m, _, _ in records] == list(
            config.oscillation_magnitudes)
        for m, gsup, _ in records:
            assert abs(gsup - abs(m)) <= 4 * np.spacing(abs(m))

    def test_monotone_and_positive(self, square):
        config = small_config(
            square, mesh_n=16,
            oscillation_magnitudes=tuple(np.linspace(0.1, 1.0, 10)))
        curve = run_oscillation_sweep(config, config_mesh(config))
        oscs = [o for _, _, o in curve.records]
        assert len(oscs) == 10
        assert all(o > 0 for o in oscs)
        assert all(a < b for a, b in zip(oscs, oscs[1:]))
        assert curve.truncated_at is None

    def test_zero_flux_zero_oscillation(self, square):
        # the degenerate case: no current in, identically zero potential
        config = small_config(square, mesh_n=16)
        mesh = build_rectangle_mesh(square, 16)
        u, _ = solve_forward(mesh, FluxProfile.constant(0.0), config.model)
        assert float(np.max(u) - np.min(u)) == 0.0

    def test_vanishing_base_flux(self, square):
        config = small_config(square, mesh_n=16,
                              flux=FluxProfile.constant(0.0),
                              oscillation_magnitudes=(0.1, 0.2, 0.3))
        with pytest.raises(FieldError) as info:
            run_oscillation_sweep(config, config_mesh(config))
        assert info.value.key == "flux.value"

    def test_margin_leaves_no_inner_portion(self, square):
        from dataclasses import replace

        config = small_config(square, mesh_n=16,
                              domain=replace(square, r0=0.6),
                              oscillation_magnitudes=(0.1, 0.2, 0.3))
        with pytest.raises(FieldError) as info:
            run_oscillation_sweep(config, config_mesh(config))
        assert info.value.key == "domain.r0"


class TestOscillationContinuation:
    """The sweep continued in the magnitude against the cold-started
    oracle, each solve from zero: the same records to the Newton
    tolerance and the same truncation, in fewer Newton iterations."""

    @staticmethod
    def cold_sweep(monkeypatch, config, mesh):
        """run_oscillation_sweep with every solve started from zero; the
        stand-in stays for the rest of the test."""
        solve = experiments.solve_trace
        monkeypatch.setattr(
            experiments, "solve_trace",
            lambda mesh, b_g, model, start=None: solve(mesh, b_g, model))
        return run_oscillation_sweep(config, mesh)

    @pytest.mark.parametrize("text, truncated_at", [
        ("", None),
        # the steep law fails to solve at 8, warm or cold
        ("model.lam = 3\noscillation.magnitudes = "
         + ",".join(str(2 ** k) for k in range(10)), 8.0),
        # the scaled field solves a linear law exactly
        ("model.kind = linear\nmodel.slope = 1.0", None),
        # cold starts at the magnitude 0 and after it
        ("oscillation.magnitudes = -1,-0.5,0,0.5,1", None),
        # a cold start where the sign changes
        ("oscillation.magnitudes = -1,-0.5,0.5,1", None),
    ], ids=["default", "truncated", "linear", "through-zero",
            "sign-change"])
    def test_matches_the_cold_sweep(self, monkeypatch, text, truncated_at):
        config = parse_config(text=text)
        mesh = build_rectangle_mesh(config.domain, config.mesh_n)
        warm = run_oscillation_sweep(config, mesh)
        cold = self.cold_sweep(monkeypatch, config, mesh)
        assert warm.truncated_at == cold.truncated_at == truncated_at
        assert [r[:2] for r in warm.records] == [r[:2] for r in cold.records]
        np.testing.assert_allclose([r[2] for r in warm.records],
                                   [r[2] for r in cold.records], rtol=1e-9)
        assert len(warm.newton_iterations) == len(warm.records)
        assert sum(warm.newton_iterations) < sum(cold.newton_iterations)
        # a cold start at the first magnitude, after a 0 and at a change
        # of sign takes the cold sweep's iterations
        mags = (0.0, *config.oscillation_magnitudes)
        for k, iterations in enumerate(warm.newton_iterations):
            if mags[k] == 0 or mags[k + 1] / mags[k] < 0:
                assert iterations == cold.newton_iterations[k]

    # m_k / m_{k-1} = 1e310 overflows: the solve at 1e300 starts from zero,
    # as the cold sweep's does, and fails in both
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_an_overflowing_start_is_a_cold_start(self, monkeypatch):
        config = parse_config(text="mesh.n = 4\nmodel.kind = linear\n"
                                   "model.slope = 1.0\n"
                                   "oscillation.magnitudes = 1e-10,1e300")
        warm = run_oscillation_sweep(config, config_mesh(config))
        cold = self.cold_sweep(monkeypatch, config, config_mesh(config))
        assert warm.truncated_at == cold.truncated_at == 1e300
        assert warm.records == cold.records
        assert warm.newton_iterations == cold.newton_iterations

    def test_one_capacitance_per_mesh(self, monkeypatch):
        # the lifts of the noise sweep and every Newton solve of both
        # sweeps read the one boundary block
        capacitance, calls = forward.Stiffness.capacitance, []

        def counting(self, nodes):
            calls.append(nodes)
            return capacitance(self, nodes)

        monkeypatch.setattr(forward.Stiffness, "capacitance", counting)
        config = parse_config(text="")
        mesh = build_rectangle_mesh(config.domain, config.mesh_n)
        run_noise_sweep(config, mesh)
        run_oscillation_sweep(config, mesh)
        assert len(calls) == 1


class TestPerMeshWork:
    def test_one_stiffness_per_mesh(self, square, monkeypatch):
        assembled = []
        assemble = forward.assemble_stiffness

        def counting_assemble(mesh):
            assembled.append(mesh)
            return assemble(mesh)

        monkeypatch.setattr(forward, "assemble_stiffness", counting_assemble)
        config = small_config(square, mesh_n=16,
                              oscillation_magnitudes=(0.1, 0.2, 0.3))
        mesh = build_rectangle_mesh(square, 16)
        # Newton steps and the lift both solve with the mesh's stiffness
        solve_forward(mesh, config.flux, config.model)
        # 15 cells, each with a lift, then 3 Newton solves
        run_noise_sweep(config, mesh)
        run_oscillation_sweep(config, mesh)
        assert assembled == [mesh]

    def test_sweeps_on_a_shared_mesh_match_their_own(self, square):
        # each sweep on the mesh the other one used gives what it gives
        # on a new mesh
        config = small_config(square, mesh_n=16,
                              oscillation_magnitudes=(0.1, 0.2, 0.3))
        mesh = build_rectangle_mesh(square, 16)
        noise = run_noise_sweep(config, mesh)
        assert (run_oscillation_sweep(config, mesh)
                == run_oscillation_sweep(config, config_mesh(config)))
        assert run_noise_sweep(config, mesh) == noise

    def test_stored_stiffness_matches_a_fresh_one(self, square):
        mesh = build_rectangle_mesh(square, 32)
        size = mesh.nodes.shape[0]
        rng = np.random.default_rng(0)
        mesh.stiffness.solve(rng.normal(size=size))
        fresh = forward.Stiffness(mesh)
        for _ in range(3):
            b = rng.normal(size=size)
            assert np.array_equal(mesh.stiffness.solve(b), fresh.solve(b))
            assert np.array_equal(mesh.stiffness(b), fresh(b))

    # the lift's oracle: the grid solve of its load on a fresh stiffness,
    # read on the two chains; with gamma2 on the bottom and gamma1 on the
    # right, the jump between the joined chains changes the row, as a
    # column step does, and with gamma1 and gamma2 on opposite sides the
    # chains share no node
    @pytest.mark.parametrize("layout", [
        "gammaD gamma2 gamma1 gammaD", "gamma2 gamma1 gammaD gammaD",
        "gammaD gamma1 gammaD gamma2"])
    def test_lift_matches_a_grid_solve(self, layout):
        mesh = build_rectangle_mesh(rectangle(1.0, layout), 32)
        flux2 = FluxProfile.polynomial([0.1, 1.0])
        flux1 = FluxProfile.tabulated([0.0, 0.5, 1.0], [0.2, -0.1, 0.3])
        chains = np.concatenate([mesh.tag_polyline(BoundaryTag.GAMMA2)[0],
                                 mesh.tag_polyline(BoundaryTag.GAMMA1)[0]])
        fresh = forward.Stiffness(mesh)
        for f1 in (None, flux1):
            b = lift_load(mesh, flux2, f1)
            want = fresh.solve(b)[chains]
            got = boundary_lift(mesh, b)[chains]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def factored(coefficients):
    """The QR factors disk_integral takes, of a coefficient vector or of
    the columns of a coefficient matrix."""
    c = np.asarray(coefficients, dtype=float)
    return np.linalg.qr(c.reshape(c.shape[0], -1))


class TestDiskIntegral:
    def test_constant_field(self):
        basis = HarmonicPolynomialBasis(2, (0.0, 0.0))
        c = np.zeros(basis.size)
        c[0] = 2.0  # u = 2 -> integral of u^2 is 4 * pi r^2
        r = 0.7
        [value] = disk_integral(basis, factored(c), (0.3, 0.4), r)
        assert value == pytest.approx(4.0 * np.pi * r**2, rel=1e-12)

    def test_linear_field(self):
        # u = x about the disk center: integral of x^2 over the disk of
        # radius r is pi r^4 / 4
        basis = HarmonicPolynomialBasis(2, (0.5, 0.5))
        c = np.zeros(basis.size)
        c[1] = 1.0  # Re z = x - 0.5
        r = 0.4
        [value] = disk_integral(basis, factored(c), (0.5, 0.5), r)
        assert value == pytest.approx(np.pi * r**4 / 4.0, rel=1e-10)

    def test_columns_match_single_column_calls(self, square):
        basis = small_config(square).make_basis()
        coeffs = np.random.default_rng(1).standard_normal((basis.size, 4))
        batched = disk_integral(basis, factored(coeffs), (0.5, 0.5), 0.3)
        assert batched.shape == (4,)
        single = [disk_integral(basis, factored(coeffs[:, k]), (0.5, 0.5),
                                0.3)[0] for k in range(4)]
        np.testing.assert_allclose(batched, single, rtol=1e-12)

    def test_one_column_gives_one_integral(self):
        basis = HarmonicPolynomialBasis(2, (0.0, 0.0))
        value = disk_integral(basis, factored(np.ones(basis.size)),
                              (0.0, 0.0), 0.5)
        assert value.shape == (1,) and value.dtype == np.float64

    # poly and MFS, bare and with corner terms, and a basis (65 columns)
    # wider than the trial counts, against the pointwise Gauss-Legendre x
    # trapezoid sum over the whole disk
    @pytest.mark.parametrize("kind,corners,degree", [
        ("poly", False, 8), ("poly", True, 8), ("mfs", False, 8),
        ("mfs", True, 8), ("poly", True, 30)])
    @pytest.mark.parametrize("trials", [None, 1, 7, 40])
    def test_matches_pointwise_reference(self, square, kind, corners,
                                         degree, trials):
        basis = small_config(square, basis_kind=kind, corner_terms=corners,
                             basis_degree=degree, mfs_charges=32).make_basis()
        shape = (basis.size,) if trials is None else (basis.size, trials)
        coeffs = np.random.default_rng(2).standard_normal(shape)
        for center, radius in (((0.5, 0.5), 0.3), ((0.2, 0.7), 0.05)):
            got = disk_integral(basis, factored(coeffs), center, radius)
            want = reference_disk_integral(basis, coeffs, center, radius)
            np.testing.assert_allclose(got, np.atleast_1d(want), rtol=1e-12)

    def test_overflow_names_the_degree(self):
        basis = HarmonicPolynomialBasis(500, (0.0, 0.0))
        with pytest.raises(FieldError) as info:
            disk_integral(basis, factored(np.ones((basis.size, 3))),
                          (3.0, 3.0), 2.0)
        assert info.value.key == "continuation.degree"

    # Re z^k about the disk center has the integral pi r^(2k+2) / (2k+2)
    # of its square; k = 127 is the last mode below the ring's Nyquist mode
    @pytest.mark.parametrize("k", [1, 8, 64, 127])
    def test_single_mode_exact(self, k):
        center, r = (0.2, 0.7), 0.6
        basis = HarmonicPolynomialBasis(k, center)

        class SingleMode:
            size = 1

            def eval(self, points):
                return basis.eval(points)[:, 2 * k - 1:2 * k]

        [value] = disk_integral(SingleMode(), factored([1.0]), center, r)
        assert value == pytest.approx(
            np.pi * r ** (2 * k + 2) / (2 * k + 2), rel=1e-13)


def reference_disk_integral(basis, coefficients, center, radius,
                            nr=96, ntheta=256):
    """The disk integral point by point, one radius at a time: the sum over
    Gauss radii s and trapezoid angles of w s (B c)^2, with no Gram matrix,
    blocking or factorization of the coefficients."""
    center = np.asarray(center, dtype=float)
    coefficients = np.asarray(coefficients, dtype=float)
    xg, wg = np.polynomial.legendre.leggauss(nr)
    s = 0.5 * radius * (xg + 1.0)
    ws = 0.5 * radius * wg
    theta = 2.0 * np.pi * np.arange(ntheta) / ntheta
    cs = np.column_stack([np.cos(theta), np.sin(theta)])
    total = np.zeros(coefficients.shape[1:])
    for si, wi in zip(s, ws):
        vals = basis.eval(center[None, :] + si * cs) @ coefficients
        total += wi * si * np.sum(vals**2, axis=0) * (2.0 * np.pi / ntheta)
    return float(total) if coefficients.ndim == 1 else total


class TestThreeSpheres:
    def test_exponents_in_range(self, square):
        basis = HarmonicPolynomialBasis(6, (0.5, 0.5))
        taus = three_spheres_check(basis, trials=20, rho0=0.1,
                                   center=(0.5, 0.5), domain=square)
        assert taus.shape == (20,)
        assert np.all(taus > 0.0)
        assert np.all(taus <= 1.0)

    def test_single_mode_closed_form(self):
        # for u = Re z^k about the center, I_r grows like r^(2k+2), so
        # tau_max = 1 - log 3 / log 4 independent of k
        expected = 1.0 - np.log(3.0) / np.log(4.0)
        basis = HarmonicPolynomialBasis(3, (0.5, 0.5))

        class SingleMode:
            size = 1

            def eval(self, points):
                return basis.eval(points)[:, 5:6]  # Re z^3

        rng_free = three_spheres_check(SingleMode(), trials=10, rho0=0.05,
                                       center=(0.5, 0.5))
        np.testing.assert_allclose(rng_free, expected, atol=1e-10)

    def test_geometric_rejection(self, square):
        basis = HarmonicPolynomialBasis(3, (0.5, 0.5))
        with pytest.raises(GeometryError):
            three_spheres_check(basis, trials=10, rho0=0.2,
                                center=(0.5, 0.5), domain=square)
        with pytest.raises(GeometryError):
            three_spheres_check(basis, trials=10, rho0=0.05,
                                center=(1.5, 0.5), domain=square)

    def test_parameter_validation(self):
        basis = HarmonicPolynomialBasis(2, (0.0, 0.0))
        with pytest.raises(ValueError):
            three_spheres_check(basis, trials=5, rho0=0.1, center=(0, 0))
        with pytest.raises(ValueError):
            three_spheres_check(basis, trials=10, rho0=0.0, center=(0, 0))

    def test_seed_determinism(self):
        basis = HarmonicPolynomialBasis(4, (0.5, 0.5))
        a = three_spheres_check(basis, 10, 0.1, (0.5, 0.5), seed=3)
        b = three_spheres_check(basis, 10, 0.1, (0.5, 0.5), seed=3)
        np.testing.assert_array_equal(a, b)


def per_trial_taus(basis, trials, rho0, center, seed):
    """The three-spheres exponents one trial at a time: one coefficient draw
    and three pointwise reference disk integrals per trial."""
    rng = np.random.default_rng(seed)
    taus = np.empty(trials)
    for k in range(trials):
        c = rng.standard_normal(basis.size)
        i1, i3, i4 = (reference_disk_integral(basis, c, center, r * rho0)
                      for r in (1.0, 3.0, 4.0))
        taus[k] = np.clip(
            (np.log(i4) - np.log(i3)) / (np.log(i4) - np.log(i1)), 0.0, 1.0)
    return taus


class CountingBasis:
    """Wraps a basis and records the number of points of each ``eval``."""

    def __init__(self, inner):
        self.inner = inner
        self.size = inner.size
        self.rows = []

    def eval(self, points):
        self.rows.append(len(points))
        return self.inner.eval(points)


class TestBatchedThreeSpheres:
    def test_one_factorization_per_check(self, square, monkeypatch):
        # the trial coefficients are factored once for all three disks, and
        # the exponents are those of one factorization per disk integral
        basis = small_config(square).make_basis()
        args = dict(trials=12, rho0=0.1, center=(0.5, 0.5), seed=5)
        coeffs = np.random.default_rng(5).standard_normal((12, basis.size)).T
        i1, i3, i4 = (disk_integral(basis, np.linalg.qr(coeffs), (0.5, 0.5),
                                    r * 0.1) for r in (1.0, 3.0, 4.0))
        old = np.clip((np.log(i4) - np.log(i3)) / (np.log(i4) - np.log(i1)),
                      0.0, 1.0)
        qr, calls = np.linalg.qr, []

        def counting_qr(a, *rest, **kwargs):
            calls.append(a.shape)
            return qr(a, *rest, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        taus = three_spheres_check(basis, **args)
        assert calls == [(basis.size, 12)]
        assert np.array_equal(taus, old)

    # the default ball, one whose outer circle touches the square's sides
    # (rho0 = 0.125) and one off the centroid
    @pytest.mark.parametrize("center,rho0", [
        ((0.5, 0.5), 0.1), ((0.5, 0.5), 0.125), ((0.3, 0.5), 0.05)],
        ids=["default", "touching", "off-centre"])
    @pytest.mark.parametrize("basis_kind", ["poly", "mfs"])
    def test_matches_per_trial_reference(self, square, basis_kind, center,
                                         rho0):
        basis = small_config(square, basis_kind=basis_kind).make_basis()
        args = dict(trials=12, rho0=rho0, center=center, seed=5)
        batched = three_spheres_check(basis, domain=square, **args)
        np.testing.assert_allclose(batched, per_trial_taus(basis, **args),
                                   rtol=1e-12)

    # one ring of 256 points per disk, whatever the trial count and the
    # basis width (21 or 305 columns)
    @pytest.mark.parametrize("degree", [8, 150])
    @pytest.mark.parametrize("trials", [10, 40])
    def test_one_ring_per_disk(self, square, degree, trials):
        basis = CountingBasis(
            small_config(square, basis_degree=degree).make_basis())
        three_spheres_check(basis, trials, 0.1, (0.5, 0.5))
        assert basis.rows == [256, 256, 256]

    def test_subnormal_integral_is_underflow(self):
        # at rho0 = 1e-159 the integrals are subnormal and have lost their
        # digits: the exponent of a constant-dominated field would read
        # about 0.2063, not 1 - log 3 / log 4
        basis = HarmonicPolynomialBasis(4, (0.5, 0.5))
        with pytest.raises(FieldError) as info:
            three_spheres_check(basis, 10, 1e-159, (0.5, 0.5))
        assert info.value.key == "check.rho0"
