"""Acceptance suite: one test and one printed pass/fail line per criterion.

The lines are written past pytest's capture so the verdicts always appear
in the run log, in order, regardless of verbosity.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from corrinv.config import parse_config
from corrinv.continuation import (
    CauchyData,
    HarmonicPolynomialBasis,
    design_matrix,
    evaluate_on_gamma1,
    fit,
)
from corrinv.experiments import (
    fit_rate,
    reconstruct_from_data,
    run_noise_sweep,
    run_oscillation_sweep,
    three_spheres_check,
    truth_on_interval,
)
from corrinv.forward import (
    ExponentialLaw,
    FluxProfile,
    LinearLaw,
    TabulatedLaw,
    extract_cauchy_data,
    solve_forward,
)
from corrinv.geometry import BoundaryTag, build_rectangle_mesh, trace_sample
from corrinv.reconstruction import (
    BoundaryProfile,
    NoMonotoneSegmentError,
    find_monotone_segment,
    overlap_and_error,
)

from conftest import UNIT_SQUARE, l2_error_on_mesh
from test_forward import solve_forward_picard

D, G1, G2 = BoundaryTag.GAMMAD, BoundaryTag.GAMMA1, BoundaryTag.GAMMA2

XY_FLUX = FluxProfile.polynomial([0.0, 1.0])


@pytest.fixture
def verdict(capsys):
    def _verdict(num, ok, detail):
        line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _verdict


def xy_config(**overrides):
    kwargs = dict(
        domain=UNIT_SQUARE, mesh_n=128, model=LinearLaw(1.0), flux=XY_FLUX,
        eps_levels=(1e-2, 1e-4, 1e-6), seeds_per_level=10, basis_degree=8,
    )
    kwargs.update(overrides)
    return replace(parse_config(text=""), **kwargs)


def test_criterion_1_forward_convergence(verdict):
    l2_errs, en_errs = [], []
    ns = (8, 16, 32, 64)
    for n in ns:
        mesh = build_rectangle_mesh(UNIT_SQUARE, n)
        t0 = time.perf_counter()
        u, report = solve_forward(mesh, XY_FLUX, LinearLaw(1.0))
        dt = time.perf_counter() - t0
        assert dt < 5.0, f"solve at n={n} took {dt:.1f}s"
        l2_errs.append(l2_error_on_mesh(mesh, u, lambda x, y: x * y))
        en_errs.append(abs(report.energy - 2.0 / 3.0))
    h = 1.0 / np.asarray(ns)
    l2_slope = np.polyfit(np.log(h), np.log(l2_errs), 1)[0]
    en_slope = np.polyfit(np.log(h), np.log(en_errs), 1)[0]
    verdict(1, l2_slope >= 1.8 and en_slope >= 0.9,
            f"L2 slope {l2_slope:.2f} (>= 1.8), "
            f"energy slope {en_slope:.2f} (>= 0.9)")


def test_criterion_2_weak_form_residual(verdict):
    worst = 0.0
    cases = [
        (XY_FLUX, LinearLaw(1.0), 32),
        (XY_FLUX, ExponentialLaw(0.1, 0.5), 64),
        (FluxProfile.constant(0.5), ExponentialLaw(0.3, 0.25), 16),
    ]
    for flux, law, n in cases:
        mesh = build_rectangle_mesh(UNIT_SQUARE, n)
        _, report = solve_forward(mesh, flux, law)
        assert report.residual <= 1e-12  # the solve's default tolerance
        worst = max(worst, report.residual)
    verdict(2, worst <= 1e-10, f"max residual {worst:.2e} (<= 1e-10)")


def test_criterion_3_noiseless_continuation(verdict):
    # exact Cauchy data of u = xy on the right side: psi = y, g = y
    mesh = build_rectangle_mesh(UNIT_SQUARE, 32)
    curve2 = trace_sample(mesh, G2, 101)
    y = curve2.points[:, 1]
    data = CauchyData(psi=y, g=y, eps=0.0, curve=curve2)
    gammad = trace_sample(mesh, D, 129)
    basis = HarmonicPolynomialBasis(4, UNIT_SQUARE.centroid())
    curve1 = trace_sample(mesh, G1, 101)
    system = design_matrix(basis, curve2, gammad, curve1)
    prof = evaluate_on_gamma1(system, fit(system, data, 1e-12).coefficients)
    x = curve1.points[:, 0]
    err_u = float(np.max(np.abs(prof.v - x)))
    err_w = float(np.max(np.abs(prof.w - x)))  # du/dy = x on the top
    verdict(3, err_u <= 1e-6 and err_w <= 1e-6,
            f"trace sup error {err_u:.2e}, flux sup error {err_w:.2e} "
            f"(<= 1e-6)")


def test_criterion_4_noiseless_end_to_end(verdict):
    t0 = time.perf_counter()
    config = xy_config()
    mesh = build_rectangle_mesh(UNIT_SQUARE, config.mesh_n)
    u, _ = solve_forward(mesh, config.flux, config.model)
    data = extract_cauchy_data(u, mesh)
    [(rec, *_)] = reconstruct_from_data(mesh, config, [data],
                                        config.make_system(mesh, data.curve))
    truth = truth_on_interval(config.model, rec.interval)
    interval, err = overlap_and_error(rec, truth)
    dt = time.perf_counter() - t0
    length = interval[1] - interval[0]
    verdict(4, err <= 1e-3 and length >= 0.5 and dt < 30.0,
            f"sup error {err:.2e} (<= 1e-3), |V| = {length:.3f} (>= 0.5), "
            f"{dt:.1f}s (< 30s)")


def test_criterion_5_exponential_recovery(verdict):
    config = xy_config(
        mesh_n=64, model=ExponentialLaw(lam=0.1, a=0.5),
        eps_levels=(1e-2, 1e-4, 1e-6), seeds_per_level=20)
    curve = run_noise_sweep(config)
    medians = {eps: med for eps, med, _, _ in curve.records}
    fails = sum(f for _, _, _, f in curve.records)
    ok = (medians[1e-6] <= 5e-2
          and medians[1e-2] >= medians[1e-4] >= medians[1e-6]
          and fails == 0)
    verdict(5, ok,
            f"median sup errors {medians[1e-2]:.3g} / {medians[1e-4]:.3g} / "
            f"{medians[1e-6]:.3g} at eps 1e-2/1e-4/1e-6 "
            f"(last <= 5e-2, nonincreasing), {fails} failures")


def test_criterion_6_log_stability_fit(verdict):
    config = parse_config(text="")
    curve = run_noise_sweep(config)
    pts = [(e, m) for e, m, _, _ in curve.records if np.isfinite(m)]
    _, theta, resid = fit_rate([p[0] for p in pts], [p[1] for p in pts],
                               "log_power")
    verdict(6, 0.0 < theta <= 1.5 and resid <= 0.3,
            f"theta = {theta:.3f} (in (0, 1.5]), "
            f"fit residual {resid:.3f} (<= 0.3)")


def test_criterion_7_oscillation_surrogate(verdict):
    config = xy_config(
        mesh_n=32, model=ExponentialLaw(0.1, 0.5),
        oscillation_magnitudes=tuple(np.round(np.linspace(0.1, 1.0, 10), 2)))
    curve = run_oscillation_sweep(config)
    oscs = [o for _, _, o in curve.records]
    increasing = all(a < b for a, b in zip(oscs, oscs[1:]))
    positive = all(o > 0 for o in oscs)
    # the degenerate case: zero current in gives a zero potential exactly
    mesh = build_rectangle_mesh(UNIT_SQUARE, 32)
    u, _ = solve_forward(mesh, FluxProfile.constant(0.0),
                         ExponentialLaw(0.1, 0.5))
    osc0 = float(np.max(u) - np.min(u))
    verdict(7, positive and increasing and osc0 == 0.0,
            f"osc > 0 and strictly increasing over 10 magnitudes, "
            f"osc = {osc0:g} for g = 0")


def test_criterion_8_three_spheres(verdict):
    basis = HarmonicPolynomialBasis(8, (0.5, 0.5))
    taus = three_spheres_check(basis, trials=100, rho0=0.1,
                               center=(0.5, 0.5), domain=UNIT_SQUARE)

    class ConstMode:
        size = 1

        def eval(self, points):
            return np.ones((np.atleast_2d(points).shape[0], 1))

    const_taus = three_spheres_check(ConstMode(), trials=10, rho0=0.1,
                                     center=(0.5, 0.5))
    expected = 1.0 - np.log(3.0) / np.log(4.0)
    const_err = float(np.max(np.abs(const_taus - expected)))
    verdict(8, bool(np.all(taus > 0)) and const_err <= 1e-6,
            f"tau_max in [{taus.min():.4f}, {taus.max():.4f}] over 100 "
            f"trials (> 0), constant closed form within {const_err:.1e} "
            f"(<= 1e-6)")


def test_criterion_9_oracle_equivalences(verdict):
    # (a) monotone-segment search vs exhaustive interval scan
    rng = np.random.default_rng(7)
    agree = True
    for _ in range(50):
        n = int(rng.integers(5, 200))
        t = np.unique(np.concatenate([[0.0, 1.0],
                                      rng.uniform(0, 1, n - 2)]))
        v = np.cumsum(rng.normal(0.0, 0.1, t.size))
        p = BoundaryProfile(t=t, v=v, w=rng.normal(size=t.size),
                            dv=np.gradient(v, t))
        eta = 0.25 * np.max(np.abs(p.dv))
        best = None
        for i in range(t.size - 1):
            for j in range(i + 1, t.size):
                s = p.dv[i:j + 1]
                if np.min(np.abs(s)) < eta:
                    continue
                if not (np.all(s > 0) or np.all(s < 0)):
                    continue
                dvv = np.diff(p.v[i:j + 1])
                if not (np.all(dvv > 0) or np.all(dvv < 0)):
                    continue
                if np.sign(dvv[0]) != np.sign(s[0]):
                    continue
                score = np.min(np.abs(s)) * (t[j] - t[i])
                if best is None or score > best[0] + 1e-15:
                    best = (score, i, j)
        try:
            seg = find_monotone_segment(p, eta)
            found = (seg.i0, seg.i1)
        except NoMonotoneSegmentError:
            found = None
        expected = None if best is None else (best[1], best[2])
        if found != expected:
            agree = False
            break

    # (b) Newton vs Picard fixed-point oracle
    mesh = build_rectangle_mesh(UNIT_SQUARE, 16)
    scenarios = [
        (XY_FLUX, ExponentialLaw(0.1, 0.5)),
        (XY_FLUX, ExponentialLaw(0.3, 0.25)),
        (XY_FLUX, LinearLaw(1.0)),
        (FluxProfile.constant(0.5), ExponentialLaw(0.2, 0.7)),
        (FluxProfile.polynomial([0.2, 0.0, 0.5]),
         TabulatedLaw([-1.0, 0.0, 1.0], [-0.5, 0.0, 0.8])),
    ]
    newton_picard = 0.0
    for flux, law in scenarios:
        un, _ = solve_forward(mesh, flux, law)
        up, _ = solve_forward_picard(mesh, flux, law)
        newton_picard = max(newton_picard,
                            float(np.max(np.abs(un - up))))

    # (c) design-matrix normal equations vs dense-quadrature oracle
    from scipy.integrate import simpson

    curve2 = trace_sample(mesh, G2, 65)
    y = curve2.points[:, 1]
    data = CauchyData(psi=2 * y, g=2 * y, eps=0.0, curve=curve2)
    gammad = trace_sample(mesh, D, 129)
    basis = HarmonicPolynomialBasis(3, (0.5, 0.5))
    A = design_matrix(basis, curve2, gammad, trace_sample(mesh, G1, 101)).A
    gram = A.T @ A
    V2 = basis.eval(curve2.points)
    dn2 = np.einsum("pkd,pd->pk", basis.grad(curve2.points), curve2.normals)
    VD = basis.eval(gammad.points)
    oracle = np.zeros_like(gram)
    for i in range(basis.size):
        for j in range(basis.size):
            oracle[i, j] = (simpson(V2[:, i] * V2[:, j], x=data.curve.t)
                            + simpson(dn2[:, i] * dn2[:, j], x=data.curve.t)
                            + simpson(VD[:, i] * VD[:, j], x=gammad.t))
    gram_err = float(np.max(np.abs(gram - oracle)))

    verdict(9, agree and newton_picard < 1e-8 and gram_err < 1e-6,
            f"segment scan matches exhaustive oracle on 50 profiles, "
            f"Newton-Picard sup {newton_picard:.1e} (< 1e-8), "
            f"quadrature oracle gap {gram_err:.1e} (< 1e-6)")


def test_criterion_10_determinism(tmp_path, verdict):
    from corrinv import cli

    cfg = tmp_path / "run.cfg"
    cfg.write_text("mesh.n = 32\nnoise.eps = 1e-3\nsamples.gamma1 = 61\n"
                   "samples.gammad = 81\n")
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = cli.main(["pipeline", "--config", str(cfg), "--out", str(out),
                         "--quiet"])
        assert code == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    identical = names == sorted(p.name for p in outs[1].iterdir()) and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
        for n in names)
    verdict(10, identical,
            f"{len(names)} pipeline output files byte-identical across reruns")
