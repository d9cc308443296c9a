"""End-to-end stability experiments.

Noise sweeps probe the logarithmic stability of the recovered corrosion law,
flux-magnitude sweeps probe the lower bound on the trace oscillation, and a
quadrature check verifies the three-spheres log-convexity of harmonic
functions.  Fitted rate constants are empirical and reported with residuals;
they are not the worst-case constants of the estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from corrinv.continuation import (
    CauchyData,
    ContinuationSystem,
    CornerSingularBasis,
    FieldError,
    FundamentalSolutionBasis,
    HarmonicPolynomialBasis,
    choose_mu,
    design_matrix,
    evaluate_on_gamma1,
    fit,
)
from corrinv.forward import (
    FluxProfile,
    ForwardSolveError,
    NonlinearityModel,
    assemble_boundary_load,
    extract_cauchy_data,
    perturb_cauchy_data,
    solve_forward,
)
from corrinv.geometry import (
    BoundaryTag,
    DomainSpec,
    EmptyPortionError,
    GeometryError,
    Mesh,
    build_rectangle_mesh,
    inner_portion,
    segment_distance,
    trace_sample,
)
from corrinv.reconstruction import (
    BoundaryProfile,
    EmptyIntervalError,
    NoMonotoneSegmentError,
    ReconstructedNonlinearity,
    extract_f,
    find_monotone_segment,
    overlap_and_error,
)


def __getattr__(name):
    # perfbench/tracer.py reads experiments.spsolve at install, though the
    # lift uses the mesh's solver; ROADMAP item 1 deletes this shim
    if name == "spsolve":
        from scipy.sparse.linalg import spsolve

        return spsolve
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated settings of one run: forward problem, continuation, law
    recovery, sweeps and three-spheres check.  ``corrinv.config.parse_config``
    fills every field from its key table; ``gamma2_samples`` is None when
    ``samples.gamma2`` is not set."""

    domain: DomainSpec
    mesh_n: int
    model: NonlinearityModel
    flux: FluxProfile
    eps_levels: tuple
    seeds_per_level: int
    basis_kind: str
    basis_degree: int
    mfs_charges: int
    mfs_offset_factor: float
    gamma1_samples: int
    gamma2_samples: int | None
    gammad_samples: int
    eta_factor: float
    trim_factor: float
    mu0: float
    tau: float
    lift_passes: int
    corner_terms: bool
    noise_eps: float
    noise_seed: int
    oscillation_magnitudes: tuple
    check_trials: int
    check_rho0: float
    check_center: tuple
    check_seed: int

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_levels)
        if len(eps) < 3:
            raise FieldError("eps_levels", "need at least three noise levels")
        if not all(a > b for a, b in zip(eps, eps[1:])):
            raise FieldError("eps_levels",
                             "noise levels must be strictly decreasing")
        if any(e < 0 for e in eps):
            raise FieldError("eps_levels", "noise levels must be nonnegative")
        if any(e >= 1 for e in eps):
            raise FieldError("eps_levels", "noise levels must be below 1, "
                             "where C |log eps|^-theta falls with eps")
        if self.seeds_per_level < 5:
            raise FieldError("seeds_per_level",
                             "need at least five seeds per level")
        if self.check_trials > 1_000_000:
            raise FieldError("check_trials", "must be <= 1000000: the "
                             "coefficients of all trials are held at once")
        mags = tuple(float(m) for m in self.oscillation_magnitudes)
        if not all(a < b for a, b in zip(mags, mags[1:])):
            raise FieldError("oscillation_magnitudes",
                             "magnitudes must be strictly increasing")
        object.__setattr__(self, "eps_levels", eps)
        object.__setattr__(self, "oscillation_magnitudes", mags)

    @property
    def model_kind(self) -> str:
        """``model.kind`` of the law: its class name without ``Law``."""
        return type(self.model).__name__.removesuffix("Law").lower()

    def make_basis(self):
        if self.basis_kind == "poly":
            inner = HarmonicPolynomialBasis(self.basis_degree,
                                            self.domain.centroid())
        elif self.basis_kind == "mfs":
            offset = self.mfs_offset_factor * self.domain.diameter()
            inner = FundamentalSolutionBasis.around_polygon(
                self.domain.vertices, self.mfs_charges, offset)
        else:
            raise ValueError(f"unknown basis kind {self.basis_kind!r}")
        if self.corner_terms:
            return CornerSingularBasis.around_gamma2(inner, self.domain)
        return inner

    def make_system(self, mesh: Mesh, curve2) -> ContinuationSystem:
        """The continuation system of this basis on the gamma2 sample curve
        ``curve2`` and the configured gammaD and gamma1 samples of
        ``mesh``."""
        return design_matrix(
            self.make_basis(), curve2,
            trace_sample(mesh, BoundaryTag.GAMMAD, self.gammad_samples),
            trace_sample(mesh, BoundaryTag.GAMMA1, self.gamma1_samples))


@dataclass(frozen=True)
class StabilityCurve:
    """Per-noise-level medians of the sup error of the recovered law, and
    the fitted log-power rate err = C * |log eps|^(-theta)."""

    records: tuple  # (eps, median_err, iqr, failures)
    c_fit: float
    theta_fit: float
    fit_residual: float
    eps0: float  # largest level at which most seeds still reconstruct


@dataclass(frozen=True)
class OscillationCurve:
    """Trace oscillation against the flux magnitude, and the fitted
    stretched-exponential envelope osc = exp(-(m/c)^(-gamma))."""

    records: tuple  # (m, g_sup, osc)
    c_fit: float
    gamma_fit: float
    fit_residual: float
    truncated_at: float | None = None
    newton_iterations: tuple = ()  # of the solve behind each record


def fit_rate(xs, ys, model: str):
    """Least-squares fit of a rate law in its linearizing coordinates.

    log_power:   y = C * |log x|^(-theta)   -> log y vs log|log x|
    exp_stretch: y = exp(-(x/c)^(-gamma))   -> log(-log y) vs log x

    Returns the two constants in that order, (C, theta) or (c, gamma), and
    the RMS residual of the linear fit.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3:
        raise ValueError("need at least three points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("rate fits need strictly positive inputs")
    if model == "log_power":
        X = np.log(np.abs(np.log(xs)))
        Y = np.log(ys)
        slope, intercept = np.polyfit(X, Y, 1)
        constants = float(np.exp(intercept)), float(-slope)
    elif model == "exp_stretch":
        if np.any(ys >= 1):
            raise ValueError("stretched-exponential fit needs values in (0,1)")
        X = np.log(xs)
        Y = np.log(-np.log(ys))
        slope, intercept = np.polyfit(X, Y, 1)
        gamma = float(-slope)
        constants = float(np.exp(intercept / gamma)), gamma
    else:
        raise ValueError(f"unknown rate model {model!r}")
    resid = float(np.sqrt(np.mean((Y - (slope * X + intercept)) ** 2)))
    return (*constants, resid)


def truth_on_interval(model: NonlinearityModel, interval,
                      grid: int = 1001) -> ReconstructedNonlinearity:
    """The true law sampled densely on an interval, for sup-error
    comparisons against a reconstruction."""
    a, b = interval
    u = np.linspace(a, b, grid)
    return ReconstructedNonlinearity(interval=(a, b), u_knots=u,
                                     f_knots=model(u))


def _lift_solve(mesh: Mesh, flux2: FluxProfile, flux1: FluxProfile | None):
    """Linear auxiliary field carrying the measured gamma2 flux, a prescribed
    gamma1 flux (zero when None) and a grounded gammaD.  Well posed, so noise
    in the data is not amplified.  Solved by the mesh's stiffness."""
    b = assemble_boundary_load(mesh, BoundaryTag.GAMMA2, flux2)
    if flux1 is not None:
        b = b + assemble_boundary_load(mesh, BoundaryTag.GAMMA1, flux1)
    return mesh.stiffness.solve(b)


def continue_data(mesh: Mesh, config: ExperimentConfig, batch,
                  system: ContinuationSystem):
    """Regularized continuation of Cauchy data realizations to gamma1.

    The global expansion represents smooth harmonic remainders well but not
    the weak corner singularities of the mixed problem, so the continuation
    is wrapped in a defect-correction loop: each pass subtracts a well-posed
    auxiliary solve that carries the measured gamma2 flux and the current
    gamma1 flux estimate, fits the expansion to the smooth remainder, and
    updates the estimate.  The remainder's corner flux jump shrinks by an
    order of magnitude per pass.  lift_passes = 0 fits the raw data directly.

    ``batch`` is a list of realizations sampled on one gamma2 curve, and
    ``system`` is ``config.make_system(mesh, curve)``, built once and shared
    by all of them.  They move through each pass together: one Morozov
    search for those with positive noise, then one fit each.  Each keeps
    only the gamma2 and gamma1 traces of its auxiliary field, never the
    nodal field.

    Returns one (profile, continuation_result) per realization; the result
    carries the chosen ``mu`` and the ``under_resolved`` flag of the last
    pass.
    """
    curve1 = system.curve1

    def solve_pass(fits):
        noisy = [data for data in fits if data.eps > 0]
        chosen = iter(choose_mu(system, noisy, tau=config.tau) if noisy
                      else ())
        for data in fits:
            mu, under = next(chosen) if data.eps > 0 else (config.mu0, False)
            result = replace(fit(system, data, mu), under_resolved=under)
            yield result, evaluate_on_gamma1(system, result.coefficients)

    if config.lift_passes <= 0:
        return [(profile, result) for result, profile in solve_pass(batch)]
    n2, t2 = mesh.tag_polyline(BoundaryTag.GAMMA2)
    n1, t1 = mesh.tag_polyline(BoundaryTag.GAMMA1)
    fluxes2 = [FluxProfile.tabulated(data.curve.t, data.g) for data in batch]
    fluxes1 = [None] * len(batch)
    for _ in range(config.lift_passes):
        fits, lifts1 = [], []
        for data, flux2, flux1 in zip(batch, fluxes2, fluxes1):
            z = _lift_solve(mesh, flux2, flux1)
            fits.append(CauchyData(
                psi=data.psi - np.interp(data.curve.t, t2, z[n2]),
                g=np.zeros_like(data.g), eps=data.eps, curve=data.curve))
            lifts1.append(np.interp(curve1.t, t1, z[n1]))
        out = []
        for (result, rem), z1, flux1 in zip(solve_pass(fits), lifts1,
                                            fluxes1):
            w1 = np.zeros_like(z1) if flux1 is None else flux1(curve1.t)
            profile = BoundaryProfile(
                t=curve1.t, v=rem.v + z1, w=rem.w + w1,
                dv=rem.dv + np.gradient(z1, curve1.t))
            out.append((profile, result))
        fluxes1 = [FluxProfile.tabulated(curve1.t, profile.w)
                   for profile, _ in out]
    return out


def recover_law(profile, config: ExperimentConfig, discrepancy: float):
    """The law read off the best monotone piece (``rec.segment``) of a
    gamma1 profile: |v'| stays above ``eta_factor`` times its max there, and
    the value interval shrinks by ``trim_factor * discrepancy`` at each end,
    to nothing when the noise swamps the trace oscillation."""
    threshold = config.eta_factor * float(np.max(np.abs(profile.dv)))
    if threshold <= 0:
        raise NoMonotoneSegmentError("flat reconstructed trace")
    seg = find_monotone_segment(profile, threshold)
    return extract_f(profile, seg, trim=config.trim_factor * discrepancy)


def reconstruct_from_data(mesh: Mesh, config: ExperimentConfig, batch,
                          system: ContinuationSystem):
    """Continuation + law recovery for a batch of Cauchy data realizations,
    with ``batch`` and ``system`` as in ``continue_data``.

    Returns one (reconstruction, profile, continuation_result) per
    realization.  The reconstruction is None where the law cannot be read
    off the profile (NoMonotoneSegmentError or EmptyIntervalError); any
    other error propagates.
    """
    out = []
    for profile, result in continue_data(mesh, config, batch, system):
        try:
            rec = recover_law(profile, config, result.discrepancy)
        except (NoMonotoneSegmentError, EmptyIntervalError):
            rec = None
        out.append((rec, profile, result))
    return out


def run_noise_sweep(config: ExperimentConfig,
                    mesh: Mesh | None = None) -> StabilityCurve:
    """Full pipeline under perturbed data, per (noise level, seed) cell.

    The forward solve, the clean Cauchy data and the continuation system
    are shared; each cell adds its own noise, and all cells are continued
    as one batch.  Cells whose law recovery fails are recorded and excluded
    from the medians.  ``mesh`` defaults to a new mesh of ``config.domain``
    at ``config.mesh_n``.
    """
    if mesh is None:
        mesh = build_rectangle_mesh(config.domain, config.mesh_n)
    u, _ = solve_forward(mesh, config.flux, config.model)
    clean = extract_cauchy_data(u, mesh, m=config.gamma2_samples)
    system = config.make_system(mesh, clean.curve)
    keys = [(eps, seed) for eps in config.eps_levels
            for seed in range(config.seeds_per_level)]
    batch = perturb_cauchy_data(clean, keys)
    cells = {}
    for key, (rec, _, _) in zip(
            keys, reconstruct_from_data(mesh, config, batch, system)):
        if rec is None:
            cells[key] = None
        else:
            truth = truth_on_interval(config.model, rec.interval)
            cells[key] = overlap_and_error(rec, truth)[1]
    records = []
    eps0 = None
    for eps in config.eps_levels:
        errs = sorted(cells[(eps, s)] for s in range(config.seeds_per_level)
                      if cells[(eps, s)] is not None)
        fails = config.seeds_per_level - len(errs)
        if errs:
            median = float(np.median(errs))
            iqr = float(np.percentile(errs, 75) - np.percentile(errs, 25))
        else:
            median, iqr = float("nan"), float("nan")
        if eps0 is None and len(errs) * 2 >= config.seeds_per_level and eps > 0:
            eps0 = eps
        records.append((eps, median, iqr, fails))
    fit_pts = [(e, m) for e, m, _, _ in records if e > 0 and m > 0 and np.isfinite(m)]
    if len(fit_pts) >= 3:
        c_fit, theta_fit, resid = fit_rate(*zip(*fit_pts), "log_power")
    else:
        c_fit = theta_fit = resid = float("nan")
    return StabilityCurve(records=tuple(records), c_fit=c_fit,
                          theta_fit=theta_fit, fit_residual=resid,
                          eps0=eps0 if eps0 is not None else 0.0)


def run_oscillation_sweep(config: ExperimentConfig,
                          mesh: Mesh | None = None) -> OscillationCurve:
    """Scale the base flux so its sup on the inner gamma2 portion hits each
    of ``config.oscillation_magnitudes``, solve, and record the gamma1
    trace oscillation.  ``mesh`` defaults to a new mesh of
    ``config.domain`` at ``config.mesh_n``.

    The sweep is a natural-parameter continuation in the magnitude
    (Allgower and Georg, Introduction to Numerical Continuation Methods,
    SIAM 2003, ch. 1): Newton starts magnitude m_k from the previous field
    scaled by m_k / m_{k-1}, the exact solution for a linear law.  It
    starts from zero at the first magnitude, after a magnitude 0, where
    the sign changes, and where the scaled field would not be finite.
    The sweep stops at the first magnitude whose solve fails."""
    if mesh is None:
        mesh = build_rectangle_mesh(config.domain, config.mesh_n)
    try:
        inner = inner_portion(mesh, BoundaryTag.GAMMA2,
                              2.0 * config.domain.r0, 201)
    except EmptyPortionError as exc:
        raise FieldError("domain.r0", f"no inner gamma2 portion at margin "
                                      f"2 * r0: {exc}") from exc
    base_sup = config.flux.sup_on(inner)
    if base_sup <= 0:
        raise FieldError("flux",
                         "base flux vanishes on the inner gamma2 portion")
    nodes1, _ = mesh.tag_polyline(BoundaryTag.GAMMA1)
    records, iterations = [], []
    truncated_at = None
    m_prev = 0.0  # the magnitude of the last solved field, 0 for none
    for m in config.oscillation_magnitudes:
        flux = config.flux.scaled(m / base_sup)
        start = None
        if m_prev != 0 and m / m_prev > 0:
            with np.errstate(over="ignore", invalid="ignore"):
                start = u * (m / m_prev)
            if not np.isfinite(start).all():
                start = None
        try:
            u, report = solve_forward(mesh, flux, config.model, u0=start)
        except ForwardSolveError:
            truncated_at = m
            break
        m_prev = m
        v1 = u[nodes1]
        osc = float(np.max(v1) - np.min(v1))
        if m > 0 and osc <= 0:
            raise FieldError("oscillation_magnitudes",
                             f"zero oscillation at magnitude {m:g}: the zero "
                             f"field already meets Newton's tolerance at that "
                             f"magnitude")
        records.append((m, flux.sup_on(inner), osc))
        iterations.append(report.iterations)
    fit_pts = [(m, o) for m, _, o in records if m > 0 and 0 < o < 1]
    if len(fit_pts) >= 3:
        c_fit, gamma_fit, resid = fit_rate(*zip(*fit_pts), "exp_stretch")
    else:
        c_fit = gamma_fit = resid = float("nan")
    return OscillationCurve(records=tuple(records), c_fit=c_fit,
                            gamma_fit=gamma_fit, fit_residual=resid,
                            truncated_at=truncated_at,
                            newton_iterations=tuple(iterations))


# points of the ring on each disk's boundary circle: the periodic
# trapezoid rule whose discrete Fourier coefficients give the integrals
_RING_POINTS = 256


def disk_integral(basis, factors, center, radius: float) -> np.ndarray:
    """Integrals of the squared expansions over a disk, by Parseval from one
    ring of ``N = _RING_POINTS`` samples on its boundary circle.

    ``factors`` is ``np.linalg.qr(C)`` of the ``(size, k)`` coefficient
    matrix ``C``; one factorization serves every disk.  Every basis member
    must be harmonic in the disk, so that with ``F`` the ``np.fft.rfft`` of
    ``B Q`` on the ring over ``N``, column k's integral is ``R_k^T G R_k``
    with ``G = Re(F^H diag(w) F)``: ``w_0 = pi r^2``, ``w_j = 2 pi r^2 /
    (j + 1)``, and ``pi r^2 / (N + 2)`` at the Nyquist row, where
    ``cos(N theta / 2)`` integrates as that mode would.  Modes at or above
    ``N/2`` alias, as in the N-point trapezoid rule.  One ``basis.eval``
    call, whatever ``k``.  Returns the ``k`` integrals.  Raises FieldError
    naming ``basis_degree`` when an integral overflows.
    """
    n = _RING_POINTS
    theta = 2.0 * np.pi * np.arange(n) / n
    ring = np.asarray(center, dtype=float) + radius * np.column_stack(
        [np.cos(theta), np.sin(theta)])
    w = 2.0 / np.arange(1.0, n // 2 + 2)
    w[0], w[-1] = 1.0, 1.0 / (n + 2)
    root_w = np.sqrt(np.pi * w) * (radius / n)
    Q, R = factors
    with np.errstate(over="ignore", invalid="ignore"):
        F = np.fft.rfft(basis.eval(ring) @ Q, axis=0) * root_w[:, None]
        Y = np.concatenate([F.real, F.imag])
        total = np.einsum("jk,jk->k", R, (Y.T @ Y) @ R)
    if not np.isfinite(total).all():
        raise FieldError("basis_degree", f"a disk integral at radius "
                                         f"{radius:g} overflows")
    return total


def three_spheres_check(basis, trials: int, rho0: float, center,
                        domain: DomainSpec | None = None,
                        seed: int = 0) -> np.ndarray:
    """Maximal admissible exponent of the three-spheres inequality for
    random-coefficient harmonic expansions.

    For each trial returns tau_max = (log I4 - log I3) / (log I4 - log I1)
    clipped to [0, 1], where I_r is the squared L2 norm over the ball of
    radius r*rho0.  Values > 0 mean the inequality holds.

    Raises FieldError naming ``check_rho0`` when rho0 is so small that a
    disk integral underflows to zero or to a subnormal value, where it has
    lost its digits and tau its meaning.

    All trials share one QR factorization of their coefficients, and each
    disk one ring of basis values and one Gram matrix (see
    ``disk_integral``): the cost is O(ring x size x min(size, trials)) in
    three calls to ``basis.eval``.
    """
    if trials < 10:
        raise ValueError("need at least ten trials")
    if rho0 <= 0:
        raise ValueError("rho0 must be positive")
    center = np.asarray(center, dtype=float)
    if domain is not None:
        if not domain.contains(center):
            raise GeometryError("ball center lies outside the domain")
        if segment_distance(center, *domain.segments()) < 4.0 * rho0 - 1e-12:
            raise GeometryError(
                f"ball of radius {4 * rho0:g} does not fit inside the domain")
    # one draw of all trials gives the same stream as one draw per trial;
    # column k holds trial k's coefficients
    coeffs = np.random.default_rng(seed).standard_normal(
        (trials, basis.size)).T
    factors = np.linalg.qr(coeffs)
    i1, i3, i4 = (disk_integral(basis, factors, center, r * rho0)
                  for r in (1.0, 3.0, 4.0))
    if not all(np.all(i >= np.finfo(float).tiny) for i in (i1, i3, i4)):
        raise FieldError("check_rho0", f"a disk integral at radius "
                                       f"{rho0:g} underflows to a subnormal "
                                       f"value or zero")
    return np.clip(
        (np.log(i4) - np.log(i3)) / (np.log(i4) - np.log(i1)), 0.0, 1.0)
