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
    solve_trace,
)
from corrinv.geometry import (
    BoundaryTag,
    DomainSpec,
    EmptyPortionError,
    GeometryError,
    Mesh,
    inner_portion,
    segment_distance,
    trace_sample,
)
from corrinv.reconstruction import (
    BoundaryProfile,
    EmptyIntervalError,
    NoMonotoneSegmentError,
    extract_f,
    find_monotone_segment,
    oscillation,
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
            raise FieldError("sweep.eps_levels",
                             "need at least three noise levels")
        if not all(a > b for a, b in zip(eps, eps[1:])):
            raise FieldError("sweep.eps_levels",
                             "noise levels must be strictly decreasing")
        if any(e < 0 for e in eps):
            raise FieldError("sweep.eps_levels",
                             "noise levels must be nonnegative")
        if any(e >= 1 for e in eps):
            raise FieldError("sweep.eps_levels", "noise levels must be below "
                             "1, where C |log eps|^-theta falls with eps")
        if self.seeds_per_level < 5:
            raise FieldError("sweep.seeds",
                             "need at least five seeds per level")
        if self.check_trials > 1_000_000:
            raise FieldError("check.trials", "must be <= 1000000: the "
                             "coefficients of all trials are held at once")
        mags = tuple(float(m) for m in self.oscillation_magnitudes)
        if not all(a < b for a, b in zip(mags, mags[1:])):
            raise FieldError("oscillation.magnitudes",
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


def _tabulated(knots, rows):
    """The piecewise-linear densities through (knots, row) for each row, as
    ``FluxProfile.tabulated`` gives them, in one function of arc length
    that returns one row of values per density."""
    return lambda t: np.array([np.interp(t, knots, row) for row in rows])


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
    search for those with positive noise, then one fit each.  Each lift is
    one product of ``Stiffness.boundary_block`` with its load on the
    chains; no nodal field is built.  The loads of all realizations are
    assembled in one call per chain, the gamma2 one once for all passes,
    and each pass's gamma1 flux is the last pass's recovered one.

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
    nodes, _, S = mesh.stiffness.boundary_block
    n2, t2 = mesh.tag_polyline(BoundaryTag.GAMMA2)
    n1, t1 = mesh.tag_polyline(BoundaryTag.GAMMA1)
    # each chain node's index in nodes, gammaD's that of the 0 after them
    index = dict(zip(nodes.tolist(), range(nodes.size)))
    at2, at1 = ([index.get(k, nodes.size) for k in n.tolist()]
                for n in (n2, n1))
    load2 = assemble_boundary_load(
        mesh, BoundaryTag.GAMMA2,
        _tabulated(batch[0].curve.t, [data.g for data in batch]), nodes)
    loads, w1 = load2, np.zeros((len(batch), curve1.t.size))
    for done in range(1, config.lift_passes + 1):
        fits, lifts1 = [], []
        for data, load in zip(batch, loads):
            z = np.append(S @ load, 0.0)
            fits.append(CauchyData(
                psi=data.psi - np.interp(data.curve.t, t2, z[at2]),
                g=np.zeros_like(data.g), eps=data.eps, curve=data.curve))
            lifts1.append(np.interp(curve1.t, t1, z[at1]))
        dz1 = np.gradient(np.array(lifts1), curve1.t, axis=1)
        out = [(BoundaryProfile(t=curve1.t, v=rem.v + z, w=rem.w + w,
                                dv=rem.dv + dz), result)
               for (result, rem), z, w, dz in zip(solve_pass(fits), lifts1,
                                                  w1, dz1)]
        if done < config.lift_passes:
            w1 = [profile.w for profile, _ in out]
            loads = load2 + assemble_boundary_load(
                mesh, BoundaryTag.GAMMA1, _tabulated(curve1.t, w1), nodes)
    return out


def recover_law(profiles, config: ExperimentConfig, discrepancies):
    """The laws read off the best monotone piece (``rec.segment``) of each
    gamma1 profile, all of one length, with one segment scan for them all:
    |v'| stays above ``eta_factor`` times its max there, and the value
    interval shrinks by ``trim_factor * discrepancy`` at each end, to
    nothing when the noise swamps the trace oscillation.

    Returns one entry per profile: its ReconstructedNonlinearity, or the
    NoMonotoneSegmentError or EmptyIntervalError that its recovery met."""
    t, v, dv = (np.array([getattr(profile, name) for profile in profiles])
                for name in ("t", "v", "dv"))
    thresholds = config.eta_factor * np.max(np.abs(dv), axis=1)
    scan = ~(thresholds <= 0)  # the others are flat
    segments = iter(find_monotone_segment(t[scan], v[scan], dv[scan],
                                          thresholds[scan]))
    out = []
    for profile, discrepancy, threshold, scanned in zip(
            profiles, discrepancies, thresholds.tolist(), scan.tolist()):
        if not scanned:
            out.append(NoMonotoneSegmentError("flat reconstructed trace"))
            continue
        seg = next(segments)
        if seg is None:
            out.append(NoMonotoneSegmentError(
                f"no monotone interval with |v'| >= {threshold:g}"))
        else:
            try:
                out.append(extract_f(profile, seg,
                                     trim=config.trim_factor * discrepancy))
            except EmptyIntervalError as exc:
                out.append(exc)
    return out


def reconstruct_from_data(mesh: Mesh, config: ExperimentConfig, batch,
                          system: ContinuationSystem):
    """Continuation + law recovery for a batch of Cauchy data realizations,
    with ``batch`` and ``system`` as in ``continue_data``.

    Returns one (reconstruction, profile, continuation_result) per
    realization.  The reconstruction is None where the law cannot be read
    off the profile (NoMonotoneSegmentError or EmptyIntervalError); any
    other error propagates.
    """
    continued = continue_data(mesh, config, batch, system)
    recs = recover_law([profile for profile, _ in continued], config,
                       [result.discrepancy for _, result in continued])
    return [(None if isinstance(rec, Exception) else rec, profile, result)
            for rec, (profile, result) in zip(recs, continued)]


def run_noise_sweep(config: ExperimentConfig, mesh: Mesh) -> StabilityCurve:
    """Full pipeline under perturbed data, per (noise level, seed) cell, on
    a mesh of ``config.domain`` at ``config.mesh_n``.

    The forward solve, the clean Cauchy data and the continuation system
    are shared; each cell adds its own noise, and all cells are continued
    as one batch.  Cells whose law recovery fails are recorded and excluded
    from the medians.
    """
    u, _ = solve_forward(mesh, config.flux, config.model)
    clean = extract_cauchy_data(u, mesh, m=config.gamma2_samples)
    system = config.make_system(mesh, clean.curve)
    keys = [(eps, seed) for eps in config.eps_levels
            for seed in range(config.seeds_per_level)]
    batch = perturb_cauchy_data(clean, keys)
    cells = {key: None if rec is None
             else overlap_and_error(rec, config.model)[1]
             for key, (rec, _, _) in zip(
                 keys, reconstruct_from_data(mesh, config, batch, system))}
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
                          mesh: Mesh) -> OscillationCurve:
    """Scale the base flux so its sup on the inner gamma2 portion hits each
    of ``config.oscillation_magnitudes``, solve for the gamma1 trace
    (``solve_trace``) on a mesh of ``config.domain`` at ``config.mesh_n``,
    and record its oscillation, with no field and no grid solve.  The
    gamma2 load is linear in the flux, so it is made once and scaled.

    The sweep is a natural-parameter continuation in the magnitude
    (Allgower and Georg, Introduction to Numerical Continuation Methods,
    SIAM 2003, ch. 1): Newton starts magnitude m_k from the previous field
    scaled by m_k / m_{k-1} (the same scale of the scaled b_g, the load
    scaled), the exact solution for a linear law.  It starts from zero at
    the first magnitude, after a magnitude 0, where the sign changes, and
    where the scaled load would not be finite.
    The sweep stops at the first magnitude whose solve fails.  Each record
    is (m, g_sup, osc), with g_sup = |m / base_sup| * base_sup the sup of
    the scaled flux: |m| up to rounding."""
    try:
        inner = inner_portion(mesh, BoundaryTag.GAMMA2,
                              2.0 * config.domain.r0, 201)
    except EmptyPortionError as exc:
        raise FieldError("domain.r0", f"no inner gamma2 portion at margin "
                                      f"2 * r0: {exc}") from exc
    base_sup = float(np.max(np.abs(config.flux(inner))))
    if base_sup <= 0:
        key = {"constant": "flux.value", "polynomial": "flux.coeffs",
               "tabulated": "flux.g_knots"}[config.flux.kind]
        raise FieldError(key, "base flux vanishes on the inner gamma2 portion")
    b_base = assemble_boundary_load(mesh, BoundaryTag.GAMMA2, config.flux)
    records, iterations = [], []
    truncated_at = None
    m_prev = 0.0  # the magnitude of the last solved field, 0 for none
    for m in config.oscillation_magnitudes:
        scale = m / base_sup
        start = None
        if m_prev != 0 and m / m_prev > 0:
            with np.errstate(over="ignore", invalid="ignore"):
                start = (solution.scale, solution.load * (m / m_prev))
            if not np.isfinite(start[1]).all():
                start = None
        try:
            solution = solve_trace(mesh, scale * b_base, config.model,
                                   start=start)
        except ForwardSolveError:
            truncated_at = m
            break
        m_prev = m
        osc = oscillation(solution.trace)
        if m > 0 and osc <= 0:
            raise FieldError("oscillation.magnitudes",
                             f"zero oscillation at magnitude {m:g}: the zero "
                             f"field already meets Newton's tolerance at that "
                             f"magnitude")
        records.append((m, abs(scale) * base_sup, osc))
        iterations.append(len(solution.residual_history))
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
    naming ``continuation.degree`` when an integral overflows.
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
        raise FieldError("continuation.degree", f"a disk integral at radius "
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

    Raises FieldError naming ``check.rho0`` when rho0 is so small that a
    disk integral underflows to zero or to a subnormal value, where it has
    lost its digits and tau its meaning, and GeometryError naming
    ``check.center`` when the center lies outside ``domain`` and
    ``check.center, check.rho0`` when the ball of radius 4 rho0 does not
    fit inside it.

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
            raise GeometryError(f"the center of the ball of radius "
                                f"{4 * rho0:g} lies outside the domain",
                                "check.center")
        if segment_distance(center, *domain.segments()) < 4.0 * rho0 - 1e-12:
            raise GeometryError(f"ball of radius {4 * rho0:g} does not fit "
                                f"inside the domain",
                                "check.center, check.rho0")
    # one draw of all trials gives the same stream as one draw per trial;
    # column k holds trial k's coefficients
    coeffs = np.random.default_rng(seed).standard_normal(
        (trials, basis.size)).T
    factors = np.linalg.qr(coeffs)
    i1, i3, i4 = (disk_integral(basis, factors, center, r * rho0)
                  for r in (1.0, 3.0, 4.0))
    if not all(np.all(i >= np.finfo(float).tiny) for i in (i1, i3, i4)):
        raise FieldError("check.rho0", f"a disk integral at radius "
                                       f"{rho0:g} underflows to a subnormal "
                                       f"value or zero")
    return np.clip(
        (np.log(i4) - np.log(i3)) / (np.log(i4) - np.log(i1)), 0.0, 1.0)
