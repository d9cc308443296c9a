"""Command-line entry point.

One tool with subcommands that compose through files in the output
directory.  There is one stage chain: `forward` solves and writes the field
and Cauchy data, `continue` completes the data to gamma1, `reconstruct`
reads the corrosion law off the completed trace, and `pipeline` runs those
three stage functions in turn and compares the result with the configured
law.  `sweep` and `check` run the stability experiments.  Every subcommand
takes its settings from one `ExperimentConfig`, built by `parse_config`.

Exit codes (stable, asserted by tests):
    0  success
    1  usage or configuration error
    2  forward solve failed
    3  continuation under-resolved at the requested noise level
    4  no monotone segment / empty recovery interval

All outputs are deterministic for a fixed config and seed: no timestamps,
numbers serialized with 17 significant digits.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from corrinv.config import ConfigError, config_key, parse_config
from corrinv.continuation import CauchyData, FieldError
from corrinv.csvio import format_number, read_csv, write_csv
from corrinv.experiments import (
    continue_data,
    recover_law,
    run_noise_sweep,
    run_oscillation_sweep,
    three_spheres_check,
    truth_on_interval,
)
from corrinv.forward import (
    ForwardSolveError,
    boundary_profile,
    extract_cauchy_data,
    solve_forward,
)
from corrinv.geometry import (
    BoundaryTag,
    GeometryError,
    build_rectangle_mesh,
    export_mesh_csv,
    trace_sample,
)
from corrinv.reconstruction import (
    BoundaryProfile,
    EmptyIntervalError,
    NoMonotoneSegmentError,
    oscillation,
    overlap_and_error,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FORWARD = 2
EXIT_UNDERRESOLVED = 3
EXIT_NO_SEGMENT = 4


class UnderResolvedError(RuntimeError):
    """The continuation is under-resolved at the requested noise level."""


def _say(quiet, *parts):
    if not quiet:
        print(*parts)


def _write_report(path, items):
    lines = [f"{k} = {v if isinstance(v, str) else format_number(v)}"
             for k, v in items]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_report(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def _write_records(path, header, records):
    """Write a table given as row tuples; only the header when there are
    none."""
    write_csv(path, header, list(zip(*records)) or [()] * len(header))


def _stage_columns(out, name, writer, keys):
    """The named columns of a CSV file, or values of a report, that `writer`
    wrote into out; ConfigError naming the file if it is absent or unusable."""
    path = out / name
    if not path.is_file():
        raise ConfigError(f"{path} not found; `corrinv {writer}` writes it")
    try:
        if path.suffix == ".csv":
            table = read_csv(path)
            # each staged table samples a curve
            if len(next(iter(table.values()))) < 2:
                raise ValueError("fewer than two rows")
        else:
            table = {k: [v] for k, v in _read_report(path).items()}
        missing = [k for k in keys if k not in table]
        if missing:
            raise ValueError(f"{missing[0]!r} is missing")
        values = [np.asarray(table[k], dtype=float) for k in keys]
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for k, v in zip(keys, values):
        if not np.isfinite(v).all():
            raise ConfigError(f"{path}: {k!r} holds the non-finite value "
                              f"{v[~np.isfinite(v)][0]}")
    return values


def _forward_stage(settings, out, quiet):
    """Solve, take the Cauchy data on gamma2 and write the forward outputs;
    returns (mesh, data).  ForwardSolveError propagates to `main`."""
    mesh = build_rectangle_mesh(settings.domain, settings.mesh_n)
    u, report = solve_forward(mesh, settings.flux, settings.model)
    _say(quiet, f"forward: {report.iterations} iterations, "
                f"residual {report.residual:.3e}, energy {report.energy:.6g}")
    data = extract_cauchy_data(u, mesh, noise_eps=settings.noise_eps,
                               seed=settings.noise_seed,
                               m=settings.gamma2_samples)
    export_mesh_csv(mesh, out)
    write_csv(out / "field.csv", ["node", "x", "y", "u"],
              [np.arange(len(mesh.nodes)), *mesh.nodes.T, u])
    write_csv(out / "cauchy.csv", ["t", "psi", "g"],
              [data.curve.t, data.psi, data.g])
    profile = boundary_profile(u, mesh, BoundaryTag.GAMMA1)
    write_csv(out / "gamma1.csv", ["t", "u", "dnu"],
              [profile.t, profile.v, profile.w])
    _write_report(out / "report.txt", [
        ("iterations", report.iterations),
        ("residual", report.residual),
        ("energy", report.energy),
        ("residual_history",
         ", ".join(map(format_number, report.residual_history))),
        ("stop", report.stop),
        ("step_condition",
         ", ".join(map(format_number, report.step_condition))),
        ("gamma1_oscillation", oscillation(profile)),
        ("noise_eps", data.eps),
    ])
    return mesh, data


def _load_cauchy(out, mesh, settings):
    t, psi, g = _stage_columns(out, "cauchy.csv", "forward", ["t", "psi", "g"])
    curve = trace_sample(mesh, BoundaryTag.GAMMA2, t.size)
    if not np.allclose(curve.t, t, atol=1e-9):
        raise ConfigError(
            "cauchy.csv sample parameters do not match the configured mesh")
    return CauchyData(psi=psi, g=g, eps=settings.noise_eps, curve=curve)


def _continue_stage(settings, out, mesh, data, quiet):
    """Continue the Cauchy data to gamma1 and write the fit outputs;
    returns (profile, continuation_result).  Raises UnderResolvedError
    after writing them when the fit is under-resolved."""
    [(profile, result)] = continue_data(
        mesh, settings, [data], settings.make_system(mesh, data.curve))
    write_csv(out / "gamma1_rec.csv", ["t", "u", "dnu", "du_dt"],
              [profile.t, profile.v, profile.w, profile.dv])
    _write_report(out / "fitreport.txt", [
        ("mu", result.mu),
        ("discrepancy_psi", result.discrepancy_psi),
        ("discrepancy_g", result.discrepancy_g),
        ("discrepancy_dirichlet", result.discrepancy_dirichlet),
        ("discrepancy", result.discrepancy),
        ("basis_size", result.basis.size),
        ("condition_number", result.condition_number),
        ("under_resolved", str(result.under_resolved).lower()),
    ])
    _say(quiet, f"continue: mu = {result.mu:.3e}, discrepancy = "
                f"{result.discrepancy:.3e}")
    if result.under_resolved:
        raise UnderResolvedError("under-resolved at the requested noise level")
    return profile, result


def _reconstruct_stage(settings, out, profile, discrepancy, quiet):
    """Recover the law and write the recovery outputs; returns the
    reconstruction.  NoMonotoneSegmentError and EmptyIntervalError
    propagate to `main`."""
    rec = recover_law(profile, settings, discrepancy)
    write_csv(out / "frec.csv", ["u", "f"], [rec.u_knots, rec.f_knots])
    _write_report(out / "segreport.txt", [
        ("t_a", rec.segment.t_a),
        ("t_b", rec.segment.t_b),
        ("sign", rec.segment.sign),
        ("min_slope", rec.segment.min_slope),
        ("V_lo", rec.interval[0]),
        ("V_hi", rec.interval[1]),
        ("trim", rec.trim),
    ])
    _say(quiet, f"reconstruct: V = [{rec.interval[0]:.6g}, "
                f"{rec.interval[1]:.6g}], trim {rec.trim:.3g}")
    return rec


def _cmd_continue(settings, out, quiet):
    mesh = build_rectangle_mesh(settings.domain, settings.mesh_n)
    data = _load_cauchy(out, mesh, settings)
    _continue_stage(settings, out, mesh, data, quiet)


def _cmd_reconstruct(settings, out, quiet):
    t, v, w, dv = _stage_columns(out, "gamma1_rec.csv", "continue",
                                 ["t", "u", "dnu", "du_dt"])
    (discrepancy,) = _stage_columns(out, "fitreport.txt", "continue",
                                    ["discrepancy"])
    _reconstruct_stage(settings, out, BoundaryProfile(t=t, v=v, w=w, dv=dv),
                       float(discrepancy[0]), quiet)


def _cmd_pipeline(settings, out, quiet):
    mesh, data = _forward_stage(settings, out, quiet)
    profile, result = _continue_stage(settings, out, mesh, data, quiet)
    rec = _reconstruct_stage(settings, out, profile, result.discrepancy,
                             quiet)
    truth = truth_on_interval(settings.model, rec.interval)
    interval, err = overlap_and_error(rec, truth)
    _write_report(out / "summary.txt", [
        ("model", settings.model_kind),
        ("noise_eps", settings.noise_eps),
        ("seed", settings.noise_seed),
        ("mu", result.mu),
        ("V_lo", interval[0]),
        ("V_hi", interval[1]),
        ("sup_error", err),
    ])
    _say(quiet, f"pipeline: sup error {err:.3e} on "
                f"V = [{interval[0]:.6g}, {interval[1]:.6g}]")


def _cmd_sweep(settings, out, quiet):
    mesh = build_rectangle_mesh(settings.domain, settings.mesh_n)
    # both experiments run before any file is written
    stability = run_noise_sweep(settings, mesh)
    osc = run_oscillation_sweep(settings, mesh)
    _write_records(out / "stability.csv",
                   ["eps", "median_err", "iqr", "fails"], stability.records)
    _write_records(out / "oscillation.csv", ["m", "gsup", "osc"], osc.records)
    plot_lines = ["# block 0: eps median_err", ]
    for e, m, _, _ in stability.records:
        plot_lines.append(f"{format_number(e)} {format_number(m)}")
    plot_lines += ["", "", "# block 1: m osc"]
    for m, _, o in osc.records:
        plot_lines.append(f"{format_number(m)} {format_number(o)}")
    (out / "sweep_plot.dat").write_text("\n".join(plot_lines) + "\n")
    warnings = [f"no cell recovered the law at eps = {e:g}"
                for e, _, _, fails in stability.records
                if fails == settings.seeds_per_level]
    theta = stability.theta_fit
    if not (np.isfinite(theta) and theta > 0):
        warnings.append(f"stability_theta = {theta:.3g} is not a positive "
                        f"finite rate: the error does not fall with the noise")
    if not np.isfinite(osc.gamma_fit):
        warnings.append("oscillation_gamma is nan: fewer than three "
                        "magnitudes with m > 0 and 0 < osc < 1 to fit")
    _write_report(out / "sweep_summary.txt", [
        ("stability_C", stability.c_fit),
        ("stability_theta", stability.theta_fit),
        ("stability_fit_residual", stability.fit_residual),
        ("stability_eps0", stability.eps0),
        ("oscillation_c", osc.c_fit),
        ("oscillation_gamma", osc.gamma_fit),
        ("oscillation_fit_residual", osc.fit_residual),
        ("oscillation_truncated_at",
         "none" if osc.truncated_at is None
         else format_number(osc.truncated_at)),
        ("oscillation_newton_iterations",
         ",".join(map(str, osc.newton_iterations)) or "none"),
        ("warnings", "; ".join(warnings) or "none"),
    ])
    for message in warnings:
        print(f"sweep: warning: {message}", file=sys.stderr)
    _say(quiet, f"sweep: theta = {stability.theta_fit:.3f}, "
                f"gamma = {osc.gamma_fit:.3f}")


def _cmd_check(settings, out, quiet):
    try:
        taus = three_spheres_check(settings.make_basis(),
                                   settings.check_trials,
                                   settings.check_rho0, settings.check_center,
                                   domain=settings.domain,
                                   seed=settings.check_seed)
    except GeometryError as exc:
        (cx, cy), rho0 = settings.check_center, settings.check_rho0
        raise ConfigError(f"{exc} (check.center = {cx:g},{cy:g}, check.rho0 "
                          f"= {rho0:g}, outer radius {4 * rho0:g})") from None
    write_csv(out / "threespheres.csv", ["trial", "tau"],
              [np.arange(taus.size), taus])
    _write_report(out / "check_summary.txt", [
        ("trials", taus.size),
        ("rho0", settings.check_rho0),
        ("tau_min", float(taus.min())),
        ("tau_max", float(taus.max())),
        ("tau_mean", float(taus.mean())),
        ("all_positive", str(bool((taus > 0).all())).lower()),
    ])
    _say(quiet, f"check: tau in [{taus.min():.4f}, {taus.max():.4f}] "
                f"over {taus.size} trials")


_COMMANDS = {
    "forward": _forward_stage,
    "continue": _cmd_continue,
    "reconstruct": _cmd_reconstruct,
    "sweep": _cmd_sweep,
    "check": _cmd_check,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="corrinv",
        description="Inverse corrosion detection from electrostatic "
                    "boundary measurements.")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", metavar="PATH",
                        help="configuration file (defaults apply if omitted)")
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (created if missing)")
    parser.add_argument("--seed", metavar="N", type=int,
                        help="override noise.seed from the config")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    args = parser.parse_args(argv)
    try:
        settings = (parse_config(text="") if args.config is None
                    else parse_config(path=args.config))
    except (FileNotFoundError, ConfigError) as exc:
        print(f"config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        if args.seed < 0:
            print("config: --seed must be nonnegative", file=sys.stderr)
            return EXIT_CONFIG
        settings = replace(settings, noise_seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        _COMMANDS[args.subcommand](settings, out, args.quiet)
    except ForwardSolveError as exc:
        # also the base solve of `sweep`
        print(f"forward: {exc}", file=sys.stderr)
        return EXIT_FORWARD
    except UnderResolvedError as exc:
        print(f"continue: {exc}", file=sys.stderr)
        return EXIT_UNDERRESOLVED
    except (NoMonotoneSegmentError, EmptyIntervalError) as exc:
        print(f"reconstruct: {exc}", file=sys.stderr)
        return EXIT_NO_SEGMENT
    except ConfigError as exc:
        print(f"{args.subcommand}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FieldError as exc:
        print(f"{args.subcommand}: {config_key(settings, exc.field)}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except GeometryError as exc:
        # meshing supports axis-aligned rectangles only; check runs anywhere
        print(f"{args.subcommand}: domain.vertices, domain.tags: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
