import dataclasses
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrinv import cli, csvio, experiments, forward
from corrinv.config import ConfigError, DEFAULT_CONFIG_TEXT, parse_config
from corrinv.csvio import format_number, read_csv, write_csv
from corrinv.forward import ExponentialLaw, LinearLaw, solve_forward
from corrinv.geometry import BoundaryTag, DomainSpec, build_rectangle_mesh

from conftest import UNCHAINED_LAYOUTS, triangles

FAST_LINES = [
    "mesh.n = 32",
    "continuation.degree = 8",
    "samples.gamma1 = 61",
    "samples.gammad = 81",
]

# a valid domain that the rectangle mesher cannot mesh
PENTAGON_LINES = [
    "domain.vertices = 0,0 1,0 1,1 0.5,1.5 0,1",
    "domain.tags = gammaD gamma2 gamma1 gamma1 gammaD",
]

# a sweep small enough for a unit test
SWEEP_LINES = [
    "mesh.n = 16",
    "continuation.degree = 6",
    "samples.gamma1 = 41",
    "samples.gammad = 41",
    "sweep.eps_levels = 1e-2,1e-3,1e-4",
    "sweep.seeds = 5",
    "oscillation.magnitudes = 0.2,0.4,0.6,0.8",
]


# the files a pipeline that exits 3 or 4 leaves: forward's and continue's
PARTIAL_PIPELINE = ["bedges.csv", "cauchy.csv", "field.csv", "fitreport.txt",
                    "gamma1.csv", "gamma1_rec.csv", "report.txt"]


def write_config(tmp_path, *lines, name="run.cfg"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run(args):
    return cli.main(args)


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        s = parse_config(text="")
        assert s.mesh_n == 64
        assert isinstance(s.model, ExponentialLaw)
        assert s.model_kind == "exponential"
        assert s.noise_eps == 0.0
        assert s.basis_kind == "poly"
        assert s.domain.side_tags[0] == BoundaryTag.GAMMAD

    def test_defaults_text_is_self_consistent(self):
        # the documented default block parses to the same settings as the
        # empty file
        a = parse_config(text=DEFAULT_CONFIG_TEXT)
        b = parse_config(text="")
        for field in ("mesh_n", "model_kind", "noise_eps", "noise_seed",
                      "basis_kind", "basis_degree", "corner_terms",
                      "lift_passes", "mu0", "tau", "gamma1_samples",
                      "gammad_samples", "eta_factor", "trim_factor",
                      "eps_levels", "seeds_per_level", "check_trials",
                      "check_rho0", "check_center", "check_seed"):
            assert getattr(a, field) == getattr(b, field), field

    def test_dataclass_defaults_are_the_default_text(self):
        domain = parse_config(text="").domain
        for field in dataclasses.fields(DomainSpec):
            if field.default is not dataclasses.MISSING:
                assert getattr(domain, field.name) == field.default, \
                    field.name

    def test_exactly_one_source(self):
        with pytest.raises(ValueError):
            parse_config()
        with pytest.raises(ValueError):
            parse_config(path="x", text="")

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigError, match=r"<config>:2: unknown key"):
            parse_config(text="mesh.n = 32\nmesh.m = 5\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(text="mesh.n = 32\nmesh.n = 64\n")

    def test_transfer_coefficient_range(self):
        with pytest.raises(ConfigError,
                           match=r"must lie in \(0,1\)"):
            parse_config(text="model.a = 1.5\n")

    def test_requires_grounded_portion(self):
        with pytest.raises(ConfigError):
            parse_config(text="domain.tags = gamma1 gamma2 gamma1 gamma2\n")

    def test_bad_number_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"<config>:1: mesh.n"):
            parse_config(text="mesh.n = many\n")

    def test_tabulated_model_needs_knots(self):
        with pytest.raises(ConfigError, match="u_knots"):
            parse_config(text="model.kind = tabulated\n")

    def test_linear_model_with_slope(self):
        s = parse_config(text="model.kind = linear\nmodel.slope = 2.5\n")
        assert isinstance(s.model, LinearLaw)
        assert s.model(2.0) == pytest.approx(5.0)

    def test_constant_flux_needs_value(self):
        with pytest.raises(ConfigError, match="flux.value"):
            parse_config(text="flux.kind = constant\n")

    def test_comments_and_blank_lines(self):
        s = parse_config(text="# a comment\n\nmesh.n = 48  # trailing\n")
        assert s.mesh_n == 48

    def test_experiment_config_bridge(self):
        cfg = parse_config(text="")
        assert cfg.mesh_n == 64
        assert cfg.eps_levels == (3e-2, 1e-2, 3e-3, 1e-3)
        assert cfg.corner_terms


class TestPipeline:
    def test_exit_ok_and_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, *FAST_LINES, "noise.eps = 1e-3")
        out = tmp_path / "out"
        assert run(["pipeline", "--config", cfg, "--out", str(out)]) == 0
        # the mesh is written once, as field.csv and bedges.csv
        assert sorted(p.name for p in out.iterdir()) == [
            "bedges.csv", "cauchy.csv", "field.csv", "fitreport.txt",
            "frec.csv", "gamma1.csv", "gamma1_rec.csv", "report.txt",
            "segreport.txt", "summary.txt"]
        summary = cli._read_report(out / "summary.txt")
        assert float(summary["V_hi"]) > float(summary["V_lo"])
        assert float(summary["sup_error"]) < 0.1
        assert "pipeline: sup error" in capsys.readouterr().out

    def test_report_records_newton_history(self, tmp_path):
        cfg = write_config(tmp_path, *FAST_LINES)
        out = tmp_path / "out"
        assert run(["forward", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        report = cli._read_report(out / "report.txt")
        history = report["residual_history"].split(", ")
        assert len(history) == int(report["iterations"])
        # the history ends at the last iterate; residual is the field's,
        # built once from it
        assert float(history[-1]) <= 1e-12
        assert float(report["residual"]) <= 1e-12
        assert report["stop"] == "tolerance"
        assert "energy_flag" not in report
        # one condition number per step; the last iterate takes none
        conditions = report["step_condition"].split(", ")
        assert len(conditions) == int(report["iterations"]) - 1
        assert all(1.0 <= float(c) < 1e3 for c in conditions)

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, *FAST_LINES, "noise.eps = 1e-3")
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run(["pipeline", "--config", cfg, "--out", str(out),
                        "--quiet"]) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name

    # gamma2 on the bottom and gamma1 on the right: the jump between the
    # boundary block's joined chains changes the row, as a column step
    # does; read as one, the lifts are wrong and the run exits 4
    def test_chains_joined_across_a_turn(self, tmp_path):
        cfg = write_config(tmp_path, "mesh.n = 16",
                           "domain.tags = gamma2 gamma1 gammaD gammaD")
        out = tmp_path / "out"
        assert run(["pipeline", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        summary = cli._read_report(out / "summary.txt")
        assert float(summary["sup_error"]) == pytest.approx(
            0.0016972903602446576, rel=1e-9)

    # the forward solve, the lifts and every Newton solve of a command
    # read the one boundary block of its mesh
    @pytest.mark.parametrize("sub, lines", [
        ("pipeline", FAST_LINES), ("sweep", SWEEP_LINES)])
    def test_one_boundary_block_per_command(self, tmp_path, monkeypatch,
                                            sub, lines):
        capacitance, calls = forward.Stiffness.capacitance, []

        def counting(self, nodes):
            calls.append(nodes)
            return capacitance(self, nodes)

        monkeypatch.setattr(forward.Stiffness, "capacitance", counting)
        cfg = write_config(tmp_path, *lines)
        assert run([sub, "--config", cfg, "--out", str(tmp_path / "out"),
                    "--quiet"]) == 0
        assert len(calls) == 1

    def test_seed_changes_noise(self, tmp_path):
        cfg = write_config(tmp_path, *FAST_LINES, "noise.eps = 1e-2")
        a, b = tmp_path / "a", tmp_path / "b"
        run(["pipeline", "--config", cfg, "--out", str(a), "--quiet"])
        run(["pipeline", "--config", cfg, "--out", str(b), "--quiet",
             "--seed", "5"])
        assert (a / "cauchy.csv").read_bytes() != \
            (b / "cauchy.csv").read_bytes()


class TestStageComposition:
    def test_forward_continue_reconstruct(self, tmp_path):
        cfg = write_config(tmp_path, *FAST_LINES, "noise.eps = 1e-3")
        out = tmp_path / "out"
        assert run(["forward", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        assert (out / "cauchy.csv").exists()
        assert run(["continue", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        assert (out / "gamma1_rec.csv").exists()
        assert run(["reconstruct", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        rec = read_csv(out / "frec.csv")
        assert np.all(np.diff(rec["u"]) > 0)

    def test_stages_match_pipeline(self, tmp_path):
        cfg = write_config(tmp_path, *FAST_LINES, "noise.eps = 1e-3")
        staged, piped = tmp_path / "staged", tmp_path / "piped"
        for sub in ("forward", "continue", "reconstruct"):
            assert run([sub, "--config", cfg, "--out", str(staged),
                        "--quiet"]) == 0
        assert run(["pipeline", "--config", cfg, "--out", str(piped),
                    "--quiet"]) == 0
        for name in ("cauchy.csv", "gamma1_rec.csv", "frec.csv"):
            assert (staged / name).read_bytes() == \
                (piped / name).read_bytes(), name


class TestExitCodes:
    def test_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "model.a = 2.0")
        assert run(["pipeline", "--config", cfg, "--out",
                    str(tmp_path / "o")]) == 1
        assert "model.a" in capsys.readouterr().err

    @pytest.mark.parametrize("line,key", [
        ("sweep.seeds = 3", "sweep.seeds"),
        ("sweep.eps_levels = 1e-2,1e-3", "sweep.eps_levels"),
        ("sweep.eps_levels = 1e-3,1e-2,1e-4", "sweep.eps_levels"),
        ("sweep.eps_levels = 1e-2,1e-3,-1e-4", "sweep.eps_levels"),
        ("sweep.eps_levels = 1,0.1,0.01", "sweep.eps_levels"),
        ("oscillation.magnitudes = 0.5,0.2,0.8", "oscillation.magnitudes"),
        ("noise.eps = nan", "noise.eps"),
        ("noise.eps = inf", "noise.eps"),
        ("model.lam = nan", "model.lam"),
        ("sweep.eps_levels = 1e-2,nan,1e-4", "sweep.eps_levels"),
        ("domain.vertices = 0,0 1,0 1,inf 0,1", "domain.vertices"),
        # each DomainSpec rule is charged to the key it reads
        ("domain.vertices = 0,0 1,0", "domain.vertices"),
        ("domain.vertices = 0,0 0,1 1,1 1,0", "domain.vertices"),
        ("domain.vertices = 0,0 2,0 2,2 1,-1 0,2\n"
         "domain.tags = gammaD gamma2 gamma1 gamma1 gammaD",
         "domain.vertices"),
        ("domain.diameter_bound = 0.5", "domain.diameter_bound"),
        ("domain.tags = gammaD gamma2 gamma1", "domain.tags"),
        ("domain.tags = gamma1 gamma2 gamma1 gammaD", "domain.tags"),
        ("samples.gammad = 1", "samples.gammad"),
        ("check.trials = 100000000", "check.trials"),
        ("check.trials = 1000001", "check.trials"),
        ("domain.lipschitz_m = 1.0", "domain.lipschitz_m"),
        ("flux.coeffs =", "flux.coeffs"),
        ("flux.kind = tabulated\nflux.t_knots = 1,0\nflux.g_knots = 1,2",
         "flux.t_knots"),
        ("flux.kind = tabulated\nflux.t_knots = 0,1,2\nflux.g_knots = 1,2",
         "flux.g_knots"),
        ("flux.kind = tabulated\nflux.t_knots =\nflux.g_knots =",
         "flux.t_knots"),
    ])
    def test_rejected_at_parse_time(self, tmp_path, capsys, line, key):
        cfg = write_config(tmp_path, "mesh.n = 16", line)
        for sub in ("pipeline", "continue", "sweep", "check"):
            assert run([sub, "--config", cfg, "--out",
                        str(tmp_path / "o")]) == cli.EXIT_CONFIG, sub
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert err.startswith("config: ") and key in err, sub
            assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("lines,key", [
        (("flux.kind = constant", "flux.value = 0"), "flux.value"),
        (("flux.coeffs = 0,0",), "flux.coeffs"),
        (("domain.r0 = 0.6",), "domain.r0"),
        # the zero field already meets Newton's tolerance at 1e-13
        (("oscillation.magnitudes = 1e-13,0.5,1",), "oscillation.magnitudes"),
    ])
    def test_rejected_by_the_sweep(self, tmp_path, capsys, lines, key):
        cfg = write_config(tmp_path, "mesh.n = 16", "sweep.seeds = 5",
                           "sweep.eps_levels = 1e-2,1e-3,1e-4", *lines)
        out = tmp_path / "o"
        assert run(["sweep", "--config", cfg, "--out",
                    str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"sweep: {key}: ")
        assert len(err.splitlines()) == 1
        # both experiments run before any file is written
        assert list(out.iterdir()) == []

    # the key table sets no bound of its own on sweep.seeds
    @pytest.mark.parametrize("seeds", ["-1", "0", "3"])
    def test_too_few_seeds(self, tmp_path, capsys, seeds):
        cfg = write_config(tmp_path, f"sweep.seeds = {seeds}")
        assert run(["sweep", "--config", cfg, "--out",
                    str(tmp_path / "o")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config: ")
        assert err[0].endswith(
            "sweep.seeds: need at least five seeds per level")

    @pytest.mark.parametrize("sub", ["forward", "continue", "pipeline",
                                     "sweep"])
    def test_domain_not_meshable(self, tmp_path, capsys, sub):
        cfg = write_config(tmp_path, *PENTAGON_LINES)
        assert run([sub, "--config", cfg, "--out",
                    str(tmp_path / "o")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"{sub}: ")
        assert "domain.vertices" in err

    # gamma2 (bottom) and gamma1 (top) are one cell wide between grounded
    # sides, so every node of both is grounded and no flux reaches the field
    @pytest.mark.parametrize("sub", ["forward", "pipeline", "sweep"])
    def test_no_free_node_on_gamma1_or_gamma2(self, tmp_path, capsys, sub):
        cfg = write_config(tmp_path, "domain.vertices = 0,0 0.2,0 0.2,1 0,1",
                           "domain.tags = gamma2 gammaD gamma1 gammaD",
                           "mesh.n = 2", "domain.r0 = 0.02")
        out = tmp_path / "o"
        assert run([sub, "--config", cfg, "--out",
                    str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert err.startswith(f"{sub}: mesh.n: gamma1 has no node off gammaD")
        assert not any(out.iterdir())

    # the mesher's two errors: 1e-14 wide, at mesh.n = 1e16 the grid axes
    # repeat floating-point values; the pentagon is no rectangle
    @pytest.mark.parametrize("sub,lines,start", [
        *(pytest.param(sub, ["domain.vertices = 1,0 1.00000000000001,0"
                             " 1.00000000000001,1e-14 1,1e-14",
                             "mesh.n = 10000000000000000"],
                       "mesh.n, domain.vertices: n = ", id=sub)
          for sub in ("forward", "continue", "pipeline", "sweep")),
        *(pytest.param(sub, PENTAGON_LINES, "domain.vertices: polygon is not "
                       "an axis-aligned rectangle", id=f"{sub}-pentagon")
          for sub in ("forward", "pipeline")),
    ])
    def test_rectangle_mesher_names_its_keys(self, tmp_path, capsys, sub,
                                             lines, start):
        cfg = write_config(tmp_path, *lines)
        out = tmp_path / "o"
        assert run([sub, "--config", cfg, "--out",
                    str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert err.startswith(f"{sub}: {start}")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("layout,tag", UNCHAINED_LAYOUTS)
    @pytest.mark.parametrize("sub", ["forward", "continue", "reconstruct",
                                     "pipeline", "sweep", "check"])
    def test_disconnected_portion(self, tmp_path, capsys, layout, tag, sub):
        cfg = write_config(tmp_path, f"domain.tags = {layout}", "mesh.n = 8")
        out = tmp_path / "o"
        assert run([sub, "--config", cfg, "--out",
                    str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "domain.tags" in err and f"{tag} must be one" in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("sub,missing,writer,damage", [
        pytest.param("continue", "cauchy.csv", "forward", None,
                     id="continue-cauchy.csv-forward"),
        pytest.param("continue", "report.txt", "forward", None,
                     id="continue-report.txt-forward"),
        pytest.param("reconstruct", "gamma1_rec.csv", "continue", None,
                     id="reconstruct-gamma1_rec.csv-continue"),
        pytest.param("reconstruct", "fitreport.txt", "continue", None,
                     id="reconstruct-fitreport.txt-continue"),
        # a staged file that exists but cannot be used: (edit, message)
        pytest.param("reconstruct", "fitreport.txt", "continue",
                     (lambda text: re.sub(r"(?m)^discrepancy = .*\n", "",
                                          text), "'discrepancy' is missing"),
                     id="reconstruct-fitreport.txt-no-discrepancy"),
        pytest.param("reconstruct", "fitreport.txt", "continue",
                     (lambda text: re.sub(r"(?m)^discrepancy = .*$",
                                          "discrepancy = nan", text),
                      "'discrepancy' holds the non-finite value nan"),
                     id="reconstruct-fitreport.txt-nan-discrepancy"),
        pytest.param("reconstruct", "fitreport.txt", "continue",
                     (lambda text: text.replace("mu =", "mu", 1),
                      "fitreport.txt:1: expected 'key = value'"),
                     id="reconstruct-fitreport.txt-malformed"),
        pytest.param("reconstruct", "gamma1_rec.csv", "continue",
                     (lambda text: re.sub(r"(?m),[^,]*$", "", text),
                      "'du_dt' is missing"),
                     id="reconstruct-gamma1_rec.csv-no-du_dt"),
        pytest.param("reconstruct", "gamma1_rec.csv", "continue",
                     (lambda text: "", "empty file"),
                     id="reconstruct-gamma1_rec.csv-empty"),
        pytest.param("reconstruct", "gamma1_rec.csv", "continue",
                     (lambda text: text.split("\n", 1)[0] + "\n",
                      "fewer than two rows"),
                     id="reconstruct-gamma1_rec.csv-header-only"),
        pytest.param("continue", "cauchy.csv", "forward",
                     (lambda text: "\n".join(text.split("\n")[:2]) + "\n",
                      "fewer than two rows"),
                     id="continue-cauchy.csv-one-row"),
        pytest.param("continue", "cauchy.csv", "forward",
                     (lambda text: re.sub(r"(?m)^([-+.\de]+),[^,]*,",
                                          r"\1,inf,", text, count=1),
                      "'psi' holds the non-finite value inf"),
                     id="continue-cauchy.csv-inf-psi"),
        pytest.param("reconstruct", "gamma1_rec.csv", "continue",
                     (lambda text: text.replace("\n", "\n0,", 1),
                      "ragged CSV row"),
                     id="reconstruct-gamma1_rec.csv-ragged-row"),
        pytest.param("continue", "cauchy.csv", "forward",
                     (lambda text: re.sub(r"(?m)^([-+.\de]+),[^,]*,",
                                          r"\1,abc,", text, count=1),
                      "could not convert string to float: 'abc'"),
                     id="continue-cauchy.csv-abc-psi"),
        # data written noiseless, continued at the config's noise.eps = 1e-3
        pytest.param("continue", "report.txt", "forward",
                     (lambda text: re.sub(r"(?m)^noise_eps = .*$",
                                          "noise_eps = 0", text),
                      "noise.eps = 0.001 differs from noise_eps = 0.0"),
                     id="continue-report.txt-other-noise_eps"),
    ])
    def test_missing_stage_input(self, tmp_path, capsys, sub, missing,
                                 writer, damage):
        cfg = write_config(tmp_path, *FAST_LINES, "noise.eps = 1e-3")
        out = tmp_path / "o"
        stages = ("forward", "continue")
        for stage in stages[:stages.index(writer) + 1]:
            assert run([stage, "--config", cfg, "--out", str(out),
                        "--quiet"]) == cli.EXIT_OK
        path = out / missing
        if damage is None:
            message = f"not found; `corrinv {writer}` writes it"
            path.unlink()
        else:
            edit, message = damage
            path.write_text(edit(path.read_text()))
        capsys.readouterr()
        assert run([sub, "--config", cfg, "--out",
                    str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"{sub}: ") and len(err.splitlines()) == 1
        assert err.count(str(path)) == 1 and message in err
        assert not (out / "frec.csv").exists()

    # z^500 overflows on a 7 x 7 square: in the design matrix of pipeline,
    # continue and sweep, and in the disk integrals of check
    @pytest.mark.parametrize("sub", ["pipeline", "continue", "sweep",
                                     "check"])
    def test_overflowing_basis(self, tmp_path, capsys, sub):
        cfg = write_config(tmp_path, "domain.vertices = 0,0 7,0 7,7 0,7",
                           "mesh.n = 2", "continuation.degree = 500")
        out = tmp_path / "o"
        if sub == "continue":
            assert run(["forward", "--config", cfg, "--out", str(out),
                        "--quiet"]) == cli.EXIT_OK
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([sub, "--config", cfg, "--out", str(out), "--quiet"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"{sub}: continuation.degree: ")

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["pipeline", "--config", str(tmp_path / "nope.cfg"),
                    "--out", str(tmp_path / "o")]) == 1

    def test_negative_seed(self, tmp_path):
        cfg = write_config(tmp_path, *FAST_LINES)
        assert run(["pipeline", "--config", cfg, "--out",
                    str(tmp_path / "o"), "--seed", "-1"]) == 1

    @pytest.mark.parametrize("sub", ["pipeline", "sweep"])
    def test_forward_divergence(self, tmp_path, capsys, sub):
        cfg = write_config(
            tmp_path, "mesh.n = 16", "model.lam = 50.0",
            "model.umax = 50.0", "flux.kind = constant",
            "flux.value = 50.0")
        out = tmp_path / "o"
        assert run([sub, "--config", cfg, "--out", str(out)]) == \
            cli.EXIT_FORWARD
        err = capsys.readouterr().err
        assert err.startswith("forward: Newton did not converge: stalled")
        assert len(err.splitlines()) == 1
        # an exit 2 leaves no file
        assert not out.exists() or not any(out.iterdir())

    # a linear law at the inverse of the largest eigenvalue of M S: the
    # first Newton step is singular, so no field of about 1e14 is written
    def test_resonant_law(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "mesh.n = 4", "model.kind = linear",
                           "model.slope = 1.7851598068569747")
        out = tmp_path / "o"
        assert run(["forward", "--config", cfg, "--out", str(out),
                    "--quiet"]) == cli.EXIT_FORWARD
        err = capsys.readouterr().err
        assert err.startswith("forward: singular Newton step at iteration 1")
        assert len(err.splitlines()) == 1
        assert not (out / "field.csv").exists()

    @pytest.mark.parametrize("lines, code, err", [
        # a steep law under a strong flux: Newton converges and the run
        # completes, though the recovered law is far off
        (("model.lam = 1e3", "model.umax = 50", "flux.coeffs = 0,100"),
         0, ""),
        # Newton fails without a traceback; whether it runs out of
        # iterations or stalls first is left to rounding
        (("mesh.n = 128", "model.lam = 5", "flux.coeffs = 0,20"),
         cli.EXIT_FORWARD, "forward: Newton did not converge"),
    ], ids=["converges", "diverges"])
    def test_steep_law_configs(self, tmp_path, capsys, lines, code, err):
        cfg = write_config(tmp_path, *lines)
        assert run(["pipeline", "--config", cfg, "--out",
                    str(tmp_path / "o"), "--quiet"]) == code
        assert capsys.readouterr().err.startswith(err)

    # a field near resonance, |u| about 220: rounding keeps the residual
    # above the absolute tolerance 1e-12, and Newton stops at that floor.
    # The trace oscillation exceeds 1 at every magnitude, so the sweep has
    # no point for its oscillation fit and says so
    @pytest.mark.parametrize("sub,err", [
        ("pipeline", ""),
        ("sweep", "sweep: warning: oscillation_gamma is nan: fewer than "
                  "three magnitudes with m > 0 and 0 < osc < 1 to fit\n"),
    ], ids=["pipeline", "sweep"])
    def test_newton_at_the_rounding_floor(self, tmp_path, capsys, sub, err):
        cfg = write_config(tmp_path, "domain.vertices = 0,0 2,0 2,1 0,1",
                           "domain.tags = gamma2 gamma2 gamma1 gammaD",
                           "model.kind = linear", "model.slope = 0.5",
                           "domain.r0 = 0.05", "mesh.n = 32")
        assert run([sub, "--config", cfg, "--out", str(tmp_path / "o"),
                    "--quiet"]) == 0
        assert capsys.readouterr().err == err
        if sub == "pipeline":  # the sweep writes no report.txt
            report = cli._read_report(tmp_path / "o" / "report.txt")
            assert report["stop"] == "rounding_floor"

    def test_under_resolved(self, tmp_path, capsys):
        # declared noise far below the discretization error
        cfg = write_config(tmp_path, *FAST_LINES, "noise.eps = 1e-9")
        out = tmp_path / "o"
        assert run(["pipeline", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 3
        assert "under-resolved" in capsys.readouterr().err
        # forward's five files and continue's two stay
        assert sorted(p.name for p in out.iterdir()) == PARTIAL_PIPELINE

    def test_empty_recovery_interval(self, tmp_path, capsys):
        # noise of order one swamps the trace oscillation; the trimmed
        # value interval comes out empty
        cfg = write_config(tmp_path, *FAST_LINES, "noise.eps = 2.0")
        out = tmp_path / "o"
        assert run(["pipeline", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 4
        assert sorted(p.name for p in out.iterdir()) == PARTIAL_PIPELINE

    def test_mismatched_cauchy_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path, *FAST_LINES)
        out = tmp_path / "out"
        assert run(["forward", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        # a taller domain stretches the gamma2 arc length, so the stored
        # sample parameters no longer match
        other = write_config(
            tmp_path, "domain.vertices = 0,0 1,0 1,2 0,2", name="other.cfg")
        assert run(["continue", "--config", other, "--out", str(out),
                    "--quiet"]) == 1
        assert "cauchy.csv" in capsys.readouterr().err


class TestCheckAndSweep:
    def test_check_outputs(self, tmp_path):
        cfg = write_config(tmp_path, *FAST_LINES, "check.trials = 12")
        out = tmp_path / "out"
        assert run(["check", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        taus = read_csv(out / "threespheres.csv")["tau"]
        assert taus.size == 12
        assert np.all(taus > 0)
        summary = cli._read_report(out / "check_summary.txt")
        assert summary["all_positive"] == "true"

    def test_check_on_a_pentagon(self, tmp_path):
        cfg = write_config(tmp_path, *PENTAGON_LINES, "check.trials = 10")
        out = tmp_path / "out"
        assert run(["check", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        summary = cli._read_report(out / "check_summary.txt")
        assert summary["all_positive"] == "true"

    @pytest.mark.parametrize("line,key,radius", [
        ("check.center = 0.2,0.5", "check.center", "0.4"),
        ("check.rho0 = 0.2", "check.rho0", "0.8"),
    ])
    def test_ball_outside_domain(self, tmp_path, capsys, line, key, radius):
        cfg = write_config(tmp_path, line)
        assert run(["check", "--config", cfg, "--out",
                    str(tmp_path / "o")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert key in err
        assert f"radius {radius}" in err

    # 1e-159 gives subnormal integrals, 1e-200 and 5e-324 zero
    @pytest.mark.parametrize("rho0", ["1e-159", "1e-200", "5e-324"])
    def test_underflowing_ball(self, tmp_path, capsys, rho0):
        cfg = write_config(tmp_path, f"check.rho0 = {rho0}",
                           "check.trials = 10")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["check", "--config", cfg, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("check: check.rho0: ")
        assert list(out.iterdir()) == []

    def test_sweep_outputs(self, tmp_path, monkeypatch):
        built = []

        def counting_build(*args):
            built.append(args)
            return build_rectangle_mesh(*args)

        # both experiments run on the one mesh the command builds
        monkeypatch.setattr(cli, "build_rectangle_mesh", counting_build)
        cfg = write_config(tmp_path, *SWEEP_LINES)
        out = tmp_path / "out"
        assert run(["sweep", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        assert len(built) == 1
        stab = read_csv(out / "stability.csv")
        assert stab["eps"].size == 3
        osc = read_csv(out / "oscillation.csv")
        assert np.all(np.diff(osc["osc"]) > 0)
        assert (out / "sweep_plot.dat").read_text().startswith("# block 0")

    @pytest.mark.parametrize("lines,levels", [
        ((*SWEEP_LINES, "reconstruct.eta_factor = 1"), 3),
        (("mesh.n = 2",), 0),
    ])
    def test_meaningless_sweep_warns(self, tmp_path, capsys, lines, levels):
        # eta_factor = 1 fails every cell; at mesh.n = 2 the error does
        # not fall as the noise falls.  Warnings show under --quiet too.
        cfg = write_config(tmp_path, *lines)
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                    "--quiet"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == levels + 1
        assert all(line.startswith("sweep: warning: ") for line in err)
        assert all("no cell recovered" in line for line in err[:levels])
        assert "stability_theta" in err[-1]
        # sweep_summary.txt holds the same messages
        summary = cli._read_report(tmp_path / "o" / "sweep_summary.txt")
        assert summary["warnings"].split("; ") == \
            [line.removeprefix("sweep: warning: ") for line in err]

    # no positive magnitude, or one whose flux overflows the residual norm
    # (the sweep truncates there, with no numpy warning): nothing to fit
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mags,truncated", [
        ("-1,-0.5", "none"),
        ("0,1e300", "1.0000000000000001e+300"),
    ], ids=["negative", "overflow"])
    def test_oscillation_fit_without_points_warns(self, tmp_path, capsys,
                                                  mags, truncated):
        cfg = write_config(tmp_path, *SWEEP_LINES[:-1],
                           f"oscillation.magnitudes = {mags}")
        out = tmp_path / "o"
        assert run(["sweep", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
        message = ("oscillation_gamma is nan: fewer than three magnitudes "
                   "with m > 0 and 0 < osc < 1 to fit")
        assert capsys.readouterr().err == f"sweep: warning: {message}\n"
        summary = cli._read_report(out / "sweep_summary.txt")
        assert summary["oscillation_gamma"] == "nan"
        assert summary["oscillation_truncated_at"] == truncated
        assert summary["warnings"] == message

    def test_default_sweep_prints_no_warning(self, tmp_path, capsys):
        assert run(["sweep", "--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        summary = cli._read_report(tmp_path / "o" / "sweep_summary.txt")
        assert summary["warnings"] == "none"


def reference_write_csv(path, header, rows):
    """The per-cell writer that write_csv replaced, kept as its reference."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else format_number(c)
                              for c in row))
    path.write_text("\n".join(lines) + "\n")


# cell values whose text a writer that deduplicates by value would get
# wrong: signed zeros and nans, infinities and subnormals
FLOAT_POOL = [0.0, -0.0, 1.0, -1.0 / 3.0, 0.1, 1e300, -1e-300, 5e-324,
              -5e-324, 2.2250738585072014e-308 / 7, float("inf"),
              float("-inf"), float("nan"), -float("nan")]
INT_POOL = [0, 1, -1, 7, -7, 2**31, -2**63, 2**63 - 1, 10**16 + 1]
# numpy integer scalars, which a list column may mix with Python ints
NP_INT_POOL = [np.int32(3), np.int64(-7)]
STR_POOL = ["", "gammaD", "gamma1", "a b"]


@st.composite
def csv_tables(draw):
    """(header, columns) of a table drawn from small pools of values, so
    repeated cells are common; each column is a list or an array."""
    n = draw(st.integers(0, 30))

    def cells(pool):
        return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))

    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["float", "float array", "int",
                                     "int64 array", "int32 array", "str"]))
        if kind.startswith("float"):
            column = cells(FLOAT_POOL)
        elif kind == "int":
            column = cells(INT_POOL + NP_INT_POOL)
        elif kind.startswith("int"):
            column = cells(INT_POOL if kind == "int64 array" else
                           [v for v in INT_POOL if abs(v) < 2**31])
        else:
            column = cells(STR_POOL)
        if kind.endswith("array"):
            column = np.array(column, dtype=kind.split()[0])
        columns.append(column)
    return [f"c{j}" for j in range(len(columns))], columns


def assert_writes_like_reference(tmp_path, header, columns):
    write_csv(tmp_path / "a.csv", header, columns)
    reference_write_csv(tmp_path / "b.csv", header, zip(*columns))
    assert (tmp_path / "a.csv").read_bytes() == \
        (tmp_path / "b.csv").read_bytes()


class TestRuntimeDependencies:
    def test_runs_without_loading_scipy(self, tmp_path):
        # scipy is a test dependency only: importing the package, parsing a
        # config and running a pipeline load no scipy module
        code = (
            "import sys\n"
            "import corrinv.cli\n"
            "from corrinv.config import parse_config\n"
            "parse_config(text='mesh.n = 8')\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "code = corrinv.cli.main(['pipeline', '--config', sys.argv[1],\n"
            "                         '--out', sys.argv[2], '--quiet'])\n"
            "loaded += [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "print(code, sorted(set(loaded)))\n")
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", code, write_config(tmp_path, "mesh.n = 8"),
             str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, timeout=120, check=True)
        assert done.stdout.splitlines()[-1] == "0 []"


class TestCsvRoundtrip:
    def test_matches_reference_writer(self, tmp_path):
        columns = [
            [0, np.int64(-7), 2**63 - 1, np.int32(3), 10**16 + 1],
            [-0.0, 1e300, -1e300, float("inf"), -1.0 / 3.0],
            [5e-324, 2.2250738585072014e-308 / 7, np.float64(0.1),
             float("nan"), -4.9406564584124654e-324],
            ["gammaD", "gamma1", "gamma2", "", "x"],
        ]
        assert_writes_like_reference(tmp_path, ["i", "x", "y", "tag"],
                                     columns)

    def test_repeated_floats_keep_their_bits(self, tmp_path):
        # by value, 0.0 == -0.0 and nan != nan; each bit pattern has one text
        x = np.array(FLOAT_POOL * 3)
        grid = np.stack([x, x[::-1]], axis=1)
        assert_writes_like_reference(tmp_path, ["x", "y", "list"],
                                     [*grid.T, list(x)])
        text = (tmp_path / "a.csv").read_text()
        assert text.count("\n-0,") == 3 and text.count("\n0,") == 3

    @pytest.mark.parametrize("column", [
        [-3, np.int32(-2), np.int64(5), -2**63, 0, -3],
        np.array([-3, -2, 5, 0, -3, 5], dtype=np.int64),
        np.array([-3, -2, 5, 0, -3, 5], dtype=np.int32),
        np.array([0, 10**12, -10**12, 0], dtype=np.int64),
        np.array([0, 2**64 - 1, 7], dtype=np.uint64),
    ])
    def test_int_columns(self, tmp_path, column):
        # dense and sparse ints, one column alone and beside another
        assert_writes_like_reference(tmp_path, ["i"], [column])
        assert_writes_like_reference(tmp_path, ["i", "j"],
                                     [column, np.arange(len(column))])

    def test_int_beyond_int64_is_refused(self, tmp_path):
        with pytest.raises(OverflowError):
            write_csv(tmp_path / "a.csv", ["i"], [[0, 2**63]])
        assert not (tmp_path / "a.csv").exists()

    def test_str_column(self, tmp_path):
        tags = ["gamma2", "", "gammaD", "gamma2", "a b", "gammaD"]
        assert_writes_like_reference(tmp_path, ["tag", "i"],
                                     [tags, np.arange(len(tags))])

    def test_rows_span_several_blocks(self, tmp_path):
        n = 2 * csvio._BLOCK_ROWS + 3
        rng = np.random.default_rng(1)
        columns = [np.arange(n), rng.choice(FLOAT_POOL, n),
                   rng.choice(STR_POOL, n).tolist(), rng.normal(size=n)]
        assert_writes_like_reference(tmp_path, ["i", "x", "tag", "u"],
                                     columns)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(table=csv_tables())
    def test_matches_reference_on_generated_tables(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            assert_writes_like_reference(Path(tmp), *table)

    @pytest.mark.parametrize("n", [1, 12])
    def test_mesh_tables_match_reference_writer(self, tmp_path, n):
        # at n = 12 the grid coordinates are not dyadic
        settings_ = dataclasses.replace(parse_config(text=""), mesh_n=n)
        mesh, _ = cli._forward_stage(settings_, tmp_path, quiet=True)
        u, _ = solve_forward(mesh, settings_.flux, settings_.model)
        reference = {
            "bedges.csv": (["id", "n0", "n1", "tag", "t0", "t1"],
                           [(i, int(e[0]), int(e[1]),
                             mesh.domain.side_tags[s].value, tt[0], tt[1])
                            for i, (e, s, tt) in enumerate(zip(
                                mesh.edges.nodes, mesh.edges.sides,
                                mesh.edges.t))]),
            "field.csv": (["node", "x", "y", "u"],
                          [(i, p[0], p[1], v) for i, (p, v) in enumerate(
                              zip(mesh.nodes, u))]),
        }
        for name, (header, rows) in reference.items():
            reference_write_csv(tmp_path / f"ref-{name}", header, rows)
            assert (tmp_path / name).read_bytes() == \
                (tmp_path / f"ref-{name}").read_bytes(), name
        # the README's rule rebuilds the triangles from field.csv alone:
        # node j*(nx+1)+i sits at (gx[i], gy[j]), and each cell a b c d,
        # counterclockwise from its lower left, gives (a,b,c) and (a,c,d)
        field = read_csv(tmp_path / "field.csv")
        x, y = field["x"], field["y"]
        nx = int(np.sum(y == y[0])) - 1
        ny = x.size // (nx + 1) - 1
        gx, gy = x[:nx + 1], y[::nx + 1]
        np.testing.assert_array_equal(field["node"], np.arange(x.size))
        np.testing.assert_array_equal(x, np.tile(gx, ny + 1))
        np.testing.assert_array_equal(y, np.repeat(gy, nx + 1))
        tris = []
        for j in range(ny):
            for i in range(nx):
                a = j * (nx + 1) + i
                b, c, d = a + 1, a + nx + 2, a + nx + 1
                tris += [(a, b, c), (a, c, d)]
        tris = np.array(tris)
        np.testing.assert_array_equal(tris, triangles(mesh))
        p, q = x[tris], y[tris]
        assert np.all((p[:, 1] - p[:, 0]) * (q[:, 2] - q[:, 0])
                      > (q[:, 1] - q[:, 0]) * (p[:, 2] - p[:, 0]))

    def test_ragged_row(self, tmp_path):
        for columns in ([[1, 3], [2.0]], [[1]], [[1], [2.0], [3.0]]):
            with pytest.raises(ValueError, match="ragged"):
                write_csv(tmp_path / "r.csv", ["a", "b"], columns)

    def test_write_read_write_is_stable(self, tmp_path):
        rng = np.random.default_rng(0)
        columns = [np.arange(50), rng.uniform(-1e3, 1e3, 50),
                   rng.uniform(1e-12, 1.0, 50)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, ["i", "x", "y"], columns)
        table = read_csv(p1)
        write_csv(p2, list(table), list(table.values()))
        assert p1.read_bytes() == p2.read_bytes()
