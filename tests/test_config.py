"""The config key table against the README, and generated configs run
through the CLI."""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrinv import cli
from corrinv.config import _KEYS, DEFAULT_CONFIG_TEXT

README = Path(__file__).resolve().parents[1] / "README.md"

# the keys every generated config sets: a coarse mesh, and a sweep and a
# check small enough for a unit test
SMALL_RUN = {
    "mesh.n": st.integers(2, 8).map(str),
    "sweep.seeds": st.just("5"),
    "sweep.eps_levels": st.lists(st.floats(0.0, 0.1), min_size=3, max_size=3,
                                 unique=True).map(
        lambda xs: ",".join(repr(x) for x in sorted(xs, reverse=True))),
    "oscillation.magnitudes": st.lists(st.floats(0.01, 1.5), min_size=3,
                                       max_size=3, unique=True).map(
        lambda xs: ",".join(repr(x) for x in sorted(xs))),
    "check.trials": st.just("10"),
}
TAGS = ("gammaD", "gamma1", "gamma2")
STAGES = ("config", "forward", "continue", "reconstruct", "pipeline",
          "sweep", "check")
# the files that forward, continue and reconstruct write, in stage order
STAGE_FILES = (["bedges.csv", "cauchy.csv", "field.csv", "gamma1.csv",
                "report.txt"],
               ["fitreport.txt", "gamma1_rec.csv"],
               ["frec.csv", "segreport.txt"])


def rectangles():
    """Counterclockwise axis-aligned rectangles, as domain.vertices."""
    def vertices(x0, y0, w, h):
        corners = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]
        return " ".join(f"{x!r},{y!r}" for x, y in corners)
    return st.builds(vertices, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                     st.floats(0.1, 3.0), st.floats(0.1, 3.0))


def value(key):
    """A value of the key's kind within its bound."""
    _, _, kind, bound = _KEYS[key]
    if isinstance(bound, set):
        return st.sampled_from(sorted(bound))
    op, limit = bound if bound is not None else (None, -4.0)
    if kind == "int":
        return st.integers(limit + (op == ">"), limit + 12).map(str)
    if kind == "float":
        return st.floats(limit, limit + 8.0, exclude_min=op == ">").map(repr)
    if kind == "bool":
        return st.sampled_from(["true", "false", "yes", "no", "1", "0"])
    if kind == "floats":
        return st.lists(st.floats(-4.0, 4.0), max_size=4).map(
            lambda xs: ",".join(repr(x) for x in xs))
    if kind == "pairs":
        pairs = st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                         max_size=5).map(
            lambda ps: " ".join(f"{x!r},{y!r}" for x, y in ps))
        return st.one_of(rectangles(), pairs)
    return st.lists(st.sampled_from(TAGS), min_size=3, max_size=5).map(
        " ".join)


@st.composite
def configs(draw):
    """Config entries: up to six keys drawn from the table, plus SMALL_RUN."""
    keys = draw(st.sets(st.sampled_from(sorted(set(_KEYS) - set(SMALL_RUN))),
                        max_size=6))
    entries = {key: draw(value(key)) for key in sorted(keys)}
    entries.update({key: draw(s) for key, s in SMALL_RUN.items()})
    return entries


# a nan or inf as csvio and the reports write it
NONFINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def warned(sub, out):
    """Whether a run that exited 0 names a warning in its outputs: a sweep
    whose summary's warnings line is not none."""
    return sub == "sweep" and cli._read_report(
        out / "sweep_summary.txt")["warnings"] != "none"


def left_behind(sub, code):
    """The file lists that a run of sub exiting nonzero with code may leave
    in --out: none for sweep and check, which write only once they have
    their result; for pipeline, the files of the stages that passed, all
    of forward's and continue's at exit 3 or 4 and none at exit 2."""
    if sub != "pipeline" or code == cli.EXIT_FORWARD:
        return [[]]
    passed = [sorted(sum(STAGE_FILES[:k], [])) for k in range(4)]
    return passed[2:3] if code != cli.EXIT_CONFIG else passed


def names_a_key_or_file(line):
    """Whether an error line names a config key or a staged file."""
    words = set(re.findall(r"[\w.]+", line))
    return bool(words & set(_KEYS)) or any(
        name in line for files in STAGE_FILES for name in files)


def small(entries):
    """SMALL_RUN at mesh.n = 4, updated with the given entries."""
    return {"mesh.n": "4", "sweep.seeds": "5",
            "sweep.eps_levels": "1e-2,1e-3,1e-4",
            "oscillation.magnitudes": "0.2,0.4,0.6", "check.trials": "10",
            **entries}


class TestKeyTable:
    def test_readme_default_block_is_the_default_text(self):
        text = README.read_text()
        block = re.search(r"The full default block.*?```\n(.*?)```", text,
                          re.S).group(1)
        lines = [line.split("#", 1)[0].rstrip() for line in block.splitlines()]
        assert "".join(f"{line}\n" for line in lines) == DEFAULT_CONFIG_TEXT

    def test_every_key_is_documented(self):
        text = README.read_text()
        assert [key for key in _KEYS if key not in text] == []


class TestGeneratedConfigs:
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(entries=configs())
    # flux inputs that FluxProfile rejects
    @example(entries=small({"flux.coeffs": ""}))
    @example(entries=small({"flux.kind": "tabulated", "flux.t_knots": "1,0",
                            "flux.g_knots": "1,2"}))
    @example(entries=small({"flux.kind": "tabulated",
                            "flux.t_knots": "0,1,2", "flux.g_knots": "1,2"}))
    @example(entries=small({"flux.kind": "tabulated", "flux.t_knots": "",
                            "flux.g_knots": ""}))
    # Newton stalls in the base solve of the sweep
    @example(entries=small({"mesh.n": "16", "model.lam": "50.0",
                            "model.umax": "50.0", "flux.kind": "constant",
                            "flux.value": "50.0"}))
    # disk integrals of the three-spheres check underflow to zero
    @example(entries=small({"check.rho0": "5e-324"}))
    # a mesh too coarse to leave gamma1 and gamma2 a node off gammaD
    @example(entries=small({"domain.vertices": "0,0 0.2,0 0.2,1 0,1",
                            "domain.tags": "gamma2 gammaD gamma1 gammaD",
                            "mesh.n": "2", "domain.r0": "0.02"}))
    # grid axes that repeat floating-point values
    @example(entries=small({"domain.vertices": "1,0 1.00000000000001,0 "
                                               "1.00000000000001,1e-14 1,1e-14",
                            "mesh.n": "10000000000000000"}))
    # the Newton residual overflows at 1e300: the oscillation sweep stops
    # there and its fit is nan, which a warning names
    @example(entries=small({"oscillation.magnitudes": "0,1e300"}))
    # the oscillation sweep fails after the noise sweep, so sweep writes no
    # file
    @example(entries=small({"oscillation.magnitudes": "1e-30,0.2,0.4"}))
    # a pipeline that fails in continue (exit 3) or reconstruct (exit 4)
    @example(entries=small({"noise.eps": "1e-300"}))
    @example(entries=small({"reconstruct.eta_factor": "4.0"}))
    def test_runs_or_exits_with_a_named_stage(self, entries):
        text = "".join(f"{key} = {v}\n" for key, v in entries.items())
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text(text)
            for sub in ("pipeline", "sweep", "check"):
                err = io.StringIO()
                out = Path(tmp) / sub
                # no run raises a Python warning
                with contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()), \
                        warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = cli.main([sub, "--config", str(cfg), "--out",
                                     str(out), "--quiet"])
                assert code in (0, 1, 2, 3, 4), (sub, text)
                if code != 0:
                    # one line, from a named stage; a rejected input names
                    # its config key or staged file, while exits 2 to 4
                    # report what the solver or the data did
                    lines = err.getvalue().splitlines()
                    assert len(lines) == 1, (sub, text, lines)
                    assert lines[0].split(": ", 1)[0] in STAGES, (sub, lines)
                    assert (code != cli.EXIT_CONFIG
                            or names_a_key_or_file(lines[0])), (sub, lines)
                    left = sorted(p.name for p in out.glob("*"))
                    assert left in left_behind(sub, code), (sub, text, left)
                elif not warned(sub, out):
                    # no silent nan or inf
                    assert [p.name for p in sorted(out.iterdir())
                            if NONFINITE.search(p.read_text())] == [], (
                        sub, text)
