"""The benchmark tracer binds corrinv names by attribute: it must install
on the current package and leave every module as it found it."""

import importlib.util
import sys
from pathlib import Path

import corrinv.cli  # noqa: F401  (the tracer patches every loaded module)
from corrinv.config import parse_config
from corrinv.forward import solve_forward
from corrinv.geometry import build_rectangle_mesh

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def load_tracer():
    return load("tracer")


def bindings(tracer):
    """Every attribute the tracer may patch: the corrinv module namespaces
    and the eval and grad methods of the basis classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "corrinv"
                                   or name.startswith("corrinv.")):
            out[name] = dict(vars(module))
    cont = sys.modules["corrinv.continuation"]
    for cls_name in tracer.BASIS_CLASSES:
        cls = getattr(cont, cls_name)
        out[cls_name] = {m: vars(cls)[m] for m in ("eval", "grad")}
    return out


def changed(before, after):
    """The (namespace, attribute) pairs of before not bound as before."""
    return [(k, a) for k in before for a, v in before[k].items()
            if after[k].get(a) is not v]


class TestTracerContract:
    def test_install_wraps_and_uninstall_restores(self, tmp_path):
        tracer_module = load_tracer()
        tracer = tracer_module.Tracer()
        before = bindings(tracer_module)
        tracer.install()
        try:
            during = bindings(tracer_module)
            for layer, names in tracer_module.TRACED_FUNCTIONS.items():
                for fname in names:
                    assert (during[f"corrinv.{layer}"][fname]
                            is not before[f"corrinv.{layer}"][fname]), fname
            cfg = tmp_path / "run.cfg"
            cfg.write_text("mesh.n = 4\nsweep.seeds = 5\n"
                           "sweep.eps_levels = 1e-2,1e-3,1e-4\n"
                           "oscillation.magnitudes = 0.2,0.4,0.6\n")
            code = tracer.run(0, sys.modules["corrinv.cli"].main,
                              ["sweep", "--config", str(cfg), "--out",
                               str(tmp_path / "out"), "--quiet"])
        finally:
            tracer.uninstall()
        assert code == 0
        spans = tracer.per_invocation()[0]
        assert spans["geometry.inner_portion"][0] == 1
        assert spans["forward.neumann_trace"][0] == 1
        assert tracer.counters[0]["forward.newton_iterations"] > 0
        assert changed(before, bindings(tracer_module)) == []
        # the summary's per-magnitude counts are every traced Newton
        # iteration but those of the noise sweep's one solve
        summary = (tmp_path / "out" / "sweep_summary.txt").read_text()
        line = next(v for k, v in (row.split(" = ")
                                   for row in summary.splitlines())
                    if k == "oscillation_newton_iterations")
        config = parse_config(path=cfg)
        mesh = build_rectangle_mesh(config.domain, config.mesh_n)
        _, report = solve_forward(mesh, config.flux, config.model)
        assert (sum(int(k) for k in line.split(","))
                == tracer.counters[0]["forward.newton_iterations"]
                - report.iterations)


    def test_sweep_reaches_every_span_of_its_workload(self, tmp_path,
                                                      monkeypatch):
        # every span whose calls or time the benchmark maps to sweep-n64
        # (and so requires to be nonzero there) is recorded by a small
        # traced sweep, so a refactor that stops calling one fails here
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "1")  # run.py pins them at import
        per_layer = load("run").PER_LAYER
        spans = {name.rsplit(".", 1)[0] for name, _, target, _ in per_layer
                 if target == "sweep-n64"
                 and name.endswith((".calls", ".s"))}
        assert {"experiments.reconstruct_from_data", "continuation.choose_mu",
                "continuation.fit",
                "reconstruction.find_monotone_segment"} <= spans
        tracer = load_tracer().Tracer()
        tracer.install()
        try:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("mesh.n = 16\nsweep.seeds = 5\n"
                           "oscillation.magnitudes = 0.2,0.4,0.6\n")
            code = tracer.run(0, sys.modules["corrinv.cli"].main,
                              ["sweep", "--config", str(cfg), "--out",
                               str(tmp_path / "out"), "--quiet"])
        finally:
            tracer.uninstall()
        assert code == 0
        recorded = tracer.per_invocation()[0]
        assert [s for s in sorted(spans) if recorded[s][0] < 1] == []
