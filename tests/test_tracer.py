"""The benchmark tracer binds corrinv names by attribute: it must install
on the current package and leave every module as it found it."""

import importlib.util
import sys
from pathlib import Path

import corrinv.cli  # noqa: F401  (the tracer patches every loaded module)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
