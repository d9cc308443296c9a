"""Benchmark of the corrinv command-line tool.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-n256 --seed 0 --seconds 30 --trace 0

Each run times whole ``corrinv`` commands in this process through
``corrinv.cli.main`` in a closed loop: one invocation in flight, the next
one starts when the previous returns.  One untimed warm-up invocation runs
first.  Every invocation, warm-up included, is checked (exit code, the
command's own output checks, byte-identical ``--out`` trees); one that
fails counts in ``failed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced invocations and prints the per-layer metrics: calls and
self time of the public corrinv functions, taken per invocation (median
over the traced invocations), plus the tracing overhead.  Spans are written
to ``.bench_out/spans-<workload>.jsonl`` at the end of a traced run.

The benchmark seed only generates config text; see WORKLOADS.  Outputs go
to a temporary directory under ``.bench_tmp/`` that is removed at exit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported.  One thread: the SVDs and basis products
# are small, and at two threads a default sweep took 2.6 s against 2.0 s.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
SPAN_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 5
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import corrinv\n"
    "from corrinv.config import parse_config\n"
    "parse_config(text=sys.argv[1])\n"
    "print(repr(time.perf_counter() - t0))\n"
)


# -- reading the command's outputs ------------------------------------------
# Plain parsing, independent of the code under test.

def _report(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _csv(path: Path) -> list[dict]:
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _check_pipeline(out: Path) -> str | None:
    residual = _report(out / "report.txt").get("residual", "nan")
    if not (_finite(residual) and float(residual) <= 1e-12):
        return f"report.txt residual = {residual}"
    if not _finite(_report(out / "summary.txt").get("sup_error", "nan")):
        return "summary.txt sup_error is not finite"
    return None


def _check_sweep(out: Path) -> str | None:
    fails = [row["fails"] for row in _csv(out / "stability.csv")]
    if any(float(f) != 0 for f in fails):
        return f"stability.csv fails = {fails}"
    theta = _report(out / "sweep_summary.txt").get("stability_theta", "nan")
    if not _finite(theta):
        return f"sweep_summary.txt stability_theta = {theta}"
    return None


def _check_check(out: Path) -> str | None:
    flag = _report(out / "check_summary.txt").get("all_positive")
    return None if flag == "true" else f"check_summary.txt all_positive = {flag}"


def _sup_err_pipeline(out: Path) -> float:
    return float(_report(out / "summary.txt")["sup_error"])


def _sup_err_sweep(out: Path) -> float:
    rows = _csv(out / "stability.csv")
    return next(float(r["median_err"]) for r in rows
                if float(r["eps"]) == 1e-3)


def _sup_err_check(out: Path) -> float:
    # check recovers no law; its figure is the worst trial's shortfall of the
    # three-spheres exponent, sup over trials of (1 - tau).
    return 1.0 - float(_report(out / "check_summary.txt")["tau_min"])


@dataclass(frozen=True)
class Workload:
    command: str
    mesh_n: int | None
    seeded: bool
    config: Callable[[int], str]
    check: Callable[[Path], str | None]
    sup_err: Callable[[Path], float]
    sup_err_source: str


WORKLOADS = {
    # One large mesh (66,049 nodes), run once.  Loads sparse solves (3 Newton
    # spsolves, 1 lift spsolve) and CSV output (~265k rows, 7.9 MB from
    # field.csv and export_mesh_csv).  Bypasses repeated work: 4 stiffness
    # assemblies, 2 SVDs and one short segment scan.
    "pipeline-n256": Workload(
        command="pipeline", mesh_n=256, seeded=True,
        config=lambda seed: ("mesh.n = 256\nnoise.eps = 1e-3\n"
                             f"noise.seed = {seed % 2**31}\n"),
        check=_check_pipeline, sup_err=_sup_err_pipeline,
        sup_err_source="summary.txt sup_error"),
    # One small mesh (4,225 nodes), work repeated: 101 assemblies, 68
    # spsolves, 121 trace samples, 40 O(K^2) segment scans and 80 SVDs.  The
    # caching case.  Bypasses CSV output.  The sweep has no seed of its own
    # (noise seeds 0..9), so this workload ignores the benchmark seed.
    "sweep-n64": Workload(
        command="sweep", mesh_n=64, seeded=False,
        config=lambda seed: "mesh.n = 64\n",
        check=_check_sweep, sup_err=_sup_err_sweep,
        sup_err_source="stability.csv median_err at eps = 1e-3"),
    # No mesh, no sparse solve, no CSV volume: all time is continuation
    # basis evaluation (300 disk integrals, 28,800 corner-basis evaluations).
    # Untouched by any forward-layer change.
    "check": Workload(
        command="check", mesh_n=None, seeded=True,
        config=lambda seed: f"check.seed = {seed % 2**31}\n",
        check=_check_check, sup_err=_sup_err_check,
        sup_err_source="1 - check_summary.txt tau_min"),
}

END_TO_END = [  # (name, unit)
    ("setup_s", "s"),
    ("cmd_s.p50", "s"),
    ("cmd_s.tail", "s"),
    ("peak_rss_mb", "MB"),
    ("sup_err", "1"),
]

# Per-layer metrics, all per invocation: (name, unit, workload where the
# layer does its work and the metric must be nonzero, end-to-end metric it
# should move there).  None: no single workload (ratios, overhead).
PER_LAYER = [
    ("geometry.build_rectangle_mesh.calls", "count/cmd", "sweep-n64", "cmd_s.p50"),
    ("geometry.build_rectangle_mesh.s", "s/cmd", "sweep-n64", "cmd_s.p50"),
    ("geometry.trace_sample.calls", "count/cmd", "sweep-n64", "cmd_s.p50"),
    ("geometry.trace_sample.s", "s/cmd", "sweep-n64", "cmd_s.p50"),
    ("geometry.export_mesh_csv.s", "s/cmd", "pipeline-n256", "cmd_s.p50"),
    ("geometry.distinct_meshes", "count/cmd", "sweep-n64", None),
    ("forward.assemble_stiffness.calls", "count/cmd", "sweep-n64", "cmd_s.p50"),
    ("forward.assemble_stiffness.s", "s/cmd", "sweep-n64", "cmd_s.p50"),
    ("forward.assemble_boundary_load.calls", "count/cmd", "sweep-n64", "cmd_s.p50"),
    ("forward.assemble_boundary_load.s", "s/cmd", "sweep-n64", "cmd_s.p50"),
    ("forward.neumann_trace.calls", "count/cmd", "sweep-n64", "cmd_s.p50"),
    ("forward.neumann_trace.s", "s/cmd", "sweep-n64", "cmd_s.p50"),
    ("forward.extract_cauchy_data.calls", "count/cmd", "sweep-n64", "cmd_s.p50"),
    ("forward.extract_cauchy_data.s", "s/cmd", "sweep-n64", "cmd_s.p50"),
    ("forward.solve_forward.calls", "count/cmd", "pipeline-n256", "cmd_s.p50"),
    ("forward.solve_forward.s", "s/cmd", "pipeline-n256", "cmd_s.p50"),
    ("forward.newton_iterations", "count/cmd", "pipeline-n256", "cmd_s.p50"),
    ("forward.spsolve.calls", "count/cmd", "pipeline-n256", "cmd_s.p50"),
    ("forward.spsolve.s", "s/cmd", "pipeline-n256", "cmd_s.p50"),
    ("experiments.lift_spsolve.calls", "count/cmd", "pipeline-n256", "cmd_s.p50"),
    ("experiments.lift_spsolve.s", "s/cmd", "pipeline-n256", "cmd_s.p50"),
    ("experiments.continue_data.calls", "count/cmd", "sweep-n64", "cmd_s.p50"),
    ("experiments.continue_data.s", "s/cmd", "sweep-n64", "cmd_s.p50"),
    ("experiments.reconstruct_from_data.calls", "count/cmd", "sweep-n64", "fail_frac"),
    ("experiments.sweep_cells_failed", "count/cmd", None, "fail_frac"),
    ("experiments.disk_integral.calls", "count/cmd", "check", "cmd_s.p50"),
    ("experiments.disk_integral.s", "s/cmd", "check", "cmd_s.p50"),
    ("continuation.basis_eval.calls", "count/cmd", "check", "cmd_s.p50"),
    ("continuation.basis_eval.s", "s/cmd", "check", "cmd_s.p50"),
    ("continuation.design_matrix.calls", "count/cmd", "sweep-n64", "cmd_s.p50"),
    ("continuation.design_matrix.s", "s/cmd", "sweep-n64", "cmd_s.p50"),
    ("continuation.svd.calls", "count/cmd", "sweep-n64", "cmd_s.p50"),
    ("continuation.svd.s", "s/cmd", "sweep-n64", "cmd_s.p50"),
    ("continuation.choose_mu.calls", "count/cmd", "sweep-n64", "cmd_s.p50"),
    ("continuation.choose_mu.s", "s/cmd", "sweep-n64", "cmd_s.p50"),
    ("continuation.fit.calls", "count/cmd", "sweep-n64", "sup_err"),
    ("continuation.fit.s", "s/cmd", "sweep-n64", "cmd_s.p50"),
    ("reconstruction.find_monotone_segment.calls", "count/cmd", "sweep-n64", "cmd_s.p50"),
    ("reconstruction.find_monotone_segment.s", "s/cmd", "sweep-n64", "cmd_s.p50"),
    ("reconstruction.extract_f.s", "s/cmd", "sweep-n64", "cmd_s.p50"),
    ("csvio.write_csv.calls", "count/cmd", "pipeline-n256", "cmd_s.p50"),
    ("csvio.write_csv.s", "s/cmd", "pipeline-n256", "cmd_s.p50"),
    ("csvio.write_csv.rows", "count/cmd", "pipeline-n256", "cmd_s.p50"),
    ("csvio.bytes_out", "B/cmd", "pipeline-n256", "cmd_s.p50"),
    ("csvio.read_csv.calls", "count/cmd", None, "cmd_s.p50"),
    ("csvio.read_csv.s", "s/cmd", None, "cmd_s.p50"),
    ("config.parse_config.s", "s/cmd", "check", "setup_s"),
    # useful-work ratios, ideal 1; bases are geometry.distinct_meshes and
    # forward.extract_cauchy_data.calls (one Cauchy data realization each)
    ("forward.assemblies_per_mesh", "1", "sweep-n64", "cmd_s.p50"),
    ("sparse.factorizations_per_mesh", "1", "sweep-n64", "cmd_s.p50"),
    ("continuation.svd_per_data", "1", "sweep-n64", "cmd_s.p50"),
    ("trace.overhead_s", "s/cmd", None, None),
]


# -- one invocation ---------------------------------------------------------

def _tree_hash(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Runner:
    """Runs and checks invocations of one workload in a closed loop."""

    def __init__(self, workload: Workload, config_text: str, work_dir: Path):
        from corrinv import cli

        self.cli = cli
        self.workload = workload
        self.work_dir = work_dir
        self.config = work_dir / "run.cfg"
        self.config.write_text(config_text)
        self.attempted = 0
        self.failures = []
        self.reference_hash = None
        self.sup_errs = []
        self.bytes_out = []
        self.sweep_cells_failed = []

    def invoke(self, call=None) -> float:
        """One checked invocation; returns its wall time in seconds.
        ``call(main, argv)``, if given, runs it in place of ``main(argv)``."""
        index = self.attempted
        self.attempted += 1
        out = self.work_dir / f"out-{index}"
        argv = [self.workload.command, "--config", str(self.config),
                "--out", str(out), "--quiet"]
        t0 = time.perf_counter()
        try:
            main = self.cli.main
            code = call(main, argv) if call else main(argv)
        except Exception:
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
        reason = self._verify(out, code)
        if reason is not None:
            self.failures.append(f"invocation {index}: {reason}")
            print(f"benchmark: invocation {index} failed: {reason}",
                  file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return elapsed

    def _verify(self, out: Path, code) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            self._record(out)
            reason = self.workload.check(out)
            if reason is not None:
                return reason
            self.sup_errs.append(self.workload.sup_err(out))
        except (OSError, KeyError, ValueError, StopIteration) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        digest = _tree_hash(out)
        if self.reference_hash is None:
            self.reference_hash = digest
        elif digest != self.reference_hash:
            return "--out tree differs from the first invocation's"
        return None

    def _record(self, out: Path) -> None:
        """Per-layer figures read from the output files, before the checks
        that may reject them."""
        self.bytes_out.append(sum(p.stat().st_size for p in out.rglob("*")
                                  if p.is_file()))
        stability = out / "stability.csv"
        if stability.exists():
            self.sweep_cells_failed.append(
                sum(int(float(r["fails"])) for r in _csv(stability)))


def closed_loop(seconds: float, step: Callable[[int], float],
                minimum: int = 1) -> None:
    """Call ``step(i)`` for i = 0, 1, ... until the next call, if it took
    as long as the last, would end past ``seconds``; at least ``minimum``
    times."""
    start = time.perf_counter()
    i = 0
    while True:
        last = step(i)
        i += 1
        if i >= minimum and time.perf_counter() - start + last > seconds:
            return


# -- metrics ----------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile).  Below twenty samples no percentile at or above the
    median has ten beyond it, and the maximum (p100) is reported."""
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], 100
    return xs[n - 11], (100 * (n - 10)) // n


def measure_setup(config_text: str) -> list[float]:
    """Import corrinv and parse the config in fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, config_text],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def environment(name: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "mesh_nodes": {w: (None if spec.mesh_n is None
                           else (spec.mesh_n + 1) ** 2)
                       for w, spec in WORKLOADS.items()},
        "workload": name,
        "seed": seed,
        "seed_used": WORKLOADS[name].seeded,
    }


def end_to_end(runner: Runner, samples: list[float], setup: list[float]):
    value, pct = tail(samples)
    metrics = {
        "setup_s": statistics.median(setup),
        "cmd_s.p50": statistics.median(samples),
        "cmd_s.tail": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sup_err": statistics.median(runner.sup_errs) if runner.sup_errs else math.nan,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "cmd_s.p50": f"median of {len(samples)} invocations",
        "cmd_s.tail": f"p{pct} of {len(samples)} invocations",
        "peak_rss_mb": "peak resident memory of this process",
        "sup_err": runner.workload.sup_err_source,
    }
    return metrics, notes


def _layer_row(spans, counters, meshes: int) -> dict:
    """Per-layer figures of one traced invocation, except those read from
    its outputs and the overhead."""
    row = {}
    for name, *_ in PER_LAYER:
        stem, _, kind = name.rpartition(".")
        if kind == "calls":
            row[name] = spans.get(stem, (0, 0.0))[0]
        elif kind == "s":
            row[name] = spans.get(stem, (0, 0.0))[1]
    for name in ("forward.newton_iterations", "csvio.write_csv.rows"):
        row[name] = counters.get(name, 0)
    row["geometry.distinct_meshes"] = meshes
    solves = row["forward.spsolve.calls"] + row["experiments.lift_spsolve.calls"]
    data = row["forward.extract_cauchy_data.calls"]
    row["forward.assemblies_per_mesh"] = (
        row["forward.assemble_stiffness.calls"] / meshes if meshes else 0.0)
    row["sparse.factorizations_per_mesh"] = solves / meshes if meshes else 0.0
    row["continuation.svd_per_data"] = (
        row["continuation.svd.calls"] / data if data else 0.0)
    return row


def per_layer(runner: Runner, tracer, traced: list[int],
              traced_s: list[float], untraced_s: list[float]):
    """Medians over the traced invocations, and whether every count
    repeated exactly between them."""
    spans = tracer.per_invocation()
    rows = [_layer_row(spans[inv], tracer.counters[inv],
                       len(tracer.meshes[inv])) for inv in traced]
    metrics = {name: statistics.median(r[name] for r in rows)
               for name in rows[0]}
    metrics["csvio.bytes_out"] = statistics.median(runner.bytes_out or [0])
    metrics["experiments.sweep_cells_failed"] = max(
        runner.sweep_cells_failed or [0])
    metrics["trace.overhead_s"] = (statistics.median(traced_s)
                                   - statistics.median(untraced_s))
    notes = {"trace.overhead_s": (
        f"traced p50 {statistics.median(traced_s):.4f} s over "
        f"{len(traced_s)} invocations minus untraced p50 "
        f"{statistics.median(untraced_s):.4f} s over {len(untraced_s)}")}
    counts = [{k: v for k, v in r.items() if not k.endswith(".s")}
              for r in rows]
    return metrics, notes, all(c == counts[0] for c in counts)


def _json_value(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def timed_run(runner: Runner, seconds: float, config_text: str):
    """Untraced run: the end-to-end metrics."""
    setup = measure_setup(config_text)
    samples = []

    def step(i):
        samples.append(runner.invoke())
        return samples[-1]

    closed_loop(seconds, step)
    return end_to_end(runner, samples, setup)


def traced_run(runner: Runner, seconds: float, span_path: Path):
    """Untraced and traced invocations in turn: the per-layer metrics."""
    from tracer import Tracer

    tracer = Tracer()
    traced, traced_s, untraced_s = [], [], []

    def call_traced(main, argv):
        tracer.install()
        try:
            return tracer.run(traced[-1], main, argv)
        finally:
            tracer.uninstall()

    def step(i):
        if i % 2 == 0:
            untraced_s.append(runner.invoke())
            return untraced_s[-1]
        traced.append(runner.attempted)
        traced_s.append(runner.invoke(call_traced))
        return traced_s[-1]

    closed_loop(seconds, step, minimum=2)
    tracer.write(span_path)
    return per_layer(runner, tracer, traced, traced_s, untraced_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark of the corrinv command-line tool.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "corrinv" / "__init__.py").is_file():
        print(f"benchmark: no corrinv package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import corrinv

    if Path(corrinv.__file__).resolve().parent != SRC / "corrinv":
        print(f"benchmark: imported corrinv from {corrinv.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    config_text = workload.config(args.seed)
    env = environment(args.workload, args.seed)
    TMP_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    try:
        runner = Runner(workload, config_text, work_dir)
        runner.invoke()  # warm-up, checked but not timed
        if args.trace:
            metrics, notes, repeat = traced_run(
                runner, args.seconds, SPAN_DIR / f"spans-{args.workload}.jsonl")
            units = {name: unit for name, unit, *_ in PER_LAYER}
        else:
            metrics, notes = timed_run(runner, args.seconds, config_text)
            units = dict(END_TO_END)
            repeat = True
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    failed = len(runner.failures)
    print(f"# corrinv benchmark, workload {args.workload}, "
          f"trace {args.trace}, {args.seconds:g} s")
    print(f"# environment: {json.dumps(env)}")
    for name in units:
        note = f"  # {notes[name]}" if name in notes else ""
        print(f"{name} = {metrics[name]!r} {units[name]}{note}")
    print(f"fail_frac = {failed / runner.attempted!r}  "
          f"# {failed} of {runner.attempted} invocations, warm-up included")
    if not repeat:
        print("# warning: call counts differ between traced invocations")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": _json_value(metrics[name]),
                           "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
