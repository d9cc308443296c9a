"""Self-check of the corrinv benchmark's tracer and result contract.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py

For each workload it makes two short traced runs at seed 0 and checks that

- the run passes its output checks and reports exactly the per-layer
  metrics of BENCHMARK.json, with their units;
- every per-layer metric mapped to the workload in ``run.PER_LAYER`` is
  nonzero on it;
- every count (each metric not in seconds) repeats exactly between the two
  runs.

It prints the counts next to ``baseline_counts.json``, the counts at the
commit that added the benchmark.  They are not asserted: later changes
exist to lower them.  Last, it runs the benchmark in a directory holding
only BENCHMARK.json and perfbench/, where it must exit nonzero without
printing a result.  Exits 0 when every check passes; takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, TMP_ROOT, WORKLOADS  # noqa: E402

TIME_UNIT = "s/cmd"


def _bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(done) -> dict | None:
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_workload(workload: str, expected_units: dict, baseline: dict,
                   problems: list) -> None:
    runs = []
    for _ in range(2):
        done = _bench(ROOT, workload, trace=1)
        result = _result(done)
        if done.returncode != 0 or result is None:
            problems.append(f"{workload}: traced run failed:\n{done.stderr}")
            return
        if not result["correct"]:
            problems.append(f"{workload}: output checks failed")
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        if units != expected_units:
            problems.append(f"{workload}: metrics differ from BENCHMARK.json")
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
    first, second = runs
    for name, unit, target, _ in PER_LAYER:
        if target == workload and not first.get(name):
            problems.append(f"{workload}: {name} is zero")
        if unit != TIME_UNIT and first.get(name) != second.get(name):
            problems.append(f"{workload}: {name} did not repeat "
                            f"({first.get(name)} then {second.get(name)})")
    print(f"{workload}: count, baseline")
    for name, unit, _, _ in PER_LAYER:
        if unit != TIME_UNIT and name != "trace.overhead_s":
            print(f"  {name} = {first.get(name)}, "
                  f"{baseline.get(workload, {}).get(name)}")


def check_bare_directory(problems: list) -> None:
    TMP_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=TMP_ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _bench(bare, "check", trace=0)
        if done.returncode == 0 or _result(done) is not None:
            problems.append("benchmark ran without the corrinv sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    baseline = json.loads((HERE / "baseline_counts.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS) or \
            [(m["name"], m["unit"]) for m in spec["end_to_end"]] != END_TO_END:
        problems.append("BENCHMARK.json workloads or end-to-end metrics "
                        "differ from run.py")
    for workload in WORKLOADS:
        check_workload(workload, expected_units, baseline, problems)
    check_bare_directory(problems)
    for line in problems:
        print(f"FAIL {line}")
    print("selfcheck: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
