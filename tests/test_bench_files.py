"""Every speed claim lands as a ``BENCH_<workload>.json`` at the repository
root: the command, each side's median and quartiles of every end-to-end
metric of ``BENCHMARK.json`` over at least 5 runs, the machine and the git
sha, with the runs they were taken from."""

import json
import math
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SIDES = ("parent", "change")
MIN_RUNS = 5


def _check_bench_file(path: Path) -> list[str]:
    errors = []
    bench = json.loads(path.read_text())
    workload = path.stem.removeprefix("BENCH_")
    if bench.get("workload") != workload:
        errors.append(f"workload {bench.get('workload')!r} is not {workload!r}")
    if workload not in {w["name"] for w in BENCHMARK["workloads"]}:
        errors.append(f"{workload} is no workload of BENCHMARK.json")
    if "perfbench/run.py" not in bench.get("command", ""):
        errors.append("command does not run perfbench/run.py")
    machine = bench.get("machine", {})
    if not (isinstance(machine.get("nproc"), int) and machine["nproc"] >= 1):
        errors.append("machine.nproc missing")
    for key in ("python", "numpy"):
        if not isinstance(machine.get(key), str):
            errors.append(f"machine.{key} missing")
    if not re.fullmatch(r"[0-9a-f]{40}", bench.get("git", {}).get("parent", "")):
        errors.append("git.parent is not a full sha")
    runs = bench.get("runs", [])
    for metric in BENCHMARK["end_to_end"]:
        name = metric["name"]
        entry = bench.get("metrics", {}).get(name)
        if entry is None:
            errors.append(f"metric {name} missing")
            continue
        if entry.get("unit") != metric["unit"]:
            errors.append(f"{name}: unit {entry.get('unit')!r} is not {metric['unit']!r}")
        for side in SIDES:
            summary = entry.get(side, {})
            values = [run[name] for run in runs if run.get("side") == side]
            q1, med, q3 = (summary.get(key, math.nan) for key in ("q1", "median", "q3"))
            if len(values) < MIN_RUNS or summary.get("n") != len(values):
                errors.append(f"{name}/{side}: {len(values)} runs, n = {summary.get('n')}")
            elif med != statistics.median(values):
                errors.append(f"{name}/{side}: median {med} is not that of the runs")
            elif not min(values) <= q1 <= med <= q3 <= max(values):
                errors.append(f"{name}/{side}: quartiles {q1}, {q3} out of order")
    return errors


def test_bench_files_carry_their_provenance():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_<workload>.json at the repository root"
    errors = [f"{path.name}: {err}" for path in paths for err in _check_bench_file(path)]
    assert errors == []
