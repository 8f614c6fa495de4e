"""exwave benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout (nothing is installed or built).  Every pass is closed loop:
the next pass starts when the previous one has ended.

--trace 0  measures the end-to-end metrics with tracing off: ``setup_s``
           (imports, the median over SETUP_REPS repetitions of input
           generation, and the first pass, which is not counted in
           ``wall_s``), ``wall_s`` (median pass time) and ``peak_rss_mb``.
--trace 1  alternates untraced and traced passes and reports the per-layer
           metrics: calls and self time per traced function, exact work
           counts, caught warnings and the tracing overhead.

Every pass's outputs are checked (see workloads.py); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Earlier lines give a readable table and the
provenance of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
MIN_PASSES = 3
# exact per-pass work counts (--trace 1); a workload that does not reach a
# layer reports 0
COUNTS = {
    "solver.grid_point_steps": "count",
    "solver.lightcone_share": "ratio",
    "testfn.samples": "count",
    "quadrature.points": "count",
    "oracle.steps": "count",
    "harness.report.bytes": "bytes",
}
# cache sizes as glibc reports them (sysconf _SC_LEVEL2/3_CACHE_SIZE)
_SC_CACHE = {"l2_bytes": 191, "l3_bytes": 194}


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package() -> float:
    """Import numpy, scipy and exwave from this checkout; return seconds."""
    src = ROOT / "src"
    if not (src / "exwave" / "__init__.py").is_file():
        raise SystemExit(f"no exwave sources under {src}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    # one thread: keep the BLAS library from starting its own thread pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401

    import exwave
    import workloads  # noqa: F401  (imports every exwave module it drives)

    elapsed = time.perf_counter() - t0
    if Path(exwave.__file__).resolve().parent != src / "exwave":
        raise SystemExit(f"exwave imported from {exwave.__file__}, not {src}")
    return elapsed


def _cache_sizes() -> dict:
    import ctypes

    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
        return {key: int(libc.sysconf(code)) for key, code in _SC_CACHE.items()}
    except (OSError, AttributeError):
        return {key: None for key in _SC_CACHE}


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


class Runner:
    """Runs passes of one workload instance and accumulates op verdicts."""

    def __init__(self, name: str, seed: int, reference: dict):
        import workloads

        self.workloads = workloads
        self.name = name
        self.seed = seed
        self.reference = reference
        self.check_ref = workloads.reference_for(name, reference, seed)
        self.attempted = 0
        self.failed = 0
        self.warnings_caught = 0  # in the last pass
        self.counts = None
        self.instance = None

    def new_instance(self, scratch: Path) -> None:
        self.instance = None  # release the previous inputs first
        self.instance = self.workloads.WORKLOADS[self.name](
            ROOT, self.seed, scratch, self.reference
        )

    def run_pass(self) -> float:
        """One timed pass; its outputs are checked after the clock stops."""
        inst = self.instance
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                result = inst.run_pass()
                error = None
            except Exception:  # a raising pass fails all its ops
                error = traceback.format_exc()
            elapsed = time.perf_counter() - t0
        self.warnings_caught = len(caught)
        if error is None:
            try:
                out = inst.outputs(result)
                verdicts = inst.check(out, self.check_ref)
                counts = inst.counts(out)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            print(f"pass failed:\n{error}", file=sys.stderr)
            verdicts = [False] * inst.ops
            counts = None
        self.attempted += len(verdicts)
        self.failed += verdicts.count(False)
        if counts is not None:
            if self.counts is not None and counts != self.counts:
                print("warning: work counts differ between passes", file=sys.stderr)
            self.counts = counts
        return elapsed


def _end_to_end(runner: Runner, args, scratch: Path, import_s: float) -> tuple[dict, dict]:
    inputs = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        runner.new_instance(scratch)
        inputs.append(time.perf_counter() - t0)
    warmup = runner.run_pass()  # the first pass pays for lazy set-up
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        passes.append(runner.run_pass())
    metrics = {
        "setup_s": (import_s + statistics.median(inputs) + warmup, "s"),
        "wall_s": (statistics.median(passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "import_s": import_s,
        "input_reps_s": inputs,
        "warmup_pass_s": warmup,
        "pass_s": passes,
        "wall_s_samples": len(passes),
        "wall_s_quartiles": statistics.quantiles(passes, n=4) if len(passes) > 1 else None,
    }
    part_s = getattr(runner.instance, "part_s", None)
    if part_s:  # a combined workload: median pass time of each part
        detail["part_wall_s"] = {
            cls.name: statistics.median(times[i] for times in part_s[1:])
            for i, cls in enumerate(runner.instance.PARTS)
        }
    return metrics, detail


def _per_layer(runner: Runner, args, scratch: Path) -> tuple[dict, dict]:
    from tracer import Tracer

    runner.new_instance(scratch)
    runner.run_pass()  # warm-up
    plain, traced, summaries = [], [], []
    tracer = Tracer()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(runner.run_pass())
        with tracer:
            traced.append(runner.run_pass())
        summaries.append(tracer.summary())
        tracer.clear()

    metrics = {}
    for name in summaries[0]["functions"]:
        calls = summaries[0]["functions"][name]["calls"]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (
            statistics.median([s["functions"][name]["self_s"] for s in summaries]), "s"
        )

    def total(name):
        return statistics.median([s["functions"][name]["total_s"] for s in summaries]) if (
            name in summaries[0]["functions"]) else None

    counts = runner.counts or {}
    for key, unit in COUNTS.items():
        metrics[key] = (counts.get(key, 0), unit)
    run_s, gps = total("solver.run"), counts.get("solver.grid_point_steps")
    metrics["solver.ns_per_grid_point_step"] = (
        run_s * 1e9 / gps if run_s is not None and gps else 0.0, "ns"
    )
    ode_s, steps = total("oracle.integrate_adaptive"), counts.get("oracle.steps")
    metrics["oracle.us_per_step"] = (
        ode_s * 1e6 / steps if ode_s is not None and steps else 0.0, "us"
    )
    metrics["warnings.caught"] = (runner.warnings_caught, "count")
    metrics["trace_overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    metrics["trace.top_level_share"] = (
        min(s["top_level_s"] / t for s, t in zip(summaries, traced)), "ratio"
    )
    detail = {
        "absent_functions": tracer.absent,
        "traced_bindings": tracer.bindings,
        "untraced_pass_s": plain,
        "traced_pass_s": traced,
        "spans_per_pass": sum(
            f["calls"] for f in summaries[0]["functions"].values()
        ),
    }
    return metrics, detail


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(HERE))
    import_s = _import_package()
    import numpy
    import scipy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference_seed0.json").read_text())
    errors = workloads.self_test(reference)
    if errors:
        print("self-test of the output checks failed:", *errors, sep="\n  ", file=sys.stderr)
        return 3
    print("self-test: a t_blow perturbed by 1e-6 and a band above 4 both fail the checks")

    runner = Runner(args.workload, args.seed, reference)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            metrics, detail = _per_layer(runner, args, scratch)
        else:
            metrics, detail = _end_to_end(runner, args, scratch, import_s)
    finally:
        runner.instance = None
        shutil.rmtree(scratch, ignore_errors=True)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "largest_array_bytes": (runner.counts or {}).get("largest_array_bytes"),
        "cache_bytes": _cache_sizes(),
        "closed_loop": "1 process, 1 thread, workers = 1",
        **detail,
    }
    for key, (value, unit) in metrics.items():
        print(f"{key:<44s} {value:>16.6g} {unit}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
