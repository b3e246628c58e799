"""Benchmark of the lefschetz engine; see perfbench/README.md.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the package is imported from
`src/lefschetz` of that checkout and nothing else.  The last line of standard
output is the result object; the line before it holds details (per-batch
times, failures, the per-check times of `lef verify`, and with `--trace 1` the
span tables the self-test reads).

`--trace 0` sets up several times, then runs batches of the workload's cases
until `--seconds` have passed, and reports end-to-end metrics.  `--trace 1`
does the same untraced and then runs one more batch with every wrapped
function patched, and reports per-layer metrics from that batch.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# Write no bytecode into the checkout: in a fresh checkout every set-up then
# compiles the package from source, the same on every run.
sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402  (the benchmark's own modules, next to this file)
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "lefschetz"
MODULES = ("roots", "exact", "algebra", "cohomology", "spin", "euler", "formula", "cli")
SETUP_REPEATS = 7


def fresh_import():
    """Import the package from the checkout, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "lefschetz" or n.startswith("lefschetz.")]:
        del sys.modules[name]
    pkg = importlib.import_module("lefschetz")
    if Path(pkg.__file__).resolve().parent != PACKAGE_DIR.resolve():
        raise RuntimeError(f"imported lefschetz from {pkg.__file__}, not {PACKAGE_DIR}")
    return SimpleNamespace(**{m: importlib.import_module(f"lefschetz.{m}") for m in MODULES})


def source_lines() -> int:
    """Non-blank lines under src/lefschetz that are not comment-only."""
    count = 0
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        for line in path.read_text().splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                count += 1
    return count


def setup(prepare, seed, tracer=None):
    t0 = time.perf_counter()
    lef = fresh_import()
    with tracer or contextlib.nullcontext():
        inputs = prepare(lef, seed)
    return lef, inputs, time.perf_counter() - t0


def run_batch(run, lef, inputs):
    t0 = time.perf_counter()
    results, timings, extra = run(lef, inputs)
    return results, timings, extra, time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    prepare, run = workloads.WORKLOADS[args.workload]

    setup_times = []
    setup_tracer = None
    for i in range(SETUP_REPEATS):
        if args.trace and i == SETUP_REPEATS - 1:
            setup_tracer = spans.Tracer(spans.SETUP_TARGETS)
        lef, inputs, dt = setup(prepare, args.seed, setup_tracer)
        setup_times.append(dt)

    attempted = failed = 0
    failures = []
    batch_times = []
    unit_times = {}
    extras = []
    untraced = None
    start = time.perf_counter()
    while not batch_times or time.perf_counter() - start < args.seconds:
        results, timings, extra, dt = run_batch(run, lef, inputs)
        batch_times.append(dt)
        for unit, seconds in timings.items():
            unit_times.setdefault(unit, []).append(seconds)
        extras.append(extra)
        attempted += len(results)
        for r in results:
            if not r.ok:
                failed += 1
                failures.append(f"{r.label}: {r.error}")
        untraced = untraced or results

    wall_s = sum(statistics.median(t) for t in unit_times.values())
    check_ms = {
        k: statistics.median(e[k] for e in extras if k in e)
        for k in sorted({k for e in extras for k in e})
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "batch_s": batch_times,
        "unit_s": unit_times,
        "setup_s": setup_times,
        "cases_per_batch": len(untraced),
        "repo.src_lines": source_lines(),
        **check_ms,
    }

    if args.trace:
        tracer = spans.Tracer(spans.TIMED_TARGETS)
        with tracer:
            results, traced_timings, _, traced_wall = run_batch(run, lef, inputs)
        attempted += len(results)
        same = [a.digest == b.digest for a, b in zip(untraced, results)]
        for after, equal in zip(results, same):
            if not after.ok or not equal:
                failed += 1
                failures.append(f"traced {after.label}: {after.error or 'output differs'}")
        metrics = layer_metrics(tracer, setup_tracer, check_ms)
        metrics["repo.src_lines"] = {"value": detail["repo.src_lines"], "unit": "count"}
        metrics["bench.traced_wall_s"] = {"value": traced_wall, "unit": "s"}
        # Same units on both sides: the case times of the traced batch over
        # the untraced wall_s.
        overhead = sum(traced_timings.values()) / wall_s
        metrics["bench.trace_overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        detail.update(
            traced_equals_untraced=len(results) == len(untraced) and all(same),
            traced_wall_s=traced_wall,
            bindings=tracer.bindings,
            edges=tracer.edge_table(),
        )
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }

    detail.update(fail_ratio=failed / attempted, fail_base=attempted, failures=failures[:20])
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    return 0


def layer_metrics(tracer, setup_tracer, check_ms):
    metrics = {}
    for target, (calls, self_s, _) in tracer.stats.items():
        metrics[f"{target}.self_s"] = {"value": self_s, "unit": "s"}
        metrics[f"{target}.calls"] = {"value": calls, "unit": "count"}
    for target, (calls, _, incl_s) in setup_tracer.stats.items():
        metrics[f"setup.{target}.s"] = {"value": incl_s, "unit": "s"}
        metrics[f"setup.{target}.calls"] = {"value": calls, "unit": "count"}
    for name, value in tracer.counters.items():
        metrics[name] = {"value": value, "unit": "count"}
    for name in workloads.VERIFY_CHECKS:
        key = f"cli.verify.{name}.ms"
        metrics[key] = {"value": check_ms.get(key, 0), "unit": "ms"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
