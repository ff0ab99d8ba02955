"""One workload process: set up, or measure, one workload and print JSON.

``run.py`` starts this script in a fresh single-threaded interpreter for
every set-up probe and every measurement, so each gets its own import cost
and its own peak resident memory.  Modes:

* ``--mode setup``: time the package import and the program-side input
  construction once.
* ``--mode measure``: one untimed warm-up operation, then operations until
  ``--seconds`` of wall time have passed (or exactly ``--ops`` of them), then
  the output checks.  ``--trace`` wraps the package's layer functions first
  (see ``tracer.py``).  Before the first operation and after each one the
  process times ``reference_loop``, a fixed pure-Python job, so that
  ``run.py`` can state operation times in multiples of it (refs).

The last stdout line is one JSON object; see ``measure`` for its keys.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_package() -> float:
    """Import the checkout's fairtradex and return the seconds it took."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import fairtradex
    import fairtradex.analysis
    import fairtradex.cli
    import fairtradex.scenario  # noqa: F401
    elapsed = time.perf_counter() - t0
    if not Path(fairtradex.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"fairtradex imported from {fairtradex.__file__}, not this checkout")
    return elapsed


@dataclass(frozen=True)
class _Item:
    key: int
    level: int


_ITEMS = [_Item(i, i * 7919 % 1000) for i in range(2000)]


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python job, about 20 ms on a current
    server core: dict and tuple churn, a keyed sort, and filtered scans over
    small frozen dataclasses, the idioms fairtradex spends its time in.

    On a shared virtual machine the CPU speed a process gets can drift by
    1.6x over tens of seconds; this job's time drifts with it.
    """
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
        table[(i & 4095, i & 7)] = (acc, i)
    sorted(table, key=lambda k: k[1])
    for cut in range(0, 1000, 50):
        acc += sum(o.key for o in _ITEMS if o.level >= cut)
        acc += len([o for o in _ITEMS if o.level < cut])
    return time.perf_counter() - t0


def reference(op_s: float) -> float:
    """Median of one to five reference loops; longer operations get more,
    so that their speed estimate is not one loop's noise."""
    return statistics.median(reference_loop() for _ in range(1 + min(4, int(op_s / 0.4))))


def setup(args) -> dict:
    import_s = _import_package()
    import workloads
    wl = workloads.make(args.workload, ROOT, args.seed, args.smoke)
    raw = wl.generate()
    t0 = time.perf_counter()
    wl.build(raw)
    return {"import_s": import_s, "build_s": time.perf_counter() - t0}


def measure(args) -> dict:
    _import_package()
    import workloads

    wl = workloads.make(args.workload, ROOT, args.seed, args.smoke)
    inputs = wl.build(wl.generate())
    results = [wl.run_op(wl.prepare(inputs, 0))]    # warm-up, untimed

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    op_s, units, ref_s = [], [], [reference(1.0)]
    start = time.perf_counter()

    def more() -> bool:
        if args.ops:
            return len(op_s) < args.ops
        return not op_s or time.perf_counter() - start < args.seconds

    while more():
        item = wl.prepare(inputs, len(op_s) + 1)
        gc.collect()
        t0 = time.perf_counter()
        r = wl.run_op(item)
        op_s.append(time.perf_counter() - t0)
        ref_s.append(reference(op_s[-1]))
        units.append(r.units)
        results.append(r)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()

    problems = []
    if not args.no_check:
        with workloads.scratch_dir(ROOT) as scratch:
            problems = wl.check(results, Path(scratch))

    timed = results[1:]
    failures = sum((r.failures for r in results), Counter())
    rejected = sum((r.rejected for r in timed), Counter())
    out = {
        "op_s": op_s,
        "ref_s": ref_s,
        "units": units,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "stalled": sum(r.stalled for r in timed),
        "failures": failures,
        "rejected": rejected,
        "run_digest": hashlib.sha256("".join(r.digest for r in timed).encode()).hexdigest(),
        "problems": problems,
        "peak_rss_kb": peak_rss_kb,
        "env": {
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "jsonschema": importlib.metadata.version("jsonschema"),
        },
    }
    if tracer is not None:
        out["totals"] = tracer.totals
        out["counts"] = dict(tracer.counts)
        out["peaks"] = tracer.peaks
        if args.spans:
            tracer.write_spans(args.spans)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--ops", type=int, default=0, help="run exactly this many timed operations")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write the recorded spans here (JSON lines)")
    parser.add_argument("--no-check", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="the tiny size the tests use")
    args = parser.parse_args(argv)
    out = setup(args) if args.mode == "setup" else measure(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
