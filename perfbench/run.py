"""fairtradex benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload clear_wide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every measurement runs in a fresh
single-threaded ``worker.py`` process: no pools, no ``--jobs``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  An
operation's units are rounds for the scenario workloads, books for
clear_wide and report pairs for best_response_mc.  Operation times are
stated in *refs*: multiples of the time ``worker.reference_loop`` took just
before and just after the operation.  Shared virtual machines change the
CPU speed a process gets by up to 1.6x over tens of seconds; the ratio
cancels most of that drift, where raw milliseconds do not.

* ``ops_per_ref``: units of work per ref of timed operations;
* ``op_ref_p50`` and ``op_ref_tail``: the median and the tail of refs per
  unit, one sample per operation.  The tail is the highest whole percentile
  that keeps at least ``TAIL_BEYOND`` samples beyond it, or the median when
  there are too few samples; its percentile and the sample count are
  printed;
* ``setup_s``: median over ``SETUP_PROBES`` fresh processes of package
  import plus program-side input construction, in seconds;
* ``peak_rss_mb``: peak resident memory of the measuring process.

The same throughput and latencies in seconds and milliseconds are printed
above the result for reading, but are not part of it.

``--trace 1`` reports the per-layer metrics instead, per unit of work.  A
traced process runs for part of ``--seconds``; an untraced process then
replays exactly the same operations.  Both must produce the same outputs.
The tracing overhead is reported as the difference of their wall times
(``trace.overhead_s``) and, in refs, as a share of the untraced time
(``trace.overhead_pct``).

Human-readable lines come first; the last stdout line is the JSON result.
A failed set-up or measurement prints no result and exits non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170          # the whole command must end within 180 s
SETUP_PROBES = 5
TAIL_BEYOND = 10
TRACED_SHARE = 0.55       # of --seconds; the untraced replay takes most of the rest

WORKLOADS = ("scenario_crowd", "scenario_long", "clear_wide", "best_response_mc")
LAYERS = ("membership", "protocol", "auction", "analysis", "chain", "ledger",
          "serialize", "scenario")
# every reason Protocol.handle can return for a rejected transaction
REJECT_REASONS = (
    "malformed", "unknown-kind", "not-relayed", "phase", "notional-cap",
    "blacklisted-serial", "no-registrations", "bad-proof", "insufficient-balance",
    "one-market-per-player", "unknown-serial", "reg-id-mismatch",
    "commitment-mismatch", "size-capped-to-zero", "no-commitment",
    "below-minimum-liquidity", "invalid-cp", "bounty-unfunded")


class BenchError(Exception):
    pass


def _child_env() -> dict:
    # one BLAS thread; a fixed hash seed so dict and set layouts, and with
    # them the timings, repeat from run to run
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def _worker(started: float, *args: str) -> dict:
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {' '.join(args)}\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def tail(samples: list[float]) -> tuple[int, float]:
    """(percentile, value): the highest whole percentile with at least
    TAIL_BEYOND samples beyond it, never below 50, by nearest rank."""
    n = len(samples)
    pct = math.floor(100 * (1 - TAIL_BEYOND / n))
    if pct <= 50:
        return 50, statistics.median(samples)
    return pct, sorted(samples)[math.ceil(pct / 100 * n) - 1]


def op_refs(run: dict) -> list[float]:
    """Each operation's time in refs: over the mean of the reference loop
    timed just before and just after it."""
    ref_s = run["ref_s"]
    return [op / ((before + after) / 2)
            for op, before, after in zip(run["op_s"], ref_s, ref_s[1:])]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, started: float, common: list[str]) -> tuple[dict, dict]:
    probes = [_worker(started, *common, "--mode", "setup") for _ in range(SETUP_PROBES)]
    run = _worker(started, *common, "--mode", "measure", "--seconds", str(args.seconds))
    refs = op_refs(run)
    per_unit_ref = [r / u for r, u in zip(refs, run["units"])]
    per_unit_ms = [1000 * s / u for s, u in zip(run["op_s"], run["units"])]
    pct, tail_ref = tail(per_unit_ref)
    _pct, tail_ms = tail(per_unit_ms)
    print(f"samples: {len(refs)} operations; tail = p{pct} "
          f"(at least {TAIL_BEYOND} samples beyond it, or the median); "
          f"reference loop median {1000 * statistics.median(run['ref_s']):.2f} ms")
    print(f"raw: {sum(run['units']) / sum(run['op_s']):.6g} units/s, "
          f"p50 {statistics.median(per_unit_ms):.6g} ms, p{pct} {tail_ms:.6g} ms per unit")
    metrics = {
        "ops_per_ref": _metric(sum(run["units"]) / sum(refs), "1/ref"),
        "op_ref_p50": _metric(statistics.median(per_unit_ref), "ref"),
        "op_ref_tail": _metric(tail_ref, "ref"),
        "setup_s": _metric(statistics.median(p["import_s"] + p["build_s"] for p in probes), "s"),
        "peak_rss_mb": _metric(run["peak_rss_kb"] / 1024, "MB"),
    }
    return metrics, run


def per_layer(args, started: float, common: list[str]) -> tuple[dict, dict]:
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    traced = _worker(started, *common, "--mode", "measure", "--trace", "--spans", str(spans),
                     "--seconds", str(TRACED_SHARE * args.seconds))
    plain = _worker(started, *common, "--mode", "measure", "--no-check",
                    "--ops", str(len(traced["op_s"])))
    if plain["run_digest"] != traced["run_digest"]:
        traced["problems"].append("traced and untraced runs produced different outputs")
    print(f"spans written to {spans.relative_to(ROOT)}")

    units = sum(traced["units"])
    wall, wall_plain = sum(traced["op_s"]), sum(plain["op_s"])
    totals, counts, peaks = traced["totals"], traced["counts"], traced["peaks"]

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def total_s(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    per_op = {
        "membership.accumulate_calls": calls("membership.accumulate"),
        "membership.accumulate_s": total_s("membership.accumulate"),
        "membership.accumulate_leaves": counts.get("membership.accumulate_leaves", 0),
        "membership.prove_calls": calls("membership.prove"),
        "membership.prove_s": total_s("membership.prove"),
        "membership.verify_calls": calls("membership.verify"),
        "membership.verify_s": total_s("membership.verify"),
        "membership.verify_failed": counts.get("membership.verify_failed", 0),
        "membership.hash_calls": counts.get("membership.hash_calls", 0),
        "protocol.registry_root_calls": calls("protocol.registry_root"),
        "protocol.registry_root_s": total_s("protocol.registry_root"),
        "protocol.relay_dryrun_s": total_s("protocol.relay_dryrun"),
        "protocol.handle_calls": calls("protocol.handle"),
        "protocol.handle_s": total_s("protocol.handle"),
        "protocol.rejected": sum(traced["rejected"].values()),
        "auction.oracle_calls": calls("auction.oracle"),
        "auction.oracle_s": total_s("auction.oracle"),
        "auction.oracle_candidates": counts.get("auction.oracle_candidates", 0),
        "auction.verify_s": total_s("auction.verify"),
        "auction.settle_s": total_s("auction.settle"),
        "auction.filter_s": total_s("auction.filter"),
        "auction.tiebreak_s": total_s("auction.tiebreak"),
        "analysis.best_response_s": total_s("analysis.best_response"),
        "analysis.self_s": self_s("analysis.best_response"),
        "analysis.engine_books": counts.get("analysis.engine_books", 0),
        "chain.blocks": calls("chain.advance_block"),
        "chain.advance_block_s": total_s("chain.advance_block"),
        "chain.relay_dropped": counts.get("chain.relay_dropped", 0),
        "ledger.transfer_calls": counts.get("ledger.transfer_calls", 0),
        "ledger.supplies_calls": calls("ledger.supplies"),
        "ledger.supplies_s": total_s("ledger.supplies"),
        "serialize.dumps_calls": calls("serialize.dumps"),
        "serialize.dumps_s": total_s("serialize.dumps"),
        "scenario.run_s": total_s("scenario.run"),
        "scenario.self_s": self_s("scenario.run"),
        "scenario.agents_s": self_s("scenario.agents"),
        "scenario.rounds_stalled": traced["stalled"],
    }
    for reason in REJECT_REASONS:
        per_op[f"protocol.rejected.{reason}"] = sum(
            n for key, n in traced["rejected"].items() if key.split("|", 1)[1] == reason)
    metrics = {name: _metric(v / units, "s/op" if name.endswith("_s") else "count/op")
               for name, v in per_op.items()}
    blocks = calls("chain.advance_block")
    metrics["chain.txs_per_block"] = _metric(counts.get("chain.txs", 0) / blocks if blocks else 0,
                                             "count")
    metrics["chain.pending_peak"] = _metric(peaks.get("chain.pending_peak", 0), "count")

    layer_self = {layer: sum(row[2] for name, row in totals.items()
                             if name.split(".", 1)[0] == layer) for layer in LAYERS}
    for layer, s in layer_self.items():
        metrics[f"share.{layer}"] = _metric(100 * s / wall, "%")
    metrics["share.outside"] = _metric(100 * (wall - sum(layer_self.values())) / wall, "%")
    metrics["trace.traced_s"] = _metric(wall, "s")
    metrics["trace.untraced_s"] = _metric(wall_plain, "s")
    metrics["trace.overhead_s"] = _metric(wall - wall_plain, "s")
    refs, refs_plain = sum(op_refs(traced)), sum(op_refs(plain))
    metrics["trace.overhead_pct"] = _metric(100 * (refs - refs_plain) / refs_plain, "%")

    print(f"traced {len(traced['op_s'])} operations ({units} units) in {wall:.3f} s; "
          f"untraced replay {wall_plain:.3f} s; overhead {wall - wall_plain:+.3f} s")
    print("layer self-time shares: " + ", ".join(
        f"{layer} {metrics[f'share.{layer}']['value']:.1f}%" for layer in LAYERS)
        + f", outside spans {metrics['share.outside']['value']:.1f}%")
    return metrics, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "fairtradex" / "__init__.py").is_file():
        print(f"error: no fairtradex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    try:
        if args.trace:
            metrics, run = per_layer(args, started, common)
        else:
            metrics, run = end_to_end(args, started, common)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    env = dict(run["env"], commit=_commit(), source_digest=_source_digest(),
               nproc=len(os.sched_getaffinity(0)), workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace)
    print("env: " + json.dumps(env, sort_keys=True))
    attempted, failed = run["attempted"], run["failed"]
    print(f"failed_ratio: {failed / attempted:.6g} ({failed} failed of {attempted} attempted; "
          f"stalled rounds {run['stalled']})")
    for what, n in sorted(run["failures"].items()):
        print(f"failure: {what}: {n}")
    for problem in run["problems"]:
        print(f"check failed: {problem}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not run["problems"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
