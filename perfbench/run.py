"""langdual benchmark: closed-loop workloads driven through the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-mixed --seed 1 --seconds 30 --trace 0

These four arguments are the benchmark's calling convention: the workload,
the seed its inputs are drawn from, how long to measure, and whether to
trace.  The instance list is drawn here and handed to `worker.py`, the one
process that imports langdual.  It runs one thread in a closed loop: the next
instance starts only after the previous one's verdict.  It makes whole
passes over the instance list, each on a fresh import, starting another only
while the wall time so far leaves room for it within --seconds.  Every time
it reports is scaled to a reference host speed by a fixed probe timed
between instances (see `worker.py`).  An instance's latency is the median of
its passes.  When the worker has finished, every distinct outcome is checked
here against `reference`.

--trace 0 prints the end-to-end metrics; --trace 1 has the worker run one
untraced pass, then one pass with spans around langdual's public functions,
and prints the per-layer metrics, the per-instance breakdown, and the tracing
overhead.  Without --workload, every workload runs in turn and a summary
table is printed.  The last line of a single-workload run is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it


def work(args, instances: list) -> dict:
    """Run the worker process on the instance list; returns its reply."""
    request = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "instances": [asdict(inst) for inst in instances]}
    done = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(request),
                          capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"error: the worker process exited with code {done.returncode}")
    return json.loads(done.stdout)


def check(instances: list, outcomes: list):
    """Tally the worker's outcomes against the reference; returns (tally,
    crashes by instance, operation and exception)."""
    checker = workloads.Checker()
    tally = workloads.Tally()
    crashes: Counter = Counter()
    for i, op, text, count in outcomes:
        summary = json.loads(text)
        verdict = checker.verdict(instances[i], op, summary)
        tally.add(verdict, count)
        if verdict == "crash":
            crashes[f"{instances[i].label} {op}: {summary[1][0]}"] += count
    return tally, crashes


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, or the maximum when that percentile would not lie above the
    median (fewer than 2 * TAIL_BEYOND + 1 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(args) -> dict:
    instances = workloads.build(args.workload, args.seed)
    reply = work(args, instances)
    tally, crashes = check(instances, reply["outcomes"])
    pass_times = reply["pass_times"]
    per_instance = [statistics.median(samples) for samples in reply["latencies"]]
    tail_s, percentile = tail(per_instance)
    metrics = {
        "setup_s": (statistics.median(reply["setup_times"]), "s"),
        "instances_per_s": (len(instances) * len(pass_times) / sum(pass_times), "1/s"),
        "latency_p50_s": (statistics.median(per_instance), "s"),
        "latency_tail_s": (tail_s, "s"),
        "peak_rss_mb": (reply["peak_rss_mb"], "MB"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(instances)} instances x {len(pass_times)} passes, "
          f"pass times " + " ".join(f"{t:.3f}" for t in pass_times) + " s")
    print(f"  times scaled to a probe of {reply['reference_probe_s'] * 1e3:.2f} ms;"
          f" this run's probes took {reply['probe_s'] * 1e3:.2f} ms (median)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:16} {value:12.6g} {unit}")
    print(f"  latency_tail_s is p{percentile:.1f} of {len(per_instance)} instances "
          f"(each the median of its {len(pass_times)} passes)")
    print(f"  operations: {tally.attempted} attempted, {tally.failed} failed "
          f"(failed_ratio {tally.failed / tally.attempted:.4f}; {tally.wrong} wrong verdicts, "
          f"{tally.crashes} crashes)")
    for what, count in sorted(crashes.items()):
        print(f"  crash x{count}: {what}")
    return result(tally, metrics)


def measure_traced(args) -> dict:
    instances = workloads.build(args.workload, args.seed)
    reply = work(args, instances)
    tally, crashes = check(instances, reply["outcomes"])
    layers = reply["layers"]
    metrics = {name: (layers[name], unit) for name, unit in tracer.metric_names()}

    print(f"workload {args.workload}, seed {args.seed}: untraced pass {reply['untraced']:.3f} s, "
          f"traced pass {reply['traced']:.3f} s, {reply['spans']} spans, each pass on a fresh import")
    print(f"  {'metric':48} {'value':>12} unit")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48} {value:12.6g} {unit}")
    print(f"  {'instance':34} {'traced':>8} {'closure':>8} {'p2m':>8} {'validate':>8} {'roundtrip':>9}"
          f" {'lib_self':>8} {'rest':>8}")
    worst = 0.0
    for inst, row in zip(instances, reply["rows"]):
        worst = max(worst, abs(row["traced"] - row["lib_self"] - row["rest"]))
        print(f"  {inst.label[:34]:34} {row['traced']:8.4f} {row['rqc_closure']:8.4f}"
              f" {row['piece_to_monoid']:8.4f} {row['validate_monoid']:8.4f} {row['roundtrip_check']:9.4f}"
              f" {row['lib_self']:8.4f} {row['rest']:8.4f}")
    print(f"  largest |traced - lib_self - rest| over instances: {worst:.3g} s"
          " (rest: the benchmark's own work and untraced langdual code)")
    print(f"  spans written to {reply['spans_path']}")
    for what, count in sorted(crashes.items()):
        print(f"  crash x{count}: {what}")
    return result(tally, metrics)


def result(tally, metrics) -> dict:
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def summary_table(rows: dict) -> None:
    names = list(next(iter(rows.values()))["metrics"])
    print(f"\n{'metric':48} {'unit':6}" + "".join(f" {w:>15}" for w in rows))
    for name in names:
        unit = next(iter(rows.values()))["metrics"][name]["unit"]
        print(f"{name:48} {unit:6}" + "".join(f" {r['metrics'][name]['value']:15.6g}" for r in rows.values()))
    print(f"{'correct':55}" + "".join(f" {str(r['correct']):>15}" for r in rows.values()))
    print(f"{'failed / attempted':55}" + "".join(f" {r['failed']:>7}/{r['attempted']:<7}" for r in rows.values()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SOURCE / "langdual" / "__init__.py").is_file():
        print(f"error: no langdual sources under {SOURCE}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    rows = {}
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        args.workload = workload
        rows[workload] = measure_traced(args) if args.trace else measure(args)
    if len(rows) > 1:
        summary_table(rows)
    else:
        print(json.dumps(rows[workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
