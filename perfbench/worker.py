"""The workload process: the only process of a run that imports langdual.

`run.py` starts it as `python3 perfbench/worker.py`, writes one JSON request
to its standard input -- {"seconds", "trace", "instances"} -- and reads one
JSON reply from its standard output.  The reference checks stay in `run.py`,
so this process's peak memory is langdual's own plus the instance list.

Every pass runs on a fresh `import langdual`: the library keeps process-wide
caches keyed on equal inputs, and a pass that found them warm from an earlier
pass over the same inputs would time work that no real caller skips.

Every time is scaled to a reference host speed.  The host the bounds were
set on is shared, and its speed drifts by up to 2x over minutes, which no
repetition within one run evens out.  So the worker times a fixed probe --
a piece of `reference`'s own automaton work, never langdual code -- at least
every PROBE_EVERY seconds, and multiplies each measured time by
REFERENCE_PROBE_S over the mean of the two probes taken before it and the
two taken after it.  A time then reads as seconds on a host where the probe takes
REFERENCE_PROBE_S.  The collector is off during a probe, so the size of
langdual's heap does not change the probe's time.

An operation's outcome goes back as a JSON summary -- the compiled DFA, the
piece and monoid sizes, or the raised exception's class names -- counted over
passes, so `run.py` checks each distinct outcome once.
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import reference
import tracer
import workloads

SOURCE = Path(__file__).resolve().parent.parent / "src"
OUT = Path(__file__).resolve().parent / "out"
# Set-up is timed before the first pass and again after every pass, at least
# SETUP_REPEATS times, and the median reported: one import is too short to
# time alone on a host whose speed drifts over seconds.
SETUP_REPEATS = 5
PROBE_TEXT = "(a|b)*a" + "(a|b)" * 5  # about 2 ms of subset construction and minimization
PROBE_EVERY = 0.1  # seconds; the probes cost about 2% of a run
REFERENCE_PROBE_S = 0.0022  # the probe's median on the host the bounds were set on


def probe() -> float:
    """Seconds the fixed probe takes now."""
    gc.disable()
    start = perf_counter()
    reference.min_states(PROBE_TEXT, "ab")
    elapsed = perf_counter() - start
    gc.enable()
    return elapsed


class Clock:
    """Scales measured times to the reference host speed.  A time is held
    until two more probes have run, then appended to its list scaled by the
    mean of the two probes before it and the two after it: one probe is as
    noisy as the host, four are steadier."""

    def __init__(self):
        self.probes = [probe()]
        self.probed_at = perf_counter()
        self.pending: list[tuple[list, float, int]] = []  # (list, seconds, last probe before)

    def record(self, sink: list, seconds: float) -> None:
        self.pending.append((sink, seconds, len(self.probes) - 1))
        if perf_counter() - self.probed_at >= PROBE_EVERY:
            self._probe()

    def flush(self) -> None:
        """Probe until every held time has been scaled."""
        while self.pending:
            self._probe()

    def _probe(self) -> None:
        self.probes.append(probe())
        self.probed_at = perf_counter()
        held = []
        for sink, seconds, before in self.pending:
            if before + 2 < len(self.probes):
                around = self.probes[max(0, before - 1):before + 3]
                sink.append(seconds * REFERENCE_PROBE_S * len(around) / sum(around))
            else:
                held.append((sink, seconds, before))
        self.pending = held


def setup(request: dict):
    """A fresh `import langdual` and the decoded instance list; returns
    (langdual, instances, seconds taken)."""
    for name in [name for name in sys.modules if name == "langdual" or name.startswith("langdual.")]:
        del sys.modules[name]
    start = perf_counter()
    ld = importlib.import_module("langdual")
    instances = [workloads.Instance.from_json(fields) for fields in request["instances"]]
    return ld, instances, perf_counter() - start


def _attempt(outcomes: list, op: str, call):
    try:
        value = call()
    except Exception as err:  # the loop must survive any failure of the code under test
        outcomes.append((op, err))
        return None
    outcomes.append((op, value))
    return value


def run(ld, inst: workloads.Instance) -> list:
    """Drive langdual through one instance; returns [(operation, value or exception)]."""
    outcomes: list = []
    if inst.kind == "compile":
        lang = _attempt(outcomes, "compile", lambda: ld.compile_text(inst.texts[0], inst.alphabet))
        if lang is not None:
            _attempt(outcomes, "left", lambda: ld.left_derivative(lang, inst.letters[0]))
            _attempt(outcomes, "right", lambda: ld.right_derivative(lang, inst.letters[1]))
        return outcomes
    d = ld.DualityTag[workloads.DUALITY[inst.variety]]
    if inst.kind == "family":
        _attempt(outcomes, "correspond",
                 lambda: ld.correspond(d, [ld.compile_text(t, inst.alphabet) for t in inst.texts]))
        return outcomes
    small = ld.Limits(max_carrier=workloads.DESK_CAP)
    c1 = _attempt(outcomes, "correspond",
                  lambda: ld.correspond(d, [ld.compile_text(t, inst.alphabet) for t in inst.texts], small))
    c2 = _attempt(outcomes, "correspond2",
                  lambda: ld.correspond(d, [ld.compile_text(t, inst.alphabet) for t in inst.others], small))
    if c1 is None or c2 is None:
        return outcomes
    _attempt(outcomes, "order_check", lambda: ld.order_check(d, c1.piece, c2.piece))

    def join():
        piece = ld.piece_join(d, c1.piece, c2.piece, small)
        iso = ld.sigma_monoid_iso(ld.piece_to_monoid(d, piece), ld.subdirect_product(c1.monoid, c2.monoid))
        return piece, iso

    _attempt(outcomes, "piece_join", join)
    _attempt(outcomes, "monoid_roundtrip_check", lambda: ld.monoid_roundtrip_check(d, c1.monoid))
    return outcomes


def summary(op: str, value) -> str:
    """What the reference checks need of one outcome, as a JSON text."""
    if isinstance(value, Exception):
        out = ["raise", [cls.__name__ for cls in type(value).__mro__]]
    elif op in ("compile", "left", "right"):
        dfa = value.dfa
        out = ["dfa", list(dfa.alphabet), dfa.initial, sorted(dfa.finals), [list(row) for row in dfa.delta]]
    elif op in ("correspond", "correspond2"):
        out = ["sizes", value.piece.size, value.monoid.size]
    elif op == "piece_join":
        piece, iso = value
        out = ["join", piece.size, iso is not None]
    elif op == "order_check":
        out = ["bool", value is True]
    else:
        out = ["done"]
    return json.dumps(out)


def one_pass(ld, instances, clock: Clock, latencies, outcomes: Counter, wrap=None) -> float:
    """Run every instance once; returns the summed scaled instance time."""
    for i, inst in enumerate(instances):
        start = perf_counter()
        values = wrap(i, lambda: run(ld, inst)) if wrap else run(ld, inst)
        clock.record(latencies[i], perf_counter() - start)
        for op, value in values:
            outcomes[i, op, summary(op, value)] += 1
    clock.flush()
    return sum(samples[-1] for samples in latencies)


def measure(request: dict) -> dict:
    """Whole passes while the wall time so far leaves room for another
    within request["seconds"]."""
    began = perf_counter()
    clock = Clock()
    setup_times: list[float] = []
    ld, instances, elapsed = setup(request)
    clock.record(setup_times, elapsed)
    latencies: list[list[float]] = [[] for _ in instances]
    outcomes: Counter = Counter()
    pass_times: list[float] = []
    while not pass_times or (perf_counter() - began) * (1 + 1 / len(pass_times)) <= request["seconds"]:
        gc.collect()  # free the previous pass's copy of langdual before the timer starts
        pass_times.append(one_pass(ld, instances, clock, latencies, outcomes))
        ld, instances, elapsed = setup(request)
        clock.record(setup_times, elapsed)
    for _ in range(SETUP_REPEATS - 1 - len(pass_times)):
        clock.record(setup_times, setup(request)[2])
    clock.flush()
    return {
        "setup_times": setup_times,
        "pass_times": pass_times,
        "latencies": latencies,
        "probe_s": statistics.median(clock.probes),
        "reference_probe_s": REFERENCE_PROBE_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outcomes": [[i, op, text, n] for (i, op, text), n in outcomes.items()],
    }


def measure_traced(request: dict) -> dict:
    """One untraced pass and one traced pass, each on a fresh import."""
    clock = Clock()
    ld, instances, _ = setup(request)
    latencies: list[list[float]] = [[] for _ in instances]
    outcomes: Counter = Counter()
    untraced = one_pass(ld, instances, clock, latencies, outcomes)
    ld, instances, _ = setup(request)
    gc.collect()
    spans = tracer.Tracer(ld)
    spans.install()
    traced = one_pass(ld, instances, clock, latencies, outcomes, wrap=spans.instance)
    layers = tracer.layer_metrics(spans.spans)
    layers["trace.overhead"] = traced - untraced
    rows = tracer.breakdown(spans.spans)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{request['workload']}-seed{request['seed']}.spans.jsonl"
    with path.open("w") as handle:
        for span in spans.spans:
            handle.write(json.dumps(span) + "\n")
    return {
        "untraced": untraced,
        "traced": traced,
        "spans": len(spans.spans),
        "spans_path": str(path.relative_to(SOURCE.parent)),
        "layers": layers,
        "rows": [rows[i] for i in range(len(instances))],
        "outcomes": [[i, op, text, n] for (i, op, text), n in outcomes.items()],
    }


def main() -> int:
    request = json.load(sys.stdin)
    sys.path.insert(0, str(SOURCE))
    reply = measure_traced(request) if request["trace"] else measure(request)
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
