"""Spans around langdual's public functions, recorded from outside the library.

`Tracer.install` replaces each traced function by a wrapper in every
`langdual.*` module namespace that holds it, because `from .x import f`
copies the reference into the importing module.  Nothing puts the originals
back: the worker installs the wrappers into a fresh import that it throws
away after the traced pass.  A span is
[name, start, end, parent, instance, size]; spans stay in memory until the
run ends.  Self time is a span's duration minus its children's durations,
which do not overlap because the loop runs in one thread.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# Per-layer metrics: module -> {function: metric suffixes}.  "self_s" is self
# time, "calls" a count, "refused" the calls ending in ResourceExceededError.
LAYERS = {
    "languages": {
        "compile_regex": ("self_s", "calls"),
        "parse_regex": ("self_s",),
        "minimize_dfa": ("self_s", "calls"),
        "canonical_language": ("calls",),
        "right_derivative": ("self_s", "calls"),
        "left_derivative": ("self_s",),
        "language_to_regex": ("self_s",),
    },
    "automata": {
        "rqc_closure": ("self_s", "calls", "refused"),
        "class_automaton": ("self_s",),
        "coalgebra_to_dalgebra": ("self_s",),
        "reachable_part": ("self_s", "calls"),
        "dalgebra_to_coalgebra": ("self_s",),
        "state_language": ("self_s", "calls"),
    },
    "duality": {
        "dual_morphism": ("self_s", "calls"),
        "dual_object": ("self_s",),
    },
    "monoids": {
        "transition_monoid": ("self_s",),
        "validate_monoid": ("self_s",),
        "sigma_monoid_iso": ("self_s",),
        "subdirect_product": ("self_s",),
        "quotient_leq": ("self_s",),
    },
    "varieties": {
        "validate_morphism": ("self_s", "calls"),
        "present_subset": ("self_s",),
        "jsl_from_masks": ("self_s",),
        "mask_lattice_presentation": ("self_s",),
    },
    "correspondence": {
        "piece_to_monoid": ("self_s",),
        "monoid_to_piece": ("self_s",),
        "roundtrip_check": ("self_s",),
        "order_check": ("self_s",),
        "piece_join": ("self_s",),
        "monoid_roundtrip_check": ("self_s",),
    },
}

# Sizes summed over results: metric name -> (function, size of its result).
SIZES = {
    "languages.dfa_states": ("compile_regex", lambda lang: lang.n_states),
    "automata.piece_size": ("rqc_closure", lambda piece: piece.size),
    "monoids.monoid_size": ("transition_monoid", lambda m: m.size),
}
_SIZE_OF = {fn: size for fn, size in SIZES.values()}

INSTANCE = "instance"  # the benchmark's own root span around each instance

NAME, START, END, PARENT, OWNER, SIZE = range(6)


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, functions in LAYERS.items():
        for fn, kinds in functions.items():
            out += [(f"{module}.{fn}.{kind}", "s" if kind == "self_s" else "count") for kind in kinds]
    out += [(name, "count") for name in SIZES]
    out += [("automata.labels_per_state", "ratio"), ("trace.overhead", "s")]
    return out


class Tracer:
    def __init__(self, ld):
        self.ld = ld
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._instance = -1

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        size_of = _SIZE_OF.get(name)
        refusal = self.ld.ResourceExceededError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self._instance, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except refusal:
                span[SIZE] = "refused"
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if size_of is not None:
                span[SIZE] = size_of(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "langdual" or n.startswith("langdual.")]
        for module_name, functions in LAYERS.items():
            home = sys.modules[f"langdual.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(fn_name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def instance(self, ident: int, run):
        """Run one instance under a root span; returns run's result."""
        self._instance = ident
        span = [INSTANCE, perf_counter(), 0.0, -1, ident, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return run()
        finally:
            span[END] = perf_counter()
            self._stack.pop()
            self._instance = -1


def self_times(spans: list[list]) -> list[float]:
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times, counts and sizes over all spans."""
    own = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    refused: dict[str, int] = {}
    sizes = {name: 0 for name in SIZES}
    size_metric = {fn: name for name, (fn, _) in SIZES.items()}
    under_labelling = [False] * len(spans)  # inside dalgebra_to_coalgebra
    labelled_states = label_calls = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        self_s[name] = self_s.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        if s[SIZE] == "refused":
            refused[name] = refused.get(name, 0) + 1
        elif s[SIZE] is not None:
            sizes[size_metric[name]] += s[SIZE]
        parent = s[PARENT]
        under_labelling[i] = parent >= 0 and (
            under_labelling[parent] or spans[parent][NAME] == "dalgebra_to_coalgebra"
        )
        if under_labelling[i]:
            labelled_states += name == "state_language"
            label_calls += name == "canonical_language"
    out: dict[str, float] = {}
    for module, functions in LAYERS.items():
        for fn, kinds in functions.items():
            source = {"self_s": self_s, "calls": calls, "refused": refused}
            for kind in kinds:
                out[f"{module}.{fn}.{kind}"] = source[kind].get(fn, 0)
    out.update(sizes)
    out["automata.labels_per_state"] = label_calls / labelled_states if labelled_states else 0.0
    return out


# Columns of the per-instance breakdown: inclusive time of the outermost spans
# of each name.  piece_to_monoid leaves out the call made inside the round
# trip, which the roundtrip column already includes.
BREAKDOWN = ("rqc_closure", "piece_to_monoid", "validate_monoid", "roundtrip_check")


def breakdown(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per instance: its traced time, the breakdown columns, and the split of
    that time into the traced functions' self time (lib_self) and the
    instance span's own (rest: the benchmark's work and untraced langdual
    code)."""
    own = self_times(spans)
    rows: dict[int, dict[str, float]] = {}
    inside: list[frozenset] = []  # names of the ancestors of each span
    for i, s in enumerate(spans):
        parent = s[PARENT]
        ancestors = inside[parent] | {spans[parent][NAME]} if parent >= 0 else frozenset()
        inside.append(ancestors)
        row = rows.setdefault(s[OWNER], {c: 0.0 for c in BREAKDOWN} | {"lib_self": 0.0})
        name = s[NAME]
        if name == INSTANCE:
            row["traced"] = s[END] - s[START]
            row["rest"] = own[i]
            continue
        row["lib_self"] += own[i]
        if name in BREAKDOWN and name not in ancestors:
            if name != "piece_to_monoid" or "roundtrip_check" not in ancestors:
                row[name] += s[END] - s[START]
    return rows
