"""The four workloads: instance lists drawn from a seed, and the reference
checks on what langdual returned for them.

An instance is one closed-loop step: regex texts in, verdict out.  It is made
of operations (a compile, a correspondence, an order check, ...), which
`worker.py` runs.  Each operation ends in a result, an expected
`LangdualError`, or a failure; the checks here run in `run.py`'s process,
after the worker has finished, on the summaries the worker sends back.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import reference

DUALITY = {"BA": "BA_SET", "DL": "DL01_POS", "JSL": "JSL_SELF", "Z2": "Z2_SELF"}
VARIETIES = ("BA", "DL", "JSL", "Z2")


@dataclass(frozen=True)
class Instance:
    label: str
    kind: str  # "family", "desk" or "compile"
    variety: str = ""
    texts: tuple[str, ...] = ()
    others: tuple[str, ...] = ()  # desk: the second generator set
    alphabet: str = "ab"
    letters: str = ""  # compile: the left and the right derivative letter

    @classmethod
    def from_json(cls, fields: dict) -> "Instance":
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed operations whose verdict disagrees with the reference
    crashes: int = 0  # failed operations that raised something other than LangdualError

    def add(self, verdict: str, count: int) -> None:
        self.attempted += count
        if verdict != "ok":
            self.failed += count
        if verdict == "wrong":
            self.wrong += count
        elif verdict == "crash":
            self.crashes += count


# ---------------------------------------------------------------------------
# seeded regex texts


def random_text(rng: random.Random, alphabet: str, depth: int) -> str:
    """A random regex text in the style of the library's randomized runs."""
    return _render(_random_tree(rng, alphabet, depth), 0)


def _random_tree(rng, alphabet, depth):
    if depth <= 0:
        roll = rng.random()
        if roll < 0.75:
            return ("sym", rng.choice(alphabet))
        return ("eps",) if roll < 0.95 else ("empty",)
    roll = rng.random()
    if roll < 0.35:
        return ("sym", rng.choice(alphabet))
    if roll < 0.55:
        return ("alt", _random_tree(rng, alphabet, depth - 1), _random_tree(rng, alphabet, depth - 1))
    if roll < 0.80:
        return ("cat", _random_tree(rng, alphabet, depth - 1), _random_tree(rng, alphabet, depth - 1))
    if roll < 0.95:
        return ("star", _random_tree(rng, alphabet, depth - 1))
    return ("eps",)


def _render(node, context: int) -> str:
    """context: 0 inside a union, 1 inside a concatenation, 2 under a star."""
    kind = node[0]
    if kind == "sym":
        return node[1]
    if kind in ("eps", "empty"):
        return "@" if kind == "eps" else "#"
    if kind == "star":
        inner = _render(node[1], 2)
        # Python's re refuses a repeated repeat, so a starred star gets parentheses
        return f"({inner})*" if node[1][0] == "star" else inner + "*"
    if kind == "alt":
        text = _render(node[1], 0) + "|" + _render(node[2], 0)
        return text if context == 0 else f"({text})"
    text = _render(node[1], 1) + _render(node[2], 1)
    return text if context <= 1 else f"({text})"


# Reference answers are memoized: drawing the desk corpus sizes each family,
# and the checks size the same families again.
@functools.cache
def _min_states(text: str, alphabet: str) -> int | None:
    """None when even the subset construction passes 2000 states."""
    try:
        return reference.min_states(text, alphabet, cap=2000)
    except reference.TooLarge:
        return None


@functools.cache
def _sizes(variety: str, texts: tuple[str, ...], cap: int) -> tuple[int, int] | None:
    """(piece size, monoid size), or None past the cap."""
    try:
        return reference.piece_and_monoid_size(variety, texts, "ab", cap)
    except reference.TooLarge:
        return None


def _piece_size(variety: str, texts: tuple[str, ...], cap: int) -> int | None:
    sizes = _sizes(variety, texts, cap)
    return None if sizes is None else sizes[0]


# ---------------------------------------------------------------------------
# instance lists

# Small-family corpus, as in `langdual verify-eilenberg --random`: one or two
# generators of at most 5 DFA states, run with the carrier cap at 64.
# Monoid work grows with the cube of the family size, so a corpus drawn
# without quotas swings with a handful of large families from seed to seed.
# Each pass therefore holds a fixed number of families per duality near each
# target size, and both families and their join stay within the target;
# boolean and Z2 families have power-of-two sizes, so for them the target is
# exact.  The quotas place the median inside the group of boolean and
# lattice families of 16 and JSL and Z2 families of 8, and put the twelve
# costliest instances (JSL and Z2 at 32) above the tail rank, so neither
# statistic sits on the edge between two groups of different cost.
DESK_CAP = 64
DESK_STATES = 5
DESK_QUOTAS = ((4, 6), (8, 4), (16, 4), (32, 6))  # (target size, families per duality)
DESK_SLACK = 0.85  # lattice and join-semilattice families may fall this far below target

# JSL and Z2 families, where building and validating the transition monoid
# dominates: the two largest families that repeat several times within a run,
# and a ladder of smaller ones.
LINEAR_FAMILIES = (
    ("JSL", "(aa|b)*ab", 80),
    ("JSL", "(a|b)*abb", 44),
    ("JSL", "(a|b)*aba", 34),
    ("JSL", "(aa)*b", 24),
    ("JSL", "(ab)*", 16),
    ("JSL", "(a|b)*ab", 12),
    ("Z2", "(a|b)*abb", 128),
    ("Z2", "(aa)*b", 32),
    ("Z2", "(ab)*", 16),
    ("Z2", "a*b", 8),
)

BOOLEAN_FAMILIES = (
    ("BA", "(aaaa)*b", 1024),
    ("BA", "(ab)*b", 512),
    ("DL", "(aa|b)*ab", 209),
    ("DL", "(aaaa)*b", 385),
    # families past the 4096 cap: the expected outcome is ResourceExceededError
    ("BA", "(ab|ba)*", None),
    ("BA", "a(ab)*b", None),
)

COMPILE_SUFFIX_LENGTHS = range(6, 10)  # (a|b)*a(a|b)^k: 2^(k+1) DFA states
COMPILE_LITERAL_LENGTHS = range(100, 801, 50)
# Many small random regexes, so the median compile is a median of many.  They
# fill fixed quotas of text length: about half of all drawn texts have one to
# four characters and compile in under half the time of the longer ones, so
# without quotas the median sat on the edge between the two groups and moved
# with each seed's share of short texts.
COMPILE_RANDOM_QUOTAS = ((5, 9, 30), (10, 19, 60), (20, 39, 30))  # (shortest, longest, regexes)
COMPILE_RANDOM_STATES = 50


def _desk(rng: random.Random) -> list[Instance]:
    def draw():
        while True:
            texts = tuple(random_text(rng, "ab", 4) for _ in range(rng.randint(1, 2)))
            if all(_min_states(t, "ab") is not None and _min_states(t, "ab") <= DESK_STATES for t in texts):
                return texts

    out = []
    for target, count in DESK_QUOTAS:
        for variety in VARIETIES:
            low = target if variety in ("BA", "Z2") else int(target * DESK_SLACK)
            for _ in range(count):
                while True:
                    first = draw()
                    got = _piece_size(variety, first, DESK_CAP)
                    if got is not None and low <= got <= target:
                        break
                while True:
                    second = draw()
                    joined = _piece_size(variety, first + second, DESK_CAP)
                    if joined is not None and joined <= target:
                        break
                out.append(Instance(f"desk-{variety}-{got}", "desk", variety, first, second))
    return out


def _compile(rng: random.Random) -> list[Instance]:
    out = [
        Instance(f"suffix{k}", "compile", texts=("(a|b)*a" + "(a|b)" * k,), letters="ab")
        for k in COMPILE_SUFFIX_LENGTHS
    ]
    for n in COMPILE_LITERAL_LENGTHS:
        literal = ("ab" * n)[:n]
        out.append(Instance(f"literal{n}", "compile", texts=(literal,), letters=literal[0] + literal[-1]))
    for shortest, longest, count in COMPILE_RANDOM_QUOTAS:
        drawn = 0
        while drawn < count:
            text = random_text(rng, "abc", 6)
            if not shortest <= len(text) <= longest:
                continue
            states = _min_states(text, "abc")
            if states is None or states > COMPILE_RANDOM_STATES:
                continue
            out.append(
                Instance(f"random{len(out)}", "compile", texts=(text,), alphabet="abc",
                         letters=rng.choice("abc") + rng.choice("abc"))
            )
            drawn += 1
    return out


def build(workload: str, seed: int) -> list[Instance]:
    """The instance list of one pass; the order, and the drawn inputs, come
    from the seed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "desk-mixed":
        instances = _desk(rng)
    elif workload in ("linear-monoids", "boolean-labels"):
        families = LINEAR_FAMILIES if workload == "linear-monoids" else BOOLEAN_FAMILIES
        instances = [Instance(f"{v}-{rx}", "family", v, (rx,)) for v, rx, _ in families]
    elif workload == "regex-compile":
        instances = _compile(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(instances)
    return instances


WORKLOADS = ("desk-mixed", "linear-monoids", "boolean-labels", "regex-compile")


# ---------------------------------------------------------------------------
# reference checks


class Checker:
    """Compares the worker's outcome summaries with answers computed by
    `reference`; each instance's expected answers are computed once."""

    def __init__(self):
        self._expected: dict[Instance, object] = {}

    def expected(self, inst: Instance):
        if inst not in self._expected:
            self._expected[inst] = self._compute(inst)
        return self._expected[inst]

    def _compute(self, inst: Instance):
        if inst.kind == "compile":
            return _compile_expectation(inst)
        cap = DESK_CAP if inst.kind == "desk" else 4096
        sizes = {"correspond": _sizes(inst.variety, inst.texts, cap)}
        if inst.kind == "desk":
            sizes["correspond2"] = _sizes(inst.variety, inst.others, cap)
            sizes["piece_join"] = _sizes(inst.variety, inst.texts + inst.others, cap)
        return sizes

    def verdict(self, inst: Instance, op: str, summary: list) -> str:
        """"ok", "wrong" (a result or a LangdualError that disagrees with the
        reference) or "crash" (anything else raised)."""
        raised = summary[1] if summary[0] == "raise" else ()
        if raised and "LangdualError" not in raised:
            return "crash"
        expected = self.expected(inst)
        if inst.kind == "compile":
            if raised:
                return "wrong"
            _, alphabet, initial, finals, delta = summary
            words, member = expected
            shift = {"compile": lambda w: w, "left": lambda w: inst.letters[0] + w,
                     "right": lambda w: w + inst.letters[1]}[op]
            accepts = _acceptor(alphabet, initial, set(finals), delta)
            return "ok" if all(accepts(w) == member[shift(w)] for w in words) else "wrong"
        if op in ("correspond", "correspond2", "piece_join"):
            sizes = expected[op]
            if sizes is None:  # past the cap: the only right answer is a refusal
                return "ok" if "ResourceExceededError" in raised else "wrong"
            if raised:
                return "wrong"
            if op == "piece_join":
                return "ok" if summary[1] == sizes[0] and summary[2] else "wrong"
            return "ok" if tuple(summary[1:]) == sizes else "wrong"
        if op == "order_check":
            return "ok" if not raised and summary[1] else "wrong"
        return "wrong" if raised else "ok"


COMPILE_WORD_LENGTH = {2: 11, 3: 6}
COMPILE_LONG_WORDS = 100


def _compile_expectation(inst: Instance):
    """Words to test, and the reference automaton's membership of each word
    w, a w and w b in L, where a and b are the derivative letters."""
    text, alphabet = inst.texts[0], inst.alphabet
    words = list(reference.words_up_to(alphabet, COMPILE_WORD_LENGTH[len(alphabet)]))
    rng = random.Random(text)
    words += ["".join(rng.choice(alphabet) for _ in range(rng.randint(12, 24)))
              for _ in range(COMPILE_LONG_WORDS)]
    if set(text) <= set(alphabet):  # a literal: probe around the word itself
        flipped = text[:-1] + ("a" if text[-1] == "b" else "b")
        words += [text, text[1:], text[:-1], flipped, flipped[1:], text + text[-1]]
    probes = set(words)
    probes |= {inst.letters[0] + w for w in words} | {w + inst.letters[1] for w in words}
    probes = sorted(probes)
    return words, dict(zip(probes, reference.membership(text, alphabet, probes)))


def _acceptor(alphabet, initial, finals, delta):
    index = {a: i for i, a in enumerate(alphabet)}

    def accepts(word: str) -> bool:
        q = initial
        for a in word:
            q = delta[q][index[a]]
        return q in finals

    return accepts
