"""A piece keeps the monoid that piece_to_monoid built from it.

piece_to_monoid stores its result on the piece and returns it again under
any cap of at least its size; under a smaller cap it runs in full.  A kept
monoid must equal what a fresh copy of the piece (`replace(piece)`, which
keeps nothing) gives at every cap from 1 to the size plus 2: the monoid,
`lawful` and the letters' rows and columns, or the same refusal.  Nothing
else fills the store: the round trip of a monoid builds its dual piece and
that piece's monoid afresh.  `correspond` twice, then `order_check` and
`piece_join` on the two pieces, label nothing and build two monoids.
"""

import random
from dataclasses import replace

import pytest

import langdual.automata
import langdual.correspondence
from langdual.automata import generate_subcoalgebra, rqc_closure
from langdual.config import Limits
from langdual.correspondence import (
    correspond,
    monoid_roundtrip_check,
    order_check,
    piece_join,
    piece_to_monoid,
)
from langdual.duality import DualityTag, c_tag
from langdual.errors import ResourceExceededError
from langdual.languages import compile_text
from helpers import random_generators

AB = ("a", "b")
SMALL = Limits(max_carrier=64)
GENERATOR_SETS = 30


@pytest.fixture(scope="module")
def corpus():
    """(duality, piece) for every closure of the seeded generator sets that
    fits the cap, and for a few left-only pieces that are not closed."""
    rng = random.Random(2031)
    out = []
    for i in range(GENERATOR_SETS):
        gens = random_generators(rng, AB, max_states=5)
        for d in DualityTag:
            try:
                out.append((d, rqc_closure(c_tag(d), gens, SMALL)))
                if i % 5 == 0:
                    out.append((d, generate_subcoalgebra(c_tag(d), gens, SMALL)))
            except ResourceExceededError:
                continue
    return out


def _outcome(call):
    try:
        m = call()
    except Exception as err:  # the refusals are compared, whatever they are
        return ("raise", type(err), str(err))
    return ("ok", m, m.lawful, m.letter_rows, m.letter_cols)


def test_a_kept_monoid_equals_a_fresh_one_at_every_cap(corpus):
    cases = hits = unclosed = 0
    for d, piece in corpus:
        try:
            kept = piece_to_monoid(d, piece)
        except Exception:  # a piece that is not closed keeps nothing
            assert "_monoid" not in vars(piece)
            unclosed += 1
            kept = None
        for cap in range(1, piece.size + 3):
            limits = Limits(max_carrier=cap)
            outcome = _outcome(lambda: piece_to_monoid(d, piece, limits))
            assert outcome == _outcome(lambda: piece_to_monoid(d, replace(piece), limits)), (d, cap)
            cases += 1
            if kept is not None and cap >= kept.size:
                assert outcome[1] is vars(piece)["_monoid"]
                hits += 1
    assert cases >= 2000 and hits >= 300 and unclosed >= 5, (cases, hits, unclosed)


def _counted(monkeypatch, calls):
    """Count the calls of each name in calls, in the module that calls it."""
    modules = {"transition_monoid": langdual.correspondence, "block_language": langdual.automata}
    for name in calls:
        original = getattr(modules[name], name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(modules[name], name, counted)


def test_the_monoid_round_trip_builds_the_dual_piece_s_monoid_afresh(corpus, monkeypatch):
    monoids = []
    for d, piece in corpus[::4]:
        try:
            monoids.append((d, piece_to_monoid(d, piece)))
        except Exception:  # not closed
            continue
    calls = {"transition_monoid": 0}
    _counted(monkeypatch, calls)
    for i, (d, m) in enumerate(monoids, 1):
        monoid_roundtrip_check(d, m)
        assert calls["transition_monoid"] == i
    assert len(monoids) >= 20


@pytest.mark.parametrize("d", list(DualityTag), ids=[d.name for d in DualityTag])
def test_two_correspondences_an_order_check_and_a_join_label_nothing(d, monkeypatch):
    first, second = [compile_text("(aa)*", AB)], [compile_text("a*b", AB)]
    calls = {"block_language": 0, "transition_monoid": 0}
    _counted(monkeypatch, calls)
    c1, c2 = correspond(d, first, SMALL), correspond(d, second, SMALL)
    assert order_check(d, c1.piece, c2.piece)
    piece_join(d, c1.piece, c2.piece, SMALL)
    assert calls == {"block_language": 0, "transition_monoid": 2}
