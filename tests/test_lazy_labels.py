"""Labels computed on first read.

A coalgebra's labels are its state languages, so they follow from its
transitions and outputs: `labels` refines the states once when it is first
read.  The round trip, the monoid paths and the right-derivative check never
read them.  Seeded pieces over all four dualities check that nothing on those
paths computes a label, that a rebuilt piece, a shift and a dualization each
label their own structure, and that `joint_quotient` groups states as the
labels do.
"""

import random
from dataclasses import replace

import langdual.automata
from langdual.automata import (
    coalg_shift,
    coalgebra_to_dalgebra,
    dalgebra_to_coalgebra,
    is_rqc_closed,
    joint_quotient,
    rqc_closure,
)
from langdual.config import Limits
from langdual.correspondence import (
    correspond,
    monoid_roundtrip_check,
    monoid_to_piece,
    piece_to_monoid,
    roundtrip_check,
)
from langdual.duality import DualityTag, c_tag
from langdual.errors import ResourceExceededError
from helpers import random_generators
from oracles import per_state_labels

AB = ("a", "b")
SMALL = Limits(max_carrier=64)


def _generator_sets(seed, count):
    rng = random.Random(seed)
    return [random_generators(rng, AB, max_states=4) for _ in range(count)]


def _pieces(seed, count):
    """(duality, piece) for every right-closed piece that fits the cap."""
    out = []
    for gens in _generator_sets(seed, count):
        for d in DualityTag:
            try:
                out.append((d, rqc_closure(c_tag(d), gens, SMALL)))
            except ResourceExceededError:
                continue
    return out


def _no_labelling(*_):
    raise AssertionError("a label was computed")


def test_round_trip_and_monoid_paths_compute_no_label(monkeypatch):
    monkeypatch.setattr(langdual.automata, "block_language", _no_labelling)
    runs = set()
    for gens in _generator_sets(seed=31, count=30):
        for d in DualityTag:
            try:
                c = correspond(d, gens, SMALL)
            except ResourceExceededError:
                continue
            roundtrip_check(d, c.piece, SMALL)
            assert is_rqc_closed(c.piece)
            m = piece_to_monoid(d, c.piece, SMALL)
            monoid_roundtrip_check(d, m, SMALL)
            back = monoid_to_piece(d, m, SMALL)
            for piece in (c.piece, back):
                assert "labels" not in piece.__dict__
            runs.add(d)
    assert runs == set(DualityTag)


def test_a_rebuilt_piece_labels_its_own_structure():
    changed = 0
    for _, piece in _pieces(seed=33, count=25):
        assert piece.labels == per_state_labels(piece)
        swapped = replace(piece, gamma=piece.gamma[::-1])  # a reads as b and b as a
        shifted = replace(piece, out=coalg_shift(piece, "a").out)
        for rebuilt in (swapped, shifted):
            assert "labels" not in rebuilt.__dict__
            assert rebuilt.labels == per_state_labels(rebuilt)
            changed += rebuilt.labels != piece.labels
    assert changed >= 100


def test_shifts_and_dualizations_label_their_own_states():
    for d, piece in _pieces(seed=41, count=10):
        back = dalgebra_to_coalgebra(d, coalgebra_to_dalgebra(d, piece))
        for q in (coalg_shift(piece, ""), coalg_shift(piece, "ab"), back):
            assert "labels" not in q.__dict__
            assert q.labels == per_state_labels(q)


def test_joint_quotient_blocks_agree_with_the_labels():
    merged = 0
    for _, piece in _pieces(seed=43, count=25):
        for q in (piece, coalg_shift(piece, "ab")):
            (blocks,), labels = joint_quotient(q)[1], per_state_labels(q)
            pairs = {(b, l) for b, l in zip(blocks, labels)}
            assert len(pairs) == len(set(blocks)) == len(set(labels))
            merged += len(set(blocks)) < q.size
    assert merged >= 20

