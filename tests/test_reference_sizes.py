"""Piece and monoid sizes against `perfbench/reference.py`, an implementation
that never imports langdual: it parses the regex text itself, builds
automata by subset construction, minimizes them by Moore refinement, and
counts a piece as a family of bit masks over the syntactic monoid.

The families: the nine cap-size families, whose sizes the two cap-size
tiers pin from langdual's own runs, and the families of the benchmark's
boolean-labels and linear-monoids workloads, whose sizes are computed here.
Two boolean-labels families lie past the default cap, and both sides must
refuse them.  A seeded corpus of 40 generator sets of one or two random
regexes is closed under each duality at a 64-element cap, and every closure
that fits must have the reference's sizes.

On the BA and DL families of both lists, the monoid itself is checked
against the reference's syntactic monoid (its multiplication table, and for
DL its order), and so is the membership of every word up to length 6 in the
generator and in a seeded sample of the piece's label texts.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from langdual.automata import rqc_closure
from langdual.cli import random_regex
from langdual.config import Limits
from langdual.correspondence import piece_to_monoid
from langdual.duality import DualityTag, c_tag
from langdual.errors import ResourceExceededError
from langdual.languages import compile_text, language_to_regex, render_regex
from langdual.varieties import leq
import test_cap_size_ba_dl_z2
import test_cap_size_jsl

_spec = importlib.util.spec_from_file_location(
    "reference", Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

VARIETY = {DualityTag.BA_SET: "BA", DualityTag.DL01_POS: "DL", DualityTag.JSL_SELF: "JSL", DualityTag.Z2_SELF: "Z2"}

CAP_SIZE = [(d, text, piece, monoid) for d, text, piece, monoid, _ in test_cap_size_ba_dl_z2.FAMILIES] + [
    (DualityTag.JSL_SELF, text, size, size) for text, size, _ in test_cap_size_jsl.FAMILIES
]

# (duality, regex) of the boolean-labels and linear-monoids workloads
WORKLOAD_FAMILIES = [
    (DualityTag.BA_SET, "(aaaa)*b"),
    (DualityTag.BA_SET, "(ab)*b"),
    (DualityTag.DL01_POS, "(aa|b)*ab"),
    (DualityTag.DL01_POS, "(aaaa)*b"),
    (DualityTag.JSL_SELF, "(aa|b)*ab"),
    (DualityTag.JSL_SELF, "(a|b)*abb"),
    (DualityTag.JSL_SELF, "(a|b)*aba"),
    (DualityTag.JSL_SELF, "(aa)*b"),
    (DualityTag.JSL_SELF, "(ab)*"),
    (DualityTag.JSL_SELF, "(a|b)*ab"),
    (DualityTag.Z2_SELF, "(a|b)*abb"),
    (DualityTag.Z2_SELF, "(aa)*b"),
    (DualityTag.Z2_SELF, "(ab)*"),
    (DualityTag.Z2_SELF, "a*b"),
]
PAST_THE_CAP = [(DualityTag.BA_SET, "(ab|ba)*"), (DualityTag.BA_SET, "a(ab)*b")]


def _seeded_sets(rng: random.Random, count: int) -> list[list[str]]:
    return [[render_regex(random_regex(rng, "ab")) for _ in range(rng.randint(1, 2))] for _ in range(count)]


SEEDED = _seeded_sets(random.Random(64), 40)
BOOLEAN = [
    (d, text)
    for d, text, *_ in CAP_SIZE + WORKLOAD_FAMILIES
    if d in (DualityTag.BA_SET, DualityTag.DL01_POS)
]


@pytest.mark.parametrize("d, text, piece, monoid", CAP_SIZE, ids=[f"{row[0].name}-{row[1]}" for row in CAP_SIZE])
def test_cap_size_families_have_the_reference_sizes(d, text, piece, monoid):
    assert reference.piece_and_monoid_size(VARIETY[d], [text], "ab") == (piece, monoid)


@pytest.mark.parametrize("d, text", WORKLOAD_FAMILIES, ids=[f"{d.name}-{text}" for d, text in WORKLOAD_FAMILIES])
def test_workload_families_have_the_reference_sizes(d, text):
    piece = rqc_closure(c_tag(d), [compile_text(text, ("a", "b"))])
    sizes = (piece.size, piece_to_monoid(d, piece).size)
    assert reference.piece_and_monoid_size(VARIETY[d], [text], "ab") == sizes


@pytest.mark.parametrize("d", list(DualityTag), ids=[d.name for d in DualityTag])
def test_a_seeded_corpus_has_the_reference_sizes(d):
    cap = Limits(max_carrier=64)
    fitted = 0
    for texts in SEEDED:
        try:
            piece = rqc_closure(c_tag(d), [compile_text(text, ("a", "b")) for text in texts], cap)
            sizes = (piece.size, piece_to_monoid(d, piece, cap).size)
        except ResourceExceededError:
            continue
        assert reference.piece_and_monoid_size(VARIETY[d], texts, "ab") == sizes, texts
        fitted += 1
    assert fitted >= 20


@pytest.mark.parametrize("d, text", PAST_THE_CAP, ids=[f"{d.name}-{text}" for d, text in PAST_THE_CAP])
def test_families_past_the_cap_are_refused_by_both(d, text):
    with pytest.raises(ResourceExceededError):
        rqc_closure(c_tag(d), [compile_text(text, ("a", "b"))])
    with pytest.raises(reference.TooLarge):
        reference.piece_and_monoid_size(VARIETY[d], [text], "ab")


@pytest.mark.parametrize("d, text", BOOLEAN, ids=[f"{d.name}-{text}" for d, text in BOOLEAN])
def test_boolean_families_have_the_reference_monoid_and_members(d, text):
    """Walking both Cayley graphs from the unit, one letter at a time, pairs
    each monoid element with one of the reference's maps on states; the
    pairing must be a bijection under which the products agree.  For DL,
    x <= y exactly when from every state y's image accepts no word that x's
    image rejects."""
    generator = compile_text(text, ("a", "b"))
    piece = rqc_closure(c_tag(d), [generator])
    m = piece_to_monoid(d, piece)
    delta, outputs, elements = reference.syntactic_monoid([text], "ab")
    pair, order = {m.unit: elements[0]}, [m.unit]
    for x in order:
        for ai, g in enumerate(m.gen):
            y, f = m.mult[x][g], tuple(delta[q][ai] for q in pair[x])
            if y not in pair:
                pair[y] = f
                order.append(y)
            assert pair[y] == f
    assert len(order) == len(set(pair.values())) == m.size == len(elements)
    assert all(pair[m.mult[x][y]] == tuple(pair[y][q] for q in pair[x]) for x in order for y in order)
    if d is DualityTag.DL01_POS:

        def below(f, g):
            return all(outputs[h[g[q]]][0] <= outputs[h[f[q]]][0] for q in range(len(delta)) for h in elements)

        assert all(leq(m.carrier, x, y) == below(pair[x], pair[y]) for x in order for y in order)

    words = list(reference.words_up_to("ab", 6))
    sample = random.Random(text).sample(piece.labels, 6)
    for label_text, lang in [(text, generator), *((language_to_regex(lang), lang) for lang in sample)]:
        assert reference.membership(label_text, "ab", words) == list(map(lang.dfa.accepts_word, words))
