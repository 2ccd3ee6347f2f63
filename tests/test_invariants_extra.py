"""Cross-module invariants beyond the per-module suites."""

import random
from dataclasses import replace

from langdual.automata import coalg_shift, coalgebra_to_dalgebra, dalgebra_to_json, rqc_closure
from langdual.correspondence import piece_to_monoid
from langdual.duality import DualityTag
from langdual.languages import compile_text
from langdual.monoids import (
    carrier_add,
    free_language,
    quotient_leq,
    subdirect_product,
    transition_monoid,
)
from langdual.varieties import VarietyTag, constants
from helpers import ccoalgebra_to_json, eval_word, language_dalgebra, trivial_monoid
from oracles import carrier_map_monoid

AB = ("a", "b")
PAIRS = [
    (VarietyTag.BA, DualityTag.BA_SET),
    (VarietyTag.DL01, DualityTag.DL01_POS),
    (VarietyTag.JSL0, DualityTag.JSL_SELF),
    (VarietyTag.Z2VECT, DualityTag.Z2_SELF),
]


def lang(text, alphabet=AB):
    return compile_text(text, alphabet)


def test_finals_shift_duality_all_varieties():
    """The finals-shift by w dualizes to moving the initial state along the
    reversed word."""
    for tag, dtag in PAIRS:
        piece = rqc_closure(tag, [lang("(ab)*")])
        alg = coalgebra_to_dalgebra(dtag, piece)
        for w in ["", "a", "b", "ab", "ba", "aab", "bab"]:
            init = alg.init
            for a in reversed(w):
                init = alg.alpha[AB.index(a)].graph[init]
            assert coalgebra_to_dalgebra(dtag, coalg_shift(piece, w)) == replace(alg, init=init)


def test_eval_word_additivity_for_linear_tags():
    for tag, dtag in [(VarietyTag.JSL0, DualityTag.JSL_SELF), (VarietyTag.Z2VECT, DualityTag.Z2_SELF)]:
        piece = rqc_closure(tag, [lang("a*b")])
        monoid = piece_to_monoid(dtag, piece)
        rng = random.Random(3)
        for _ in range(30):
            words1 = {"".join(rng.choice(AB) for _ in range(rng.randrange(3))) for _ in range(2)}
            words2 = {"".join(rng.choice(AB) for _ in range(rng.randrange(3))) for _ in range(2)}
            x = free_language(tag, words1)
            y = free_language(tag, words2)
            merged = free_language(tag, set(words1) ^ set(words2) if tag is VarietyTag.Z2VECT else set(words1) | set(words2))
            assert eval_word(monoid, merged) == carrier_add(
                monoid.carrier, eval_word(monoid, x), eval_word(monoid, y)
            )
        assert eval_word(monoid, free_language(tag, [])) == constants(monoid.carrier)[0]


def test_transition_monoid_elements_are_eval_images_linear_case():
    piece = rqc_closure(VarietyTag.JSL0, [lang("(ab)*")])
    monoid = piece_to_monoid(DualityTag.JSL_SELF, piece)
    word_images = {monoid.unit}
    frontier = [""]
    seen = {""}
    while frontier:
        w = frontier.pop()
        if len(w) >= 6:
            continue
        for a in AB:
            if w + a not in seen:
                seen.add(w + a)
                frontier.append(w + a)
                word_images.add(eval_word(monoid, w + a))
    # additive span of the word images, with the empty-language image
    span = set(word_images) | {constants(monoid.carrier)[0]}
    changed = True
    while changed:
        changed = False
        for x in list(span):
            for y in list(span):
                s = carrier_add(monoid.carrier, x, y)
                if s not in span:
                    span.add(s)
                    changed = True
    assert span == set(range(monoid.size))


def test_quotient_leq_transitivity():
    a_only = ("a",)
    m2 = transition_monoid(language_dalgebra(lang("(aa)*", a_only)))
    m6 = subdirect_product(
        m2, transition_monoid(language_dalgebra(lang("(aaa)*", a_only)))
    )
    t = trivial_monoid(VarietyTag.SET, a_only)
    assert quotient_leq(t, m2) and quotient_leq(m2, m6)
    assert quotient_leq(t, m6)


def test_shift_labels_are_right_derivatives_of_labels():
    from langdual.automata import state_language
    from langdual.languages import right_derivative

    for tag, dtag in PAIRS:
        piece = rqc_closure(tag, [lang("a*b")])
        for word, _ in carrier_map_monoid(piece):
            shifted = coalg_shift(piece, word)
            for state in range(piece.size):
                assert state_language(shifted, state) == right_derivative(
                    piece.labels[state], word
                )


def test_automata_json_shapes():
    piece = rqc_closure(VarietyTag.JSL0, [lang("(ab)*")])
    data = ccoalgebra_to_json(piece)
    assert set(data) == {"carrier", "alphabet", "gamma", "out", "labels"}
    assert data["carrier"]["tag"] == "JSL0"
    assert set(data["gamma"]) == {"a", "b"}
    assert len(data["labels"]) == piece.size
    algebra = coalgebra_to_dalgebra(DualityTag.JSL_SELF, piece)
    adata = dalgebra_to_json(algebra)
    assert set(adata) == {"carrier", "alphabet", "alpha", "init"}
    assert adata["init"] == algebra.init
