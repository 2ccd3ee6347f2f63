import gc
import weakref

import pytest

import langdual.correspondence as correspondence_module
from langdual.automata import CCoalgebra, generate_subcoalgebra, is_rqc_closed, label_set, rqc_closure
from langdual.correspondence import (
    correspond,
    correspondence_report,
    monoid_roundtrip_check,
    monoid_to_piece,
    order_check,
    piece_join,
    piece_to_monoid,
    roundtrip_check,
)
from langdual.duality import DualityTag, dual_object
from langdual.errors import CorrespondenceError, NotRqcClosedError
from langdual.languages import compile_text
from langdual.monoids import (
    sigma_monoid_iso,
    subdirect_product,
    transition_monoid,
    validate_monoid,
)
from langdual.varieties import BoolAlg, FinMorphism, VarietyTag, identity, two_element_algebra
from helpers import language_dalgebra, trivial_monoid
from oracles import brute_syntactic_monoid, empty_language, full_language

AB = ("a", "b")
PAIRS = [
    (VarietyTag.BA, DualityTag.BA_SET),
    (VarietyTag.DL01, DualityTag.DL01_POS),
    (VarietyTag.JSL0, DualityTag.JSL_SELF),
    (VarietyTag.Z2VECT, DualityTag.Z2_SELF),
]


def lang(text, alphabet=AB):
    return compile_text(text, alphabet)


def test_piece_to_monoid_recovers_the_syntactic_monoid():
    piece = rqc_closure(VarietyTag.BA, [lang("(ab)*")])
    m = piece_to_monoid(DualityTag.BA_SET, piece)
    assert m.size == 6
    assert validate_monoid(m)
    size, mult, unit, gens, _ = brute_syntactic_monoid(lang("(ab)*"))
    from langdual.monoids import SigmaMonoid
    from langdual.varieties import FinSet

    brute = SigmaMonoid(FinSet(size), AB, unit, mult, tuple(gens[a] for a in AB))
    assert sigma_monoid_iso(m, brute) is not None


def test_piece_to_monoid_trivial_cases():
    piece = rqc_closure(VarietyTag.BA, [full_language(AB)])
    assert piece_to_monoid(DualityTag.BA_SET, piece).size == 1
    piece = rqc_closure(VarietyTag.JSL0, [empty_language(AB)])
    m = piece_to_monoid(DualityTag.JSL_SELF, piece)
    assert m.size == 1
    assert validate_monoid(m)


def test_piece_to_monoid_rejects_left_only_closures():
    piece = generate_subcoalgebra(VarietyTag.BA, [lang("(ab)*")])
    with pytest.raises(NotRqcClosedError):
        piece_to_monoid(DualityTag.BA_SET, piece)


def test_piece_to_monoid_says_why_it_refuses_a_piece():
    left_only = generate_subcoalgebra(VarietyTag.BA, [lang("(ab)*")])
    with pytest.raises(NotRqcClosedError, match=r"^piece is not closed under right derivatives$"):
        piece_to_monoid(DualityTag.BA_SET, left_only)


def test_a_piece_that_repeats_a_language_is_refused_by_name():
    """Four states that accept the empty language, the full one, the empty one
    and the full one again.  The piece dualizes to the monoid of its label set,
    whose dual has one state per language, so the round trip merges states."""
    carrier = BoolAlg(2)
    stay = identity(carrier)
    out = FinMorphism(carrier, two_element_algebra(VarietyTag.BA), (0, 1, 0, 1))
    piece = CCoalgebra(carrier, AB, (stay, stay), out)
    nothing, everything = empty_language(AB), full_language(AB)
    assert piece.labels == (nothing, everything, nothing, everything)
    m = piece_to_monoid(DualityTag.BA_SET, piece)
    closed = rqc_closure(VarietyTag.BA, label_set(piece))
    assert sigma_monoid_iso(m, piece_to_monoid(DualityTag.BA_SET, closed)) is not None
    with pytest.raises(CorrespondenceError, match=r"^round trip merged two states of one language$") as err:
        roundtrip_check(DualityTag.BA_SET, piece)
    assert err.value.counterexample is None


def test_monoid_to_piece_of_trivial_monoid():
    piece = monoid_to_piece(DualityTag.BA_SET, trivial_monoid(VarietyTag.SET, AB))
    assert label_set(piece) == frozenset({empty_language(AB), full_language(AB)})
    assert is_rqc_closed(piece)


def test_monoid_to_piece_one_dimensional_z2():
    m = transition_monoid(language_dalgebra(full_language(AB)))
    # lift the 1-element monoid to the 1-dimensional linear one
    from langdual.monoids import SigmaMonoid
    from langdual.varieties import VectZ2

    linear = SigmaMonoid(VectZ2(1), AB, 1, ((0, 0), (0, 1)), (1, 1))
    assert validate_monoid(linear)
    piece = monoid_to_piece(DualityTag.Z2_SELF, linear)
    assert label_set(piece) == frozenset({empty_language(AB), full_language(AB)})


def test_monoid_to_piece_inverts_piece_to_monoid_on_ab_star():
    piece = rqc_closure(VarietyTag.BA, [lang("(ab)*")])
    m = piece_to_monoid(DualityTag.BA_SET, piece)
    again = monoid_to_piece(DualityTag.BA_SET, m)
    assert label_set(again) == label_set(piece)


def test_roundtrip_check_all_varieties():
    for tag, dtag in PAIRS:
        piece = rqc_closure(tag, [lang("(ab)*")])
        witness = roundtrip_check(dtag, piece)
        assert witness.forward.then(witness.backward).graph == tuple(range(piece.size))
        assert witness.backward.then(witness.forward).graph == tuple(range(piece.size))


def test_roundtrip_check_trivial_piece():
    for tag, dtag in PAIRS:
        piece = rqc_closure(tag, [empty_language(AB)])
        witness = roundtrip_check(dtag, piece)
        assert witness.forward.graph == tuple(range(piece.size))


def test_monoid_roundtrip_check():
    for tag, dtag in PAIRS:
        piece = rqc_closure(tag, [lang("(ab)*"), lang("a*")])
        m = piece_to_monoid(dtag, piece)
        iso = monoid_roundtrip_check(dtag, m)
        assert iso.graph[m.unit] is not None


def test_order_check_examples():
    piece1 = rqc_closure(VarietyTag.BA, [full_language(AB)])
    piece2 = rqc_closure(VarietyTag.BA, [lang("(ab)*")])
    assert order_check(DualityTag.BA_SET, piece1, piece1)
    assert order_check(DualityTag.BA_SET, piece1, piece2)
    assert order_check(DualityTag.BA_SET, piece2, piece1)
    assert label_set(piece1) <= label_set(piece2)
    m1 = piece_to_monoid(DualityTag.BA_SET, piece1)
    m2 = piece_to_monoid(DualityTag.BA_SET, piece2)
    from langdual.monoids import quotient_leq

    assert quotient_leq(m1, m2)


def test_piece_join_examples():
    piece = rqc_closure(VarietyTag.BA, [lang("(ab)*")])
    trivial = rqc_closure(VarietyTag.BA, [empty_language(AB)])
    assert label_set(piece_join(DualityTag.BA_SET, piece, piece)) == label_set(piece)
    assert label_set(piece_join(DualityTag.BA_SET, piece, trivial)) == label_set(piece)


def test_piece_join_matches_subdirect_product_on_cycles():
    a_only = ("a",)
    p2 = rqc_closure(VarietyTag.BA, [lang("(aa)*", a_only)])
    p3 = rqc_closure(VarietyTag.BA, [lang("(aaa)*", a_only)])
    joined = piece_join(DualityTag.BA_SET, p2, p3)
    m_join = piece_to_monoid(DualityTag.BA_SET, joined)
    m_sub = subdirect_product(
        piece_to_monoid(DualityTag.BA_SET, p2), piece_to_monoid(DualityTag.BA_SET, p3)
    )
    assert m_join.size == 6
    assert sigma_monoid_iso(m_join, m_sub) is not None


def test_jsl_monoids_are_idempotent_semirings():
    piece = rqc_closure(VarietyTag.JSL0, [lang("(ab)*")])
    m = piece_to_monoid(DualityTag.JSL_SELF, piece)
    join = m.carrier.join
    for x in range(m.size):
        assert join[x][x] == x
        for y in range(m.size):
            for z in range(m.size):
                assert m.mult[x][join[y][z]] == join[m.mult[x][y]][m.mult[x][z]]
                assert m.mult[join[y][z]][x] == join[m.mult[y][x]][m.mult[z][x]]


def test_z2_monoids_are_z2_algebras():
    piece = rqc_closure(VarietyTag.Z2VECT, [lang("(ab)*")])
    m = piece_to_monoid(DualityTag.Z2_SELF, piece)
    for x in range(m.size):
        for y in range(m.size):
            for z in range(m.size):
                assert m.mult[x][y ^ z] == m.mult[x][y] ^ m.mult[x][z]
                assert m.mult[y ^ z][x] == m.mult[y][x] ^ m.mult[z][x]


def test_correspondence_report_shape():
    report = correspondence_report(DualityTag.BA_SET, [lang("(ab)*")])
    assert report["roundtrip"] == "ok"
    assert len(report["piece"]["languages"]) == 64
    assert report["monoid"]["tag"] == "SET"
    assert len(report["monoid"]["mult"]) == 6


def test_correspond_bundles_all_three_parts():
    from langdual.correspondence import correspond

    bundle = correspond(DualityTag.JSL_SELF, [lang("(ab)*")])
    assert label_set(bundle.piece) == label_set(rqc_closure(VarietyTag.JSL0, [lang("(ab)*")]))
    assert bundle.monoid.size == bundle.piece.size
    assert bundle.witness.forward.dom == bundle.piece.carrier


@pytest.mark.parametrize("tag,dtag", PAIRS)
def test_correspond_builds_the_monoid_once(monkeypatch, tag, dtag):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return piece_to_monoid(*args, **kwargs)

    monkeypatch.setattr(correspondence_module, "piece_to_monoid", counting)
    correspond(dtag, [lang("(ab)*")])
    assert len(calls) == 1
    report = correspondence_report(dtag, [lang("(ab)*")])
    assert report["roundtrip"] == "ok"
    assert len(calls) == 2


def test_lattices_and_their_duals_die_with_their_last_reference():
    """The tables derived from a DL01 or JSL0 carrier live on it, so a
    round trip through the correspondence leaves none of them alive."""
    refs = []
    for d in (DualityTag.DL01_POS, DualityTag.JSL_SELF):
        c = correspond(d, [lang("(ab)*|a"), lang("b*a")])
        carrier = c.piece.carrier
        dual = dual_object(d, carrier)
        assert dual_object(d, dual) == carrier and c.monoid.size > 1
        monoid_roundtrip_check(d, c.monoid)
        refs += [weakref.ref(carrier), weakref.ref(dual)]
        del c, carrier, dual
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4
