from collections import deque

from langdual.automata import (
    coalg_shift,
    coalgebra_to_dalgebra,
    dalgebra_to_coalgebra,
    generate_subcoalgebra,
    is_rqc_closed,
    label_set,
    rqc_closure,
    state_language,
)
from langdual.duality import DualityTag
from langdual.languages import compile_text, left_derivative, right_derivative
from langdual.varieties import FinSet, VarietyTag, validate_morphism
from helpers import check_labels, validate_coalgebra
from oracles import (
    empty_language,
    full_language,
    lang_complement,
    lang_intersect,
    lang_symdiff,
    lang_union,
)

AB = ("a", "b")


def lang(text):
    return compile_text(text, AB)


def naive_closure(tag, gens, include_right):
    """Worklist closure at the language level; the independent oracle."""
    alphabet = next(iter(gens)).alphabet
    if tag is VarietyTag.BA:
        cons = [empty_language(alphabet), full_language(alphabet)]
        binop = [lang_union, lang_intersect]
        unop = [lang_complement]
    elif tag is VarietyTag.DL01:
        cons = [empty_language(alphabet), full_language(alphabet)]
        binop = [lang_union, lang_intersect]
        unop = []
    elif tag is VarietyTag.JSL0:
        cons = [empty_language(alphabet)]
        binop = [lang_union]
        unop = []
    else:
        cons = [empty_language(alphabet)]
        binop = [lang_symdiff]
        unop = []
    closed = set(gens) | set(cons)
    queue = deque(sorted(closed, key=lambda l: l.sort_key()))
    while queue:
        x = queue.popleft()
        new = [op(x) for op in unop]
        for a in alphabet:
            new.append(left_derivative(x, a))
            if include_right:
                new.append(right_derivative(x, a))
        for y in sorted(closed, key=lambda l: l.sort_key()):
            for op in binop:
                new.append(op(x, y))
        for v in new:
            if v not in closed:
                closed.add(v)
                queue.append(v)
    return frozenset(closed)


# --- closures ---


def test_generate_subcoalgebra_jsl_example():
    piece = generate_subcoalgebra(VarietyTag.JSL0, [lang("(ab)*")])
    expected = frozenset(
        {
            empty_language(AB),
            lang("(ab)*"),
            lang("b(ab)*"),
            lang_union(lang("(ab)*"), lang("b(ab)*")),
        }
    )
    assert label_set(piece) == expected
    assert piece.size == 4
    assert label_set(piece) == naive_closure(VarietyTag.JSL0, [lang("(ab)*")], False)


def test_generate_subcoalgebra_ba_example():
    piece = generate_subcoalgebra(VarietyTag.BA, [lang("(ab)*")])
    assert piece.size == 8
    assert label_set(piece) == naive_closure(VarietyTag.BA, [lang("(ab)*")], False)


def test_generate_subcoalgebra_ba_constants():
    piece = generate_subcoalgebra(VarietyTag.BA, [empty_language(AB)])
    assert label_set(piece) == frozenset({empty_language(AB), full_language(AB)})


def test_pieces_validate_and_are_labeled_homomorphically():
    for tag in (VarietyTag.BA, VarietyTag.DL01, VarietyTag.JSL0, VarietyTag.Z2VECT):
        piece = generate_subcoalgebra(tag, [lang("(ab)*")])
        assert validate_coalgebra(piece)
        assert check_labels(piece)
        for s in range(piece.size):
            assert state_language(piece, s) == piece.labels[s]


def test_is_rqc_closed_examples():
    assert not is_rqc_closed(generate_subcoalgebra(VarietyTag.BA, [lang("(ab)*")]))
    assert is_rqc_closed(generate_subcoalgebra(VarietyTag.BA, [full_language(AB)]))
    assert is_rqc_closed(rqc_closure(VarietyTag.BA, [lang("(ab)*")]))


def test_rqc_closure_ba_example():
    piece = rqc_closure(VarietyTag.BA, [lang("(ab)*")])
    labels = label_set(piece)
    for member in [
        lang("(ab)*"),
        lang("b(ab)*"),
        lang("(ab)*a"),
        empty_language(AB),
        full_language(AB),
    ]:
        assert member in labels
    assert labels == naive_closure(VarietyTag.BA, [lang("(ab)*")], True)


def test_rqc_closure_trivial_examples():
    piece = rqc_closure(VarietyTag.JSL0, [empty_language(AB)])
    assert label_set(piece) == frozenset({empty_language(AB)})
    piece = rqc_closure(VarietyTag.Z2VECT, [full_language(AB)])
    assert label_set(piece) == frozenset({empty_language(AB), full_language(AB)})


def test_rqc_closure_is_least():
    # dropping any non-generator language breaks closure, on a small instance
    piece = rqc_closure(VarietyTag.JSL0, [lang("(ab)*")])
    labels = label_set(piece)
    gen = lang("(ab)*")
    for dropped in labels - {gen, empty_language(AB)}:
        smaller = labels - {dropped}
        closed = all(
            left_derivative(x, a) in smaller and right_derivative(x, a) in smaller
            for x in smaller
            for a in AB
        ) and all(lang_union(x, y) in smaller for x in smaller for y in smaller)
        assert not closed


def test_rqc_closure_closed_under_everything():
    for tag in (VarietyTag.BA, VarietyTag.DL01, VarietyTag.JSL0, VarietyTag.Z2VECT):
        labels = label_set(rqc_closure(tag, [lang("(ab)*")]))
        for x in labels:
            for a in AB:
                assert left_derivative(x, a) in labels
                assert right_derivative(x, a) in labels
            for y in labels:
                if tag in (VarietyTag.BA, VarietyTag.DL01):
                    assert lang_union(x, y) in labels
                    assert lang_intersect(x, y) in labels
                if tag is VarietyTag.JSL0:
                    assert lang_union(x, y) in labels
                if tag is VarietyTag.Z2VECT:
                    assert lang_symdiff(x, y) in labels
            if tag is VarietyTag.BA:
                assert lang_complement(x) in labels


# --- shifts ---


def test_coalg_shift_epsilon_is_identity():
    piece = generate_subcoalgebra(VarietyTag.BA, [lang("(ab)*")])
    shifted = coalg_shift(piece, "")
    assert shifted == piece


def test_coalg_shift_word_composition():
    piece = generate_subcoalgebra(VarietyTag.BA, [lang("(ab)*")])
    via_word = coalg_shift(piece, "ab")
    via_steps = piece.gamma[0].then(piece.gamma[1]).then(piece.out)
    assert via_word.out.graph == via_steps.graph


def test_coalg_shift_state_accepts_right_derivative():
    piece = generate_subcoalgebra(VarietyTag.BA, [lang("(ab)*")])
    state = piece.labels.index(lang("(ab)*"))
    shifted = coalg_shift(piece, "b")
    assert state_language(shifted, state) == lang("(ab)*a")
    assert state_language(shifted, state) == right_derivative(lang("(ab)*"), "b")


# --- dualization ---


def test_ba_piece_dualizes_to_atom_automaton():
    piece = generate_subcoalgebra(VarietyTag.BA, [lang("(ab)*")])
    alg = coalgebra_to_dalgebra(DualityTag.BA_SET, piece)
    assert alg.carrier == FinSet(3)
    # the initial state is the atom whose language contains the empty word
    atom_langs = [piece.labels[1 << i] for i in range(3)]
    assert atom_langs[alg.init].dfa.accepts_word("")
    # transition structure is isomorphic to the minimal DFA with finals
    # forgotten (as unpointed automata)
    min_dfa = lang("(ab)*").dfa
    perms = [
        p
        for p in __import__("itertools").permutations(range(3))
        if all(
            p[alg.alpha[ai].graph[s]] == min_dfa.delta[p[s]][ai]
            for s in range(3)
            for ai in range(2)
        )
    ]
    assert perms


def test_dual_round_trip_is_identity_on_pieces():
    for tag, dtag in [
        (VarietyTag.BA, DualityTag.BA_SET),
        (VarietyTag.DL01, DualityTag.DL01_POS),
        (VarietyTag.JSL0, DualityTag.JSL_SELF),
        (VarietyTag.Z2VECT, DualityTag.Z2_SELF),
    ]:
        piece = rqc_closure(tag, [lang("(ab)*")])
        back = dalgebra_to_coalgebra(dtag, coalgebra_to_dalgebra(dtag, piece))
        assert back.carrier == piece.carrier
        assert back.out.graph == piece.out.graph
        assert all(b.graph == g.graph for b, g in zip(back.gamma, piece.gamma))
        assert back.labels == piece.labels


def test_dalgebra_to_coalgebra_powerset_of_min_dfa():
    piece = rqc_closure(VarietyTag.BA, [lang("(ab)*")])
    alg = coalgebra_to_dalgebra(DualityTag.BA_SET, piece)
    again = dalgebra_to_coalgebra(DualityTag.BA_SET, alg)
    assert again.size == 1 << alg.size


def test_state_language_of_sink():
    piece = generate_subcoalgebra(VarietyTag.BA, [lang("(ab)*")])
    empty_state = piece.labels.index(empty_language(AB))
    assert state_language(piece, empty_state) == empty_language(AB)


def test_dual_morphisms_validate():
    piece = rqc_closure(VarietyTag.JSL0, [lang("(ab)*")])
    alg = coalgebra_to_dalgebra(DualityTag.JSL_SELF, piece)
    assert all(validate_morphism(m) for m in alg.alpha)
