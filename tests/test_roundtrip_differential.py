"""The round trip paired by the dual of the evaluation isomorphism against
the label-based oracle.

`_roundtrip_witness` dualizes the monoid once and, on the piece's own
monoid, pairs the returned states with the piece's by the dual of the
evaluation e(f) = f(init) and of its inverse; against another monoid it
pairs them by one refinement.  Only a refusal compares label sets, to name
what went wrong.  `labelled_roundtrip_witness` labels every returned
state and matches by labels, as the library did before.  Both must return
the same forward and backward graphs, or raise the same class with the same
message and counterexample.  A refusal dualizes the monoid once, and
validates it once unless piece_to_monoid marked it lawful.

The dual of a generated algebra is observable, so `monoid_to_piece` returns
pairwise distinct state languages; the corpus and the families check that.

The corpus: 200 seeded generator sets of one or two regexes of at most 5 DFA
states, closed at a 64-element cap under all four dualities, and the four BA
and DL families of 209 to 1,024 states that the benchmark's boolean-labels
workload runs.  The refusals: a seeded sample of the corpus pieces, each
against the monoid of another piece of the same size and of a piece of
another size (same duality, other languages), and against its own monoid
with a corrupted table.
"""

import random
from dataclasses import replace

import pytest

import langdual.correspondence
from langdual.automata import joint_quotient, label_set, rqc_closure
from langdual.config import Limits
from langdual.correspondence import _roundtrip_witness, monoid_to_piece, piece_to_monoid
from langdual.duality import DualityTag, c_tag
from langdual.errors import CorrespondenceError, ResourceExceededError
from langdual.languages import compile_text
from helpers import random_generators, renamed_states
from oracles import labelled_roundtrip_witness, match_states

AB = ("a", "b")
SMALL = Limits(max_carrier=64)
GENERATOR_SETS = 200
REFUSAL_SAMPLE = 160  # corpus pieces, each against two foreign monoids and a corrupted one

FAMILIES = [
    (DualityTag.BA_SET, "(aaaa)*b", 1024),
    (DualityTag.BA_SET, "(ab)*b", 512),
    (DualityTag.DL01_POS, "(aa|b)*ab", 209),
    (DualityTag.DL01_POS, "(aaaa)*b", 385),
]


def _outcome(certify, d, piece, monoid, limits):
    """The witness graphs, or the refusal's class, message and counterexample."""
    try:
        witness = certify(d, piece, monoid, limits)
    except Exception as err:  # the refusals are compared, whatever they are
        return ("raise", type(err), str(err), getattr(err, "counterexample", None))
    return ("ok", witness.forward.graph, witness.backward.graph)


def _same(d, piece, monoid, limits=SMALL):
    ours = _outcome(_roundtrip_witness, d, piece, monoid, limits)
    assert ours == _outcome(labelled_roundtrip_witness, d, piece, monoid, limits)
    return ours


def seeded_corpus():
    """(duality, piece, monoid) for every closure of the seeded generator
    sets that fits the cap."""
    rng = random.Random(2026)
    out = []
    for _ in range(GENERATOR_SETS):
        gens = random_generators(rng, AB, max_states=5)
        for d in DualityTag:
            try:
                piece = rqc_closure(c_tag(d), gens, SMALL)
            except ResourceExceededError:
                continue
            out.append((d, piece, piece_to_monoid(d, piece, SMALL)))
    return out


@pytest.fixture(scope="module")
def corpus():
    return seeded_corpus()


@pytest.fixture(scope="module")
def language_set_ids(corpus):
    """One index per distinct label set of the corpus, so that pieces are
    compared by index and each label set is hashed once."""
    ids: dict = {}
    return [ids.setdefault(label_set(piece), len(ids)) for _, piece, _ in corpus]


def test_matched_round_trip_equals_the_labelled_one_on_the_corpus(corpus):
    assert len(corpus) >= 3 * GENERATOR_SETS
    assert {d for d, _, _ in corpus} == set(DualityTag)
    for d, piece, monoid in corpus:
        outcome = _same(d, piece, monoid)
        assert outcome[0] == "ok"
        assert sorted(outcome[1]) == list(range(piece.size))


def test_match_states_pairs_the_states_of_equal_languages(corpus, language_set_ids):
    rng = random.Random(5)
    for i, (d, piece, _) in enumerate(corpus[:100]):
        assert match_states(piece, piece) == tuple(range(piece.size))
        perm = list(range(piece.size))
        rng.shuffle(perm)
        assert match_states(piece, renamed_states(piece, perm)) == tuple(perm)
        others = [
            p
            for j, (e, p, _) in enumerate(corpus)
            if e is d and p.size == piece.size and language_set_ids[j] != language_set_ids[i]
        ]
        if others:
            assert match_states(piece, others[0]) is None
        bigger = [p for e, p, _ in corpus if e is d and p.size > piece.size]
        if bigger:
            assert match_states(piece, bigger[0]) is None


@pytest.mark.parametrize("d, text, size", FAMILIES, ids=[f"{d.name}-{text}" for d, text, _ in FAMILIES])
def test_matched_round_trip_equals_the_labelled_one_on_boolean_families(d, text, size):
    piece = rqc_closure(c_tag(d), [compile_text(text, AB)])
    assert piece.size == size
    outcome = _same(d, piece, piece_to_monoid(d, piece), Limits())
    assert outcome[0] == "ok"


def test_refusals_equal_the_labelled_ones(corpus, language_set_ids):
    rng = random.Random(7)
    kinds = {"same size": 0, "other size": 0, "corrupted": 0}
    for i in rng.sample(range(len(corpus)), REFUSAL_SAMPLE):
        d, piece, monoid = corpus[i]
        others = [
            (p, m) for j, (e, p, m) in enumerate(corpus) if e is d and language_set_ids[j] != language_set_ids[i]
        ]
        same = [m for p, m in others if p.size == piece.size]
        other = [m for p, m in others if p.size != piece.size]
        for kind, pool in (("same size", same), ("other size", other)):
            if pool:
                outcome = _same(d, piece, rng.choice(pool))
                assert outcome[0] == "raise"
                kinds[kind] += 1
        if monoid.size > 1:
            # the unit's row no longer fixes every element
            row = list(monoid.mult[monoid.unit])
            x = rng.randrange(monoid.size)
            row[x] = (row[x] + 1) % monoid.size
            mult = monoid.mult[: monoid.unit] + (tuple(row),) + monoid.mult[monoid.unit + 1 :]
            outcome = _same(d, piece, replace(monoid, mult=mult))
            assert outcome[:3] == ("raise", ValueError, "input is not a valid alphabet-generated monoid")
            kinds["corrupted"] += 1
    assert min(kinds.values()) >= REFUSAL_SAMPLE // 2, kinds


def _distinct_state_languages(d, monoid, limits):
    quotient, (blocks,) = joint_quotient(monoid_to_piece(d, monoid, limits))
    return quotient.n_states == len(blocks)


def test_the_dual_of_a_generated_monoid_has_distinct_state_languages(corpus):
    for d, _, monoid in corpus:
        assert _distinct_state_languages(d, monoid, SMALL)


@pytest.mark.parametrize("d, text, size", FAMILIES, ids=[f"{d.name}-{text}" for d, text, _ in FAMILIES])
def test_the_duals_of_the_family_monoids_have_distinct_state_languages(d, text, size):
    piece = rqc_closure(c_tag(d), [compile_text(text, AB)])
    assert piece.size == size
    assert _distinct_state_languages(d, piece_to_monoid(d, piece), Limits())


def test_a_refused_round_trip_dualizes_once_and_validates_only_an_unmarked_monoid(
    corpus, language_set_ids, monkeypatch
):
    """A monoid that piece_to_monoid marked lawful is dualized without being
    validated; its unmarked copy is validated once, with the same refusal."""
    calls = {"validate_monoid": 0, "dalgebra_to_coalgebra": 0}
    for name in calls:
        original = getattr(langdual.correspondence, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(langdual.correspondence, name, counted)
    refused = 0
    for i, (d, piece, _) in enumerate(corpus[:200]):
        same = [
            m
            for j, (e, p, m) in enumerate(corpus)
            if e is d and p.size == piece.size and language_set_ids[j] != language_set_ids[i]
        ]
        if not same:
            continue
        assert same[0].lawful
        refusals = []
        for monoid, validations in ((same[0], 0), (replace(same[0]), 1)):
            calls.update(dict.fromkeys(calls, 0))
            with pytest.raises(CorrespondenceError, match=r"^round trip changed the language set$") as err:
                _roundtrip_witness(d, piece, monoid, SMALL)
            assert calls == {"validate_monoid": validations, "dalgebra_to_coalgebra": 1}
            refusals.append(err.value.counterexample)
        assert refusals[0] == refusals[1]
        refused += 1
    assert refused >= 50
