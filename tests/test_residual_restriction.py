"""Left derivatives and residuals read off the minimal DFA.

A LanguageId holds a minimal DFA numbered breadth-first, so the part of it
reachable from one state is again minimal, and numbering it breadth-first
from that state gives the canonical DFA of the state's language.  The
derivatives and residuals built that way are checked against one more
minimization (`oracles.minimized_left_derivative`, `refined_residuals`) on
a seeded corpus, every LanguageId the languages layer hands out is checked
to be canonical, and neither function may reach the refinement.  The DL01
dualization keeps its downset tables on the carriers it builds, which the
last tests count.
"""

import random

import pytest

import langdual.languages as languages
import langdual.varieties as varieties
from langdual.automata import rqc_closure
from langdual.cli import random_regex
from langdual.config import Limits
from langdual.correspondence import correspond
from langdual.duality import DualityTag, c_tag, dual_object
from langdual.errors import ResourceExceededError, UnknownSymbolError
from langdual.languages import (
    canonical_language,
    compile_regex,
    compile_text,
    left_derivative,
    residuals,
    right_derivative,
    two_sided_residuals,
)
from langdual.varieties import FinPoset
from oracles import minimized_left_derivative, refined_residuals, words_up_to

AB = ("a", "b")
ABC = ("a", "b", "c")


def _corpus():
    """(a|b)*a(a|b)^k for k <= 7, literals of 100 to 160 letters, and
    seeded random regexes over abc."""
    rng = random.Random(2020)
    langs = [compile_text("(a|b)*a" + "(a|b)" * k, AB) for k in range(8)]
    for alphabet in (AB, ABC):
        for _ in range(3):
            word = "".join(rng.choice(alphabet) for _ in range(rng.randint(100, 160)))
            langs.append(compile_text(word, alphabet))
    langs += [compile_regex(random_regex(rng, ABC, max_depth=5), ABC) for _ in range(60)]
    return langs


CORPUS = _corpus()


def test_the_corpus_reaches_large_and_varied_automata():
    sizes = [lang.n_states for lang in CORPUS]
    assert max(sizes) >= 256 and len(set(sizes)) >= 10


def test_left_derivatives_and_residuals_need_no_second_minimization():
    for lang in CORPUS:
        for word in words_up_to(lang.alphabet, 3):
            assert left_derivative(lang, word) == minimized_left_derivative(lang, word)
        assert residuals(lang) == refined_residuals(lang)


def test_a_derivative_by_an_unknown_symbol_is_refused():
    lang = compile_text("(ab)*", AB)
    for word in ("c", "ac", "abz"):
        with pytest.raises(UnknownSymbolError):
            left_derivative(lang, word)


def test_every_language_the_layer_returns_is_canonical():
    def canonical(lang):
        return canonical_language(lang.dfa) == lang

    limits, refused = Limits(max_carrier=256), 0
    for lang in CORPUS:
        assert canonical(lang)
        assert all(map(canonical, residuals(lang)))
        for word in words_up_to(lang.alphabet, 2):
            assert canonical(left_derivative(lang, word)) and canonical(right_derivative(lang, word))
        if lang.n_states > 12:
            continue
        families = [lambda: two_sided_residuals(lang, limits)]
        families += [lambda tag=c_tag(d): rqc_closure(tag, [lang], limits).labels for d in DualityTag]
        for family in families:
            try:
                assert all(map(canonical, family()))
            except ResourceExceededError:
                refused += 1
    assert refused < 60


def test_left_derivatives_and_residuals_run_no_refinement(monkeypatch):
    calls = {"refine_partition": 0, "canonical_language": 0}
    for name in calls:
        original = getattr(languages, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(languages, name, counted)
    for lang in CORPUS:
        residuals(lang)
        for word in words_up_to(lang.alphabet, 3):
            left_derivative(lang, word)
    assert calls == {"refine_partition": 0, "canonical_language": 0}

    # the counters see a right derivative's minimization
    right_derivative(CORPUS[0], "a")
    assert calls == {"refine_partition": 1, "canonical_language": 1}


@pytest.mark.parametrize("text", ["(ab|ba)*a", "(aaaa)*b"])
def test_a_dl_correspondence_counts_each_carriers_downsets_once(text, monkeypatch):
    calls = []
    original = varieties._downsets

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(varieties, "_downsets", counted)
    result = correspond(DualityTag.DL01_POS, [compile_text(text, AB)])
    assert len(calls) <= 4
    poset = result.monoid.carrier
    assert isinstance(poset, FinPoset)
    assert dual_object(DualityTag.DL01_POS, poset) is dual_object(DualityTag.DL01_POS, poset)
