"""Derivative-closed language algebras, finite dualities, and syntactic D-monoids.

The library computes, for regular languages over a finite alphabet, the
finite derivative-closed subalgebras of the automaton of all regular
languages in four settings (boolean algebras, bounded distributive lattices,
join-semilattices, Z2 vector spaces), dualizes them into finite
alphabet-generated monoids (plain, ordered, idempotent-semiring, and linear),
and verifies the correspondence between the two sides on concrete instances.
"""

from .automata import (
    CCoalgebra,
    DAlgebra,
    coalg_shift,
    coalgebra_to_dalgebra,
    dalgebra_to_coalgebra,
    generate_subcoalgebra,
    is_rqc_closed,
    label_set,
    reachable_part,
    rqc_closure,
    state_language,
)
from .config import DEFAULT_LIMITS, Limits
from .correspondence import (
    Correspondence,
    correspond,
    correspondence_report,
    monoid_roundtrip_check,
    monoid_to_piece,
    order_check,
    piece_join,
    piece_to_monoid,
    roundtrip_check,
)
from .duality import DualityTag, IsoWitness, double_dual, dual_morphism, dual_object
from .errors import (
    CorrespondenceError,
    LangdualError,
    NonFunctionalError,
    NotReachableError,
    NotRqcClosedError,
    RegexSyntaxError,
    ResourceExceededError,
    TagMismatchError,
    UnknownSymbolError,
)
from .languages import (
    Dfa,
    LanguageId,
    Regex,
    compile_regex,
    compile_text,
    language_to_regex,
    left_derivative,
    parse_regex,
    residuals,
    right_derivative,
    two_sided_residuals,
)
from .monoids import (
    FreeElement,
    SigmaMonoid,
    free_language,
    free_mult,
    free_unit,
    free_word,
    quotient_leq,
    sigma_monoid_iso,
    subdirect_product,
    transition_monoid,
    validate_monoid,
)
from .varieties import (
    BoolAlg,
    DistLat,
    FinAlgebra,
    FinMorphism,
    FinPoset,
    FinSet,
    JoinSemilattice,
    VarietyTag,
    VectZ2,
    free_on_one,
    present_subset,
    two_element_algebra,
    validate_morphism,
)

__version__ = "0.1.0"
