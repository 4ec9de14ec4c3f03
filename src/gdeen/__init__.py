"""Exact geodesic normal forms and Hecke algebra bases for G(de,e,n)."""

from .errors import (
    ArityMismatch,
    BadFormat,
    EnumerationTooLarge,
    GdeenError,
    InvariantViolation,
    NotInGroup,
    ParamsMismatch,
    RecursionGuardExceeded,
    UnknownSymbol,
)
from .group import (
    GroupElement,
    Params,
    element,
    element_from_json,
    element_to_json,
    identity,
    inverse,
    mul,
)
from .words import (
    S,
    Sym,
    T,
    Word,
    Z,
    alphabet,
    eval_word,
    generator,
    make_word,
    parse_word,
    relations,
    word_text,
)
from .normal_form import (
    NormalForm,
    all_elements,
    census_expected,
    length,
    max_length_census,
    normal_form,
)
from .polyring import Poly
from .hecke import (
    BasisIndex,
    HeckeElement,
    HeckeParams,
    apply_word,
    as_word,
    basis_element,
    basis_enumerate,
    d1n,
    een,
    hecke_mul,
    hecke_relations,
    leftmul_generator,
    pow_s2zs2,
    reduce_word,
    s2_zk_s2,
    specialize_to_group,
    unit,
)
from .verify import verify_geodesic, verify_hecke

__version__ = "0.1.0"
