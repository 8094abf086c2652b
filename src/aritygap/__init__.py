"""Analysis of finite functions given as dense tables: essential variables,
identification minors, quasi-arity, the arity gap, and gap classification."""

from .core import (
    ArityGapError,
    FiniteFunction,
    FunctionFormatError,
    GapUndefinedError,
    NoSuchSupportError,
    OracleInfeasibleError,
    UnsupportedArityError,
    UnsupportedCodomainError,
    UnsupportedDomainError,
    all_tuples,
    constant,
    from_function,
    index_to_tuple,
    parse,
    parse_stream,
    projection,
    render,
    render_line,
    tuple_to_index,
)
from .minors import (
    MinorMap,
    diagonal,
    identification_minor,
    simple_minor,
)
from .analysis import (
    EssentialityWitness,
    SupportExtension,
    essential_arity,
    essential_slots,
    essential_slots_on_diagonal,
    is_restriction_totally_symmetric,
    restrict_to_essential,
    support_extension,
)
from .gap import GapReport, UnarySupport, arity_gap, is_semiprojection, quasi_arity, unique_unary_support
from .oddsupp import (
    OddsuppProfile,
    is_determined_by_oddsupp,
    is_restriction_determined_by_oddsupp,
    oddsupp,
    oddsupp_mask,
    reachable_oddsupp_masks,
)
from .classify import (
    AnfPolynomial,
    Classification,
    anf,
    classify,
    classify_boolean,
    classify_pseudo_boolean,
    render_classification,
    ternary_pattern,
)
from .oracle import (
    SweepSpec,
    THEOREMS,
    VerificationReport,
    function_by_id,
    gen_oddsupp_determined,
    gen_quasi_m_ary,
    gen_salomaa,
    gen_semiprojection,
    gen_essentially_m_ary,
    gen_ternary_pattern,
    oracle_gap,
    oracle_quasi_arity,
    render_report,
    verify,
)

__version__ = "0.1.0"
