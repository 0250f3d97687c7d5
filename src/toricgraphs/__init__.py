"""Toric ideals of graphs: exact Groebner bases, linear quotients, graded
Betti numbers, and Hilbert series, with independent brute-force oracles."""

from .errors import BudgetError, ConsistencyError, DomainError, ParseError
from .graphs import Edge, FamilyTag, SimpleGraph, build_grd, build_k2d, parse_graph, serialize_graph
from .grobner import (
    Binomial,
    GrevlexOrder,
    Monomial,
    MonomialIdeal,
    buchberger,
    default_order,
    initial_ideal,
    reduce,
    reduced_basis,
    s_binomial,
)
from .invariants import (
    FamilyInvariants,
    HilbertSeries,
    betti_formula_grd,
    betti_formula_k2d,
    family_invariants,
    hilbert_enumeration_oracle,
    hilbert_formula_grd,
    hilbert_from_betti,
    krull_dim,
    lower_bounds_from_induced,
    minimal_generators_oracle,
    reg_pdim,
)
from .quotients import (
    BettiTable,
    QuotientProfile,
    betti_from_linear_quotients,
    betti_taylor_oracle,
    colon_with_monomial,
    quotient_profile,
)
from .walks import (
    ClosedEvenWalk,
    enumerate_primitive_walks,
    is_primitive,
    minimal_closed_even_walks,
    walk_to_binomial,
)

__version__ = "0.1.0"
