"""Finite conditions, their amalgamations, and the topologies they induce.

The package miniaturizes a transfinite construction to a finite carrier:
pair functions and good pairs (:mod:`scatterlab.universe`), the poset of
finite conditions with its extension lemmas (:mod:`scatterlab.poset`), twin
detection and amalgamation (:mod:`scatterlab.amalgam`), filter sampling and
the assembled right-separated space (:mod:`scatterlab.generic`), seeded
generators (:mod:`scatterlab.sampling`), property suites
(:mod:`scatterlab.suites`) and a CLI (:mod:`scatterlab.cli`).
"""

from .amalgam import (
    InsertionLayout,
    TwinWitness,
    amalgamate,
    are_good_twins,
    are_twins,
    delta_xi,
    insertion_construction,
    verify_membership_equiv,
)
from .generic import (
    FilterSample,
    FUCondition,
    NbhdGoal,
    PointGoal,
    SpaceModel,
    assemble_space,
    cantor_bendixson,
    check_loc_comp_hypothesis,
    check_star_containment,
    closure,
    compactness_by_subbase,
    fu_leq,
    fu_meet,
    fu_simulate,
    is_coherent,
    is_free_sequence,
    sample_filter,
)
from .poset import (
    Condition,
    RestrictedCondition,
    basic_nbhd,
    extend_into_neighbourhood,
    extend_with_point,
    leq,
    leq_restricted,
    precedes,
    restrict,
    star,
    validate_condition,
)
from .universe import (
    ClosureResult,
    PairFunction,
    pair_closure,
    random_pair_function,
    search_common_lower_bound,
)

__all__ = [
    "ClosureResult",
    "Condition",
    "FilterSample",
    "FUCondition",
    "InsertionLayout",
    "NbhdGoal",
    "PairFunction",
    "PointGoal",
    "RestrictedCondition",
    "SpaceModel",
    "TwinWitness",
    "amalgamate",
    "are_good_twins",
    "are_twins",
    "assemble_space",
    "basic_nbhd",
    "cantor_bendixson",
    "check_loc_comp_hypothesis",
    "check_star_containment",
    "closure",
    "compactness_by_subbase",
    "delta_xi",
    "extend_into_neighbourhood",
    "extend_with_point",
    "fu_leq",
    "fu_meet",
    "fu_simulate",
    "insertion_construction",
    "is_coherent",
    "is_free_sequence",
    "leq",
    "leq_restricted",
    "pair_closure",
    "precedes",
    "random_pair_function",
    "restrict",
    "sample_filter",
    "star",
    "validate_condition",
    "verify_membership_equiv",
]

__version__ = "0.1.0"
