"""Finite orthomodular lattices as quantum-logic event structures.

Exact-rational states, conditional states, s-maps, their conversions, the
asymmetric independence relation, and finite observables with joint
distributions and conditional expectations.
"""

from .lattice import BooleanSubalgebra, OrthomodularLattice, build_lattice
from .states import (
    ConditionalState,
    State,
    build_conditional_state,
    is_independent,
    validate_conditional_state,
    validate_state,
)
from .smap import (
    SMap,
    conditional_to_smap,
    is_independent_product,
    nu_state,
    scan_asymmetric_pairs,
    smap_to_conditional,
    validate_smap,
)
from .observables import (
    JointDistribution,
    Observable,
    conditional_expectation,
    distribution_function,
    expectation,
    joint_distribution,
    make_observable,
)
from .catalog import (
    build_catalog,
    random_conditional_state,
    random_smap,
    random_state,
    raw_structure,
)

__all__ = [
    "BooleanSubalgebra",
    "ConditionalState",
    "JointDistribution",
    "Observable",
    "OrthomodularLattice",
    "SMap",
    "State",
    "build_catalog",
    "build_conditional_state",
    "build_lattice",
    "conditional_expectation",
    "conditional_to_smap",
    "distribution_function",
    "expectation",
    "is_independent",
    "is_independent_product",
    "joint_distribution",
    "make_observable",
    "nu_state",
    "random_conditional_state",
    "random_smap",
    "random_state",
    "raw_structure",
    "scan_asymmetric_pairs",
    "smap_to_conditional",
    "validate_conditional_state",
    "validate_smap",
    "validate_state",
]

__version__ = "0.1.0"
