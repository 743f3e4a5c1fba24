"""Finite orthomodular lattices as quantum-logic event structures.

Exact-rational states, conditional states, s-maps, their conversions, the
asymmetric independence relation, and finite observables with joint
distributions and conditional expectations.

Importing the package loads none of its modules: each name in ``__all__``
is read from its module, imported on first use (PEP 562), so a command
compiles only the code it runs.
"""

# module -> the names it exports through the package
_EXPORTS = {
    "lattice": "BooleanSubalgebra OrthomodularLattice build_lattice",
    "states": "ConditionalState State build_conditional_state is_independent "
              "validate_conditional_state validate_state",
    "smap": "SMap conditional_to_smap is_independent_product nu_state "
            "scan_asymmetric_pairs smap_to_conditional validate_smap",
    "observables": "JointDistribution Observable conditional_expectation "
                   "distribution_function expectation joint_distribution make_observable",
    "catalog": "build_catalog random_conditional_state random_smap random_state raw_structure",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
