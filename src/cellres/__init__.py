"""Cellular resolutions of Artinian monomial ideals and their residue
currents, in exact integer arithmetic.

Public names other than the errors are imported on first use (PEP 562), so
``from cellres import multiplicity`` loads ``monomial`` and nothing else.
"""

from importlib import import_module

from .errors import CellresError, InputError, PreconditionError

__version__ = "0.1.0"

_EXPORTS = {
    "monomial": (
        "MonomialIdeal", "Rectangle2D", "contains", "first_difference",
        "ideal_from_json", "irreducible_intersection", "is_artinian", "is_generic",
        "lcm", "lcm_lattice", "minimize", "multiplicity", "pure_power_exponents",
        "staircase_corners_2d", "staircase_partition_2d",
    ),
    "cellcomplex": (
        "Face", "LabeledCellComplex", "complex_to_json", "homogeneous", "make_complex",
        "vertex_ideal",
    ),
    "simplex": (
        "carried_faces", "corner_simplex_complex", "refinement_failure", "reoriented",
    ),
    "complexfile": ("complex_from_json",),
    "hull": (
        "default_lift_base", "embedded_hull", "hull_complex", "scarf_complex",
        "taylor_complex",
    ),
    "resolution": (
        "FreeComplex", "cellular_complex", "exactness_witness",
        "minimality_witness", "reduced_homology_ranks",
    ),
    "residue": (
        "CHProduct", "ChainMap", "ResidueCurrent", "annihilator_contains",
        "chain_maps", "ch_product", "duality_counterexample",
        "residue_current", "verify_chain_maps",
    ),
    "cycle": (
        "cycle_constant", "fundamental_cycle_check", "permutation_cycle_check",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["CellresError", "InputError", "PreconditionError", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
