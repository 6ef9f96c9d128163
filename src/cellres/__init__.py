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
        "MonomialIdeal", "Rectangle2D", "contains", "equals_ideal",
        "first_difference", "ideal_from_json", "irreducible_intersection",
        "is_artinian", "is_generic", "lcm", "lcm_lattice", "minimize",
        "multiplicity", "pure_power_exponents", "staircase_corners_2d",
        "staircase_partition_2d",
    ),
    "cellcomplex": (
        "Face", "LabeledCellComplex", "complex_from_json", "complex_to_json",
        "contained_faces", "homogeneous", "is_refinement", "make_complex", "reoriented",
        "sign_facet", "sign_same_span",
    ),
    "hull": (
        "corner_simplex_complex", "default_lift_base", "delta_complex",
        "embed_in_simplex", "hull_complex", "scarf_complex", "taylor_complex",
    ),
    "resolution": (
        "FreeComplex", "SignedMonomial", "cellular_complex", "exactness_witness",
        "is_exact", "is_minimal", "minimality_witness", "reduced_homology_ranks",
    ),
    "residue": (
        "CHProduct", "ChainMap", "ResidueCurrent", "annihilator_contains",
        "chain_maps", "ch_product", "duality_check", "duality_counterexample",
        "monomial_times_ch", "residue_current", "residue_via_chain_maps",
        "verify_chain_maps",
    ),
    "cycle": (
        "FormMatrix", "FormMonomial", "compose", "cycle_constant",
        "differentiate", "form_term", "fundamental_cycle_check", "partial_only",
        "permutation_cycle_check",
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
