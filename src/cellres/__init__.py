"""Cellular resolutions of Artinian monomial ideals and their residue
currents, in exact rational arithmetic."""

from .errors import CellresError, InputError, PreconditionError
from .monomial import (
    MonomialIdeal,
    contains,
    equals_ideal,
    first_difference,
    ideal_from_json,
    irreducible_intersection,
    is_artinian,
    is_generic,
    lcm,
    lcm_lattice,
    minimize,
    multiplicity,
    pure_power_exponents,
    staircase_corners_2d,
)
from .cellcomplex import (
    Face,
    LabeledCellComplex,
    cofaces,
    complex_from_json,
    complex_to_json,
    contained_faces,
    is_refinement,
    make_complex,
    reoriented,
    sign_facet,
    sign_same_span,
    subcomplex_leq,
)
from .hull import (
    corner_simplex_complex,
    default_lift_base,
    delta_complex,
    embed_in_simplex,
    hull_complex,
    scarf_complex,
    taylor_complex,
)
from .resolution import (
    FreeComplex,
    SignedMonomial,
    cellular_complex,
    exactness_witness,
    is_exact,
    is_minimal,
    minimality_witness,
    reduced_homology_ranks,
)
from .residue import (
    CHProduct,
    ChainMap,
    ResidueCurrent,
    annihilator_contains,
    ch_action,
    chain_maps,
    ch_product,
    duality_check,
    duality_counterexample,
    monomial_times_ch,
    residue_current,
    residue_via_chain_maps,
    verify_chain_maps,
)
from .cycle import (
    FormMatrix,
    FormMonomial,
    Rectangle2D,
    compose,
    cycle_constant,
    differentiate,
    form_term,
    fundamental_cycle_check,
    partial_only,
    permutation_cycle_check,
    staircase_partition_2d,
)

__version__ = "0.1.0"
