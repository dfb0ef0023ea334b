"""Exact computations with augmented directed complexes, the
omega-categories they present, orientals and their nerve, slices, and the
explicit comparison maps between simplex, cylinder and wedge shapes."""

from .chains import (
    AdcMorphism,
    Chain,
    DirComplex,
    ValidationReport,
    check_morphism,
    identity_morphism,
    pos_neg_decompose,
    strong_loopfree_order,
    strong_preorder_is_total,
    validate_complex,
)
from .cells import (
    CellEnumeration,
    CellTableau,
    atom_cell,
    compose,
    enumerate_cells,
    identity,
    is_identity_cell,
    is_loopfree,
    is_unitary,
    lambda_of_nu,
    map_cell,
    object_cell,
    source,
    source_iter,
    target,
    target_iter,
)
from .simplex import (
    MonotoneMap,
    all_monotone_maps,
    c_delta,
    c_of_map,
    face_map,
    degeneracy_map,
    identity_map,
    join_maps,
    initial_inclusion,
    final_inclusion,
    vertex_map,
)
from .slices import (
    OplaxTransformation,
    SliceCell,
    cylinder_cell,
    cylinder_fold,
    enumerate_slice_cells,
    identity_oplax,
    oplax_component,
    slice_compose,
    slice_functor,
    slice_identity,
    vertical_compose,
)
from .tensor import (
    Pushout,
    pushout_complex,
    rigid_mono_check,
    tensor_complex,
    tensor_morphism,
)
from .nerves import (
    SimplicialSetTrunc,
    bisimplicial_comparison,
    decalage_homotopy,
    hom_enumerate,
    nerve,
    over_slice,
    under_slice,
)
from .retract import (
    SuiteReport,
    cylinder_attachment,
    cylinder_to_cone,
    from_slice_pair,
    partial_wedge_projection,
    slice_retract_data,
    to_slice_pair,
    verify_suite,
    wedge_projection,
    wedge_projection_endo,
)

__version__ = "0.1.0"
