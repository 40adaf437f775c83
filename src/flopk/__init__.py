"""Exact-arithmetic K-theory and Schubert calculus for Grassmannian flops.

The package computes, over the integers and rationals with no floating
point anywhere:

* partitions in a box and Littlewood-Richardson coefficients,
* the rational Chow ring of G(t,h) in the Schubert basis and the Chern
  character of Schur powers of the tautological subbundle,
* the Grothendieck lattice K(G) in the Schur-power basis, expansion of
  tautological classes, and the flop correspondence matrix with its
  unimodularity (Smith form) certificates,
* the main-component correspondence on the cotangent space of the
  projective plane, whose image has index 2,
* Borel-Weil-Bott cohomology of homogeneous bundles and Hodge numbers,
* the coordinate model of the flop for G(2,4) (limit map, Pluecker
  quadric, determinantal singularity model),
* reduced-word and chamber combinatorics of the symmetric group.
"""

from .partitions import (
    BoxShape,
    Partition,
    enumerate_box,
    lr_coefficients,
    partitions_of,
)
from .kgroup import (
    IntegerMatrix,
    KVector,
    TautClass,
    dual_class,
    expand_in_basis,
    flop_certificate,
    flop_matrix,
    line_bundle,
    line_bundle_class,
    schur_quot,
    schur_sub,
    schur_sub_dual,
    smith_normal_form,
    wedge_tangent,
)
from .main_component import (
    image_index,
    koszul_ideal_class,
    line_basis_matrix,
    main_component_matrix,
)
from .bott import (
    BottResult,
    Weight,
    bott_cohomology,
    exterior_cotangent_decomposition,
    gaussian_binomial,
    hodge_numbers,
    line_bundle_weight,
    serre_dual_weight,
)
from .flopgeom import (
    determinantal_membership,
    is_indeterminate,
    pluecker_limit_map,
    quadric_value,
    quadric_vanishes_identically,
    springer_fiber,
)
from .weyl import (
    Permutation,
    RegularityViolation,
    adjacent_word,
    apply_word,
    chamber_sort,
    duality_permutation,
    duality_word,
    word_permutation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
