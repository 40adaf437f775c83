"""Exact-arithmetic K-theory and Schubert calculus for Grassmannian flops.

The package computes, over the integers and rationals with no floating
point anywhere:

* partitions in a box and Littlewood-Richardson coefficients
  (``partitions``),
* the rational Chow ring of G(t,h) in the Schubert basis and the Chern
  character of tautological classes, the rational oracle of the integer
  routes (``chow``),
* the Grothendieck lattice K(G) in the Schur-power basis, expansion of
  tautological classes, and the flop correspondence matrix as a checked
  integer matrix with Bareiss determinants and Smith forms (``kgroup``),
* the flop engine: the rows of the flop matrix as the t-th compound of
  one h x h matrix over Z[x]/(x - 1)^h, and its unimodularity (Smith
  form) certificate from an h x h involution (``flop``),
* the main-component correspondence on the cotangent space of the
  projective plane, whose image has index 2 (``main_component``),
* Borel-Weil-Bott cohomology of homogeneous bundles and Hodge numbers
  (``bott``),
* the coordinate model of the flop for G(2,4) (limit map, Pluecker
  quadric, determinantal singularity model) (``flopgeom``),
* reduced-word and chamber combinatorics of the symmetric group
  (``weyl``).

Every name lives in its module, e.g. ``from flopk.kgroup import
flop_matrix``.  Importing the package loads none of them: each caller
imports the modules it uses, so a process loads only the code it runs.
"""
