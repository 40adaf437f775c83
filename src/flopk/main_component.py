"""The main-component correspondence on the cotangent space of the plane.

For t=1, h=3 the fiber product of the two Springer resolutions over the
nilpotent variety breaks into two irreducible components.  The full
correspondence is a lattice isomorphism, but the main component alone
(the one dominating both sides) is not: its matrix sends the three line
bundle generators to [O(1)], [O] and the class of the twisted ideal
sheaf of the zero section, and the image lattice has index 2.

The twisted ideal-sheaf class comes from the Koszul resolution of the
zero section inside the cotangent space: an alternating sum of exterior
powers of the pulled-back tangent bundle, all twisted by O(-1).  The
construction is uniform in h, so ``koszul_ideal_class`` accepts any
h >= 2 although only h = 3 enters the index-2 computation.

Two presentation bases are available: the line-bundle basis
([O(1)], [O], [O(-1)]), in which the image vectors take their simplest
form, and the canonical basis of Schur powers of the subbundle.  The
change of basis is unimodular, so the image index is the same in both.
"""

from __future__ import annotations

from .kgroup import (
    IntegerMatrix,
    KVector,
    TautClass,
    expand_in_basis,
    line_bundle,
    schur_sub,
    wedge_tangent,
)
from .partitions import BoxShape, enumerate_box, require_ints


def koszul_ideal_class(h: int) -> KVector:
    """[I (x) O(-1)] for the ideal sheaf I of the zero section, on P^(h-1).

    Koszul: the zero section of the cotangent space is cut out by the
    tautological section of the pulled-back cotangent bundle, so the
    ideal sheaf resolves by exterior powers of the pulled-back tangent
    bundle; in K-theory the twisted class is the alternating sum
    sum_{i>=1} (-1)^(i+1) [wedge^i Tangent (x) O(-1)].
    """
    require_ints((h,), "h")
    if h < 2:
        raise ValueError(f"need h >= 2, got {h}")
    box = BoxShape.for_grassmannian(1, h)
    expr = TautClass()
    for i in range(1, h):
        expr = expr + (-1) ** (i + 1) * (wedge_tangent(i) * line_bundle(-1))
    return expand_in_basis(expr, box)


def line_basis_matrix(box: BoxShape) -> IntegerMatrix:
    """Columns are [O(1)], [O], [O(-1)], ... in canonical coordinates.

    For a projective space of K-rank n the twists run 1, 0, ..., 2-n;
    this is a unimodular change of basis (a twist of the standard one).
    """
    if box.rows != 1:
        raise ValueError("line-bundle bases only exist for projective spaces")
    cols = [expand_in_basis(line_bundle(k), box).coords for k in range(1, 1 - box.rank, -1)]
    mat = IntegerMatrix.from_columns(cols)
    if mat.det() not in (1, -1):
        raise AssertionError(f"line-bundle basis on {box} is not unimodular")
    return mat


def to_line_basis(v: KVector) -> tuple[int, ...]:
    """Coordinates of a K-class in the ([O(1)], [O], [O(-1)], ...) basis.

    On projective space the canonical basis is [Sym^j sub] = [O(-j)], so
    the line-bundle basis is the canonical one twisted by O(1), and these
    are the canonical coordinates of v (x) O(-1).
    """
    if v.box.rows != 1:
        raise ValueError("line-bundle bases only exist for projective spaces")
    expr = TautClass()
    for alpha, c in v.as_dict().items():
        expr = expr + c * schur_sub(alpha)
    return expand_in_basis(expr * line_bundle(-1), v.box).coords


def main_component_matrix(basis: str = "line") -> IntegerMatrix:
    """Matrix of the main-component correspondence for t=1, h=3.

    In the "line" presentation rows are the target basis
    ([O(1)], [O], [O(-1)]) and columns the images of the domain basis
    ([O+(-1)], [O+], [O+(1)]), which are [O(1)], [O] and the twisted
    ideal-sheaf class.  The "canonical" presentation has the images in
    canonical coordinates, composed with the (unimodular) change from
    the canonical domain basis to the domain generators.
    """
    box = BoxShape.for_grassmannian(1, 3)
    images = [
        expand_in_basis(line_bundle(1), box),
        expand_in_basis(line_bundle(0), box),
        koszul_ideal_class(3),
    ]
    if basis == "line":
        return IntegerMatrix.from_columns([to_line_basis(v) for v in images])
    if basis == "canonical":
        # the domain generators carry the opposite twists, so a canonical
        # basis class has the reversed line-basis coordinates in them
        b_domain_inv = IntegerMatrix.from_columns(
            [reversed(to_line_basis(KVector.basis_vector(box, alpha)))
             for alpha in enumerate_box(box)]
        )
        return IntegerMatrix.from_columns([v.coords for v in images]) @ b_domain_inv
    raise ValueError(f"unknown basis {basis!r}; use 'line' or 'canonical'")


def image_index(matrix: IntegerMatrix):
    """Index of the column lattice inside the ambient lattice.

    The absolute value of the determinant, or the string "infinite" when
    the matrix is singular (rank-deficient column lattice).
    """
    if matrix.rows != matrix.cols:
        raise ValueError("image index needs a square matrix")
    return abs(matrix.det()) or "infinite"
