"""Exact linear algebra over the rationals, on one fraction-free integer kernel.

Vectors are tuples of Fractions (or ints), matrices are lists/tuples of such
rows.  All elimination goes through ``echelon``: a fraction-free
Gauss-Jordan (Bareiss, *Math. Comp.* 22, 1968) on integer rows, whose
entries stay integer minors of the input, so no Fraction is built inside the
loop.  ``rref``, ``rank``, ``null_space``, ``solve``, ``invert`` and
``determinant`` scale their rows to primitive integer vectors, call it, and
divide by its common pivot only where a rational result leaves the module;
``null_space`` returns primitive integer vectors and divides by nothing.
The double descriptions in ``polyhedra`` take primitive integer rows and
hand primitive integer rows on to the next one, so ``scale_to_int`` runs
once where a rational row enters, and one ``echelon`` of a cone's transposed
rows next to an identity gives its DD basis, whether it is pointed and the
basis inverse.
Fractions remain in ``dot`` and the vector helpers, which callers use to
write the ``Fraction`` H-reps of affine images, transforms and cells,
outside the hot loops.  The loops over rational points themselves run on
integers too: ``HRep.satisfies``, ``PWAConvex.eval``, the projection loop
behind ``polyhedra.nearest_point`` (which ``hausdorff_distance`` calls once
per vertex) and ``moreau_eval``, ``ConeBound.holds_for`` and ``cone_bound``
scale a point to one homogeneous integer vector (``polyhedra._int_point``)
or read the integer generators of a double description, test them against
primitive integer rows and compare values by cross-multiplication, and
build a ``Fraction`` only for the value they return.  The affine images
(``polyhedra._affine_image``) map integer generators and rows by integer
matrices.  Sizes are tiny (d <= 7), so no attempt is made at asymptotic
cleverness.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vec = tuple[Fraction, ...]


def dot(a: Sequence, b: Sequence) -> Fraction:
    return sum(x * y for x, y in zip(a, b, strict=True))


def vec_add(a: Sequence, b: Sequence) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Sequence, b: Sequence) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_scale(c, a: Sequence) -> Vec:
    return tuple(c * x for x in a)


def scale_to_int(vec: Sequence) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (same direction)."""
    if all(type(x) is int for x in vec):
        ints = vec
    else:
        fracs = [x if isinstance(x, Fraction) else Fraction(x) for x in vec]
        denom_lcm = lcm(*(f.denominator for f in fracs))
        ints = [f.numerator * (denom_lcm // f.denominator) for f in fracs]
    g = gcd(*ints)
    if g == 0:
        return tuple(0 for _ in ints)
    return tuple(v // g for v in ints)


def echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows.

    Returns ``(rows, pivots, D)``: the nonzero rows of the reduced form,
    their pivot columns, and a common nonzero pivot ``D`` such that each row
    is ``D`` times the matching row of the reduced row echelon form.  Each
    step replaces every other row by ``(p * row - row[c] * pivot_row) // q``,
    with ``p`` the new pivot and ``q`` the previous one (1 at first); the
    division is exact because every entry is a minor of the input (Bareiss).
    ``D`` is the last pivot times the sign of the row swaps, so for a square
    nonsingular input it is the determinant.  An input of rank 0 gives
    ``D = 1``.
    """
    mat = [list(r) for r in rows]
    m = len(mat)
    pivots: list[int] = []
    prev = 1
    sign = 1
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        p = next((i for i in range(r, m) if mat[i][c]), None)
        if p is None:
            continue
        if p != r:
            mat[r], mat[p] = mat[p], mat[r]
            sign = -sign
        prow = mat[r]
        pv = prow[c]
        for i in range(m):
            if i != r:
                f = mat[i][c]
                mat[i] = [(pv * x - f * y) // prev for x, y in zip(mat[i], prow)]
        pivots.append(c)
        prev = pv
        r += 1
        if r == m:
            break
    if sign < 0:
        mat = [[-x for x in row] for row in mat]
    return mat[:r], pivots, sign * prev


def rref(rows: Sequence[Sequence]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    red, pivots, d = echelon([scale_to_int(r) for r in rows])
    return [tuple(Fraction(x, d) for x in row) for row in red], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(echelon([scale_to_int(r) for r in rows])[1])


def null_space(rows: Sequence[Sequence], ncols: int) -> list[tuple[int, ...]]:
    """Basis of {x : rows @ x = 0} as primitive integer vectors.

    One vector per free column: positive in that column, zero in the other
    free columns.
    """
    red, pivots, d = echelon([scale_to_int(r) for r in rows])
    s = 1 if d > 0 else -1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = abs(d)
        for row, pc in zip(red, pivots):
            v[pc] = -s * row[fc]
        basis.append(scale_to_int(v))
    return basis


def solve(a_rows: Sequence[Sequence], b: Sequence) -> Vec | None:
    """Unique solution of A x = b, or None if inconsistent/underdetermined."""
    n = len(a_rows[0]) if a_rows else 0
    aug = [list(row) + [bv] for row, bv in zip(a_rows, b, strict=True)]
    red, pivots = rref(aug)
    if n in pivots:  # pivot in the constant column
        return None
    if len(pivots) < n:
        return None
    x = [Fraction(0)] * n
    for i, pc in enumerate(pivots):
        x[pc] = red[i][n]
    return tuple(x)


def invert(mat: Sequence[Sequence]) -> list[Vec] | None:
    """Inverse of a square matrix, or None if singular."""
    n = len(mat)
    aug = [scale_to_int(list(row) + [int(i == j) for j in range(n)])
           for i, row in enumerate(mat)]
    red, pivots, d = echelon(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [tuple(Fraction(x, d) for x in row[n:]) for row in red]


def determinant(mat: Sequence[Sequence]) -> Fraction:
    rows = [scale_to_int(r) for r in mat]
    _, pivots, det = echelon(rows)
    if len(pivots) < len(rows):
        return Fraction(0)
    det = Fraction(det)
    for row, irow in zip(mat, rows):  # undo the scaling of each row
        k = next(j for j, x in enumerate(irow) if x)
        det *= Fraction(row[k]) / irow[k]
    return det
