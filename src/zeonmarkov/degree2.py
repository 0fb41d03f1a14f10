"""Degree-2 zeon calculus: pair vectors, the Mat embedding, and the
trace identities behind the ergodicity criterion.

A degree-2 vector X lives in Q^(n choose 2), indexed by lexicographic
pairs (i, j) with i < j. Its Mat embedding is the hollow symmetric n-by-n
matrix X-hat with X-hat[i, j] = x_ij off the diagonal. All identities in
this module are exact rational equalities, each side one integer sum over
D s^2 (D the lcm of x's denominators, s that of A's row scales) made a
``Fraction`` only when returned. The two sides go through independent
code paths, and any mismatch is a bug, not noise: a mass sums D x against
the row or column sums of ``_psi2_rows`` of s A, a sandwich trace reads
only the row sums and Gram entries of s A. The right action of A is the
left action of A*, so the right-hand diagonal correction, component sums
and trace identity are the left-hand ones of A*; the right action keeps
its own two routes (the compound and the component sums).

Conventions: the action of a matrix A on degree-2 vectors is by the
second zeon power, X * Psi2(A) on rows and Psi2(A) * X-dagger on columns;
u is the all-ones row vector and J = u-dagger u the all-ones matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Sequence

from .linalg import Matrix, Scalar, ScalarLike, _common_scale, _ratio, as_scalar
from .zeon import _psi2_rows, subset_basis, zeon_power


class DegreeTwoVector:
    """Element of Q^(n choose 2) over the lexicographic pair basis."""

    __slots__ = ("n", "coords")

    def __init__(self, n: int, coords: Sequence[ScalarLike]):
        basis = subset_basis(n, 2)
        coords = tuple(as_scalar(c) for c in coords)
        if len(coords) != len(basis):
            raise ValueError(
                f"need {len(basis)} coordinates for n={n}, got {len(coords)}"
            )
        self.n = n
        self.coords = coords

    @classmethod
    def from_row(cls, row: Matrix, n: int) -> "DegreeTwoVector":
        if row.rows != 1:
            raise ValueError("expected a 1-row matrix")
        return cls(n, row.data)

    @classmethod
    def from_column(cls, col: Matrix, n: int) -> "DegreeTwoVector":
        if col.cols != 1:
            raise ValueError("expected a 1-column matrix")
        return cls(n, col.data)

    def pairs(self) -> tuple:
        return subset_basis(self.n, 2).subsets

    def as_row(self) -> Matrix:
        return Matrix(1, len(self.coords), self.coords)

    def as_column(self) -> Matrix:
        return Matrix(len(self.coords), 1, self.coords)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def __add__(self, other: "DegreeTwoVector") -> "DegreeTwoVector":
        self._same_space(other)
        return DegreeTwoVector(self.n, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "DegreeTwoVector") -> "DegreeTwoVector":
        self._same_space(other)
        return DegreeTwoVector(self.n, [a - b for a, b in zip(self.coords, other.coords)])

    def __rmul__(self, scalar) -> "DegreeTwoVector":
        if isinstance(scalar, (int, Fraction)):
            return DegreeTwoVector(self.n, [scalar * c for c in self.coords])
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, DegreeTwoVector):
            return NotImplemented
        return self.n == other.n and all(a == b for a, b in zip(self.coords, other.coords))

    def __hash__(self) -> int:
        return hash((self.n, self.coords))

    def __repr__(self) -> str:
        return f"DegreeTwoVector(n={self.n}, {list(self.coords)})"

    def _same_space(self, other: "DegreeTwoVector") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: n={self.n} vs n={other.n}")


def mat_embed(x: DegreeTwoVector) -> Matrix:
    """Hollow symmetric matrix X-hat with X-hat[i, j] = x_ij for i < j."""
    n = x.n
    entries = [0] * (n * n)
    for (i, j), v in zip(x.pairs(), x.coords):
        entries[(i - 1) * n + (j - 1)] = v
        entries[(j - 1) * n + (i - 1)] = v
    return Matrix(n, n, entries)


def unmat(h: Matrix) -> DegreeTwoVector:
    """Inverse of mat_embed: read the strict upper triangle in pair order.

    Rejects matrices that are not hollow symmetric, where the embedding
    is not invertible.
    """
    if not h.is_square:
        raise ValueError("expected a square matrix")
    n = h.rows
    for i in range(n):
        if h[i, i] != 0:
            raise ValueError(f"matrix is not hollow: diagonal entry {i + 1} is {h[i, i]}")
        for j in range(i + 1, n):
            if h[i, j] != h[j, i]:
                raise ValueError(f"matrix is not symmetric at ({i + 1},{j + 1})")
    return DegreeTwoVector(n, [h[i - 1, j - 1] for i, j in subset_basis(n, 2).subsets])


def inner_product(x: DegreeTwoVector, y: DegreeTwoVector) -> Scalar:
    """Symmetric bilinear form 2 * sum_{i<j} x_ij y_ij = tr(X-hat Y-hat)."""
    x._same_space(y)
    return as_scalar(2 * sum(a * b for a, b in zip(x.coords, y.coords)))


def sum_against_u(x: DegreeTwoVector) -> Scalar:
    """Total mass X u-dagger = sum of coordinates (= 1/2 tr(X-hat J))."""
    return as_scalar(sum(x.coords))


def left_action(x: DegreeTwoVector, a: Matrix) -> DegreeTwoVector:
    """Row action X * Psi2(A), computed through the permanental compound."""
    _check_ground(x, a)
    return DegreeTwoVector.from_row(x.as_row() * zeon_power(a, 2), x.n)


def right_action(a: Matrix, x: DegreeTwoVector) -> DegreeTwoVector:
    """Column action Psi2(A) * X-dagger, through the permanental compound."""
    _check_ground(x, a)
    return DegreeTwoVector.from_column(zeon_power(a, 2) * x.as_column(), x.n)


def left_action_components(x: DegreeTwoVector, a: Matrix) -> DegreeTwoVector:
    """Row action by the raw component sums, bypassing the compound matrix:

        (X Psi2(A))_ij = sum_{l<m} x_lm (A_li A_mj + A_mi A_lj),  i < j.

    Independent of left_action; the two must agree exactly.
    """
    coords, rows, _, den = _integer_inputs(x, a)
    pairs = combinations(range(x.n), 2)
    return DegreeTwoVector(x.n, [_ratio(e, den) for e in _pair_sums(coords, rows, pairs)])


def right_action_components(a: Matrix, x: DegreeTwoVector) -> DegreeTwoVector:
    """Column action by raw component sums, the row formula for A*:

        (Psi2(A) X-dagger)_ij = sum_{l<m} x_lm (A_il A_jm + A_im A_jl).
    """
    return left_action_components(x, a.T)


def diag_correction_plus(a: Matrix, x: DegreeTwoVector) -> Matrix:
    """Diagonal matrix D+ with D+_ii = 2 sum_{l<m} x_lm A_li A_mi.

    Repairs the column sandwich: A* X-hat A - D+ = Mat(X Psi2(A)), and
    tr D+ = tr(A* X-hat A).
    """
    coords, rows, _, den = _integer_inputs(x, a)
    diagonal = _pair_sums(coords, rows, [(i, i) for i in range(x.n)])
    return Matrix.diagonal([_ratio(e, den) for e in diagonal])


def diag_correction_minus(a: Matrix, x: DegreeTwoVector) -> Matrix:
    """Diagonal matrix D- with D-_ii = 2 sum_{l<m} x_lm A_il A_im,
    repairing the row sandwich: A X-hat A* - D- = Mat(Psi2(A) X-dagger).
    It is D+ of the transpose, since the right action of A is the left
    action of A*."""
    return diag_correction_plus(a.T, x)


def trace_identity_left(x: DegreeTwoVector, a: Matrix) -> Scalar:
    """1/2 tr(X-hat A (J - I) A*); equals sum_against_u(left_action(x, a))."""
    coords, rows, _, den = _integer_inputs(x, a)
    outer, gram = _sandwich_sums(coords, rows)
    return _ratio(outer - gram, den)


def trace_identity_right(x: DegreeTwoVector, a: Matrix) -> Scalar:
    """1/2 tr(X-hat A* (J - I) A); equals sum_against_u(right_action(a, x)).
    It is the left identity's trace for the transpose A*."""
    return trace_identity_left(x, a.T)


def trace_identity_left_stochastic(x: DegreeTwoVector, a: Matrix) -> Scalar:
    """Shortcut valid for stochastic a: 1/2 tr(X-hat (J - A A*))."""
    coords, rows, s, den = _integer_inputs(x, a)
    return _ratio(s * s * sum(coords) - _sandwich_sums(coords, rows)[1], den)


def integration_by_parts(x: DegreeTwoVector, a: Matrix) -> tuple:
    """Both sides of the zeon integration-by-parts identity for stochastic a:

        X (I - Psi2(A)) u-dagger  =  1/2 tr(A* X-hat A).

    Returns (lhs, rhs); the two are exactly equal for every x, with no
    sign assumption on the coordinates. The left side goes through the
    permanental compound, the right side is the sandwich of the first
    general identity, which A J = J makes 1/2 tr(A* X-hat A).
    """
    coords, rows, s, den = _integer_inputs(x, a)
    if any(min(row) < 0 or sum(row) != s for row in rows):
        raise ValueError("integration by parts needs a stochastic matrix")
    return _mass(coords, rows, _psi2_rows(rows), s, den)


@dataclass(frozen=True)
class GeneralIdentityValues:
    """Both sides of the two general (non-stochastic) mass identities:

    first:   X (I - Psi2(A)) u-dagger = 1/2 tr(X-hat (J - A J A* + A A*))
    second:  u (I - Psi2(A)) X-dagger = 1/2 tr(X-hat (J - A* J A + A* A))
    """

    first_lhs: Scalar
    first_rhs: Scalar
    second_lhs: Scalar
    second_rhs: Scalar

    @property
    def holds(self) -> bool:
        return self.first_lhs == self.first_rhs and self.second_lhs == self.second_rhs


def general_bp_identities(x: DegreeTwoVector, a: Matrix) -> GeneralIdentityValues:
    """Evaluate each side of the two general identities by its own route.

    No stochasticity assumed; for stochastic a the first right-hand side
    collapses to 1/2 tr(A* X-hat A) since A J = J = J A*.
    """
    coords, rows, s, den = _integer_inputs(x, a)
    psi = _psi2_rows(rows)
    return GeneralIdentityValues(*_mass(coords, rows, psi, s, den),
                                 *_mass(coords, list(zip(*rows)), list(zip(*psi)), s, den))


def _mass(coords: Sequence[int], rows: Sequence[Sequence[int]], psi: Sequence[Sequence[int]],
          s: int, den: int) -> tuple:
    """(lhs, rhs) of the first identity from rows = s A and psi = Psi2(s A):
    the compound's mass against sum_{i<j} x_ij (1 - r_i r_j + A_i . A_j),
    r = A u-dagger. From A's columns and psi's it is the second identity."""
    outer, gram = _sandwich_sums(coords, rows)
    lhs = sum(v * (s * s - sum(row)) for v, row in zip(coords, psi) if v)
    return _ratio(lhs, den), _ratio(s * s * sum(coords) - outer + gram, den)


def _integer_inputs(x: DegreeTwoVector, a: Matrix) -> tuple:
    """X = D x and s A as integers, D the lcm of x's denominators and s that
    of A's row scales; then s, and the denominator D s^2 of every side."""
    _check_ground(x, a)
    rows, s = _common_scale(*a.integer_rows())
    d = math.lcm(*(c.denominator for c in x.coords))
    return [c.numerator * (d // c.denominator) for c in x.coords], rows, s, d * s * s


def _sandwich_sums(coords: Sequence[int], rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """1/2 tr(X-hat A J A*) and 1/2 tr(X-hat A A*) times D s^2, as
    sum_{i<j} X_ij r_i r_j and sum_{i<j} X_ij N_i . N_j over rows N = s A
    with sums r: no compound is built."""
    sums = [sum(row) for row in rows]
    outer = gram = 0
    for (i, j), v in zip(combinations(range(len(rows)), 2), coords):
        if v:
            outer += v * sums[i] * sums[j]
            gram += v * sum(map(mul, rows[i], rows[j]))
    return outer, gram


def _pair_sums(coords: Sequence[int], rows: Sequence[Sequence[int]], targets) -> list:
    """sum_{l<m} X_lm (N_l[i] N_m[j] + N_m[i] N_l[j]) over rows N for each
    0-based (i, j) in ``targets``: a component of the row action, or for
    i = j a diagonal correction."""
    terms = [(rows[l], rows[m], v) for (l, m), v in zip(combinations(range(len(rows)), 2), coords) if v]
    return [sum(v * (nl[i] * nm[j] + nm[i] * nl[j]) for nl, nm, v in terms) for i, j in targets]


def _check_ground(x: DegreeTwoVector, a: Matrix) -> None:
    if not a.is_square or a.rows != x.n:
        raise ValueError(
            f"matrix must be {x.n}x{x.n} to act on a degree-2 vector with n={x.n}"
        )
