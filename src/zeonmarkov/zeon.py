"""Multi-index combinatorics, permanents, and permanental compounds.

The k-th zeon tensor power of an n-by-n matrix W is the C(n,k)-by-C(n,k)
matrix indexed by k-subsets of {1..n} whose (I, J) entry is the permanent
of the submatrix of W with rows I and columns J -- the permanental
analogue of the k-th exterior (determinant) compound. Generators of the
underlying algebra commute but square to zero, which is why permanents,
not determinants, appear.

Subsets are always strictly increasing tuples of 1-based indices, in
lexicographic order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, product
from typing import Iterator, Optional, Sequence

from .linalg import Matrix, Scalar, as_scalar


class SubsetBasis:
    """Lexicographically ordered k-subsets of {1..n} with rank/unrank."""

    __slots__ = ("n", "k", "subsets", "_ranks")

    def __init__(self, n: int, k: int):
        if not 1 <= k <= n:
            raise ValueError(f"degree k={k} out of range for ground set of size {n}")
        self.n = n
        self.k = k
        self.subsets = tuple(combinations(range(1, n + 1), k))
        self._ranks = {s: r for r, s in enumerate(self.subsets)}

    def __len__(self) -> int:
        return len(self.subsets)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.subsets)

    def rank(self, subset: Sequence[int]) -> int:
        try:
            return self._ranks[tuple(subset)]
        except KeyError:
            raise ValueError(f"{tuple(subset)} is not a sorted {self.k}-subset of 1..{self.n}") from None

    def unrank(self, r: int) -> tuple:
        if not 0 <= r < len(self.subsets):
            raise ValueError(f"rank {r} out of range 0..{len(self.subsets) - 1}")
        return self.subsets[r]


@lru_cache(maxsize=None)
def subset_basis(n: int, k: int) -> SubsetBasis:
    """Shared (cached) basis instance; SubsetBasis is immutable."""
    return SubsetBasis(n, k)


class FunctionMap:
    """A function f : {1..n} -> {1..n}, stored as the tuple of images."""

    __slots__ = ("n", "images")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        for i, v in enumerate(images):
            if not 1 <= v <= n:
                raise ValueError(f"image f({i + 1})={v} outside 1..{n}")
        self.n = n
        self.images = images

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionMap):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"FunctionMap({list(self.images)})"

    @classmethod
    def identity(cls, n: int) -> "FunctionMap":
        return cls(range(1, n + 1))

    @classmethod
    def constant(cls, n: int, target: int) -> "FunctionMap":
        return cls([target] * n)

    @property
    def is_permutation(self) -> bool:
        return len(set(self.images)) == self.n


def compose(f1: FunctionMap, f2: FunctionMap) -> FunctionMap:
    """Composition to the right: i (f1 f2) = f2(f1(i))."""
    if f1.n != f2.n:
        raise ValueError("cannot compose functions on different ground sets")
    return FunctionMap([f2(f1(i)) for i in range(1, f1.n + 1)])


def all_functions(n: int) -> Iterator[FunctionMap]:
    """All n^n self-maps of {1..n}, in lexicographic image order."""
    for images in product(range(1, n + 1), repeat=n):
        yield FunctionMap(images)


def function_matrix(f: FunctionMap) -> Matrix:
    """0/1 matrix of a self-map: entry (i, j) is 1 exactly when f(i) = j.

    With the row-vector convention, e_i * function_matrix(f) = e_{f(i)},
    and the map f -> function_matrix(f) turns right-composition into
    matrix multiplication.
    """
    n = f.n
    entries = [0] * (n * n)
    for i in range(1, n + 1):
        entries[(i - 1) * n + (f(i) - 1)] = 1
    return Matrix(n, n, entries)


def permanent(m: Matrix) -> Scalar:
    """Exact permanent of a square matrix.

    Small orders expand directly; order >= 4 uses Ryser's
    inclusion-exclusion with Gray-code updates of the column sums,
    O(2^k k) instead of O(k!).
    """
    if not m.is_square:
        raise ValueError("permanent needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    if n == 1:
        return m.data[0]
    d = m.data
    if n == 2:
        return as_scalar(Fraction(d[0] * d[3] + d[1] * d[2]))
    if n == 3:
        total = (d[0] * (d[4] * d[8] + d[5] * d[7])
                 + d[1] * (d[3] * d[8] + d[5] * d[6])
                 + d[2] * (d[3] * d[7] + d[4] * d[6]))
        return as_scalar(Fraction(total))
    return _permanent_ryser(m)


def _permanent_ryser(m: Matrix) -> Scalar:
    n = m.rows
    cols = [m.column(j) for j in range(n)]
    sums = [0] * n
    total = 0
    gray = 0
    for counter in range(1, 1 << n):
        next_gray = counter ^ (counter >> 1)
        changed = gray ^ next_gray
        j = changed.bit_length() - 1
        col = cols[j]
        if next_gray & changed:
            for i in range(n):
                sums[i] += col[i]
        else:
            for i in range(n):
                sums[i] -= col[i]
        gray = next_gray
        prod = reduce(lambda a, b: a * b, sums)
        if gray.bit_count() & 1:
            total -= prod
        else:
            total += prod
    if n & 1:
        total = -total
    return as_scalar(Fraction(total))


def zeon_power(w: Matrix, k: int) -> Matrix:
    """k-th zeon tensor power (permanental compound) of a square matrix.

    Entry (I, J), over the lexicographic k-subset basis, is the permanent
    of w restricted to rows I and columns J. For k = 1 this is w itself;
    for k = 2 it is ``_psi2_rows`` of w's integer rows over their row
    scales, one Fraction per entry. Nothing is kept between calls: one
    compound at n = 30 holds about 13 MB.
    """
    if not w.is_square:
        raise ValueError("zeon power needs a square matrix")
    n = w.rows
    basis = subset_basis(n, k)
    if k == 1:
        return Matrix(n, n, w.data)
    if k == 2:
        numerators, scales = w.integer_rows()
        entries = [Fraction(e, d1 * d2)
                   for (d1, d2), row in zip(combinations(scales, 2), _psi2_rows(numerators))
                   for e in row]
        return Matrix(len(basis), len(basis), entries)
    entries = []
    for rows_idx in basis.subsets:
        for cols_idx in basis.subsets:
            entries.append(permanent(_submatrix(w, rows_idx, cols_idx)))
    return Matrix(len(basis), len(basis), entries)


def _psi2_rows(numerators: Sequence[Sequence[int]]) -> list:
    """Psi2 of integer rows N_i over the lexicographic 0-based pairs: entry
    ((i1, i2), (j1, j2)) is the permanent N_i1[j1] N_i2[j2] + N_i1[j2] N_i2[j1]."""
    pairs = list(combinations(range(len(numerators)), 2))
    return [[n1[j1] * n2[j2] + n1[j2] * n2[j1] for j1, j2 in pairs]
            for n1, n2 in combinations(numerators, 2)]


def exterior_power(w: Matrix, k: int) -> Matrix:
    """k-th exterior (determinant) compound over the same subset basis."""
    if not w.is_square:
        raise ValueError("exterior power needs a square matrix")
    basis = subset_basis(w.rows, k)
    if k == 1:
        return Matrix(w.rows, w.cols, w.data)
    entries = [
        _submatrix(w, rows_idx, cols_idx).det()
        for rows_idx in basis.subsets
        for cols_idx in basis.subsets
    ]
    return Matrix(len(basis), len(basis), entries)


def _submatrix(w: Matrix, rows_idx: Sequence[int], cols_idx: Sequence[int]) -> Matrix:
    entries = [w[i - 1, j - 1] for i in rows_idx for j in cols_idx]
    return Matrix(len(rows_idx), len(cols_idx), entries)


def is_zeon_homomorphic_pair(w1: Matrix, w2: Matrix, k: int) -> bool:
    """Whether the zeon power of the product splits: is
    zeon_power(w1 * w2, k) == zeon_power(w1, k) * zeon_power(w2, k)?

    True for any pair of function matrices and, more generally, whenever
    w1 has at most one nonzero entry per column or w2 at most one per row;
    false for generic pairs.
    """
    if not (w1.is_square and w2.is_square and w1.rows == w2.rows):
        raise ValueError("need two square matrices of the same size")
    return zeon_power(w1 * w2, k) == zeon_power(w1, k) * zeon_power(w2, k)


def apply_second_quantized_function(f: FunctionMap, subset: Sequence[int]) -> Optional[tuple]:
    """Image of a subset under the induced map on the power set.

    Returns the sorted image {f(i) : i in subset}, or None when two
    elements collide -- a collision annihilates the basis element, since
    the corresponding generator would be squared.
    """
    subset = tuple(subset)
    if any(not 1 <= i <= f.n for i in subset) or any(
        a >= b for a, b in zip(subset, subset[1:])
    ):
        raise ValueError(f"{subset} is not a strictly increasing subset of 1..{f.n}")
    images = [f(i) for i in subset]
    if len(set(images)) < len(images):
        return None
    return tuple(sorted(images))

