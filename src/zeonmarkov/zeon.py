"""Multi-index combinatorics, permanents, and permanental compounds.

The k-th zeon tensor power of an n-by-n matrix W is the C(n,k)-by-C(n,k)
matrix indexed by k-subsets of {1..n} whose (I, J) entry is the permanent
of the submatrix of W with rows I and columns J -- the permanental
analogue of the k-th exterior (determinant) compound. Generators of the
underlying algebra commute but square to zero, which is why permanents,
not determinants, appear.

Both compounds come from one builder over the matrix's integer rows: each
entry is expanded along its first row from the compound one degree down,
C(n,k)^2 k integer multiplies in all. A compound is returned as those
integer rows over the products of their row scales; products read the rows
as they are, and an entry becomes a ``Fraction`` only when it is read.

Subsets are always strictly increasing tuples of 1-based indices, in
lexicographic order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
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
    """Exact permanent of a square matrix, by Ryser's inclusion-exclusion
    with Gray-code updates of the column sums: O(2^k k), not O(k!). The
    compounds do not call it; it is the tests' independent route to them.
    """
    if not m.is_square:
        raise ValueError("permanent needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    cols = [m.column(j) for j in range(n)]
    sums = [0] * n
    total = 0
    gray = 0
    for counter in range(1, 1 << n):
        next_gray = counter ^ (counter >> 1)
        changed = gray ^ next_gray
        col = cols[changed.bit_length() - 1]
        if next_gray & changed:
            for i in range(n):
                sums[i] += col[i]
        else:
            for i in range(n):
                sums[i] -= col[i]
        gray = next_gray
        if gray.bit_count() & 1:
            total -= math.prod(sums)
        else:
            total += math.prod(sums)
    if n & 1:
        total = -total
    return as_scalar(Fraction(total))


def zeon_power(w: Matrix, k: int) -> Matrix:
    """k-th zeon tensor power (permanental compound) of a square matrix.

    Entry (I, J), over the lexicographic k-subset basis, is the permanent
    of w restricted to rows I and columns J; for k = 1 this is w itself.
    Otherwise it is ``_compound_rows`` of w's integer rows over the product
    of their row scales, C(n,k)^2 k integer multiplies, and is held as those
    rows: the entries are built once, when ``.data`` is first read, so a
    compound that is only multiplied builds none. Nothing is kept between
    calls. At n = 30, k = 2 a compound takes about 1.7 MB, and 15 MB once its
    entries have been read.
    """
    if not w.is_square:
        raise ValueError("zeon power needs a square matrix")
    return _compound(w, k, 1)


def exterior_power(w: Matrix, k: int) -> Matrix:
    """k-th exterior (determinant) compound over the same subset basis:
    entry (I, J) is the minor det w[I, J], built as ``zeon_power`` builds
    the permanents, with alternating signs."""
    if not w.is_square:
        raise ValueError("exterior power needs a square matrix")
    return _compound(w, k, -1)


def _compound(w: Matrix, k: int, sign: int) -> Matrix:
    n = w.rows
    size = len(subset_basis(n, k))
    if k == 1:
        return Matrix._canonical(n, n, w.data)
    numerators, scales = w.integer_rows()
    row_scales = [math.prod(s) for s in combinations(scales, k)]
    return Matrix._canonical(size, size, integer=(_compound_rows(numerators, k, sign), row_scales))


def _compound_rows(numerators: Sequence[Sequence[int]], k: int, sign: int) -> list:
    """The k-compound (k >= 2) of integer rows N, over the lexicographic
    k-subsets: permanents for sign 1, minors for sign -1. Level 2 is
    ``_psi2_rows``; level L expands each entry along its first row,
    C(I, J) = sum over t of sign^t N[I_0][J_t] C(I minus I_0, J minus J_t),
    from level L - 1 alone (Minc, Permanents, 1978)."""
    rows = _psi2_rows(numerators, sign)
    n = len(numerators)
    for level in range(3, k + 1):
        lower = subset_basis(n, level - 1)
        subsets = subset_basis(n, level).subsets
        expansions = [[(j - 1, lower.rank(s[:t] + s[t + 1:]), sign ** t) for t, j in enumerate(s)]
                      for s in subsets]
        heads = [numerators[s[0] - 1] for s in subsets]
        tails = [rows[lower.rank(s[1:])] for s in subsets]
        rows = [[sum(c * head[j] * tail[r] for j, r, c in terms) for terms in expansions]
                for head, tail in zip(heads, tails)]
    return rows


def _psi2_rows(numerators: Sequence[Sequence[int]], sign: int = 1) -> list:
    """Psi2 of integer rows N_i over the lexicographic 0-based pairs: entry
    ((i1, i2), (j1, j2)) is the permanent N_i1[j1] N_i2[j2] + N_i1[j2] N_i2[j1],
    or, for sign -1, the minor N_i1[j1] N_i2[j2] - N_i1[j2] N_i2[j1]."""
    pairs = list(combinations(range(len(numerators)), 2))
    return [[n1[j1] * n2[j2] + sign * n1[j2] * n2[j1] for j1, j2 in pairs]
            for n1, n2 in ((numerators[i1], numerators[i2]) for i1, i2 in pairs)]


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

