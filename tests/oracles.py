"""Independent reference implementations that the tests compare the
library against."""

from fractions import Fraction
from itertools import permutations

from zeonmarkov.degree2 import DegreeTwoVector
from zeonmarkov.linalg import Matrix, Scalar, _bareiss_det, as_scalar


def permutation_permanent_oracle(m: Matrix) -> Scalar:
    """Brute-force permanent as the sum over all permutations.

    Independent O(k!) oracle for cross-checking the production permanent;
    keep to small orders.
    """
    if not m.is_square:
        raise ValueError("permanent needs a square matrix")
    n = m.rows
    total = Fraction(0)
    for perm in permutations(range(n)):
        prod = Fraction(1)
        for i, j in enumerate(perm):
            prod *= m[i, j]
        total += prod
    return as_scalar(total)


def rref_oracle(m: Matrix) -> tuple:
    """Reduced row-echelon form and pivot columns by Gauss-Jordan on
    ``Fraction`` entries, pivoting on the first nonzero entry below the
    working row. Independent reference for the fraction-free ``rref``."""
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        pivot_row = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        if pivot != 1:
            rows[r] = [as_scalar(Fraction(e) / pivot) for e in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix(m.rows, m.cols, [e for row in rows for e in row]), tuple(pivots)


def null_space_oracle(m: Matrix) -> list:
    """Basis of {v : m v = 0} as rows in reduced echelon form, read off
    ``rref_oracle``: one vector per free column, canonicalized by a second
    ``rref_oracle``."""
    reduced, pivots = rref_oracle(m)
    basis = []
    for f in sorted(set(range(m.cols)) - set(pivots)):
        v = [0] * m.cols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -reduced[r, f]
        basis.append(v)
    if not basis:
        return []
    canon, _ = rref_oracle(Matrix.from_rows(basis))
    return [canon.row(i) for i in range(canon.rows)]


def determinant_oracle(rows: list) -> int:
    """Determinant of integer rows by fraction-free elimination alone,
    with no modular stage: the route ``integer_det`` falls back to."""
    return _bareiss_det([list(row) for row in rows])


def certificate_oracle(rows: list, whole_kernel: bool) -> tuple:
    """``_criterion_certificate`` with no modular stage, as the analysis
    reads it: the ``determinant_oracle`` and, when it is 0 and
    ``whole_kernel`` asks for it, the ``null_space_oracle`` basis of the
    rows' right kernel. Without ``whole_kernel`` (a chain with every class
    closed) the analysis reads no kernel, so none is computed."""
    det = determinant_oracle(rows)
    if det or not whole_kernel:
        return det, []
    size = len(rows)
    return det, null_space_oracle(Matrix(size, size, [e for row in rows for e in row]))


def fixed_vector_oracle(kernel: list, n: int):
    """The first nonnegative vector of the reduced echelon basis of the
    span of ``kernel`` (``rref_oracle``) as a degree-2 vector over n
    states, or None."""
    reduced, _ = rref_oracle(Matrix.from_rows(kernel))
    for i in range(reduced.rows):
        vec = DegreeTwoVector(n, reduced.row(i))
        if vec.is_nonnegative():
            return vec
    return None
