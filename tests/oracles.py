"""Independent reference implementations that the tests compare the
library against."""

from fractions import Fraction
from itertools import permutations

from zeonmarkov.linalg import Matrix, Scalar, as_scalar


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
