"""Independent reference implementations that the tests compare the
library against."""

import math
from fractions import Fraction
from itertools import combinations, permutations

from zeonmarkov.degree2 import DegreeTwoVector, left_action, mat_embed, right_action
from zeonmarkov.linalg import (PRIMES, Matrix, Packed, Scalar, _criterion_certificate, _slots,
                               _unpack, as_scalar)
from zeonmarkov.markov import ChainStructure
from zeonmarkov.zeon import _psi2_rows


def is_hollow_symmetric(m: Matrix) -> bool:
    """Whether m is square with a zero diagonal and m[i, j] == m[j, i]."""
    if not m.is_square:
        return False
    return all(m[i, i] == 0 for i in range(m.rows)) and all(
        m[i, j] == m[j, i] for i in range(m.rows) for j in range(i + 1, m.rows)
    )


def zero_vector(n: int) -> DegreeTwoVector:
    """The pair vector with every coordinate 0."""
    return DegreeTwoVector(n, [0] * math.comb(n, 2))


def vector_from_pairs(n: int, values: dict) -> DegreeTwoVector:
    """The pair vector with x_ij = values[(i, j)] (1-based, either order),
    0 at the pairs ``values`` leaves out."""
    pairs = list(combinations(range(1, n + 1), 2))
    coords = [0] * len(pairs)
    for (i, j), v in values.items():
        coords[pairs.index((min(i, j), max(i, j)))] = v
    return DegreeTwoVector(n, coords)


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


def product_oracle(a: Matrix, b: Matrix) -> Matrix:
    """The product a b by the textbook triple loop over ``Fraction``
    entries, each sum canonicalized by ``as_scalar``. Independent reference
    for the integer-row product ``Matrix.__mul__``."""
    if a.cols != b.rows:
        raise ValueError("inner dimensions differ")
    entries = []
    for i in range(a.rows):
        for j in range(b.cols):
            total = Fraction(0)
            for k in range(a.cols):
                total += Fraction(a[i, k]) * Fraction(b[k, j])
            entries.append(as_scalar(total))
    return Matrix(a.rows, b.cols, entries)


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


def left_null_space_oracle(m: Matrix) -> list:
    """Basis of {v row : v m = 0} as 1-row matrices in reduced echelon
    form: the ``null_space_oracle`` of the transpose."""
    return [Matrix.row_vector(v) for v in null_space_oracle(m.T)]


def rank_oracle(m: Matrix) -> int:
    """The number of pivots of ``rref_oracle``."""
    return len(rref_oracle(m)[1])


def determinant_oracle(rows: list) -> int:
    """Determinant of square integer rows by fraction-free (Bareiss)
    elimination alone, with no modular stage: independent of the package's
    one determinant route, ``integer_det``'s LU mod p and its lift. Each
    entry stays a minor of the input, so every division by the previous
    pivot is exact."""
    m = [list(row) for row in rows]
    sign, prev = 1, 1
    for c in range(len(m)):
        pivot_row = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pivot_row is None:
            return 0
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        pivot, tail = m[c][c], m[c][c:]
        for mi in m[c + 1:]:
            f = mi[c]
            mi[c:] = [(a * pivot - f * b) // prev for a, b in zip(mi[c:], tail)]
        prev = pivot
    return sign * prev


def packed_rows(block: Packed) -> list:
    """The integer rows of a ``linalg.Packed``, read back from its columns
    packed for PRIMES[0]."""
    width, bias = _slots(block.bound, block.size, PRIMES[0])
    cols = [_unpack(x, width, block.size, bias) for x in block.columns(width, bias)]
    return [list(row) for row in zip(*cols)]


def certificate_oracle(rows, whole_kernel: bool, exact: bool = True, rhs=()) -> tuple:
    """``_criterion_certificate`` with no modular stage, so no prime that can
    be unlucky, as the analysis reads it, on integer rows or a ``Packed``
    (``packed_rows``): the ``determinant_oracle`` (None
    for a nonzero one without ``exact``) and, when it is 0 and
    ``whole_kernel`` asks for it, the ``null_space_oracle`` basis of the
    rows' right kernel, else, for each b in ``rhs``, (D, D y) with y read
    off the ``rref_oracle`` of [M | b] and D the lcm of its denominators.
    Without ``whole_kernel`` (a chain with every class closed) the analysis
    reads no kernel, so none is computed."""
    if isinstance(rows, Packed):
        rows = packed_rows(rows)
    det = determinant_oracle(rows)
    size = len(rows)
    if det == 0:
        return 0, (null_space_oracle(Matrix(size, size, [e for row in rows for e in row]))
                   if whole_kernel else [])
    solutions = []
    for b in rhs:
        reduced, _ = rref_oracle(Matrix.from_rows([list(row) + [e] for row, e in zip(rows, b)]))
        y = [Fraction(reduced[i, size]) for i in range(size)]
        d = math.lcm(*(e.denominator for e in y))
        solutions.append((d, [int(e * d) for e in y]))
    return det if exact else None, solutions


def criterion_block(numerators: list, scales: list, pairs: list) -> list:
    """The principal submatrix on the 0-based ``pairs`` of the criterion rows
    M = D (I - Psi2(A)) of the integer rows N_i / d_i of A, as lists: row
    (i, j) is d_i * d_j * e_(i,j) minus row (i, j) of ``zeon._psi2_rows`` of
    the N_i. The reference for the packed blocks of
    ``markov._class_pair_block``, which build no row."""
    block = [[-e for e in row] for row in _psi2_rows(numerators, 1, pairs)]
    for r, (i, j) in enumerate(pairs):
        block[r][r] += scales[i] * scales[j]
    return block


def criterion_rows(numerators: list, scales: list) -> tuple:
    """The whole N x N criterion rows M = D (I - Psi2(A)) of the integer rows
    N_i / d_i of A, ``criterion_block`` on every pair, and det D, D
    the diagonal of the d_i d_j: each d_i scales the n - 1 pairs that hold
    state i. No analysis builds M whole; the tests compare against it."""
    pairs = list(combinations(range(len(scales)), 2))
    return criterion_block(numerators, scales, pairs), math.prod(scales) ** (len(scales) - 1)


def dense_route(certificate=_criterion_certificate):
    """A stand-in for ``markov._block_certificate`` that works on the whole
    N x N matrix: ``certificate(rows, True)`` of ``criterion_rows``, by
    default the production ``_criterion_certificate`` that each block takes.
    With ``_nonnegative_fixed_vector`` it is the analysis of a chain with
    transient states as it was before the block route."""
    def dense(numerators, scales, structure):
        return certificate(criterion_rows(numerators, scales)[0], True)
    return dense


def class_pair_determinant_oracle(m: Matrix, lump_transient: bool):
    """det(I - Psi2(A)) by the class-pair identity of the Frobenius normal
    form: the product of the det of the block of each pair {a, b} of
    classes, or, with ``lump_transient``, of each pair of closed classes and
    of the one block of all the pairs that meet a transient state. Each
    block is a principal submatrix of I - Psi2(A), its entries the Fraction
    permanents A_ik A_jl + A_il A_jk, and its det the ``determinant_oracle``
    of its integer rows over their scales; the classes are
    ``chain_structure_oracle``'s."""
    structure = chain_structure_oracle(m)
    owner = {s - 1: (c, closed) for c, closed in zip(structure.classes, structure.closed)
             for s in c}
    groups = {}
    for i, j in combinations(range(m.rows), 2):
        (a, a_closed), (b, b_closed) = owner[i], owner[j]
        lumped = lump_transient and not (a_closed and b_closed)
        groups.setdefault("transient" if lumped else tuple(sorted((a, b))), []).append((i, j))
    det = Fraction(1)
    for pairs in groups.values():
        rows, scales = Matrix.from_rows([[int((i, j) == (k, l)) - m[i, k] * m[j, l] - m[i, l] * m[j, k]
                                          for k, l in pairs] for i, j in pairs]).integer_rows()
        det *= Fraction(determinant_oracle(rows), math.prod(scales))
    return as_scalar(det)


def stationary_oracle(m: Matrix, states: tuple) -> dict:
    """The stationary distribution of the closed class ``states`` (1-based)
    of the stochastic matrix m, as {state: mass}: Gauss-Jordan on
    ``Fraction`` entries of pi (A_cc - I) = 0 with sum(pi) = 1, the
    equations as the rows of [(A_cc - I)^T | 0] below [1 ... 1 | 1].
    Independent reference for the integer-row ``_class_distributions``."""
    k = len(states)
    rows = [[Fraction(1)] * (k + 1)]
    rows += [[Fraction(m[i - 1, j - 1]) - (i == j) for i in states] + [Fraction(0)] for j in states]
    for c in range(k):
        pivot_row = next(i for i in range(c, len(rows)) if rows[i][c] != 0)
        rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
        rows[c] = [e / rows[c][c] for e in rows[c]]
        for i in range(len(rows)):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    assert all(e == 0 for row in rows[k:] for e in row), "the class has no unique distribution"
    return {s: as_scalar(rows[r][k]) for r, s in enumerate(states)}


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


def positive_power_oracle(m: Matrix):
    """Smallest k up to the Wielandt bound n^2 - 2n + 2 for which the
    integer power (``Matrix.__pow__``) of m's 0/1 pattern has no zero
    entry, or None when there is none."""
    n = m.rows
    pattern = Matrix(n, n, [1 if e > 0 else 0 for e in m.data])
    return next((k for k in range(1, n * n - 2 * n + 3) if all((pattern ** k).data)), None)


def _bool_product(x: list, y: list) -> list:
    size = len(x)
    return [[any(x[i][k] and y[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)]


def reach_oracle(m: Matrix) -> list:
    """The reflexive transitive closure of a chain's diagram by Warshall's
    algorithm: entry [i][j] is True when 0-based state i leads to j."""
    n = m.rows
    reach = [[i == j or m[i, j] > 0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[k])]
    return reach


def chain_structure_oracle(m: Matrix) -> ChainStructure:
    """Classes, closedness, periods, cyclic classes and reach of a chain's
    diagram from boolean matrices alone. Reach is the reflexive transitive
    closure (``reach_oracle``). The period of a class of k states is the gcd
    of the lengths t <= 3k of closed walks at its smallest state s, read
    off boolean powers of the class's own block: a walk from s to any
    simple cycle and back, with and without one turn round it, is at most
    3k long. A state of a closed class of period p lies in cyclic class
    t mod p, t the length of its shortest walk from s."""
    n = m.rows
    edge = [[m[i, j] > 0 for j in range(n)] for i in range(n)]
    reach = reach_oracle(m)
    classes = sorted({tuple(j for j in range(n) if reach[i][j] and reach[j][i])
                      for i in range(n)})
    closed_flags, periods, cyclics = [], [], []
    for c in classes:
        closed = all(j in c for i in c for j in range(n) if reach[i][j])
        k = len(c)
        block = [[edge[i][j] for j in c] for i in c]
        power = [[a == b for b in range(k)] for a in range(k)]
        shortest = {0: 0}
        g = 0
        for t in range(1, 3 * k + 1):
            power = _bool_product(power, block)
            if power[0][0]:
                g = math.gcd(g, t)
            for b in range(k):
                if power[0][b]:
                    shortest.setdefault(b, t)
        period = g or None
        cyclic = None
        if closed:
            p = period or 1
            cyclic = tuple(tuple(c[b] + 1 for b in range(k) if shortest[b] % p == phase)
                           for phase in range(p))
        closed_flags.append(closed)
        periods.append(period)
        cyclics.append(cyclic)
    return ChainStructure(n=n, classes=tuple(tuple(s + 1 for s in c) for c in classes),
                          closed=tuple(closed_flags), periods=tuple(periods),
                          cyclic_classes=tuple(cyclics),
                          reach=tuple(sum(reach[c[0]]) for c in classes))


def identity_sides_oracle(x: DegreeTwoVector, a: Matrix) -> dict:
    """Every side of the degree-2 identities by ``Fraction`` matrix algebra:
    the masses through the compound actions ``left_action`` and
    ``right_action``, the traces as half traces of n x n ``Matrix``
    products, each made canonical. "integration_by_parts" is its
    (lhs, rhs), or None when a is not stochastic. Independent reference for
    the integer sums of ``degree2``."""
    n = x.n
    xhat, j, i = mat_embed(x), Matrix(n, n, [1] * n ** 2), Matrix.identity(n)
    mass = sum(x.coords)
    sides = {
        "first_lhs": mass - sum(left_action(x, a).coords),
        "first_rhs": _half_product_trace(xhat, j - a * j * a.T + a * a.T),
        "second_lhs": mass - sum(right_action(a, x).coords),
        "second_rhs": _half_product_trace(xhat, j - a.T * j * a + a.T * a),
        "trace_left": _half_product_trace(xhat, a * (j - i) * a.T),
        "trace_right": _half_product_trace(xhat, a.T * (j - i) * a),
        "trace_left_stochastic": _half_product_trace(xhat, j - a * a.T),
    }
    sides = {key: as_scalar(Fraction(value)) for key, value in sides.items()}
    ibp_rhs = as_scalar(_half_product_trace(a.T * xhat, a))
    sides["integration_by_parts"] = (sides["first_lhs"], ibp_rhs) if a.is_stochastic() else None
    return sides


def _half_product_trace(x: Matrix, y: Matrix) -> Fraction:
    """1/2 tr(x y) without materializing the product."""
    return Fraction(sum(a * b for a, b in zip(x.data, y.T.data)), 2)
