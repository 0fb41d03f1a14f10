"""Independent reference implementations that the tests compare the
library against."""

import math
from fractions import Fraction
from itertools import combinations, permutations

from zeonmarkov.degree2 import DegreeTwoVector, left_action, mat_embed, right_action
from zeonmarkov import linalg
from zeonmarkov.linalg import (PRIMES, Matrix, Packed, Scalar, _dense, _lu_primes, _slots,
                               as_scalar, exact_div, integer_det)
from zeonmarkov.markov import ChainStructure


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


def unpack(x: int, width: int, n: int, bias: int) -> list:
    """The n slots of ``width`` bytes of the packed x, less ``bias``: a
    packed column read back, which the library never does."""
    data = x.to_bytes(n * width, "little")
    return [int.from_bytes(data[k:k + width], "little") - bias for k in range(0, n * width, width)]


def packed_rows(block: Packed) -> list:
    """The integer rows of a ``linalg.Packed``, read back from its columns
    packed for PRIMES[0]."""
    width, bias = _slots(block.bound, block.size, PRIMES[0])
    cols = [unpack(x, width, block.size, bias) for x in block.columns(width, bias)]
    return [list(row) for row in zip(*cols)]


def certificate_oracle(rows, rhs=()) -> tuple:
    """``_criterion_certificate`` with no modular stage, so no prime that can
    be unlucky, as the analysis reads it, on integer rows or a ``Packed``
    (``packed_rows``): (0, []) when the ``determinant_oracle`` is 0, since
    the analysis reads no kernel vector of a certificate; else (det, []) with
    no ``rhs``, and (None, solutions) with one, for each b in ``rhs`` (D, D y)
    with y read off the ``rref_oracle`` of [M | b] and D the lcm of its
    denominators."""
    if isinstance(rows, Packed):
        rows = packed_rows(rows)
    det = determinant_oracle(rows)
    if det == 0:
        return 0, []
    size, solutions = len(rows), []
    for b in rhs:
        reduced, _ = rref_oracle(Matrix.from_rows([list(row) + [e] for row, e in zip(rows, b)]))
        y = [Fraction(reduced[i, size]) for i in range(size)]
        d = math.lcm(*(e.denominator for e in y))
        solutions.append((d, [int(e * d) for e in y]))
    return None if rhs else det, solutions


def lu_kernel(rows) -> list:
    """A basis of the right kernel of square integer rows M, by the route the
    analysis took for closed blocks before their cyclic indicators: one LU
    mod p (``linalg._lu_mod``) and, for every free column f, the checked
    vector (``_checked_solution``) v of M v = -D M[:, f], with v[f] = D,
    M[:, f] read back from the packed columns (``unpack``) and the minor
    M[R, C] bounded by Hadamard's inequality on its own columns and rows. The
    rank mod p is at most the rank over Q, so the kernel over Q has at most
    N - r dimensions, and these vectors, each nonzero at its own free column
    and 0 at the others, are a basis of it. A vector that fails its check
    starts again mod the next prime below (``_lu_primes``); [] when M is
    regular mod p, which proves det M != 0. A fast reference: the Fraction
    ``null_space_oracle`` takes minutes where this takes a second."""
    n = len(rows)
    if n < 2:
        return [[1]] if n and rows[0][0] == 0 else []
    block = _dense(rows)
    for p in _lu_primes(lambda: block.bounds()[1]):
        width, bias = _slots(block.bound, n, p)
        packed = block.columns(width, bias)
        det_p, factors = linalg._lu_mod(packed, p, width)
        if det_p:
            return []
        perm, *_, pivot_rows = factors
        cols = [unpack(x, width, n, bias) for x in packed]
        cut = [[col[i] for i in pivot_rows] for col in cols]  # the columns of M[R, :]
        norms = [sum(e * e for e in cut[j]) for j in perm[:len(pivot_rows)]]
        rows_bound = math.prod(sum(e * e for e in row) for row in zip(*cut))
        minor = math.isqrt(min(math.prod(norms), rows_bound)) + 1, norms
        kernel = []
        for f in sorted(perm[len(pivot_rows):]):
            solved = linalg._checked_solution(block.product, packed, factors,
                                              [-e for e in cols[f]], p, width, bias, *minor)
            if solved is None:
                break
            d, v = solved
            kernel.append(v[:f] + [d] + v[f + 1:])
        else:
            return kernel
    raise ArithmeticError("primes beyond the Hadamard bound failed the rank: a bound is wrong")


def rank_mod(rows, q: int = (1 << 61) - 1) -> int:
    """The rank of integer rows mod the prime q, the Mersenne prime 2^61 - 1
    by default, by plain Gaussian elimination on lists, with nothing from
    ``linalg``: each step drops the first column, eliminated by a row with a
    nonzero entry there, if any. A minor that is nonzero mod q is nonzero,
    so it is at most the rank over Q."""
    m = [[e % q for e in row] for row in rows]
    rank = 0
    while m and m[0]:
        pivot = next((row for row in m if row[0]), None)
        if pivot is None:
            m = [row[1:] for row in m]
            continue
        m.remove(pivot)
        inverse, tail = q - pow(pivot[0], -1, q), pivot[1:]
        m = [[(a + f * b) % q for a, b in zip(row[1:], tail)] if (f := row[0] * inverse % q)
             else row[1:] for row in m]
        rank += 1
    return rank


def determinant_mod(rows, q: int = (1 << 61) - 1) -> int:
    """The determinant of square integer rows mod the prime q, by the
    elimination of ``rank_mod``: the pivot of each first column is moved to
    the top, a sign for each row it passes, and a column with no pivot
    makes it 0."""
    m = [[e % q for e in row] for row in rows]
    det = 1
    while m:
        k = next((k for k, row in enumerate(m) if row[0]), None)
        if k is None:
            return 0
        pivot = m.pop(k)
        det = det * (-1) ** k * pivot[0] % q
        inverse, tail = q - pow(pivot[0], -1, q), pivot[1:]
        m = [[(a + f * b) % q for a, b in zip(row[1:], tail)] if (f := row[0] * inverse % q)
             else row[1:] for row in m]
    return det


def criterion_block(numerators: list, scales: list, pairs: list) -> list:
    """The principal submatrix on the 0-based ``pairs`` of the criterion rows
    M = D (I - Psi2(A)) of the integer rows N_i / d_i of A, as lists: row
    (i, j) is d_i * d_j * e_(i,j) minus the pair products
    N_i[k] N_j[l] + N_i[l] N_j[k] on the pairs (k, l), row (i, j) of Psi2(N).
    The reference for the packed blocks of ``markov._class_pair_block``,
    which build no row."""
    return [[(scales[i] * scales[j] if (k, l) == (i, j) else 0)
             - numerators[i][k] * numerators[j][l] - numerators[i][l] * numerators[j][k]
             for k, l in pairs] for i, j in pairs]


def criterion_rows(numerators: list, scales: list) -> tuple:
    """The whole N x N criterion rows M = D (I - Psi2(A)) of the integer rows
    N_i / d_i of A, ``criterion_block`` on every pair, and det D, D
    the diagonal of the d_i d_j: each d_i scales the n - 1 pairs that hold
    state i. No analysis builds M whole; the tests compare against it."""
    pairs = list(combinations(range(len(scales)), 2))
    return criterion_block(numerators, scales, pairs), math.prod(scales) ** (len(scales) - 1)


def dense_route(oracle: bool = False):
    """A stand-in for ``markov._block_certificate`` that works on the whole
    N x N criterion rows M (``criterion_rows``): det M over det D and, when
    it is 0, a basis of M's right kernel, by default ``lu_kernel`` and the
    production ``integer_det``, the one LU mod p that each block takes; with
    ``oracle``, with no modular stage, the ``null_space_oracle`` and the
    ``determinant_oracle``. With ``_nonnegative_fixed_vector`` it is the
    analysis of a chain with transient states as it was before the block
    route."""
    def dense(numerators, scales, structure):
        rows, det_d = criterion_rows(numerators, scales)
        if oracle:
            det = determinant_oracle(rows)
            return ((exact_div(det, det_d), []) if det
                    else (0, null_space_oracle(Matrix.from_rows(rows))))
        kernel = lu_kernel(rows)
        return (0, kernel) if kernel else (exact_div(integer_det(rows), det_d), [])
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
