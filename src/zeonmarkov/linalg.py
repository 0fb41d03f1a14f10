"""Exact rational scalars and dense matrices.

Every value in this module is an exact rational number: a Python ``int``
or a ``fractions.Fraction`` in lowest terms, integral values always as
``int`` so that 0/1-heavy matrices compute on machine integers. There is
no floating point; equality of results is always bit-exact, so downstream
code can decide genuine dichotomies (a determinant is zero or it is not).

A matrix is also a list of integer rows over positive row scales. A
parsed matrix (``documents``, from ``parse_literal``'s integer pairs) and
the compounds of ``zeon`` are held as those rows alone, their entries built
on first read; a matrix built from its entries builds the rows on first
use. Either keeps what it builds. Products and every exact elimination
run on those rows and build a ``Fraction`` only for an output entry.
``A * B`` brings B's rows to one common scale s, so entry (i, j) is one
integer dot product over A's row scale times s.
Reduced row-echelon forms come from one fraction-free (Bareiss) routine,
``_bareiss``. Every determinant (``Matrix.det`` too), with either a right
kernel vector that proves it 0 or the solutions of a regular system, comes
from one LU mod p, lifted p-adically (``_criterion_certificate``, and
``integer_det`` for the determinant alone): each lifts through
``_checked_solution`` until its exact check passes, mod each next prime
below PRIMES[0] that a failure calls for (``_lu_primes``).
The matrix's columns are packed once, a slot per entry, into one int each,
and the LU reduces its pivot rows mod p on those ints (``_slot_reducer``):
it never unpacks a row.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

Scalar = Union[int, Fraction]
ScalarLike = Union[int, Fraction, str]


def as_scalar(value: ScalarLike) -> Scalar:
    """Coerce ``value`` to the canonical exact scalar.

    Accepts ints, Fractions and strings ("7", "-3/4", "0.25"); decimal
    strings are parsed exactly ("0.25" becomes 1/4, never a float), by
    ``parse_literal``. Floats are rejected: they would silently smuggle
    binary rounding error into an exact computation.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, str):
        numerator, denominator = parse_literal(value)
        return numerator if denominator == 1 else Fraction(numerator, denominator)
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: use an int, Fraction or exact literal string"
        )
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


def parse_literal(text: str) -> tuple[int, int]:
    """The value of an exact literal string as (numerator, denominator) in
    lowest terms, d > 0: ASCII digits, with or without a "/" and a nonzero
    denominator, by ``int`` and ``math.gcd``; any other string (signs,
    spaces, decimals, exponents, more digits than the int/str limit) by
    ``Fraction``, once a decimal exponent past that limit is refused before
    it is expanded. Raises ValueError for a string that is not a literal,
    naming the limit, and quoting only the first digits, for one past it."""
    numerator, slash, denominator = text.partition("/")
    if text.isascii() and numerator.isdigit() and (denominator.isdigit() or not slash):
        try:
            n, d = int(numerator), int(denominator) if slash else 1
        except ValueError:  # past the int/str digit limit
            pass
        else:
            if d:
                g = math.gcd(n, d)
                return (n // g, d // g) if g > 1 else (n, d)
    stripped = text.strip()
    budget = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if "e" in stripped or "E" in stripped:
        digits = stripped.lower().partition("e")[2].lstrip("+-").replace("_", "").lstrip("0")
        if budget and digits.isdecimal() and (
                len(digits) > len(str(budget)) or int(digits) > budget):
            raise ValueError(f"decimal exponent exceeds the {budget}-digit limit")
    try:
        frac = Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        run = max(map(len, re.findall(r"\d+", stripped)), default=0)  # Fraction's longest int
        if budget and run > budget:
            raise ValueError(f"an integer of {run} digits exceeds the {budget}-digit limit: "
                             f"{stripped[:20]!r}...") from exc
        raise ValueError(f"not an exact rational literal: {text!r}") from exc
    return frac.numerator, frac.denominator


def scalar_str(value: Scalar) -> str:
    """Render a scalar as an exact literal ("7", "-3/4"), never a decimal; an
    integer past the int/str digit limit is split in two by a power of ten."""
    try:
        return str(value)
    except ValueError:
        if isinstance(value, Fraction) and value.denominator != 1:
            return f"{scalar_str(value.numerator)}/{scalar_str(value.denominator)}"
        sign, value = "-" if value < 0 else "", abs(int(value))
        half = value.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
        high, low = divmod(value, 10 ** half)
        return sign + scalar_str(high) + scalar_str(low).zfill(half)


def ratio_str(numerator: int, denominator: int) -> str:
    """``scalar_str`` of numerator/denominator, d > 0, without building it."""
    g = math.gcd(numerator, denominator)
    n, d = numerator // g, denominator // g
    return scalar_str(n) if d == 1 else f"{scalar_str(n)}/{scalar_str(d)}"


def _ratio(numerator: int, denominator: int) -> Scalar:
    """The canonical scalar numerator/denominator of two ints."""
    quotient, remainder = divmod(numerator, denominator)
    return Fraction(numerator, denominator) if remainder else quotient


def exact_div(a: Scalar, b: Scalar) -> Scalar:
    """Exact quotient a/b as a canonical scalar. ``b`` must be nonzero."""
    return as_scalar(Fraction(a) / Fraction(b))


# -- integer determinants ---------------------------------------------

# The four largest primes below 2^30: the first that of the LUs and lifts, the
# last three the first of their retries (_lu_primes) and of the CRT
# (_primes_below). Each is one 30-bit digit of a CPython int, so the
# multipliers and divisors of the packed kernel are one-digit operands.
PRIMES = (1073741789, 1073741783, 1073741741, 1073741723)


def _primes_below(p: int) -> Iterator[int]:
    """The primes below the odd p, in descending order."""
    return filter(_is_prime, range(p - 2, 2, -2))


def _lu_primes(norms: Callable[[], list]) -> Iterator[int]:
    """The primes of the LUs of the square integer M: PRIMES[0], then each
    prime below it while those tried multiply to at most the Hadamard bound
    H = isqrt(prod max(1, |column|^2)) on M's minors, made from ``norms()``,
    the squared norms of M's columns, once one has failed. A prime fails
    only when it divides det M != 0, or every r x r minor when M has rank
    r < N over Q (Abbott, Bronstein and Mulders, ISSAC 1999), so the primes
    that fail multiply to at most H: they run out only once they prove
    det M = 0."""
    yield PRIMES[0]
    h = math.isqrt(math.prod(max(1, c) for c in norms()))
    tried = PRIMES[0]
    for q in _primes_below(PRIMES[0]):
        if tried > h:
            return
        yield q
        tried *= q


def _is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin for odd q < 2^32, bases 2, 7 and 61 (Jaeschke,
    Math. Comp. 61, 1993): with q - 1 = d 2^r, d odd, q passes base a when
    a^d = 1 or a^(d 2^k) = -1 mod q for some k < r."""
    r = ((q - 1) & (1 - q)).bit_length() - 1
    for a in (2, 7, 61):
        powers = [pow(a, (q - 1) >> (r - k), q) for k in range(r)]
        if a % q and powers[0] != 1 and q - 1 not in powers:
            return False
    return True


def integer_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix: the determinant of
    ``_criterion_certificate``, whose one LU mod p also proves a zero."""
    return _criterion_certificate(rows)[0]


class Packed:
    """A square integer matrix M as ``_criterion_certificate`` reads it, and
    only so: ``size``, its order; ``bound``, at least |M|'s row sums;
    ``columns(width, bias)``, its columns packed (``_pack``), each entry plus
    ``bias`` in a slot; ``bounds()``, (h, its squared column norms, signed)
    with -h <= det M <= h, or 0 <= det M <= h unsigned; ``product(v)``, M v."""

    __slots__ = ("size", "bound", "columns", "bounds", "product")

    def __init__(self, size: int, bound: int, columns: Callable[[int, int], list],
                 bounds: Callable[[], tuple], product: Callable[[Sequence[int]], list]):
        self.size, self.bound, self.columns, self.bounds, self.product = (
            size, bound, columns, bounds, product)


def _dense(rows: Sequence[Sequence[int]]) -> Packed:
    """The ``Packed`` of a square matrix given as its integer rows."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    cols = list(zip(*rows))
    return Packed(n, max((sum(map(abs, row)) for row in rows), default=0),
                  lambda width, bias: [_pack([e + bias for e in col], width) for col in cols],
                  lambda: (*_hadamard(cols), True),
                  lambda v: [sum(map(mul, row, v)) for row in rows])


def _hadamard(cols: Sequence[Sequence[int]]) -> tuple[int, list]:
    """(h, norms) of the square matrix of the columns ``cols``: their squared
    norms, and h above its |det| by Hadamard's inequality on them and on its
    rows."""
    norms = [sum(map(mul, col, col)) for col in cols]
    rows_bound = math.prod(sum(map(mul, row, row)) for row in zip(*cols))
    return math.isqrt(min(math.prod(norms), rows_bound)) + 1, norms


def _criterion_certificate(m: Union[Packed, Sequence[Sequence[int]]],
                           rhs: Sequence[Sequence[int]] = ()) -> tuple[Optional[int], list]:
    """The determinant of a square integer matrix M (its rows, or its
    ``Packed``) from one LU of M mod p = PRIMES[0]: (0, [v]), v a right
    kernel vector of M that proves it 0; else (det M, []) with no ``rhs``,
    or (None, solutions), det M mod p != 0 proving it nonzero, with for each
    b in ``rhs`` (D, D * y), y the solution of M y = b and D the lcm of its
    denominators (``_checked_solution``).

    Dixon's method, used for determinants as by Abbott, Bronstein and
    Mulders, gives a nonzero det M: lift the solution of M x = b for a fixed
    b p-adically (``_lift``) and reconstruct x rationally, accumulating D,
    the lcm of its denominators. D divides det M, so the cofactor det M / D
    is recovered from det M mod p and, while its range (``Packed``) needs
    it, mod each next prime below p by CRT (``_primes_below``).

    A matrix of rank r < N mod p has N - r free columns, the columns of M
    outside the pivot columns C of the factors (see ``_lift``). For the
    first one, f, the solution v of M v = -D M e_f (``_checked_solution``,
    lifted from the same factors until it passes on every row, h from the
    norms of M[:, C], cut to M[R, C]), with v[f] = D, is an integer kernel
    vector that proves det M = 0. A 1 x 1 M = [m] takes no LU: the kernel
    [[1]] when m = 0, else det m, D = |m| / g and D y = sign(m) b / g,
    g = gcd(m, b).

    Every step is exact and deterministic, and only a kernel vector proves a
    zero. A failed check (M has a larger rank over Q than mod p, as when p
    divides a nonzero det M) starts again from an LU mod the next prime of
    ``_lu_primes``. A prime whose rank is M's passes, and the primes that
    fail multiply to at most the Hadamard bound, so running out of them
    means a bound is wrong: ArithmeticError.
    """
    block = m if isinstance(m, Packed) else _dense(m)
    n, product = block.size, block.product
    if n < 2:  # the determinant is the entry, and a zero proves itself
        det = product([1])[0] if n else 1
        if not det:
            return 0, [[1]]
        sign = 1 if det > 0 else -1
        return det, [(abs(det) // (g := math.gcd(det, *b)), [sign * e // g for e in b]) for b in rhs]
    bound = max(block.bound, max((abs(e) for b in rhs for e in b), default=0))
    for p in _lu_primes(lambda: block.bounds()[1]):
        width, bias = _slots(bound, n, p)
        # M's columns, packed once for the LU and the lifts. LU of the
        # transpose: M = U^T L^T P, solved by two sweeps over rows.
        packed = block.columns(width, bias)
        det_p, factors = _lu_mod(packed, p, width)
        if det_p == 0:
            perm, *_, pivot_rows = factors
            rank, column_norms = len(pivot_rows), block.bounds()[1]
            norms = [column_norms[j] for j in perm[:rank]]  # none is 0: M[R, C] is regular mod p
            f = min(perm[rank:])
            column = product([int(j == f) for j in range(n)])
            solved = _checked_solution(product, packed, factors, [-e for e in column], p, width,
                                       bias, math.isqrt(math.prod(norms)) + 1, norms)
            if solved:  # M v = -D M[:, f], so v + D e_f is in the kernel
                d, v = solved
                return 0, [v[:f] + [d] + v[f + 1:]]
            continue
        h, norms, signed = block.bounds()
        solutions = [_checked_solution(product, packed, factors, b, p, width, bias, h, norms)
                     for b in rhs]
        if None in solutions:
            continue
        if rhs:
            return None, solutions
        b = [(7 * i) % 11 - 5 for i in range(n)]
        denom, _ = next(_lift(packed, factors, b, p, width, bias, h, norms, early=False))
        # det = cofactor * denom, the cofactor within h / denom of 0, or in
        # [0, h / denom] when not signed
        cofactor, base = det_p * pow(denom, -1, p) % p, p
        primes = _primes_below(p)
        while base * denom <= (2 * h if signed else h):
            if denom % (q := next(primes)):
                shift = _pack([-bias % q] * n, width)  # each slot e + a multiple of q
                c_q = _lu_mod([x + shift for x in packed], q, width)[0] * pow(denom, -1, q) % q
                cofactor += base * ((c_q - cofactor) * pow(base, -1, q) % q)
                base *= q
        return (cofactor - base if signed and cofactor > base // 2 else cofactor) * denom, []
    raise ArithmeticError("primes beyond the Hadamard bound failed the rank: a bound is wrong")


def _slots(bound: int, n: int, p: int) -> tuple[int, int]:
    """The slot width in bytes of the packed vectors of ``_lu_mod`` and
    ``_lift`` for an n x n matrix, and the bias of their packed input, for a
    ``bound`` on the row sums of |M| and on the entries of the right-hand
    sides.

    Residuals of the lifting stay within that bound; ``bias``, a multiple
    of p above it, keeps packed slots nonnegative without changing them
    mod p. A slot holds a biased entry or residual, below 2 * bias (plus
    less than p when it is moved to a multiple of another prime), and fewer
    than N updates of less than p^2.
    """
    bias = p * (bound // p + 1)
    return (max(n * p * p, 2 * bias).bit_length() + 9) // 8, bias


def _lift(packed: Sequence[int], factors: tuple, b: Sequence[int], p: int, width: int,
          bias: int, h: int, norms: Sequence[int], early: bool) -> Iterator[tuple[int, Iterator]]:
    """Solve M[R, C] y = b[R] exactly, where ``packed`` are M's columns
    packed with each entry plus ``bias`` in a slot, and ``factors`` are
    ``_lu_mod``'s of M's transpose: their pivot columns are the rows R of M
    and their first r permuted rows the columns C, so M[R, C] is invertible
    mod p (R and C are all of M when M is regular mod p). Entries of b are
    at most ``bias`` in size; h bounds |det M[R, C]|, and ``norms`` are the
    squared norms of M[R, C]'s columns.

    Dixon lifting: each step solves for one p-adic digit of y mod p and
    updates the residual exactly, until p^K > 2 * Nb * h, Nb bounding the
    numerators of y by Cramer's rule and Hadamard's inequality. Rational
    reconstruction of the entries of y accumulates D, the lcm of their
    denominators, which divides det M[R, C]. Yields D and the integers
    D * y (|D * y| <= Nb) in the order of C, as an iterator, so that a
    caller that needs only D does not pay for them. With ``early``, it first
    yields each reconstruction after 1, 2, 4, ... digits that succeeds with
    both parts at most isqrt(p^k / 2), for an exact check to stop on (Chen &
    Storjohann, ISSAC 2005; Monagan, ISSAC 2004). The digits are added up
    as a binary counter (``_carry``) and into y only where it is read.
    """
    perm, _, _, _, pivot_rows = factors
    n, rank = len(packed), len(pivot_rows)
    offset = _pack([bias] * n, width)
    if rank < n:  # M[R, C] and b[R], zero in the rows outside R
        kept = set(pivot_rows)
        b = [e if i in kept else 0 for i, e in enumerate(b)]
        keep = _pack([(1 << 8 * width) - 1 if i in kept else 0 for i in range(n)], width)
        packed = [x & keep | offset & ~keep for x in packed]  # slots outside R hold 0 + bias
    m_cols = [packed[j] - offset for j in perm[:rank]]

    # Cramer: each numerator of y is a determinant with one column of
    # M[R, C] replaced by b, so Nb = |b| * (column Hadamard bound) / (shortest column).
    nb = math.isqrt(math.prod(norms) * sum(map(mul, b, b)) // min(norms, default=1)) + 1
    modulus, steps = p, 1
    while modulus <= 2 * nb * h:
        modulus *= p
        steps += 1

    residual = _pack([e + bias for e in b], width) - offset
    solution, digits, modulus, read = [0] * rank, [], 1, 1  # y mod read, and the digits since
    for k in range(1, steps + 1):
        y = _solve_mod(factors, residual + offset, p, width)
        digits.append((y, p))
        _carry(digits, False)
        modulus *= p
        residual = (residual - sum(map(mul, y, m_cols))) // p
        if k < steps and (not early or k & k - 1):
            continue
        _carry(digits, True)
        solution = [s + c * read for s, c in zip(solution, digits.pop()[0])]
        read = modulus
        half = modulus // 2
        num_bound, den_bound = (nb, h) if k == steps else (math.isqrt(half),) * 2
        denom = 1
        try:
            for s in solution:
                u = denom * s % modulus
                if min(u, modulus - u) > num_bound:
                    denom *= _reconstruct_denominator(u, modulus, num_bound, den_bound)
        except ArithmeticError:
            if k == steps:
                raise
        else:
            numerators = (denom * s % modulus for s in solution)
            yield denom, (u - modulus if u > half else u for u in numerators)


def _carry(digits: list, whole: bool) -> None:
    """Add up the top two of ``digits``, pairs (v, p^k) of the vectors v of k
    p-adic digits, lowest first, while they hold as many digits or, when
    ``whole``, until one is left: as in a binary counter, each addition has
    operands of equal length, and the digits are held in a few long ints."""
    while len(digits) > 1 and (whole or digits[-1][1] == digits[-2][1]):
        (low, power), (high, high_power) = digits[-2:]
        digits[-2:] = [([a + b * power for a, b in zip(low, high)], power * high_power)]


def _checked_solution(product: Callable[[Sequence[int]], list], packed: Sequence[int],
                      factors: tuple, b: Sequence[int], p: int, width: int, bias: int, h: int,
                      norms: Sequence[int]) -> Optional[tuple[int, list]]:
    """(D, v) for the solution y of M[R, C] y = b[R] (``_lift``, with its
    ``packed``, h and ``norms``; D the lcm of y's denominators): v[C] = D * y
    and 0 elsewhere, at the first of ``_lift``'s reconstructions, after 1,
    2, 4, ... digits, with M v = D b exactly on every row of M, ``product(v)``;
    else None."""
    for d, numerators in _lift(packed, factors, b, p, width, bias, h, norms, early=True):
        v = [0] * len(packed)
        for j, e in zip(factors[0], numerators):
            v[j] = e
        if product(v) == [d * e for e in b]:
            return d, v
    return None


def _pack(values: Sequence[int], width: int) -> int:
    """Nonnegative values below 256**width as the slots of one int, so
    that adding multiples of packed vectors updates every slot at once."""
    return int.from_bytes(b"".join(map(int.to_bytes, values, repeat(width), repeat("little"))),
                          "little")


def _slot_reducer(p: int, width: int, n: int) -> Callable[[int], int]:
    """The function that reduces each of the n slots of ``width`` bytes of a
    packed int mod p, on the int itself, for p = 2^30 - c with 0 < c < 2^28.

    A fold ``(x & LO) + c * ((x >> 30) & HI)``, LO and HI masking each
    slot's low 30 bits and the rest, keeps each slot's residue (2^30 = c mod
    p) and fits it in its slot. Folds are counted from the bound
    256**width - 1, a fold taking a bound b to 2^30 - 1 + c * (b >> 30),
    until every slot is below 2p, which c < 2^28 makes reachable; a slot v
    is then at least p just when v + c reaches bit 30, and one packed
    subtraction of p there leaves every slot below p.
    """
    c = (1 << 30) - p
    if not 0 < c < 1 << 28:
        raise ValueError(f"the packed reduction needs 2^30 - 2^28 < p < 2^30, not p = {p}")
    bits, digit = 8 * width, (1 << 30) - 1
    ones = ((1 << bits * n) - 1) // ((1 << bits) - 1)
    low, high, carry = ones * digit, ones * ((1 << bits - 30) - 1), ones * c
    folds, bound = 0, (1 << bits) - 1
    while bound >= 2 * p:
        bound = digit + c * (bound >> 30)
        folds += 1

    def reduce(x: int) -> int:
        for _ in range(folds):
            x = (x & low) + c * (x >> 30 & high)
        return x - ((x + carry) >> 30 & ones) * p
    return reduce


def _lu_mod(rows: Sequence[int], p: int, width: int) -> tuple:
    """Determinant mod p of a square integer matrix, and LU factors mod p
    with its rank profile for ``_solve_mod``: ``rows`` are packed, slots of
    ``width`` bytes, nonnegative and congruent to the entries mod p (M's
    columns plus a bias, from ``_criterion_certificate``).

    Gaussian elimination with each row packed into one int from the current
    column on, so a row update ``(x >> bits) + (p - f) * tail`` is one
    big-int multiply-add that also drops the eliminated slot ``x & mask``:
    rows shrink as they are eliminated. A row is reduced mod p only when it
    becomes the pivot row, on the packed int (``_slot_reducer``); until
    then it takes fewer than n updates of less than p^2 per slot, which
    ``_slots`` leaves room for. A column with no pivot mod p is skipped, as
    ``_bareiss`` skips it, by a shift of the active rows, and the
    determinant is then 0. The factors are the row permutation; the r
    rows of U as tails (the pivot row mod p after its pivot slot); the
    inverses of the pivots; the r rows of L, each packed last multiplier
    first; and the r pivot columns, r the rank mod p: the first r rows of
    the permutation and the pivot columns meet in a submatrix that is
    invertible mod p.
    """
    n = len(rows)
    bits = 8 * width
    mask = (1 << bits) - 1
    reduce = _slot_reducer(p, width, n)
    packed = list(rows)
    multipliers = [[] for _ in range(n)]
    perm = list(range(n))
    tails, pivot_inverses, pivot_cols = [], [], []
    det = 1
    for k in range(n):
        r = len(pivot_cols)
        for pivot_row in range(r, n):
            if (packed[pivot_row] & mask) % p:
                break
        else:
            det = 0
            packed[r:] = [x >> bits for x in packed[r:]]
            continue
        if pivot_row != r:
            for seq in (packed, multipliers, perm):
                seq[r], seq[pivot_row] = seq[pivot_row], seq[r]
            det = -det
        x = reduce(packed[r])
        pivot = x & mask
        det = det * pivot % p
        inverse = pow(pivot, -1, p)
        tails.append(tail := x >> bits)
        pivot_inverses.append(inverse)
        pivot_cols.append(k)
        for i, x in enumerate(packed[r + 1:], r + 1):
            f = (x & mask) * inverse % p
            multipliers[i].append(f)
            packed[i] = (x >> bits) + (p - f) * tail if f else x >> bits
    return det % p, (perm, tails, pivot_inverses,
                     [_pack(m[::-1], width) for m in multipliers[:len(tails)]], pivot_cols)


def _solve_mod(factors: tuple, rhs: int, p: int, width: int) -> list:
    """Solve M[R, C] y = r[R] mod p from ``_lu_mod``'s factors of M's
    transpose (see ``_lift``), P M^T = L U, that is M = U^T L^T P, and
    return y in the order of C. ``rhs`` packs r with slots that are
    nonnegative, congruent to r mod p and below 256**width - n * p^2; its
    slots outside R are never read. Both sweeps, over the tails of U and the
    reversed rows of L, read slot 0 and shift the vector down past it (and
    past the columns without a pivot), so it shrinks as they go."""
    _, tails, pivot_inverses, l_rows, pivot_cols = factors
    bits = 8 * width
    mask = (1 << bits) - 1
    v, column, w = rhs, 0, []
    for k, tail, inverse in zip(pivot_cols, tails, pivot_inverses):
        if k > column:
            v >>= bits * (k - column)
        column = k + 1
        w.append(wk := (v & mask) * inverse % p)
        v = (v >> bits) + (p - wk) * tail if wk else v >> bits
    v = _pack(w[::-1], width)
    for j in range(len(w) - 1, -1, -1):
        w[j] = zj = (v & mask) % p
        v = (v >> bits) + (p - zj) * l_rows[j] if zj else v >> bits
    return w


def _reconstruct_denominator(u: int, modulus: int, num_bound: int, den_bound: int) -> int:
    """Denominator d of the unique n/d = u mod modulus with |n| <= num_bound
    and 0 < d <= den_bound (Wang's rational reconstruction; the caller
    guarantees modulus > 2 * num_bound * den_bound)."""
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    d = abs(t1)
    if not 0 < d <= den_bound or math.gcd(r1, d) != 1:
        raise ArithmeticError("rational reconstruction failed: a lifting bound is wrong")
    return d


def _common_scale(numerators: Sequence[Sequence[int]], scales: Sequence[int]) -> tuple[list, int]:
    """Integer rows N_i over scales d_i brought to their lcm s: N_i s / d_i, and s."""
    s = math.lcm(*scales)
    return [[e * (s // d) for e in row] if d < s else row for row, d in zip(numerators, scales)], s


def _bareiss(m: list) -> tuple[list, int]:
    """Fraction-free (Bareiss) reduction of integer rows in place, the one
    exact echelon routine here: returns the pivot columns and the last pivot
    (1 if none). Pivots are first nonzero entries in column order, a column
    with none is skipped, and entries stay minors of the input, so every
    division by the previous pivot is exact. It clears below and above each
    pivot: rows end as last pivot x RREF."""
    height = len(m)
    pivots, prev = [], 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot_row = next((i for i in range(r, height) if m[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        mr = m[r]
        pivot = mr[c]
        tail = mr[c:]
        for mi in m[r + 1:]:
            f = mi[c]
            if f:
                mi[c:] = [(a * pivot - f * b) // prev for a, b in zip(mi[c:], tail)]
            elif pivot != prev:
                mi[c:] = [a * pivot // prev for a in mi[c:]]
        for mi, lo in zip(m, pivots):  # a row above is zero left of its own pivot, not of c
            f = mi[c]
            mi[lo:] = [(a * pivot - f * b) // prev for a, b in zip(mi[lo:], mr[lo:])]
        pivots.append(c)
        prev = pivot
    return pivots, prev


class Matrix:
    """Immutable dense matrix of exact rationals, row-major.

    Row-vector convention: vectors are 1-by-n matrices acting on the left
    (``v * m``); the column vector corresponding to ``v`` is ``v.T``.
    Indices are 0-based at this level; modules that talk about states or
    multi-indices use 1-based labels and translate.
    """

    __slots__ = ("rows", "cols", "data", "_integer")

    def __init__(self, rows: int, cols: int, entries: Iterable[ScalarLike]):
        data = tuple(as_scalar(e) for e in entries)
        if len(data) != rows * cols:
            raise ValueError(
                f"need {rows * cols} entries for a {rows}x{cols} matrix, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def _canonical(cls, rows: int, cols: int, data: Optional[Iterable[Scalar]] = None,
                   integer: Optional[tuple[list, list]] = None) -> "Matrix":
        """A matrix of ``data``, entries that are already canonical scalars,
        or held as ``integer``, integer rows over positive row scales, until
        ``.data`` is first read. Nothing is parsed or checked."""
        m = object.__new__(cls)
        m.rows, m.cols = rows, cols
        if data is not None:
            m.data = tuple(data)
        if integer is not None:
            m._integer = integer
        return m

    def __getattr__(self, name: str):
        # Runs only when a slot is unset: the entries of a matrix held as
        # integer rows, or the integer rows of one built from its entries,
        # over the lcms of their denominators; either is built on first
        # read and kept.
        if name == "data":
            numerators, scales = self._integer
            self.data = tuple(_ratio(e, d) for row, d in zip(numerators, scales) for e in row)
            return self.data
        if name == "_integer":
            rows = [self.row(i) for i in range(self.rows)]
            scales = [math.lcm(*(e.denominator for e in row)) for row in rows]
            self._integer = ([[e.numerator * (d // e.denominator) for e in row] if d > 1 else row
                              for row, d in zip(rows, scales)], scales)
            return self._integer
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[ScalarLike]]) -> "Matrix":
        if not rows:
            raise ValueError("matrix needs at least one row")
        ncols = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError(f"ragged rows: row {i + 1} has {len(row)} entries, expected {ncols}")
        return cls(len(rows), ncols, [e for row in rows for e in row])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def diagonal(cls, values: Sequence[ScalarLike]) -> "Matrix":
        n = len(values)
        entries = [0] * (n * n)
        for i, v in enumerate(values):
            entries[i * n + i] = v
        return cls(n, n, entries)

    @classmethod
    def row_vector(cls, values: Sequence[ScalarLike]) -> "Matrix":
        return cls(1, len(values), list(values))

    @classmethod
    def column_vector(cls, values: Sequence[ScalarLike]) -> "Matrix":
        return cls(len(values), 1, list(values))

    # -- access -------------------------------------------------------

    def __getitem__(self, key: tuple) -> Scalar:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {key} out of range for {self.rows}x{self.cols} matrix")
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range for {self.rows}x{self.cols} matrix")
        return self.data[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range for {self.rows}x{self.cols} matrix")
        return self.data[j :: self.cols]

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def T(self) -> "Matrix":
        data, cols = self.data, self.cols
        return Matrix._canonical(cols, self.rows, [e for j in range(cols) for e in data[j::cols]])

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other, "add")
        return self._entrywise(a + b for a, b in zip(self.data, other.data))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other, "subtract")
        return self._entrywise(a - b for a, b in zip(self.data, other.data))

    def __neg__(self) -> "Matrix":
        return Matrix._canonical(self.rows, self.cols, [-a for a in self.data])

    def _entrywise(self, values: Iterable[Scalar]) -> "Matrix":
        """A matrix of this shape from ``values``, sums or products of exact
        scalars: each needs only its integral Fraction made an int."""
        return Matrix._canonical(self.rows, self.cols,
                                 [e.numerator if e.denominator == 1 else e for e in values])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            # Integer rows of self over d_i; other's rows over one common s;
            # entry (i, j) is one integer dot product over d_i * s.
            right, s = _common_scale(*other._integer)
            cols = list(zip(*right)) if right else [()] * other.cols
            entries = []
            for row, d in zip(*self._integer):
                d *= s
                dots = [sum(map(mul, row, c)) for c in cols]
                entries += dots if d == 1 else [_ratio(e, d) for e in dots]
            return Matrix._canonical(self.rows, other.cols, entries)
        if isinstance(other, (int, Fraction)):
            return self._entrywise(a * other for a in self.data)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._entrywise(other * a for a in self.data)
        return NotImplemented

    def __pow__(self, exponent: int) -> "Matrix":
        if not self.is_square:
            raise ValueError("matrix power needs a square matrix")
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Matrix.identity(self.rows)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    def __hash__(self) -> int:
        # safe on canonical entries: hash(Fraction(k)) == hash(k) for ints k
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        rows = [" ".join(scalar_str(e) for e in self.row(i)) for i in range(self.rows)]
        return "Matrix[" + "; ".join(rows) + "]"

    def _same_shape(self, other: "Matrix", verb: str) -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"cannot {verb} {self.rows}x{self.cols} and {other.rows}x{other.cols} matrices"
            )

    # -- scalar-valued queries -----------------------------------------

    def trace(self) -> Scalar:
        if not self.is_square:
            raise ValueError("trace needs a square matrix")
        return sum(self.data[i * self.cols + i] for i in range(self.rows))

    def is_nonnegative(self) -> bool:
        return all(a >= 0 for a in self.data)

    def row_sums(self) -> tuple:
        return tuple(sum(self.row(i)) for i in range(self.rows))

    def is_stochastic(self) -> bool:
        """Nonnegative with every row summing to exactly 1."""
        return self.is_square and self.is_nonnegative() and all(s == 1 for s in self.row_sums())

    def det(self) -> Scalar:
        """Exact determinant: the ``integer_det`` of the integer rows (one LU
        mod p of ``_criterion_certificate``, lifted) over the product of
        their scales."""
        if not self.is_square:
            raise ValueError("determinant needs a square matrix")
        numerators, scales = self._integer
        return exact_div(integer_det(numerators), math.prod(scales))

    def integer_rows(self) -> tuple[list, list]:
        """Each row as integer numerators over a positive row scale, the lcm
        of its denominators unless the matrix was built as integer rows: new
        lists of the numerator rows and of the scales, in row order."""
        numerators, scales = self._integer
        return [list(row) for row in numerators], list(scales)

    # -- elimination --------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple]:
        """Reduced row-echelon form and the tuple of pivot columns: the
        integer rows (row scaling leaves the form alone) reduced by
        ``_bareiss``, one Fraction per output entry. The form is unique, so
        it doubles as a canonical form for fixture comparisons."""
        m, _ = self.integer_rows()
        pivots, scale = _bareiss(m)
        return (Matrix._canonical(self.rows, self.cols, [_ratio(e, scale) for row in m for e in row]),
                tuple(pivots))
