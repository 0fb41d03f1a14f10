import itertools
import math
import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_same_entries, cofactor_det
from oracles import (determinant_oracle, left_null_space_oracle, null_space_oracle,
                     product_oracle, rank_oracle, rref_oracle)
from zeonmarkov import linalg
from zeonmarkov.linalg import Matrix, PRIMES, as_scalar, exact_div, integer_det, scalar_str
from zeonmarkov.markov import StochasticMatrix, is_quasi_positive, wielandt_bound
from zeonmarkov.zeon import zeon_power

F = Fraction


def random_matrix(rng, rows, cols, lo=-4, hi=4, max_den=4):
    return Matrix(rows, cols,
                  [F(rng.randint(lo, hi), rng.randint(1, max_den))
                   for _ in range(rows * cols)])


# -- scalars ------------------------------------------------------------


def test_as_scalar_parses_exact_literals():
    assert as_scalar("7") == 7 and isinstance(as_scalar("7"), int)
    assert as_scalar("-3/4") == F(-3, 4)
    assert as_scalar("0.25") == F(1, 4)
    assert as_scalar(F(2, 1)) == 2 and isinstance(as_scalar(F(2, 1)), int)


def test_as_scalar_rejects_floats_and_junk():
    with pytest.raises(TypeError):
        as_scalar(0.25)
    with pytest.raises(ValueError):
        as_scalar("one half")
    with pytest.raises(ValueError):
        as_scalar("1/0")


class _FullRoute(str):
    """A literal that ``parse_literal`` cannot read as plain ASCII digits, so
    it takes the ``Fraction`` route that every other string takes."""

    def isascii(self):
        return False


def _outcome(parse, text):
    """The type and value of parse(text), or the type and message of its error."""
    try:
        value = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), value


def _assert_same_as_full_route(text):
    for parse in (linalg.parse_literal, as_scalar):
        assert _outcome(parse, text) == _outcome(parse, _FullRoute(text))


@given(st.text(alphabet="0123456789/+-._eE \u0663", max_size=12))
def test_parse_literal_matches_the_fraction_route(text):
    _assert_same_as_full_route(text)


@pytest.mark.parametrize("text", ["7" * 4301, "1/" + "7" * 4301, "1/0", "0/7", "007/014", "+1/2",
                                  " 1/2 ", "1_0/20", "\u0663/4", "0.5", "5e-1", "12/8", "0"])
def test_parse_literal_named_cases_match_the_fraction_route(text):
    _assert_same_as_full_route(text)


def test_parse_literal_reads_plain_digits_to_lowest_terms():
    assert linalg.parse_literal("007/014") == (1, 2)
    assert linalg.parse_literal("0/7") == (0, 1)
    assert linalg.parse_literal("12") == (12, 1)
    assert as_scalar("12/8") == F(3, 2) and as_scalar("12/4") == 3
    for text in ["7" * 4301, "1/" + "7" * 4301]:
        with pytest.raises(ValueError, match=r"^an integer of 4301 digits exceeds the 4300-digit "
                                             r"limit: '(7{20}|1/7{18})'\.\.\.$"):
            linalg.parse_literal(text)
    with pytest.raises(ValueError, match="^not an exact rational literal: '1/0'$"):
        linalg.parse_literal("1/0")


def test_exact_div():
    assert exact_div(1, 2) == F(1, 2)
    assert exact_div(F(3, 4), F(3, 4)) == 1


# -- construction and product ---------------------------------------------


def test_ragged_rows_rejected():
    with pytest.raises(ValueError, match="ragged"):
        Matrix.from_rows([[1, 2], [3]])


def test_identity_neutral(examples):
    a = examples[1]
    assert Matrix.identity(3) * a == a
    assert a * Matrix.identity(3) == a


def test_example1_square():
    a = Matrix.from_rows([[F(1, 4), F(1, 4), F(1, 2)],
                          [F(1, 4), F(1, 4), F(1, 2)],
                          [0, 0, 1]])
    square = a * a
    # frozen from hand multiplication of the 3x3 fixture
    assert square == Matrix.from_rows([[F(1, 8), F(1, 8), F(3, 4)],
                                       [F(1, 8), F(1, 8), F(3, 4)],
                                       [0, 0, 1]])
    assert square[2, 0] == 0


def test_permutation_column_swap():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    p = Matrix.from_rows([[0, 1], [1, 0]])
    assert a * p == Matrix.from_rows([[2, 1], [4, 3]])


def test_product_shape_mismatch():
    with pytest.raises(ValueError):
        Matrix.zeros(2, 3) * Matrix.zeros(2, 3)


def test_product_associative():
    rng = random.Random(11)
    for _ in range(20):
        a = random_matrix(rng, 3, 4)
        b = random_matrix(rng, 4, 2)
        c = random_matrix(rng, 2, 5)
        assert (a * b) * c == a * (b * c)


def test_product_matches_the_fraction_triple_loop():
    # 1 x k, k x 1 and rectangular shapes; integer, mixed and negative
    # entries; denominators up to 10^30, so row scales differ widely
    rng = random.Random(12)
    kinds = [(3, 1), (10**6, 1), (5, 12), (10**6, 10**30)]
    shapes = [(1, 5, 4), (4, 5, 1), (1, 6, 1), (5, 1, 5), (3, 7, 2), (2, 3, 6), (6, 6, 6)]
    kinds_seen = set()
    for trial in range(120):
        r, inner, c = shapes[trial % len(shapes)]
        (bound_a, den_a), (bound_b, den_b) = rng.choice(kinds), rng.choice(kinds)
        a = random_matrix(rng, r, inner, -bound_a, bound_a, den_a)
        b = random_matrix(rng, inner, c, -bound_b, bound_b, den_b)
        kinds_seen.add((den_a > 1, den_b > 1))
        assert_same_entries(a * b, product_oracle(a, b))
    assert kinds_seen == {(False, False), (False, True), (True, False), (True, True)}


def test_sums_and_scalar_products_match_the_parsed_constructor():
    # integral results (entries that cancel, a scalar that clears every
    # denominator) must be ints, as Matrix(...) parses them; denominators up
    # to 10^30, and the negation of a held compound's entries
    rng = random.Random(13)
    kinds = [(3, 1), (10**6, 1), (5, 12), (10**6, 10**30)]
    for trial in range(80):
        (bound_a, den_a), (bound_b, den_b) = rng.choice(kinds), rng.choice(kinds)
        a = random_matrix(rng, 3, 4, -bound_a, bound_a, den_a)
        b = random_matrix(rng, 3, 4, -bound_b, bound_b, den_b)
        cancel = Matrix(3, 4, [rng.randint(-9, 9) - e for e in a.data])
        scalars = [rng.randint(-9, 9), Fraction(rng.randint(-10**30, 10**30), rng.randint(1, den_b)),
                   Fraction(math.lcm(*(Fraction(e).denominator for e in a.data)), 1)]
        cases = [(a + b, [x + y for x, y in zip(a.data, b.data)]),
                 (a - b, [x - y for x, y in zip(a.data, b.data)]),
                 (a + cancel, [x + y for x, y in zip(a.data, cancel.data)]),
                 (a - a, [0] * 12), (-a, [-x for x in a.data])]
        for scalar in scalars:
            cases += [(a * scalar, [x * scalar for x in a.data]),
                      (scalar * a, [scalar * x for x in a.data])]
        for result, values in cases:
            assert_same_entries(result, Matrix(3, 4, values))
        assert all(type(e) is int for e in (a * scalars[2]).data)
        assert all(type(e) is int for e in (a + cancel).data)
    held = zeon_power(random_matrix(rng, 4, 4, 1, 9, 7), 2)
    assert_same_entries(-held, Matrix(6, 6, [-e for e in held.data]))


def test_a_matrix_built_from_entries_makes_its_integer_rows_once(monkeypatch):
    # the rows are kept by the matrix itself, with no validated chain around it
    builds = []
    getattr_ = Matrix.__getattr__

    def counting(self, name):
        if name == "_integer":
            builds.append(self)
        return getattr_(self, name)

    monkeypatch.setattr(Matrix, "__getattr__", counting)
    m = Matrix.from_rows([[Fraction(1, 3), Fraction(-5, 6)], [Fraction(7, 4), 2]])
    first = m.integer_rows()
    assert m.integer_rows() == first == ([[2, -5], [7, 8]], [6, 4])
    assert sum(b is m for b in builds) == 1


def test_product_over_a_zero_inner_dimension_is_the_zero_matrix():
    product = Matrix(2, 0, []) * Matrix(0, 3, [])
    assert_same_entries(product, Matrix.zeros(2, 3))
    assert product.data == (0,) * 6
    assert_same_entries(Matrix(0, 2, []) * Matrix(2, 3, [1] * 6), Matrix(0, 3, []))


def test_row_and_column_refuse_an_index_out_of_range():
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert (m.row(2), m.column(0)) == ((7, 8, 9), (1, 4, 7))
    for read, index in [(m.row, 3), (m.row, -1), (m.column, 5), (m.column, 3), (m.column, -1)]:
        with pytest.raises(IndexError, match=f"{index} out of range for 3x3 matrix"):
            read(index)
    with pytest.raises(IndexError, match=r"index \(3, 0\) out of range for 3x3 matrix"):
        m[3, 0]


# -- determinant ----------------------------------------------------------


def test_det_identity():
    assert Matrix.identity(3).det() == 1


def test_det_non_square():
    with pytest.raises(ValueError):
        Matrix.zeros(2, 3).det()


def test_det_matches_cofactor_oracle():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        assert m.det() == cofactor_det(m)


def test_det_multiplicative():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        assert (a * b).det() == a.det() * b.det()


@given(st.lists(st.integers(-9, 9), min_size=9, max_size=9),
       st.lists(st.integers(-9, 9), min_size=9, max_size=9))
def test_det_multiplicative_int_matrices(xs, ys):
    a = Matrix(3, 3, xs)
    b = Matrix(3, 3, ys)
    assert (a * b).det() == a.det() * b.det()


def test_det_singular():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.det() == 0


def _det_cases(rng):
    # seeded integer and Fraction matrices of 0 to 12 rows, every third
    # singular, each with its determinant by fraction-free elimination of the
    # rows over the lcm L of every denominator, det = det(L A) / L^n
    for trial in range(78):
        n = trial % 13
        den = 1 if trial % 2 else rng.choice([2, 12, 10**6])
        entries = [[F(rng.randint(-50, 50), rng.randint(1, den)) for _ in range(n)]
                   for _ in range(n)]
        if n >= 2 and trial % 3 == 0:
            entries[-1] = [2 * a - b for a, b in zip(entries[0], entries[1])]
        scale = math.lcm(*(e.denominator for row in entries for e in row))
        expected = F(determinant_oracle([[int(e * scale) for e in row] for row in entries]),
                     scale ** n)
        yield Matrix(n, n, [e for row in entries for e in row]), as_scalar(expected)


def test_det_takes_the_certificate_route(monkeypatch):
    # Matrix.det is integer_det's LU mod p, lifted: one _criterion_certificate,
    # at least one LU from 2 x 2 on, and no _bareiss elimination
    calls = _count_routes(monkeypatch)
    certificates = []
    certificate = linalg._criterion_certificate

    def counted_certificate(rows, *args, **kwargs):
        certificates.append(len(rows))
        return certificate(rows, *args, **kwargs)

    monkeypatch.setattr(linalg, "_criterion_certificate", counted_certificate)
    zeros = 0
    for m, expected in _det_cases(random.Random(83)):
        if m.rows <= 5:
            assert cofactor_det(m) == expected
        calls.update(bareiss=0, primes=[])
        certificates.clear()
        det = m.det()
        assert det == expected and type(det) is type(expected)
        assert certificates == [m.rows] and calls["bareiss"] == 0
        assert bool(calls["primes"]) == (m.rows >= 2)
        zeros += det == 0
    assert zeros >= 20
    p, q = PRIMES[:2]
    calls.update(bareiss=0, primes=[])
    assert Matrix.diagonal([p * q, 1]).det() == p * q
    assert calls == {"bareiss": 0, "primes": list(PRIMES[:3])}


# -- integer determinants ------------------------------------------------


def test_integer_det_matches_bareiss_on_seeded_matrices():
    rng = random.Random(31)
    for trial in range(300):
        n = trial % 9
        bound = rng.choice([1, 3, 50, 10**6, 10**30])
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if n >= 2 and trial % 5 == 0:
            rows[-1] = [3 * e for e in rows[0]]  # singular
        assert integer_det(rows) == determinant_oracle(rows)
    assert integer_det([]) == 1
    assert integer_det([[-7]]) == -7
    assert integer_det([[0]]) == 0


def test_primes_are_distinct_descending_and_cover_a_120_bit_cofactor():
    assert len(set(PRIMES)) == len(PRIMES) == 4
    assert list(PRIMES) == sorted(PRIMES, reverse=True)
    for p in PRIMES:  # trial division
        assert p > 2 and all(p % d for d in range(2, math.isqrt(p) + 1))
    assert math.prod(PRIMES) > 2**119


@pytest.mark.skipif(sys.int_info.bits_per_digit != 30, reason="ints are not stored in 30-bit digits")
def test_each_prime_is_one_int_digit():
    # below 1 << 30: one CPython digit, so the kernel's multipliers and
    # divisors are one-digit operands
    assert all(p < 1 << 30 for p in PRIMES)


def _factor_cases(rng):
    """Square integer matrices, each with its column that has no pivot mod p
    and the prime whose LU must swap rows (each None if there is none): full
    rank; a column that is a combination of the earlier ones, first, in the
    middle and last; and a first entry that is 0 mod p but not 0."""
    for n in (1, 2, 5, 9):
        for bound in (3, 10**6, 10**30):
            rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            yield rows, None, None
            for skipped in sorted({0, n // 2, n - 1}):
                dependent = [rng.randint(-3, 3) for _ in range(skipped)]
                combination = [sum(c * e for c, e in zip(dependent, row)) for row in rows]
                yield [row[:skipped] + [e] + row[skipped + 1:]
                       for row, e in zip(rows, combination)], skipped, None
            for p in PRIMES:
                swapped = [row[:] for row in rows]
                swapped[0][0] = p * rng.choice([-1, 1]) * rng.randint(1, bound)
                yield swapped, None, p


def test_lu_mod_factors_give_the_determinant_and_solve_mod_p():
    rng = random.Random(59)
    swaps = 0
    for rows, skipped, swap_prime in _factor_cases(rng):
        n = len(rows)
        for p in PRIMES:
            width, bias = linalg._slots(linalg._dense(rows).bound, len(rows), p)
            det_p, factors = linalg._lu_mod(_packed(rows, width, bias), p, width)
            assert det_p == determinant_oracle(rows) % p
            perm, _, _, _, pivot_cols = factors
            if skipped is not None:
                assert pivot_cols == [k for k in range(n) if k != skipped]
            if swap_prime == p and n > 1:
                assert perm[0] != 0
                swaps += 1
            # the factors are of M's transpose: M[R, C] has M[i][perm[t]] = rows[perm[t]][i]
            for _ in range(3):
                r = [rng.randrange(4 * p) for _ in range(n)]
                y = linalg._solve_mod(factors, linalg._pack(r, width), p, width)
                assert len(y) == len(pivot_cols)
                assert all((sum(rows[j][i] * e for j, e in zip(perm, y)) - r[i]) % p == 0
                           for i in pivot_cols)
    assert swaps == 3 * 3 * len(PRIMES)


def test_slot_reducer_reduces_every_slot_mod_p():
    # the packed folds and conditional subtraction against % p slot by slot:
    # PRIMES and the next primes below them; every width _slots gives for N in
    # 1..5, 45, 153 and 1225 with row sums 1, 2^64 and 2^200; rows of every
    # length up to the n the masks were built for
    rng = random.Random(79)
    primes = list(PRIMES) + list(itertools.islice(linalg._primes_below(PRIMES[-1]), 4))
    widths = {linalg._slots(s, size, PRIMES[0])[0]
              for size in (1, 2, 3, 4, 5, 45, 153, 1225) for s in (1, 2**64, 2**200)}
    assert widths == {8, 9, 10, 26}
    for p in primes:
        c = 2**30 - p
        for width in sorted(widths):
            named = [0, p - 1, p, 2 * p - 1, 256**width - 1, 2**30 - 1 + c]
            values = named + [rng.randrange(256**rng.randint(1, width)) for _ in range(40)]
            for n in (1, 2, 7):
                reduce = linalg._slot_reducer(p, width, n)
                for start in range(0, len(values), n):
                    for length in range(1, n + 1):
                        slots = values[start:start + length]
                        assert reduce(linalg._pack(slots, width)) == linalg._pack(
                            [v % p for v in slots], width), (p, width, slots)


@pytest.mark.parametrize("p", [2**29 - 3, 2**29, 2**29 + 11, 3 * 2**28, 2**30, 2**30 + 3, 3])
def test_slot_reducer_refuses_a_prime_it_cannot_reduce(p):
    # p <= 2^29 breaks the final conditional subtraction, and c >= 2^28 the fold count
    with pytest.raises(ValueError, match="2\\^30 - 2\\^28 < p < 2\\^30"):
        linalg._slot_reducer(p, 9, 3)


def _packed(rows, width, bias):
    # the rows packed as _criterion_certificate packs M's columns
    return [linalg._pack([e + bias for e in row], width) for row in rows]


def test_lu_mod_packs_no_pivot_row(monkeypatch):
    # each pivot row is reduced mod p on its packed int: the only _pack calls
    # are the L rows of the factors, one per pivot, made after the elimination
    rng = random.Random(73)
    calls = []
    pack = linalg._pack
    monkeypatch.setattr(linalg, "_pack", lambda values, width: calls.append(list(values)) or
                        pack(values, width))
    for rows, _, _ in _factor_cases(rng):
        p = PRIMES[0]
        width, bias = linalg._slots(linalg._dense(rows).bound, len(rows), p)
        packed = _packed(rows, width, bias)
        calls.clear()
        _, factors = linalg._lu_mod(packed, p, width)
        assert len(calls) == len(factors[1])
        assert [pack(values, width) for values in calls] == factors[3]


def test_integer_det_rejects_non_square():
    with pytest.raises(ValueError):
        integer_det([[1, 2]])


def _count_routes(monkeypatch):
    # the exact eliminations (_bareiss) and the primes of the LUs
    calls = {"bareiss": 0, "primes": []}
    bareiss, lu_mod = linalg._bareiss, linalg._lu_mod

    def counting_bareiss(m):
        calls["bareiss"] += 1
        return bareiss(m)

    def counting_lu_mod(rows, p, width):
        calls["primes"].append(p)
        return lu_mod(rows, p, width)

    monkeypatch.setattr(linalg, "_bareiss", counting_bareiss)
    monkeypatch.setattr(linalg, "_lu_mod", counting_lu_mod)
    return calls


def test_integer_det_retries_each_prime_dividing_det_with_the_next_below(monkeypatch):
    # det = d != 0 with d mod p = 0 fails the kernel check mod p; the LU mod
    # the next prime below proves the determinant, unless that prime divides d
    # as well, and so on; no exact elimination runs
    calls = _count_routes(monkeypatch)
    p, q, r = PRIMES[:3]
    for d, primes in [(q, [p]), (p, [p, q]), (p * q, [p, q, r]), (p * q * r, list(PRIMES))]:
        for rows in ([[d, 0], [0, 1]], [[d, 2, 3], [0, 1, 4], [0, 0, 1]]):
            calls.update(bareiss=0, primes=[])
            assert integer_det(rows) == d
            assert calls == {"bareiss": 0, "primes": primes}


def test_integer_det_large_cofactor_uses_more_primes(monkeypatch):
    # x = b / 2, so D = 2 and the cofactor 2^39 needs a second prime
    calls = _count_routes(monkeypatch)
    assert integer_det([[2 if i == j else 0 for j in range(40)] for i in range(40)]) == 2**40
    assert calls == {"bareiss": 0, "primes": list(PRIMES[:2])}


def test_integer_det_cofactor_beyond_the_first_primes_takes_further_primes(monkeypatch):
    # the cofactor det/D is 2^149 for 2 I (D = 2) and P for diag(P, P) (D = P),
    # P a product of three primes above 2^60: more bits than PRIMES[1:] hold,
    # so the CRT goes on with the next primes below them, and no exact
    # elimination runs
    calls = _count_routes(monkeypatch)
    assert integer_det([[2 if i == j else 0 for j in range(150)] for i in range(150)]) == 2**150
    assert calls == {"bareiss": 0, "primes": list(PRIMES) + [1073741719, 1073741717]}
    big = (2**61 - 1) * (2**62 - 57) * (2**63 - 25)
    expected = determinant_oracle([[big, 0], [0, big]])  # outside the package, not counted
    calls.update(bareiss=0, primes=[])
    assert integer_det([[big, 0], [0, big]]) == expected == big**2
    assert calls["bareiss"] == 0 and len(calls["primes"]) == 7


def test_a_certificate_whose_denominator_meets_the_bound_draws_no_prime(monkeypatch):
    # D * p > 2H: the cofactor mod p is the cofactor, and no CRT prime is
    # looked for; a 2 I of 40 states needs one, found after testing three
    # odd numbers below PRIMES[0]
    tests = []
    is_prime = linalg._is_prime
    monkeypatch.setattr(linalg, "_is_prime", lambda q: tests.append(q) or is_prime(q))
    rng = random.Random(71)
    for n in range(2, 7):
        rows = [[rng.randint(-9, 9) + (20 if i == j else 0) for j in range(n)] for i in range(n)]
        assert integer_det(rows) == determinant_oracle(rows) != 0
    assert tests == []
    assert integer_det([[2 if i == j else 0 for j in range(40)] for i in range(40)]) == 2**40
    assert tests == [PRIMES[0] - 2, PRIMES[0] - 4, PRIMES[1]]


def test_primes_below_yields_every_prime_in_descending_order():
    # deterministic Miller-Rabin (bases 2, 7, 61) against a sieve of the odd
    # numbers below 2^15, strong pseudoprimes to the bases 2, 3, 5 and 7, and a
    # segmented sieve of the 10^4 numbers below PRIMES[-1]; the primes below
    # PRIMES[0] begin with the other three of PRIMES
    limit = 1 << 15
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
    small = [q for q in range(2, limit) if sieve[q]]
    assert [q for q in range(3, limit, 2) if linalg._is_prime(q)] == small[1:]
    assert not any(map(linalg._is_prime, (2047, 3277, 4033, 4681, 8321, 1373653, 25326001,
                                         3215031751)))
    low = PRIMES[-1] - 10**4
    window = bytearray([1]) * (PRIMES[-1] - low)
    for q in small:
        start = -low % q
        window[start::q] = bytes(len(range(start, len(window), q)))
    below = [low + i for i in range(len(window) - 1, -1, -1) if window[i]]
    primes = itertools.islice(linalg._primes_below(PRIMES[0]), 3 + len(below))
    assert list(primes) == list(PRIMES[1:]) + below


def _singular_matrix(rng, n, nullity, bound):
    """An n x n integer matrix of rank at most n - nullity: random rows and
    small integer combinations of them, shuffled."""
    rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n - nullity)]
    for _ in range(nullity):
        coefficients = [rng.randint(-3, 3) for _ in rows]
        rows.append([sum(c * row[j] for c, row in zip(coefficients, rows)) for j in range(n)])
    rng.shuffle(rows)
    return rows


def _kernel_cases():
    rng = random.Random(47)
    for trial in range(120):
        nullity = 1 + trial % 3
        n = nullity + 1 + trial % 7
        yield _singular_matrix(rng, n, nullity, rng.choice([1, 3, 50, 10**6, 10**30]))
    for n in range(1, 5):
        yield [[0] * n for _ in range(n)]
    yield from ([[0]], [[5]], [[-10**30]], [[1, 2], [2, 4]], [[0, 1], [0, 0]], [[0, 0], [1, 0]],
                [[3, 7], [-2, 5]])
    row, other = [rng.randint(-10**30, 10**30) for _ in range(6)], [1, 0, 2, 0, 3, 0]
    yield [row, other, row, [2, 0, 4, 0, 6, 0], [-5 * e for e in row], [1, 1, 1, 1, 1, 1]]
    yield [row, [7 * e for e in row], other, [0, 1, 0, 1, 0, 1], row, [1, 2, 3, 4, 5, 6]]


def test_certificate_kernel_matches_the_fraction_null_space():
    nullities = set()
    for rows in _kernel_cases():
        n = len(rows)
        expected = null_space_oracle(Matrix(n, n, [e for row in rows for e in row]))
        det, kernel = linalg._criterion_certificate(rows, True)
        assert (det == 0) == bool(kernel)
        assert all(isinstance(e, int) for v in kernel for e in v)
        assert all(not any(sum(a * b for a, b in zip(row, v)) for row in rows) for v in kernel)
        canonical = Matrix.from_rows(kernel).rref()[0] if kernel else Matrix.zeros(1, n)
        assert [canonical.row(i) for i in range(len(kernel))] == expected
        nullities.add(len(kernel))
    assert nullities >= {0, 1, 2, 3, 4}


def test_certificate_check_fails_when_the_rank_drops_mod_p(monkeypatch):
    # [[d, 0], [0, 0]] has rank 1 over Q but 0 mod p | d: a kernel vector read
    # off mod p fails its exact check, and the LU mod the next prime below
    # proves the kernel, or the one after it when that prime divides d too
    p, q, r = PRIMES[:3]
    calls = _count_routes(monkeypatch)
    for d, primes in [(p, [p, q]), (p * q, [p, q, r])]:
        for size in (2, 3):
            singular = [[d] + [0] * (size - 1)] + [[0] * size for _ in range(size - 1)]
            expected = [list(v) for v in null_space_oracle(Matrix.from_rows(singular))]
            assert len(expected) == size - 1
            for whole_kernel in (True, False):
                calls.update(bareiss=0, primes=[])
                assert linalg._criterion_certificate(singular, whole_kernel) == (
                    0, expected if whole_kernel else expected[:1])
                assert calls == {"bareiss": 0, "primes": primes}
    calls.update(bareiss=0, primes=[])
    assert integer_det([[p * q, 0], [0, 0]]) == 0
    assert calls == {"bareiss": 0, "primes": [p, q, r]}


def test_a_kernel_whose_rank_drops_mod_two_primes_comes_from_the_third(monkeypatch):
    # a row that is 0 mod p and mod q drops the rank mod both primes, so the
    # whole kernel comes from the LU mod the third prime, checked on integer
    # rows: it spans the Fraction null space, with no exact elimination
    p, q = PRIMES[:2]
    calls = _count_routes(monkeypatch)

    def refuse(self):
        raise AssertionError("Fraction echelon form built")

    monkeypatch.setattr(Matrix, "rref", refuse)
    rng = random.Random(61)
    found = 0
    while found < 30:
        n = rng.randint(3, 6)
        r = rng.randint(1, n - 1)
        left = [[rng.randint(-3, 3) for _ in range(r - 1)] for _ in range(n - 1)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r - 1)]
        rows = [[p * q * rng.randint(-3, 3) for _ in range(n)]]
        rows += [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] if right else [0] * n
                 for row in left]
        if rank_oracle(Matrix.from_rows(rows)) != r or rank_oracle(Matrix.from_rows(rows[1:])) != r - 1:
            continue
        calls.update(bareiss=0, primes=[])
        det, kernel = linalg._criterion_certificate(rows, True)
        assert calls == {"bareiss": 0, "primes": [p, q, PRIMES[2]]}
        assert det == 0 and len(kernel) == n - r
        assert all(isinstance(e, int) for v in kernel for e in v)
        assert _echelon_rows(kernel) == null_space_oracle(Matrix.from_rows(rows))
        found += 1


def _echelon_rows(vectors):
    # the reduced echelon basis of the span of independent vectors, by the
    # Fraction oracle
    reduced, _ = rref_oracle(Matrix.from_rows(vectors))
    return [reduced.row(i) for i in range(reduced.rows)]


def test_certificate_without_exact_proves_a_nonzero_determinant_and_lifts_nothing(monkeypatch):
    # det M mod p != 0 proves det M != 0 (None), with no lift; a zero gives the
    # kernel as with exact; a prime that divides det != 0 retries the next
    # prime below, and the next, until one proves det M != 0
    p, q = PRIMES[:2]
    calls = _count_routes(monkeypatch)
    lifts = []
    lift = linalg._lift

    def counted_lift(*args, early):
        lifts.append(early)
        return lift(*args, early=early)

    monkeypatch.setattr(linalg, "_lift", counted_lift)
    for rows, primes in [([[3, 7], [-2, 5]], [p]), ([[p, 0], [0, 1]], [p, q]),
                         ([[p * q, 0], [0, 1]], list(PRIMES[:3]))]:
        lifts.clear()
        calls["primes"].clear()
        assert linalg._criterion_certificate(rows, True, exact=False) == (None, [])
        assert calls == {"bareiss": 0, "primes": primes}
        assert lifts == [True] * (len(primes) - 1)  # the failed kernel vectors, one per prime
    assert linalg._criterion_certificate([[1, 2], [2, 4]], True, exact=False) == (0, [[-2, 1]])


def test_carry_adds_the_p_adic_digits_as_a_binary_counter():
    rng = random.Random(61)
    p = PRIMES[0]
    for count in range(1, 20):
        vectors = [[rng.randrange(p) for _ in range(3)] for _ in range(count)]
        digits = []
        for k, v in enumerate(vectors, start=1):
            digits.append((v, p))
            linalg._carry(digits, False)
            # one entry per set bit of k, the most digits first
            assert [power for _, power in digits] == [
                p ** (1 << b) for b in reversed(range(k.bit_length())) if k >> b & 1]
        linalg._carry(digits, True)
        assert digits == [([sum(v[i] * p ** k for k, v in enumerate(vectors)) for i in range(3)],
                           p ** count)]


def test_certificate_rhs_stops_at_the_first_reconstruction_that_passes(monkeypatch):
    # y = M^-1 b for M = 10 I plus small entries: the lift stops at the first
    # reconstruction with M (D y) = D b exactly
    rng = random.Random(67)
    n = 6
    rows = [[rng.randint(-3, 3) + (10 if i == j else 0) for j in range(n)] for i in range(n)]
    rhs = [[rng.randint(-10**20, 10**20) for _ in range(n)] for _ in range(3)]
    rhs.append([sum(rows[i]) for i in range(n)])  # y = (1, ..., 1)
    digits = []
    solve_mod = linalg._solve_mod
    monkeypatch.setattr(linalg, "_solve_mod", lambda *args: digits.append(1) or solve_mod(*args))
    inverse = _inverse(Matrix(n, n, [e for row in rows for e in row]))
    for b in rhs:
        digits.clear()
        det, ((d, y),) = linalg._criterion_certificate(rows, False, exact=False, rhs=[b])
        assert det is None
        assert [Fraction(e, d) for e in y] == [
            sum(Fraction(x) * c for x, c in zip(row, b)) for row in inverse]
        # one digit for the integer solution, a power of two for the others
        assert len(digits) == 1 if b is rhs[-1] else len(digits) in (2, 4, 8)
    assert len(linalg._criterion_certificate(rows, False, exact=False, rhs=rhs)[1]) == len(rhs)
    assert linalg._criterion_certificate([[1, 2], [2, 4]], False, rhs=[[1, 1]]) == (0, [[-2, 1]])


def test_certificate_rhs_retries_a_prime_that_divides_the_determinant(monkeypatch):
    # det M = -p is 0 mod p, so the LU mod the next prime below gives the
    # solutions, each passing its exact check, and det M = -p q the one after
    # it; the exact determinant comes with the same solutions
    p, q, r = PRIMES[:3]
    calls = _count_routes(monkeypatch)
    rhs = [[1, 0], [0, 1], [p + 2, 1], [-(10**30), 7]]
    for rows, primes in [([[2, p + 2], [1, 1]], [p, q]), ([[2, p * q + 2], [1, 1]], [p, q, r])]:
        calls["primes"].clear()
        det, solved = linalg._criterion_certificate(rows, False, exact=False, rhs=rhs)
        assert det is None and calls == {"bareiss": 0, "primes": primes}
        inverse = _inverse(Matrix.from_rows(rows))
        for (d, y), b in zip(solved, rhs, strict=True):
            expected = [sum(Fraction(x) * c for x, c in zip(row, b)) for row in inverse]
            assert [Fraction(e, d) for e in y] == expected
            assert d == math.lcm(*(e.denominator for e in expected))
        assert linalg._criterion_certificate(rows, False, rhs=rhs) == (2 - rows[0][1], solved)


def test_a_failed_check_on_a_regular_lu_retries_the_next_prime(monkeypatch):
    # a solution that fails its exact check, although M is regular mod p,
    # starts again from the LU mod the next prime below, which solves it
    p, q = PRIMES[:2]
    calls = _count_routes(monkeypatch)
    checked = linalg._checked_solution
    tries = []

    def fail_first(*args):
        tries.append(args[4])
        return None if len(tries) == 1 else checked(*args)

    monkeypatch.setattr(linalg, "_checked_solution", fail_first)
    assert linalg._criterion_certificate([[10**12 + 3, 7], [-2, 5]], False, exact=False,
                                         rhs=[[1, 0]]) == (None, [(5000000000029, [5, 2])])
    assert tries == [p, q] and calls == {"bareiss": 0, "primes": [p, q]}


def test_the_primes_run_out_past_the_hadamard_bound(monkeypatch):
    # checks that fail on every prime stop once the primes tried multiply past
    # the Hadamard bound, here H = isqrt(5 * 20) = 10 < PRIMES[0]: a bound is
    # wrong, ArithmeticError
    calls = _count_routes(monkeypatch)
    monkeypatch.setattr(linalg, "_checked_solution", lambda *args: None)
    with pytest.raises(ArithmeticError, match="Hadamard bound"):
        linalg._criterion_certificate([[1, 2], [2, 4]], True)
    assert calls == {"bareiss": 0, "primes": [PRIMES[0]]}


def test_a_singular_system_is_proven_by_one_kernel_vector(monkeypatch):
    # a right-hand side changes nothing for a singular M: the first LU's free
    # column gives a kernel vector that passes its exact check, even where
    # the primes that M's Hadamard bound allows (5 10^40) would take five LUs
    p = PRIMES[0]
    calls = _count_routes(monkeypatch)
    rhs = [[1, 0], [0, 1], [p + 2, 1], [-(10**30), 7]]
    for singular in ([[1, 2], [2, 4]], [[10**40, 2 * 10**40], [1, 2]]):
        calls["primes"].clear()
        for exact in (True, False):
            det, (v,) = linalg._criterion_certificate(singular, False, exact=exact, rhs=rhs)
            assert det == 0 and any(v)
            assert all(sum(map(operator.mul, row, v)) == 0 for row in singular)
        assert calls == {"bareiss": 0, "primes": [p, p]}


def test_certificate_rhs_solves_a_one_by_one_system_in_closed_form(monkeypatch):
    # [m] y = b: D = |m| / gcd(m, b) and D y = sign(m) b / gcd(m, b), with no LU
    monkeypatch.setattr(linalg, "_lu_mod", None)
    rhs = [[b] for b in (0, 1, -1, 6, -6, 35, 10**30 + 7, -(2**90))]
    for m in (1, -1, 2, -6, 7, 14, -(10**30 + 7), 3**60):
        det, solved = linalg._criterion_certificate([[m]], False, exact=False, rhs=rhs)
        assert det == m and len(solved) == len(rhs)
        for (d, (y,)), (b,) in zip(solved, rhs):
            assert d > 0 and Fraction(y, d) == Fraction(b, m)
            assert d == Fraction(b, m).denominator  # D is the lcm of y's denominators
    assert linalg._criterion_certificate([[0]], False, rhs=rhs) == (0, [[1]])


def _inverse(m):
    # the inverse of a regular Matrix by the Fraction Gauss-Jordan oracle
    n = m.rows
    augmented = Matrix.from_rows([list(m.row(i)) + [int(i == j) for j in range(n)]
                                  for i in range(n)])
    reduced, _ = rref_oracle(augmented)
    return [reduced.row(i)[n:] for i in range(n)]


def test_integer_det_proves_a_zero_with_a_checked_kernel_vector(monkeypatch):
    calls = _count_routes(monkeypatch)
    rng = random.Random(53)
    for nullity in (1, 2, 3):
        assert integer_det(_singular_matrix(rng, 9, nullity, 10**30)) == 0
    assert integer_det([[1, 2], [2, 4]]) == 0
    assert calls == {"bareiss": 0, "primes": [PRIMES[0]] * 4}
    assert integer_det([[0]]) == 0 and integer_det([[-7]]) == -7  # the entry: no LU
    assert linalg._criterion_certificate([[0]], True) == (0, [[1]])
    assert calls == {"bareiss": 0, "primes": [PRIMES[0]] * 4}


@st.composite
def _matrices_with_unlucky_primes(draw):
    # a small square integer matrix, as drawn or with one row times p q (the
    # first two primes), or with det times p q: a row times p q plus small
    # multiples of the others, so that the row need not be 0 mod p
    n = draw(st.integers(1, 4))
    rows = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(n)]
    k = draw(st.integers(0, n - 1))
    how = draw(st.sampled_from(["as drawn", "row", "det"]))
    if how != "as drawn":
        others = [draw(st.integers(-3, 3)) if how == "det" and i != k else 0 for i in range(n)]
        rows[k] = [PRIMES[0] * PRIMES[1] * e + sum(c * row[j] for c, row in zip(others, rows))
                   for j, e in enumerate(rows[k])]
    rhs = draw(st.lists(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n),
                        min_size=1, max_size=3))
    return rows, rhs


def _no_exact_elimination(*args, **kwargs):
    raise AssertionError("exact elimination ran")


@given(_matrices_with_unlucky_primes())
def test_the_prime_routes_keep_their_contracts(case):
    # _criterion_certificate gives det M and, when it is 0, a kernel that
    # spans the null space, else for each b a (D, v) with M v = D b, D the lcm
    # of the solution's denominators; the same det and kernel with no rhs; no
    # exact elimination runs, whichever primes divide det M
    rows, rhs = case
    det = determinant_oracle(rows)
    null_space = null_space_oracle(Matrix.from_rows(rows))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_bareiss", _no_exact_elimination)
        certificate, found = linalg._criterion_certificate(rows, True, rhs=rhs)
        assert linalg._criterion_certificate(rows, True) == (det, found if det == 0 else [])
    assert certificate == det
    if det == 0:
        assert _echelon_rows(found) == null_space
    else:
        assert len(found) == len(rhs)
        for (d, v), b in zip(found, rhs):
            assert all(sum(map(operator.mul, row, v)) == d * e for row, e in zip(rows, b))
            assert d == math.lcm(*(F(e, d).denominator for e in v))


# -- null spaces ----------------------------------------------------------


def test_left_null_space_of_identity_empty():
    assert left_null_space_oracle(Matrix.identity(4)) == []


def test_left_null_space_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(30):
        m = random_matrix(rng, 4, 4, lo=-2, hi=2, max_den=2)
        basis = left_null_space_oracle(m)
        for v in basis:
            assert v * m == Matrix.zeros(1, 4)
        # echelon pivots distinct => linearly independent
        if basis:
            stacked = Matrix.from_rows([v.row(0) for v in basis])
            assert rank_oracle(stacked) == len(basis)


def test_fixed_space_of_a_stochastic_matrix_contains_the_ones():
    rng = random.Random(8)
    from zeonmarkov.markov import random_stochastic
    for _ in range(20):
        a = random_stochastic(rng, 4).matrix
        basis = null_space_oracle(a - Matrix.identity(4))
        u = Matrix.column_vector([1, 1, 1, 1])
        assert (a - Matrix.identity(4)) * u == Matrix.zeros(4, 1)
        stacked = Matrix.from_rows(basis + [[1, 1, 1, 1]])
        assert rank_oracle(stacked) == len(basis)


def test_rref_canonical():
    m = Matrix.from_rows([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    reduced, pivots = m.rref()
    assert pivots == (0, 1)
    assert reduced == Matrix.from_rows([[1, 0, -1], [0, 1, 2], [0, 0, 0]])


def test_scalar_str_beyond_the_int_str_digit_limit():
    big = 10**5000 + 12345
    tail = "0" * 4995 + "12345"
    assert scalar_str(big) == "1" + tail
    assert scalar_str(-big) == "-1" + tail
    assert scalar_str(F(-7, big)) == "-7/1" + tail
    assert scalar_str(F(big, 1)) == "1" + tail
    assert scalar_str(F(6, 3)) == "2" and scalar_str(F(-3, 4)) == "-3/4"


# -- the fraction-free elimination against the Fraction Gauss-Jordan --------


def _elimination_results(m):
    reduced, pivots = m.rref()
    return [type(e) for e in reduced.data], reduced, pivots


def _elimination_cases():
    rng = random.Random(43)
    shapes = [(3, 7), (7, 3), (5, 5), (1, 6), (6, 1), (1, 1), (4, 4), (2, 9)]
    for trial in range(160):
        rows, cols = shapes[trial % len(shapes)]
        bound, den = rng.choice([(3, 1), (3, 12), (10**30, 1), (10**30, 10**30), (50, 7)])
        entries = [[F(rng.randint(-bound, bound), rng.randint(1, den))
                    if rng.random() < 0.7 else 0 for _ in range(cols)] for _ in range(rows)]
        if rows >= 3 and trial % 3 == 0:  # rank-deficient
            entries[-1] = [2 * a - b * F(1, 3) for a, b in zip(entries[0], entries[1])]
        yield Matrix.from_rows(entries)
    for rows, cols in [(3, 4), (1, 1), (1, 5), (5, 1), (4, 4)]:
        yield Matrix.zeros(rows, cols)


def test_elimination_matches_the_fraction_gauss_jordan(monkeypatch):
    for m in _elimination_cases():
        with monkeypatch.context() as patch:
            patch.setattr(Matrix, "rref", rref_oracle)
            expected = _elimination_results(m)
        assert _elimination_results(m) == expected


def test_bareiss_reduce_leaves_the_last_pivot_times_the_rref():
    m = [[0, 2, 4, 1], [3, 1, 1, 0], [3, 3, 5, 1]]
    reduced, _ = rref_oracle(Matrix.from_rows(m))
    pivots, scale = linalg._bareiss(m)
    assert pivots == [0, 1]
    assert Matrix.from_rows(m) == reduced * scale
    m = [[0, 1], [0, 2]]  # a column with no pivot is skipped
    assert linalg._bareiss(m) == ([1], 1) and m == [[0, 1], [0, 0]]


# -- powers ---------------------------------------------------------------


def test_power_zero_is_identity(examples):
    assert examples[1] ** 0 == Matrix.identity(3)


def test_period_two_permutation():
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    assert swap ** 2 == Matrix.identity(2)


def test_power_additive():
    rng = random.Random(10)
    for _ in range(15):
        m = random_matrix(rng, 3, 3, lo=-2, hi=2, max_den=2)
        a, b = rng.randint(0, 4), rng.randint(0, 4)
        assert m ** (a + b) == (m ** a) * (m ** b)


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        Matrix.identity(2) ** -1


def test_pattern_of_power_is_bool_power(examples):
    a = examples[1]
    for e in range(1, 6):
        # transient rows never reach the absorbing state's predecessors
        assert (a ** e)[2, 0] == 0 and (a ** e)[2, 1] == 0


# -- quasi-positivity: markov.is_quasi_positive on Boolean powers ---------------


def _chain(pattern):
    """The row-normalised stochastic chain with the given 0/1 pattern."""
    return StochasticMatrix(Matrix.from_rows([[F(e, sum(row)) for e in row] for row in pattern]))


def test_bool_power_all_ones_immediately():
    assert is_quasi_positive(_chain([[1, 1], [1, 1]])) == 1


def test_bool_power_parity_obstruction():
    assert is_quasi_positive(_chain([[0, 1], [1, 0]])) is None


def test_bool_power_example1_never_positive(chains):
    assert is_quasi_positive(chains[1]) is None


def test_wielandt_bound_values():
    assert wielandt_bound(1) == 1
    assert wielandt_bound(5) == 17


def test_wielandt_bound_tight():
    # the classical extremal pattern: an n-cycle plus one shortcut edge
    n = 5
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = 1
    rows[n - 1][1] = 1
    assert is_quasi_positive(_chain(rows)) == wielandt_bound(n)
