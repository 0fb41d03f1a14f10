import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import identity_sides_oracle, is_hollow_symmetric, zero_vector
from zeonmarkov.degree2 import (
    DegreeTwoVector,
    diag_correction_minus,
    diag_correction_plus,
    general_bp_identities,
    inner_product,
    integration_by_parts,
    left_action,
    left_action_components,
    mat_embed,
    right_action,
    right_action_components,
    sum_against_u,
    trace_identity_left,
    trace_identity_left_stochastic,
    trace_identity_right,
    unmat,
)
from zeonmarkov.linalg import Matrix
from zeonmarkov.markov import random_stochastic
from zeonmarkov.zeon import subset_basis, zeon_power

F = Fraction


def random_vector(rng, n, lo=-5, hi=5, max_den=4):
    return DegreeTwoVector(
        n, [F(rng.randint(lo, hi), rng.randint(1, max_den)) for _ in subset_basis(n, 2)]
    )


def random_square(rng, n, lo=-3, hi=3, max_den=3):
    return Matrix(n, n, [F(rng.randint(lo, hi), rng.randint(1, max_den))
                         for _ in range(n * n)])


# -- embedding ---------------------------------------------------------------


def test_mat_embed_explicit():
    x = DegreeTwoVector(3, [F(1, 2), 3, F(-2, 5)])
    assert mat_embed(x) == Matrix.from_rows([
        [0, F(1, 2), 3],
        [F(1, 2), 0, F(-2, 5)],
        [3, F(-2, 5), 0],
    ])


def test_mat_embed_zero():
    assert mat_embed(zero_vector(4)) == Matrix.zeros(4, 4)


def test_unmat_round_trip():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(2, 6)
        x = random_vector(rng, n)
        assert unmat(mat_embed(x)) == x
        assert is_hollow_symmetric(mat_embed(x))


def test_unmat_rejects_bad_input():
    with pytest.raises(ValueError, match="hollow"):
        unmat(Matrix.identity(3))
    with pytest.raises(ValueError, match="symmetric"):
        unmat(Matrix.from_rows([[0, 1, 0], [2, 0, 0], [0, 0, 0]]))


def test_pair_order_matches_compound_basis():
    # the coordinate order of degree-2 vectors is the compound's index basis
    for n in range(2, 7):
        x = zero_vector(n)
        assert x.pairs() == subset_basis(n, 2).subsets


def test_vector_sums_differences_hashes_and_repr():
    x = DegreeTwoVector(3, [1, F(1, 2), -2])
    y = DegreeTwoVector(3, [0, F(1, 2), 5])
    assert (x + y).coords == (1, 1, 3) and (x - y).coords == (1, 0, -7)
    assert x - y + y == x and hash(x - y + y) == hash(x) != hash(y)
    assert hash(DegreeTwoVector(3, ["1", "0.5", "-2"])) == hash(x)
    assert repr(x) == "DegreeTwoVector(n=3, [1, Fraction(1, 2), -2])"
    for op in (lambda u, v: u + v, lambda u, v: u - v):
        with pytest.raises(ValueError, match="dimension mismatch: n=3 vs n=2"):
            op(x, DegreeTwoVector(2, [1]))


# -- inner product and total mass ----------------------------------------------


def test_inner_product_unit_pair():
    x = DegreeTwoVector(3, [1, 0, 0])
    assert inner_product(x, x) == 2


def test_inner_product_with_zero():
    x = DegreeTwoVector(3, [F(5, 7), -2, 3])
    assert inner_product(x, zero_vector(3)) == 0


def test_inner_product_routes_agree():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(2, 6)
        x, y = random_vector(rng, n), random_vector(rng, n)
        via_trace = (mat_embed(x) * mat_embed(y)).trace()
        via_all_ordered_pairs = sum(
            mat_embed(x)[i, j] * mat_embed(y)[i, j] for i in range(n) for j in range(n)
        )
        assert inner_product(x, y) == via_trace == via_all_ordered_pairs
        assert inner_product(x, y) == inner_product(y, x)


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError):
        inner_product(zero_vector(3), zero_vector(4))


def test_sum_against_u_all_ones():
    x = DegreeTwoVector(4, [1] * 6)
    assert sum_against_u(x) == 6


def test_integral_values_are_ints():
    # a mass of 1 over halves: every side that is integral is an int, never
    # Fraction(k, 1), on permutations, the identity and a scaled identity
    x = DegreeTwoVector(3, [F(1, 2), F(1, 2), 0])
    assert type(sum_against_u(x)) is int and type(inner_product(x, x)) is int
    cycle = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    for a in (Matrix.identity(3), cycle, 2 * Matrix.identity(3)):
        values = general_bp_identities(x, a)
        sides = [values.first_lhs, values.first_rhs, values.second_lhs, values.second_rhs,
                 trace_identity_left(x, a), trace_identity_right(x, a),
                 trace_identity_left_stochastic(x, a)]
        if a.is_stochastic():
            sides += integration_by_parts(x, a)
        assert [type(v) for v in sides] == [int] * len(sides), a


def test_sum_against_u_equals_half_trace_with_ones():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 6)
        x = random_vector(rng, n)
        half_trace = Fraction((mat_embed(x) * Matrix(n, n, [1] * n ** 2)).trace(), 2)
        assert sum_against_u(x) == half_trace
    assert sum_against_u(zero_vector(5)) == 0


# -- actions --------------------------------------------------------------------


def test_actions_fix_identity():
    rng = random.Random(4)
    for n in (2, 3, 5):
        x = random_vector(rng, n)
        assert left_action(x, Matrix.identity(n)) == x
        assert right_action(Matrix.identity(n), x) == x


def test_actions_agree_with_component_formulas():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 5)
        x = random_vector(rng, n)
        a = random_square(rng, n)
        assert left_action(x, a) == left_action_components(x, a)
        assert right_action(a, x) == right_action_components(a, x)


def test_left_action_fixed_by_symmetric_sandwich():
    # permutation-invariant vector: X-hat = A* X-hat A forces a fixed point
    cycle = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    x = DegreeTwoVector(3, [1, 1, 1])
    assert cycle.T * mat_embed(x) * cycle == mat_embed(x)
    assert left_action(x, cycle) == x
    assert right_action(cycle, x) == x


# -- diagonal corrections ---------------------------------------------------------


def test_corrections_vanish_for_identity():
    rng = random.Random(6)
    x = random_vector(rng, 4)
    assert diag_correction_plus(Matrix.identity(4), x) == Matrix.zeros(4, 4)
    assert diag_correction_minus(Matrix.identity(4), x) == Matrix.zeros(4, 4)


def test_corrections_nonnegative_for_nonnegative_inputs():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 5)
        x = random_vector(rng, n, lo=0)
        a = random_square(rng, n, lo=0)
        assert diag_correction_plus(a, x).is_nonnegative()
        assert diag_correction_minus(a, x).is_nonnegative()


def test_basic_relations_random():
    rng = random.Random(8)
    for _ in range(25):
        n = rng.randint(2, 6)
        x = random_vector(rng, n)
        a = random_square(rng, n)
        xhat = mat_embed(x)
        col_sandwich = a.T * xhat * a
        dplus = diag_correction_plus(a, x)
        assert mat_embed(left_action(x, a)) == col_sandwich - dplus
        assert dplus.trace() == col_sandwich.trace()
        row_sandwich = a * xhat * a.T
        dminus = diag_correction_minus(a, x)
        assert mat_embed(right_action(a, x)) == row_sandwich - dminus
        assert dminus.trace() == row_sandwich.trace()


def test_zero_trace_forces_zero_correction():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 5)
        x = random_vector(rng, n, lo=0)
        a = random_square(rng, n, lo=0)
        dplus = diag_correction_plus(a, x)
        if dplus.trace() == 0:
            assert dplus == Matrix.zeros(n, n)


# -- trace identities ---------------------------------------------------------------


def test_trace_identity_left_at_identity():
    rng = random.Random(10)
    x = random_vector(rng, 4)
    assert trace_identity_left(x, Matrix.identity(4)) == sum_against_u(x)


def test_trace_identities_random():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 5)
        x = random_vector(rng, n)
        a = random_square(rng, n)
        assert trace_identity_left(x, a) == sum_against_u(left_action(x, a))
        assert trace_identity_right(x, a) == sum_against_u(right_action(a, x))


def test_stochastic_shortcut():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(2, 6)
        a = random_stochastic(rng, n).matrix
        x = random_vector(rng, n)
        assert trace_identity_left_stochastic(x, a) == trace_identity_left(x, a)


# -- integration by parts --------------------------------------------------------


def test_integration_by_parts_uniform():
    a = Matrix.from_rows([[F(1, 3)] * 3] * 3)
    rng = random.Random(13)
    x = random_vector(rng, 3)
    lhs, rhs = integration_by_parts(x, a)
    assert lhs == rhs


def test_integration_by_parts_zero_vector():
    a = Matrix.from_rows([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
    assert integration_by_parts(zero_vector(2), a) == (0, 0)


def test_integration_by_parts_fixture_one(examples):
    x = DegreeTwoVector(3, [1, 1, 1])
    lhs, rhs = integration_by_parts(x, examples[1])
    assert lhs == rhs


def test_integration_by_parts_needs_stochastic():
    with pytest.raises(ValueError, match="stochastic"):
        integration_by_parts(zero_vector(2), Matrix.from_rows([[1, 1], [0, 1]]))


def test_integration_by_parts_allows_negative_coordinates():
    rng = random.Random(14)
    for _ in range(25):
        n = rng.randint(2, 6)
        a = random_stochastic(rng, n).matrix
        x = random_vector(rng, n)
        lhs, rhs = integration_by_parts(x, a)
        assert lhs == rhs


@given(st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, 5), min_size=n * n, max_size=n * n),
        st.lists(st.integers(-5, 5), min_size=n * (n - 1) // 2,
                 max_size=n * (n - 1) // 2),
    )))
def test_integration_by_parts_property(args):
    n, raw_rows, coords = args
    rows = []
    for i in range(n):
        row = raw_rows[i * n : (i + 1) * n]
        total = sum(row)
        if total == 0:
            row[i] = 1
            total = 1
        rows.append([F(e, total) for e in row])
    a = Matrix.from_rows(rows)
    x = DegreeTwoVector(n, coords)
    lhs, rhs = integration_by_parts(x, a)
    assert lhs == rhs


def test_mass_contraction_for_nonnegative_vectors():
    rng = random.Random(15)
    for _ in range(25):
        n = rng.randint(2, 6)
        a = random_stochastic(rng, n).matrix
        x = random_vector(rng, n, lo=0)
        assert sum_against_u(left_action(x, a)) <= sum_against_u(x)


# -- general identities -----------------------------------------------------------


def test_general_identities_at_identity():
    rng = random.Random(16)
    x = random_vector(rng, 4)
    values = general_bp_identities(x, Matrix.identity(4))
    assert values.first_lhs == values.first_rhs == 0
    assert values.second_lhs == values.second_rhs == 0


def test_general_identities_random():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(2, 5)
        x = random_vector(rng, n)
        a = random_square(rng, n)
        assert general_bp_identities(x, a).holds


def test_general_identity_collapses_for_stochastic():
    rng = random.Random(18)
    for _ in range(20):
        n = rng.randint(2, 5)
        a = random_stochastic(rng, n).matrix
        x = random_vector(rng, n)
        values = general_bp_identities(x, a)
        lhs, rhs = integration_by_parts(x, a)
        assert values.first_rhs == rhs
        assert values.first_lhs == lhs


# -- consistency with the compound route -----------------------------------------


def test_actions_are_compound_products():
    rng = random.Random(19)
    for _ in range(15):
        n = rng.randint(2, 5)
        x = random_vector(rng, n)
        a = random_square(rng, n)
        psi = zeon_power(a, 2)
        assert left_action(x, a).as_row() == x.as_row() * psi
        assert right_action(a, x).as_column() == psi * x.as_column()


# -- the integer sums against the Fraction matrix algebra ---------------------------


def _wide_case(rng, n, stochastic):
    # A with denominators up to about 10^12 (stochastic, or with negative
    # entries), x with denominators up to 10^30, and every fifth x of
    # integral mass
    big = 10**12 + 39
    if stochastic:
        weights = [[rng.randint(0, big) * (rng.random() < 0.7) or (i == j) for j in range(n)]
                   for i in range(n)]
        a = Matrix.from_rows([[F(w, sum(row)) for w in row] for row in weights])
    else:
        a = Matrix(n, n, [F(rng.randint(-big, big), rng.randint(1, big)) for _ in range(n * n)])
    den = rng.choice([4, 10**30 + 57])
    coords = [F(rng.randint(-den, den), rng.randint(1, den)) for _ in subset_basis(n, 2)]
    if rng.random() < 0.2:
        coords[-1] -= sum(coords) - round(sum(coords))
    return DegreeTwoVector(n, coords), a


def test_identity_sides_match_the_fraction_matrix_algebra():
    rng = random.Random(21)
    for trial in range(80):
        n = rng.randint(2, 6)
        x, a = _wide_case(rng, n, stochastic=trial % 2 == 0)
        values = general_bp_identities(x, a)
        sides = {
            "first_lhs": values.first_lhs, "first_rhs": values.first_rhs,
            "second_lhs": values.second_lhs, "second_rhs": values.second_rhs,
            "trace_left": trace_identity_left(x, a), "trace_right": trace_identity_right(x, a),
            "trace_left_stochastic": trace_identity_left_stochastic(x, a),
        }
        expected = identity_sides_oracle(x, a)
        ibp = expected.pop("integration_by_parts")
        assert sides == expected
        assert list(map(type, sides.values())) == list(map(type, expected.values()))
        if ibp is None:
            with pytest.raises(ValueError, match="stochastic"):
                integration_by_parts(x, a)
        else:
            sides = integration_by_parts(x, a)
            assert sides == ibp and list(map(type, sides)) == list(map(type, ibp))
