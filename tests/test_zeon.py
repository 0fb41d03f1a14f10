import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_same_entries, cofactor_det
from oracles import permutation_permanent_oracle, product_oracle
from zeonmarkov.linalg import Matrix, as_scalar
from zeonmarkov.markov import random_stochastic
from zeonmarkov.zeon import (
    FunctionMap,
    SubsetBasis,
    all_functions,
    apply_second_quantized_function,
    compose,
    exterior_power,
    function_matrix,
    is_zeon_homomorphic_pair,
    permanent,
    subset_basis,
    zeon_power,
)

F = Fraction


def lex_rank_formula(subset, n):
    """Closed-form lexicographic rank of a k-subset: counts smaller subsets."""
    k = len(subset)
    rank = 0
    prev = 0
    for j, s in enumerate(subset):
        for v in range(prev + 1, s):
            rank += math.comb(n - v, k - j - 1)
        prev = s
    return rank


def random_function(rng, n):
    return FunctionMap([rng.randint(1, n) for _ in range(n)])


# -- subset basis -----------------------------------------------------------


def test_basis_is_lexicographic():
    basis = SubsetBasis(4, 2)
    assert basis.subsets == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert len(basis) == math.comb(4, 2)


@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n))))
def test_rank_unrank_roundtrip(nk):
    n, k = nk
    basis = subset_basis(n, k)
    for r in range(len(basis)):
        assert basis.rank(basis.unrank(r)) == r


def test_rank_matches_combinatorial_formula():
    for n in range(1, 8):
        for k in range(1, n + 1):
            basis = SubsetBasis(n, k)
            for s in basis.subsets:
                assert basis.rank(s) == lex_rank_formula(s, n)


def test_rank_rejects_bad_subsets():
    basis = SubsetBasis(4, 2)
    with pytest.raises(ValueError):
        basis.rank((2, 1))
    with pytest.raises(ValueError):
        basis.unrank(6)


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        SubsetBasis(3, 4)
    with pytest.raises(ValueError):
        SubsetBasis(3, 0)


# -- function matrices --------------------------------------------------------


def test_identity_map_matrix():
    assert function_matrix(FunctionMap.identity(3)) == Matrix.identity(3)


def test_constant_map_matrix():
    assert function_matrix(FunctionMap.constant(2, 1)) == Matrix.from_rows([[1, 0], [1, 0]])


def test_row_action_sends_basis_vectors():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 6)
        f = random_function(rng, n)
        m = function_matrix(f)
        for i in range(1, n + 1):
            e = Matrix.row_vector([1 if j == i else 0 for j in range(1, n + 1)])
            image = Matrix.row_vector([1 if j == f(i) else 0 for j in range(1, n + 1)])
            assert e * m == image


def test_composition_is_matrix_product():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(2, 6)
        f1, f2 = random_function(rng, n), random_function(rng, n)
        assert function_matrix(compose(f1, f2)) == function_matrix(f1) * function_matrix(f2)


def test_all_functions_count():
    assert sum(1 for _ in all_functions(3)) == 27


# -- permanent ---------------------------------------------------------------


def test_permanent_two_by_two():
    assert permanent(Matrix.from_rows([[1, 1], [1, 1]])) == 2
    a, b, c, d = F(1, 2), F(2, 3), 3, F(-1, 5)
    assert permanent(Matrix.from_rows([[a, b], [c, d]])) == a * d + b * c


def test_permanent_identity():
    for k in range(0, 6):
        assert permanent(Matrix.identity(k)) == 1


def test_permanent_non_square():
    with pytest.raises(ValueError):
        permanent(Matrix.zeros(2, 3))


def test_permanent_matches_permutation_sum():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = Matrix(n, n, [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n * n)])
        assert permanent(m) == permutation_permanent_oracle(m)


def test_permanent_invariances():
    rng = random.Random(6)
    for _ in range(15):
        n = rng.randint(2, 5)
        m = Matrix(n, n, [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n * n)])
        assert permanent(m.T) == permanent(m)
        # swapping two rows (no sign) and two columns leaves it unchanged
        i, j = rng.sample(range(n), 2)
        rows = m.to_lists()
        rows[i], rows[j] = rows[j], rows[i]
        assert permanent(Matrix.from_rows(rows)) == permanent(m)
        cols = [[rows[r][c] for r in range(n)] for c in range(n)]
        cols[i], cols[j] = cols[j], cols[i]
        swapped = Matrix(n, n, [cols[c][r] for r in range(n) for c in range(n)])
        assert permanent(swapped) == permanent(m)


# -- zeon power ----------------------------------------------------------------


def test_zeon_power_identity_and_degree_one(examples):
    for n, k in [(3, 1), (3, 2), (4, 2), (4, 3), (5, 4)]:
        assert zeon_power(Matrix.identity(n), k) == Matrix.identity(math.comb(n, k))
    a = examples[2]
    assert zeon_power(a, 1) == a


def test_zeon_power_degree_out_of_range(examples):
    with pytest.raises(ValueError):
        zeon_power(examples[1], 4)
    with pytest.raises(ValueError):
        zeon_power(examples[1], 0)


def test_zeon_power_golden_fixture_one(examples):
    expected = Matrix.from_rows([
        [F(1, 8), F(1, 4), F(1, 4)],
        [0, F(1, 4), F(1, 4)],
        [0, F(1, 4), F(1, 4)],
    ])
    assert zeon_power(examples[1], 2) == expected


def test_zeon_power_golden_fixture_two(examples):
    expected = Matrix.from_rows([
        [F(1, 2), 0, 0, 0, 0, 0],
        [F(1, 4), 0, F(1, 4), 0, F(1, 4), 0],
        [0, 0, F(1, 2), 0, F(1, 2), 0],
        [0, 0, 0, 0, F(1, 2), 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, F(1, 2), 0],
    ])
    assert zeon_power(examples[2], 2) == expected


def test_zeon_power_generic_agrees_with_permanent_definition():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(2, 5)
        k = rng.randint(2, n)
        w = Matrix(n, n, [F(rng.randint(-2, 3), rng.randint(1, 3)) for _ in range(n * n)])
        compound = zeon_power(w, k)
        basis = subset_basis(n, k)
        for a, rows_idx in enumerate(basis.subsets):
            for b, cols_idx in enumerate(basis.subsets):
                sub = Matrix(k, k, [w[i - 1, j - 1] for i in rows_idx for j in cols_idx])
                assert compound[a, b] == permutation_permanent_oracle(sub)


def test_zeon_power_two_agrees_with_the_permanent_definition_on_wide_denominators():
    # rows over unequal lcms, negative entries, denominators up to 10^30; every
    # k, and the minors of exterior_power by cofactor expansion
    rng = random.Random(43)
    for n in range(2, 7):
        for _ in range(3):
            w = Matrix(n, n, [F(rng.randint(-10**6, 10**6),
                                rng.choice((1, 7, 10**30, rng.randint(1, 10**30))))
                              for _ in range(n * n)])
            scales = w.integer_rows()[1]
            assert len(set(scales)) > 1 and min(w.data) < 0
            for k in range(2, n + 1):
                compound, minors = zeon_power(w, k), exterior_power(w, k)
                basis = subset_basis(n, k)
                for a, rows_idx in enumerate(basis.subsets):
                    for b, cols_idx in enumerate(basis.subsets):
                        sub = Matrix(k, k, [w[i - 1, j - 1] for i in rows_idx for j in cols_idx])
                        assert compound[a, b] == permutation_permanent_oracle(sub)
                        assert minors[a, b] == cofactor_det(sub)


def test_a_dropped_compound_leaves_no_memory_held():
    rng = random.Random(44)
    matrices = [random_stochastic(rng, 12).matrix for _ in range(20)]
    subset_basis(12, 2)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for w in matrices:
            zeon_power(w, 2)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each compound holds about 0.27 MB: keeping the 20 would hold 5.5 MB
    assert held - before < 1 << 20, held - before


def _is_held(m):
    """Whether m's entries are still unbuilt: its ``data`` slot is unset."""
    try:
        Matrix.data.__get__(m, Matrix)
    except AttributeError:
        return True
    return False


def _mixed_matrix(rng, rows, cols, integer=None):
    """Integer entries, or signed ones over denominators up to 10^30."""
    if rng.random() < 0.3 if integer is None else integer:
        return Matrix(rows, cols, [rng.randint(-3, 3) for _ in range(rows * cols)])
    return Matrix(rows, cols, [F(rng.randint(-10**6, 10**6),
                                 rng.choice((1, 7, 10**30, rng.randint(1, 10**30))))
                               for _ in range(rows * cols)])


def test_held_compounds_multiply_before_their_entries_are_read():
    # products of compounds that are still integer rows, on either side and
    # with each other, against the Fraction triple loop; then the entries,
    # read once, against the permanents and minors of the definition
    rng = random.Random(45)
    for n in range(2, 6):
        w = _mixed_matrix(rng, n, n, integer=n % 2)
        for k in range(2, n + 1):
            size = math.comb(n, k)
            for build, definition in ((zeon_power, permutation_permanent_oracle),
                                      (exterior_power, cofactor_det)):
                left, right = build(w, k), build(w, k)
                vector, square = _mixed_matrix(rng, 1, size), _mixed_matrix(rng, size, size)
                products = [left * right, vector * right, left * vector.T, square * right]
                assert _is_held(left) and _is_held(right)
                factors = [(left, right), (vector, right), (left, vector.T), (square, right)]
                for product, (a, b) in zip(products, factors):
                    assert_same_entries(product, product_oracle(a, b))
                basis = subset_basis(n, k).subsets
                entries = iter(build(w, k).data)
                for rows_idx in basis:
                    for cols_idx in basis:
                        sub = Matrix(k, k, [w[i - 1, j - 1] for i in rows_idx for j in cols_idx])
                        expected = as_scalar(definition(sub))
                        e = next(entries)
                        assert e == expected and type(e) is type(expected)


def test_det_and_rref_leave_a_held_compound_unchanged():
    rng = random.Random(46)
    for n in (3, 4, 5):
        w = _mixed_matrix(rng, n, n, integer=n % 2)
        for k in (2, n - 1):
            for build in (zeon_power, exterior_power):
                compound = build(w, k)
                rows = compound.integer_rows()
                first = compound.det(), compound.rref()
                assert compound.integer_rows() == rows and _is_held(compound)
                assert (compound.det(), compound.rref()) == first
                assert compound.integer_rows() == rows
                # the same entries, eager, over the lcms of their rows
                eager = Matrix(compound.rows, compound.cols, compound.data)
                assert_same_entries(compound, build(w, k))
                assert (eager.det(), eager.rref()) == first


def test_row_sums_give_substochastic_compound():
    # row (i,j) of the degree-2 compound of stochastic A sums to 1 - (A A*)_ij
    rng = random.Random(8)
    from zeonmarkov.markov import random_stochastic
    for _ in range(15):
        n = rng.randint(2, 6)
        a = random_stochastic(rng, n).matrix
        compound = zeon_power(a, 2)
        gram = a * a.T
        for r, (i, j) in enumerate(subset_basis(n, 2).subsets):
            total = sum(compound.row(r))
            assert total == 1 - gram[i - 1, j - 1]
            assert 0 <= total <= 1


# -- exterior power ---------------------------------------------------------


def test_exterior_power_identity():
    assert exterior_power(Matrix.identity(4), 2) == Matrix.identity(6)


def test_exterior_power_top_degree_is_determinant():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(2, 4)
        w = Matrix(n, n, [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n * n)])
        assert exterior_power(w, n) == Matrix.from_rows([[w.det()]])


def test_exterior_absolute_values_for_permutations():
    # for permutation matrices the permanental compound is the entrywise
    # absolute value of the determinant compound
    from itertools import permutations
    for images in permutations(range(1, 5)):
        m = function_matrix(FunctionMap(images))
        ext = exterior_power(m, 2)
        zeo = zeon_power(m, 2)
        assert Matrix(6, 6, [abs(e) for e in ext.data]) == zeo


def test_exterior_absolute_values_for_row_sparse_zero_one():
    # more generally: any 0/1 matrix with at most one nonzero per row
    # (zero rows allowed) has permanental compound = |determinant compound|
    rng = random.Random(14)
    for _ in range(30):
        n = rng.randint(2, 5)
        k = rng.randint(2, n)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            if rng.random() < 0.8:
                rows[i][rng.randrange(n)] = 1
        m = Matrix.from_rows(rows)
        ext = exterior_power(m, k)
        zeo = zeon_power(m, k)
        size = math.comb(n, k)
        assert Matrix(size, size, [abs(e) for e in ext.data]) == zeo


def test_exterior_multiplicative_always():
    rng = random.Random(10)
    for _ in range(10):
        w1 = Matrix(4, 4, [rng.randint(-2, 2) for _ in range(16)])
        w2 = Matrix(4, 4, [rng.randint(-2, 2) for _ in range(16)])
        for k in (2, 3):
            assert exterior_power(w1 * w2, k) == exterior_power(w1, k) * exterior_power(w2, k)


# -- homomorphism predicate ---------------------------------------------------


def test_function_pairs_are_homomorphic():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 5)
        k = rng.randint(2, n)
        f1, f2 = random_function(rng, n), random_function(rng, n)
        assert is_zeon_homomorphic_pair(function_matrix(f1), function_matrix(f2), k)


def test_diagonal_left_factor_is_homomorphic():
    rng = random.Random(12)
    for _ in range(15):
        n = rng.randint(2, 5)
        d = Matrix.diagonal([F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)])
        w = Matrix(n, n, [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n * n)])
        assert is_zeon_homomorphic_pair(d, w, 2)
        assert is_zeon_homomorphic_pair(w, d, 2)


def test_column_sparse_left_and_row_sparse_right():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(3, 5)
        k = rng.randint(2, 3)
        w = Matrix(n, n, [rng.randint(-2, 3) for _ in range(n * n)])
        # at most one nonzero per column on the left factor
        col_sparse = [[0] * n for _ in range(n)]
        for j in range(n):
            col_sparse[rng.randrange(n)][j] = rng.randint(1, 3)
        assert is_zeon_homomorphic_pair(Matrix.from_rows(col_sparse), w, k)
        # at most one nonzero per row on the right factor
        row_sparse = [[0] * n for _ in range(n)]
        for i in range(n):
            row_sparse[i][rng.randrange(n)] = rng.randint(1, 3)
        assert is_zeon_homomorphic_pair(w, Matrix.from_rows(row_sparse), k)


def test_generic_counterexample():
    w = Matrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert not is_zeon_homomorphic_pair(w, w, 2)
    # frozen from direct computation: the (1,2),(1,2) entries differ (8 vs 4)
    assert zeon_power(w * w, 2)[0, 0] == 8
    assert (zeon_power(w, 2) * zeon_power(w, 2))[0, 0] == 4


# -- second quantization -------------------------------------------------------


def test_second_quantized_identity():
    f = FunctionMap.identity(5)
    assert apply_second_quantized_function(f, (2, 4)) == (2, 4)


def test_second_quantized_constant_collides():
    f = FunctionMap.constant(4, 2)
    assert apply_second_quantized_function(f, (1, 3)) is None


def test_second_quantized_invalid_subset():
    f = FunctionMap.identity(4)
    with pytest.raises(ValueError):
        apply_second_quantized_function(f, (3, 1))


def test_compound_rows_realize_induced_subset_map():
    # exhaustive on n=4, k=2: row I of the compound of a function matrix is
    # zero exactly when the induced map annihilates I, else the unit row at
    # the image subset
    basis = subset_basis(4, 2)
    for f in all_functions(4):
        compound = zeon_power(function_matrix(f), 2)
        for r, subset in enumerate(basis.subsets):
            image = apply_second_quantized_function(f, subset)
            row = compound.row(r)
            if image is None:
                assert all(e == 0 for e in row)
            else:
                expected = [1 if s == image else 0 for s in basis.subsets]
                assert list(row) == expected
            assert sum(1 for e in row if e != 0) <= 1
