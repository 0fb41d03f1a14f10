"""Acceptance suite: every criterion is an exact rational assertion
(tolerance zero). Each test prints one PASS line on success; a failing
assert surfaces as the criterion's FAIL through pytest.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
from fractions import Fraction

from conftest import cofactor_det
from oracles import left_null_space_oracle, null_space_oracle, permutation_permanent_oracle
from zeonmarkov.degree2 import (
    DegreeTwoVector,
    diag_correction_minus,
    diag_correction_plus,
    general_bp_identities,
    integration_by_parts,
    left_action,
    left_action_components,
    mat_embed,
    right_action,
    right_action_components,
    sum_against_u,
    unmat,
)
from zeonmarkov.linalg import Matrix, exact_div
from zeonmarkov.markov import (
    Verdict,
    chain_structure,
    check_equivalence,
    criterion_determinant,
    equivalence_harness,
    ergodic_limit,
    invariant_distributions,
    is_quasi_positive,
    witness_periodic,
    witness_reducible,
    zeon_criterion,
)
from zeonmarkov.zeon import (
    FunctionMap,
    all_functions,
    compose,
    function_matrix,
    is_zeon_homomorphic_pair,
    permanent,
    subset_basis,
    zeon_power,
)

F = Fraction
SEED = 20250
HALF = F(1, 2)


def _passed(num: int, text: str) -> None:
    print(f"criterion {num}: PASS - {text}")


def test_criterion_1_fixture_one(chains):
    chain = chains[1]
    golden_compound = Matrix.from_rows([
        [F(1, 8), F(1, 4), F(1, 4)],
        [0, F(1, 4), F(1, 4)],
        [0, F(1, 4), F(1, 4)],
    ])
    assert zeon_power(chain.matrix, 2) == golden_compound
    assert criterion_determinant(chain) == F(7, 16)
    assert is_quasi_positive(chain) is None
    assert ergodic_limit(chain) == Matrix.from_rows([[0, 0, 1]] * 3)
    _passed(1, "compound, determinant 7/16, no positive power, limit rows [0,0,1]")


def test_criterion_2_fixture_two(chains):
    chain = chains[2]
    golden_compound = Matrix.from_rows([
        [HALF, 0, 0, 0, 0, 0],
        [F(1, 4), 0, F(1, 4), 0, F(1, 4), 0],
        [0, 0, HALF, 0, HALF, 0],
        [0, 0, 0, 0, HALF, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, HALF, 0],
    ])
    psi = zeon_power(chain.matrix, 2)
    assert psi == golden_compound
    assert criterion_determinant(chain) == 0
    shifted = psi - Matrix.identity(6)
    left = left_null_space_oracle(shifted)
    assert [v.to_lists()[0] for v in left] == [[0, 0, 0, 0, 1, 0]]
    assert subset_basis(4, 2).unrank(4) == (2, 4)
    right = null_space_oracle(shifted)
    assert [list(v) for v in right] == [[0, 1, 2, 1, 2, 1]]
    golden_limit = Matrix.from_rows([
        [0, 1, 0, 0],
        [0, 1, 0, 0],
        [0, HALF, 0, HALF],
        [0, 0, 0, 1],
    ])
    assert ergodic_limit(chain) == golden_limit
    _passed(2, "compound, zero determinant, both null spaces, limit matrix")


def test_criterion_3_fixture_three(chains):
    chain = chains[3]
    structure = chain_structure(chain)
    assert structure.classes == ((1, 2), (3, 4, 5))
    assert structure.closed == (True, True)
    witness = witness_reducible(structure)
    golden_cross_block = Matrix.from_rows([
        [0, 0, 1, 1, 1],
        [0, 0, 1, 1, 1],
        [1, 1, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [1, 1, 0, 0, 0],
    ])
    assert mat_embed(witness) == golden_cross_block
    assert right_action(chain.matrix, witness) == witness
    assert zeon_criterion(chain).criterion_verdict is Verdict.NOT_ERGODIC
    _passed(3, "closed classes, cross-class fixed vector, not-ergodic verdict")


def test_criterion_4_fixture_four(chains):
    chain = chains[4]
    structure = chain_structure(chain)
    assert structure.is_irreducible
    assert structure.periods == (4,)
    assert structure.cyclic_classes == (((1,), (2,), (3, 4), (5,)),)
    invariants = invariant_distributions(chain)
    assert len(invariants.basis) == 1
    scaled = 2 * invariants.basis[0]
    assert scaled.to_lists() == [[2, 2, 1, 1, 2]]
    distance_one = witness_periodic(structure, 1)
    distance_two = witness_periodic(structure, 2)
    psi = zeon_power(chain.matrix, 2)
    basis = null_space_oracle(psi - Matrix.identity(10))
    assert len(basis) == 2
    assert [tuple(v) for v in basis] == [distance_one.coords, distance_two.coords]
    assert right_action(chain.matrix, distance_one) == distance_one
    assert right_action(chain.matrix, distance_two) == distance_two
    _passed(4, "period 4, invariant [2,2,1,1,2], two-parameter fixed space, both witnesses")


def test_criterion_5_fixture_five(chains):
    chain = chains[5]
    structure = chain_structure(chain)
    assert structure.classes == ((1, 2, 5, 6), (3, 4))
    assert structure.closed == (True, True)
    assert structure.cyclic_classes == (((1, 5), (2, 6)), ((3,), (4,)))
    invariants = invariant_distributions(chain)
    assert [v.to_lists()[0] for v in invariants.basis] == [[1, 2, 0, 0, 2, 1],
                                                           [0, 0, 1, 1, 0, 0]]
    for v in invariants.basis:
        assert v * chain.matrix == v

    def golden_family(w1, w2, w3, w4):
        return Matrix.from_rows([
            [0, w4, w2, w3, 0, w4],
            [w4, 0, w3, w2, w4, 0],
            [w2, w3, 0, w1, w2, w3],
            [w3, w2, w1, 0, w3, w2],
            [0, w4, w2, w3, 0, w4],
            [w4, 0, w3, w2, w4, 0],
        ])

    parameter_choices = [
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        (F(1, 3), 2, F(5, 7), -1),
    ]
    for ws in parameter_choices:
        member = unmat(golden_family(*ws))
        assert right_action(chain.matrix, member) == member
    # and the family is the whole fixed space: dimension exactly 4
    psi = zeon_power(chain.matrix, 2)
    assert len(null_space_oracle(psi - Matrix.identity(15))) == 4
    _passed(5, "closed and cyclic classes, invariant pattern, four-parameter fixed family")


def test_criterion_6_identity_suite():
    rng = random.Random(SEED)
    instances = 500
    for n in (3, 4, 5, 6):
        pair_count = len(subset_basis(n, 2))
        ones_row = Matrix(1, pair_count, [1] * pair_count)
        j = Matrix(n, n, [1] * n ** 2)
        for _ in range(instances):
            row = []
            for _ in range(n):
                raw = [rng.randint(0, 5) for _ in range(n)]
                if sum(raw) == 0:
                    raw[rng.randrange(n)] = 1
                total = sum(raw)
                row.append([F(e, total) for e in raw])
            a = Matrix.from_rows(row)
            x = DegreeTwoVector(
                n, [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(pair_count)]
            )
            xhat = mat_embed(x)

            # total mass three ways
            mass = sum_against_u(x)
            assert mass == exact_div((xhat * j).trace(), 2)
            assert mass == (ones_row * x.as_column())[0, 0]

            # basic relations with the explicit diagonal corrections
            col_sandwich = a.T * xhat * a
            dplus = diag_correction_plus(a, x)
            assert mat_embed(left_action(x, a)) == col_sandwich - dplus
            assert dplus.trace() == col_sandwich.trace()
            row_sandwich = a * xhat * a.T
            dminus = diag_correction_minus(a, x)
            assert mat_embed(right_action(a, x)) == row_sandwich - dminus
            assert dminus.trace() == row_sandwich.trace()

            # trace identities, including the stochastic shortcut
            from zeonmarkov.degree2 import (
                trace_identity_left,
                trace_identity_left_stochastic,
                trace_identity_right,
            )
            left_value = trace_identity_left(x, a)
            assert left_value == sum_against_u(left_action(x, a))
            assert trace_identity_right(x, a) == sum_against_u(right_action(a, x))
            assert trace_identity_left_stochastic(x, a) == left_value

            # general mass identities and integration by parts
            values = general_bp_identities(x, a)
            assert values.first_lhs == values.first_rhs
            assert values.second_lhs == values.second_rhs
            lhs, rhs = integration_by_parts(x, a)
            assert lhs == rhs
            assert values.first_rhs == rhs
    _passed(6, f"{instances} exact instances per size n in (3,4,5,6)")


def test_criterion_7_homomorphism_suite():
    # exhaustive over all pairs of self-maps for n <= 4
    for n in (2, 3, 4):
        functions = list(all_functions(n))
        compounds = {
            k: {f: zeon_power(function_matrix(f), k) for f in functions}
            for k in (2, 3) if k <= n
        }
        for f1 in functions:
            m1 = function_matrix(f1)
            for f2 in functions:
                m2 = function_matrix(f2)
                product_function = compose(f1, f2)
                assert m1 * m2 == function_matrix(product_function)
                for k, table in compounds.items():
                    assert table[f1] * table[f2] == table[product_function]

    # official predicate, exhaustively at n = 3 and on random pairs at n = 5, 6
    for f1 in all_functions(3):
        for f2 in all_functions(3):
            for k in (2, 3):
                assert is_zeon_homomorphic_pair(
                    function_matrix(f1), function_matrix(f2), k)
    rng = random.Random(SEED + 1)
    for n in (5, 6):
        for _ in range(100):
            f1 = FunctionMap([rng.randint(1, n) for _ in range(n)])
            f2 = FunctionMap([rng.randint(1, n) for _ in range(n)])
            for k in (2, 3):
                assert is_zeon_homomorphic_pair(
                    function_matrix(f1), function_matrix(f2), k)

    # sufficient conditions on 200 random sparse pairs
    for trial in range(200):
        n = rng.randint(3, 5)
        k = rng.randint(2, 3)
        dense = Matrix(n, n, [rng.randint(-2, 3) for _ in range(n * n)])
        sparse = [[0] * n for _ in range(n)]
        if trial % 2 == 0:
            for col in range(n):
                sparse[rng.randrange(n)][col] = rng.randint(1, 4)
            assert is_zeon_homomorphic_pair(Matrix.from_rows(sparse), dense, k)
        else:
            for row_idx in range(n):
                sparse[row_idx][rng.randrange(n)] = rng.randint(1, 4)
            assert is_zeon_homomorphic_pair(dense, Matrix.from_rows(sparse), k)

    # recorded generic counterexample
    w = Matrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert not is_zeon_homomorphic_pair(w, w, 2)
    _passed(7, "exhaustive n<=4, random n=5,6, sparse sufficient conditions, counterexample")


def test_criterion_8_equivalence_harness():
    for f in all_functions(3):
        from zeonmarkov.markov import StochasticMatrix
        chk = check_equivalence(StochasticMatrix(function_matrix(f)))
        assert chk.consistent
    for n, seed in ((4, SEED + 2), (5, SEED + 3)):
        report = equivalence_harness(n, 500, seed)
        assert report.checked == 500
        assert report.all_consistent, report.counterexamples
    _passed(8, "27 function chains plus 500 recurrent-only samples at n=4 and n=5")


def test_criterion_9_oracle_checks():
    rng = random.Random(SEED + 4)

    for _ in range(200):
        n = rng.randint(1, 6)
        m = Matrix(n, n, [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n * n)])
        assert m.det() == cofactor_det(m)

    for _ in range(200):
        k = rng.randint(1, 5)
        m = Matrix(k, k, [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k * k)])
        assert permanent(m) == permutation_permanent_oracle(m)

    for _ in range(200):
        n = rng.randint(2, 6)
        a = Matrix(n, n, [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n * n)])
        x = DegreeTwoVector(
            n, [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in subset_basis(n, 2)]
        )
        assert left_action(x, a) == left_action_components(x, a)
        assert right_action(a, x) == right_action_components(a, x)
    _passed(9, "determinant, permanent and compound actions vs. brute-force oracles")
