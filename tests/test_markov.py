import dataclasses
import hashlib
import importlib.util
import itertools
import json
import math
import operator
import os
import random
import sys
from fractions import Fraction

import pytest

from conftest import fixture_path
from zeonmarkov import degree2, linalg, markov, zeon
from zeonmarkov.cli import main
from zeonmarkov.degree2 import (
    DegreeTwoVector,
    diag_correction_minus,
    left_action,
    mat_embed,
    right_action,
    sum_against_u,
)
from zeonmarkov.linalg import Matrix
from zeonmarkov.markov import (
    NotStochasticError,
    StochasticMatrix,
    Verdict,
    chain_structure,
    check_equivalence,
    criterion_determinant,
    equivalence_harness,
    ergodic_limit,
    invariant_distributions,
    is_quasi_positive,
    random_recurrent_stochastic,
    random_stochastic,
    validate_stochastic,
    witness_periodic,
    witness_reducible,
    zeon_criterion,
)
from zeonmarkov.zeon import all_functions, function_matrix, subset_basis, zeon_power
from zeonmarkov.documents import matrix_to_rows, report_to_dict
from oracles import (certificate_oracle, chain_structure_oracle, class_pair_determinant_oracle,
                     criterion_block, criterion_rows, dense_route, determinant_mod, determinant_oracle,
                     fixed_vector_oracle, left_null_space_oracle, lu_kernel, null_space_oracle,
                     positive_power_oracle, rank_mod, rank_oracle, reach_oracle, rref_oracle,
                     stationary_oracle, vector_from_pairs)

F = Fraction

UNIFORM2 = Matrix.from_rows([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])


# -- validation ---------------------------------------------------------------


def test_fixtures_accepted(examples):
    for m in examples.values():
        validate_stochastic(m)


def test_rejects_wrong_row_sum():
    with pytest.raises(NotStochasticError, match="row 1 sums to 5/6"):
        validate_stochastic(Matrix.from_rows([[F(1, 2), F(1, 3)], [0, 1]]))


def test_rejects_negative_entry():
    with pytest.raises(NotStochasticError, match=r"\(2,1\) is negative"):
        validate_stochastic(Matrix.from_rows([[F(1, 2), F(1, 2)], [F(-1, 2), F(3, 2)]]))


def test_rejects_non_square():
    with pytest.raises(NotStochasticError, match="not square"):
        validate_stochastic(Matrix.from_rows([[1, 0]]))


@pytest.mark.parametrize("analyse", [zeon_criterion, check_equivalence])
@pytest.mark.parametrize("i", range(6))
def test_a_chain_built_from_entries_makes_its_integer_rows_once(monkeypatch, example, analyse, i):
    entries = (example(i).to_lists() if i else
               random_stochastic(random.Random(3), 5, density=1.0).matrix.to_lists())
    builds = []
    getattr_ = Matrix.__getattr__

    def counting(self, name):
        if name == "_integer":
            builds.append(self)
        return getattr_(self, name)

    monkeypatch.setattr(Matrix, "__getattr__", counting)
    m = Matrix.from_rows(entries)
    analyse(StochasticMatrix(m))
    assert sum(b is m for b in builds) == 1


# -- chain structure -------------------------------------------------------------


def test_structure_fixture_three(chains):
    s = chain_structure(chains[3])
    assert s.classes == ((1, 2), (3, 4, 5))
    assert s.closed == (True, True)
    assert s.transient_states == ()
    assert s.periods == (1, 1)
    assert s.is_aperiodic and not s.is_irreducible


def test_structure_fixture_four(chains):
    s = chain_structure(chains[4])
    assert s.classes == ((1, 2, 3, 4, 5),)
    assert s.is_irreducible
    assert s.periods == (4,)
    assert s.cyclic_classes == (((1,), (2,), (3, 4), (5,)),)
    assert s.period == 4 and not s.is_aperiodic


def test_structure_fixture_five(chains):
    s = chain_structure(chains[5])
    assert s.classes == ((1, 2, 5, 6), (3, 4))
    assert s.closed == (True, True)
    assert s.periods == (2, 2)
    assert s.cyclic_classes == (((1, 5), (2, 6)), ((3,), (4,)))
    assert s.period == 2


def test_transients_fixture_one_and_two(chains):
    assert chain_structure(chains[1]).transient_states == (1, 2)
    s2 = chain_structure(chains[2])
    assert s2.transient_states == (1, 3)
    assert s2.closed_classes == ((2,), (4,))
    # a transient singleton with no self-loop has no cycle at all
    assert s2.periods[s2.classes.index((3,))] is None


def _function_chain(rng, n):
    # one edge out of each state: cycles of every length with trees hanging on them
    return validate_stochastic(function_matrix(zeon.FunctionMap([rng.randint(1, n)
                                                                 for _ in range(n)])))


def _cyclic_chain(rng, n):
    # states dealt into p groups, each stepping only into the next group
    p = rng.randint(1, n)
    group = list(range(p)) + [rng.randrange(p) for _ in range(n - p)]
    rng.shuffle(group)
    rows = []
    for i in range(n):
        targets = [j for j in range(n) if group[j] == (group[i] + 1) % p]
        chosen = rng.sample(targets, rng.randint(1, len(targets)))
        weights = [rng.randint(1, 5) if j in chosen else 0 for j in range(n)]
        rows.append([F(w, sum(weights)) for w in weights])
    return validate_stochastic(Matrix.from_rows(rows))


def _fed_cyclic_chain(rng, n):
    # one or two closed classes, each stepping round p <= 5 groups along a closed walk
    # through all its states, fed by transient states that lead on towards them
    states = rng.sample(range(n), n)
    t = rng.randint(1, n - 2)
    transient, recurrent = states[:t], states[t:]
    cut = rng.randint(1, len(recurrent) - 1) if rng.random() < 0.5 else len(recurrent)
    edges = {s: set() for s in states}
    for block in (recurrent[:cut], recurrent[cut:]):
        if not block:
            continue
        p = rng.randint(1, min(5, len(block)))
        groups = [[s] for s in block[:p]]
        for s in block[p:]:
            groups[rng.randrange(p)].append(s)
        pending = [list(g) for g in groups]
        at, k = pending[0].pop(0), 0
        while at != groups[0][0] or any(pending) or not edges[at]:
            k = (k + 1) % p
            step = pending[k].pop() if pending[k] else groups[k][0]
            edges[at].add(step)
            at = step
        for k, group in enumerate(groups):
            after = groups[(k + 1) % p]
            for s in group:
                edges[s].update(rng.sample(after, rng.randint(0, len(after))))
    for i, s in enumerate(transient):
        edges[s].add(rng.choice(transient[i + 1:] + recurrent))
        edges[s].update(rng.sample(transient, rng.randint(0, min(2, t))))
    rows = []
    for i in range(n):
        weights = [rng.randint(1, 5) if j in edges[i] else 0 for j in range(n)]
        rows.append([F(w, sum(weights)) for w in weights])
    return validate_stochastic(Matrix.from_rows(rows))


def test_structure_matches_the_boolean_closure_oracle():
    rng = random.Random(37)
    seen = {"periodic": 0, "open": 0, "reducible": 0}
    for n in range(1, 10):
        samples = [random_stochastic(rng, n, rng.uniform(0.05, 0.9)) for _ in range(14)]
        samples += [_function_chain(rng, n) for _ in range(10)]
        samples += [_cyclic_chain(rng, n) for _ in range(10)]
        for a in samples:
            s = chain_structure(a)
            assert s == chain_structure_oracle(a.matrix)
            # a class's reach is its size exactly when it is closed
            assert [r == len(c) for c, r in zip(s.classes, s.reach)] == list(s.closed)
            seen["periodic"] += any(p is not None and p > 1 for p in s.periods)
            seen["open"] += not s.all_closed
            seen["reducible"] += not s.is_irreducible
    assert min(seen.values()) >= 60, seen
    fed_periods = set()
    for n in range(3, 15):
        for _ in range(6):
            a = _fed_cyclic_chain(rng, n)
            s = chain_structure(a)
            assert s == chain_structure_oracle(a.matrix)
            assert [r == len(c) for c, r in zip(s.classes, s.reach)] == list(s.closed)
            assert s.transient_states
            fed_periods.update(p for p, flag in zip(s.periods, s.closed) if flag)
    assert fed_periods == {1, 2, 3, 4, 5}


# -- quasi-positivity --------------------------------------------------------------


def test_quasi_positive_examples(chains):
    assert is_quasi_positive(chains[1]) is None
    assert is_quasi_positive(chains[4]) is None
    assert is_quasi_positive(StochasticMatrix(UNIFORM2)) == 1


def test_quasi_positive_iff_irreducible_aperiodic():
    rng = random.Random(21)
    for _ in range(40):
        a = random_stochastic(rng, rng.randint(2, 5), density=rng.uniform(0.3, 0.9))
        s = chain_structure(a)
        classical = s.is_irreducible and s.is_aperiodic
        assert (is_quasi_positive(a) is not None) == classical


def test_quasi_positive_exponent_matches_the_integer_power_oracle():
    rng = random.Random(8)
    for _ in range(200):
        a = random_stochastic(rng, rng.randint(1, 6), density=rng.uniform(0.1, 0.9))
        assert is_quasi_positive(a) == positive_power_oracle(a.matrix)
    for n in range(2, 13):
        # the Wielandt-extremal chain: an n-cycle plus the shortcut n -> 2
        rows = [[Fraction(1) if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
        rows[n - 1] = [Fraction(1, 2) if j in (0, 1) else 0 for j in range(n)]
        a = StochasticMatrix(Matrix.from_rows(rows))
        assert is_quasi_positive(a) == positive_power_oracle(a.matrix) == n * n - 2 * n + 2
    for n in range(2, 13):
        # every cycle of a chain stepping round p >= 2 groups has a length divisible by p
        a = _cyclic_chain(rng, n)
        while chain_structure(a).is_aperiodic:
            a = _cyclic_chain(rng, n)
        assert is_quasi_positive(a) is positive_power_oracle(a.matrix) is None


def test_every_support_pattern_up_to_three_states_matches_the_oracles(monkeypatch):
    # every 0/1 pattern with no zero row, each row normalised: 1 + 9 + 343 chains
    count = 0
    for n in range(1, 4):
        supports = [row for row in itertools.product((0, 1), repeat=n) if any(row)]
        for pattern in itertools.product(supports, repeat=n):
            a = validate_stochastic(Matrix.from_rows([[F(e, sum(row)) for e in row]
                                                      for row in pattern]))
            assert is_quasi_positive(a) == positive_power_oracle(a.matrix)
            with monkeypatch.context() as patch:
                patch.setattr(markov, "_criterion_certificate", certificate_oracle)
                patch.setattr(markov, "_block_certificate", dense_route(oracle=True))
                patch.setattr(markov, "_nonnegative_fixed_vector", fixed_vector_oracle)
                expected = zeon_criterion(a)
            assert zeon_criterion(a) == expected
            count += 1
    assert count == 353


# -- invariant vectors ---------------------------------------------------------------


def test_invariants_fixture_four(chains):
    inv = invariant_distributions(chains[4])
    assert [v.to_lists() for v in inv.basis] == [[[1, 1, F(1, 2), F(1, 2), 1]]]
    assert inv.has_positive
    assert inv.distribution.to_lists() == [[F(1, 4), F(1, 4), F(1, 8), F(1, 8), F(1, 4)]]
    # every basis vector is exactly invariant
    for v in inv.basis:
        assert v * chains[4].matrix == v


def test_invariants_fixture_three(chains):
    inv = invariant_distributions(chains[3])
    assert [v.to_lists() for v in inv.basis] == [[[1, 1, 0, 0, 0]], [[0, 0, 1, 1, 1]]]
    assert inv.has_positive and inv.distribution is None


def test_invariants_fixture_one(chains):
    inv = invariant_distributions(chains[1])
    assert [v.to_lists() for v in inv.basis] == [[[0, 0, 1]]]
    assert not inv.has_positive
    assert inv.distribution.to_lists() == [[0, 0, 1]]


def test_invariants_fixture_two(chains):
    inv = invariant_distributions(chains[2])
    assert [v.to_lists() for v in inv.basis] == [[[0, 1, 0, 0]], [[0, 0, 0, 1]]]
    assert not inv.has_positive


def test_invariants_fixture_five(chains):
    inv = invariant_distributions(chains[5])
    assert [v.to_lists() for v in inv.basis] == [[[1, 2, 0, 0, 2, 1]], [[0, 0, 1, 1, 0, 0]]]
    for v in inv.basis:
        assert v * chains[5].matrix == v


def test_invariant_basis_matches_the_whole_matrix_left_null_space():
    # reference: the canonical basis of {v : v A = v} from one elimination
    # of A - I, the route the per-class distributions replace
    rng = random.Random(34)
    for n in range(2, 9):
        for density in (0.15, 0.4, 0.8):
            a = random_stochastic(rng, n, density)
            reference = left_null_space_oracle(a.matrix - Matrix.identity(n))
            assert list(invariant_distributions(a).basis) == reference


def _huge_chain(rng, n):
    # two or three closed blocks, and a transient state when n > 3, with
    # weights up to 10^30 and so denominators up to about 10^31
    states = list(range(n))
    rng.shuffle(states)
    transient = states.pop() if n > 3 else None
    cuts = sorted(rng.sample(range(1, len(states)), min(len(states) - 1, rng.randint(1, 2))))
    blocks = [states[i:j] for i, j in zip([0] + cuts, cuts + [len(states)])]
    rows = [None] * n
    for support in blocks + ([list(range(n))] if transient is not None else []):
        for i in (support if len(support) < n else [transient]):
            weights = [rng.randint(0, 10**30) if j in support else 0 for j in range(n)]
            weights[rng.choice(support)] += 1
            rows[i] = [F(w, sum(weights)) for w in weights]
    return validate_stochastic(Matrix.from_rows(rows))


def test_class_distributions_match_the_fraction_gauss_jordan_oracle():
    rng = random.Random(43)
    cases = [a for a, _ in _sandwich_cases()] + [_huge_chain(rng, n) for n in range(2, 10)
                                                  for _ in range(3)]
    several = 0
    for a in cases:
        structure = chain_structure(a)
        pis = markov._class_distributions(*a.matrix.integer_rows(), structure)
        expected = [stationary_oracle(a.matrix, c) for c in structure.closed_classes]
        assert len(pis) == len(expected)
        for pi, reference in zip(pis, expected):
            assert list(pi.items()) == list(reference.items())
            assert [type(e) for e in pi.values()] == [type(e) for e in reference.values()]
        several += len(pis) > 1
    assert several >= 30, several


# -- limits -----------------------------------------------------------------------


def test_limit_fixture_one(chains):
    assert ergodic_limit(chains[1]) == Matrix.from_rows([[0, 0, 1]] * 3)


def test_limit_fixture_two(chains):
    expected = Matrix.from_rows([
        [0, 1, 0, 0],
        [0, 1, 0, 0],
        [0, F(1, 2), 0, F(1, 2)],
        [0, 0, 0, 1],
    ])
    assert ergodic_limit(chains[2]) == expected


def test_limit_uniform():
    assert ergodic_limit(StochasticMatrix(UNIFORM2)) == UNIFORM2


def test_limit_absent_for_periodic(chains):
    assert ergodic_limit(chains[4]) is None
    assert ergodic_limit(chains[5]) is None


def test_limit_block_structure_fixture_three(chains):
    limit = ergodic_limit(chains[3])
    assert limit.row(0) == (F(1, 2), F(1, 2), 0, 0, 0)
    assert limit.row(2) == (0, 0, F(1, 3), F(1, 3), F(1, 3))
    a = chains[3].matrix
    assert limit * limit == limit == a * limit == limit * a


def test_limit_is_projection_commuting_with_chain():
    rng = random.Random(22)
    for _ in range(15):
        a = random_recurrent_stochastic(rng, 4)
        limit = ergodic_limit(a)
        if limit is None:
            continue
        m = a.matrix
        assert limit * limit == limit == m * limit == limit * m


def _transient_limit_cases():
    rng = random.Random(23)
    for n in range(2, 10):
        for density in (0.2, 0.2, 0.35, 0.35):
            yield random_stochastic(rng, n, density)
    families = _bench_families()
    for n in range(6, 15):
        for seed in range(2):
            yield _bench_chain(families, families.TRANSIENT, n, seed)


def test_limit_is_the_projection_onto_the_closed_classes_with_transient_rows():
    # L A = A L = L L = L puts L's rows in the span of the class distributions
    # and its columns in that of the absorption vectors; an idempotent of rank
    # (= trace) the number of closed classes on that pairing is L itself
    checked = transient = 0
    for a in _transient_limit_cases():
        limit = ergodic_limit(a)
        if limit is None:
            continue
        structure = chain_structure(a)
        m = a.matrix
        assert limit * m == m * limit == limit * limit == limit
        assert limit.trace() == len(structure.closed_classes)
        checked += 1
        transient += bool(structure.transient_states)
    assert checked >= 40 and transient >= checked * 2 // 3, (checked, transient)


# -- determinant criterion -----------------------------------------------------------


def test_criterion_fixture_one(chains):
    report = zeon_criterion(chains[1])
    assert report.det_value == F(7, 16)
    assert report.criterion_verdict is Verdict.INAPPLICABLE
    assert not report.is_irreducible
    assert report.witness is None
    assert report.limit_matrix == Matrix.from_rows([[0, 0, 1]] * 3)


def test_criterion_fixture_two(chains):
    report = zeon_criterion(chains[2])
    assert report.det_value == 0
    assert report.criterion_verdict is Verdict.INAPPLICABLE
    # a nonnegative fixed vector exists even though the construction
    # for recurrent chains does not apply: found in the fixed space
    assert report.witness is not None
    assert report.witness.coords == (0, 1, 2, 1, 2, 1)
    assert right_action(chains[2].matrix, report.witness) == report.witness


def test_criterion_fixture_three(chains):
    report = zeon_criterion(chains[3])
    assert report.det_value == 0
    assert report.criterion_verdict is Verdict.NOT_ERGODIC
    assert report.has_positive_invariant
    assert report.witness == witness_reducible(chain_structure(chains[3]))


def test_criterion_fixture_four(chains):
    report = zeon_criterion(chains[4])
    assert report.det_value == 0
    assert report.criterion_verdict is Verdict.NOT_ERGODIC
    assert report.witness == witness_periodic(chain_structure(chains[4]), 1)
    assert report.quasi_positive_exponent is None


def test_criterion_uniform_is_ergodic():
    report = zeon_criterion(StochasticMatrix(UNIFORM2))
    assert report.criterion_verdict is Verdict.ERGODIC
    assert report.det_value != 0
    assert report.quasi_positive_exponent == 1
    assert report.invariant_distribution.to_lists() == [[F(1, 2), F(1, 2)]]
    assert report.limit_matrix == UNIFORM2


def test_criterion_one_state_chain_is_ergodic():
    a = StochasticMatrix(Matrix.from_rows([[1]]))
    report = zeon_criterion(a)
    assert report.criterion_verdict is Verdict.ERGODIC
    assert report.det_value == 1
    assert report.witness is None
    chk = check_equivalence(a)
    assert chk.det_value == 1 and chk.consistent and chk.classical_ergodic


def _wide_denominators(rng, n):
    # an n-state chain whose literals have 25-digit denominators: the products
    # of numerators that pack the criterion block are wider than 8 bytes a slot
    rows = []
    for _ in range(n):
        d = rng.randrange(10**24, 10**25)
        weights = [rng.randrange(1, d // n) for _ in range(n - 1)]
        rows.append([F(w, d) for w in weights + [d - sum(weights)]])
    return validate_stochastic(Matrix.from_rows(rows))


def test_criterion_determinant_matches_bareiss_on_the_compound(tmp_path, capsys):
    rng = random.Random(33)
    for n in range(2, 10):
        for density in (0.2, 0.5, 0.9):
            a = random_stochastic(rng, n, density)
            rows, scales = (Matrix.identity(math.comb(n, 2)) - zeon_power(a.matrix, 2)).integer_rows()
            expected = linalg.exact_div(determinant_oracle(rows), math.prod(scales))
            assert criterion_determinant(a) == expected
    # the bench ergodic chain at n = 18, and 6 states with 25-digit
    # denominators: analyze exits 0, every route gives one nonzero
    # determinant, the oracle's mod q (the exact one at N = 153 takes
    # seconds), and check_equivalence agrees with the classical verdict
    families = _bench_families()
    q = (1 << 61) - 1
    for a in (_bench_chain(families, families.ERGODIC, 18, 0), _wide_denominators(random.Random(25), 6)):
        rows, det_d = criterion_rows(*a.matrix.integer_rows())
        code, report = _analyze(tmp_path, capsys, a)
        chk = check_equivalence(a)
        det = Fraction(report["det_value"])
        assert code == 0 and chk.consistent and chk.classical_ergodic
        assert det == criterion_determinant(a) == chk.det_value != 0
        assert det.numerator * det_d % q == determinant_mod(rows) * det.denominator % q


def _analyze(tmp_path, capsys, a):
    # the analyze command's exit code and report on the chain a
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"rows": matrix_to_rows(a.matrix)}))
    code = main(["analyze", str(path)])
    return code, json.loads(capsys.readouterr().out)["report"]


def _counting(monkeypatch, owner, name, *also_bound_in):
    """Count the calls of ``owner.name``, through every module in
    ``also_bound_in`` that imported it by name as well."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (owner, *also_bound_in):
        assert getattr(module, name) is original
        monkeypatch.setattr(module, name, counted)
    return calls


def _largest_class_pair_block(a):
    # the pairs of a's largest class-pair block: C(k, 2) inside a class of k
    # states, k l across classes of k and l states
    sizes = [len(c) for c in chain_structure_oracle(a.matrix).classes]
    return max(x * y if i < j else math.comb(x, 2)
               for (i, x), (j, y) in itertools.combinations_with_replacement(enumerate(sizes), 2))


def _refuse_blocks_past_the_largest_class_pair(monkeypatch, a):
    """Make ``markov._class_pair_block`` refuse more pairs than a's largest
    class-pair block holds: no route then builds the criterion rows whole,
    unless they are that block (one class)."""
    largest = _largest_class_pair_block(a)
    block = markov._class_pair_block

    def bounded(numerators, scales, first, second, pairs):
        if len(pairs) > largest:
            raise AssertionError(f"a block of {len(pairs)} pairs built, past the largest {largest}")
        return block(numerators, scales, first, second, pairs)

    monkeypatch.setattr(markov, "_class_pair_block", bounded)


def _class_pairs(first, second):
    # the pairs of two classes' block (one class: first is second), in
    # lexicographic order of the unordered pair, each led by its state in first
    expected = sorted({tuple(sorted((i, j))) for i in first for j in second if i != j})
    return [(i, j) if i in first else (j, i) for i, j in expected]


def _blocks_built(monkeypatch):
    """The pairs of each class-pair block that a certificate reads (its packed
    columns, or the entry of a 1 x 1 block), in the order they are first read:
    a block whose kernel is its checked cyclic indicators is never built.
    Each block's pairs are those of its two classes in lexicographic order,
    led by the class of fewer states."""
    built = []
    block = markov._class_pair_block

    def tracked(numerators, scales, first, second, pairs):
        assert len(first) <= len(second) and pairs == _class_pairs(first, second)
        packed = block(numerators, scales, first, second, pairs)

        def read(method):
            def first_read(*call):
                if not any(seen is pairs for seen in built):
                    built.append(pairs)
                return method(*call)
            return first_read
        return linalg.Packed(packed.size, packed.bound, read(packed.columns), packed.bounds,
                             read(packed.product))

    monkeypatch.setattr(markov, "_class_pair_block", tracked)
    return built


def test_criterion_is_one_pass(chains, monkeypatch):
    # no chain builds Psi2 rows: a closed not-ergodic chain checks its witness
    # on the n x n sandwich (_criterion_product) and builds no block; a chain
    # with transient states packs the columns of its class-pair blocks only; an
    # ergodic chain packs them once, on every pair
    ergodic = random_stochastic(random.Random(35), 6, density=1.0)
    cases = [(ergodic, Verdict.ERGODIC), (chains[3], Verdict.NOT_ERGODIC),
             (chains[4], Verdict.NOT_ERGODIC), (chains[2], Verdict.INAPPLICABLE)]
    for a, verdict in cases:
        with monkeypatch.context() as patch:
            structures = _counting(patch, markov, "chain_structure")
            compounds = _counting(patch, zeon, "zeon_power", degree2)
            psi2_rows = _counting(patch, zeon, "_psi2_rows")
            built = _blocks_built(patch)
            integer_rows = _counting(patch, Matrix, "integer_rows")
            report = zeon_criterion(a)
        assert report.criterion_verdict is verdict
        assert len(structures) == 1 and psi2_rows == []
        if verdict is Verdict.INAPPLICABLE:
            assert built and all(len(pairs) < math.comb(a.n, 2) for pairs in built)
        else:
            assert [len(pairs) for pairs in built] == (
                [math.comb(a.n, 2)] if verdict is Verdict.ERGODIC else [])
        assert [m for m, in integer_rows if m is a.matrix] == [a.matrix]
        assert compounds == []


def test_a_closed_not_ergodic_chain_builds_no_psi2_rows(monkeypatch):
    # at n = 60 the criterion rows would be 1770 x 1770
    families = _bench_families()
    for family in (families.REDUCIBLE, families.PERIODIC):
        a = _bench_chain(families, family, 60, 0)

        def refuse(*args):
            raise AssertionError("Psi2 rows built")

        with monkeypatch.context() as patch:
            patch.setattr(zeon, "_psi2_rows", refuse)
            certificates = _counting(patch, markov, "_criterion_certificate")
            report = zeon_criterion(a)
        assert report.criterion_verdict is Verdict.NOT_ERGODIC and report.det_value == 0
        assert certificates == [] and report.witness is not None


def _sandwich_cases():
    # (chain, label): every bench family and random_stochastic chains at
    # n = 2..9 (the reducible and transient families start at n = 3), and
    # chains with denominators up to 10^30
    families = _bench_families()
    rng = random.Random(41)
    for n in range(2, 10):
        for family in families.FAMILIES if n > 2 else (families.ERGODIC, families.PERIODIC):
            yield _bench_chain(families, family, n, n), f"{family} n={n}"
        for density in (0.3, 0.8):
            yield random_stochastic(rng, n, density), f"random n={n}"
        rows = []
        for _ in range(n):
            weights = [rng.randint(0, 10**30) if rng.random() < 0.7 else 0 for _ in range(n)]
            weights[rng.randrange(n)] += 1
            rows.append([F(w, sum(weights)) for w in weights])
        yield validate_stochastic(Matrix.from_rows(rows)), f"10^30 n={n}"


def _hat(n, coords):
    # X^ of the pair vector, by the degree-2 embedding, as integer rows
    return mat_embed(DegreeTwoVector(n, coords)).to_lists()


def test_the_sandwich_product_matches_the_criterion_rows():
    rng = random.Random(42)
    count = 0
    for a, label in _sandwich_cases():
        numerators, scales = a.matrix.integer_rows()
        rows, _ = criterion_rows(numerators, scales)
        size = len(rows)
        vectors = [[0] * size, [rng.randint(-9, 9) for _ in range(size)],
                   [rng.randint(-10**12, 10**12) for _ in range(size)]]
        structure = chain_structure(a)
        if structure.all_closed and not structure.is_irreducible:
            vectors.append(list(witness_reducible(structure).coords))
        elif structure.is_irreducible and not structure.is_aperiodic:
            vectors.append(list(witness_periodic(structure).coords))
        pairs = list(itertools.combinations(range(a.n), 2))
        for x in vectors:
            product = markov._criterion_product(numerators, scales, _hat(a.n, x), pairs)
            assert product == [sum(map(operator.mul, row, x)) for row in rows], label
            assert all(type(e) is int for e in product)
        if len(vectors) == 4:
            assert not any(product), label  # the witness is fixed
            count += 1
    assert count >= 15, count  # the reducible and periodic families at least


def test_the_sandwich_product_on_some_rows_matches_those_criterion_rows():
    # M x on a subset of the pairs, each pair in either order, from the sides of
    # the first states alone
    rng = random.Random(43)
    for a, label in _sandwich_cases():
        numerators, scales = a.matrix.integer_rows()
        rows, _ = criterion_rows(numerators, scales)
        pairs = list(itertools.combinations(range(a.n), 2))
        x = [rng.randint(-10**12, 10**12) if rng.random() < 0.7 else 0 for _ in pairs]
        for count in (0, 1, rng.randint(1, len(pairs)), len(pairs)):
            chosen = rng.sample(range(len(pairs)), count)
            oriented = [pairs[r][::rng.choice((1, -1))] for r in chosen]
            assert markov._criterion_product(numerators, scales, _hat(a.n, x), oriented) == [
                sum(map(operator.mul, rows[r], x)) for r in chosen], label


def _scan_fixed_space_of_the_compound(a):
    # reference: the first vector of the canonical basis of the fixed
    # space of the Fraction compound that is nonnegative up to sign
    psi = zeon_power(a.matrix, 2)
    for v in null_space_oracle(psi - Matrix.identity(psi.rows)):
        x = DegreeTwoVector(a.n, v)
        for candidate in (x, -1 * x):
            if any(x.coords) and candidate.is_nonnegative():
                return candidate
    return None


def test_transient_witness_matches_the_scan_of_the_compound():
    rng = random.Random(36)
    found = 0
    for n in range(3, 8):
        for _ in range(30):
            a = random_stochastic(rng, n, rng.uniform(0.2, 0.6))
            if chain_structure(a).all_closed:
                continue
            expected = _scan_fixed_space_of_the_compound(a)
            report = zeon_criterion(a)
            assert report.criterion_verdict is Verdict.INAPPLICABLE
            assert report.witness == expected
            found += expected is not None
    assert found >= 20, found


def _bench_families():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "families.py")
    spec = importlib.util.spec_from_file_location("bench_families", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(module)
    return module


def test_transient_witness_is_unchanged_on_the_bench_family(monkeypatch):
    families = _bench_families()
    found = 0
    for n in range(6, 11):
        for seed in range(3):
            chain = families.make(random.Random(seed), families.TRANSIENT, n)
            a = validate_stochastic(Matrix.from_rows([list(row) for row in chain.rows]))
            with monkeypatch.context() as patch:
                patch.setattr(markov, "_nonnegative_fixed_vector", fixed_vector_oracle)
                expected = zeon_criterion(a)
            report = zeon_criterion(a)
            assert report.criterion_verdict is Verdict.INAPPLICABLE
            assert report == expected
            found += report.witness is not None
    assert found >= 10, found


def _bench_chain(families, family, n, seed):
    chain = families.make(random.Random(seed), family, n)
    return validate_stochastic(Matrix.from_rows([list(row) for row in chain.rows]))


def _assert_is_a_witness(a, w):
    # w is nonzero, nonnegative and fixed by Psi2(A), through the compound
    assert any(w.coords) and w.is_nonnegative()
    assert right_action(a.matrix, w) == w


def test_report_matches_the_bareiss_and_fraction_null_space_route(monkeypatch):
    families = _bench_families()
    found = 0
    for family in (families.REDUCIBLE, families.PERIODIC, families.TRANSIENT):
        for n in range(4, 13):
            for seed in range(2):
                a = _bench_chain(families, family, n, seed)
                with monkeypatch.context() as patch:
                    patch.setattr(markov, "_criterion_certificate", certificate_oracle)
                    patch.setattr(markov, "_block_certificate", dense_route(oracle=True))
                    patch.setattr(markov, "_nonnegative_fixed_vector", fixed_vector_oracle)
                    lu = _counting(patch, linalg, "_lu_mod")
                    expected = zeon_criterion(a)
                assert lu == []
                report = zeon_criterion(a)
                assert report.det_value == 0
                assert report == expected
                assert report_to_dict(report) == report_to_dict(expected)
                found += report.witness is not None
                # the class-pair route with the oracle's determinants, kernels and solutions
                with monkeypatch.context() as patch:
                    patch.setattr(markov, "_criterion_certificate", certificate_oracle)
                    assert zeon_criterion(a) == report
    assert found >= 40, found


def _class_pair_blocks(a):
    # {(c, c'): (size, reach sum)} over the pairs of classes c <= c' of
    # chain_structure_oracle, size the number of pairs of states in them and
    # the reach sum r(c) + r(c'), r 0 on a closed class and else its reach;
    # each state's class; and {c: the classes c leads to, itself included}
    structure = chain_structure_oracle(a.matrix)
    owner = {s: c for c, states in enumerate(structure.classes) for s in states}
    reach = reach_oracle(a.matrix)
    leads = {c: {owner[j + 1] for j in range(a.n) if reach[states[0] - 1][j]}
             for c, states in enumerate(structure.classes)}
    r = [0 if closed else count for closed, count in zip(structure.closed, structure.reach)]
    blocks = {}
    for i, j in itertools.combinations(range(1, a.n + 1), 2):
        key = tuple(sorted((owner[i], owner[j])))
        size, _ = blocks.get(key, (0, 0))
        blocks[key] = size + 1, r[key[0]] + r[key[1]]
    return blocks, owner, leads


def test_a_zero_criterion_determinant_needs_no_exact_elimination(monkeypatch):
    # a closed chain's witness proves det = 0 with no LU and no lift; on a
    # transient chain no closed block is built: the kernel of the block of the
    # two closed classes (the bench family's whole kernel) is its checked
    # cyclic indicators, and the blocks inside its two aperiodic closed
    # classes are nonsingular; each transient class-pair block is built once,
    # in order of reach sum and after every block it leads to, and its one
    # LU mod p extends each kernel vector by one lift; a 1 x 1 block takes no
    # LU; no elimination but the echelon forms of at most n rows, and no
    # Fraction echelon form
    families = _bench_families()
    for family in (families.REDUCIBLE, families.PERIODIC, families.TRANSIENT):
        for n in range(6, 11):
            a = _bench_chain(families, family, n, 0)
            rows, _ = criterion_rows(*a.matrix.integer_rows())
            nullity = len(rows) - rank_oracle(Matrix.from_rows(rows))
            with monkeypatch.context() as patch:
                lu = _counting(patch, linalg, "_lu_mod")
                bareiss = _counting(patch, linalg, "_bareiss", markov)
                rrefs = _counting(patch, Matrix, "rref")
                assert linalg.integer_det(rows) == 0
                assert (len(lu), len(bareiss)) == (1, 0)
                lu.clear()
                lifts = _counting(patch, linalg, "_lift")
                built = _blocks_built(patch)
                report = zeon_criterion(a)
            sizes = [len(m) for m, *_ in lu]
            if family != families.TRANSIENT:
                assert (sizes, lifts, built) == ([], [], [])
            else:
                blocks, owner, leads = _class_pair_blocks(a)
                keys = []
                for pairs in built:  # each block's pairs meet one pair of classes
                    (key,) = {tuple(sorted((owner[i + 1], owner[j + 1]))) for i, j in pairs}
                    keys.append(key)
                closed = [key for key, (_, total) in blocks.items() if total == 0]
                assert sum(c != d for c, d in closed) == 1 and sorted(keys) == sorted(set(blocks) - set(closed))
                assert [len(pairs) for pairs in built] == [blocks[key][0] for key in keys]
                sums = [blocks[key][1] for key in keys]
                assert sums == sorted(sums) and 0 not in sums
                for k, (c, d) in enumerate(keys):  # built after every block it leads to
                    below = {tuple(sorted(key)) for key in itertools.product(leads[c], leads[d])}
                    assert below & set(keys[k:]) == {(c, d)}
                assert sizes == [len(pairs) for pairs in built if len(pairs) > 1]
                assert len(lifts) == nullity * len(sizes) and nullity == 1
            assert all(len(m) <= a.n for m, in bareiss) and rrefs == []
            assert report.witness is not None


def _dixon_steps(rows, p, hadamard=False):
    # the digits Dixon lifting takes for M x = b, b as in _criterion_certificate:
    # the least K with p^K > 2 * Nb * h, Nb the Cramer bound by Hadamard's
    # inequality on M's columns, and h the product of M's diagonal (the bound
    # of an M-matrix, each class-pair block) or, with ``hadamard``, Hadamard's
    # bound on |det M|
    b = [(7 * i) % 11 - 5 for i in range(len(rows))]
    col_norms = [sum(e * e for e in col) for col in zip(*rows)]
    col_bound = math.prod(col_norms)
    h = (math.isqrt(min(col_bound, math.prod(sum(e * e for e in row) for row in rows))) + 1
         if hadamard else math.prod(rows[i][i] for i in range(len(rows))))
    nb = math.isqrt(col_bound * sum(e * e for e in b) // min(col_norms)) + 1
    steps = 1
    while p ** steps <= 2 * nb * h:
        steps += 1
    return steps


def test_the_kernel_lift_stops_early_and_the_dixon_lift_does_not(monkeypatch):
    # on a transient chain the kernel vector of the block of the two closed
    # classes is lifted no digit (it is the block's cyclic indicator), and its
    # extension to the blocks of the transient class and a closed one passes
    # the exact check after one or two; the
    # block of pairs inside the transient class stops at 4 digits at n = 14,
    # and at n = 22 fails the tries at 1, 2, 4 and 8 digits and ends at its
    # Hadamard bound, 13 or 14 digits; a nonzero determinant lifts every
    # Hadamard digit
    families = _bench_families()
    cases = [(families.TRANSIENT, 14, seed, [1, 1, 4]) for seed in range(3)]
    cases += [(families.TRANSIENT, 22, seed, [2, 2, last])
              for seed, last in enumerate((13, 13, 14))]
    a = _bench_chain(families, families.ERGODIC, 18, 0)
    rows, _ = criterion_rows(*a.matrix.integer_rows())
    cases.append((families.ERGODIC, 18, 0, [_dixon_steps(rows, linalg.PRIMES[0])]))
    for family, n, seed, expected in cases:
        a = _bench_chain(families, family, n, seed)
        solves = []
        lift, solve_mod = linalg._lift, linalg._solve_mod

        def counted_lift(*args, **kwargs):
            solves.append(0)
            return lift(*args, **kwargs)

        def counted_solve_mod(*args):
            solves[-1] += 1
            return solve_mod(*args)

        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_lift", counted_lift)
            patch.setattr(linalg, "_solve_mod", counted_solve_mod)
            report = zeon_criterion(a)
        assert (report.det_value == 0) == (family == families.TRANSIENT)
        assert solves == expected, (family, n, seed)


def _ergodic_class_with_transient_states(families, closed, transient, seed):
    # the bench ergodic chain on the first states; each transient state steps
    # into the class and, each with chance 1/2, to any state
    rng = random.Random(seed)
    rows = [list(row) + [0] * transient for row in families.ergodic_chain(rng, closed).rows]
    n = closed + transient
    for _ in range(transient):
        weights = [rng.randint(1, 6) if rng.random() < 0.5 else 0 for _ in range(n)]
        weights[rng.randrange(closed)] = rng.randint(1, 6)
        rows.append([F(w, sum(weights)) for w in weights])
    return validate_stochastic(Matrix.from_rows(rows))


def test_a_cofactor_beyond_the_first_primes_needs_no_exact_elimination(monkeypatch):
    # transient states split det != 0 over several invariant factors, so D
    # falls short of det and the cofactor det/D needs more primes than
    # PRIMES[1:] hold; no elimination but the echelon forms of at most n rows
    # runs
    families = _bench_families()
    for closed, transient, seed in [(8, 4, 2), (11, 4, 2)]:
        a = _ergodic_class_with_transient_states(families, closed, transient, seed)
        with monkeypatch.context() as patch:
            patch.setattr(markov, "_block_certificate", dense_route(oracle=True))
            expected = zeon_criterion(a)
        with monkeypatch.context() as patch:
            bareiss = _counting(patch, linalg, "_bareiss", markov)
            report = zeon_criterion(a)
        assert bareiss and all(len(m) <= a.n for m, in bareiss)
        assert report.det_value != 0
        assert report == expected and report_to_dict(report) == report_to_dict(expected)
    # n = 22, N = 231: the exact route takes about 10 s, so its report is
    # recorded as the SHA-256 of its sorted JSON
    a = _ergodic_class_with_transient_states(families, 15, 7, 0)
    with monkeypatch.context() as patch:
        bareiss = _counting(patch, linalg, "_bareiss", markov)
        report = json.dumps(report_to_dict(zeon_criterion(a)), sort_keys=True)
    assert bareiss and all(len(m) <= a.n for m, in bareiss)
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "9b352531ea56c96636d22f3d9a2142e5096eb6470158e495f11070b5b2340e92")


def _closed_classes_with_transient_states(rng, periods, size, transient):
    """Closed classes of the given periods, ``size`` states each, and
    ``transient`` states that each step into a random closed state and, each
    with chance 1/2, to any state. A class of period p steps from each of its
    p cyclic groups to every state of the next; an aperiodic class has every
    edge. States are shuffled."""
    order, weights = _closed_classes(rng, periods, size, transient)
    closed_states = order[:len(periods) * size]
    for i in order[len(periods) * size:]:
        weights[i] = [rng.randint(1, 6) if rng.random() < 0.5 else 0 for _ in range(len(order))]
        weights[i][rng.choice(closed_states)] += rng.randint(1, 6)
    return _chain_of_weights(weights)


def _closed_classes(rng, periods, size, transient):
    # the shuffled states, closed classes first, and the weights of the closed
    # classes of _closed_classes_with_transient_states
    n = len(periods) * size + transient
    order = list(range(n))
    rng.shuffle(order)
    weights = [[0] * n for _ in range(n)]
    for c, period in enumerate(periods):
        members = order[c * size:(c + 1) * size]
        groups = [members[g::period] for g in range(period)]
        for g, group in enumerate(groups):
            for i in group:
                for j in groups[(g + 1) % period] if period > 1 else members:
                    weights[i][j] = rng.randint(1, 6)
    return order, weights


def _chain_of_weights(weights):
    return validate_stochastic(Matrix.from_rows([[F(w, sum(row)) for w in row]
                                                 for row in weights]))


def _layered_transient_chain(rng, periods, size, layers):
    """Closed classes as in ``_closed_classes_with_transient_states``, under
    ``layers`` of transient classes, each layer a list of class sizes. A
    transient class is a cycle through its states (one state with or without
    a loop); each of its states steps into a random state of the layer below
    (the closed states, under the first layer) and, each with chance 1/3, to
    any state of a lower layer. So a class in layer k leads into a class of
    each layer below it."""
    order, weights = _closed_classes(rng, periods, size, sum(map(sum, layers)))
    start = len(periods) * size
    below = [order[:start]]
    for layer in layers:
        states = []
        for k in layer:
            members = order[start:start + k]
            start += k
            for i, j in zip(members, members[1:] + members[:1]):
                if k > 1 or rng.random() < 0.5:
                    weights[i][j] = rng.randint(1, 6)
            for i in members:
                weights[i][rng.choice(below[-1])] += rng.randint(1, 6)
                for j in itertools.chain(*below):
                    if rng.random() < 1 / 3:
                        weights[i][j] += rng.randint(1, 6)
            states += members
        below.append(states)
    return _chain_of_weights(weights)


def _transient_cases(chains):
    # (chain, label): the fixtures, every bench family at n = 3..16 (seeds
    # 0-3), random chains with transient states, closed classes of every
    # period with transient states, one aperiodic closed class with them, and
    # transient classes in layers over closed classes of every period
    families = _bench_families()
    for i, a in chains.items():
        yield a, f"example{i}"
    for n in range(3, 17):
        for seed in range(4):
            for family in families.FAMILIES:
                yield _bench_chain(families, family, n, seed), f"{family} n={n} seed={seed}"
    rng = random.Random(57)
    found = 0
    while found < 120:
        n = rng.randint(2, 8)
        a = random_stochastic(rng, n, rng.uniform(0.15, 0.7))
        if not chain_structure(a).all_closed:
            found += 1
            yield a, f"random n={n}"
    for periods in [(2, 1), (2, 2), (3, 3), (2, 4), (3, 6), (1, 1, 1), (2, 2, 1), (1, 3, 3)]:
        for size, transient in [(3, 1), (4, 3), (6, 2)]:
            if size >= max(periods):
                label = f"periods {periods}, {size} states each, {transient} transient"
                yield _closed_classes_with_transient_states(rng, periods, size, transient), label
    for closed, transient, seed in [(3, 1, 0), (5, 3, 1), (8, 4, 2), (11, 4, 2)]:
        label = f"det != 0: {closed} + {transient} states"
        yield _ergodic_class_with_transient_states(families, closed, transient, seed), label
    for periods in [(1, 1), (2, 1), (2, 3), (1,), (4,)]:
        for layers in [[[1], [1]], [[2, 1], [1]], [[1, 1], [2], [1]], [[3], [1, 2]]]:
            for size in (3, 4):
                if size >= max(periods):
                    label = f"periods {periods}, {size} states each, layers {layers}"
                    yield _layered_transient_chain(rng, periods, size, layers), label


def test_the_block_route_gives_the_reports_of_the_dense_route(chains, monkeypatch):
    # the class-pair blocks against the whole N x N matrix: one LU mod p of it
    # (_criterion_certificate, as each block takes) and the witness search on
    # its kernel; no block is larger than the largest class pair
    counts = {"transient": 0, "witness": 0, "nonzero": 0, "periodic": 0, "classes": 0,
              "layered": 0, "transient pairs": 0}
    for a, label in _transient_cases(chains):
        with monkeypatch.context() as patch:
            patch.setattr(markov, "_block_certificate", dense_route())
            expected = zeon_criterion(a)
        with monkeypatch.context() as patch:
            _refuse_blocks_past_the_largest_class_pair(patch, a)
            report = zeon_criterion(a)
        assert report == expected, label
        assert report_to_dict(report) == report_to_dict(expected), label
        structure = chain_structure(a)
        if not structure.all_closed:
            counts["transient"] += 1
            counts["witness"] += report.witness is not None
            counts["nonzero"] += report.det_value != 0
            counts["periodic"] += not structure.is_aperiodic
            counts["classes"] += len(structure.closed_classes) >= 3
            _, _, leads = _class_pair_blocks(a)  # a transient class over another
            counts["layered"] += any(not structure.closed[k] for c, into in leads.items()
                                     for k in into - {c})
            counts["transient pairs"] += structure.closed.count(False) >= 2
    assert counts["transient"] >= 200 and counts["witness"] >= 90, counts
    assert counts["nonzero"] >= 40 and counts["periodic"] >= 10 and counts["classes"] >= 5, counts
    assert counts["layered"] >= 90 and counts["transient pairs"] >= 110, counts


def _digest_cases(chains):
    # the fixtures, every bench family at n = 3..12 (seeds 0-1), 200 random
    # chains at n = 2..9, closed classes of period 1-4 under transient states,
    # and transient classes in layers over them
    families = _bench_families()
    yield from chains.values()
    for n in range(3, 13):
        for seed in range(2):
            for family in families.FAMILIES:
                yield _bench_chain(families, family, n, seed)
    rng = random.Random(2029)
    for _ in range(200):
        yield random_stochastic(rng, rng.randint(2, 9), rng.uniform(0.1, 0.9))
    for periods in [(1,), (2,), (3,), (4,), (1, 1), (2, 1), (2, 4), (3, 3), (1, 2, 4)]:
        for size, transient in [(4, 1), (4, 3)]:
            yield _closed_classes_with_transient_states(rng, periods, size, transient)
        for layers in [[[1], [2]], [[2, 1], [1, 1]]]:
            yield _layered_transient_chain(rng, periods, 4, layers)


def test_the_reports_keep_their_digest(chains):
    # the SHA-256 over the sorted JSON of each report, the check_equivalence
    # repr and criterion_determinant of _digest_cases: a change that moves any
    # of them, on purpose or not, has to change this digest
    digest = hashlib.sha256()
    count = 0
    for a in _digest_cases(chains):
        for text in (json.dumps(report_to_dict(zeon_criterion(a)), sort_keys=True),
                     repr(check_equivalence(a)), str(criterion_determinant(a))):
            digest.update(text.encode() + b"\n")
        count += 1
    assert count == 321
    assert digest.hexdigest() == (
        "77da4e3538069d9a5f13d647b3d855ec746c8ba222969b4563c5d9b25f96b895")


def test_no_report_depends_on_the_first_prime(chains, monkeypatch):
    # the LUs start at 1 000 000 007 (inside _slot_reducer's range) instead of
    # PRIMES[0], the retries and the CRT at the primes below it: every report,
    # equivalence check and determinant is the same
    def results(a):
        return report_to_dict(zeon_criterion(a)), check_equivalence(a), criterion_determinant(a)

    cases = list(_transient_cases(chains))
    expected = [results(a) for a, _ in cases]
    first = 1_000_000_007
    monkeypatch.setattr(linalg, "PRIMES", (first, *itertools.islice(linalg._primes_below(first), 3)))
    lu = _counting(monkeypatch, linalg, "_lu_mod")
    for (a, label), want in zip(cases, expected, strict=True):
        assert results(a) == want, label
    assert max(p for _, p, _ in lu) == first


def test_the_determinant_is_nonzero_exactly_on_a_regular_chain(chains):
    # on chains with transient states too: the determinant of the whole N x N
    # criterion rows, which reads no class structure, is check_equivalence's and
    # criterion_determinant's, and it is nonzero exactly when the oracle's
    # structure has one closed class, aperiodic
    counts = {"transient": 0, "regular": 0}
    for a, label in _transient_cases(chains):
        chk = check_equivalence(a)
        rows, det_d = criterion_rows(*a.matrix.integer_rows())
        whole = linalg.exact_div(linalg.integer_det(rows), det_d)
        assert chk.det_value == criterion_determinant(a) == whole, label
        structure = chain_structure_oracle(a.matrix)
        regular = [p for p, closed in zip(structure.periods, structure.closed) if closed] == [1]
        assert chk.is_regular == regular and chk.determinant_consistent, label
        forged = dataclasses.replace(chk, det_value=0 if chk.det_value else 1)
        assert not forged.determinant_consistent and not forged.consistent, label
        counts["transient"] += not structure.all_closed
        counts["regular"] += regular and not structure.all_closed
    assert counts["transient"] >= 200 and counts["regular"] >= 100, counts


def test_the_class_pair_identity_matches_the_whole_determinant():
    # det M = det M_TT * prod det M_ab, and M_TT splits over its own class pairs
    rng = random.Random(59)
    transient = 0
    for n in range(2, 7):
        for density in (0.2, 0.4, 0.6, 0.8):
            for a in (random_stochastic(rng, n, density), random_recurrent_stochastic(rng, n)):
                rows, det_d = criterion_rows(*a.matrix.integer_rows())
                expected = linalg.exact_div(determinant_oracle(rows), det_d)
                for lump in (True, False):
                    assert class_pair_determinant_oracle(a.matrix, lump) == expected
                transient += not chain_structure(a).all_closed
    assert transient >= 8, transient


def test_a_chain_with_transient_states_builds_no_criterion_rows(monkeypatch):
    # at n = 30 the criterion rows would be 435 x 435: the bench transient chain
    # (det 0) and one aperiodic closed class with transient states (det != 0)
    families = _bench_families()
    cases = [(_bench_chain(families, families.TRANSIENT, 30, 0), True),
             (_ergodic_class_with_transient_states(families, 12, 6, 0), False)]

    for a, singular in cases:
        with monkeypatch.context() as patch:
            _refuse_blocks_past_the_largest_class_pair(patch, a)
            lu = _counting(patch, linalg, "_lu_mod")
            report = zeon_criterion(a)
        assert report.criterion_verdict is Verdict.INAPPLICABLE
        assert (report.det_value == 0) == singular and (report.witness is not None) == singular
        if singular:
            _assert_is_a_witness(a, report.witness)
        # no LU is larger than the largest class-pair block: 100 of 435 pairs for
        # the bench chain of three classes of 10 states, 72 of 153 for 12 + 6 states
        largest = _largest_class_pair_block(a)
        assert max(len(m) for m, *_ in lu) == largest == (100 if singular else 72)


@pytest.mark.parametrize("det, chain", [(1, "reducible"), (0, "ergodic")])
def test_a_determinant_that_contradicts_the_classical_verdict_is_an_error(
        chains, monkeypatch, det, chain):
    if chain == "reducible":
        # the witness proves a closed chain's zero: make M the identity times
        # det (det D = 1), so that M w = det w != 0 and no witness is fixed
        a = chains[3]
        monkeypatch.setattr(markov, "_criterion_product",
                            lambda numerators, scales, hat, rows: [det * hat[i][j] for i, j in rows])
    else:
        a = validate_stochastic(UNIFORM2)
        monkeypatch.setattr(markov, "_criterion_certificate", lambda rows, rhs=(): (det, []))
    with pytest.raises(RuntimeError, match="disagree"):
        zeon_criterion(a)


@pytest.mark.parametrize("index, det", [(1, 0), (2, 1)])
def test_a_block_determinant_that_breaks_the_regular_rule_is_an_error(chains, monkeypatch,
                                                                      index, det):
    # example1 (det 7/16) has one aperiodic closed class, example2 (det 0) two
    monkeypatch.setattr(markov, "_block_certificate", lambda numerators, scales, structure: (det, []))
    with pytest.raises(RuntimeError, match="disagree"):
        zeon_criterion(chains[index])


def test_a_transient_block_proven_singular_is_an_error(chains, monkeypatch, capsys):
    # a block that meets a transient state is a nonsingular M-matrix, so one
    # that _criterion_certificate proves singular while it solves for a kernel
    # vector's extension contradicts the classical oracles: the analysis
    # raises, with no larger block built, and analyze exits 4; the
    # determinant-only callers solve no transient block
    expected = check_equivalence(chains[2])
    certificate = markov._criterion_certificate
    monkeypatch.setattr(markov, "_criterion_certificate",
                        lambda block, rhs=(): (0, [[1] * block.size]) if rhs
                        else certificate(block, rhs))
    _refuse_blocks_past_the_largest_class_pair(monkeypatch, chains[2])
    with pytest.raises(RuntimeError, match="disagree"):
        zeon_criterion(chains[2])
    assert main(["analyze", fixture_path("example2.json")]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("zeonmarkov: internal error: RuntimeError: a block")
    assert "the two routes disagree" in err
    assert check_equivalence(chains[2]) == expected and criterion_determinant(chains[2]) == 0


@pytest.mark.parametrize("index, construction",
                         [(3, "witness_reducible"), (4, "witness_periodic")])
def test_a_witness_that_is_not_fixed_is_an_error(chains, monkeypatch, index, construction):
    a = chains[index]
    wrong = vector_from_pairs(a.n, {(1, 2): 1})
    assert right_action(a.matrix, wrong) != wrong
    monkeypatch.setattr(markov, construction, lambda structure, delta=1: wrong)
    with pytest.raises(RuntimeError, match="not fixed"):
        zeon_criterion(a)


@pytest.mark.parametrize("index, construction",
                         [(3, "witness_reducible"), (4, "witness_periodic")])
def test_the_determinant_only_callers_call_no_witness_builder(chains, monkeypatch, index,
                                                              construction):
    # each takes one _block_certificate without the kernel, so a witness that is
    # not fixed changes no determinant; the analysis, which reports the witness,
    # still raises
    a = chains[index]
    wrong = vector_from_pairs(a.n, {(1, 2): 1})
    monkeypatch.setattr(markov, construction, lambda structure, delta=1: wrong)
    builders = [_counting(monkeypatch, markov, name)
                for name in ("witness_reducible", "witness_periodic", "_fixed_witness")]
    blocks = []
    certificate = markov._block_certificate
    monkeypatch.setattr(markov, "_block_certificate", lambda *args, **kwargs: blocks.append(
        kwargs) or certificate(*args, **kwargs))
    chk = check_equivalence(a)
    assert chk.det_value == 0 and chk.consistent and criterion_determinant(a) == 0
    assert builders == [[], [], []] and blocks == [{"whole_kernel": False}] * 2
    with pytest.raises(RuntimeError, match="not fixed"):
        zeon_criterion(a)


def test_witness_gives_the_vector_that_analyze_reports(tmp_path, capsys):
    # the witness command and the analysis choose and check the witness on one
    # path: the same coordinates, and a vector the command finds fixed, on the
    # fixtures and the bench reducible and periodic chains at n = 4..12 and
    # the periodic one at n = 30
    families = _bench_families()
    paths = [fixture_path(f"example{k}.json") for k in (3, 4, 5)]
    for family in (families.REDUCIBLE, families.PERIODIC):
        for n in range(4, 13):
            path = tmp_path / f"{family}{n}.json"
            path.write_text(json.dumps(families.to_json(families.make(random.Random(n), family, n))))
            paths.append(str(path))
    path = tmp_path / "periodic30.json"
    path.write_text(json.dumps(families.to_json(families.make(random.Random(0), families.PERIODIC, 30))))
    paths.append(str(path))
    for path in paths:
        assert main(["analyze", path]) == 1
        reported = json.loads(capsys.readouterr().out)["report"]["witness"]
        assert main(["witness", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coords"] == reported["coords"] and payload["fixed_point_verified"] is True
        assert "1" in payload["coords"], path


def _determinant_callers():
    return [criterion_determinant, lambda a: check_equivalence(a).det_value]


def test_a_closed_zero_determinant_takes_no_lu(chains, monkeypatch):
    # on a closed chain that is not regular, one checked cyclic indicator of
    # one closed block proves det = 0: no LU, no Psi2 rows and no criterion
    # block, which at n = 30 could be 435 x 435, and one _criterion_product:
    # on the block of two closed classes of a reducible chain, on every pair
    # of an irreducible periodic one
    families = _bench_families()
    cases = [chains[3], chains[4], chains[5]] + [_bench_chain(families, family, 30, 0)
                                                  for family in (families.REDUCIBLE, families.PERIODIC)]
    for a in cases:
        structure = chain_structure_oracle(a.matrix)
        blocks_of_two = [frozenset(map(frozenset, pairs)) for *_, pairs in _closed_class_pairs(a)]
        for determinant in _determinant_callers():
            with monkeypatch.context() as patch:
                lu = _counting(patch, linalg, "_lu_mod")
                psi2_rows = _counting(patch, zeon, "_psi2_rows")
                blocks = _blocks_built(patch)
                products = _counting(patch, markov, "_criterion_product")
                assert determinant(a) == 0
            assert (lu, psi2_rows, blocks) == ([], [], [])
            assert check_equivalence(a).consistent
            ((*_, rows),) = products
            block = frozenset(map(frozenset, rows))
            if structure.is_irreducible:
                assert len(block) == math.comb(a.n, 2)
            else:
                assert block in blocks_of_two


def test_check_equivalence_reads_the_chain_once(chains, monkeypatch):
    # one structure and one copy of the integer rows serve the classical fields
    # and the determinant
    for a in (random_stochastic(random.Random(35), 6, density=1.0), chains[2], chains[3]):
        with monkeypatch.context() as patch:
            structures = _counting(patch, markov, "chain_structure")
            integer_rows = _counting(patch, Matrix, "integer_rows")
            check_equivalence(a)
        assert len(structures) == 1 and integer_rows == [(a.matrix,)]


def test_a_transient_determinant_solves_no_transient_block(monkeypatch):
    # with transient states, the determinant-only callers work on the class-pair
    # blocks: the bench chain stops at the block of its two closed classes, its
    # cyclic indicator checked by one _criterion_product, with no LU, no
    # certificate and no transient block solved; one aperiodic closed class
    # with transient states takes the det of every block; check_equivalence
    # agrees with the classical verdict
    families = _bench_families()
    cases = [(_bench_chain(families, families.TRANSIENT, 30, 0), True),
             (_ergodic_class_with_transient_states(families, 12, 6, 0), False)]
    certificate = markov._criterion_certificate
    for a, singular in cases:
        for determinant in _determinant_callers():
            calls = []  # each certificate's rhs
            with monkeypatch.context() as patch:
                _refuse_blocks_past_the_largest_class_pair(patch, a)
                patch.setattr(markov, "_criterion_certificate",
                              lambda rows, rhs=(): calls.append(rhs) or certificate(rows, rhs))
                products = _counting(patch, markov, "_criterion_product")
                lu = _counting(patch, linalg, "_lu_mod")
                assert (determinant(a) == 0) == singular
            assert len(calls) == (0 if singular else len(_class_pair_blocks(a)[0]))
            assert not any(calls)
            if singular:  # one checked indicator, no LU
                assert (len(products), lu) == (1, [])
        assert check_equivalence(a).consistent


def test_the_kernel_of_a_closed_class_pair_block_has_the_predicted_size(chains):
    # every closed block has a kernel of gcd(p, p') dimensions across two
    # classes of periods p and p', and of floor(p / 2) inside one, proven with
    # no LU: the cyclic indicators (markov._cyclic_kernel, none for an
    # aperiodic class), kernel vectors of the reference rows that are
    # independent mod q, bound it from below, and N_B less the rank mod q of
    # those rows (oracles.rank_mod, q = 2^61 - 1, no linalg) from above
    counts = {"across": 0, "periodic": 0, "aperiodic": 0}
    for a, label in _transient_cases(chains):
        structure = chain_structure_oracle(a.matrix)
        numerators, scales = a.matrix.integer_rows()
        for x, y, pairs in _closed_class_pairs(a, inside=True):
            period = structure.periods[x]
            size = period // 2 if x == y else math.gcd(period, structure.periods[y])
            rows = criterion_block(numerators, scales, pairs)
            indicators = _indicators(structure, x, y, pairs, a.n) if size else []
            assert len(indicators) == size, label
            assert all(not any(sum(map(operator.mul, row, v)) for row in rows)
                       for v in indicators), label
            assert rank_mod(indicators) == size == len(pairs) - rank_mod(rows), label
            counts["across" if x != y else "periodic" if size else "aperiodic"] += 1
    assert sum(counts.values()) >= 700 and min(counts.values()) >= 30, counts


def _indicators(structure, x, y, pairs, n):
    # markov._cyclic_kernel's indicators as pair vectors on ``pairs``, read
    # off their X^, which is 0 off those pairs
    hats = list(markov._cyclic_kernel(structure, x, y, pairs, n))
    on = {frozenset(pair) for pair in pairs}
    assert all(hat[i][j] == hat[j][i] and (hat[i][j] == 0 or {i, j} in on)
               for hat in hats for i in range(n) for j in range(n))
    return [[hat[i][j] for i, j in pairs] for hat in hats]


def _closed_class_pairs(a, inside=False):
    # (x, y, pairs) for each two distinct closed classes x < y of
    # chain_structure_oracle and, with ``inside``, for each closed class x = y
    # of two or more states, pairs the block's 0-based pairs of states
    structure = chain_structure_oracle(a.matrix)
    closed = [c for c, flag in enumerate(structure.closed) if flag]
    for x, y in itertools.combinations_with_replacement(closed, 2):
        states = [s - 1 for s in structure.classes[x]]
        if x != y:
            yield x, y, [(i, j - 1) for i in states for j in structure.classes[y]]
        elif inside and len(states) > 1:
            yield x, y, list(itertools.combinations(states, 2))


def test_the_cyclic_indicators_span_the_kernel_of_the_lu(chains):
    # on every block of two distinct closed classes, and inside every periodic
    # closed class, the checked cyclic indicators and the kernel of one LU mod
    # p (oracles.lu_kernel) have the same reduced echelon basis: the same
    # space, of gcd(p, p') or floor(p / 2) dimensions
    found = wider = inside = 0
    for a, label in _transient_cases(chains):
        structure = chain_structure_oracle(a.matrix)
        numerators, scales = a.matrix.integer_rows()
        for x, y, pairs in _closed_class_pairs(a, inside=True):
            period = structure.periods[x]
            if x == y and period == 1:
                continue
            rows = criterion_block(numerators, scales, pairs)
            indicators = _indicators(structure, x, y, pairs, a.n)
            kernel = lu_kernel(rows)
            assert kernel and all(not any(sum(map(operator.mul, row, v)) for row in rows)
                                  for v in indicators), label
            assert len(indicators) == (period // 2 if x == y
                                       else math.gcd(period, structure.periods[y])), label
            assert (rref_oracle(Matrix.from_rows(indicators))
                    == rref_oracle(Matrix.from_rows(kernel))), label
            found += 1
            wider += len(indicators) > 1
            inside += x == y
    assert found >= 350 and wider >= 25 and inside >= 140, (found, wider, inside)


def _wide(rng, a):
    # a's support with weights past 2^64, so that products of numerators, and
    # the slots of the packed products, are wider than 8 bytes
    numerators, _ = a.matrix.integer_rows()
    return _chain_of_weights([[rng.randint(2**64, 2**80) if e else 0 for e in row]
                              for row in numerators])


def _packed_block_cases(chains):
    # (chain, label): _transient_cases up to 10 states (closed classes of
    # periods 1-4 and more under transient states), every chain of 2 and 3
    # states on a random support, and literals past 2^64 on the supports of
    # the random ones
    rng = random.Random(73)
    for a, label in _transient_cases(chains):
        if a.n <= 10:
            yield a, label
    for n in (2, 3):
        for _ in range(20):
            yield random_stochastic(rng, n, rng.uniform(0.2, 1.0)), f"random n={n}"
    for periods in [(1,), (2,), (3, 1), (2, 4), (1, 1)]:
        a = _closed_classes_with_transient_states(rng, periods, 4, 2)
        yield _wide(rng, a), f"wide periods {periods}"
    for n in range(2, 8):
        yield _wide(rng, random_stochastic(rng, n, 0.6)), f"wide random n={n}"


def test_the_packed_blocks_are_the_packed_reference_rows(chains):
    # every class-pair block, packed from N with no row built, is _pack of the
    # reference rows (oracles.criterion_block) over the same slots, on the
    # class pair's pairs as the analysis lists them (_class_pairs); its
    # bounds are the product of the reference diagonal and its column norms,
    # its product the reference M_B v, and its row bound holds |M_B|'s rows
    p = linalg.PRIMES[0]
    counts = {"blocks": 0, "wide": 0, "cross": 0, "small chains": 0}
    for a, label in _packed_block_cases(chains):
        numerators, scales = a.matrix.integer_rows()
        classes = [[s - 1 for s in states] for states in chain_structure_oracle(a.matrix).classes]
        rng = random.Random(a.n)
        for x, y in itertools.combinations_with_replacement(range(len(classes)), 2):
            first, second = sorted((classes[x], classes[y]), key=len)
            pairs = _class_pairs(first, second)
            if not pairs:  # a class of one state has no block
                continue
            block = markov._class_pair_block(numerators, scales, first,
                                             first if x == y else second, pairs)
            rows = criterion_block(numerators, scales, pairs)
            assert block.size == len(rows)
            assert block.bound >= max(sum(map(abs, row)) for row in rows), label
            width, bias = linalg._slots(block.bound, block.size, p)
            assert block.columns(width, bias) == [linalg._pack([e + bias for e in col], width)
                                                  for col in zip(*rows)], label
            h, norms, signed = block.bounds()
            assert h == math.prod(rows[r][r] for r in range(len(rows))) and not signed, label
            assert norms == [sum(e * e for e in col) for col in zip(*rows)], label
            v = [rng.randint(-9, 9) for _ in pairs]
            assert block.product(v) == [sum(map(operator.mul, row, v)) for row in rows], label
            counts["blocks"] += 1
            counts["cross"] += x != y
            counts["wide"] += 2 * max(max(row) for row in numerators) ** 2 >= 2**64
        counts["small chains"] += a.n <= 3
    assert counts["blocks"] >= 1100 and counts["cross"] >= 750, counts
    assert counts["wide"] >= 30 and counts["small chains"] >= 60, counts


def test_every_principal_block_of_the_criterion_rows_has_a_det_within_its_diagonal():
    # M = D - Psi2(N) is a Z-matrix whose principal blocks have rows summing to
    # at least (N N^T)_ij >= 0, so each is an M-matrix (the limit of nonsingular
    # ones) and 0 <= det <= the product of its diagonal (Fischer's inequality):
    # every class-pair block and a random principal submatrix of M, against
    # the determinant_oracle, on 400 random chains; criterion_determinant is
    # never negative
    rng = random.Random(79)
    counts = {"chains": 0, "blocks": 0, "positive": 0}
    for _ in range(400):
        n = rng.randint(2, 8)
        a = random_stochastic(rng, n, rng.uniform(0.1, 1.0))
        numerators, scales = a.matrix.integer_rows()
        rows, _ = criterion_rows(numerators, scales)
        structure = chain_structure_oracle(a.matrix)
        owner = {s - 1: c for c, states in enumerate(structure.classes) for s in states}
        pairs = list(itertools.combinations(range(n), 2))
        blocks = {}
        for r, (i, j) in enumerate(pairs):
            blocks.setdefault(frozenset((owner[i], owner[j])), []).append(r)
        chosen = sorted(rng.sample(range(len(pairs)), rng.randint(1, len(pairs))))
        for kept in [*blocks.values(), chosen]:
            sub = [[rows[r][c] for c in kept] for r in kept]
            det = determinant_oracle(sub)
            assert 0 <= det <= math.prod(sub[k][k] for k in range(len(kept))), (n, kept)
            counts["blocks"] += 1
            counts["positive"] += det > 0
        assert criterion_determinant(a) >= 0
        counts["chains"] += 1
    assert counts["chains"] == 400 and counts["blocks"] >= 1200 and counts["positive"] >= 600, counts


def test_an_ergodic_chain_builds_no_list_rows_of_the_criterion(monkeypatch):
    # bench ergodic chains at n = 10..18: the analysis and check_equivalence pack
    # M's one class-pair block straight from N, with no Psi2 row and no row list
    # (linalg._dense), and lift the digits that h = the product of M's diagonal
    # asks for, none more than Hadamard's
    families = _bench_families()

    def refuse(*args, **kwargs):
        raise AssertionError("list rows of M built")

    for n in range(10, 19, 2):
        a = _bench_chain(families, families.ERGODIC, n, n)
        rows, _ = criterion_rows(*a.matrix.integer_rows())
        solves = []
        with monkeypatch.context() as patch:
            for module, name in [(zeon, "_psi2_rows"), (linalg, "_dense")]:
                patch.setattr(module, name, refuse)
            lifts = _counting(patch, linalg, "_lift")
            solve_mod = linalg._solve_mod
            patch.setattr(linalg, "_solve_mod", lambda *args: solves.append(0) or solve_mod(*args))
            report = zeon_criterion(a)
            assert (len(lifts), len(solves)) == (1, _dixon_steps(rows, linalg.PRIMES[0]))
            assert check_equivalence(a).det_value == report.det_value != 0
        assert _dixon_steps(rows, linalg.PRIMES[0]) <= _dixon_steps(rows, linalg.PRIMES[0], True)


def _closed_classes_and_transient_states(chains, largest):
    # the chains of _transient_cases with transient states and two or more
    # closed classes, of at most ``largest`` states
    for a, label in _transient_cases(chains):
        structure = chain_structure(a)
        if a.n <= largest and not structure.all_closed and len(structure.closed_classes) >= 2:
            yield a, label


def test_a_cyclic_indicator_that_fails_its_check_falls_through_to_the_lu(chains, monkeypatch,
                                                                         capsys, tmp_path):
    # the cyclic indicators checked on doubled scales, so that D_a x D_b is 4
    # times too large and every check fails, a counterexample to the pair
    # chain's count: the analysis raises, with no block built, and analyze
    # exits 4, the routes disagree; check_equivalence and criterion_determinant
    # send the first block of two closed classes on to its LU, which proves
    # det = 0
    cyclic_kernel, product = markov._cyclic_kernel, markov._criterion_product
    indicators, results = [], []

    def recorded(*args):
        indicators[:] = cyclic_kernel(*args)
        return iter(indicators)

    def doubled(numerators, scales, hat, rows):
        if not any(hat is x for x in indicators):
            return product(numerators, scales, hat, rows)
        results.append(product(numerators, [2 * d for d in scales], hat, rows))
        return results[-1]

    cases = 0
    for a, label in _closed_classes_and_transient_states(chains, 10):
        across = [{tuple(sorted(pair)) for pair in pairs} for *_, pairs in _closed_class_pairs(a)]
        with monkeypatch.context() as patch:
            patch.setattr(markov, "_cyclic_kernel", recorded)
            patch.setattr(markov, "_criterion_product", doubled)
            built = _blocks_built(patch)
            with pytest.raises(RuntimeError, match="the two routes disagree"):
                zeon_criterion(a)
            assert built == [], label
            assert check_equivalence(a).det_value == criterion_determinant(a) == 0, label
            if not cases:
                path = tmp_path / "chain.json"
                path.write_text(json.dumps({"rows": [[str(e) for e in row]
                                                     for row in a.matrix.to_lists()]}))
                capsys.readouterr()
                assert main(["analyze", str(path)]) == 4
                out, err = capsys.readouterr()
                assert out == "" and err.startswith("zeonmarkov: internal error: RuntimeError: "
                                                    "the cyclic indicators")
                assert "the two routes disagree" in err
        assert len(built) == 2 and all({tuple(sorted(pair)) for pair in pairs} == across[0]
                                       for pairs in built), label
        cases += 1
    # one check per call, the first one failed: each analysis, each
    # determinant-only call and the one analyze
    assert cases >= 50 and len(results) == 3 * cases + 1 and all(map(any, results)), (
        cases, len(results))


def _periodic24_transient6(families):
    # the bench periodic chain of 24 states and period 4 under 6 transient
    # states, each stepping with 1/2 to its own state of the class and to the
    # next transient state
    rows = [list(row) + [0] * 6 for row in families.periodic_chain(random.Random(0), 24, 4).rows]
    rows += [[F(1, 2) if j in (k, 24 + (k + 1) % 6) else 0 for j in range(30)] for k in range(6)]
    return validate_stochastic(Matrix.from_rows(rows))


def test_the_determinant_alone_checks_one_cyclic_indicator(monkeypatch):
    # one closed class of period 4 or 6 under transient states, 24 states of
    # period 4 under 6 among them, and two closed classes with
    # g = gcd(p, p') = 2: check_equivalence and criterion_determinant build
    # one indicator, the first closed block's first, and make one
    # _criterion_product, on it, and no LU, where the analysis checks every
    # indicator of every closed block once, floor(p / 2) inside a class and g
    # across two
    rng = random.Random(83)
    cases = [(_closed_classes_with_transient_states(rng, periods, size, transient), periods, checks)
             for periods, size, transient, checks in [
                 ((4,), 8, 3, 2), ((6,), 12, 2, 3), ((2, 2), 4, 2, 2 + 1 + 1),
                 ((2, 4), 8, 3, 2 + 1 + 2), ((4, 6), 12, 2, 2 + 2 + 3)]]
    cases.append((_periodic24_transient6(_bench_families()), (4,), 2))
    for a, periods, checks in cases:
        structure = chain_structure_oracle(a.matrix)
        assert not structure.is_regular and not structure.all_closed, periods
        for determinant in _determinant_callers():
            with monkeypatch.context() as patch:
                products = _counting(patch, markov, "_criterion_product")
                hats = _counting(patch, markov, "_hat")
                lu = _counting(patch, linalg, "_lu_mod")
                assert determinant(a) == 0
            assert (len(products), len(hats), lu) == (1, 1, []), periods
        assert check_equivalence(a).consistent, periods
        blocks, indicators, checked = [], [], []
        cyclic_kernel, product = markov._cyclic_kernel, markov._criterion_product

        def recorded(structure, x, y, pairs, n):
            blocks.append(pairs)
            found = list(cyclic_kernel(structure, x, y, pairs, n))
            indicators.extend(found)
            return iter(found)

        def counted(numerators, scales, hat, rows):
            if any(rows is pairs for pairs in blocks):
                checked.append(hat)
            return product(numerators, scales, hat, rows)

        with monkeypatch.context() as patch:
            patch.setattr(markov, "_cyclic_kernel", recorded)
            patch.setattr(markov, "_criterion_product", counted)
            assert zeon_criterion(a).det_value == 0
        assert len(blocks) == len(periods) * (len(periods) + 1) // 2, periods
        assert len(checked) == len(indicators) == checks, periods
        assert all(hat is x for hat, x in zip(checked, indicators)), periods


def test_a_rank_drop_mod_p_lifts_on_the_column_norms(chains, monkeypatch):
    # a singular block of closed classes (packed, read only through its
    # Packed) and singular dense matrices: the certificate's kernel vector is
    # annihilated by the reference rows, and the minor M[R, C] it lifts on
    # is bounded by h = isqrt(prod of M[:, C]'s squared column norms) + 1
    # (Hadamard's inequality; the determinant_oracle of the minor)
    cases = []
    for a, label in _transient_cases(chains):
        if a.n <= 10 and len(cases) < 200:
            numerators, scales = a.matrix.integer_rows()
            structure = chain_structure_oracle(a.matrix)
            classes = [[s - 1 for s in states] for states in structure.classes]
            for x, y, pairs in _closed_class_pairs(a, inside=True):
                if x == y and structure.periods[x] == 1:  # nonsingular
                    continue
                first, second = sorted((classes[x], classes[y]), key=len)
                block = markov._class_pair_block(numerators, scales, first,
                                                 first if x == y else second, pairs)
                if block.size > 1:  # a 1 x 1 block takes no LU
                    cases.append((block, criterion_block(numerators, scales, pairs), label))
    packed = len(cases)
    rng = random.Random(89)
    for trial in range(60):
        n, size = rng.randint(2, 9), rng.choice([1, 7, 10**6, 10**30])
        rank = rng.randint(0, n - 1)
        left = [[rng.randint(-size, size) for _ in range(rank)] for _ in range(n)]
        right = [[rng.randint(-size, size) for _ in range(n)] for _ in range(rank)]
        rows = [[sum(map(operator.mul, row, col)) for col in zip(*right)] if right else [0] * n
                for row in left]
        cases.append((rows, rows, f"dense n={n} rank<={rank}"))
    lifts = []
    checked_solution = linalg._checked_solution

    def recorded(product, packed_cols, factors, b, p, width, bias, h, norms):
        lifts.append((factors, h, norms))
        return checked_solution(product, packed_cols, factors, b, p, width, bias, h, norms)

    monkeypatch.setattr(linalg, "_checked_solution", recorded)
    counts = {"minors": 0, "below n - 1": 0}
    for m, rows, label in cases:
        lifts.clear()
        det, (v,) = linalg._criterion_certificate(m)
        assert det == 0 and any(v), label
        assert all(sum(map(operator.mul, row, v)) == 0 for row in rows), label
        assert lifts, label
        for (perm, *_, pivot_rows), h, norms in lifts:
            kept = perm[:len(pivot_rows)]
            assert norms == [sum(row[j] ** 2 for row in rows) for j in kept], label
            assert h == math.isqrt(math.prod(norms)) + 1, label
            minor = [[rows[i][j] for j in kept] for i in pivot_rows]
            assert abs(determinant_oracle(minor)) < h, label
            counts["minors"] += 1
            counts["below n - 1"] += len(kept) < len(rows) - 1
    assert packed >= 150 and len(cases) - packed == 60, (packed, len(cases))
    assert counts["minors"] >= len(cases) and counts["below n - 1"] >= 20, counts


def _refuse_closed_blocks(monkeypatch, a):
    """Make ``markov._class_pair_block`` refuse a block of closed classes (two,
    or inside one): no route then hands one to a certificate."""
    closed = [[s - 1 for s in states] for states in chain_structure_oracle(a.matrix).closed_classes]
    block = markov._class_pair_block

    def refusing(numerators, scales, first, second, pairs):
        if first in closed and second in closed:
            raise AssertionError(f"a block of closed classes built: {first}, {second}")
        return block(numerators, scales, first, second, pairs)

    monkeypatch.setattr(markov, "_class_pair_block", refusing)


def test_no_lu_takes_a_block_of_two_closed_classes(chains, monkeypatch, tmp_path, capsys):
    # the bench transient chains at n = 14 and 22 build no block of their two
    # closed classes, so no _criterion_certificate gets one; on every chain
    # that is not regular, one periodic closed class with transient states
    # among them, the determinant-only callers take no LU and build no block,
    # and the analysis packs no closed block (markov._class_pair_block) for a
    # _criterion_certificate
    families = _bench_families()
    for n in (14, 22):
        a = _bench_chain(families, families.TRANSIENT, n, 0)
        (_, _, cross), = _closed_class_pairs(a)
        with monkeypatch.context() as patch:
            built = _blocks_built(patch)
            certificates = _counting(patch, markov, "_criterion_certificate")
            report = zeon_criterion(a)
        assert report.det_value == 0 and report.witness is not None
        assert len(certificates) == len(built) and built
        cross = {tuple(sorted(pair)) for pair in cross}
        assert all({tuple(sorted(pair)) for pair in pairs} != cross for pairs in built)
    # at n = 30, the bench transient chain and 24 states of period 4 under 6
    # transient ones: analyze packs no closed block, exits 2 and reports a
    # witness
    for a in (_bench_chain(families, families.TRANSIENT, 30, 0), _periodic24_transient6(families)):
        with monkeypatch.context() as patch:
            _refuse_closed_blocks(patch, a)
            code, report = _analyze(tmp_path, capsys, a)
        assert code == 2 and report["det_value"] == "0"
        _assert_is_a_witness(a, DegreeTwoVector(a.n, report["witness"]["coords"]))
    counts = {"cases": 0, "transient": 0, "one periodic class": 0}
    for a, label in _transient_cases(chains):
        structure = chain_structure_oracle(a.matrix)
        closed = [p for p, flag in zip(structure.periods, structure.closed) if flag]
        if closed == [1]:
            continue
        for determinant in _determinant_callers():
            with monkeypatch.context() as patch:
                lu = _counting(patch, linalg, "_lu_mod")
                certificates = _counting(patch, markov, "_criterion_certificate")
                built = _blocks_built(patch)
                assert determinant(a) == 0, label
            assert lu == certificates == built == [], label
        with monkeypatch.context() as patch:
            _refuse_closed_blocks(patch, a)
            assert zeon_criterion(a).det_value == 0, label
        counts["cases"] += 1
        counts["transient"] += not structure.all_closed
        counts["one periodic class"] += len(closed) == 1 and not structure.all_closed
    assert counts["cases"] >= 240 and counts["transient"] >= 120, counts
    assert counts["one periodic class"] >= 10, counts


def test_ergodic_projection_products():
    rng = random.Random(23)
    found = 0
    while found < 10:
        a = random_recurrent_stochastic(rng, rng.randint(2, 4))
        report = zeon_criterion(a)
        if report.criterion_verdict is not Verdict.ERGODIC:
            continue
        found += 1
        omega = report.limit_matrix
        pi = report.invariant_distribution
        n = a.n
        assert omega == Matrix(n, 1, [1] * n) * pi
        assert omega.T * omega == n * (pi.T * pi)
        mass = sum(p * p for p in pi.data)
        assert omega * omega.T == mass * Matrix(n, n, [1] * n ** 2)
        assert all(e > 0 for e in (omega.T * omega).data)
        assert all(e > 0 for e in (omega * omega.T).data)


def test_report_verdict_consistency():
    rng = random.Random(24)
    for _ in range(30):
        a = random_stochastic(rng, rng.randint(2, 5), density=rng.uniform(0.3, 0.9))
        report = zeon_criterion(a)
        classical = report.is_irreducible and report.is_aperiodic
        quasi = report.quasi_positive_exponent is not None
        assert quasi == classical
        if report.has_positive_invariant:
            assert (report.det_value != 0) == classical == quasi
            expected = Verdict.ERGODIC if classical else Verdict.NOT_ERGODIC
        else:
            expected = Verdict.INAPPLICABLE
        assert report.criterion_verdict is expected
        if report.witness is not None:
            assert report.det_value == 0
            assert report.witness.is_nonnegative() and any(report.witness.coords)
            assert right_action(a.matrix, report.witness) == report.witness


# -- witnesses -----------------------------------------------------------------------


def test_witness_reducible_fixture_three(chains):
    s = chain_structure(chains[3])
    w = witness_reducible(s)
    expected = Matrix.from_rows([
        [0, 0, 1, 1, 1],
        [0, 0, 1, 1, 1],
        [1, 1, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [1, 1, 0, 0, 0],
    ])
    assert mat_embed(w) == expected
    assert right_action(chains[3].matrix, w) == w


def test_witness_reducible_two_absorbing_states():
    a = StochasticMatrix(Matrix.identity(2))
    s = chain_structure(a)
    w = witness_reducible(s)
    assert w.coords == (1,)
    assert right_action(a.matrix, w) == w


def test_witness_reducible_fixture_five(chains):
    s = chain_structure(chains[5])
    w = witness_reducible(s)
    assert right_action(chains[5].matrix, w) == w
    # cross-class pairs only
    for (i, j), v in zip(w.pairs(), w.coords):
        same = (i in (1, 2, 5, 6)) == (j in (1, 2, 5, 6))
        assert v == (0 if same else 1)


def test_witness_reducible_requires_closed_partition(chains):
    with pytest.raises(ValueError, match="two classes"):
        witness_reducible(chain_structure(StochasticMatrix(UNIFORM2)))
    with pytest.raises(ValueError, match="closed"):
        witness_reducible(chain_structure(chains[2]))


def test_witness_periodic_fixture_four(chains):
    s = chain_structure(chains[4])
    w1 = witness_periodic(s, 1)
    w2 = witness_periodic(s, 2)
    # cyclic classes {1},{2},{3,4},{5}: distance-1 and distance-2 patterns
    assert w1.coords == (1, 0, 0, 1, 1, 1, 0, 0, 1, 1)
    assert w2.coords == (0, 1, 1, 0, 0, 0, 1, 0, 0, 0)
    a = chains[4].matrix
    assert right_action(a, w1) == w1
    assert right_action(a, w2) == w2


def test_witness_periodic_two_cycle():
    a = StochasticMatrix(Matrix.from_rows([[0, 1], [1, 0]]))
    w = witness_periodic(chain_structure(a), 1)
    assert w.coords == (1,)
    assert right_action(a.matrix, w) == w


def test_witness_periodic_validation(chains):
    with pytest.raises(ValueError, match="aperiodic"):
        witness_periodic(chain_structure(StochasticMatrix(UNIFORM2)))
    s4 = chain_structure(chains[4])
    with pytest.raises(ValueError, match="delta"):
        witness_periodic(s4, 3)
    with pytest.raises(ValueError, match="irreducible"):
        witness_periodic(chain_structure(chains[3]))


def test_witness_diagonal_vanishes(chains):
    # the step-one check in both constructions: (A X-hat A*) has zero diagonal
    cases = [
        (chains[3].matrix, witness_reducible(chain_structure(chains[3]))),
        (chains[4].matrix, witness_periodic(chain_structure(chains[4]), 1)),
        (chains[4].matrix, witness_periodic(chain_structure(chains[4]), 2)),
        (chains[5].matrix, witness_reducible(chain_structure(chains[5]))),
    ]
    for a, w in cases:
        n = a.rows
        assert diag_correction_minus(a, w) == Matrix.zeros(n, n)


# -- fixed vectors vs. sandwich equations ----------------------------------------------


def test_right_fixed_vectors_satisfy_row_sandwich(chains):
    # nonnegative fixed vectors of the compound solve X-hat = A X-hat A*
    # whenever a strictly positive invariant vector exists
    for i in (3, 4, 5):
        a = chains[i].matrix
        n = a.rows
        psi = zeon_power(a, 2)
        for v in null_space_oracle(psi - Matrix.identity(psi.rows)):
            x = DegreeTwoVector(n, v)
            if not x.is_nonnegative():
                continue
            xhat = mat_embed(x)
            assert a * xhat * a.T == xhat


def test_left_fixed_vectors_satisfy_column_sandwich(chains):
    for i in (3, 4, 5):
        a = chains[i].matrix
        n = a.rows
        psi = zeon_power(a, 2)
        for row in left_null_space_oracle(psi - Matrix.identity(psi.rows)):
            x = DegreeTwoVector.from_row(row, n)
            if not x.is_nonnegative():
                continue
            assert left_action(x, a) == x
            xhat = mat_embed(x)
            assert a.T * xhat * a == xhat


def test_sandwich_solutions_are_fixed(chains):
    # converse direction on the same nonnegative data
    for i in (3, 4, 5):
        a = chains[i].matrix
        s = chain_structure(chains[i])
        w = witness_reducible(s) if len(s.classes) > 1 else witness_periodic(s)
        xhat = mat_embed(w)
        assert a * xhat * a.T == xhat
        assert right_action(a, w) == w


def test_row_sandwich_on_random_reducible_chains():
    # random two-block chains: the cross-class witness is right-fixed and
    # solves the row sandwich equation exactly
    rng = random.Random(30)
    for _ in range(12):
        sizes = (rng.randint(2, 3), rng.randint(2, 3))
        n = sum(sizes)
        rows = [[F(0)] * n for _ in range(n)]
        offset = 0
        for size in sizes:
            block = random_stochastic(rng, size, density=1.0).matrix
            for i in range(size):
                for j in range(size):
                    rows[offset + i][offset + j] = block[i, j]
            offset += size
        a = StochasticMatrix(Matrix.from_rows(rows))
        s = chain_structure(a)
        assert s.all_closed and len(s.classes) == 2
        w = witness_reducible(s)
        assert right_action(a.matrix, w) == w
        xhat = mat_embed(w)
        assert a.matrix * xhat * a.matrix.T == xhat


def test_ergodic_chain_admits_no_nonnegative_fixed_vector():
    rng = random.Random(25)
    found = 0
    while found < 8:
        a = random_recurrent_stochastic(rng, rng.randint(2, 5))
        s = chain_structure(a)
        if not (s.is_irreducible and s.is_aperiodic):
            continue
        found += 1
        psi = zeon_power(a.matrix, 2)
        assert criterion_determinant(a) != 0
        assert null_space_oracle(psi - Matrix.identity(psi.rows)) == []


def test_mass_bound_for_nonnegative_vectors():
    rng = random.Random(26)
    for _ in range(20):
        n = rng.randint(2, 5)
        a = random_stochastic(rng, n)
        x = DegreeTwoVector(
            n, [F(rng.randint(0, 5), rng.randint(1, 4)) for _ in subset_basis(n, 2)]
        )
        assert sum_against_u(left_action(x, a.matrix)) <= sum_against_u(x)


# -- equivalence --------------------------------------------------------------------


def test_equivalence_all_two_state_functions():
    for f in all_functions(2):
        a = StochasticMatrix(function_matrix(f))
        assert check_equivalence(a).consistent


def test_equivalence_all_three_state_functions():
    for f in all_functions(3):
        a = StochasticMatrix(function_matrix(f))
        chk = check_equivalence(a)
        assert chk.consistent
        # recurrent-only function chains are exactly the permutations
        assert chk.all_closed == f.is_permutation


def test_equivalence_fixtures_not_ergodic(chains):
    for i in (3, 4, 5):
        chk = check_equivalence(chains[i])
        assert chk.all_closed and chk.det_value == 0
        assert chk.consistent and not chk.classical_ergodic


def test_harness_runs_clean():
    report = equivalence_harness(4, 60, seed=99)
    assert report.all_consistent
    assert report.checked == 60
    assert report.ergodic_count + report.periodic_count + report.reducible_count == 60


def test_harness_deterministic():
    assert equivalence_harness(3, 25, seed=7) == equivalence_harness(3, 25, seed=7)


def test_harness_rejects_bad_size():
    with pytest.raises(ValueError):
        equivalence_harness(9, 1, seed=0)


def test_random_recurrent_sampler_contract():
    rng = random.Random(27)
    for _ in range(20):
        a = random_recurrent_stochastic(rng, 4)
        assert chain_structure(a).all_closed
