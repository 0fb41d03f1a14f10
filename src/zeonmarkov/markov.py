"""Markov chain analysis: classical Perron-Frobenius oracles and the
degree-2 determinant criterion for ergodicity.

The classical route decides ergodicity structurally: strongly connected
state diagram (irreducible), unit gcd of cycle lengths (aperiodic), or
equivalently some strictly positive power (quasi-positive). The new
route computes det(I - Psi2(A)) exactly: it is nonzero exactly when the
chain has one closed class, aperiodic (``is_regular``), so ergodic when
every class is closed. Checked cyclic indicators span the kernel of each
closed block of the pair chain, with no LU. The analysis certifies a zero
with a nonnegative fixed vector of Psi2(A) (a cross-class indicator for
reducible chains, a cyclic-distance one for periodic ones).

States are labelled 1..n everywhere in this module's reports.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement, repeat
from operator import itemgetter, mul, ne
from typing import Iterator, Optional

from .degree2 import DegreeTwoVector
from .linalg import (Matrix, Packed, Scalar, _bareiss, _criterion_certificate, _ratio, exact_div,
                     ratio_str)


class NotStochasticError(ValueError):
    """Input matrix is not row-stochastic; message carries exact details."""


@dataclass(frozen=True)
class StochasticMatrix:
    """A validated row-stochastic matrix: nonnegative, rows sum to 1."""

    matrix: Matrix

    def __post_init__(self):
        # on the integer rows N_i / d_i (d_i > 0): signs are the numerators',
        # and row i sums to 1 exactly when sum(N_i) == d_i
        m = self.matrix
        if not m.is_square:
            raise NotStochasticError(f"matrix is {m.rows}x{m.cols}, not square")
        numerators, scales = m._integer
        for i, (row, d) in enumerate(zip(numerators, scales)):
            for j, e in enumerate(row):
                if e < 0:
                    raise NotStochasticError(f"entry ({i + 1},{j + 1}) is negative: {_quote(e, d)}")
        for i, (row, d) in enumerate(zip(numerators, scales)):
            if sum(row) != d:
                raise NotStochasticError(f"row {i + 1} sums to {_quote(sum(row), d)}, expected 1")

    @property
    def n(self) -> int:
        return self.matrix.rows


def _quote(numerator: int, denominator: int) -> str:
    """``ratio_str`` of numerator/denominator, or past 40 characters its
    first 20 and its digit count."""
    text = ratio_str(numerator, denominator)
    return text if len(text) <= 40 else f"{text[:20]}... ({sum(map(str.isdigit, text))} digits)"


def validate_stochastic(m: Matrix) -> StochasticMatrix:
    """Wrap a matrix after checking exact row-stochasticity."""
    return StochasticMatrix(m)


@dataclass(frozen=True)
class ChainStructure:
    """Communicating classes of the state transition diagram.

    ``classes`` partitions {1..n} into strongly connected components,
    ordered by smallest member. A class is closed when no edge leaves it;
    states outside closed classes are transient. ``periods[c]`` is the
    gcd of cycle lengths inside class c (None when the class has no
    cycle), ``cyclic_classes[c]`` splits a closed class of period p into
    its p cyclic classes, consecutive under the chain's step, and
    ``reach[c]`` counts the states class c leads to, itself included: its
    size when it is closed.
    """

    n: int
    classes: tuple
    closed: tuple
    periods: tuple
    cyclic_classes: tuple
    reach: tuple

    @property
    def closed_classes(self) -> tuple:
        return tuple(c for c, flag in zip(self.classes, self.closed) if flag)

    @property
    def transient_states(self) -> tuple:
        return tuple(sorted(s for c, flag in zip(self.classes, self.closed)
                            if not flag for s in c))

    @property
    def is_irreducible(self) -> bool:
        return len(self.classes) == 1

    @property
    def all_closed(self) -> bool:
        return all(self.closed)

    @property
    def period(self) -> int:
        """Period of the chain: lcm of the closed classes' periods."""
        return math.lcm(*(p for p, flag in zip(self.periods, self.closed) if flag))

    @property
    def is_aperiodic(self) -> bool:
        return self.period == 1

    @property
    def is_regular(self) -> bool:
        """One closed class, aperiodic (a regular or SIA chain; Seneta;
        Wolfowitz, Proc. AMS 14, 1963): exactly then det(I - Psi2(A)) != 0.
        Of M's class-pair blocks, those meeting a transient class are
        nonsingular M-matrices, those of two closed classes are singular, and
        one inside a closed class is singular just when it is periodic."""
        return self.closed.count(True) == 1 and self.is_aperiodic


def _states(mask: int):
    """The 0-based states in a bitmask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(rows: list, mask: int) -> int:
    """The union of the int bit rows ``rows`` at the states in ``mask``."""
    acc = 0
    while mask:
        low = mask & -mask
        acc |= rows[low.bit_length() - 1]
        mask ^= low
    return acc


def _successors(a: StochasticMatrix) -> list:
    """A's positivity pattern as int bit rows: bit j of row i is set when
    A[i, j] > 0, that is when its numerator is not 0, so row i is the
    bitmask of the states i steps to."""
    return [sum(1 << j for j, e in enumerate(row) if e) for row in a.matrix._integer[0]]


def chain_structure(a: StochasticMatrix) -> ChainStructure:
    """Classes, closedness, periods and cyclic classes of the diagram.

    One breadth-first search per state grows its reach (the states it
    leads to, itself included) in bitmask levels from ``_successors``. A
    class is the states that reach each other, closed when its reach is
    itself. A shortest path inside a class stays in it, so the search from
    its smallest state, cut to the class, gives the class's levels. Round
    any cycle, k + 1 - j over its edges from level k to level j sums to
    its length: their gcd is the period, 0 (None) when there is no edge.
    """
    n = a.n
    succ = _successors(a)
    searches = []  # per state: its reach and its levels as (frontier, successors) pairs
    for i in range(n):
        levels = []
        seen = frontier = 1 << i
        while frontier:
            step = _union(succ, frontier)
            levels.append((frontier, step))
            frontier = step & ~seen
            seen |= step
        searches.append((seen, levels))

    classes = []
    closed_flags = []
    periods = []
    cyclics = []
    reaches = []
    assigned = 0
    for i in range(n):
        if assigned >> i & 1:
            continue
        reach, levels = searches[i]
        members = sum(1 << j for j in _states(reach) if searches[j][0] >> i & 1)
        assigned |= members
        inner = []  # the class's levels: the search's, cut to the class, up to the first empty
        g = 0
        for k, (frontier, step) in enumerate(levels):
            if not frontier & members:
                break
            inner.append(frontier & members)
            for j, level in enumerate(inner):  # an edge into level k + 1 adds 0 to the gcd
                if step & level:  # an edge into the class starts in it
                    g = math.gcd(g, k + 1 - j)
        closed = reach == members
        cyclic = None
        if closed:  # every state has an edge, and a closed class keeps them: a cycle
            groups = [0] * g
            for k, level in enumerate(inner):
                groups[k % g] |= level
            cyclic = tuple(tuple(v + 1 for v in _states(group)) for group in groups)
        classes.append(tuple(v + 1 for v in _states(members)))
        closed_flags.append(closed)
        periods.append(g or None)
        cyclics.append(cyclic)
        reaches.append(reach.bit_count())
    return ChainStructure(
        n=n,
        classes=tuple(classes),
        closed=tuple(closed_flags),
        periods=tuple(periods),
        cyclic_classes=tuple(cyclics),
        reach=tuple(reaches),
    )


def wielandt_bound(n: int) -> int:
    """n^2 - 2n + 2: a primitive n-by-n nonnegative matrix has a strictly
    positive power by this exponent, so a miss there proves imprimitivity."""
    if n < 1:
        raise ValueError("n must be positive")
    return n * n - 2 * n + 2


def is_quasi_positive(a: StochasticMatrix) -> Optional[int]:
    """Smallest m with A^m entrywise positive, or None, a proof that none is:
    A^(2^k) is not positive with 2^k at the Wielandt bound n^2 - 2n + 2. A
    stochastic pattern has no zero row, so A^m > 0 implies A^(m+1) > 0: the
    Boolean pattern is squared until it is positive, and m binary-searched
    from the squares: row i of the pattern of X Y is ``_union`` of Y's rows
    at the bits of X's row i."""
    full = (1 << a.n) - 1
    squares = [_successors(a)]  # the patterns of A^(2^k)
    while any(row != full for row in squares[-1]):
        if 1 << len(squares) - 1 >= wielandt_bound(a.n):
            return None
        squares.append([_union(squares[-1], mask) for mask in squares[-1]])
    m, power = 0, None  # before step k: A^m is not positive and A^(m + 2^(k+1)) is
    for k in range(len(squares) - 2, -1, -1):
        step = squares[k] if power is None else [_union(squares[k], mask) for mask in power]
        if any(row != full for row in step):
            m, power = m + (1 << k), step
    return m + 1


@dataclass(frozen=True)
class InvariantVectors:
    """Left fixed vectors of the chain: exact basis of {v : v A = v}.

    ``has_positive`` says whether some member of the span is strictly
    positive, decided structurally: true exactly when every class is
    closed. ``distribution`` is the normalized invariant distribution
    when it is unique (single closed class), else None.
    """

    basis: tuple
    has_positive: bool
    distribution: Optional[Matrix]


def invariant_distributions(a: StochasticMatrix) -> InvariantVectors:
    """The fixed space of v A = v: the closed classes' distributions, each
    scaled to 1 at its class's smallest state, are its echelon basis."""
    structure = chain_structure(a)
    pis = _class_distributions(*a.matrix.integer_rows(), structure)
    basis = tuple(Matrix.row_vector([exact_div(pi[s], pi[c[0]]) if s in pi else 0
                                     for s in range(1, a.n + 1)])
                  for c, pi in zip(structure.closed_classes, pis))
    return InvariantVectors(basis, structure.all_closed, _distribution(a.n, pis))


def _class_distributions(numerators: list, scales: list, structure: ChainStructure) -> list:
    """Stationary distribution of each closed class, in class order, as
    {state: mass}, from the integer rows N_i / d_i of A. pi (A_cc - I) = 0
    exactly when mu = pi D^-1 is a left kernel vector of N_cc - D_c. pi is
    the class's unique fixed vector and has no zero entry, so any k - 1
    columns of (N_cc - D_c)^T are independent: ``_bareiss`` pivots on all
    but the last column and reads mu off it, and pi_j is mu_j d_j over the
    sum of those."""
    pis = []
    for states in structure.closed_classes:
        k = len(states)
        m = [[numerators[j - 1][i - 1] - (scales[i - 1] if i == j else 0) for j in states]
             for i in states]
        pivots, scale = _bareiss(m)
        if pivots != list(range(k - 1)):
            raise RuntimeError("closed class must carry a unique invariant vector")
        mu = [-row[k - 1] for row in m[:k - 1]] + [scale]
        v = [x * scales[s - 1] for x, s in zip(mu, states)]
        total = sum(v)
        pis.append({s: _ratio(x, total) for s, x in zip(states, v)})
    return pis


def _distribution(n: int, pis: list) -> Optional[Matrix]:
    """The invariant distribution as a row when it is unique (one closed class), else None."""
    return Matrix.row_vector([pis[0].get(s, 0) for s in range(1, n + 1)]) if len(pis) == 1 else None


def ergodic_limit(a: StochasticMatrix) -> Optional[Matrix]:
    """Exact limit of A^m when it exists, None otherwise.

    The limit exists exactly when every closed class is aperiodic. It is
    assembled algebraically, never by iterating powers: each recurrent row
    is the stationary distribution of its class; each transient row mixes
    those distributions with absorption probabilities obtained by solving
    (I - Q) H = B exactly on the transient block. For an irreducible
    aperiodic chain this reduces to the rank-one matrix with every row
    equal to the invariant distribution.
    """
    structure = chain_structure(a)
    rows = a.matrix.integer_rows()
    return _limit(*rows, structure, _class_distributions(*rows, structure))


def _limit(numerators: list, scales: list, structure: ChainStructure,
           pis: list) -> Optional[Matrix]:
    """``ergodic_limit`` from the integer rows N_i / d_i of A and the class
    distributions ``pis`` (Kemeny and Snell, ch. III). A recurrent row is its
    class's pi_c. Transient row i is sum_c H_ic pi_c, H the absorption
    probabilities, (I - Q) H = B with B_ic = sum_{j in c} A_ij. Row i of that
    system times d_i is [d_i e_i - N_iT | sum_{j in c} N_ij], integers; I - Q
    is invertible, so ``_bareiss`` pivots on its t columns and leaves
    scale x H in the last ones."""
    if not structure.is_aperiodic:
        return None
    n = structure.n
    closed = structure.closed_classes
    rows = [[0] * n for _ in range(n)]
    for c, pi in zip(closed, pis):
        for i in c:
            for j, mass in pi.items():
                rows[i - 1][j - 1] = mass
    transients = structure.transient_states
    if transients:
        t = len(transients)
        m = [[(scales[i - 1] if i == j else 0) - numerators[i - 1][j - 1] for j in transients]
             + [sum(numerators[i - 1][j - 1] for j in c) for c in closed] for i in transients]
        _, scale = _bareiss(m)
        for i, row in zip(transients, m):
            for h, pi in zip(row[t:], pis):
                if h:
                    for j, mass in pi.items():
                        rows[i - 1][j - 1] = _ratio(h * mass.numerator, scale * mass.denominator)
    return Matrix._canonical(n, n, [e for row in rows for e in row])


class Verdict(enum.Enum):
    """Outcome of the determinant criterion."""

    ERGODIC = "ergodic"
    NOT_ERGODIC = "not-ergodic"
    INAPPLICABLE = "criterion-inapplicable"


@dataclass(frozen=True)
class ErgodicityReport:
    """Everything the analyzer knows about one chain.

    The verdicts are mutually consistent by construction: a nonzero
    determinant means one aperiodic closed class (``is_regular``), so with
    no transient states it, quasi-positivity and irreducible+aperiodic
    coincide. With transient states the determinant carries no ergodicity
    verdict and the report says so, while still publishing the classical
    analysis.
    """

    is_irreducible: bool
    is_aperiodic: bool
    quasi_positive_exponent: Optional[int]
    has_positive_invariant: bool
    det_value: Scalar
    criterion_verdict: Verdict
    witness: Optional[DegreeTwoVector]
    invariant_distribution: Optional[Matrix]
    limit_matrix: Optional[Matrix]


def criterion_determinant(a: StochasticMatrix) -> Scalar:
    """det(I - Psi2(A)), exactly: det M over det D, M the criterion rows
    (``_class_pair_block``), from M's class-pair blocks with no kernel and
    no witness (``_block_certificate`` without ``whole_kernel``). A 1-state
    chain has no pairs: the determinant is the empty one, 1."""
    return _block_certificate(*a.matrix.integer_rows(), chain_structure(a), whole_kernel=False)[0]


def _criterion_product(numerators: list, scales: list, hat: list, rows: list) -> list:
    """M x on the rows ``rows``, pairs (i, j) of 0-based states in either
    order, M the criterion rows of the integer rows N_i / d_i and ``hat`` the
    n x n hollow symmetric matrix X^ = Mat(x) of the pair vector x, with no
    N x N matrix. Row (i, j) of Psi2(N) dotted with x is (N X^ N^T)_ij =
    N_j X^ N_i^T (Psi2(A) X^dagger = Mat^-1(A X^ A*) off the diagonal), so
    entry (i, j) is d_i d_j X^_ij - N_j X^ N_i^T: O(|I| n^2 + |rows| n)
    work, I the first states of ``rows``, and O(n^3) on every pair."""
    sides = {i: [sum(map(mul, row, numerators[i])) for row in hat]  # X^ N_i^T
             for i in {i for i, _ in rows}}
    return [scales[i] * scales[j] * hat[i][j] - sum(map(mul, numerators[j], sides[i]))
            for i, j in rows]


def _class_pair_block(numerators: list, scales: list, first: list, second: list,
                      pairs: list) -> Packed:
    """M_B, the principal submatrix of the criterion rows M = D - Psi2(N) on
    ``pairs``, the pairs of the classes ``first`` and ``second`` (0-based
    states, one list for one class), as ``linalg._criterion_certificate``
    reads it, with no row of it built.

    Its columns: over the m states of the classes, u_k packing column k of
    N at a stride of m slots and v_l at a stride of one, slot m r + c of
    u_k v_l + u_l v_k is N_ik N_jl + N_il N_jk, i and j the r-th and c-th
    states. Column (k, l) of Psi2(N) on the block is those slots of the
    block's pairs, cut out and widened to the LU's slots by bytes slicing,
    taken from the packed bias, d_k d_l added in its own slot.

    M_B is a Z-matrix whose diagonal is d_i d_j - Psi2_(ij),(ij) >= 0 and
    whose rows sum to at least d_i d_j minus Psi2(N)'s whole row,
    (N N^T)_ij >= 0 (|M_B|'s to at most 2 d_i d_j). So M_B + eps I is a
    nonsingular M-matrix for every eps > 0, and Fischer's inequality
    (Berman and Plemmons, Nonnegative Matrices in the Mathematical
    Sciences, ch. 6) gives 0 <= det M_B <= the product of its diagonal.
    Column norms are Gram identities over N, G_kl = sum N_ik N_il over a
    class's states i: column (k, l) of Psi2 squares to
    Ga_kk Gb_ll + Ga_ll Gb_kk + 2 Ga_kl Gb_kl across classes a and b, and to
    G_kk G_ll + G_kl^2 - 2 sum N_ik^2 N_il^2 inside one."""
    one = first is second
    order = first if one else first + second
    m, split = len(order), len(first)
    at, pick = dict(zip(order, range(m))), itemgetter(*order)
    local = [(at[i], at[j]) for i, j in pairs]  # the pairs, numbered by ``order``
    rows, d = [pick(numerators[i]) for i in order], pick(scales)  # N and the d_i on the states

    def columns(width: int, bias: int) -> list:
        narrow = (2 * max(map(max, rows)) ** 2).bit_length() // 8 + 1  # holds a product slot
        size, grid = m * narrow, m * m * narrow
        data = b"".join(map(int.to_bytes, chain.from_iterable(zip(*rows)), repeat(narrow),
                            repeat("little")))  # the v_k, one after another
        spread = bytearray(m * grid)  # the u_k
        for t in range(narrow):
            spread[t::size] = data[t::narrow]
        u = [int.from_bytes(spread[c * grid:(c + 1) * grid], "little") for c in range(m)]
        v = [int.from_bytes(data[c * size:(c + 1) * size], "little") for c in range(m)]
        grids = b"".join((u[k] * v[l] + u[l] * v[k]).to_bytes(grid, "little") for k, l in local)
        count, bits = len(local), 8 * width
        step = count * width
        wide = bytearray(count * step)  # slot s of every column, byte by byte
        for s, (r, c) in enumerate(local):
            for t in range(narrow):
                wide[s * width + t::step] = grids[(r * m + c) * narrow + t::grid]
        biased = bias * (((1 << step * 8) - 1) // ((1 << bits) - 1))
        return [biased - int.from_bytes(wide[c * step:(c + 1) * step], "little")
                + (d[k] * d[l] << bits * c) for c, (k, l) in enumerate(local)]

    def bounds() -> tuple:
        cols = list(zip(*rows))
        ca = [col[:split] for col in cols]  # N's columns on each class's states
        cb = ca if one else [col[split:] for col in cols]
        na, nb = ([sum(map(mul, c, c)) for c in part] for part in (ca, cb))
        h, norms = 1, []
        for k, l in local:
            dd, own = d[k] * d[l], rows[k][k] * rows[l][l] + rows[k][l] * rows[l][k]
            kl = list(map(mul, ca[k], ca[l]))
            g = sum(kl)
            psi = (na[k] * na[l] + g * g - 2 * sum(map(mul, kl, kl)) if one
                   else na[k] * nb[l] + na[l] * nb[k] + 2 * g * sum(map(mul, cb[k], cb[l])))
            h *= dd - own
            norms.append(psi - 2 * dd * own + dd * dd)
        return h, norms, False

    # 2 max d^2 is at least |M_B|'s row sums
    return Packed(len(pairs), 2 * max(d) ** 2, columns, bounds,
                  lambda x: _criterion_product(rows, d, _hat(m, local, x), local))


def _block_certificate(numerators: list, scales: list, structure: ChainStructure,
                       whole_kernel: bool = True) -> tuple[Scalar, list]:
    """det(I - Psi2(A)) = det M / det D, M = D - Psi2(N) the criterion rows of
    a chain (each d_i scales the n - 1 rows whose pair holds state i, so
    det D = (prod d_i)^(n - 1)), and, when it is 0, a basis of M's right
    kernel, by blocks over class pairs (the Frobenius normal form; Seneta,
    Non-negative Matrices and Markov Chains), each packed on its own
    (``_class_pair_block``), its pairs in lexicographic order. Without
    ``whole_kernel`` (the determinant-only callers) the first block proven
    singular gives (0, []).

    A pair of states in classes a and b leads only to pairs in classes a'
    and b' that a and b lead to, so M is block triangular over the class
    pairs {a, b}: det M = prod det M_ab. Let r(c) be 0 for a closed class c
    and else its reach (``ChainStructure.reach``). A step from a class into
    another leaves the second's reach a strict subset of the first's, so a
    block leads only to itself and to blocks of a smaller sum r(a) + r(b).
    A kernel vector of M is one of a singular closed M_ab's (sum 0), x_C,
    extended block by block in order of that sum: each transient block's
    x_B solves M_BB x_B = -M x on B's rows (one ``_criterion_product``), x
    being 0 there and on the blocks not yet solved, kept as its n x n X^.

    The closed blocks go first, those across two classes before those inside
    one. The kernel of each that is across two classes or periodic is its
    cyclic indicators (``_cyclic_kernel``), each checked by one
    ``_criterion_product``, with no LU; without ``whole_kernel`` the first
    alone, as one kernel vector proves det M = 0. By the same count one
    inside an aperiodic class is nonsingular, and skipped once a kernel
    proves det M = 0. An indicator that fails its check is a counterexample:
    RuntimeError, the routes disagree, or without ``whole_kernel`` the
    block's own certificate. Every other block takes a
    ``_criterion_certificate``: with no kernel, its exact det (an
    irreducible chain has one block, all of M); with one, for a transient
    M_BB, the x_B of every kernel vector, X^ scaled by the solution's
    denominator, so that block by block the checks prove M x = 0. A
    transient M_BB proven singular while a kernel is extended contradicts
    ``is_regular``'s M-matrix fact: RuntimeError; with no kernel a singular
    block makes det M = 0. No block is larger than the largest class pair's.
    """
    n = len(scales)
    classes = [[s - 1 for s in states] for states in structure.classes]
    r = [0 if closed else reach for closed, reach in zip(structure.closed, structure.reach)]
    # each class pair with pairs, in the order above, then by its classes,
    # which are numbered by their smallest states
    blocks = sorted((r[a] + r[b], a == b, a, b)
                    for a, b in combinations_with_replacement(range(len(classes)), 2)
                    if a != b or len(classes[a]) > 1)
    kernel, dets = [], []  # the kernel vectors as their X^
    for *_, a, b in blocks:
        closed = structure.closed[a] and structure.closed[b]
        cyclic = closed and (a != b or structure.periods[a] > 1)
        if closed and kernel and not cyclic:
            continue
        # M's entries of a pair do not depend on its order: each leads with
        # its state in the class of fewer states, of a on a tie
        first, second = sorted((classes[a], classes[b]), key=len)
        pairs = (list(combinations(first, 2)) if a == b
                 else sorted(((i, j) for i in first for j in second), key=sorted))
        if cyclic:
            found = _cyclic_kernel(structure, a, b, pairs, n)
            if whole_kernel:
                found = list(found)
                if any(any(_criterion_product(numerators, scales, hat, pairs)) for hat in found):
                    raise RuntimeError("the cyclic indicators of a block of closed classes fail "
                                       "their check, against the pair chain's count: the two "
                                       "routes disagree")
                kernel += found
                continue
            if not any(_criterion_product(numerators, scales, next(found), pairs)):
                return 0, []
        rhs = [[-e for e in _criterion_product(numerators, scales, hat, pairs)] for hat in kernel]
        det, solved = _criterion_certificate(
            _class_pair_block(numerators, scales, first, second, pairs), rhs)
        if det == 0 and rhs:
            raise RuntimeError("a block of pairs meeting a transient state is singular, not an "
                               "M-matrix as the classical oracles say: the two routes disagree")
        if det == 0:
            return 0, []
        dets.append(det)
        for hat, (d, y) in zip(kernel, solved):  # M_BB y = -d M x on B's rows
            if d != 1:
                hat[:] = [[d * e for e in row] for row in hat]
            for (i, j), e in zip(pairs, y):
                hat[i][j] = hat[j][i] = e
    return ((0, [[hat[i][j] for i, j in combinations(range(n), 2)] for hat in kernel]) if kernel
            else (exact_div(math.prod(dets), math.prod(scales) ** (n - 1)), []))


def _labels(groups: tuple, n: int) -> list:
    """Each 0-based state's index in ``groups``, disjoint tuples of 1-based
    states: its class, or its cyclic class (0 for a state in none)."""
    labels = [0] * n
    for index, states in enumerate(groups):
        for s in states:
            labels[s - 1] = index
    return labels


def _hat(n: int, pairs: list, coords) -> list:
    """The n x n X^ of the pair vector with ``coords`` on the 0-based ``pairs``, else 0."""
    hat = [[0] * n for _ in range(n)]
    for (i, j), e in zip(pairs, coords):
        hat[i][j] = hat[j][i] = e
    return hat


def _cyclic_kernel(structure: ChainStructure, a: int, b: int, pairs: list,
                   n: int) -> Iterator[list]:
    """The cyclic indicators of M_ab, the block on ``pairs`` of closed classes
    a and b (a == b: one class of period p >= 2) of an n-state chain, each as
    its n x n X^, built one at a time and unchecked (``_block_certificate``
    checks them: all of them, or the first alone). With phi the
    cyclic class: the g = gcd(p_a, p_b) indicators [phi(i) - phi(j) = r mod g],
    r in Z_g, or for a == b the floor(p/2) ones [phi(i) - phi(j) = +-delta
    mod p], delta = 1..p/2 (``witness_periodic``'s).

    They span it: M_ab = D (I - B), D the diagonal of the d_i d_j, and
    B = Psi2(A) on the block is the pair chain, two independent copies of
    the chain killed when they meet. Its rows sum to at most 1, so its
    powers are bounded and its eigenvalue 1 semisimple: dim ker M_ab counts
    B's classes C whose pairs never meet, the irreducible substochastic B_CC
    with rho(B_CC) = 1, each simple (Seneta, Non-negative Matrices and Markov
    Chains, ch. 1; Berman and Plemmons, Nonnegative Matrices in the
    Mathematical Sciences, ch. 6). Both copies step one cyclic class on, and
    A^p is primitive on a cyclic class, so each offset phi(i) - phi(j) mod g
    (up to sign for a == b) is a class of B, whose pairs never meet but at
    offset 0 inside one class: g classes, or floor(p/2), spanned by the
    checked indicators, disjoint and nonzero."""
    g = math.gcd(structure.periods[a], structure.periods[b])
    # b's cyclic classes are labelled from p_a on, and g divides p_a
    phase = _labels(structure.cyclic_classes[a] + structure.cyclic_classes[b], n)
    residues = [{d, g - d} for d in range(1, g // 2 + 1)] if a == b else [{r} for r in range(g)]
    return (_hat(n, pairs, [int((phase[i] - phase[j]) % g in hit) for i, j in pairs])
            for hit in residues)


def _nonnegative_fixed_vector(kernel: list, n: int) -> Optional[DegreeTwoVector]:
    """A nonnegative fixed vector of Psi2(A), or None, from ``kernel``, a
    basis of the right kernel of the criterion rows (the fixed space) from
    ``_block_certificate``, integer rows that ``_bareiss`` reduces in place to
    scale x their rref, the space's reduced echelon basis, the same for every
    basis. Only its vectors are tried (each leads with 1, so no negation is
    nonnegative): None does not rule out a nonnegative combination.
    """
    _, scale = _bareiss(kernel)
    for row in kernel:
        if all(e * scale >= 0 for e in row):
            return DegreeTwoVector(n, [_ratio(e, scale) for e in row])
    return None


def zeon_criterion(a: StochasticMatrix) -> ErgodicityReport:
    """Full analysis: classical oracles plus the determinant criterion.

    Verdict: ergodic when det(I - Psi2(A)) != 0 and a strictly positive
    invariant vector exists; not-ergodic when the determinant vanishes in
    that same situation (with a nonnegative fixed-vector witness
    attached); criterion-inapplicable when transient states preclude a
    positive invariant vector -- the determinant is still reported, but it
    decides nothing there. A determinant that is nonzero on a chain that is
    not ``is_regular``, or 0 on one that is, raises RuntimeError: it is a
    bug or a counterexample to the theorem, never a report. On a closed
    chain that is not ergodic, the oracles' witness w proves det = 0 by
    M w = 0 (``_criterion_product``), M the criterion rows D - Psi2(N).
    Every other chain works on M's blocks over class pairs
    (``_block_certificate``).
    """
    return _analysis(a)[0]


def _analysis(a: StochasticMatrix) -> tuple[ErgodicityReport, ChainStructure]:
    """``zeon_criterion``'s report and the chain structure it rests on. The
    class distributions, the criterion and the limit share one copy of A's
    integer rows."""
    structure = chain_structure(a)
    numerators, scales = a.matrix.integer_rows()
    pis = _class_distributions(numerators, scales, structure)
    witness = None
    if structure.all_closed and not structure.is_regular:
        witness, fixed = _fixed_witness(numerators, scales, structure)
        if not fixed:
            raise RuntimeError("the classical oracles say not-ergodic, but their witness is not "
                               "fixed by Psi2(A); ergodic is not refuted: the two routes disagree")
        det_value, verdict = 0, Verdict.NOT_ERGODIC
    else:
        det_value, kernel = _block_certificate(numerators, scales, structure)
        if (det_value != 0) != structure.is_regular:
            raise RuntimeError(f"the determinant is {'nonzero' if det_value else '0'}, but the "
                               f"classical oracles say the chain is {'not ' if det_value else ''}"
                               "regular (one closed class, aperiodic): the two routes disagree")
        verdict = Verdict.ERGODIC if structure.all_closed else Verdict.INAPPLICABLE
        if det_value == 0:
            witness = _nonnegative_fixed_vector(kernel, a.n)

    return ErgodicityReport(
        is_irreducible=structure.is_irreducible,
        is_aperiodic=structure.is_aperiodic,
        quasi_positive_exponent=is_quasi_positive(a),
        has_positive_invariant=structure.all_closed,
        det_value=det_value,
        criterion_verdict=verdict,
        witness=witness,
        invariant_distribution=_distribution(a.n, pis),
        limit_matrix=_limit(numerators, scales, structure, pis),
    ), structure


def _fixed_witness(numerators: list, scales: list, structure: ChainStructure,
                   delta: int = 1) -> tuple[DegreeTwoVector, bool]:
    """The classical oracles' witness w of a closed chain that is not regular
    (``witness_periodic`` at cyclic distance ``delta`` of an irreducible one,
    else ``witness_reducible``), and whether M w = 0 on every row of M, the
    criterion rows of the integer rows N_i / d_i of A: one
    ``_criterion_product`` on W^, O(n^3). True proves det M = 0; False says
    that w is not fixed by Psi2(A)."""
    witness = (witness_periodic(structure, delta) if structure.is_irreducible
               else witness_reducible(structure))
    pairs = list(combinations(range(structure.n), 2))
    hat = _hat(structure.n, pairs, witness.coords)
    return witness, not any(_criterion_product(numerators, scales, hat, pairs))


def _indicator(labels: list, hit) -> DegreeTwoVector:
    """The pair vector of the 0-based state labels ``labels``: x_ij is 1 where
    ``hit(labels[i], labels[j])``, else 0."""
    return DegreeTwoVector(len(labels), [int(hit(labels[i], labels[j]))
                                         for i, j in combinations(range(len(labels)), 2)])


def witness_reducible(structure: ChainStructure) -> DegreeTwoVector:
    """Cross-class indicator: x_ij = 1 when i and j lie in different
    classes, 0 inside a class. For a reducible chain with all classes
    closed this is an exact fixed vector of Psi2(A)."""
    if len(structure.classes) < 2:
        raise ValueError("need at least two classes for a cross-class witness")
    if not structure.all_closed:
        raise ValueError("cross-class witness needs every class closed")
    return _indicator(_labels(structure.classes, structure.n), ne)


def witness_periodic(structure: ChainStructure, delta: int = 1) -> DegreeTwoVector:
    """Cyclic-distance indicator for an irreducible periodic chain:
    x_ij = 1 when the cyclic classes of i and j are delta apart (distance
    measured around the cycle of the p cyclic classes). Fixed by Psi2(A)
    for every delta between 1 and floor(p/2)."""
    if not structure.is_irreducible:
        raise ValueError("periodic witness needs an irreducible chain")
    period = structure.periods[0]
    if period is None or period < 2:
        raise ValueError("chain is aperiodic: no periodic witness exists")
    if not 1 <= delta <= period // 2:
        raise ValueError(f"delta must be between 1 and {period // 2} for period {period}")
    phase = _labels(structure.cyclic_classes[0], structure.n)
    return _indicator(phase, lambda a, b: (a - b) % period in (delta, period - delta))


# -- equivalence harness ----------------------------------------------


@dataclass(frozen=True)
class EquivalenceCheck:
    """One matrix, three routes to the same dichotomy: quasi-positivity,
    irreducible + aperiodic, and det(I - Psi2(A)), whose exact value comes
    from M's class-pair blocks (``_block_certificate`` without
    ``whole_kernel``), with no classical witness: on a chain that is not
    regular one checked cyclic indicator proves it 0, and one that fails its
    check sends its block on to its certificate, so a determinant that
    breaks the classical verdict shows up as a counterexample, not as an
    error."""

    matrix: Matrix
    all_closed: bool
    is_regular: bool
    det_value: Scalar
    quasi_positive_exponent: Optional[int]
    is_irreducible: bool
    is_aperiodic: bool

    @property
    def classical_ergodic(self) -> bool:
        return self.is_irreducible and self.is_aperiodic

    @property
    def classical_routes_consistent(self) -> bool:
        """Quasi-positivity against irreducible + aperiodic (always applies)."""
        return (self.quasi_positive_exponent is not None) == self.classical_ergodic

    @property
    def determinant_consistent(self) -> bool:
        """Determinant against the classical structure on every chain: nonzero
        exactly when there is one closed class and it is aperiodic
        (``ChainStructure.is_regular``), which with all classes closed is
        irreducible + aperiodic."""
        return (self.det_value != 0) == self.is_regular

    @property
    def consistent(self) -> bool:
        return self.classical_routes_consistent and self.determinant_consistent


def check_equivalence(a: StochasticMatrix) -> EquivalenceCheck:
    """The classical routes and ``criterion_determinant`` of a chain, from one structure."""
    structure = chain_structure(a)
    numerators, scales = a.matrix.integer_rows()
    return EquivalenceCheck(
        matrix=a.matrix,
        all_closed=structure.all_closed,
        is_regular=structure.is_regular,
        det_value=_block_certificate(numerators, scales, structure, whole_kernel=False)[0],
        quasi_positive_exponent=is_quasi_positive(a),
        is_irreducible=structure.is_irreducible,
        is_aperiodic=structure.is_aperiodic,
    )


@dataclass(frozen=True)
class HarnessReport:
    """Aggregate of an equivalence sweep; counterexamples expected empty."""

    n: int
    samples: int
    seed: int
    checked: int
    ergodic_count: int
    periodic_count: int
    reducible_count: int
    counterexamples: tuple

    @property
    def all_consistent(self) -> bool:
        return not self.counterexamples


def random_stochastic(rng: random.Random, n: int, density: float = 0.75) -> StochasticMatrix:
    """Random rational stochastic matrix with tame denominators: entries
    are small nonnegative integers normalized by the row sum."""
    rows = []
    for _ in range(n):
        row = [rng.randint(1, 6) if rng.random() < density else 0 for _ in range(n)]
        if not any(row):
            row[rng.randrange(n)] = rng.randint(1, 6)
        total = sum(row)
        rows.append([Fraction(e, total) for e in row])
    return StochasticMatrix(Matrix.from_rows(rows))


def random_recurrent_stochastic(rng: random.Random, n: int,
                                max_tries: int = 1000) -> StochasticMatrix:
    """Random stochastic matrix whose classes are all closed (no
    transient states), by rejection sampling over varying densities."""
    for _ in range(max_tries):
        density = rng.uniform(0.2, 0.9)
        a = random_stochastic(rng, n, density)
        if chain_structure(a).all_closed:
            return a
    raise RuntimeError("failed to sample a recurrent-only matrix")


def equivalence_harness(n: int, samples: int, seed: int) -> HarnessReport:
    """Sample recurrent-only chains and check the three-way equivalence

        det(I - Psi2(A)) != 0  <=>  quasi-positive  <=>  irreducible and aperiodic

    on each. Deterministic for a given seed; a counterexample is recorded
    in the report, not raised.
    """
    if not 2 <= n <= 8:
        raise ValueError("harness supports 2 <= n <= 8")
    rng = random.Random(seed)
    ergodic = periodic = reducible = 0
    counterexamples = []
    for _ in range(samples):
        a = random_recurrent_stochastic(rng, n)
        chk = check_equivalence(a)
        if chk.classical_ergodic:
            ergodic += 1
        elif chk.is_irreducible:
            periodic += 1
        else:
            reducible += 1
        if not chk.consistent:
            counterexamples.append(chk)
    return HarnessReport(
        n=n,
        samples=samples,
        seed=seed,
        checked=samples,
        ergodic_count=ergodic,
        periodic_count=periodic,
        reducible_count=reducible,
        counterexamples=tuple(counterexamples),
    )
