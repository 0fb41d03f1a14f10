"""Output gate: checks every result the benchmark times, from definitions.

Nothing here calls the program. Each check recomputes what it needs with
plain integers and Fractions, so a result passes exactly when it is right,
however the program got it:

- the verdict and the classification flags must match the construction
  of the chain (``families.Chain``) or, for the fixtures, the values
  recorded in ``expected_fixtures.json``;
- ``det_value`` must be exactly 0 when the construction makes
  ``I - Psi2(A)`` singular, and must agree with the benchmark's own
  determinant of ``I - Psi2(A)`` modulo the prime 10^9 + 7 otherwise (a
  wrong value passes with odds of about 1e-9; below 2^30 the residues
  stay one-digit Python ints, which halves the cost of the check);
- the invariant distribution and the limit matrix are checked by their
  defining equations, which pin each to one exact value;
- a witness must be nonzero, nonnegative and fixed by the benchmark's own
  from-definition Psi2 product, so any valid witness passes.

Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional

from families import Chain

PRIME = 1_000_000_007
FIXTURES_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_fixtures.json")
EXIT_CODES = {"ergodic": 0, "not-ergodic": 1, "criterion-inapplicable": 2}


def _frac(value) -> Fraction:
    return Fraction(value) if not isinstance(value, Fraction) else value


def expected_verdict(chain: Chain) -> str:
    if chain.transient:
        return "criterion-inapplicable"
    return "ergodic" if chain.ergodic else "not-ergodic"


# -- from-definition arithmetic ------------------------------------------


def integer_rows(rows) -> tuple:
    """(B, d) with B integer and rows = B / d, d the common denominator."""
    fr = [[_frac(e) for e in row] for row in rows]
    d = 1
    for row in fr:
        for e in row:
            d = math.lcm(d, e.denominator)
    return [[e.numerator * (d // e.denominator) for e in row] for row in fr], d


def det_i_minus_psi2_mod(rows, p: int = PRIME) -> int:
    """det(I - Psi2(A)) mod p, with Psi2 built entry by entry from its
    definition: Psi2[(i,j),(l,m)] = A_il A_jm + A_im A_jl over pairs i<j,
    l<m in lexicographic order."""
    b, d = integer_rows(rows)
    inv = pow(d, -1, p)
    a = [[e * inv % p for e in row] for row in b]
    pairs = list(combinations(range(len(rows)), 2))
    m = []
    for r, (i, j) in enumerate(pairs):
        ai, aj = a[i], a[j]
        m.append([((1 if r == c else 0) - ai[l] * aj[mm] - ai[mm] * aj[l]) % p
                  for c, (l, mm) in enumerate(pairs)])
    det = 1
    size = len(m)
    for k in range(size):
        pivot = next((r for r in range(k, size) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        mk = m[k]
        det = det * mk[k] % p
        inv_pivot = pow(mk[k], -1, p)
        tail = mk[k + 1:]
        for r in range(k + 1, size):
            mr = m[r]
            f = mr[k] * inv_pivot % p
            if f:
                m[r][k + 1:] = [(x - f * y) % p for x, y in zip(mr[k + 1:], tail)]
    return det % p


def psi2_column_action(rows, coords) -> list:
    """Psi2(A) x, from the definition (Psi2 x)_ij = sum_{l<m}
    (A_il A_jm + A_im A_jl) x_lm, computed over integers."""
    b, d = integer_rows(rows)
    pairs = list(combinations(range(len(rows)), 2))
    x = [_frac(c) for c in coords]
    e = 1
    for c in x:
        e = math.lcm(e, c.denominator)
    y = [(c.numerator * (e // c.denominator), l, m) for c, (l, m) in zip(x, pairs) if c]
    out = []
    for i, j in pairs:
        bi, bj = b[i], b[j]
        acc = sum(v * (bi[l] * bj[m] + bi[m] * bj[l]) for v, l, m in y)
        out.append(Fraction(acc, e * d * d))
    return out


def matmul(x, y) -> list:
    cols = list(zip(*y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]


def permanent(rows):
    """Permanent as the sum over all permutations (the definition); exact
    for int or Fraction entries."""
    total = 0
    for perm in permutations(range(len(rows))):
        prod = 1
        for i, j in enumerate(perm):
            prod *= rows[i][j]
            if not prod:
                break
        total += prod
    return total


def zeon_power(rows, k: int) -> list:
    """k-th zeon power: permanents of the k-by-k submatrices, by definition."""
    b, d = integer_rows(rows)
    subsets = list(combinations(range(len(rows)), k))
    scale = d ** k
    return [[Fraction(permanent([[b[i][j] for j in cs] for i in rs]), scale)
             for cs in subsets] for rs in subsets]


def quasi_positive_exponent(rows) -> Optional[int]:
    """Smallest m with A^m entrywise positive, by boolean powers up to the
    Wielandt bound n^2 - 2n + 2."""
    n = len(rows)
    pattern = [sum(1 << j for j, e in enumerate(row) if _frac(e) > 0) for row in rows]
    full = (1 << n) - 1
    power = pattern
    for m in range(1, n * n - 2 * n + 3):
        if all(r == full for r in power):
            return m
        nxt = []
        for r in power:
            acc = 0
            for j in range(n):
                if r >> j & 1:
                    acc |= pattern[j]
            nxt.append(acc)
        power = nxt
    return None


# -- report checks --------------------------------------------------------


def check_report(chain: Chain, report: dict) -> list:
    """Check one analysis of a generated chain against its construction.

    ``report`` holds the report's fields with exact values: verdict string,
    flags, quasi-positive exponent, det_value, invariant distribution (list
    or None), limit matrix (rows or None) and witness coordinates (or None).
    """
    problems = []
    rows = chain.fractions()
    n = chain.n
    verdict = expected_verdict(chain)
    if report["criterion_verdict"] != verdict:
        problems.append(f"verdict {report['criterion_verdict']!r}, expected {verdict!r}")
    for key, want in (("is_irreducible", chain.irreducible),
                      ("is_aperiodic", chain.aperiodic),
                      ("has_positive_invariant", not chain.transient)):
        if report[key] != want:
            problems.append(f"{key} is {report[key]}, construction says {want}")
    quasi = report["quasi_positive_exponent"]
    if chain.ergodic:
        if quasi is None or quasi != quasi_positive_exponent(rows):
            problems.append(f"quasi-positive exponent {quasi} is not the least positive power")
    elif quasi is not None:
        problems.append(f"quasi-positive exponent {quasi} on a non-ergodic chain")
    problems += check_det(rows, report["det_value"], singular=not chain.ergodic)
    problems += check_distribution(rows, report["invariant_distribution"], chain)
    problems += check_limit(rows, report["limit_matrix"], chain)
    problems += check_witness(rows, report["witness"], required=verdict == "not-ergodic",
                              allowed=verdict != "ergodic")
    if report["n"] != n:
        problems.append(f"report is for n={report['n']}, chain has n={n}")
    return problems


def check_det(rows, det_value, singular: bool) -> list:
    det_value = _frac(det_value)
    own = det_i_minus_psi2_mod(rows)
    if singular:
        if det_value != 0:
            return [f"det_value {det_value} on a chain whose determinant is 0"]
        return [] if own == 0 else ["own determinant is nonzero mod p on a singular chain"]
    if det_value == 0:
        return ["det_value 0 on a chain whose determinant is nonzero"]
    claimed = det_value.numerator % PRIME * pow(det_value.denominator, -1, PRIME) % PRIME
    return [] if claimed == own else [f"det_value {det_value} disagrees with own det mod {PRIME}"]


def check_distribution(rows, dist, chain: Chain) -> list:
    if len(chain.closed_periods) != 1:
        return [] if dist is None else ["invariant distribution given for several closed classes"]
    if dist is None:
        return ["missing invariant distribution for a single closed class"]
    pi = [_frac(v) for v in dist]
    if len(pi) != chain.n:
        return [f"invariant distribution has {len(pi)} entries"]
    problems = []
    if sum(pi) != 1:
        problems.append("invariant distribution does not sum to 1")
    if matmul([pi], rows)[0] != pi:
        problems.append("invariant distribution is not fixed by A")
    for s, v in enumerate(pi):
        if (v > 0) == (s in chain.transient) or v < 0:
            problems.append(f"invariant mass {v} on state {s + 1} has the wrong sign")
            break
    return problems


def check_limit(rows, limit, chain: Chain) -> list:
    """The limit of A^m, when every closed class is aperiodic, is the
    unique L with LA = AL = L = L^2 and trace(L) = number of closed
    classes (the spectral projector for eigenvalue 1)."""
    if any(p != 1 for p in chain.closed_periods):
        return [] if limit is None else ["limit matrix given for a periodic chain"]
    if limit is None:
        return ["missing limit matrix"]
    lm = [[_frac(e) for e in row] for row in limit]
    if len(lm) != chain.n or any(len(r) != chain.n for r in lm):
        return ["limit matrix has the wrong shape"]
    problems = []
    if matmul(lm, rows) != lm:
        problems.append("limit L fails L A = L")
    if matmul(rows, lm) != lm:
        problems.append("limit L fails A L = L")
    if matmul(lm, lm) != lm:
        problems.append("limit L is not idempotent")
    if sum(lm[i][i] for i in range(chain.n)) != len(chain.closed_periods):
        problems.append("limit L has the wrong trace")
    return problems


def check_witness(rows, coords, required: bool, allowed: bool) -> list:
    if coords is None:
        return ["missing witness"] if required else []
    if not allowed:
        return ["witness given for an ergodic chain"]
    x = [_frac(c) for c in coords]
    n = len(rows)
    if len(x) != n * (n - 1) // 2:
        return [f"witness has {len(x)} coordinates"]
    if not any(x):
        return ["witness is zero"]
    if any(c < 0 for c in x):
        return ["witness has a negative coordinate"]
    if psi2_column_action(rows, x) != x:
        return ["witness is not fixed by Psi2(A)"]
    return []


def check_zeon_power(rows, k: int, result_rows) -> list:
    want = zeon_power(rows, k)
    got = [[_frac(e) for e in row] for row in result_rows]
    return [] if got == want else [f"zeon power k={k} differs from its definition"]


# -- fixtures --------------------------------------------------------------


def load_fixture_expectations(path: str = FIXTURES_FILE) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_fixture_report(expected: dict, rows, report: dict) -> list:
    """Exact comparison with the values recorded for a fixture; the
    witness is checked by definition, not by its recorded coordinates."""
    problems = []
    for key in ("criterion_verdict", "is_irreducible", "is_aperiodic",
                "has_positive_invariant", "quasi_positive_exponent"):
        if report[key] != expected[key]:
            problems.append(f"{key} is {report[key]!r}, recorded {expected[key]!r}")
    if _frac(report["det_value"]) != Fraction(expected["det_value"]):
        problems.append(f"det_value {report['det_value']}, recorded {expected['det_value']}")
    for key in ("invariant_distribution", "limit_matrix"):
        got, want = report[key], expected[key]
        if (got is None) != (want is None) or (got is not None and _exact(got) != _exact(want)):
            problems.append(f"{key} differs from the recorded value")
    fr = [[_frac(e) for e in row] for row in rows]
    problems += check_witness(fr, report["witness"],
                              required=expected["witness_present"],
                              allowed=expected["criterion_verdict"] != "ergodic")
    return problems


def _exact(value):
    if isinstance(value, list):
        return [_exact(v) for v in value]
    return _frac(value)


def check_exit_code(verdict: str, code: int) -> list:
    want = EXIT_CODES.get(verdict)
    return [] if code == want else [f"exit code {code} for verdict {verdict!r}, expected {want}"]
