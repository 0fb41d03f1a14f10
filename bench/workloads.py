"""The three workloads: which operations a cycle runs, on which inputs.

A cycle is one pass over a workload's fixed mix of (family, n) slots,
with fresh chains drawn from ``random.Random(f"{workload}:{seed}:{cycle}")``.
No input repeats within a run (the five fixtures aside), so the program's
compound cache never serves an operation from an earlier one. Every
operation is one public call whose result the gate checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import families as fam
import gate

FIXTURE_NAMES = tuple(f"example{i}" for i in range(1, 6))

# Ergodic: the n=18 chain of a cycle is the heavy Bareiss determinant and
# most of its time; half the operations are n=14 analyses, so the median
# operation sits inside that cluster, away from the gaps between sizes.
# Short cycles give many per run, so the per-cycle medians shrug off the
# bursts in which a shared machine runs slow.
ERGODIC_SLOTS = tuple((fam.ERGODIC, n) for n in (10, 14, 18, 14))

# Nonergodic: reducible and periodic chains at every n from 8 to 13, the
# transient chains (the N x N rref witness search) at n = 9, 11, 13 and at
# the largest n, 14, which holds four transient chains a cycle, so that
# largest_n_ms is a median over many of them. The costs of reducible and
# periodic chains of neighbouring sizes overlap, so sixteen of each at n = 10,
# with as many operations below that cluster as above it, put the median
# operation in the middle of a dense cluster of similar chains.
NONERGODIC_SLOTS = tuple(
    [(f, n) for n in range(8, 14) for f in (fam.REDUCIBLE, fam.PERIODIC)]
    + [(f, n) for n in (8, 9) for f in (fam.REDUCIBLE, fam.PERIODIC)]
    + [(f, 10) for f in (fam.REDUCIBLE, fam.PERIODIC)] * 15
    + [(fam.TRANSIENT, n) for n in (9, 11, 13, 14, 14, 14, 14)]
)

# Small sweep: all four families at n = 4..8, plus three more ergodic
# chains at n = 8: the analyses at n = 8 of the other families are faster
# or slower than the ergodic ones, so four of seven put the median analysis
# there well inside the ergodic cluster.
SMALL_SLOTS = tuple(
    [(f, n) for n in range(4, 9) for f in fam.FAMILIES] + [(fam.ERGODIC, 8)] * 3
)
SMALL_POWER_MAX_N = 6  # zeon_power k in {3, 4} on the chains up to this size

SLOTS = {"ergodic": ERGODIC_SLOTS, "nonergodic": NONERGODIC_SLOTS, "small-sweep": SMALL_SLOTS}


@dataclass
class Op:
    """One timed public call and the check of its result."""

    id: str
    kind: str
    family: str
    n: int
    call: Callable[[], Any]
    check: Callable[[Any], list]
    analysis: bool = False  # an analysis of a whole chain (largest_n_ms)
    det_bits: Any = None  # filled from the result where a determinant is returned


def report_fields(report, n: int) -> dict:
    """An ErgodicityReport's fields as plain exact values for the gate."""
    return {
        "criterion_verdict": report.criterion_verdict.value,
        "is_irreducible": report.is_irreducible,
        "is_aperiodic": report.is_aperiodic,
        "has_positive_invariant": report.has_positive_invariant,
        "quasi_positive_exponent": report.quasi_positive_exponent,
        "det_value": report.det_value,
        "invariant_distribution": None if report.invariant_distribution is None
        else list(report.invariant_distribution.data),
        "limit_matrix": None if report.limit_matrix is None else report.limit_matrix.to_lists(),
        "witness": None if report.witness is None else list(report.witness.coords),
        "n": n,
    }


def cli_fields(doc: dict) -> dict:
    """The same fields read back from ``analyze`` JSON output."""
    fields = dict(doc["report"])
    fields["witness"] = None if fields["witness"] is None else fields["witness"]["coords"]
    fields["n"] = doc["input"]["n"]
    return fields


def bits(value) -> int:
    value = Fraction(value)
    return value.numerator.bit_length() + value.denominator.bit_length()


class Workload:
    """Builds the operations of each cycle. ``zm`` is the imported program
    package; ``workdir`` is where the nonergodic workload writes its JSON
    inputs."""

    def __init__(self, name: str, seed: int, zm, fixtures_dir: str, workdir: str):
        if name not in SLOTS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(SLOTS)}")
        self.name = name
        self.seed = seed
        self.zm = zm
        self.fixtures_dir = fixtures_dir
        self.workdir = workdir
        self.slots = SLOTS[name]
        self.expected = gate.load_fixture_expectations() if name == "nonergodic" else {}

    @property
    def largest_n(self) -> int:
        return max(n for _, n in self.slots)

    def chains(self, cycle: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{cycle}")
        return [fam.make(rng, f, n) for f, n in self.slots]

    def inputs(self, cycle: int) -> list:
        """Inputs of one cycle as (name, chain or None, JSON text). Pure
        benchmark work: nothing here touches the program."""
        out = [(f"{cycle}.{i}", chain, json.dumps(fam.to_json(chain)))
               for i, chain in enumerate(self.chains(cycle))]
        if self.name == "nonergodic":
            for name in FIXTURE_NAMES:
                with open(os.path.join(self.fixtures_dir, name + ".json"), encoding="utf-8") as f:
                    out.append((f"{cycle}.{name}", None, f.read()))
        return out

    def write_inputs(self, inputs: list) -> list:
        paths = []
        for name, _chain, text in inputs:
            path = os.path.join(self.workdir, name + ".json")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            paths.append(path)
        return paths

    def load(self, inputs: list, paths: list) -> list:
        """Load and validate inputs through the program's own loaders."""
        documents, markov = self.zm.documents, self.zm.markov
        if paths:
            docs = [documents.load_matrix(p) for p in paths]
        else:
            docs = [documents.parse_matrix_text(text) for _n, _c, text in inputs]
        return [markov.validate_stochastic(doc.matrix) for doc in docs]

    def ops(self, cycle: int) -> list:
        inputs = self.inputs(cycle)
        if self.name == "nonergodic":
            # the CLI loads each file itself, inside the timed call
            return [self._analyze_op(name, chain, path)
                    for (name, chain, _), path in zip(inputs, self.write_inputs(inputs))]
        loaded = self.load(inputs, [])
        if self.name == "ergodic":
            return [self._criterion_op(name, chain, a) for (name, chain, _), a in zip(inputs, loaded)]
        rng = random.Random(f"{self.name}:{self.seed}:{cycle}:vectors")
        ops = []
        for (name, chain, _), a in zip(inputs, loaded):
            ops.append(self._criterion_op(name + ".criterion", chain, a))
            ops.append(self._equivalence_op(name + ".equivalence", chain, a))
            x = self.zm.degree2.DegreeTwoVector(
                chain.n, [Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                          for _ in range(math.comb(chain.n, 2))])
            ops.append(self._ibp_op(name + ".ibp", chain, a, x))
            ops.append(self._general_op(name + ".general", chain, a, x))
            if chain.n <= SMALL_POWER_MAX_N:
                for k in (3, 4):
                    ops.append(self._power_op(f"{name}.power{k}", chain, a, k))
        return ops

    # -- operations -----------------------------------------------------

    def _criterion_op(self, name, chain, a) -> Op:
        zm = self.zm
        op = Op(name, "zeon_criterion", chain.family, chain.n,
                lambda: zm.markov.zeon_criterion(a), None, analysis=True)

        def check(report):
            op.det_bits = bits(report.det_value)
            return gate.check_report(chain, report_fields(report, chain.n))

        op.check = check
        return op

    def _analyze_op(self, name, chain, path) -> Op:
        cli = self.zm.cli
        fixture = name.split(".", 1)[1] if chain is None else None

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["analyze", path])
            return code, out.getvalue()

        op = Op(name, "analyze", chain.family if chain else "fixture",
                chain.n if chain else 0, call, None, analysis=True)

        def check(result):
            code, text = result
            doc = json.loads(text)
            fields = cli_fields(doc)
            op.n = fields["n"]
            op.det_bits = bits(fields["det_value"])
            problems = gate.check_exit_code(fields["criterion_verdict"], code)
            if chain is None:
                with open(path, encoding="utf-8") as f:
                    rows = json.load(f)["rows"]
                return problems + gate.check_fixture_report(self.expected[fixture], rows, fields)
            return problems + gate.check_report(chain, fields)

        op.check = check
        return op

    def _equivalence_op(self, name, chain, a) -> Op:
        zm = self.zm

        def check(eq):
            rows = chain.fractions()
            problems = gate.check_det(rows, eq.det_value, singular=not chain.ergodic)
            want = {"all_closed": not chain.transient, "is_irreducible": chain.irreducible,
                    "is_aperiodic": chain.aperiodic, "consistent": True}
            for key, value in want.items():
                if getattr(eq, key) != value:
                    problems.append(f"{key} is {getattr(eq, key)}, expected {value}")
            quasi = gate.quasi_positive_exponent(rows) if chain.ergodic else None
            if eq.quasi_positive_exponent != quasi:
                problems.append(f"quasi-positive exponent {eq.quasi_positive_exponent}, expected {quasi}")
            op.det_bits = bits(eq.det_value)
            return problems

        op = Op(name, "check_equivalence", chain.family, chain.n,
                lambda: zm.markov.check_equivalence(a), check)
        return op

    def _ibp_op(self, name, chain, a, x) -> Op:
        degree2 = self.zm.degree2

        def check(result):
            lhs, rhs = result
            rows = chain.fractions()
            coords = list(x.coords)
            own = sum(coords) - sum(gate.psi2_column_action(_transpose(rows), coords))
            return [] if lhs == rhs == own else ["integration by parts sides disagree"]

        return Op(name, "integration_by_parts", chain.family, chain.n,
                  lambda: degree2.integration_by_parts(x, a.matrix), check)

    def _general_op(self, name, chain, a, x) -> Op:
        degree2 = self.zm.degree2

        def check(v):
            rows = chain.fractions()
            coords = list(x.coords)
            first = sum(coords) - sum(gate.psi2_column_action(_transpose(rows), coords))
            second = sum(coords) - sum(gate.psi2_column_action(rows, coords))
            ok = (v.first_lhs == v.first_rhs == first) and (v.second_lhs == v.second_rhs == second)
            return [] if ok else ["general mass identities disagree"]

        return Op(name, "general_bp_identities", chain.family, chain.n,
                  lambda: degree2.general_bp_identities(x, a.matrix), check)

    def _power_op(self, name, chain, a, k) -> Op:
        zeon = self.zm.zeon

        def check(m):
            return gate.check_zeon_power(chain.fractions(), k, m.to_lists())

        return Op(name, "zeon_power", chain.family, chain.n,
                  lambda: zeon.zeon_power(a.matrix, k), check)


def _transpose(rows) -> list:
    return [list(col) for col in zip(*rows)]
