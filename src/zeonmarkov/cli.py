"""Command-line front end.

Commands: analyze (full ergodicity report), zeon-power (print a
permanental compound), verify (exact identity checks on random vectors),
witness (nonnegative fixed vector of the degree-2 compound), harness
(randomized three-way equivalence sweep).

Exit codes: analyze maps its verdict to 0 (ergodic), 1 (not ergodic) or
2 (criterion inapplicable); other commands use 0/1 for pass/fail. Any
usage, parse or validation error exits 3, as do a closed standard input
and a closed or unwritable standard output, and an internal error, which
is a bug, exits 4 so that it never reads as a verdict, even when standard
error is closed. All rationals are printed as exact strings.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import random
import sys
import time
from fractions import Fraction

from . import degree2, markov
from .documents import (
    AnalysisReportDocument,
    MatrixDocument,
    MatrixFormatError,
    TOOL_VERSION,
    load_matrix,
    matrix_digest,
    matrix_to_rows,
    read_matrix,
    vector_to_dict,
)
from .degree2 import DegreeTwoVector, mat_embed
from .linalg import Matrix, scalar_str
from .zeon import subset_basis, zeon_power

USAGE_ERROR = 3
INTERNAL_ERROR = 4


class CliError(Exception):
    """Fatal command error; message goes to stderr, exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _complain(f"{self.format_usage()}{self.prog}: error: {message}")
        self.exit(USAGE_ERROR)


def _read_matrix(path: str) -> MatrixDocument:
    try:
        if path == "-":
            if sys.stdin is None:  # started with fd 0 closed
                raise CliError("standard input is closed")
            return read_matrix(sys.stdin.buffer)
        return load_matrix(path)
    except MatrixFormatError as exc:
        raise CliError(f"cannot parse matrix: {exc}") from exc
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _stochastic(doc: MatrixDocument) -> markov.StochasticMatrix:
    try:
        return markov.validate_stochastic(doc.matrix)
    except markov.NotStochasticError as exc:
        raise CliError(f"matrix is not stochastic: {exc}") from exc


def _emit(payload: dict) -> None:
    _write(json.dumps(payload, indent=2) + "\n")


def _write(text: str) -> None:
    """Write and flush standard output: a closed or failing one is a usage error, not a bug."""
    if sys.stdout is None:  # started with fd 1 closed
        raise CliError("standard output is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # fd 1 goes to devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise CliError(f"cannot write standard output: {exc.strerror}") from exc


# -- analyze ------------------------------------------------------------


def cmd_analyze(args) -> int:
    doc = _read_matrix(args.matrix)
    chain = _stochastic(doc)
    start = time.perf_counter_ns()
    report, structure = markov._analysis(chain)
    elapsed_ms = (time.perf_counter_ns() - start) // 1_000_000
    document = AnalysisReportDocument(
        report=report,
        input_digest=matrix_digest(doc.matrix),
        n=chain.n,
        label=doc.label,
        elapsed_ms=elapsed_ms,
    )
    if args.pretty:
        _print_pretty(document, structure)
    else:
        _emit(document.to_dict())
    return {
        markov.Verdict.ERGODIC: 0,
        markov.Verdict.NOT_ERGODIC: 1,
        markov.Verdict.INAPPLICABLE: 2,
    }[report.criterion_verdict]


def _print_pretty(document: AnalysisReportDocument, structure: markov.ChainStructure) -> None:
    report = document.report
    out = io.StringIO()
    label = f" ({document.label})" if document.label else ""
    out.write(f"chain on {document.n} states{label}\n")
    out.write(f"  verdict:             {report.criterion_verdict.value}\n")
    out.write(f"  det(I - Psi2(A)):    {scalar_str(report.det_value)}\n")
    out.write(f"  irreducible:         {report.is_irreducible}\n")
    out.write(f"  aperiodic:           {report.is_aperiodic}\n")
    exponent = report.quasi_positive_exponent
    out.write(f"  quasi-positive:      {'m = ' + str(exponent) if exponent else 'no'}\n")
    out.write(f"  positive invariant:  {report.has_positive_invariant}\n")
    classes = ", ".join(
        "{" + ",".join(map(str, c)) + "}" + ("" if flag else " (open)")
        for c, flag in zip(structure.classes, structure.closed)
    )
    out.write(f"  classes:             {classes}\n")
    if report.invariant_distribution is not None:
        pi = " ".join(scalar_str(e) for e in report.invariant_distribution.data)
        out.write(f"  invariant dist.:     [{pi}]\n")
    if report.limit_matrix is not None:
        out.write("  limit of A^m:\n")
        for row in matrix_to_rows(report.limit_matrix):
            out.write("      [" + " ".join(row) + "]\n")
    if report.witness is not None:
        nonzero = [
            f"x({pair[0]},{pair[1]})={scalar_str(v)}"
            for pair, v in zip(report.witness.pairs(), report.witness.coords)
            if v != 0
        ]
        out.write("  fixed-vector witness: " + " ".join(nonzero) + "\n")
    _write(out.getvalue())


# -- zeon-power ----------------------------------------------------------


def cmd_zeon_power(args) -> int:
    doc = _read_matrix(args.matrix)
    m = doc.matrix
    if not m.is_square:
        raise CliError(f"matrix is {m.rows}x{m.cols}, not square")
    if not 1 <= args.k <= m.rows:
        raise CliError(f"k must be between 1 and {m.rows}")
    compound = zeon_power(m, args.k)
    labels = ["(" + ",".join(map(str, s)) + ")" for s in subset_basis(m.rows, args.k)]
    _emit({
        "n": m.rows,
        "k": args.k,
        "label": doc.label,
        "labels": labels,
        "rows": matrix_to_rows(compound),
    })
    return 0


# -- verify --------------------------------------------------------------


def _random_vector(rng: random.Random, n: int) -> DegreeTwoVector:
    return DegreeTwoVector(
        n, [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in subset_basis(n, 2)]
    )


def _check_basic_relations(a: Matrix, x: DegreeTwoVector) -> bool:
    xhat = mat_embed(x)
    col_sandwich = a.T * xhat * a
    dplus = degree2.diag_correction_plus(a, x)
    ok = mat_embed(degree2.left_action(x, a)) == col_sandwich - dplus
    ok = ok and dplus.trace() == col_sandwich.trace()
    row_sandwich = a * xhat * a.T
    dminus = degree2.diag_correction_minus(a, x)
    ok = ok and mat_embed(degree2.right_action(a, x)) == row_sandwich - dminus
    return ok and dminus.trace() == row_sandwich.trace()


def _check_trace_identities(a: Matrix, x: DegreeTwoVector) -> bool:
    left = degree2.trace_identity_left(x, a)
    ok = left == degree2.sum_against_u(degree2.left_action(x, a))
    right = degree2.trace_identity_right(x, a)
    ok = ok and right == degree2.sum_against_u(degree2.right_action(a, x))
    if a.is_stochastic():
        ok = ok and degree2.trace_identity_left_stochastic(x, a) == left
    return ok


IDENTITY_CHECKS = {
    "basic-relations": _check_basic_relations,
    "trace-identities": _check_trace_identities,
    "integration-by-parts": lambda a, x: (v := degree2.integration_by_parts(x, a))[0] == v[1],
    "mass-left": lambda a, x: (v := degree2.general_bp_identities(x, a)).first_lhs == v.first_rhs,
    "mass-right": lambda a, x: (v := degree2.general_bp_identities(x, a)).second_lhs == v.second_rhs,
}


def cmd_verify(args) -> int:
    if args.identity not in IDENTITY_CHECKS:
        raise CliError(
            f"unknown identity {args.identity!r}; valid names: "
            + ", ".join(sorted(IDENTITY_CHECKS))
        )
    doc = _read_matrix(args.matrix)
    m = doc.matrix
    if not m.is_square:
        raise CliError(f"matrix is {m.rows}x{m.cols}, not square")
    if m.rows < 2:
        raise CliError("need at least 2 states for degree-2 identities")
    if args.trials < 1:
        raise CliError("--trials must be at least 1")
    check = IDENTITY_CHECKS[args.identity]
    rng = random.Random(args.seed)
    failures = []
    try:
        for trial in range(args.trials):
            x = _random_vector(rng, m.rows)
            if not check(m, x):
                failures.append(trial)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _emit({
        "identity": args.identity,
        "n": m.rows,
        "trials": args.trials,
        "seed": args.seed,
        "failures": failures,
        "passed": not failures,
    })
    return 0 if not failures else 1


# -- witness --------------------------------------------------------------


def cmd_witness(args) -> int:
    """The classical witness of a closed chain that is not ergodic, checked as
    the analysis checks it (``markov._fixed_witness``): exit 0 when Psi2(A)
    fixes it, else 1."""
    doc = _read_matrix(args.matrix)
    chain = _stochastic(doc)
    structure = markov.chain_structure(chain)
    if structure.transient_states:
        states = ",".join(map(str, structure.transient_states))
        raise CliError(f"transient states present ({{{states}}}); no witness construction applies")
    if structure.is_irreducible and structure.is_aperiodic:
        raise CliError("chain is ergodic; no nonnegative fixed vector exists")
    if not structure.is_irreducible and args.delta != 1:
        raise CliError("--delta applies only to irreducible periodic chains")
    try:
        witness, fixed = markov._fixed_witness(*chain.matrix.integer_rows(), structure, args.delta)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    kind = "cyclic-distance" if structure.is_irreducible else "cross-class"
    payload = vector_to_dict(witness)
    payload.update({
        "kind": kind,
        "delta": args.delta if kind == "cyclic-distance" else None,
        "pairs": ["(" + ",".join(map(str, p)) + ")" for p in witness.pairs()],
        "matrix": matrix_to_rows(mat_embed(witness)),
        "fixed_point_verified": fixed,
    })
    _emit(payload)
    return 0 if fixed else 1


# -- harness --------------------------------------------------------------


def cmd_harness(args) -> int:
    if args.samples < 1:
        raise CliError("--samples must be at least 1")
    try:
        report = markov.equivalence_harness(args.n, args.samples, args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _emit({
        "n": report.n,
        "samples": report.samples,
        "seed": report.seed,
        "counts": {
            "checked": report.checked,
            "ergodic": report.ergodic_count,
            "periodic": report.periodic_count,
            "reducible": report.reducible_count,
        },
        "counterexamples": [
            {
                "matrix": matrix_to_rows(c.matrix),
                "det_value": scalar_str(c.det_value),
                "quasi_positive_exponent": c.quasi_positive_exponent,
                "is_irreducible": c.is_irreducible,
                "is_aperiodic": c.is_aperiodic,
            }
            for c in report.counterexamples
        ],
        "all_consistent": report.all_consistent,
    })
    return 0 if report.all_consistent else 1


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: argparse keeps no
    state between ``parse_args`` calls, and each call makes a new namespace."""
    parser = _Parser(prog="zeonmarkov",
                     description="Exact zeon-compound analysis of stochastic matrices")
    parser.add_argument("--version", action="version", version=f"%(prog)s {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="ergodicity report for a stochastic matrix")
    p.add_argument("matrix", help="matrix file (JSON or CSV), or - for stdin")
    p.add_argument("--pretty", action="store_true", help="human-readable table")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("zeon-power", help="print a permanental compound")
    p.add_argument("matrix", help="matrix file, or - for stdin")
    p.add_argument("-k", type=int, required=True, help="compound degree (1..n)")
    p.set_defaults(func=cmd_zeon_power)

    p = sub.add_parser("verify", help="check an exact identity on random vectors")
    p.add_argument("matrix", help="matrix file, or - for stdin")
    p.add_argument("--identity", required=True,
                   help="one of: " + ", ".join(sorted(IDENTITY_CHECKS)))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("witness", help="nonnegative fixed vector of the degree-2 compound")
    p.add_argument("matrix", help="matrix file, or - for stdin")
    p.add_argument("--delta", type=int, default=1,
                   help="cyclic distance for periodic chains (default 1)")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("harness", help="randomized equivalence sweep")
    p.add_argument("-n", type=int, default=4, help="state count (2..8)")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_harness)

    return parser


def _complain(line: str) -> None:
    """Print an error line to standard error, unless it is closed or fails."""
    try:
        if sys.stderr is not None:  # None when fd 2 was closed at start: print would use stdout
            print(line, file=sys.stderr)
    except OSError:
        sys.stderr = None  # the unwritten line stays buffered: a flush at exit would fail again


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        _complain(f"zeonmarkov: error: {exc}")
        return USAGE_ERROR
    except Exception as exc:
        import traceback  # imported only on this path: it slows every start

        frame = traceback.extract_tb(exc.__traceback__)[-1]
        message = f"{type(exc).__name__}: {exc} ({frame.filename}:{frame.lineno})"
        _complain("zeonmarkov: internal error: " + " ".join(message.split()))
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
