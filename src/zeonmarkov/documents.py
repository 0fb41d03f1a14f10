"""Input and output documents: matrix files and analysis reports.

Matrices travel as JSON ({"label": ..., "rows": [[...]]}) or CSV (one row
per line). Rational literals are exact strings ("7/16", "0.25", "3");
JSON integers work too, and JSON decimal numbers are parsed from their
decimal text, never through a binary float. Each literal is parsed straight
to an integer numerator and denominator (``linalg.parse_literal``), and a
parsed matrix is held as integer rows over the lcm of each row's
denominators: no ``Fraction`` is built for an entry unless one is read.
Reports serialize every rational as an exact string so that parsing a
serialized report reconstructs it bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import repeat
from typing import BinaryIO, Optional

from .degree2 import DegreeTwoVector
from .linalg import Matrix, as_scalar, parse_literal, ratio_str, scalar_str
from .markov import ErgodicityReport, Verdict

TOOL_NAME = "zeonmarkov"
TOOL_VERSION = "0.1.0"


class MatrixFormatError(ValueError):
    """Raised when a matrix document cannot be parsed exactly."""


@dataclass(frozen=True)
class MatrixDocument:
    matrix: Matrix
    label: Optional[str] = None


def parse_matrix_text(text: str) -> MatrixDocument:
    """Parse a matrix from JSON or CSV text (sniffed by first character)."""
    stripped = text.strip()
    if not stripped:
        raise MatrixFormatError("empty input")
    if stripped.startswith("{"):
        return _parse_json(stripped)
    return _parse_csv(stripped)


def _entry(value, i: int, j: int) -> tuple[int, int]:
    """An entry as (numerator, denominator) in lowest terms. A JSON boolean
    is refused, though Python's ``bool`` is an ``int``: it is not a number."""
    try:
        if isinstance(value, bool):
            raise TypeError(f"refusing boolean {str(value).lower()}: use a number or an exact "
                            "literal string")
        if isinstance(value, str):
            return parse_literal(value)
        value = as_scalar(value)
    except (ValueError, TypeError) as exc:
        raise MatrixFormatError(f"row {i}, column {j}: {exc}") from exc
    return value.numerator, value.denominator


def _parse_json(text: str) -> MatrixDocument:
    try:
        doc = json.loads(text, parse_float=as_scalar)
    except ValueError as exc:  # a JSONDecodeError, or a number as_scalar refuses
        raise MatrixFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MatrixFormatError("invalid JSON: nested too deeply") from exc
    if not isinstance(doc, dict) or "rows" not in doc:
        raise MatrixFormatError('JSON matrix needs a "rows" key')
    raw_rows = doc["rows"]
    if not isinstance(raw_rows, list) or not raw_rows:
        raise MatrixFormatError('"rows" must be a non-empty list of rows')
    matrix = _rows_matrix(raw_rows)
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise MatrixFormatError('"label" must be a string')
    return MatrixDocument(matrix, label)


def _parse_csv(text: str) -> MatrixDocument:
    lines = (ln for ln in text.splitlines() if ln.strip())
    return MatrixDocument(_rows_matrix([[c.strip() for c in ln.split(",")] for ln in lines]))


def _rows_matrix(raw_rows: list) -> Matrix:
    """The matrix of a non-empty list of rows, checked row by row: each row
    is a list, as wide as the first, of exact entries (``_entry``). It is
    held as integer rows, each over the lcm of its denominators."""
    width = len(raw_rows[0]) if isinstance(raw_rows[0], list) else None
    numerators, scales = [], []
    for i, raw in enumerate(raw_rows, start=1):
        if not isinstance(raw, list):
            raise MatrixFormatError(f"row {i} is not a list")
        if len(raw) != width:
            raise MatrixFormatError(f"ragged rows: row {i} has {len(raw)} entries, expected {width}")
        row = [_entry(v, i, j) for j, v in enumerate(raw, start=1)]
        d = math.lcm(*(den for _, den in row))
        numerators.append([n * (d // den) for n, den in row])
        scales.append(d)
    return Matrix._canonical(len(raw_rows), width, integer=(numerators, scales))


def read_matrix(handle: BinaryIO) -> MatrixDocument:
    """Parse a binary stream's bytes as UTF-8, a leading byte-order mark dropped."""
    try:
        text = handle.read().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"not UTF-8 text: {exc}") from exc
    return parse_matrix_text(text)


def load_matrix(path: str) -> MatrixDocument:
    with open(path, "rb") as handle:
        return read_matrix(handle)


def matrix_to_rows(m: Matrix) -> list:
    return [[scalar_str(e) for e in m.row(i)] for i in range(m.rows)]


def matrix_digest(m: Matrix) -> str:
    """Digest of the canonical entry serialization; format-independent. The
    entries are rendered from the integer rows, whatever their scales."""
    canonical = ";".join(",".join(map(ratio_str, row, repeat(d))) for row, d in zip(*m._integer))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def vector_to_dict(v: DegreeTwoVector) -> dict:
    return {"n": v.n, "coords": [scalar_str(c) for c in v.coords]}


def vector_from_dict(doc: dict) -> DegreeTwoVector:
    return DegreeTwoVector(doc["n"], [as_scalar(c) for c in doc["coords"]])


def report_to_dict(report: ErgodicityReport) -> dict:
    return {
        "is_irreducible": report.is_irreducible,
        "is_aperiodic": report.is_aperiodic,
        "quasi_positive_exponent": report.quasi_positive_exponent,
        "has_positive_invariant": report.has_positive_invariant,
        "det_value": scalar_str(report.det_value),
        "criterion_verdict": report.criterion_verdict.value,
        "witness": None if report.witness is None else vector_to_dict(report.witness),
        "invariant_distribution": None
        if report.invariant_distribution is None
        else [scalar_str(e) for e in report.invariant_distribution.data],
        "limit_matrix": None
        if report.limit_matrix is None
        else matrix_to_rows(report.limit_matrix),
    }


def report_from_dict(doc: dict) -> ErgodicityReport:
    distribution = doc["invariant_distribution"]
    limit = doc["limit_matrix"]
    return ErgodicityReport(
        is_irreducible=doc["is_irreducible"],
        is_aperiodic=doc["is_aperiodic"],
        quasi_positive_exponent=doc["quasi_positive_exponent"],
        has_positive_invariant=doc["has_positive_invariant"],
        det_value=as_scalar(doc["det_value"]),
        criterion_verdict=Verdict(doc["criterion_verdict"]),
        witness=None if doc["witness"] is None else vector_from_dict(doc["witness"]),
        invariant_distribution=None
        if distribution is None
        else Matrix.row_vector([as_scalar(e) for e in distribution]),
        limit_matrix=None if limit is None else Matrix.from_rows(limit),
    )


@dataclass(frozen=True)
class AnalysisReportDocument:
    """Serialized analysis: the report plus input digest, tool version
    and wall-clock timing. Round-trips losslessly."""

    report: ErgodicityReport
    input_digest: str
    n: int
    label: Optional[str]
    elapsed_ms: int
    tool_version: str = TOOL_VERSION

    def to_dict(self) -> dict:
        return {
            "tool": {"name": TOOL_NAME, "version": self.tool_version},
            "input": {"n": self.n, "label": self.label, "digest": self.input_digest},
            "elapsed_ms": self.elapsed_ms,
            "report": report_to_dict(self.report),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, doc: dict) -> "AnalysisReportDocument":
        return cls(
            report=report_from_dict(doc["report"]),
            input_digest=doc["input"]["digest"],
            n=doc["input"]["n"],
            label=doc["input"]["label"],
            elapsed_ms=doc["elapsed_ms"],
            tool_version=doc["tool"]["version"],
        )

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReportDocument":
        return cls.from_dict(json.loads(text))
