import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from zeonmarkov import cli, markov
from zeonmarkov.cli import main
from zeonmarkov.documents import (
    AnalysisReportDocument,
    MatrixFormatError,
    load_matrix,
    matrix_to_rows,
    matrix_digest,
    parse_matrix_text,
    report_from_dict,
    report_to_dict,
)
from zeonmarkov.linalg import Matrix, scalar_str
from zeonmarkov.markov import zeon_criterion
from conftest import fixture_path

F = Fraction


# -- parsing -----------------------------------------------------------------


def test_parse_json_fixture(examples):
    with open(fixture_path("example1.json")) as handle:
        doc = parse_matrix_text(handle.read())
    assert doc.matrix == examples[1]
    assert doc.matrix[0, 2] == F(1, 2)
    assert doc.label.startswith("example1")


def test_parse_csv_identity():
    doc = parse_matrix_text("1,0\n0,1")
    assert doc.matrix == Matrix.identity(2)
    assert doc.label is None


def test_parse_mixed_literals():
    doc = parse_matrix_text("1/3,2/3\n0.5,0.5")
    assert doc.matrix == Matrix.from_rows([[F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)]])


def test_parse_json_decimal_numbers_are_exact():
    doc = parse_matrix_text('{"rows": [[0.25, "3/4"], [0.1, 0.9]]}')
    assert doc.matrix == Matrix.from_rows([[F(1, 4), F(3, 4)], [F(1, 10), F(9, 10)]])


def test_parse_reports_bad_literal_position():
    with pytest.raises(MatrixFormatError, match="row 2, column 1"):
        parse_matrix_text("1,0\nx,1")


def test_parse_rejects_ragged_rows():
    with pytest.raises(MatrixFormatError, match="ragged"):
        parse_matrix_text("1,0\n1")
    with pytest.raises(MatrixFormatError, match="ragged"):
        parse_matrix_text('{"rows": [[1, 0], [1]]}')


def test_parse_rejects_empty():
    with pytest.raises(MatrixFormatError, match="empty"):
        parse_matrix_text("   \n  ")


@pytest.mark.parametrize("text, row", [('{"rows": [1, 2]}', 1), ('{"rows": [null]}', 1),
                                       ('{"rows": [["1"], 2]}', 2)])
def test_a_json_row_that_is_not_a_list_is_a_parse_error(tmp_path, monkeypatch, capsys, text, row):
    with pytest.raises(MatrixFormatError, match=f"^row {row} is not a list$"):
        parse_matrix_text(text)
    path = tmp_path / "rows.json"
    path.write_text(text)
    message = f"zeonmarkov: error: cannot parse matrix: row {row} is not a list\n"
    assert run(capsys, "analyze", str(path)) == (3, "", message)
    _stdin(monkeypatch, text.encode())
    assert run(capsys, "analyze", "-") == (3, "", message)


def test_digest_is_format_independent(tmp_path, capsys):
    a = parse_matrix_text('{"rows": [["1/2", "1/2"], ["0.5", "0.5"]]}').matrix
    b = parse_matrix_text("0.5,1/2\n1/2,0.5").matrix
    assert matrix_digest(a) == matrix_digest(b)
    # one chain written four ways, as canonical, decimal and unreduced JSON
    # and as CSV: analyze gives the same digest and the same report
    spellings = {
        "canonical.json": ('{"rows": [["1/2", "1/4", "1/4"], ["0", "1/5", "4/5"], '
                           '["0", "2/5", "3/5"]]}'),
        "decimal.json": ('{"rows": [["0.5", "0.25", "0.25"], ["0", "0.2", "0.8"], '
                         '["0", "0.4", "0.6"]]}'),
        "unreduced.json": ('{"rows": [["2/4", "2/8", "3/12"], ["0/3", "2/10", "8/10"], '
                           '["0/9", "4/10", "6/10"]]}'),
        "chain.csv": "1/2,1/4,1/4\n0,1/5,4/5\n0,2/5,3/5\n",
    }
    analyses = []
    for name, text in spellings.items():
        path = tmp_path / name
        path.write_text(text)
        code, out, _ = run(capsys, "analyze", str(path))
        payload = json.loads(out)
        analyses.append((code, payload["input"]["digest"], payload["report"]))
    assert analyses == [analyses[0]] * 4 and analyses[0][0] == 2


@pytest.mark.parametrize("number, code, err", [
    ("0.5", 2, ""),
    ("1", 3, "zeonmarkov: error: matrix is not stochastic: row 1 sums to 3/2, expected 1\n"),
    ("NaN", 3, "zeonmarkov: error: cannot parse matrix: row 1, column 1: refusing float nan: "
               "use an int, Fraction or exact literal string\n"),
])
def test_json_numbers_parse_to_exact_entries(tmp_path, capsys, number, code, err):
    text = '{"rows": [[%s, "1/2"], ["0", "1"]]}' % number
    if number == "NaN":
        with pytest.raises(MatrixFormatError, match="^row 1, column 1: refusing float nan"):
            parse_matrix_text(text)
    else:
        value = {"0.5": F(1, 2), "1": 1}[number]
        assert parse_matrix_text(text).matrix == Matrix.from_rows([[value, F(1, 2)], [0, 1]])
    path = tmp_path / "m.json"
    path.write_text(text)
    got, _, got_err = run(capsys, "analyze", str(path))
    assert (got, got_err) == (code, err)


@pytest.mark.parametrize("text, where", [
    ('{"rows": [[false, true], [true, false]]}', "row 1, column 1: refusing boolean false"),
    ('{"rows": [[true, "1/2"], ["0", "1"]]}', "row 1, column 1: refusing boolean true"),
    ('{"rows": [["0", "1"], [1, false]]}', "row 2, column 2: refusing boolean false"),
], ids=["2-cycle", "true", "false"])
def test_json_booleans_are_not_matrix_entries(tmp_path, capsys, text, where):
    # Python reads a JSON boolean as an int, but it is not a number: the
    # 2-cycle spelled in booleans is a parse error (exit 3), as it is in CSV
    message = f"{where}: use a number or an exact literal string"
    with pytest.raises(MatrixFormatError, match=f"^{message}$"):
        parse_matrix_text(text)
    path = tmp_path / "m.json"
    path.write_text(text)
    assert run(capsys, "analyze", str(path)) == (
        3, "", f"zeonmarkov: error: cannot parse matrix: {message}\n")
    path.write_text("false,true\ntrue,false")
    assert run(capsys, "analyze", str(path))[0] == 3


def _ten_state_rows(targets):
    """A stochastic row per state, with weights 1, 2, ... (shifted by the
    state) on the states it steps to."""
    rows = []
    for i, steps in enumerate(targets):
        weights = [0] * len(targets)
        for k, t in enumerate(steps):
            weights[t] = k + 1 + i % 3
        rows.append([F(w, sum(weights)) for w in weights])
    return rows


TEN_STATE = {
    "periodic": _ten_state_rows([((i + 1) % 10, (i + 3) % 10) for i in range(10)]),
    "transient": _ten_state_rows([(0, 1, 3), (2, 7), (0, 9), (4, 5), (5, 3), (6,), (3, 4),
                                  (8,), (9, 7), (7,)]),
}


def _matrix_text(rows, fmt):
    literals = [[scalar_str(e) for e in row] for row in rows]
    if fmt == "json":
        return json.dumps({"rows": literals})
    return "\n".join(",".join(row) for row in literals)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("kind", sorted(TEN_STATE))
def test_an_analysis_builds_no_entry_of_a_parsed_matrix(fmt, kind):
    m = parse_matrix_text(_matrix_text(TEN_STATE[kind], fmt)).matrix
    markov._analysis(markov.validate_stochastic(m))
    matrix_digest(m)
    with pytest.raises(AttributeError):
        object.__getattribute__(m, "data")
    assert m == Matrix.from_rows(TEN_STATE[kind])


@pytest.mark.parametrize("kind", sorted(TEN_STATE))
def test_a_parsed_matrix_has_the_structure_of_its_entries(kind):
    parsed = markov.validate_stochastic(parse_matrix_text(_matrix_text(TEN_STATE[kind], "csv")).matrix)
    built = markov.validate_stochastic(Matrix.from_rows(TEN_STATE[kind]))
    assert markov.chain_structure(parsed) == markov.chain_structure(built)
    assert markov.is_quasi_positive(parsed) == markov.is_quasi_positive(built)


def test_the_digest_does_not_depend_on_how_the_matrix_is_held():
    # 10**4300 has more digits than the default int/str limit: scalar_str splits it
    rows = [[F(-3, 4), 0, F(-7, 10**4300)], [5, F(1, 10**4300), F(1, 3)]]
    from_entries = Matrix.from_rows(rows)
    parsed = parse_matrix_text('{"rows": [["-3/4", "0", "-7e-4300"], ["5", "1e-4300", "2/6"]]}').matrix
    numerators, scales = from_entries.integer_rows()
    tripled = Matrix._canonical(2, 3, integer=([[3 * e for e in row] for row in numerators],
                                               [3 * d for d in scales]))
    canonical = ";".join(",".join(scalar_str(e) for e in row) for row in rows)
    want = "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()
    assert [matrix_digest(m) for m in (from_entries, parsed, tripled)] == [want] * 3


# -- analyze -----------------------------------------------------------------


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_fixture_one(capsys):
    code, out, _ = run(capsys, "analyze", fixture_path("example1.json"))
    assert code == 2
    payload = json.loads(out)
    assert payload["report"]["det_value"] == "7/16"
    assert payload["report"]["criterion_verdict"] == "criterion-inapplicable"
    assert payload["report"]["limit_matrix"] == [["0", "0", "1"]] * 3


def test_analyze_fixture_four(capsys):
    code, out, _ = run(capsys, "analyze", fixture_path("example4.json"))
    assert code == 1
    payload = json.loads(out)
    report = payload["report"]
    assert report["criterion_verdict"] == "not-ergodic"
    assert report["det_value"] == "0"
    assert report["witness"] is not None
    assert report["is_irreducible"] and not report["is_aperiodic"]


def test_analyze_uniform_is_ergodic(tmp_path, capsys):
    path = tmp_path / "uniform.csv"
    path.write_text("1/2,1/2\n1/2,1/2\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["invariant_distribution"] == ["1/2", "1/2"]


def test_analyze_one_state_chain_is_ergodic(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text('{"rows": [["1"]]}')
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    report = json.loads(out)["report"]
    assert report["det_value"] == "1"
    assert report["criterion_verdict"] == "ergodic"
    code, out, _ = run(capsys, "analyze", str(path), "--pretty")
    assert code == 0 and "ergodic" in out


def test_analyze_rejects_non_stochastic(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1/2,1/3\n0,1\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 3
    assert "row 1 sums to 5/6" in err


@pytest.mark.parametrize("literal", ["1e5000000", "1e-5000000"])
@pytest.mark.parametrize("template", ['{{"rows": [["{0}", "0"], ["0", "1"]]}}',
                                      '{{"rows": [[{0}, 0], [0, 1]]}}',
                                      "{0},0\n0,1\n"])
def test_analyze_rejects_oversized_exponents(tmp_path, capsys, literal, template):
    path = tmp_path / "big.txt"
    path.write_text(template.format(literal))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 3 and out == ""
    assert "exponent" in err


def test_analyze_names_the_digit_limit_of_a_long_literal(tmp_path, capsys):
    # one short stderr line that names the limit, not the 4303-character literal
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"rows": [["7" * 4301 + "/2"]]}))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and len(err) < 200 and "4300" in err


def test_analyze_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"rows": [["1"]]}')
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 3 and out == ""
    assert err.startswith("zeonmarkov: error: cannot parse matrix: not UTF-8 text: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, text, message", [
    (["analyze"], '{"label": "no rows"}', 'cannot parse matrix: JSON matrix needs a "rows" key'),
    (["analyze"], '{"rows": []}', 'cannot parse matrix: "rows" must be a non-empty list of rows'),
    (["analyze"], '{"label": 3, "rows": [["1"]]}', 'cannot parse matrix: "label" must be a string'),
    (["zeon-power", "-k", "1"], "1,0", "matrix is 1x2, not square"),
    (["verify", "--identity", "basic-relations"], "1,0", "matrix is 1x2, not square"),
    (["verify", "--identity", "basic-relations"], '{"rows": [["1"]]}',
     "need at least 2 states for degree-2 identities"),
    (["witness", "--delta", "3", fixture_path("example4.json")], None,
     "delta must be between 1 and 2 for period 4"),
    (["harness", "-n", "9"], None, "harness supports 2 <= n <= 8"),
], ids=["no-rows-key", "empty-rows", "label-not-a-string", "zeon-power-not-square",
        "verify-not-square", "verify-one-state", "witness-delta", "harness-n"])
def test_an_input_the_command_refuses_exits_3_with_one_line(tmp_path, capsys, argv, text,
                                                            message):
    if text is not None:
        path = tmp_path / "matrix.txt"
        path.write_text(text)
        argv = argv + [str(path)]
    assert run(capsys, *argv) == (3, "", f"zeonmarkov: error: {message}\n")


BOM = b"\xef\xbb\xbf"
CSV_CHAIN = b"1/2,1/2,0\n0,0,1\n1/4,3/4,0\n"


def _stdin(monkeypatch, data: bytes) -> None:
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


def _analysis(out: str) -> dict:
    payload = json.loads(out)
    del payload["elapsed_ms"]
    return payload


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("suffix", ["json", "csv"])
def test_analyze_reads_a_byte_order_mark_as_if_it_were_absent(
        tmp_path, monkeypatch, capsys, source, suffix):
    if suffix == "json":
        cases = []
        for name, code in [("example4.json", 1), ("example1.json", 2)]:
            with open(fixture_path(name), "rb") as handle:
                cases.append((handle.read(), code))
    else:
        cases = [(CSV_CHAIN, 0)]

    def analyze(raw: bytes, *flags):
        if source == "stdin":
            _stdin(monkeypatch, raw)
            return run(capsys, "analyze", "-", *flags)
        path = tmp_path / f"chain.{suffix}"
        path.write_bytes(raw)
        return run(capsys, "analyze", str(path), *flags)

    for data, code in cases:
        plain, marked = analyze(data), analyze(BOM + data)
        assert plain[0] == marked[0] == code
        assert plain[2] == marked[2] == ""
        assert _analysis(marked[1]) == _analysis(plain[1])
        assert analyze(BOM + data, "--pretty") == analyze(data, "--pretty")


def test_analyze_rejects_stdin_that_is_not_utf8(monkeypatch, capsys):
    _stdin(monkeypatch, b'\xff{"rows": [["1"]]}')
    code, out, err = run(capsys, "analyze", "-")
    assert code == 3 and out == ""
    assert err.startswith("zeonmarkov: error: cannot parse matrix: not UTF-8 text: ")


def _console(args, env=(), **kwargs):
    """Run the CLI in a fresh interpreter on the package this suite imports:
    the source tree's or an installed one."""
    parent = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, **dict(env),
               PYTHONPATH=os.pathsep.join(filter(None, [parent, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "zeonmarkov.cli", *args],
                          stderr=subprocess.PIPE, env=env, timeout=60, **kwargs)


def test_the_console_rejects_stdin_that_is_not_utf8_under_strict_decoding():
    done = _console(["analyze", "-"], {"PYTHONIOENCODING": "utf-8:strict"},
                    input=b"\xff", stdout=subprocess.PIPE)
    assert done.returncode == 3 and done.stdout == b""
    assert done.stderr.startswith(b"zeonmarkov: error: cannot parse matrix: not UTF-8 text: ")


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_standard_output_whose_reader_is_gone_exits_three(unbuffered):
    # buffered, the flush after the write fails; unbuffered, the write itself
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _console(["analyze", fixture_path("example1.json")],
                        {"PYTHONUNBUFFERED": unbuffered}, stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 3
    assert done.stderr == b"zeonmarkov: error: cannot write standard output: Broken pipe\n"


def test_a_closed_standard_output_exits_three():
    done = _console(["analyze", fixture_path("example1.json")], preexec_fn=lambda: os.close(1))
    assert done.returncode == 3
    assert done.stderr == b"zeonmarkov: error: standard output is closed\n"


@pytest.mark.parametrize("reader_gone", [False, True])
@pytest.mark.parametrize("args", [["analyze", "bad.csv"], ["analyze"]], ids=["error", "usage"])
def test_a_closed_or_broken_standard_error_keeps_the_usage_error_code(tmp_path, args, reader_gone):
    # closed, sys.stderr is None; with its reader gone, the write fails and the line stays buffered
    (tmp_path / "bad.csv").write_text("1,1\n0,1\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _console(args, {"PYTHONUNBUFFERED": ""}, cwd=tmp_path, stdout=subprocess.PIPE,
                        preexec_fn=lambda: os.dup2(write_end, 2) if reader_gone else os.close(2))
    finally:
        os.close(write_end)
    assert done.returncode == 3 and done.stdout == b""


def test_a_closed_standard_input_exits_three():
    done = _console(["analyze", "-"], preexec_fn=lambda: os.close(0))
    assert done.returncode == 3
    assert done.stderr == b"zeonmarkov: error: standard input is closed\n"


class _FailingStream(io.StringIO):
    def write(self, text):
        raise OSError(9, "Bad file descriptor")


def test_a_failing_standard_error_keeps_the_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stderr", _FailingStream())
    assert main(["analyze", fixture_path("nonexistent.json")]) == 3
    monkeypatch.setattr(sys, "stderr", _FailingStream())
    monkeypatch.setattr(markov, "_analysis", lambda chain: 1 / 0)
    assert main(["analyze", fixture_path("example4.json")]) == 4
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("template", ['{{"rows": {0}}}', '{{"note": {0}, "rows": [["1"]]}}'])
def test_analyze_rejects_json_nested_past_the_recursion_limit(tmp_path, capsys, template):
    path = tmp_path / "deep.json"
    path.write_text(template.format("[" * 100000 + "]" * 100000))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 3 and out == ""
    assert err == "zeonmarkov: error: cannot parse matrix: invalid JSON: nested too deeply\n"


def test_internal_error_exits_four(monkeypatch, capsys):
    def crash(chain):
        raise ValueError("boom\nsecond line")

    monkeypatch.setattr(markov, "_analysis", crash)
    code, out, err = run(capsys, "analyze", fixture_path("example4.json"))
    assert code == 4 and out == ""
    assert err.startswith("zeonmarkov: internal error: ValueError: boom second line")
    assert err.count("\n") == 1


def test_analyze_prints_numbers_beyond_the_digit_limit(tmp_path, capsys):
    # det(I - Psi2(A)) = (p + q - 2) / (p q), a denominator of 4400 digits
    p, q = 10**2200 + 7, 10**2199 + 3
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"rows": [[f"{p - 1}/{p}", f"1/{p}"], [f"1/{q}", f"{q - 1}/{q}"]]}))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    numerator, denominator = json.loads(out)["report"]["det_value"].split("/")
    assert int(numerator) == p + q - 2
    assert len(denominator) == 4400  # beyond the 4300 digits that str() and int() take
    assert int(denominator[:2200]) * 10**2200 + int(denominator[2200:]) == p * q
    with pytest.raises(ValueError, match="^an integer of 4400 digits exceeds the 4300-digit limit: "):
        report_from_dict(json.loads(out)["report"])  # over the literal budget on the way back in


def test_analyze_formats_an_oversized_row_sum(tmp_path, capsys):
    # a sum past the int/str digit limit is quoted by its first 20 digits and
    # its digit count
    path = tmp_path / "long.csv"
    path.write_text("1e4300,0\n0,1\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 3 and out == ""
    assert f"row 1 sums to 1{'0' * 19}... (4301 digits), expected 1" in err


@pytest.mark.parametrize("entries, message", [
    ("1/{d},2/{d},{d}/{d}", "row 1 sums to 10000000000000000000... (3002 digits), expected 1"),
    ("-1/{d},2/{d},{d}/{d}", "entry (1,1) is negative: -1/10000000000000000... (1502 digits)"),
    ("1/3,1/3,2/3", "row 1 sums to 4/3, expected 1"),
])
def test_a_long_value_in_a_not_stochastic_message_is_quoted_by_its_first_digits(
        tmp_path, capsys, entries, message):
    # a 3-state row with 1500-digit denominators: the error names the value
    # by its first 20 characters and its digit count, not by its 3000 digits;
    # a value of at most 40 characters is quoted whole
    d = 10**1500 + 7
    path = tmp_path / "long.csv"
    path.write_text(entries.format(d=d) + "\n0,1,0\n0,0,1\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (3, "")
    assert err == f"zeonmarkov: error: matrix is not stochastic: {message}\n"


def test_a_determinant_contradicting_the_classical_verdict_exits_four(monkeypatch, capsys):
    # invertible rows (the 10 x 10 identity, det D = 1): M w = w, so no witness is fixed
    monkeypatch.setattr(markov, "_criterion_product",
                        lambda numerators, scales, hat, rows: [hat[i][j] for i, j in rows])
    code, out, err = run(capsys, "analyze", fixture_path("example3.json"))
    assert code == 4 and out == ""
    assert err.startswith("zeonmarkov: internal error: RuntimeError: the classical oracles say "
                          "not-ergodic, but their witness is not fixed by Psi2(A); ergodic is not "
                          "refuted: the two routes disagree")


@pytest.mark.parametrize("index, det", [(1, 0), (2, 1)])
def test_a_block_determinant_that_breaks_the_regular_rule_exits_four(monkeypatch, capsys,
                                                                     index, det):
    # example1 has one aperiodic closed class and transient states, example2 two closed classes
    monkeypatch.setattr(markov, "_block_certificate", lambda numerators, scales, structure: (det, []))
    code, out, err = run(capsys, "analyze", fixture_path(f"example{index}.json"))
    assert code == 4 and out == ""
    assert err.startswith("zeonmarkov: internal error: RuntimeError: the determinant is "
                          + ("0" if det == 0 else "nonzero"))
    assert "the two routes disagree" in err


def test_analyze_pretty_reads_the_structure_once(monkeypatch, capsys):
    calls = []
    original = markov.chain_structure
    monkeypatch.setattr(markov, "chain_structure",
                        lambda chain: calls.append(chain) or original(chain))
    for i in range(1, 6):
        calls.clear()
        code, out, _ = run(capsys, "analyze", fixture_path(f"example{i}.json"), "--pretty")
        assert code in (1, 2) and "classes:" in out
        assert len(calls) == 1


def test_analyze_pretty(capsys):
    code, out, _ = run(capsys, "analyze", fixture_path("example3.json"), "--pretty")
    assert code == 1
    assert "not-ergodic" in out
    assert "{1,2}, {3,4,5}" in out


# closed classes of periods 2 and 4 under two transient states: g = 2 cyclic
# indicators span the kernel of the block of the two classes
PERIODS_2_AND_4 = [
    ["0", "1/2", "1/2", "0", "0", "0", "0", "0", "0", "0"],
    ["1", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["1", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "1", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "1/3", "2/3", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "1", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "1", "0", "0"],
    ["0", "0", "0", "1", "0", "0", "0", "0", "0", "0"],
    ["1/4", "0", "0", "1/4", "0", "0", "0", "0", "0", "1/2"],
    ["0", "0", "0", "0", "0", "1/5", "0", "0", "4/5", "0"],
]


def test_exit_code_depends_only_on_verdict(tmp_path, capsys):
    # with and without --pretty; det_value is nonzero on example1 alone, the
    # one chain of one closed class, aperiodic (the regular rule), and
    # check_equivalence agrees
    periods = tmp_path / "periods24.json"
    periods.write_text(json.dumps({"rows": PERIODS_2_AND_4}))
    cases = [(fixture_path(f"example{i}.json"), code) for i, code in enumerate((2, 2, 1, 1, 1), 1)]
    for path, want in cases + [(str(periods), 2)]:
        code, out, _ = run(capsys, "analyze", path)
        assert code == run(capsys, "analyze", path, "--pretty")[0] == want, path
        assert (json.loads(out)["report"]["det_value"] != "0") == (path == cases[0][0]), path
        chk = markov.check_equivalence(markov.validate_stochastic(load_matrix(path).matrix))
        assert chk.consistent and (chk.det_value != 0) == (path == cases[0][0]), path


def test_no_decimal_leaks_in_report(capsys):
    for i in (1, 2, 3, 4, 5):
        _, out, _ = run(capsys, "analyze", fixture_path(f"example{i}.json"))
        payload = json.loads(out)

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
            else:
                assert not isinstance(node, float), f"float leaked: {node}"

        walk(payload["report"])


# -- zeon-power ---------------------------------------------------------------


def test_zeon_power_fixture_two(capsys):
    code, out, _ = run(capsys, "zeon-power", fixture_path("example2.json"), "-k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["labels"] == ["(1,2)", "(1,3)", "(1,4)", "(2,3)", "(2,4)", "(3,4)"]
    assert payload["rows"][0] == ["1/2", "0", "0", "0", "0", "0"]
    assert payload["rows"][1] == ["1/4", "0", "1/4", "0", "1/4", "0"]


def test_zeon_power_degree_one_returns_matrix(capsys):
    code, out, _ = run(capsys, "zeon-power", fixture_path("example1.json"), "-k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [["1/4", "1/4", "1/2"], ["1/4", "1/4", "1/2"], ["0", "0", "1"]]


def test_zeon_power_fixture_one(capsys):
    code, out, _ = run(capsys, "zeon-power", fixture_path("example1.json"), "-k", "2")
    payload = json.loads(out)
    assert payload["rows"] == [["1/8", "1/4", "1/4"], ["0", "1/4", "1/4"], ["0", "1/4", "1/4"]]


def test_zeon_power_out_of_range(capsys):
    code, _, err = run(capsys, "zeon-power", fixture_path("example1.json"), "-k", "9")
    assert code == 3 and "between 1 and 3" in err
    # six states: k = 3 is in range, k = 7 past it
    assert run(capsys, "zeon-power", fixture_path("example5.json"), "-k", "3")[0] == 0
    code, _, err = run(capsys, "zeon-power", fixture_path("example5.json"), "-k", "7")
    assert code == 3 and "between 1 and 6" in err


# -- verify --------------------------------------------------------------------


def test_verify_integration_by_parts(capsys):
    code, out, _ = run(capsys, "verify", fixture_path("example1.json"),
                       "--identity", "integration-by-parts", "--trials", "100", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] and payload["failures"] == []
    assert payload["trials"] == 100
    for identity in ("basic-relations", "trace-identities", "mass-left", "mass-right"):
        code, out, _ = run(capsys, "verify", fixture_path("example1.json"), "--identity", identity)
        assert code == 0 and json.loads(out)["passed"], identity


def test_verify_basic_relations_random_stochastic(tmp_path, capsys):
    import random
    from zeonmarkov.markov import random_stochastic
    from zeonmarkov.documents import matrix_to_rows
    a = random_stochastic(random.Random(5), 5)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": matrix_to_rows(a.matrix)}))
    for identity in ("basic-relations", "trace-identities"):
        code, out, _ = run(capsys, "verify", str(path), "--identity", identity,
                           "--trials", "25")
        assert code == 0 and json.loads(out)["passed"]


def test_verify_general_identities_on_non_stochastic(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,2,0\n0,-1,1/2\n3,0,0\n")
    for identity in ("mass-left", "mass-right"):
        code, out, _ = run(capsys, "verify", str(path), "--identity", identity,
                           "--trials", "30")
        assert code == 0 and json.loads(out)["passed"]
    # signed entries with 13-digit denominators: the mass identities hold, and
    # integration by parts refuses a matrix that is not stochastic
    signed = tmp_path / "signed.json"
    signed.write_text(json.dumps({"rows": [
        ["-7/1000000000039", "3/2000000000003", "1/1000000000000"],
        ["5/3000000000017", "-11/1000000000061", "2"],
        ["1/2", "-1/7000000000001", "-13/1000000000007"]]}))
    for identity, want in [("mass-left", 0), ("mass-right", 0), ("integration-by-parts", 3)]:
        assert run(capsys, "verify", str(signed), "--identity", identity)[0] == want, identity


@pytest.mark.parametrize("identity", ["mass-left", "mass-right"])
def test_verify_a_mass_identity_builds_one_compound_per_trial(tmp_path, capsys, monkeypatch,
                                                              identity):
    from zeonmarkov import degree2
    path = tmp_path / "m.csv"
    path.write_text("\n".join(",".join(str((3 * i + 5 * j) % 7 - 3) for j in range(8))
                              for i in range(8)))
    # the compound's integer rows, once per trial, and no compound Matrix
    builds, matrices = [], []
    original = degree2._psi2_rows
    monkeypatch.setattr(degree2, "_psi2_rows", lambda rows: builds.append(len(rows)) or original(rows))
    monkeypatch.setattr(degree2, "zeon_power", lambda m, k: matrices.append(k))
    code, out, _ = run(capsys, "verify", str(path), "--identity", identity, "--trials", "10")
    assert code == 0 and json.loads(out)["passed"]
    assert builds == [8] * 10 and matrices == []


def test_verify_reports_a_failing_trial_and_exits_one(monkeypatch, capsys):
    # an identity check that fails on trial 2 alone
    check, trials = cli.IDENTITY_CHECKS["mass-left"], []
    monkeypatch.setitem(cli.IDENTITY_CHECKS, "mass-left",
                        lambda m, x: trials.append(x) is None and len(trials) != 3 and check(m, x))
    code, out, _ = run(capsys, "verify", fixture_path("example1.json"), "--identity", "mass-left",
                       "--trials", "5")
    payload = json.loads(out)
    assert (code, payload["failures"], payload["passed"], len(trials)) == (1, [2], False, 5)


def test_verify_integration_by_parts_requires_stochastic(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n0,-1\n")
    code, _, err = run(capsys, "verify", str(path), "--identity", "integration-by-parts")
    assert code == 3 and "stochastic" in err


def test_verify_unknown_identity_lists_names(capsys):
    code, _, err = run(capsys, "verify", fixture_path("example1.json"),
                       "--identity", "nope")
    assert code == 3
    for name in ("basic-relations", "trace-identities", "integration-by-parts",
                 "mass-left", "mass-right"):
        assert name in err


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_rejects_trials_below_one(capsys, trials):
    code, out, err = run(capsys, "verify", fixture_path("example1.json"),
                         "--identity", "integration-by-parts", "--trials", trials)
    assert code == 3 and out == ""
    assert "--trials" in err


# -- witness -------------------------------------------------------------------


def test_witness_fixture_three(capsys):
    code, out, _ = run(capsys, "witness", fixture_path("example3.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "cross-class"
    assert payload["fixed_point_verified"] is True
    assert payload["matrix"][0] == ["0", "0", "1", "1", "1"]


def test_witness_fixture_four_delta_two(capsys):
    code, out, _ = run(capsys, "witness", fixture_path("example4.json"), "--delta", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "cyclic-distance" and payload["delta"] == 2
    assert payload["coords"] == ["0", "1", "1", "0", "0", "0", "1", "0", "0", "0"]
    assert payload["fixed_point_verified"] is True


def test_witness_checks_its_vector_without_the_compound(monkeypatch, capsys):
    # the witness is proven on the n x n sandwich; its output is the one the
    # compound route gives: M w = 0 exactly when Psi2(A) w = w
    from zeonmarkov import cli, degree2, zeon

    def compound_route(numerators, scales, hat, rows):
        a = Matrix.from_rows([[F(e, d) for e in row] for row, d in zip(numerators, scales)])
        x = degree2.unmat(Matrix.from_rows(hat))
        fixed = degree2.right_action(a, x)
        moved = dict(zip(x.pairs(), (y - v for v, y in zip(x.coords, fixed.coords))))
        return [moved[min(i, j) + 1, max(i, j) + 1] for i, j in rows]

    def refuse(*args, **kwargs):
        raise AssertionError("compound built")

    for k in (3, 4, 5):
        for delta in ("1", "2"):
            argv = ("witness", fixture_path(f"example{k}.json"), "--delta", delta)
            with monkeypatch.context() as patch:
                patch.setattr(markov, "_criterion_product", compound_route)
                expected = run(capsys, *argv)
            with monkeypatch.context() as patch:
                for module in (zeon, degree2, cli):
                    patch.setattr(module, "zeon_power", refuse)
                patch.setattr(zeon, "_psi2_rows", refuse)
                assert run(capsys, *argv) == expected, (k, delta)
            assert expected[0] == (0 if delta == "1" or k == 4 else 3), (k, delta)


def test_witness_rejects_ergodic_chain(tmp_path, capsys):
    path = tmp_path / "uniform.csv"
    path.write_text("1/2,1/2\n1/2,1/2\n")
    code, _, err = run(capsys, "witness", str(path))
    assert code == 3 and "ergodic" in err


def test_witness_rejects_transients(capsys):
    for k in (1, 2):
        code, _, err = run(capsys, "witness", fixture_path(f"example{k}.json"))
        assert code == 3 and "transient" in err, k


# -- harness -------------------------------------------------------------------


def test_harness_command(capsys):
    for n, seed in [("3", "11"), ("5", "1")]:
        code, out, _ = run(capsys, "harness", "-n", n, "--samples", "40", "--seed", seed)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_consistent"] is True and payload["counterexamples"] == []
        assert payload["counts"]["checked"] == 40


def test_harness_prints_a_counterexample_and_exits_one(monkeypatch, capsys):
    # a wrong determinant on the third sample, 0 for nonzero or 1 for 0: the
    # harness records that chain, and the command prints it and exits 1
    certificate, samples = markov._block_certificate, []

    def wrong_third(numerators, scales, structure, whole_kernel=True):
        det, kernel = certificate(numerators, scales, structure, whole_kernel)
        samples.append(([[F(e, d) for e in row] for row, d in zip(numerators, scales)], det))
        return (int(det == 0), kernel) if len(samples) == 3 else (det, kernel)

    monkeypatch.setattr(markov, "_block_certificate", wrong_third)
    code, out, _ = run(capsys, "harness", "-n", "4", "--samples", "5", "--seed", "2")
    payload = json.loads(out)
    assert (code, payload["all_consistent"], payload["counts"]["checked"]) == (1, False, 5)
    rows, det = samples[2]
    a = markov.validate_stochastic(Matrix.from_rows(rows))
    structure = markov.chain_structure(a)
    assert len(samples) == 5 and payload["counterexamples"] == [{
        "matrix": matrix_to_rows(a.matrix), "det_value": "1" if det == 0 else "0",
        "quasi_positive_exponent": markov.is_quasi_positive(a),
        "is_irreducible": structure.is_irreducible, "is_aperiodic": structure.is_aperiodic}]


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_harness_rejects_samples_below_one(capsys, samples):
    code, out, err = run(capsys, "harness", "-n", "3", "--samples", samples)
    assert code == 3 and out == ""
    assert "--samples" in err


# -- report round trip -----------------------------------------------------------


def test_report_round_trip(chains):
    for chain in chains.values():
        report = zeon_criterion(chain)
        again = report_from_dict(json.loads(json.dumps(report_to_dict(report))))
        assert again == report


def test_document_round_trip(chains):
    report = zeon_criterion(chains[2])
    doc = AnalysisReportDocument(
        report=report,
        input_digest=matrix_digest(chains[2].matrix),
        n=chains[2].n,
        label="fixture",
        elapsed_ms=5,
    )
    again = AnalysisReportDocument.from_json(doc.to_json())
    assert again == doc
    assert again.report.witness.coords == (0, 1, 2, 1, 2, 1)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze"])  # missing path
    assert excinfo.value.code == 3


def _call(capsys, argv):
    # exit code, stdout and stderr of one main() call, a usage error's
    # SystemExit included, with the analysis JSON's elapsed_ms dropped
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    out = captured.out
    if argv[0] == "analyze" and "--pretty" not in argv and out:
        payload = json.loads(out)
        payload.pop("elapsed_ms")
        out = payload
    return code, out, captured.err


def test_successive_calls_in_one_process_give_what_each_gives_alone(capsys, monkeypatch):
    # the parser is built once per process; each call of a sequence still
    # gives the stdout, stderr and exit code of the same call on a new parser
    one, three = fixture_path("example1.json"), fixture_path("example3.json")
    sequences = [
        [["analyze", "--pretty", one], ["analyze", one], ["analyze", "--pretty", one]],
        [["analyze"], ["analyze", three], ["verify", one, "--identity", "nonsense"]],
        [["verify", one, "--identity", "mass-left", "--trials", "3"], ["witness", three]],
        [["witness", three, "--delta", "0"], ["--version"], ["analyze", "--pretty", three]],
    ]
    for sequence in sequences:
        alone = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            alone.append(_call(capsys, argv))
        cli.build_parser.cache_clear()
        assert [_call(capsys, argv) for argv in sequence] == alone
    assert [code for code, *_ in alone] == [3, 0, 1]
    assert cli.build_parser() is cli.build_parser()
    # a patch of the analysis made after the parser is built is seen
    monkeypatch.setattr(markov, "_analysis", lambda chain: 1 / 0)
    code, out, err = _call(capsys, ["analyze", one])
    assert (code, out) == (4, "") and "ZeroDivisionError" in err
