import subprocess
import sys

import pytest

import proxylang.interpreter as interpreter
from proxylang.cli import main

from conftest import CORPUS_DIR, run_in_child


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# --- run ---

def test_run_success(tmp_path, capsys):
    script = write(tmp_path, "hello.plx", 'print("hi");\n')
    code, out, err = invoke(capsys, "run", str(script))
    assert (code, out, err) == (0, "hi\n", "")


def test_run_runtime_error(tmp_path, capsys):
    script = write(tmp_path, "boom.plx", 'print("before");\nboom;\n')
    code, out, err = invoke(capsys, "run", str(script))
    assert code == 1
    assert out == "before\n"
    assert err == "ReferenceError at line 2: 'boom' is not defined\n"


def test_run_parse_error(tmp_path, capsys):
    script = write(tmp_path, "bad.plx", "var = 1;\n")
    code, out, err = invoke(capsys, "run", str(script))
    assert code == 2
    assert out == ""
    assert err.startswith("ParseError at line 1")


@pytest.mark.parametrize("text,diagnostic", [
    ("if (a) {\n" * 7000 + "}\n" * 7000,
     "ParseError at line 401, column 8: block nesting too deep"),
    ("function f() {\n" * 5000 + "}\n" * 5000,
     "ParseError at line 401, column 14: block nesting too deep"),
    ("x = a\n" + "? b : c\n" * 25000 + ";",
     "ParseError at line 802, column 3: expression nesting too deep"),
    ("print(1\n" + "+ 1\n" * 30000 + ");",
     "ParseError at line 402, column 1: expression nesting too deep"),
    ("x = a\n" + ".a\n" * 30000 + ";",
     "ParseError at line 402, column 1: expression nesting too deep"),
], ids=["7000 nested ifs", "5000 nested functions",
        "25000-deep conditional chain", "30000-term sum",
        "30000-long member read"])
def test_run_too_deep_is_a_parse_error(tmp_path, text, diagnostic):
    # in a child process, so that a leaked RecursionError fails this test
    # with a traceback on stderr instead of ending the test run
    script = write(tmp_path, "deep.plx", text)
    proc = subprocess.run(
        [sys.executable, "-m", "proxylang", "run", str(script)],
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr[-2000:]) \
        == (2, "", diagnostic + "\n")


def test_run_lex_error(tmp_path, capsys):
    script = write(tmp_path, "bad.plx", 'var s = "open;\n')
    code, out, err = invoke(capsys, "run", str(script))
    assert code == 2
    assert err.startswith("LexError at line 1")


def test_run_missing_file(tmp_path, capsys):
    code, out, err = invoke(capsys, "run", str(tmp_path / "absent.plx"))
    assert code == 2
    assert "absent.plx" in err


@pytest.mark.parametrize("bad", ["script", "prelude"])
def test_run_non_utf8_file(tmp_path, capsys, bad):
    files = {"script": write(tmp_path, "x.plx", "print(1);\n"),
             "prelude": write(tmp_path, "p.plx", "")}
    files[bad].write_bytes(b"\xff")
    code, out, err = invoke(capsys, "run", str(files["script"]),
                            "--prelude", str(files["prelude"]))
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot read {files[bad]}: ")
    assert "Traceback" not in err


def test_run_equality_mode_flag(tmp_path, capsys):
    script = write(
        tmp_path, "mode.plx",
        "var t = {};\nvar p = new Proxy(t, {});\nprint(p == t);\n")
    assert invoke(capsys, "run", str(script))[1] == "false\n"
    code, out, err = invoke(
        capsys, "run", str(script), "--equality-mode", "transparent")
    assert out == "true\n"


def test_run_rejects_unknown_mode(tmp_path, capsys):
    script = write(tmp_path, "x.plx", "print(1);\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(script), "--equality-mode", "fuzzy"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_run_uses_bundled_prelude_by_default(tmp_path, capsys):
    script = write(tmp_path, "lib.plx",
                   "var r = revocable({ x: 1 });\nprint(r.proxy.x);\n")
    code, out, err = invoke(capsys, "run", str(script))
    assert (code, out) == (0, "1\n")


def test_run_no_prelude(tmp_path, capsys):
    script = write(tmp_path, "lib.plx", "print(typeofValue(revocable));\n")
    code, out, err = invoke(capsys, "run", str(script), "--no-prelude")
    assert code == 1
    assert "'revocable' is not defined" in err


def test_run_custom_prelude(tmp_path, capsys):
    prelude = write(tmp_path, "mine.plx",
                    "function twice(x) { return x + x; }\n")
    script = write(tmp_path, "use.plx", "print(twice(21));\n")
    code, out, err = invoke(
        capsys, "run", str(script), "--prelude", str(prelude))
    assert (code, out) == (0, "42\n")
    # the custom prelude replaces, not extends, the bundled one
    script2 = write(tmp_path, "gone.plx", "print(typeofValue(membrane));\n")
    code, out, err = invoke(
        capsys, "run", str(script2), "--prelude", str(prelude))
    assert code == 1


def test_run_missing_prelude_file(tmp_path, capsys):
    script = write(tmp_path, "x.plx", "print(1);\n")
    code, out, err = invoke(
        capsys, "run", str(script), "--prelude", str(tmp_path / "nope.plx"))
    assert code == 2
    assert "prelude" in err


def test_run_prelude_runtime_error(tmp_path, capsys):
    prelude = write(tmp_path, "bad.plx", "boom;\n")
    script = write(tmp_path, "x.plx", "print(1);\n")
    code, out, err = invoke(
        capsys, "run", str(script), "--prelude", str(prelude))
    assert code == 1
    assert "boom" in err
    assert out == ""


def test_run_does_not_read_mode_pragma(tmp_path, capsys):
    # the pragma is a corpus-runner feature; run uses the flag only
    script = write(
        tmp_path, "pragma.plx",
        "// mode: transparent\n"
        "var t = {};\nprint(new Proxy(t, {}) == t);\n")
    assert invoke(capsys, "run", str(script))[1] == "false\n"


# --- corpus ---

def test_corpus_reports_pass_and_fail(tmp_path, capsys):
    write(tmp_path, "good.plx", 'print("a");\n')
    write(tmp_path, "good.expected", "a\n")
    write(tmp_path, "bad.plx", 'print("x");\n')
    write(tmp_path, "bad.expected", "y\n")
    write(tmp_path, "ignored.plx", 'print("no expectation");\n')
    code, out, err = invoke(capsys, "corpus", str(tmp_path))
    assert code == 1
    assert "FAIL bad.plx" in out
    assert "PASS good.plx" in out
    assert "ignored" not in out
    assert out.strip().endswith("1 passed, 1 failed")
    assert "bad.plx" in err


def test_corpus_all_passing_exits_zero(tmp_path, capsys):
    write(tmp_path, "one.plx", "print(1);\n")
    write(tmp_path, "one.expected", "1\n")
    code, out, err = invoke(capsys, "corpus", str(tmp_path))
    assert (code, err) == (0, "")
    assert out == "PASS one.plx\n1 passed, 0 failed\n"


def test_corpus_sorted_and_recursive(tmp_path, capsys):
    sub = tmp_path / "deep"
    sub.mkdir()
    write(sub, "b.plx", "print(2);\n")
    write(sub, "b.expected", "2\n")
    write(tmp_path, "a.plx", "print(1);\n")
    write(tmp_path, "a.expected", "1\n")
    code, out, err = invoke(capsys, "corpus", str(tmp_path))
    lines = out.splitlines()
    assert lines[0] == "PASS a.plx"
    assert lines[1] == "PASS deep/b.plx"


def test_corpus_mode_pragma_overrides_flag(tmp_path, capsys):
    write(tmp_path, "t.plx",
          "// mode: transparent\n"
          "var t = {};\nprint(new Proxy(t, {}) == t);\n")
    write(tmp_path, "t.expected", "true\n")
    code, out, err = invoke(capsys, "corpus", str(tmp_path))
    assert code == 0


@pytest.mark.parametrize("pragma", ["transparnt", "trap;", ""])
def test_corpus_fails_a_pragma_that_names_no_mode(tmp_path, capsys, pragma):
    # a misspelt mode is a problem of that script, not a silent fall back
    # to the flag's mode, under which this script's transcript holds
    write(tmp_path, "a.plx",
          f"// mode: {pragma}\n"
          "var o = {};\n"
          "var p = new Proxy(o, {isTransparent: function(t, q) "
          "{ return true; }});\n"
          "print(p === o);\n")
    write(tmp_path, "a.expected", "false\n")
    write(tmp_path, "b.plx", "print(1);\n")
    write(tmp_path, "b.expected", "1\n")
    code, out, err = invoke(capsys, "corpus", str(tmp_path))
    assert code == 1
    assert out.splitlines() == ["FAIL a.plx", "PASS b.plx",
                                "1 passed, 1 failed"]
    assert f"a.plx: bad mode pragma: '{pragma}' is not a valid" in err


def test_corpus_expected_error_files(tmp_path, capsys):
    write(tmp_path, "dies.plx", 'print("pre");\nmissing;\n')
    write(tmp_path, "dies.expected", "pre\n")
    write(tmp_path, "dies.expected-error", "ReferenceError\n")
    code, out, err = invoke(capsys, "corpus", str(tmp_path))
    assert code == 0

    write(tmp_path, "wrongkind.plx", "missing;\n")
    write(tmp_path, "wrongkind.expected", "")
    write(tmp_path, "wrongkind.expected-error", "TypeError\n")
    code, out, err = invoke(capsys, "corpus", str(tmp_path))
    assert code == 1
    assert "expected an error of kind TypeError" in err


def test_corpus_unexpected_error_fails(tmp_path, capsys):
    write(tmp_path, "oops.plx", "missing;\n")
    write(tmp_path, "oops.expected", "")
    code, out, err = invoke(capsys, "corpus", str(tmp_path))
    assert code == 1
    assert "unexpected ReferenceError" in err


def test_corpus_static_error_kinds_comparable(tmp_path, capsys):
    write(tmp_path, "syntax.plx", "var = 1;\n")
    write(tmp_path, "syntax.expected", "")
    write(tmp_path, "syntax.expected-error", "ParseError\n")
    code, out, err = invoke(capsys, "corpus", str(tmp_path))
    assert code == 0


def test_corpus_normalizes_crlf(tmp_path, capsys):
    write(tmp_path, "nl.plx", 'print("a");\nprint("b");\n')
    (tmp_path / "nl.expected").write_bytes(b"a\r\nb\r\n")
    code, out, err = invoke(capsys, "corpus", str(tmp_path))
    assert code == 0


def test_corpus_non_utf8_script_fails_and_goes_on(tmp_path, capsys):
    (tmp_path / "a.plx").write_bytes(b"\xff")
    write(tmp_path, "a.expected", "")
    write(tmp_path, "b.plx", "print(1);\n")
    write(tmp_path, "b.expected", "1\n")
    code, out, err = invoke(capsys, "corpus", str(tmp_path))
    assert code == 1
    assert out == "FAIL a.plx\nPASS b.plx\n1 passed, 1 failed\n"
    assert f"a.plx: cannot read {tmp_path / 'a.plx'}: " in err


def test_corpus_missing_directory(tmp_path, capsys):
    code, out, err = invoke(capsys, "corpus", str(tmp_path / "nope"))
    assert code == 2
    assert "not a directory" in err


def test_bundled_corpus_passes(capsys):
    code, out, err = invoke(capsys, "corpus", str(CORPUS_DIR))
    assert code == 0, err
    assert ", 0 failed" in out


# --- repl ---

def drive_repl(monkeypatch, capsys, lines, *flags):
    feed = iter(lines)

    def fake_input(prompt=""):
        try:
            return next(feed)
        except StopIteration:
            raise EOFError

    monkeypatch.setattr("builtins.input", fake_input)
    code = main(["repl", *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repl_echoes_expressions(monkeypatch, capsys):
    code, out, err = drive_repl(monkeypatch, capsys, ["1 + 2", '"a" + "b"'])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("proxylang")
    assert lines[1] == "3"
    assert lines[2] == "ab"
    assert err == ""


def test_repl_statements_and_state(monkeypatch, capsys):
    code, out, err = drive_repl(
        monkeypatch, capsys, ["var x = 5;", "x", "x = x + 1;", "x"])
    lines = out.splitlines()
    assert lines[1] == "5"
    # assignment is a statement, not an echoed expression
    assert lines[2] == "6"


def test_repl_expression_statement_echo(monkeypatch, capsys):
    code, out, err = drive_repl(monkeypatch, capsys, ["print(7);"])
    lines = out.splitlines()
    assert lines[1] == "7"
    assert lines[2] == "undefined"


def test_repl_multiline_buffering(monkeypatch, capsys):
    code, out, err = drive_repl(
        monkeypatch, capsys,
        ["var o = {", "  a: 1", "};", "o.a"])
    assert out.splitlines()[1] == "1"
    assert err == ""


def test_repl_runtime_error_continues(monkeypatch, capsys):
    code, out, err = drive_repl(monkeypatch, capsys, ["boom", "1 + 1"])
    assert code == 0
    assert "'boom' is not defined" in err
    assert out.splitlines()[1] == "2"


def test_repl_blank_line_forces_incomplete_error(monkeypatch, capsys):
    code, out, err = drive_repl(monkeypatch, capsys, ["var x = ", "", "2"])
    assert "ParseError" in err
    assert out.splitlines()[1] == "2"


def test_repl_parse_error_resets_buffer(monkeypatch, capsys):
    code, out, err = drive_repl(monkeypatch, capsys, ["var = 3;", "4"])
    assert "ParseError" in err
    assert out.splitlines()[1] == "4"


def test_repl_stops_an_input_at_its_first_error(monkeypatch, capsys):
    code, out, err = drive_repl(
        monkeypatch, capsys, ["1 + 1; boom; print(3);", "4"])
    assert code == 0
    assert out.splitlines()[1:] == ["2", "4", ""]
    assert err == "ReferenceError at line 1: 'boom' is not defined\n"


def test_repl_non_utf8_prelude(monkeypatch, tmp_path, capsys):
    prelude = tmp_path / "p.plx"
    prelude.write_bytes(b"\xff")
    code, out, err = drive_repl(monkeypatch, capsys, ["1"],
                                "--prelude", str(prelude))
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot read {prelude}: ")


def test_repl_mode_flag(monkeypatch, capsys):
    # "operators" names transparent mode, and the banner says so
    for name in ("transparent", "operators"):
        code, out, err = drive_repl(
            monkeypatch, capsys,
            ["var t = {};", "new Proxy(t, {}) == t"],
            "--equality-mode", name)
        lines = out.splitlines()
        assert "equality mode: transparent;" in lines[0]
        assert lines[1] == "true"


REPL_HANDLER_CHAIN_PROBE = '''
import builtins
import sys
from proxylang.cli import main

feed = iter([
    "var h = {}; var i = 0;",
    "while (i < 100000) { h = new Proxy({}, h); i = i + 1; }",
    "new Proxy({x: 1}, h).x;",
    "i + 1",
])


def fake_input(prompt=""):
    try:
        return next(feed)
    except StopIteration:
        raise EOFError


builtins.input = fake_input
try:
    code = main(["repl", "--no-prelude"])
except RecursionError:
    print("a host RecursionError ended the session", file=sys.stderr)
    code = 3
sys.exit(code)
'''


def test_repl_survives_host_recursion():
    # reading a trap through 100,000 handlers, each a proxy whose own
    # handler is the next, outruns the host's recursion limit; the
    # session reports it and runs the next statement
    proc = run_in_child(REPL_HANDLER_CHAIN_PROBE)
    if "a host RecursionError ended the session" in proc.stderr:
        pytest.fail("a host RecursionError ended the session")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "StackOverflow: host recursion limit exceeded" in proc.stderr
    assert proc.stdout.splitlines()[1] == "100001"


def test_repl_survives_host_memory_exhaustion(monkeypatch, capsys):
    def exhausted(interp, this, args):
        raise MemoryError
    monkeypatch.setattr(interpreter, "_builtin_typeof", exhausted)
    code, out, err = drive_repl(monkeypatch, capsys, [
        "var x = 1;",
        "typeofValue(x);",
        "x + 1",
    ], "--no-prelude")
    assert code == 0
    assert "ResourceError: host memory exhausted" in err
    assert out.splitlines()[1] == "2"


def test_repl_has_prelude(monkeypatch, capsys):
    code, out, err = drive_repl(
        monkeypatch, capsys, ["typeofValue(membrane)"])
    assert out.splitlines()[1] == "object"


@pytest.mark.parametrize("text,code,diagnostic", [
    ("var x = ;\n", 2,
     "ParseError at line 1, column 9: expected an expression but found ';'"),
    ('var s = "open;\n', 2,
     "LexError at line 1, column 9: unterminated string literal"),
    ("var x = 1;\nboom;\n", 1,
     "ReferenceError at line 2: 'boom' is not defined"),
])
def test_repl_reports_prelude_errors_like_run(monkeypatch, tmp_path, capsys,
                                              text, code, diagnostic):
    prelude = write(tmp_path, "bad.plx", text)
    script = write(tmp_path, "x.plx", "print(1);\n")
    run = invoke(capsys, "run", str(script), "--prelude", str(prelude))
    repl = drive_repl(monkeypatch, capsys, ["1 + 1"],
                      "--prelude", str(prelude))
    assert run == (code, "", diagnostic + "\n")
    assert repl == run


# --- packaging entry points ---

def test_module_entry_point(tmp_path):
    script = write(tmp_path, "m.plx", 'print("via -m");\n')
    proc = subprocess.run(
        [sys.executable, "-m", "proxylang", "run", str(script)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "via -m\n"


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "proxylang", "frobnicate"],
        capture_output=True, text=True)
    assert proc.returncode == 2
