"""Command line interface: run scripts, an interactive session, and a
corpus runner that checks scripts against expected-output files."""

import argparse
import re
import sys
from pathlib import Path

from .errors import LexError, ParseError
from .interpreter import Interpreter, evaluate_program, run_source
from .nodes import ExprStmt, Program
from .objects import render_value
from .parser import parse_expression, parse_source
from .prelude import default_prelude_source
from .equality import EqualityMode

_MODE_PRAGMA = re.compile(r"//\s*mode:\s*(.*?)\s*$")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--equality-mode", dest="mode", type=EqualityMode,
                     default=EqualityMode.OPAQUE,
                     metavar="{%s}" % ",".join(m.value for m in EqualityMode),
                     help="how == and === treat proxies (default: opaque; "
                          "'operators' is accepted as transparent)")
    sub.add_argument("--prelude", type=Path, default=None,
                     help="load this file instead of the bundled prelude")
    sub.add_argument("--no-prelude", action="store_true",
                     help="run without any prelude")


class _Unreadable(Exception):
    """A file that cannot be read as UTF-8 text; str() is the diagnostic."""


def _read_text(path: Path) -> str:
    """Every file the CLI reads goes through here."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise _Unreadable(f"cannot read {path}: {err}") from None


def _prelude_source(options) -> str:
    if options.no_prelude:
        return ""
    if options.prelude is not None:
        return _read_text(options.prelude)
    return default_prelude_source()


def _print_runtime_error(result) -> None:
    line = f" at line {result.error_line}" if result.error_line else ""
    print(f"{result.error_kind}{line}: {result.error_message}",
          file=sys.stderr)


def _mode_pragma(source: str):
    """The mode a first-line '// mode: NAME' pragma names, or None if the
    first line is no pragma; a NAME that names no mode raises ValueError."""
    match = _MODE_PRAGMA.match(source.split("\n", 1)[0].strip())
    return EqualityMode(match.group(1)) if match else None


# --- run ---

def _cmd_run(options) -> int:
    try:
        source = _read_text(options.script)
        prelude = _prelude_source(options)
        result = run_source(source, mode=options.mode, prelude_source=prelude)
    except (_Unreadable, LexError, ParseError) as err:
        print(err, file=sys.stderr)
        return 2
    sys.stdout.write(result.output)
    if not result.ok:
        _print_runtime_error(result)
        return 1
    return 0


# --- corpus ---

def _normalize(text: str) -> str:
    return text.replace("\r\n", "\n")


def _corpus_problems(script: Path, prelude: str, mode: EqualityMode) \
        -> list:
    """What is wrong with one corpus script's run; empty if it passed."""
    try:
        source = _read_text(script)
        expected = _normalize(_read_text(script.with_suffix(".expected")))
        error_file = script.with_suffix(".expected-error")
        expected_error = _read_text(error_file).strip() \
            if error_file.exists() else None
    except _Unreadable as err:
        return [str(err)]
    try:
        mode = _mode_pragma(source) or mode
    except ValueError as err:
        return [f"bad mode pragma: {err}"]

    problems = []
    try:
        result = run_source(source, mode=mode, prelude_source=prelude)
        output = _normalize(result.output)
        got_error = result.error_kind if not result.ok else None
        error_message = result.error_message
    except (LexError, ParseError) as err:
        output = ""
        got_error = err.kind
        error_message = err.message

    if output != expected:
        problems.append(f"expected output {expected!r}, got {output!r}")
    if expected_error is None:
        if got_error is not None:
            problems.append(f"unexpected {got_error}: {error_message}")
    elif got_error != expected_error:
        problems.append(
            f"expected an error of kind {expected_error}, "
            f"got {got_error or 'no error'}")
    return problems


def _cmd_corpus(options) -> int:
    root = options.corpus_dir
    if not root.is_dir():
        print(f"not a directory: {root}", file=sys.stderr)
        return 2
    try:
        prelude = _prelude_source(options)
    except _Unreadable as err:
        print(err, file=sys.stderr)
        return 2

    entries = sorted(p for p in root.rglob("*.plx")
                     if p.with_suffix(".expected").exists())
    passed = failed = 0
    for script in entries:
        rel = script.relative_to(root).as_posix()
        problems = _corpus_problems(script, prelude, options.mode)
        if problems:
            failed += 1
            print(f"FAIL {rel}")
            for problem in problems:
                print(f"  {rel}: {problem}", file=sys.stderr)
        else:
            passed += 1
            print(f"PASS {rel}")
    print(f"{passed} passed, {failed} failed")
    return 0 if failed == 0 else 1


# --- repl ---

def _cmd_repl(options) -> int:
    interp = Interpreter(mode=options.mode, sink=sys.stdout)
    try:
        prelude = parse_source(_prelude_source(options))
    except (_Unreadable, LexError, ParseError) as err:
        print(err, file=sys.stderr)
        return 2
    result = evaluate_program(prelude, interp)
    if not result.ok:
        _print_runtime_error(result)
        return 1

    print(f"proxylang (equality mode: {interp.mode.value}; "
          "end with ctrl-d)")
    buffer = ""
    while True:
        prompt = "plx> " if not buffer else "  .. "
        try:
            line = input(prompt)
        except EOFError:
            print()
            return 0
        except KeyboardInterrupt:
            print()
            buffer = ""
            continue
        buffer += line + "\n"
        if not buffer.strip():
            buffer = ""
            continue
        force = line.strip() == ""
        try:
            statements = parse_source(buffer).statements
        except ParseError as err:
            if err.at_eof:
                # the statement may be incomplete, or it may be a bare
                # expression missing only its ';'
                try:
                    expr = parse_expression(buffer)
                    statements = [ExprStmt(expr, expr.line)]
                except (LexError, ParseError):
                    if force:
                        print(err, file=sys.stderr)
                        buffer = ""
                    continue
            else:
                print(err, file=sys.stderr)
                buffer = ""
                continue
        except LexError as err:
            print(err, file=sys.stderr)
            buffer = ""
            continue
        buffer = ""
        # each statement is a program of its own, so that an expression
        # statement's value is echoed before the next one runs
        for stmt in statements:
            result = evaluate_program(Program([stmt]), interp)
            if not result.ok:
                _print_runtime_error(result)
                break
            if result.value is not None:
                print(render_value(result.value))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="proxylang",
        description="Interpreter for a small object language with "
                    "configurable proxy equality semantics.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a .plx script")
    run_p.add_argument("script", type=Path)
    _add_common_flags(run_p)

    repl_p = sub.add_parser("repl", help="interactive session")
    _add_common_flags(repl_p)

    corpus_p = sub.add_parser(
        "corpus",
        help="run every *.plx under a directory against its *.expected "
             "file; a first-line '// mode: NAME' pragma overrides the "
             "equality mode per script")
    corpus_p.add_argument("corpus_dir", type=Path)
    _add_common_flags(corpus_p)

    options = parser.parse_args(argv)
    if options.command == "run":
        return _cmd_run(options)
    if options.command == "corpus":
        return _cmd_corpus(options)
    return _cmd_repl(options)


if __name__ == "__main__":
    sys.exit(main())
