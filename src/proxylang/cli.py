"""Command line interface: run scripts, an interactive session, and a
corpus runner that checks scripts against expected-output files."""

import argparse
import re
import sys
from pathlib import Path

from .errors import LexError, ParseError, PlxError
from .interpreter import (HOST_ERRORS, Interpreter, evaluate_program,
                          host_error, run_source)
from .nodes import ExprStmt
from .objects import render_value
from .parser import parse_expression, parse_source
from .prelude import default_prelude_source
from .equality import EqualityMode

_MODE_PRAGMA = re.compile(r"^//\s*mode:\s*(\w+)\s*$")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--equality-mode", dest="mode",
                     choices=[m.value for m in EqualityMode],
                     default="opaque",
                     help="how == and === treat proxies (default: opaque)")
    sub.add_argument("--prelude", type=Path, default=None,
                     help="load this file instead of the bundled prelude")
    sub.add_argument("--no-prelude", action="store_true",
                     help="run without any prelude")


def _prelude_source(options) -> str:
    if options.no_prelude:
        return ""
    if options.prelude is not None:
        return options.prelude.read_text(encoding="utf-8")
    return default_prelude_source()


def _print_runtime_error(result) -> None:
    line = f" at line {result.error_line}" if result.error_line else ""
    print(f"{result.error_kind}{line}: {result.error_message}",
          file=sys.stderr)


def _mode_pragma(source: str):
    first_line = source.split("\n", 1)[0]
    match = _MODE_PRAGMA.match(first_line.strip())
    if not match:
        return None
    name = match.group(1)
    try:
        return EqualityMode(name)
    except ValueError:
        return None


# --- run ---

def _cmd_run(options) -> int:
    try:
        source = options.script.read_text(encoding="utf-8")
    except OSError as err:
        print(f"cannot read {options.script}: {err}", file=sys.stderr)
        return 2
    try:
        prelude = _prelude_source(options)
        result = run_source(source, mode=EqualityMode(options.mode),
                            prelude_source=prelude)
    except (LexError, ParseError) as err:
        print(err, file=sys.stderr)
        return 2
    except OSError as err:
        print(f"cannot read prelude: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(result.output)
    if not result.ok:
        _print_runtime_error(result)
        return 1
    return 0


# --- corpus ---

def _normalize(text: str) -> str:
    return text.replace("\r\n", "\n")


def _cmd_corpus(options) -> int:
    root = options.corpus_dir
    if not root.is_dir():
        print(f"not a directory: {root}", file=sys.stderr)
        return 2
    try:
        prelude = _prelude_source(options)
    except OSError as err:
        print(f"cannot read prelude: {err}", file=sys.stderr)
        return 2

    entries = sorted(p for p in root.rglob("*.plx")
                     if p.with_suffix(".expected").exists())
    passed = failed = 0
    for script in entries:
        rel = script.relative_to(root).as_posix()
        source = script.read_text(encoding="utf-8")
        expected = _normalize(
            script.with_suffix(".expected").read_text(encoding="utf-8"))
        error_file = script.with_suffix(".expected-error")
        expected_error = error_file.read_text(encoding="utf-8").strip() \
            if error_file.exists() else None

        mode = _mode_pragma(source) or EqualityMode(options.mode)
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
                problems.append(
                    f"unexpected {got_error}: {error_message}")
        elif got_error != expected_error:
            problems.append(
                f"expected an error of kind {expected_error}, "
                f"got {got_error or 'no error'}")

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
    interp = Interpreter(mode=EqualityMode(options.mode), sink=sys.stdout)
    try:
        prelude = parse_source(_prelude_source(options))
    except (LexError, ParseError) as err:
        print(err, file=sys.stderr)
        return 2
    except OSError as err:
        print(f"cannot read prelude: {err}", file=sys.stderr)
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
        program = None
        echo_expr = None
        try:
            program = parse_source(buffer)
        except ParseError as err:
            if err.at_eof:
                # the statement may be incomplete, or it may be a bare
                # expression missing only its ';'
                try:
                    echo_expr = parse_expression(buffer)
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
        try:
            if echo_expr is not None:
                print(render_value(interp.eval_toplevel(echo_expr)))
            else:
                for stmt in program.statements:
                    value = interp.exec_toplevel(stmt)
                    if isinstance(stmt, ExprStmt):
                        print(render_value(value))
        except PlxError as err:
            print(err, file=sys.stderr)
        except HOST_ERRORS as err:
            print(host_error(err), file=sys.stderr)


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
