"""Error types raised by the tokenizer, parser, and evaluator."""

from typing import Optional


class PlxError(Exception):
    """Base class for every error the language implementation reports."""

    kind = "Error"

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self):
        where = ""
        if self.line is not None:
            where = f" at line {self.line}"
            if self.column is not None:
                where += f", column {self.column}"
        return f"{self.kind}{where}: {self.message}"


class LexError(PlxError):
    kind = "LexError"


class ParseError(PlxError):
    kind = "ParseError"

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None, at_eof: bool = False):
        super().__init__(message, line, column)
        # True when the parser ran out of tokens; a REPL uses this to keep
        # reading instead of reporting.
        self.at_eof = at_eof


class PlxRuntimeError(PlxError):
    """Base class for errors produced while a program runs."""

    kind = "RuntimeError"


class LangTypeError(PlxRuntimeError):
    kind = "TypeError"


class LangReferenceError(PlxRuntimeError):
    kind = "ReferenceError"


class RevokedProxyError(PlxRuntimeError):
    kind = "RevokedProxyError"


class ContractViolation(PlxRuntimeError):
    kind = "ContractViolation"


class StackOverflow(PlxRuntimeError):
    kind = "StackOverflow"


# the deepest a language call stack goes: a call that would pass it raises
# StackOverflow. It is here, not in interpreter.py, so that proxies.py can
# read it without importing the interpreter
MAX_CALL_DEPTH = 1024


class ResourceError(PlxRuntimeError):
    kind = "ResourceError"
