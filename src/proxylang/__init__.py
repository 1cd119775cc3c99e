"""A small dynamic object language with proxies whose equality
behavior is configurable per interpreter."""

from .errors import (ContractViolation, LangReferenceError, LangTypeError,
                     LexError, ParseError, PlxError, PlxRuntimeError,
                     ResourceError, RevokedProxyError, StackOverflow)
from .equality import (EqualityMode, builtin_is_equal, builtin_is_identical,
                       loose_equals, opaque_loose_equals,
                       opaque_strict_equals, raw_identical, strict_equals)
from .interpreter import (Environment, ExecutionResult, Interpreter,
                          evaluate_program, run_source)
from .lexer import tokenize
from .nodes import Program, pretty_print
from .objects import NULL, UNDEFINED, Heap, HeapObject, render_value
from .parser import parse, parse_expression, parse_source
from .prelude import default_prelude_source
from .proxies import (ProxyObject, get_equality_object, is_transparent,
                      look_through, proxy_create, revoke, with_transparency)

__all__ = [
    "ContractViolation", "LangReferenceError", "LangTypeError", "LexError",
    "ParseError", "PlxError", "PlxRuntimeError", "ResourceError",
    "RevokedProxyError", "StackOverflow",
    "EqualityMode", "builtin_is_equal", "builtin_is_identical",
    "loose_equals", "opaque_loose_equals", "opaque_strict_equals",
    "raw_identical", "strict_equals",
    "Environment", "ExecutionResult", "Interpreter", "evaluate_program",
    "run_source",
    "tokenize",
    "Program", "pretty_print",
    "NULL", "UNDEFINED", "Heap", "HeapObject", "render_value",
    "parse", "parse_expression", "parse_source",
    "default_prelude_source",
    "ProxyObject", "get_equality_object", "is_transparent", "look_through",
    "proxy_create", "revoke", "with_transparency",
]

__version__ = "0.1.0"
