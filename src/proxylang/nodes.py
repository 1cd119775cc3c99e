"""AST node definitions and a re-parseable pretty printer.

Every node carries a source line for runtime diagnostics. The line is each
node's last field, given positionally or as line= (Identifier("x", 3) or
Identifier("x", line=3)), and is excluded from equality so structural
comparison (round-trip tests, REPL echoes) ignores layout. Nodes are
slotted dataclasses and have no __dict__; Program also takes weak
references. Block.scoped is computed from the statements when the block
is built (a direct statement is one of DECLARATIONS; so its statements
are not edited afterwards) and, like the line, is left out of equality
and repr. So is the scoped flag of a FunctionExpr, a FunctionDecl's
included (a declaration is its name and the FunctionExpr its closures are
made from): whether a call can observe a scope of its own, so that
Interpreter.invoke binds its parameters in one. Without one, the body runs
in the closure scope, which is exact when no direct statement of the body
declares (a declaration in an if or while block goes to that block's own
scope) and no name in the body reads or assigns a parameter, as the
skipped scope would hold nothing a name reaches. The parser works the flag
out as it reads the body (see parser.py); a node built by its constructor
has True, and binds. The constant flag, also left out of equality and
repr, is True or False when the body is exactly one `return true;` or
`return false;`, and None otherwise. Below MAX_CALL_DEPTH a call of such a
body observes nothing and returns the flag, so an isTransparent vote
through it is static (proxies.py, rule 3): proxies.is_transparent answers
it with the flag and makes no language call, which is not charged as a
call. The flag is set when the node is built, by the parser when the body
ends and by __post_init__ for a node built by its constructor, so its
body is not edited afterwards, and a trap a host builds votes as a parsed
one does.

A Binary resolves its operator once, when it is built: on_numbers is
the operator on two numbers, from objects.NUMBER_OPERATORS, on_others
its entry for any other pair, from OTHER_OPERATORS (both None for && and
||), and literal is the right operand's value when that is a NumberLit,
else None. All three are left out of equality and repr. The parser sets
them inline; a Binary built by its constructor gets them in
__post_init__, so its op and right are not edited afterwards.

The parser builds the nodes it makes most without their dataclass
__init__, which would cost a frame each: object.__new__(cls), then one
store per slot, line, the scoped and constant flags and a Binary's
on_numbers, on_others and literal included, so each is equal to what its
constructor builds (tests/test_parser.py checks it). The constructors
stay the public way to build a node.
"""

from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable, Optional, Union

from .lexer import ESCAPES, KEYWORDS, WORD
from .objects import NUMBER_OPERATORS


# op -> (interp, left, right) -> value on a pair not two numbers, filled
# by interpreter.py as it loads: its equality calls, _plus and rejections
OTHER_OPERATORS: dict = {}


def _pos():
    return field(default=0, compare=False)


# --- expressions ---

@dataclass(slots=True)
class NumberLit:
    value: float
    line: int = _pos()


@dataclass(slots=True)
class StringLit:
    value: str
    line: int = _pos()


@dataclass(slots=True)
class BoolLit:
    value: bool
    line: int = _pos()


@dataclass(slots=True)
class NullLit:
    line: int = _pos()


@dataclass(slots=True)
class UndefinedLit:
    line: int = _pos()


@dataclass(slots=True)
class Identifier:
    name: str
    line: int = _pos()


@dataclass(slots=True)
class ObjectLit:
    # (key, value) pairs in source order; duplicate keys resolve at
    # evaluation time, last write wins.
    entries: list
    line: int = _pos()


@dataclass(slots=True)
class FunctionExpr:
    params: list
    body: "Block"
    line: int = _pos()
    # a call binds the parameters in a scope of its own (see above)
    scoped: bool = field(default=True, init=False, compare=False, repr=False)
    # the body is `return true;` or `return false;`: that bool; else None
    constant: Optional[bool] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        statements = self.body.statements
        self.constant = statements[0].value.value \
            if len(statements) == 1 and statements[0].__class__ is Return \
            and statements[0].value.__class__ is BoolLit else None


@dataclass(slots=True)
class PropertyGet:
    obj: "Expr"
    key: Union[str, "Expr"]  # str for `.name`, Expr for `[expr]`
    computed: bool
    line: int = _pos()


@dataclass(slots=True)
class Call:
    callee: "Expr"
    args: list
    line: int = _pos()


@dataclass(slots=True)
class MethodCall:
    obj: "Expr"
    key: Union[str, "Expr"]
    computed: bool
    args: list
    line: int = _pos()


@dataclass(slots=True)
class New:
    callee: "Expr"
    args: list
    line: int = _pos()


@dataclass(slots=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"
    line: int = _pos()
    # op on two numbers, from objects.NUMBER_OPERATORS; None for && and ||
    on_numbers: Optional[Callable] = field(init=False, compare=False,
                                           repr=False)
    on_others: Optional[Callable] = field(init=False, compare=False,
                                          repr=False)
    # the right operand's value if it is a NumberLit, else None
    literal: Optional[float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.on_numbers = NUMBER_OPERATORS[self.op]
        self.on_others = OTHER_OPERATORS[self.op]
        right = self.right
        self.literal = right.value if right.__class__ is NumberLit else None


@dataclass(slots=True)
class Unary:
    op: str
    operand: "Expr"
    line: int = _pos()


@dataclass(slots=True)
class Conditional:
    cond: "Expr"
    then: "Expr"
    otherwise: "Expr"
    line: int = _pos()


Expr = Union[NumberLit, StringLit, BoolLit, NullLit, UndefinedLit,
             Identifier, ObjectLit, FunctionExpr, PropertyGet, Call,
             MethodCall, New, Binary, Unary, Conditional]


# --- statements ---

@dataclass(slots=True)
class VarDecl:
    name: str
    init: Expr
    line: int = _pos()


@dataclass(slots=True)
class Assign:
    name: str
    value: Expr
    line: int = _pos()


@dataclass(slots=True)
class PropertySet:
    obj: Expr
    key: Union[str, Expr]
    computed: bool
    value: Expr
    line: int = _pos()


@dataclass(slots=True)
class ExprStmt:
    expr: Expr
    line: int = _pos()


@dataclass(slots=True)
class Block:
    statements: list
    line: int = _pos()
    # a direct statement declares, so the block needs its own scope
    scoped: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.scoped = not DECLARATIONS.isdisjoint(map(type, self.statements))


@dataclass(slots=True)
class If:
    cond: Expr
    then: Block
    otherwise: Optional[Block]
    line: int = _pos()


@dataclass(slots=True)
class While:
    cond: Expr
    body: Block
    line: int = _pos()


@dataclass(slots=True)
class Return:
    value: Optional[Expr]
    line: int = _pos()


@dataclass(slots=True)
class FunctionDecl:
    name: str
    # what a closure of the declaration is made from
    function: FunctionExpr
    line: int = _pos()


# the statements that declare into the current scope: a block holding one
# of them, not nested in another, is Block.scoped
DECLARATIONS = frozenset({VarDecl, FunctionDecl})

Stmt = Union[VarDecl, Assign, PropertySet, ExprStmt, If, While, Return,
             FunctionDecl]


@dataclass(slots=True, weakref_slot=True)
class Program:
    statements: list
    line: int = _pos()


# --- pretty printer ---

def number_literal(value: float) -> str:
    """Source form of a numeric literal; result re-lexes to the same float."""
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError("not representable as a numeric literal")
    if value == int(value):
        return str(int(value))
    # exact positional expansion, never exponent notation
    return format(Decimal(value), "f")


# a double-quoted string escapes what the lexer's ESCAPES stand for, but "'"
_ESCAPED = str.maketrans({value: "\\" + name
                          for name, value in ESCAPES.items() if name != "'"})


def string_literal(value: str) -> str:
    return '"' + value.translate(_ESCAPED) + '"'


def _is_plain_key(key: str) -> bool:
    return key not in KEYWORDS and WORD.fullmatch(key) is not None


def _expr(e) -> str:
    if isinstance(e, NumberLit):
        return number_literal(e.value)
    if isinstance(e, StringLit):
        return string_literal(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, NullLit):
        return "null"
    if isinstance(e, UndefinedLit):
        return "undefined"
    if isinstance(e, Identifier):
        return e.name
    if isinstance(e, ObjectLit):
        if not e.entries:
            return "{}"
        parts = []
        for key, value in e.entries:
            shown = key if _is_plain_key(key) else string_literal(key)
            parts.append(f"{shown}: {_expr(value)}")
        return "{ " + ", ".join(parts) + " }"
    if isinstance(e, FunctionExpr):
        body = _block_inline(e.body, 0)
        return f"(function ({', '.join(e.params)}) {body})"
    if isinstance(e, PropertyGet):
        return _member(e.obj, e.key, e.computed)
    if isinstance(e, Call):
        # a bare member callee would read back as a MethodCall, and a
        # prefix operator would apply to the call
        callee = _expr(e.callee)
        if isinstance(e.callee, (PropertyGet, Unary)):
            callee = f"({callee})"
        return f"{callee}({_args(e.args)})"
    if isinstance(e, MethodCall):
        return f"{_member(e.obj, e.key, e.computed)}({_args(e.args)})"
    if isinstance(e, New):
        callee = _expr(e.callee)
        if not _is_new_operand(e.callee):
            callee = f"({callee})"
        return f"new {callee}({_args(e.args)})"
    if isinstance(e, Binary):
        return f"({_expr(e.left)} {e.op} {_expr(e.right)})"
    if isinstance(e, Unary):
        # no punctuator starts with two of '!' and '-': '--y' is two '-'
        return e.op + _expr(e.operand)
    if isinstance(e, Conditional):
        return f"({_expr(e.cond)} ? {_expr(e.then)} : {_expr(e.otherwise)})"
    raise TypeError(f"not an expression node: {e!r}")


def _is_new_operand(e) -> bool:
    """Whether e prints as the operand of 'new': a primary and property
    accesses, with no call, construction or prefix operator of its own."""
    while isinstance(e, PropertyGet):
        e = e.obj
    return not isinstance(e, (Call, MethodCall, New, Unary))


def _member(obj, key, computed) -> str:
    base = _expr(obj)
    if isinstance(obj, Unary):  # a suffix binds tighter
        base = f"({base})"
    if computed:
        return f"{base}[{_expr(key)}]"
    return f"{base}.{key}"


def _args(args) -> str:
    return ", ".join(_expr(a) for a in args)


def _block_inline(block: Block, indent: int) -> str:
    if not block.statements:
        return "{ }"
    inner = "".join(_stmt(s, indent + 1) for s in block.statements)
    pad = "  " * indent
    return "{\n" + inner + pad + "}"


def _stmt(s, indent: int) -> str:
    pad = "  " * indent
    if isinstance(s, VarDecl):
        return f"{pad}var {s.name} = {_expr(s.init)};\n"
    if isinstance(s, Assign):
        return f"{pad}{s.name} = {_expr(s.value)};\n"
    if isinstance(s, PropertySet):
        return f"{pad}{_member(s.obj, s.key, s.computed)} = {_expr(s.value)};\n"
    if isinstance(s, ExprStmt):
        return f"{pad}{_expr(s.expr)};\n"
    if isinstance(s, If):
        text = f"{pad}if ({_expr(s.cond)}) {_block_inline(s.then, indent)}"
        if s.otherwise is not None:
            text += f" else {_block_inline(s.otherwise, indent)}"
        return text + "\n"
    if isinstance(s, While):
        return f"{pad}while ({_expr(s.cond)}) {_block_inline(s.body, indent)}\n"
    if isinstance(s, Return):
        if s.value is None:
            return f"{pad}return;\n"
        return f"{pad}return {_expr(s.value)};\n"
    if isinstance(s, FunctionDecl):
        function = s.function
        header = f"{pad}function {s.name}({', '.join(function.params)}) "
        return header + _block_inline(function.body, indent) + "\n"
    raise TypeError(f"not a statement node: {s!r}")


def pretty_print(program: Program) -> str:
    """Render a program as source text that parses back to an equal AST."""
    return "".join(_stmt(s, 0) for s in program.statements)
