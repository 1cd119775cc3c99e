"""Recursive-descent parser.

Grammar sketch (statements end in ';', blocks are brace-delimited and
appear only as bodies of if/while/function):

    program    := statement*
    statement  := 'var' IDENT '=' expr ';'
                | 'function' IDENT '(' params ')' block
                | 'if' '(' expr ')' block ('else' block)?
                | 'while' '(' expr ')' block
                | 'return' expr? ';'
                | expr ('=' expr)? ';'        assignment targets: IDENT, member
    expr       := binary ('?' expr ':' expr)?
    binary     := operand (BINARY_OP operand)*    levels from _LEVELS
    operand    := ('!'|'-') operand
                | ('new' new_callee args | primary) suffix*
    suffix     := '.' IDENT | '[' expr ']' | args
    new_callee := primary ('.' IDENT | '[' expr ']')*    no args or prefix
    primary    := NUMBER | STRING | 'true' | 'false' | 'null' | 'undefined'
                | IDENT | '(' expr ')' | object literal | 'function' expr

A token costs bytecodes, not frames: the parser enters frames per
expression, statement and block, none per token. parse_expr reads an
expression in one loop, apart from its parenthesised parts, arguments,
computed keys, object-literal values and '?:' arms, which are expressions
of their own: each operand's prefix operators, its primary, told apart by
the _OPERAND table keyed by lexeme, and its suffixes; and the binary
operators between operands, which precedence climbing over an explicit
stack of the operators still waiting on a right operand joins
left-associatively (_LEVELS, from '||', loosest, to '*' and '/',
tightest). Equality operators do not mix within one chain: `a == b == c`
is `(a == b) == c`, `a == b === c` is a parse error. Every expected lexeme
is compared inline, and the nodes the parser makes most are built without
their dataclass __init__ (see nodes.py); a Binary is given its operator on
two numbers and its right operand's number literal as it is built, with
one subscript and one class test.

Two bounds keep parsing within the host's recursion limit, and make every
tree the parser accepts one that pretty_print prints, as text that parses
back to it, and that evaluation walks, calls aside. An expression tree is
at most _MAX_NESTING (400) tall, because printing and evaluation recurse
once per level: a node is one level taller than its tallest child,
parentheses add none, and a function expression is one taller than the
tallest expression in its body. The parser builds each node once it has
read the node's last token, and the first node too tall is a ParseError at
the token after it. At most _MAX_OPEN expressions are open at once, which
bounds the parser's own frames; one more is a ParseError where it would
open. Blocks nest at most _MAX_NESTING deep, counted on their own.

The parser reads the lexemes and lines lists of the Tokens that tokenize
returns, copied with one more entry, the end of input: the lexeme "",
which no token has, on the last token's line (1 for no tokens). So the
current token is always `lexemes[pos]`, and `pos == end` at the end of
input. Keywords, punctuators and the end of input are the keys of
_OPERAND; any other lexeme is an identifier, a number or a string, told
apart by its first character. A column is looked up, by Tokens.column,
only to report a ParseError.

parse_function reads declarations and function expressions alike, and the
FunctionExpr (a FunctionDecl holds one) records in scoped whether a call
can observe a scope of its own (see nodes.py): its body is Block.scoped (a
direct statement declares), or an Identifier anywhere in it, nested
functions included, is one of its parameters. An assignment's target is
read as an Identifier first, so it counts too, and so does a parameter's
name read in a nested function that binds the same name, which is
conservative. The parser keeps the index of the token where each name was
last read as an Identifier, and looks the parameters up there when the
body ends: a parameter was read in the body if its last read is at or
after the body's '{'. Then it sets the node's constant flag (see
nodes.py): the BoolLit's value when the body is one Return of a BoolLit,
and None otherwise.
"""

import sys
from itertools import repeat

from .errors import ParseError
from .lexer import (KEYWORDS, PUNCTUATORS, Tokens, decode_string_lexeme,
                    tokenize)
from .nodes import (Assign, Binary, Block, BoolLit, Call, Conditional,
                    ExprStmt, Expr, FunctionDecl, FunctionExpr, Identifier,
                    If, MethodCall, New, NullLit, NumberLit, ObjectLit,
                    Program, PropertyGet, PropertySet, Return, StringLit,
                    UndefinedLit, Unary, VarDecl, While, DECLARATIONS)
from .objects import NUMBER_OPERATORS, format_number

# binding level of each binary operator: a higher level binds tighter
_LEVELS = {"||": 1, "&&": 2,
           "==": 3, "!=": 3, "===": 3, "!==": 3, ":==:": 3, ":===:": 3,
           "<": 4, "<=": 4, ">": 4, ">=": 4,
           "+": 5, "-": 5,
           "*": 6, "/": 6}
_EQUALITY = 3

# what each keyword and punctuator, and the end of input, starts as an
# operand ("" for nothing); a lexeme missing here is an identifier, or a
# number or string if its first character is in _LITERAL_START
_OPERAND = {**dict.fromkeys([*KEYWORDS, *PUNCTUATORS, ""], ""),
            "!": "prefix", "-": "prefix", "new": "new", "(": "(",
            "{": "{", "function": "function", "true": "literal",
            "false": "literal", "null": "literal", "undefined": "literal"}
_LITERAL_START = "0123456789\"'"
# what may follow an operand: each binary operator's level, and _SUFFIX
# for the first character of a suffix
_SUFFIX = 7
_FOLLOW = {**_LEVELS, ".": _SUFFIX, "[": _SUFFIX, "(": _SUFFIX}

_UNREAD = repeat(-1)  # the index of a name never read: before every token
_new = object.__new__  # a node without its __init__: every slot is stored

_MAX_NESTING = 400  # the tallest expression tree, and the deepest blocks
# Open parse_expr calls are bounded only for the parser's own frames, and
# loosely enough that pretty_print's text of every tree the height bound
# accepts parses back: that text opens one expression for its statement,
# then at most two a level of height, a '(' and a '?:' arm (a function
# expression's '(' and a statement of its body).
_MAX_OPEN = 2 * _MAX_NESTING + 1
# host frames for the deepest parse (measured from parse: 2,402 for
# _MAX_NESTING nested 'if' blocks around 399 object literals, each value in
# parentheses; 3 frames a block, 2 an object literal and 1 a parenthesis;
# 2,397 for 399 nested `(function() { return ...; })`, 6 frames a function,
# parse_function's included), for the deepest pretty_print of a tree the
# parser accepts (2,402 for as many 'if' blocks around 399 nested calls, 3
# frames a block and 3 a call) and for the evaluator's deepest call stack
# (4,101 measured from run_source for rec(1023), whose body returns
# rec(n - 1) + 1: 4 host frames a language call, as invoke runs the return
# itself), with room to spare. That is for a plain body: each language call
# also takes its body's expression height in frames, so the call depth a
# program reaches depends on its shape, not only on MAX_CALL_DEPTH. With
# 390 prefix '-' in `return -...-r(n - 1);`, r(50) returns and r(51)
# exceeds this limit.
HOST_RECURSION_LIMIT = 20_000


def ensure_recursion_limit() -> None:
    """Raise Python's recursion limit to HOST_RECURSION_LIMIT, the one
    process-global setting parsing and Interpreter() make; never lower it."""
    if sys.getrecursionlimit() < HOST_RECURSION_LIMIT:
        sys.setrecursionlimit(HOST_RECURSION_LIMIT)


class _Parser:
    def __init__(self, tokens: Tokens):
        ensure_recursion_limit()
        self.tokens = tokens
        self.end = len(tokens.lexemes)
        self.lexemes = [*tokens.lexemes, ""]
        self.lines = [*tokens.lines,
                      tokens.lines[-1] if tokens.lines else 1]
        self.pos = 0
        self.fn_depth = 0
        self.opened = 0  # parse_expr calls open
        self.height = 0  # of the expression parse_expr returned last
        self.tallest = 0  # height in the function body being read
        self.blocks = 0  # block depth
        self.reads = {}  # the token index of each name's last Identifier

    # --- errors ---

    def error(self, message: str, at: int):
        """Raise a ParseError at the token at index at."""
        raise ParseError(message, self.lines[at], self.tokens.column(at),
                         at_eof=at == self.end)

    def expected(self, what: str, at: int):
        if at == self.end:
            self.error(f"expected {what} but reached end of input", at)
        self.error(f"expected {what} but found '{self.lexemes[at]}'", at)

    def too_deep(self, what: str, at: int):
        """Raise the ParseError of nesting past a bound, at the token at
        index at. A ParseError abandons its parser, so callers count their
        nesting down again only on success."""
        raise ParseError(f"{what} nesting too deep", self.lines[at],
                         self.tokens.column(at))

    # --- statements ---

    def parse_statements(self, close: str) -> list:
        """The statements up to close, which is "}" for a block and the
        end of input, "", for a program, from the current token."""
        lexemes = self.lexemes
        statements = []
        while True:
            at = self.pos
            lexeme = lexemes[at]
            if lexeme == close:
                return statements
            if not lexeme:  # the end of input
                self.expected("'}'", at)
            rule = _KEYWORD_RULES.get(lexeme)
            if rule is not None:
                self.pos = at + 1
                statements.append(rule(self, at))
                continue
            # an expression, or an assignment to a name or a property
            expr = self.parse_expr()
            at = self.pos
            lexeme = lexemes[at]
            if lexeme == ";":
                node = _new(ExprStmt)
                node.expr = expr
            elif lexeme != "=":
                self.expected("';'", at)
            else:
                self.pos = at + 1
                value = self.parse_expr()
                if lexemes[self.pos] != ";":
                    self.expected("';'", self.pos)
                if expr.__class__ is Identifier:
                    node = _new(Assign)
                    node.name = expr.name
                elif expr.__class__ is PropertyGet:
                    node = _new(PropertySet)
                    node.obj = expr.obj
                    node.key = expr.key
                    node.computed = expr.computed
                else:
                    self.error("invalid assignment target", at)
                node.value = value
            self.pos += 1
            node.line = expr.line
            statements.append(node)

    # --- keyword statements: parse_statements calls each past its keyword,
    # with the keyword's index (_KEYWORD_RULES) ---

    def parse_var(self, at: int) -> VarDecl:
        node = _new(VarDecl)
        node.name = name = self.lexemes[at + 1]
        if name in _OPERAND or name[0] in _LITERAL_START:
            self.expected("a variable name", at + 1)
        if self.lexemes[at + 2] != "=":
            self.expected("'='", at + 2)
        self.pos = at + 3
        node.init = self.parse_expr()
        if self.lexemes[self.pos] != ";":
            self.expected("';'", self.pos)
        self.pos += 1
        node.line = self.lines[at]
        return node

    def parse_function(self, at: int, declaration=True):
        """The FunctionDecl after the 'function' at index at, or with
        declaration False a FunctionExpr, leaving self.height its height."""
        self.pos = at + 1
        if declaration:
            name = self.lexemes[at + 1]
            if name in _OPERAND or name[0] in _LITERAL_START:
                self.expected("a function name", at + 1)
            self.pos = at + 2
        node = _new(FunctionExpr)
        node.params = params = self.parse_params()
        body_at = self.pos
        self.fn_depth += 1
        tallest, self.tallest = self.tallest, 0
        node.body = body = self.parse_block()
        self.fn_depth -= 1
        node.line = line = self.lines[at]
        node.scoped = body.scoped or max(
            map(self.reads.get, params, _UNREAD), default=-1) >= body_at
        statements = body.statements
        node.constant = statements[0].value.value \
            if len(statements) == 1 and statements[0].__class__ is Return \
            and statements[0].value.__class__ is BoolLit else None
        if not declaration:
            self.height = self.tallest + 1
            self.tallest = tallest
            return node
        # a declaration's body counts toward an enclosing function's height
        if tallest > self.tallest:
            self.tallest = tallest
        decl = _new(FunctionDecl)
        decl.name = name
        decl.function = node
        decl.line = line
        return decl

    def parse_params(self) -> list:
        """'(' (IDENT (',' IDENT)*)? ')', from the current token."""
        lexemes = self.lexemes
        at = self.pos
        if lexemes[at] != "(":
            self.expected("'('", at)
        at += 1
        params = []
        if lexemes[at] != ")":
            while True:
                name = lexemes[at]
                if name in _OPERAND or name[0] in _LITERAL_START:
                    self.expected("a parameter name", at)
                params.append(name)
                at += 1
                if lexemes[at] != ",":
                    break
                at += 1
            if lexemes[at] != ")":
                self.expected("')'", at)
        self.pos = at + 1
        return params

    def parse_block(self) -> Block:
        lexemes = self.lexemes
        at = self.pos
        if lexemes[at] != "{":
            self.expected("'{'", at)
        blocks = self.blocks
        if blocks >= _MAX_NESTING:
            self.too_deep("block", at)
        self.blocks = blocks + 1
        self.pos = at + 1
        statements = self.parse_statements("}")
        self.pos += 1
        self.blocks = blocks
        block = _new(Block)
        block.statements = statements
        block.line = self.lines[at]
        block.scoped = not DECLARATIONS.isdisjoint(map(type, statements))
        return block

    def parse_if(self, at: int) -> If:
        node = _new(If)
        node.cond = self.parse_condition()
        node.then = self.parse_block()
        if self.lexemes[self.pos] == "else":
            self.pos += 1
            node.otherwise = self.parse_block()
        else:
            node.otherwise = None
        node.line = self.lines[at]
        return node

    def parse_while(self, at: int) -> While:
        node = _new(While)
        node.cond = self.parse_condition()
        node.body = self.parse_block()
        node.line = self.lines[at]
        return node

    def parse_condition(self) -> Expr:
        """'(' expr ')', from the current token."""
        if self.lexemes[self.pos] != "(":
            self.expected("'('", self.pos)
        self.pos += 1
        cond = self.parse_expr()
        if self.lexemes[self.pos] != ")":
            self.expected("')'", self.pos)
        self.pos += 1
        return cond

    def parse_return(self, at: int) -> Return:
        if self.fn_depth == 0:
            self.error("'return' outside of a function", at)
        node = _new(Return)
        node.value = None
        if self.lexemes[at + 1] == ";":
            self.pos = at + 2
        else:
            node.value = self.parse_expr()
            if self.lexemes[self.pos] != ";":
                self.expected("';'", self.pos)
            self.pos += 1
        node.line = self.lines[at]
        return node

    # --- expressions ---

    def parse_expr(self) -> Expr:
        """An expression, from the current token; self.height is left at
        its height. Each pass of the loop reads an operand: its prefix
        operators, its primary and its suffixes, a chain that 'new' splits
        in two (its callee's, without calls, and its construction's); then
        the binary operator after it, if any. height is expr's height. stack
        holds a tuple for each open run of binary operators but the
        current one: its left operand and that operand's height, the
        operator that waits on a right operand and its level, the run's
        minimum level and equality operator, and the tuple below (None at
        the bottom)."""
        lexemes = self.lexemes
        lines = self.lines
        pos = self.pos
        opened = self.opened
        if opened >= _MAX_OPEN:
            self.too_deep("expression", pos)
        self.opened = opened + 1
        stack = None
        level = 0  # of op, the operator that left waits on; 0 for none
        prefixes = 0
        calls = True  # off from a 'new' to its arguments
        while True:
            start = pos
            height = 1
            while True:  # prefix operators and 'new', then a primary
                lexeme = lexemes[pos]
                if lexeme not in _OPERAND:
                    if lexeme[0] not in _LITERAL_START:
                        expr = _new(Identifier)
                        expr.name = lexeme
                        self.reads[lexeme] = pos
                    elif lexeme[0] == '"' or lexeme[0] == "'":
                        expr = _new(StringLit)
                        expr.value = decode_string_lexeme(lexeme)
                    else:
                        expr = _new(NumberLit)
                        expr.value = float(lexeme)
                    expr.line = lines[pos]
                    pos += 1
                    break
                kind = _OPERAND[lexeme]
                if kind == "(":
                    self.pos = pos + 1
                    expr = self.parse_expr()
                    height = self.height
                    pos = self.pos
                    if lexemes[pos] != ")":
                        self.expected("')'", pos)
                    pos += 1
                elif kind == "{":
                    expr = _new(ObjectLit)
                    expr.line = lines[pos]
                    self.pos = pos + 1
                    expr.entries = self.parse_entries()
                    height = self.height
                    pos = self.pos
                elif kind == "function":
                    expr = self.parse_function(pos, False)
                    height = self.height
                    pos = self.pos
                elif kind == "prefix" and calls:
                    prefixes += 1
                    pos += 1
                    continue
                elif kind == "new" and calls:
                    calls = False
                    new_line = lines[pos]
                    pos += 1
                    continue
                elif kind == "literal":
                    expr = (BoolLit(lexeme == "true", lines[pos])
                            if lexeme[0] in "tf" else
                            NullLit(lines[pos]) if lexeme == "null" else
                            UndefinedLit(lines[pos]))
                    pos += 1
                else:
                    self.expected("an expression", pos)
                if height > _MAX_NESTING:  # an object literal or a function
                    self.too_deep("expression", pos)
                break
            following = lexemes[pos]
            next_level = _FOLLOW.get(following, 0)
            if next_level == _SUFFIX or not calls:
                # the callee of 'new' ends at its arguments
                while True:
                    if following == "(" and not calls:
                        calls = True
                        node = _new(New)
                        node.callee = expr
                        node.line = new_line
                    elif next_level == _SUFFIX:
                        if following == "(":
                            node = _new(Call)
                            node.callee = expr
                        else:
                            if following == ".":
                                pos += 1
                                key = lexemes[pos]
                                if key in _OPERAND or key[0] in _LITERAL_START:
                                    self.expected("a property name", pos)
                            else:
                                self.pos = pos + 1
                                key = self.parse_expr()
                                height = max(height, self.height)
                                pos = self.pos
                                if lexemes[pos] != "]":
                                    self.expected("']'", pos)
                            pos += 1
                            node = _new(MethodCall if calls and
                                        lexemes[pos] == "(" else PropertyGet)
                            node.obj = expr
                            node.key = key
                            node.computed = following == "["
                        node.line = expr.line
                    elif calls:
                        break
                    else:
                        self.error("expected '(' after the constructed value",
                                   pos)
                    expr = node
                    if node.__class__ is not PropertyGet:
                        pos += 1  # the '(' of the arguments
                        args = []
                        if lexemes[pos] != ")":
                            while True:
                                self.pos = pos
                                args.append(self.parse_expr())
                                height = max(height, self.height)
                                pos = self.pos
                                if lexemes[pos] != ",":
                                    break
                                pos += 1
                            if lexemes[pos] != ")":
                                self.expected("')'", pos)
                        pos += 1
                        node.args = args
                    height += 1
                    if height > _MAX_NESTING:
                        self.too_deep("expression", pos)
                    following = lexemes[pos]
                    next_level = _FOLLOW.get(following, 0)
            if prefixes:
                height += prefixes
                if height > _MAX_NESTING:
                    self.too_deep("expression", pos)
                while prefixes:  # innermost first
                    prefixes -= 1
                    expr = Unary(lexemes[start + prefixes], expr,
                                 lines[start + prefixes])
            # a binary operator after the operand: one tighter than op
            # opens a run, whose left operand is expr; else expr is op's
            # right operand, and the runs it ends are reduced
            if next_level > level:
                if level:
                    stack = (left, left_height, op, level, min_level, chain,
                             stack)
                min_level = level + 1
                chain = None
            elif level:
                while True:
                    node = _new(Binary)
                    node.op = op
                    node.left = left
                    node.right = expr
                    node.line = left.line
                    node.on_numbers = NUMBER_OPERATORS[op]
                    node.literal = expr.value \
                        if expr.__class__ is NumberLit else None
                    expr = node
                    if left_height > height:
                        height = left_height
                    height += 1
                    if height > _MAX_NESTING:
                        self.too_deep("expression", pos)
                    if next_level >= min_level or stack is None:
                        break
                    left, left_height, op, level, min_level, chain, stack \
                        = stack
                if next_level < min_level:
                    break
            else:
                break
            left = expr
            left_height = height
            level = next_level
            op = following
            if level == _EQUALITY:
                # every equality operator of one run is in one chain
                if chain is not None and op != chain:
                    self.error(
                        f"cannot mix '{chain}' and '{op}' in one "
                        "comparison chain; expected ';' or ')' or "
                        "parentheses around the inner comparison", pos)
                chain = op
            pos += 1
        if following == "?":
            self.pos = pos + 1
            then = self.parse_expr()
            then_height = self.height
            pos = self.pos
            if lexemes[pos] != ":":
                self.expected("':'", pos)
            self.pos = pos + 1
            expr = Conditional(expr, then, self.parse_expr(), expr.line)
            height = max(height, then_height, self.height) + 1
            if height > _MAX_NESTING:
                self.too_deep("expression", self.pos)
        else:
            self.pos = pos
        self.opened = opened
        self.height = height
        if height > self.tallest:
            self.tallest = height
        return expr

    def parse_entries(self) -> list:
        """An object literal's (key, value) entries, after its '{';
        self.height is left at the literal's height."""
        lexemes = self.lexemes
        entries = []
        tallest = 0
        if lexemes[self.pos] != "}":
            while True:
                at = self.pos
                key = lexemes[at]
                if key not in KEYWORDS:
                    if key in _OPERAND:
                        self.expected("a property key", at)
                    if key[0] == '"' or key[0] == "'":
                        key = decode_string_lexeme(key)
                    elif key[0] in _LITERAL_START:
                        key = format_number(float(key))
                if lexemes[at + 1] != ":":
                    self.expected("':'", at + 1)
                self.pos = at + 2
                entries.append((key, self.parse_expr()))
                tallest = max(tallest, self.height)
                if lexemes[self.pos] != ",":
                    break
                self.pos += 1
            if lexemes[self.pos] != "}":
                self.expected("'}'", self.pos)
        self.pos += 1
        self.height = tallest + 1
        return entries


# the statements that begin with a keyword; a leading 'function' is a
# declaration, as a function expression there would be ambiguous
_KEYWORD_RULES = {"var": _Parser.parse_var,
                  "function": _Parser.parse_function,
                  "if": _Parser.parse_if, "while": _Parser.parse_while,
                  "return": _Parser.parse_return}


def parse(tokens: Tokens) -> Program:
    """Parse the Tokens that tokenize returns; they are left unchanged."""
    return Program(_Parser(tokens).parse_statements(""), 1)


def parse_source(source: str) -> Program:
    return parse(tokenize(source))


def parse_expression(source: str) -> Expr:
    """Parse a single expression with nothing trailing (REPL helper)."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expr()
    if parser.pos != parser.end:
        parser.error(
            f"unexpected '{parser.lexemes[parser.pos]}' after the expression",
            parser.pos)
    return expr
