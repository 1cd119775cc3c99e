"""The front end as it was before tokenize returned a Tokens sequence:
a tokenizer that builds each (kind, lexeme, line, column) tuple in one
finditer pass over the whole source, and a parser that reads those tuples.
The differential tests in test_front_end.py check the current front end
against it, token for token, error for error and node for node. Its
parser builds a FunctionDecl as its name and a FunctionExpr, and leaves
each FunctionExpr's scoped and constant flags to mark_scopes, a walk of
the finished tree, which is the exact rule the parser's own bookkeeping
must agree with."""

import dataclasses
import re
from operator import attrgetter

from proxylang.errors import LexError, ParseError
from proxylang.lexer import decode_string_lexeme
from proxylang.nodes import (Assign, Binary, Block, BoolLit, Call,
                             Conditional, ExprStmt, Expr, FunctionDecl,
                             FunctionExpr, Identifier, If, MethodCall, New,
                             NullLit, NumberLit, ObjectLit, Program,
                             PropertyGet, PropertySet, Return, StringLit,
                             UndefinedLit, Unary, VarDecl, While)
from proxylang.objects import format_number
from proxylang.parser import ensure_recursion_limit

KEYWORDS = frozenset([
    "var", "function", "if", "else", "while", "return", "new",
    "true", "false", "null", "undefined",
])

# Every punctuator. _TOKEN's punctuator group spells them out so that the
# longest wins (maximal munch): ':===:' over ':==:', '===' over '=='.
PUNCTUATORS = (
    ":===:", ":==:", "===", "!==", "==", "!=", "<=", ">=", "&&", "||",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
    "=", "<", ">", "+", "-", "*", "/", "!",
)

WORD = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")  # a keyword or identifier

ESCAPES = {"n": "\n", "t": "\t", '"': '"', "'": "'", "\\": "\\"}

_ESCAPE = "\\\\[" + re.escape("".join(ESCAPES)) + "]"


def _string_body(quote: str) -> str:
    """The longest valid string body after the quote: a string ends at the
    first unescaped quote of its own kind and never spans a line."""
    plain = f"[^{quote}\\\\\\n]*"
    return f"{plain}(?:{_ESCAPE}{plain})*"


# Each match is a run of blanks and then one token, newline or comment, so
# blanks cost no match of their own. The alternatives are tried in order,
# the frequent kinds first: every kind but the punctuators starts with a
# character of its own, and the punctuators are one group led by a
# character class. A '/' is the punctuator only when no '/' or '*' follows
# it, so that comments win over it, and one that is no comment either
# opens a comment that never closes. A valid string comes before the
# catch-all that reports a broken one, and the catch-all comes last, where
# anything it matches is an error. The catch-all excludes blanks:
# otherwise, at blanks that end the input, the regex would give blanks
# back from the run and report one of them.
_TOKEN = re.compile("[ \t\r\v\f]*(?:" + "|".join([
    "(?P<word>" + WORD.pattern + ")",
    r"(?P<punctuator>[(){}\[\];,.?+*-]|:===?:|[=!](?:==?)?|[<>]=?|&&|\|\|"
    r"|:|/(?![/*]))",
    r"(?P<number>[0-9]+(?:\.[0-9]+)?)",
    r"(?P<newline>\n)",
    r"(?P<comment>//[^\n]*|/\*.*?\*/)",
    "(?P<string>" + "|".join(q + _string_body(q) + q for q in "\"'") + ")",
    r"(?P<error>[^ \t\r\v\f])",
]) + ")", re.DOTALL)
_STRING_BODY = {q: re.compile(_string_body(q)) for q in "\"'"}


# the group numbers tokenize dispatches on (m.lastindex, cheaper than
# m.lastgroup and a group name), read off _TOKEN; the one group left is
# the error
_WORD, _PUNCTUATOR, _NUMBER, _NEWLINE, _COMMENT, _STRING = (
    _TOKEN.groupindex[kind] for kind in (
        "word", "punctuator", "number", "newline", "comment", "string"))


def tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """Split source into (kind, lexeme, line, column) tokens.

    Skips whitespace, '//' line comments, and '/* */' block comments.
    Unterminated strings or block comments, unsupported escape sequences,
    and characters outside the language raise LexError with a position.
    """
    tokens = []
    append = tokens.append
    line, last_newline = 1, -1  # column = index - last_newline
    for m in _TOKEN.finditer(source):
        group = m.lastindex
        if group == _WORD:
            lexeme = m[group]
            append(("keyword" if lexeme in KEYWORDS else "identifier",
                    lexeme, line, m.start(group) - last_newline))
        elif group == _PUNCTUATOR:
            append(("punctuator", m[group], line,
                    m.start(group) - last_newline))
        elif group == _NUMBER:
            append(("number", m[group], line, m.start(group) - last_newline))
        elif group == _NEWLINE:
            line += 1
            last_newline = m.end() - 1
        elif group == _COMMENT:
            lexeme = m[group]
            newlines = lexeme.count("\n")
            if newlines:
                line += newlines
                last_newline = m.start(group) + lexeme.rfind("\n")
        elif group == _STRING:
            append(("string", m[group], line, m.start(group) - last_newline))
        else:
            pos = m.start(group)
            _raise_error(source, m[group], pos, line, pos - last_newline)
    return tokens


def _raise_error(source: str, ch: str, pos: int, line: int, column: int):
    if ch == "/":
        raise LexError("unterminated block comment", line, column)
    if ch in _STRING_BODY:
        end = _STRING_BODY[ch].match(source, pos + 1).end()
        if source.startswith("\\", end) and end + 1 < len(source):
            raise LexError(
                f"unsupported escape sequence '\\{source[end + 1]}'",
                line, column + end + 1 - pos)
        raise LexError("unterminated string literal", line, column)
    raise LexError(f"unexpected character {ch!r}", line, column)


# binding level of each binary operator: a higher level binds tighter
_LEVELS = {"||": 1, "&&": 2,
           "==": 3, "!=": 3, "===": 3, "!==": 3, ":==:": 3, ":===:": 3,
           "<": 4, "<=": 4, ">": 4, ">=": 4,
           "+": 5, "-": 5,
           "*": 6, "/": 6}
_EQUALITY = 3

_MAX_NESTING = 400


class _Parser:
    def __init__(self, tokens: list[tuple]):
        ensure_recursion_limit()
        _, lexeme, line, column = tokens[-1] if tokens else ("", "", 1, 1)
        self.tokens = [*tokens, ("eof", "", line, column + len(lexeme))]
        self.pos = 0
        self.fn_depth = 0
        self.nesting = 0  # expression depth
        self.blocks = 0  # block depth

    # --- token plumbing ---

    def error(self, message: str, token: tuple):
        kind, _, line, column = token
        raise ParseError(message, line, column, at_eof=kind == "eof")

    def expected(self, what: str):
        tok = self.tokens[self.pos]
        if tok[0] == "eof":
            self.error(f"expected {what} but reached end of input", tok)
        self.error(f"expected {what} but found '{tok[1]}'", tok)

    def match(self, lexeme: str) -> bool:
        if self.tokens[self.pos][1] == lexeme:
            self.pos += 1
            return True
        return False

    def expect(self, lexeme: str) -> tuple:
        tok = self.tokens[self.pos]
        if tok[1] != lexeme:
            self.expected(f"'{lexeme}'")
        self.pos += 1
        return tok

    def expect_identifier(self, what: str) -> str:
        kind, lexeme, _, _ = self.tokens[self.pos]
        if kind != "identifier":
            self.expected(what)
        self.pos += 1
        return lexeme

    # --- statements ---

    def parse_program(self) -> Program:
        statements = []
        while self.tokens[self.pos][0] != "eof":
            statements.append(self.parse_statement())
        return Program(statements, 1)

    def parse_statement(self):
        tok = self.tokens[self.pos]
        rule = _KEYWORD_RULES.get(tok[1])
        if rule is None:
            return self.parse_expression_statement()
        self.pos += 1
        return rule(self, tok)

    # --- keyword statements: parse_statement calls each past its keyword,
    # with the keyword's token (_KEYWORD_RULES) ---

    def parse_var(self, tok: tuple) -> VarDecl:
        name = self.expect_identifier("a variable name")
        self.expect("=")
        init = self.parse_expr()
        self.expect(";")
        return VarDecl(name, init, tok[2])

    def parse_function_decl(self, tok: tuple) -> FunctionDecl:
        name = self.expect_identifier("a function name")
        params = self.parse_params()
        return FunctionDecl(name, FunctionExpr(
            params, self.parse_function_body(), tok[2]), tok[2])

    def parse_params(self) -> list:
        # no caller has seen the '(', so it is checked here
        self.expect("(")
        return self.parse_list(")", lambda: self.expect_identifier(
            "a parameter name"))

    def parse_block(self) -> Block:
        open_tok = self.expect("{")
        self.blocks = self.deeper(self.blocks, "block", open_tok)
        statements = []
        while not self.match("}"):
            if self.tokens[self.pos][0] == "eof":
                self.expected("'}'")
            statements.append(self.parse_statement())
        self.blocks -= 1
        return Block(statements, open_tok[2])

    def parse_if(self, tok: tuple) -> If:
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_block()
        otherwise = self.parse_block() if self.match("else") else None
        return If(cond, then, otherwise, tok[2])

    def parse_while(self, tok: tuple) -> While:
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_block()
        return While(cond, body, tok[2])

    def parse_return(self, tok: tuple) -> Return:
        if self.fn_depth == 0:
            self.error("'return' outside of a function", tok)
        value = None
        if not self.match(";"):
            value = self.parse_expr()
            self.expect(";")
        return Return(value, tok[2])

    def parse_expression_statement(self):
        expr = self.parse_expr()
        eq = self.tokens[self.pos]
        if self.match("="):
            value = self.parse_expr()
            self.expect(";")
            if isinstance(expr, Identifier):
                return Assign(expr.name, value, expr.line)
            if isinstance(expr, PropertyGet):
                return PropertySet(expr.obj, expr.key, expr.computed, value,
                                   expr.line)
            self.error("invalid assignment target", eq)
        self.expect(";")
        return ExprStmt(expr, expr.line)

    # --- shared rules ---

    def deeper(self, depth: int, what: str = "expression",
               tok: tuple | None = None) -> int:
        """One more level of nesting; past _MAX_NESTING, a ParseError at tok
        (the current token by default). A ParseError abandons its parser,
        so callers count down again only on success."""
        if depth >= _MAX_NESTING:
            _, _, line, column = tok or self.tokens[self.pos]
            raise ParseError(f"{what} nesting too deep", line, column)
        return depth + 1

    def parse_list(self, close: str, parse_item) -> list:
        """(item (',' item)*)? close, after the opening punctuator, which
        every caller has read: parameters, arguments and object-literal
        entries."""
        if self.match(close):
            return []
        items = [parse_item()]
        while self.match(","):
            items.append(parse_item())
        self.expect(close)
        return items

    # --- expressions ---

    def parse_expr(self) -> Expr:
        self.nesting = self.deeper(self.nesting)
        start = self.pos
        expr = self.parse_operand(True)
        op = self.tokens[self.pos][1]
        if op in _LEVELS:
            expr = self.parse_binary(expr, start, 1)
            op = self.tokens[self.pos][1]
        if op == "?":
            self.pos += 1
            then = self.parse_expr()
            self.expect(":")
            expr = Conditional(expr, then, self.parse_expr(), expr.line)
        self.nesting -= 1
        return expr

    def parse_binary(self, left: Expr, start: int, min_level: int) -> Expr:
        """Precedence climbing: the longest left-associative run of binary
        operators of level min_level or tighter after left, an operand
        that began at token start and is followed by such an operator. A
        right operand is read as an operand, and a run of tighter
        operators after it recurses. Each operator after the first is one
        more level of expression nesting, until the run ends."""
        outer = self.nesting
        if self.tokens[start][1] == "(":
            self.nesting = self.deeper(outer + _spine(left) - 1)
        level = _LEVELS[self.tokens[self.pos][1]]
        chain_op = None
        while True:
            op = self.tokens[self.pos][1]
            if level == _EQUALITY:
                # every equality operator this call consumes is in one chain
                if chain_op is not None and op != chain_op:
                    self.error(
                        f"cannot mix '{chain_op}' and '{op}' in one "
                        "comparison chain; expected ';' or ')' or "
                        "parentheses around the inner comparison",
                        self.tokens[self.pos])
                chain_op = op
            self.pos += 1
            start = self.pos
            right = self.parse_operand(True)
            next_level = _LEVELS.get(self.tokens[self.pos][1], 0)
            if next_level > level:
                right = self.parse_binary(right, start, level + 1)
                next_level = _LEVELS.get(self.tokens[self.pos][1], 0)
            left = Binary(op, left, right, left.line)
            if next_level < min_level:
                self.nesting = outer
                return left
            level = next_level
            self.nesting = self.deeper(self.nesting)

    def parse_operand(self, calls: bool) -> Expr:
        """A prefix operator and its operand, or a primary and its
        suffixes; with calls off, the operand of 'new': a primary and its
        '.name' and '[expr]' suffixes, which leaves its '(' to the
        construction. Each prefix operator is one level of expression
        nesting, and, as in a run of binary operators, so is each suffix
        after the first ('.name', '[expr]' or an argument list), until
        the chain ends."""
        tok = self.tokens[self.pos]
        kind, lexeme, line, _ = tok
        self.pos += 1
        if kind == "identifier":
            expr = Identifier(lexeme, line)
        elif kind == "number":
            expr = NumberLit(float(lexeme), line)
        elif kind == "string":
            expr = StringLit(decode_string_lexeme(lexeme), line)
        elif lexeme == "(":
            expr = self.parse_expr()
            self.expect(")")
        elif calls and (lexeme == "!" or lexeme == "-"):
            self.nesting = self.deeper(self.nesting, "expression", tok)
            operand = self.parse_operand(True)
            self.nesting -= 1
            return Unary(lexeme, operand, line)
        elif calls and lexeme == "new":
            callee = self.parse_operand(False)
            if self.tokens[self.pos][1] != "(":
                self.error("expected '(' after the constructed value",
                           self.tokens[self.pos])
            self.pos += 1
            expr = New(callee, self.parse_list(")", self.parse_expr), line)
        elif lexeme == "true" or lexeme == "false":
            expr = BoolLit(lexeme == "true", line)
        elif lexeme == "null":
            expr = NullLit(line)
        elif lexeme == "undefined":
            expr = UndefinedLit(line)
        elif lexeme == "function":
            expr = FunctionExpr(self.parse_params(),
                                self.parse_function_body(), line)
        elif lexeme == "{":
            expr = ObjectLit(self.parse_list("}", self.parse_object_entry),
                             line)
        else:
            self.pos -= 1
            self.expected("an expression")
        op = self.tokens[self.pos][1]
        if op != "." and op != "[" and (op != "(" or not calls):
            return expr
        outer = self.nesting
        if lexeme == "(":
            self.nesting = self.deeper(outer + _spine(expr) - 1)
        while True:
            self.pos += 1
            if op == "(":
                expr = Call(expr, self.parse_list(")", self.parse_expr),
                            expr.line)
            else:
                if op == ".":
                    key = self.expect_identifier("a property name")
                    computed = False
                else:
                    key = self.parse_expr()
                    self.expect("]")
                    computed = True
                if calls and self.tokens[self.pos][1] == "(":
                    self.pos += 1
                    expr = MethodCall(
                        expr, key, computed,
                        self.parse_list(")", self.parse_expr), expr.line)
                else:
                    expr = PropertyGet(expr, key, computed, expr.line)
            op = self.tokens[self.pos][1]
            if op != "." and op != "[" and (op != "(" or not calls):
                self.nesting = outer
                return expr
            self.nesting = self.deeper(self.nesting)

    def parse_function_body(self) -> Block:
        self.fn_depth += 1
        body = self.parse_block()
        self.fn_depth -= 1
        return body

    def parse_object_entry(self):
        kind, lexeme, _, _ = self.tokens[self.pos]
        if kind == "identifier" or kind == "keyword":
            key = lexeme
        elif kind == "string":
            key = decode_string_lexeme(lexeme)
        elif kind == "number":
            key = format_number(float(lexeme))
        else:
            self.expected("a property key")
        self.pos += 1
        self.expect(":")
        return (key, self.parse_expr())


# the statements that begin with a keyword; a leading 'function' is a
# declaration, as a function expression there would be ambiguous
_KEYWORD_RULES = {"var": _Parser.parse_var,
                  "function": _Parser.parse_function_decl,
                  "if": _Parser.parse_if, "while": _Parser.parse_while,
                  "return": _Parser.parse_return}

_LEFT = {Binary: attrgetter("left"), PropertyGet: attrgetter("obj"),
         MethodCall: attrgetter("obj"), Call: attrgetter("callee")}


def _spine(expr: Expr) -> int:
    """How many binary, member and call nodes lie on expr's left spine,
    following each one's left operand (_LEFT)."""
    links = 0
    while expr.__class__ in _LEFT:
        expr = _LEFT[expr.__class__](expr)
        links += 1
    return links


def mark_scopes(tree):
    """Set the scoped and constant flags of every FunctionExpr in tree,
    by a walk of the finished tree: a call can observe a scope of its own
    if a direct statement of the body is a var or function declaration,
    or an Identifier or Assign anywhere in the body, nested functions
    included, names a parameter; and a body that is one Return of a
    BoolLit has that literal's value as its constant (the constructor
    leaves None). A loop, not a recursion, as the reference accepts trees
    taller than the host's recursion limit."""
    nodes = []  # each node, and the index of the node it is in, or -1
    todo = [(tree, -1)]
    while todo:
        item, parent = todo.pop()
        if isinstance(item, (list, tuple)):
            todo.extend((each, parent) for each in item)
        elif dataclasses.is_dataclass(item):
            nodes.append((item, parent))
            todo.extend((getattr(item, field.name), len(nodes) - 1)
                        for field in dataclasses.fields(item))
    # the names of the Identifiers and Assigns in each node; a node comes
    # after the node it is in, so the loop meets it first
    names = [set() for _ in nodes]
    for i in reversed(range(len(nodes))):
        node, parent = nodes[i]
        if isinstance(node, (Identifier, Assign)):
            names[i].add(node.name)
        if isinstance(node, FunctionExpr):
            statements = node.body.statements
            declares = any(isinstance(statement, (VarDecl, FunctionDecl))
                           for statement in statements)
            node.scoped = declares or not names[i].isdisjoint(node.params)
            if len(statements) == 1 and isinstance(statements[0], Return) \
                    and isinstance(statements[0].value, BoolLit):
                node.constant = statements[0].value.value
        if parent >= 0:
            names[parent] |= names[i]
    return tree


def function_nodes(tree) -> list:
    """Every FunctionExpr in tree, each declaration's included."""
    found = []
    todo = [tree]
    while todo:
        item = todo.pop()
        if isinstance(item, (list, tuple)):
            todo.extend(item)
        elif dataclasses.is_dataclass(item):
            if isinstance(item, FunctionExpr):
                found.append(item)
            todo.extend(getattr(item, f.name)
                        for f in dataclasses.fields(item))
    return found


def parse(tokens: list[tuple]) -> Program:
    return mark_scopes(_Parser(tokens).parse_program())


def parse_source(source: str) -> Program:
    return parse(tokenize(source))


def parse_expression(source: str) -> Expr:
    """Parse a single expression with nothing trailing (REPL helper)."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expr()
    leftover = parser.tokens[parser.pos]
    if leftover[0] != "eof":
        parser.error(f"unexpected '{leftover[1]}' after the expression",
                     leftover)
    return mark_scopes(expr)
