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
    expr       := conditional
    conditional:= binary ('?' conditional ':' conditional)?
    binary     := unary (BINARY_OP unary)*    levels from _LEVELS
    unary      := ('!'|'-') unary | postfix
    postfix    := atom ('.' IDENT args? | '[' expr ']' args? | args)*
    atom       := 'new' member args | primary
    primary    := NUMBER | STRING | 'true' | 'false' | 'null' | 'undefined'
                | IDENT | '(' expr ')' | object literal | 'function' expr

The binary operators and their binding levels, from '||' (loosest) to
'*' and '/' (tightest), are the _LEVELS table, and one precedence-climbing
loop parses them all, left-associatively. Equality operators do not mix
within one chain: `a == b == c` is `(a == b) == c`, `a == b === c` is a
parse error.
"""

import sys

from .errors import ParseError
from .lexer import Token, decode_string_lexeme, tokenize
from .nodes import (Assign, Binary, Block, BoolLit, Call, Conditional,
                    ExprStmt, Expr, FunctionDecl, FunctionExpr, Identifier,
                    If, MethodCall, New, NullLit, NumberLit, ObjectLit,
                    Program, PropertyGet, PropertySet, Return, StringLit,
                    UndefinedLit, Unary, VarDecl, While)

# binding level of each binary operator: a higher level binds tighter
_LEVELS = {"||": 1, "&&": 2,
           "==": 3, "!=": 3, "===": 3, "!==": 3, ":==:": 3, ":===:": 3,
           "<": 4, "<=": 4, ">": 4, ">=": 4,
           "+": 5, "-": 5,
           "*": 6, "/": 6}
_EQUALITY = 3

_MAX_NESTING = 400
# host frames for _MAX_NESTING levels of parentheses (2,810 measured, 7
# parser frames a level) and for the evaluator's deepest call stack (7,182
# for rec(1023)), with room to spare
HOST_RECURSION_LIMIT = 20_000


def ensure_recursion_limit() -> None:
    """Raise Python's recursion limit to HOST_RECURSION_LIMIT, the one
    process-global setting parsing and Interpreter() make; never lower it."""
    if sys.getrecursionlimit() < HOST_RECURSION_LIMIT:
        sys.setrecursionlimit(HOST_RECURSION_LIMIT)


class _Parser:
    def __init__(self, tokens: list[Token]):
        ensure_recursion_limit()
        self.tokens = tokens
        self.pos = 0
        self.fn_depth = 0
        self.nesting = 0

    # --- token plumbing ---

    def peek(self, offset: int = 0):
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _eof_pos(self):
        if self.tokens:
            last = self.tokens[-1]
            return last.line, last.column + len(last.lexeme)
        return 1, 1

    def error(self, message: str, token=None):
        if token is None:
            line, col = self._eof_pos()
            raise ParseError(message, line, col, at_eof=True)
        raise ParseError(message, token.line, token.column)

    def check(self, kind: str, lexeme=None) -> bool:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            return False
        return lexeme is None or tok.lexeme == lexeme

    def check_punct(self, lexeme: str) -> bool:
        return self.check("punctuator", lexeme)

    def check_keyword(self, word: str) -> bool:
        return self.check("keyword", word)

    def match_punct(self, lexeme: str) -> bool:
        if self.check_punct(lexeme):
            self.pos += 1
            return True
        return False

    def expect_punct(self, lexeme: str) -> Token:
        tok = self.peek()
        if tok is None:
            self.error(f"expected '{lexeme}' but reached end of input")
        if tok.kind != "punctuator" or tok.lexeme != lexeme:
            self.error(f"expected '{lexeme}' but found '{tok.lexeme}'", tok)
        return self.take()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok is None:
            self.error(f"expected '{word}' but reached end of input")
        if tok.kind != "keyword" or tok.lexeme != word:
            self.error(f"expected '{word}' but found '{tok.lexeme}'", tok)
        return self.take()

    def expect_identifier(self, what: str) -> Token:
        tok = self.peek()
        if tok is None:
            self.error(f"expected {what} but reached end of input")
        if tok.kind != "identifier":
            self.error(f"expected {what} but found '{tok.lexeme}'", tok)
        return self.take()

    # --- statements ---

    def parse_program(self) -> Program:
        statements = []
        while self.peek() is not None:
            statements.append(self.parse_statement())
        return Program(statements, line=1)

    def parse_statement(self):
        tok = self.peek()
        if tok is None:
            self.error("expected a statement but reached end of input")
        if tok.kind == "keyword":
            if tok.lexeme == "var":
                return self.parse_var()
            if tok.lexeme == "function":
                # function expressions in statement position would be
                # ambiguous, so a leading 'function' is a declaration
                return self.parse_function_decl()
            if tok.lexeme == "if":
                return self.parse_if()
            if tok.lexeme == "while":
                return self.parse_while()
            if tok.lexeme == "return":
                return self.parse_return()
        return self.parse_expression_statement()

    def parse_var(self) -> VarDecl:
        tok = self.take()
        name = self.expect_identifier("a variable name")
        self.expect_punct("=")
        init = self.parse_expr()
        self.expect_punct(";")
        return VarDecl(name.lexeme, init, line=tok.line)

    def parse_function_decl(self) -> FunctionDecl:
        tok = self.take()
        name = self.expect_identifier("a function name")
        params = self.parse_params()
        return FunctionDecl(name.lexeme, params, self.parse_function_body(),
                            line=tok.line)

    def parse_params(self) -> list:
        self.expect_punct("(")
        params = []
        if not self.check_punct(")"):
            params.append(self.expect_identifier("a parameter name").lexeme)
            while self.match_punct(","):
                params.append(
                    self.expect_identifier("a parameter name").lexeme)
        self.expect_punct(")")
        return params

    def parse_block(self) -> Block:
        open_tok = self.peek()
        self.expect_punct("{")
        statements = []
        while not self.check_punct("}"):
            if self.peek() is None:
                self.error("expected '}' but reached end of input")
            statements.append(self.parse_statement())
        self.expect_punct("}")
        return Block(statements, line=open_tok.line)

    def parse_if(self) -> If:
        tok = self.take()
        self.expect_punct("(")
        cond = self.parse_expr()
        self.expect_punct(")")
        then = self.parse_block()
        otherwise = None
        if self.check_keyword("else"):
            self.take()
            otherwise = self.parse_block()
        return If(cond, then, otherwise, line=tok.line)

    def parse_while(self) -> While:
        tok = self.take()
        self.expect_punct("(")
        cond = self.parse_expr()
        self.expect_punct(")")
        body = self.parse_block()
        return While(cond, body, line=tok.line)

    def parse_return(self) -> Return:
        tok = self.take()
        if self.fn_depth == 0:
            self.error("'return' outside of a function", tok)
        value = None
        if not self.check_punct(";"):
            value = self.parse_expr()
        self.expect_punct(";")
        return Return(value, line=tok.line)

    def parse_expression_statement(self):
        expr = self.parse_expr()
        if self.check_punct("="):
            eq = self.take()
            value = self.parse_expr()
            self.expect_punct(";")
            if isinstance(expr, Identifier):
                return Assign(expr.name, value, line=expr.line)
            if isinstance(expr, PropertyGet):
                return PropertySet(expr.obj, expr.key, expr.computed, value,
                                   line=expr.line)
            self.error("invalid assignment target", eq)
        self.expect_punct(";")
        return ExprStmt(expr, line=expr.line)

    # --- expressions ---

    def parse_expr(self) -> Expr:
        self.nesting += 1
        if self.nesting > _MAX_NESTING:
            tok = self.peek()
            line = tok.line if tok else self._eof_pos()[0]
            col = tok.column if tok else self._eof_pos()[1]
            raise ParseError("expression nesting too deep", line, col)
        try:
            return self.parse_conditional()
        finally:
            self.nesting -= 1

    def parse_conditional(self) -> Expr:
        cond = self.parse_binary(1)
        if self.match_punct("?"):
            then = self.parse_conditional()
            self.expect_punct(":")
            otherwise = self.parse_conditional()
            return Conditional(cond, then, otherwise, line=cond.line)
        return cond

    def parse_binary(self, min_level: int) -> Expr:
        """Precedence climbing: the longest left-associative run of binary
        operators of level min_level or tighter."""
        left = self.parse_unary()
        chain_op = None
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "punctuator":
                return left
            level = _LEVELS.get(tok.lexeme, 0)
            if level < min_level:
                return left
            op = tok.lexeme
            if level == _EQUALITY:
                # every equality operator this call consumes is in one chain
                if chain_op is not None and op != chain_op:
                    self.error(
                        f"cannot mix '{chain_op}' and '{op}' in one "
                        "comparison chain; expected ';' or ')' or "
                        "parentheses around the inner comparison", tok)
                chain_op = op
            self.take()
            right = self.parse_binary(level + 1)
            left = Binary(op, left, right, line=left.line)

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok is not None and tok.kind == "punctuator" \
                and tok.lexeme in ("!", "-"):
            self.take()
            self.nesting += 1
            if self.nesting > _MAX_NESTING:
                raise ParseError("expression nesting too deep",
                                 tok.line, tok.column)
            try:
                operand = self.parse_unary()
            finally:
                self.nesting -= 1
            return Unary(tok.lexeme, operand, line=tok.line)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_atom()
        while True:
            if self.match_punct("."):
                name = self.expect_identifier("a property name")
                if self.check_punct("("):
                    args = self.parse_args()
                    expr = MethodCall(expr, name.lexeme, False, args,
                                      line=expr.line)
                else:
                    expr = PropertyGet(expr, name.lexeme, False,
                                       line=expr.line)
            elif self.check_punct("["):
                self.take()
                key = self.parse_expr()
                self.expect_punct("]")
                if self.check_punct("("):
                    args = self.parse_args()
                    expr = MethodCall(expr, key, True, args, line=expr.line)
                else:
                    expr = PropertyGet(expr, key, True, line=expr.line)
            elif self.check_punct("("):
                args = self.parse_args()
                expr = Call(expr, args, line=expr.line)
            else:
                return expr

    def parse_args(self) -> list:
        self.expect_punct("(")
        args = []
        if not self.check_punct(")"):
            args.append(self.parse_expr())
            while self.match_punct(","):
                args.append(self.parse_expr())
        self.expect_punct(")")
        return args

    def parse_atom(self) -> Expr:
        if self.check_keyword("new"):
            tok = self.take()
            callee = self.parse_member_chain()
            if not self.check_punct("("):
                nxt = self.peek()
                self.error("expected '(' after the constructed value", nxt)
            args = self.parse_args()
            return New(callee, args, line=tok.line)
        return self.parse_primary()

    def parse_member_chain(self) -> Expr:
        # The operand of 'new': a primary plus property accesses, with no
        # call arguments so the trailing '(' belongs to the construction.
        expr = self.parse_primary()
        while True:
            if self.match_punct("."):
                name = self.expect_identifier("a property name")
                expr = PropertyGet(expr, name.lexeme, False, line=expr.line)
            elif self.check_punct("["):
                self.take()
                key = self.parse_expr()
                self.expect_punct("]")
                expr = PropertyGet(expr, key, True, line=expr.line)
            else:
                return expr

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok is None:
            self.error("expected an expression but reached end of input")
        if tok.kind == "number":
            self.take()
            return NumberLit(float(tok.lexeme), line=tok.line)
        if tok.kind == "string":
            self.take()
            return StringLit(decode_string_lexeme(tok.lexeme), line=tok.line)
        if tok.kind == "identifier":
            self.take()
            return Identifier(tok.lexeme, line=tok.line)
        if tok.kind == "keyword":
            if tok.lexeme == "true":
                self.take()
                return BoolLit(True, line=tok.line)
            if tok.lexeme == "false":
                self.take()
                return BoolLit(False, line=tok.line)
            if tok.lexeme == "null":
                self.take()
                return NullLit(line=tok.line)
            if tok.lexeme == "undefined":
                self.take()
                return UndefinedLit(line=tok.line)
            if tok.lexeme == "function":
                return self.parse_function_expr()
            self.error(f"expected an expression but found '{tok.lexeme}'",
                       tok)
        if tok.kind == "punctuator":
            if tok.lexeme == "(":
                self.take()
                expr = self.parse_expr()
                self.expect_punct(")")
                return expr
            if tok.lexeme == "{":
                return self.parse_object_literal()
        self.error(f"expected an expression but found '{tok.lexeme}'", tok)

    def parse_function_expr(self) -> FunctionExpr:
        tok = self.expect_keyword("function")
        params = self.parse_params()
        return FunctionExpr(params, self.parse_function_body(), line=tok.line)

    def parse_function_body(self) -> Block:
        self.fn_depth += 1
        try:
            return self.parse_block()
        finally:
            self.fn_depth -= 1

    def parse_object_literal(self) -> ObjectLit:
        tok = self.expect_punct("{")
        entries = []
        if not self.check_punct("}"):
            entries.append(self.parse_object_entry())
            while self.match_punct(","):
                entries.append(self.parse_object_entry())
        self.expect_punct("}")
        return ObjectLit(entries, line=tok.line)

    def parse_object_entry(self):
        tok = self.peek()
        if tok is None:
            self.error("expected a property key but reached end of input")
        if tok.kind in ("identifier", "keyword"):
            key = self.take().lexeme
        elif tok.kind == "string":
            key = decode_string_lexeme(self.take().lexeme)
        elif tok.kind == "number":
            lexeme = self.take().lexeme
            value = float(lexeme)
            key = str(int(value)) if value == int(value) else lexeme
        else:
            self.error(f"expected a property key but found '{tok.lexeme}'",
                       tok)
        self.expect_punct(":")
        return (key, self.parse_expr())


def parse(tokens: list[Token]) -> Program:
    return _Parser(tokens).parse_program()


def parse_source(source: str) -> Program:
    return parse(tokenize(source))


def parse_expression(source: str) -> Expr:
    """Parse a single expression with nothing trailing (REPL helper)."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expr()
    leftover = parser.peek()
    if leftover is not None:
        parser.error(f"unexpected '{leftover.lexeme}' after the expression",
                     leftover)
    return expr
