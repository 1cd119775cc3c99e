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

The parser works on a copy of the token list that ends in one token of
kind "eof" with an empty lexeme, placed just past the last token (1:1 for
no tokens), so the current token is always `tokens[pos]` and an error at
end of input points there. Punctuators and keywords are matched by lexeme
alone: no token of another kind can have the same lexeme.
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
# parser frames a level) and for the evaluator's deepest call stack (5,128
# measured for rec(1023), 5 host frames a language call), with room to
# spare
HOST_RECURSION_LIMIT = 20_000


def ensure_recursion_limit() -> None:
    """Raise Python's recursion limit to HOST_RECURSION_LIMIT, the one
    process-global setting parsing and Interpreter() make; never lower it."""
    if sys.getrecursionlimit() < HOST_RECURSION_LIMIT:
        sys.setrecursionlimit(HOST_RECURSION_LIMIT)


class _Parser:
    def __init__(self, tokens: list[Token]):
        ensure_recursion_limit()
        if tokens:
            last = tokens[-1]
            eof = Token("eof", "", last.line, last.column + len(last.lexeme))
        else:
            eof = Token("eof", "", 1, 1)
        self.tokens = [*tokens, eof]
        self.pos = 0
        self.fn_depth = 0
        self.nesting = 0

    # --- token plumbing ---

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, token: Token):
        raise ParseError(message, token.line, token.column,
                         at_eof=token.kind == "eof")

    def expected(self, what: str):
        tok = self.tokens[self.pos]
        if tok.kind == "eof":
            self.error(f"expected {what} but reached end of input", tok)
        self.error(f"expected {what} but found '{tok.lexeme}'", tok)

    def match(self, lexeme: str) -> bool:
        if self.tokens[self.pos].lexeme == lexeme:
            self.pos += 1
            return True
        return False

    def expect(self, lexeme: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.lexeme != lexeme:
            self.expected(f"'{lexeme}'")
        self.pos += 1
        return tok

    def expect_identifier(self, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "identifier":
            self.expected(what)
        self.pos += 1
        return tok

    # --- statements ---

    def parse_program(self) -> Program:
        statements = []
        while self.tokens[self.pos].kind != "eof":
            statements.append(self.parse_statement())
        return Program(statements, line=1)

    def parse_statement(self):
        lexeme = self.tokens[self.pos].lexeme
        if lexeme == "var":
            return self.parse_var()
        if lexeme == "function":
            # function expressions in statement position would be
            # ambiguous, so a leading 'function' is a declaration
            return self.parse_function_decl()
        if lexeme == "if":
            return self.parse_if()
        if lexeme == "while":
            return self.parse_while()
        if lexeme == "return":
            return self.parse_return()
        return self.parse_expression_statement()

    def parse_var(self) -> VarDecl:
        tok = self.take()
        name = self.expect_identifier("a variable name")
        self.expect("=")
        init = self.parse_expr()
        self.expect(";")
        return VarDecl(name.lexeme, init, line=tok.line)

    def parse_function_decl(self) -> FunctionDecl:
        tok = self.take()
        name = self.expect_identifier("a function name")
        params = self.parse_params()
        return FunctionDecl(name.lexeme, params, self.parse_function_body(),
                            line=tok.line)

    def parse_params(self) -> list:
        self.expect("(")
        params = []
        if not self.match(")"):
            params.append(self.expect_identifier("a parameter name").lexeme)
            while self.match(","):
                params.append(
                    self.expect_identifier("a parameter name").lexeme)
            self.expect(")")
        return params

    def parse_block(self) -> Block:
        open_tok = self.expect("{")
        statements = []
        while not self.match("}"):
            if self.tokens[self.pos].kind == "eof":
                self.expected("'}'")
            statements.append(self.parse_statement())
        return Block(statements, line=open_tok.line)

    def parse_if(self) -> If:
        tok = self.take()
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_block()
        otherwise = self.parse_block() if self.match("else") else None
        return If(cond, then, otherwise, line=tok.line)

    def parse_while(self) -> While:
        tok = self.take()
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_block()
        return While(cond, body, line=tok.line)

    def parse_return(self) -> Return:
        tok = self.take()
        if self.fn_depth == 0:
            self.error("'return' outside of a function", tok)
        value = None
        if not self.match(";"):
            value = self.parse_expr()
            self.expect(";")
        return Return(value, line=tok.line)

    def parse_expression_statement(self):
        expr = self.parse_expr()
        eq = self.tokens[self.pos]
        if self.match("="):
            value = self.parse_expr()
            self.expect(";")
            if isinstance(expr, Identifier):
                return Assign(expr.name, value, line=expr.line)
            if isinstance(expr, PropertyGet):
                return PropertySet(expr.obj, expr.key, expr.computed, value,
                                   line=expr.line)
            self.error("invalid assignment target", eq)
        self.expect(";")
        return ExprStmt(expr, line=expr.line)

    # --- expressions ---

    def parse_expr(self) -> Expr:
        self.nesting += 1
        if self.nesting > _MAX_NESTING:
            tok = self.tokens[self.pos]
            raise ParseError("expression nesting too deep",
                             tok.line, tok.column)
        try:
            return self.parse_conditional()
        finally:
            self.nesting -= 1

    def parse_conditional(self) -> Expr:
        cond = self.parse_binary(1)
        if self.match("?"):
            then = self.parse_conditional()
            self.expect(":")
            otherwise = self.parse_conditional()
            return Conditional(cond, then, otherwise, line=cond.line)
        return cond

    def parse_binary(self, min_level: int) -> Expr:
        """Precedence climbing: the longest left-associative run of binary
        operators of level min_level or tighter."""
        left = self.parse_unary()
        chain_op = None
        while True:
            op = self.tokens[self.pos].lexeme
            level = _LEVELS.get(op, 0)
            if level < min_level:
                return left
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
            right = self.parse_binary(level + 1)
            left = Binary(op, left, right, line=left.line)

    def parse_unary(self) -> Expr:
        tok = self.tokens[self.pos]
        op = tok.lexeme
        if op == "!" or op == "-":
            self.pos += 1
            self.nesting += 1
            if self.nesting > _MAX_NESTING:
                raise ParseError("expression nesting too deep",
                                 tok.line, tok.column)
            try:
                operand = self.parse_unary()
            finally:
                self.nesting -= 1
            return Unary(op, operand, line=tok.line)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_atom()
        while True:
            op = self.tokens[self.pos].lexeme
            if op == ".":
                self.pos += 1
                name = self.expect_identifier("a property name")
                if self.tokens[self.pos].lexeme == "(":
                    args = self.parse_args()
                    expr = MethodCall(expr, name.lexeme, False, args,
                                      line=expr.line)
                else:
                    expr = PropertyGet(expr, name.lexeme, False,
                                       line=expr.line)
            elif op == "[":
                self.pos += 1
                key = self.parse_expr()
                self.expect("]")
                if self.tokens[self.pos].lexeme == "(":
                    args = self.parse_args()
                    expr = MethodCall(expr, key, True, args, line=expr.line)
                else:
                    expr = PropertyGet(expr, key, True, line=expr.line)
            elif op == "(":
                args = self.parse_args()
                expr = Call(expr, args, line=expr.line)
            else:
                return expr

    def parse_args(self) -> list:
        self.expect("(")
        args = []
        if not self.match(")"):
            args.append(self.parse_expr())
            while self.match(","):
                args.append(self.parse_expr())
            self.expect(")")
        return args

    def parse_atom(self) -> Expr:
        if self.tokens[self.pos].lexeme == "new":
            tok = self.take()
            callee = self.parse_member_chain()
            if self.tokens[self.pos].lexeme != "(":
                self.error("expected '(' after the constructed value",
                           self.tokens[self.pos])
            args = self.parse_args()
            return New(callee, args, line=tok.line)
        return self.parse_primary()

    def parse_member_chain(self) -> Expr:
        # The operand of 'new': a primary plus property accesses, with no
        # call arguments so the trailing '(' belongs to the construction.
        expr = self.parse_primary()
        while True:
            if self.match("."):
                name = self.expect_identifier("a property name")
                expr = PropertyGet(expr, name.lexeme, False, line=expr.line)
            elif self.match("["):
                key = self.parse_expr()
                self.expect("]")
                expr = PropertyGet(expr, key, True, line=expr.line)
            else:
                return expr

    def parse_primary(self) -> Expr:
        tok = self.tokens[self.pos]
        kind, lexeme = tok.kind, tok.lexeme
        if kind == "number":
            self.pos += 1
            return NumberLit(float(lexeme), line=tok.line)
        if kind == "string":
            self.pos += 1
            return StringLit(decode_string_lexeme(lexeme), line=tok.line)
        if kind == "identifier":
            self.pos += 1
            return Identifier(lexeme, line=tok.line)
        if lexeme == "true" or lexeme == "false":
            self.pos += 1
            return BoolLit(lexeme == "true", line=tok.line)
        if lexeme == "null":
            self.pos += 1
            return NullLit(line=tok.line)
        if lexeme == "undefined":
            self.pos += 1
            return UndefinedLit(line=tok.line)
        if lexeme == "function":
            return self.parse_function_expr()
        if lexeme == "(":
            self.pos += 1
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if lexeme == "{":
            return self.parse_object_literal()
        self.expected("an expression")

    def parse_function_expr(self) -> FunctionExpr:
        tok = self.take()
        params = self.parse_params()
        return FunctionExpr(params, self.parse_function_body(), line=tok.line)

    def parse_function_body(self) -> Block:
        self.fn_depth += 1
        try:
            return self.parse_block()
        finally:
            self.fn_depth -= 1

    def parse_object_literal(self) -> ObjectLit:
        tok = self.take()
        entries = []
        if not self.match("}"):
            entries.append(self.parse_object_entry())
            while self.match(","):
                entries.append(self.parse_object_entry())
            self.expect("}")
        return ObjectLit(entries, line=tok.line)

    def parse_object_entry(self):
        tok = self.tokens[self.pos]
        if tok.kind in ("identifier", "keyword"):
            key = tok.lexeme
        elif tok.kind == "string":
            key = decode_string_lexeme(tok.lexeme)
        elif tok.kind == "number":
            value = float(tok.lexeme)
            key = str(int(value)) if value == int(value) else tok.lexeme
        else:
            self.expected("a property key")
        self.pos += 1
        self.expect(":")
        return (key, self.parse_expr())


def parse(tokens: list[Token]) -> Program:
    return _Parser(tokens).parse_program()


def parse_source(source: str) -> Program:
    return parse(tokenize(source))


def parse_expression(source: str) -> Expr:
    """Parse a single expression with nothing trailing (REPL helper)."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expr()
    leftover = parser.tokens[parser.pos]
    if leftover.kind != "eof":
        parser.error(f"unexpected '{leftover.lexeme}' after the expression",
                     leftover)
    return expr
