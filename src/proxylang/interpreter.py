"""Tree-walking evaluator and the embedding API.

An Interpreter owns a heap, a global environment with the builtins, an
equality mode, an output sink, and the dynamic transparency override
stack. Programs run via evaluate_program, which captures runtime errors
in an ExecutionResult instead of letting them escape; static errors
(LexError, ParseError) raise from parse_source before anything runs.
"""

import io
import math
from dataclasses import dataclass
from typing import Optional

from ._stacklimit import ensure_deep_stack
from .errors import (ContractViolation, LangReferenceError, LangTypeError,
                     PlxRuntimeError, StackOverflow)
from .nodes import (Assign, Binary, Block, BoolLit, Call, Conditional,
                    ExprStmt, FunctionDecl, FunctionExpr, Identifier, If,
                    MethodCall, New, NullLit, NumberLit, ObjectLit, Program,
                    PropertyGet, PropertySet, Return, StringLit,
                    UndefinedLit, Unary, VarDecl, While)
from .objects import (NULL, UNDEFINED, FunctionRecord, Heap, NativeFunction,
                      ObjectRef, OrdinaryObject, internal_call, internal_get,
                      internal_set, is_callable, kind_of, render_value,
                      to_property_key, truthy)
from .parser import parse_source
from .proxies import (proxy_create, revoke, unpack_args_object,
                      with_transparency)
from .equality import (EqualityMode, builtin_is_equal, builtin_is_identical,
                       loose_equals, opaque_loose_equals,
                       opaque_strict_equals, strict_equals)
from .weakmap import create_weakmap

MAX_CALL_DEPTH = 1024


class ReturnSignal(Exception):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Environment:
    __slots__ = ("bindings", "parent")

    def __init__(self, parent=None):
        self.bindings: dict = {}
        self.parent = parent

    def declare(self, name: str, value) -> None:
        self.bindings[name] = value

    def lookup(self, name: str):
        env = self
        while env is not None:
            if name in env.bindings:
                return env.bindings[name]
            env = env.parent
        raise LangReferenceError(f"'{name}' is not defined")

    def assign(self, name: str, value) -> None:
        env = self
        while env is not None:
            if name in env.bindings:
                env.bindings[name] = value
                return
            env = env.parent
        raise LangReferenceError(f"'{name}' is not defined")


@dataclass
class ExecutionResult:
    status: str  # "ok" | "error"
    error_kind: Optional[str]
    error_message: Optional[str]
    error_line: Optional[int]
    output: str

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class Interpreter:
    def __init__(self, mode=EqualityMode.OPAQUE, sink=None):
        ensure_deep_stack()
        if isinstance(mode, str):
            mode = EqualityMode(mode)
        self.mode = mode
        self.heap = Heap()
        self.sink = sink if sink is not None else io.StringIO()
        self.override_stack: list = []  # (proxy heap index, bool), LIFO
        self.depth = 0
        self.globals = Environment()
        self._proxy_builtin_index = -1
        _install_builtins(self)

    # --- output ---

    def write(self, text: str) -> None:
        self.sink.write(text)

    def output_text(self) -> str:
        getvalue = getattr(self.sink, "getvalue", None)
        return getvalue() if getvalue else ""

    # --- allocation helpers ---

    def alloc_native(self, name: str, fn) -> ObjectRef:
        return self.heap.alloc(OrdinaryObject(
            function=NativeFunction(name, fn)))

    def alloc_function(self, record: FunctionRecord) -> ObjectRef:
        return self.heap.alloc(OrdinaryObject(function=record))

    # --- calls ---

    def call_value(self, value, this_value, args):
        if not isinstance(value, ObjectRef):
            raise LangTypeError(f"{kind_of(value)} is not callable")
        return internal_call(self, value, this_value, args)

    def invoke(self, record, this_value, args):
        """Run a FunctionRecord or NativeFunction as one call frame."""
        if self.depth >= MAX_CALL_DEPTH:
            raise StackOverflow(
                f"call stack exceeded {MAX_CALL_DEPTH} frames")
        self.depth += 1
        try:
            if isinstance(record, NativeFunction):
                result = record.fn(self, this_value, args)
                return UNDEFINED if result is None else result
            env = Environment(record.env)
            for i, param in enumerate(record.params):
                env.declare(param, args[i] if i < len(args) else UNDEFINED)
            try:
                for stmt in record.body.statements:
                    self.exec_stmt(stmt, env)
            except ReturnSignal as signal:
                return signal.value
            return UNDEFINED
        finally:
            self.depth -= 1

    # --- program execution ---

    def exec_program(self, program: Program) -> None:
        for stmt in program.statements:
            self.exec_stmt(stmt, self.globals)

    def exec_toplevel(self, stmt):
        return self.exec_stmt(stmt, self.globals)

    def eval_toplevel(self, expr):
        return self.eval_expr(expr, self.globals)

    def exec_stmt(self, stmt, env):
        try:
            return self._exec(stmt, env)
        except PlxRuntimeError as err:
            if err.line is None and getattr(stmt, "line", 0):
                err.line = stmt.line
            raise

    def _exec(self, stmt, env):
        if isinstance(stmt, ExprStmt):
            return self.eval_expr(stmt.expr, env)
        if isinstance(stmt, VarDecl):
            env.declare(stmt.name, self.eval_expr(stmt.init, env))
            return None
        if isinstance(stmt, Assign):
            env.assign(stmt.name, self.eval_expr(stmt.value, env))
            return None
        if isinstance(stmt, PropertySet):
            self._exec_property_set(stmt, env)
            return None
        if isinstance(stmt, If):
            if truthy(self.eval_expr(stmt.cond, env)):
                self._exec_block(stmt.then, env)
            elif stmt.otherwise is not None:
                self._exec_block(stmt.otherwise, env)
            return None
        if isinstance(stmt, While):
            while truthy(self.eval_expr(stmt.cond, env)):
                self._exec_block(stmt.body, env)
            return None
        if isinstance(stmt, Return):
            value = UNDEFINED if stmt.value is None \
                else self.eval_expr(stmt.value, env)
            raise ReturnSignal(value)
        if isinstance(stmt, FunctionDecl):
            record = FunctionRecord(stmt.params, stmt.body, env, stmt.name)
            env.declare(stmt.name, self.alloc_function(record))
            return None
        if isinstance(stmt, Block):
            self._exec_block(stmt, env)
            return None
        raise TypeError(f"not a statement node: {stmt!r}")

    def _exec_block(self, block: Block, env) -> None:
        child = Environment(env)
        for stmt in block.statements:
            self.exec_stmt(stmt, child)

    def _exec_property_set(self, stmt: PropertySet, env) -> None:
        obj = self.eval_expr(stmt.obj, env)
        if not isinstance(obj, ObjectRef):
            raise LangTypeError(
                f"cannot set a property on {kind_of(obj)}",
                line=stmt.line)
        key = stmt.key if not stmt.computed \
            else to_property_key(self.eval_expr(stmt.key, env))
        value = self.eval_expr(stmt.value, env)
        internal_set(self, obj, key, value, obj)

    # --- expression evaluation ---

    def eval_expr(self, node, env):
        try:
            return self._eval(node, env)
        except PlxRuntimeError as err:
            if err.line is None and getattr(node, "line", 0):
                err.line = node.line
            raise

    def _eval(self, node, env):
        if isinstance(node, NumberLit):
            return node.value
        if isinstance(node, StringLit):
            return node.value
        if isinstance(node, BoolLit):
            return node.value
        if isinstance(node, NullLit):
            return NULL
        if isinstance(node, UndefinedLit):
            return UNDEFINED
        if isinstance(node, Identifier):
            return env.lookup(node.name)
        if isinstance(node, Binary):
            return self._eval_binary(node, env)
        if isinstance(node, PropertyGet):
            obj = self.eval_expr(node.obj, env)
            if not isinstance(obj, ObjectRef):
                raise LangTypeError(
                    f"cannot read a property of {kind_of(obj)}")
            key = node.key if not node.computed \
                else to_property_key(self.eval_expr(node.key, env))
            return internal_get(self, obj, key, obj)
        if isinstance(node, Call):
            callee = self.eval_expr(node.callee, env)
            args = [self.eval_expr(a, env) for a in node.args]
            return self.call_value(callee, UNDEFINED, args)
        if isinstance(node, MethodCall):
            obj = self.eval_expr(node.obj, env)
            if not isinstance(obj, ObjectRef):
                raise LangTypeError(
                    f"cannot call a method of {kind_of(obj)}")
            key = node.key if not node.computed \
                else to_property_key(self.eval_expr(node.key, env))
            method = internal_get(self, obj, key, obj)
            args = [self.eval_expr(a, env) for a in node.args]
            return self.call_value(method, obj, args)
        if isinstance(node, ObjectLit):
            props = {}
            for key, value_expr in node.entries:
                props[key] = self.eval_expr(value_expr, env)
            return self.heap.alloc_object(props)
        if isinstance(node, FunctionExpr):
            return self.alloc_function(
                FunctionRecord(node.params, node.body, env))
        if isinstance(node, Unary):
            if node.op == "!":
                return not truthy(self.eval_expr(node.operand, env))
            value = self.eval_expr(node.operand, env)
            if not isinstance(value, float):
                raise LangTypeError(
                    f"unary '-' needs a number, not {kind_of(value)}")
            return -value
        if isinstance(node, Conditional):
            if truthy(self.eval_expr(node.cond, env)):
                return self.eval_expr(node.then, env)
            return self.eval_expr(node.otherwise, env)
        if isinstance(node, New):
            return self._eval_new(node, env)
        raise TypeError(f"not an expression node: {node!r}")

    def _eval_new(self, node: New, env):
        callee = self.eval_expr(node.callee, env)
        if not (isinstance(callee, ObjectRef)
                and callee.index == self._proxy_builtin_index):
            raise LangTypeError("'new' can only construct Proxy")
        if len(node.args) != 2:
            raise LangTypeError("new Proxy takes a target and a handler")
        target = self.eval_expr(node.args[0], env)
        handler = self.eval_expr(node.args[1], env)
        return proxy_create(self, target, handler)

    def _eval_binary(self, node: Binary, env):
        op = node.op
        if op == "&&":
            left = self.eval_expr(node.left, env)
            return self.eval_expr(node.right, env) if truthy(left) else left
        if op == "||":
            left = self.eval_expr(node.left, env)
            return left if truthy(left) else self.eval_expr(node.right, env)

        left = self.eval_expr(node.left, env)
        right = self.eval_expr(node.right, env)

        if op == "==":
            return loose_equals(self, left, right)
        if op == "!=":
            return not loose_equals(self, left, right)
        if op == "===":
            return strict_equals(self, left, right)
        if op == "!==":
            return not strict_equals(self, left, right)
        if op == ":==:":
            return opaque_loose_equals(self, left, right)
        if op == ":===:":
            return opaque_strict_equals(self, left, right)

        if op == "+":
            if isinstance(left, str) or isinstance(right, str):
                if isinstance(left, ObjectRef) or isinstance(right, ObjectRef):
                    raise LangTypeError(
                        "cannot concatenate an object with a string")
                left_text = left if isinstance(left, str) \
                    else render_value(left)
                right_text = right if isinstance(right, str) \
                    else render_value(right)
                return left_text + right_text
            self._require_numbers(op, left, right)
            return left + right
        if op in ("-", "*", "/"):
            self._require_numbers(op, left, right)
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            return self._divide(left, right)
        if op in ("<", "<=", ">", ">="):
            if isinstance(left, str) and isinstance(right, str):
                pass
            else:
                self._require_numbers(op, left, right)
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            return left >= right
        raise TypeError(f"unknown operator {op!r}")

    @staticmethod
    def _require_numbers(op, left, right) -> None:
        if not isinstance(left, float) or not isinstance(right, float):
            bad = right if isinstance(left, float) else left
            raise LangTypeError(
                f"'{op}' needs numbers, not {kind_of(bad)}")

    @staticmethod
    def _divide(left: float, right: float) -> float:
        if right == 0.0:
            if left != left or left == 0.0:
                return math.nan
            sign = math.copysign(1.0, left) * math.copysign(1.0, right)
            return math.inf * sign
        return left / right


# --- builtins ---

def _arg(args, i):
    return args[i] if i < len(args) else UNDEFINED


def _builtin_print(interp, this, args):
    interp.write(" ".join(render_value(a) for a in args) + "\n")
    return UNDEFINED


def _builtin_typeof(interp, this, args):
    return kind_of(_arg(args, 0))


def _builtin_contract_violation(interp, this, args):
    message = _arg(args, 0)
    text = message if isinstance(message, str) else render_value(message)
    raise ContractViolation(text)


def _builtin_weakmap(interp, this, args):
    return create_weakmap(interp)


def _builtin_raw_weakmap(interp, this, args):
    return create_weakmap(interp, raw=True)


def _builtin_reflect_apply(interp, this, args):
    fn = _arg(args, 0)
    this_value = _arg(args, 1)
    args_obj = _arg(args, 2)
    if not is_callable(interp.heap, fn):
        raise LangTypeError("Reflect.apply needs a callable")
    return interp.call_value(
        fn, this_value, unpack_args_object(interp, args_obj))


def _builtin_proxy_revoke(interp, this, args):
    revoke(interp, _arg(args, 0))
    return UNDEFINED


def _builtin_proxy_is_equal(interp, this, args):
    return builtin_is_equal(interp, _arg(args, 0), _arg(args, 1))


def _builtin_proxy_is_identical(interp, this, args):
    return builtin_is_identical(interp, _arg(args, 0), _arg(args, 1))


def _builtin_with_transparency(interp, this, args):
    return with_transparency(interp, _arg(args, 0), _arg(args, 1),
                             _arg(args, 2))


def _install_builtins(interp: Interpreter) -> None:
    g = interp.globals
    g.declare("print", interp.alloc_native("print", _builtin_print))
    g.declare("typeofValue",
              interp.alloc_native("typeofValue", _builtin_typeof))
    g.declare("contractViolation",
              interp.alloc_native("contractViolation",
                                  _builtin_contract_violation))
    g.declare("WeakMap", interp.alloc_native("WeakMap", _builtin_weakmap))
    g.declare("RawWeakMap",
              interp.alloc_native("RawWeakMap", _builtin_raw_weakmap))

    reflect = interp.heap.alloc_object({
        "apply": interp.alloc_native("apply", _builtin_reflect_apply),
    })
    g.declare("Reflect", reflect)

    proxy = interp.heap.alloc_object({
        "revoke": interp.alloc_native("revoke", _builtin_proxy_revoke),
        "isEqual": interp.alloc_native("isEqual", _builtin_proxy_is_equal),
        "isIdentical": interp.alloc_native("isIdentical",
                                           _builtin_proxy_is_identical),
        "withTransparency": interp.alloc_native(
            "withTransparency", _builtin_with_transparency),
    })
    interp._proxy_builtin_index = proxy.index
    g.declare("Proxy", proxy)


# --- embedding API ---

def evaluate_program(program: Program, interp: Interpreter) \
        -> ExecutionResult:
    """Run a parsed program, capturing runtime errors in the result.

    Host recursion that outruns Python's limit (say, a trap-less
    forwarding chain far deeper than any call stack) comes back as a
    StackOverflow; the unwinding has restored the call depth and the
    override stack, so the interpreter stays usable."""
    try:
        interp.exec_program(program)
    except PlxRuntimeError as err:
        return ExecutionResult("error", err.kind, err.message, err.line,
                               interp.output_text())
    except RecursionError:
        return ExecutionResult("error", StackOverflow.kind,
                               "host recursion limit exceeded", None,
                               interp.output_text())
    return ExecutionResult("ok", None, None, None, interp.output_text())


def run_source(source: str, *, mode=EqualityMode.OPAQUE,
               prelude_source: Optional[str] = None,
               sink=None) -> ExecutionResult:
    """Parse and run a script. Static errors raise; runtime errors are
    captured in the result. The prelude, when given, runs first in the
    same interpreter."""
    program = parse_source(source)
    interp = Interpreter(mode=mode, sink=sink)
    if prelude_source:
        prelude_result = evaluate_program(parse_source(prelude_source),
                                          interp)
        if not prelude_result.ok:
            return prelude_result
    return evaluate_program(program, interp)
