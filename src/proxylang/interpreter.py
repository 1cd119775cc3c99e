"""Tree-walking evaluator and the embedding API.

An Interpreter owns a global environment with the builtins, an equality
mode and its resolver, an output sink, the dynamic transparency override
stack, and an allocation counter. Objects are their own references, freed
by reference counting once unreachable; run_source says what is left to
the host's cyclic collector.

One run path: every program (a script, the prelude, each REPL
statement) runs through evaluate_program, which runs the top-level
statements itself and gives an ExecutionResult holding the output, the
last expression statement's value, and any runtime error. It is the one
error boundary: the only place a host RecursionError or MemoryError is
caught and mapped, to StackOverflow or ResourceError. Static errors
(LexError, ParseError) raise from parse_source before anything runs.

Nodes run themselves: an expression by node.evaluate(interp, env), a
statement by node.execute(interp, env). Each is a handler of (node,
interp, env) written here, listed in _EVAL or _EXEC, and installed on its
node class when this module loads, so a node costs one method call and
nodes.py holds no evaluation. A Block or a Program has neither method;
their statements run in a loop. Each Binary is built with its operator on
two numbers and with the value of a number literal on its right (see
nodes.py), so _binary answers two numbers itself, for every operator but
&& and ||, equality included, and reads such a literal from the node
without a frame; every other pair of operands goes through _BINARY, whose
equality entries look up the functions of equality.py when called. _if
and _while take a bool condition as it is. A computed key that is already
a string is used as it is. An error takes the line of the innermost node
that raises it, so only the handlers of nodes that can raise one tag it.

Calls: Interpreter.call_value is the entry for calling a value, from the
evaluator, a trap, a builtin or the host (OrdinaryObject.call and
ProxyObject.call lead back to it), and Interpreter.invoke is the one
frame of a language call: it binds the parameters in a loop and runs the
body itself, a return among the body's direct statements included. So
`return f(n - 1) + 1` recurses through 4 host frames a level: _binary,
_call, call_value and invoke. One caller skips call_value: a trap-mode
vote whose isTransparent trap is an ordinary function object enters
invoke directly (proxies.is_transparent), as it runs at every link of a
chain for every equality decision. A vote through a trap whose body is
one `return true;` or `return false;` skips invoke too, below
MAX_CALL_DEPTH: its node's constant is the vote (see nodes.py), and it
is not charged as a call. A builtin enters no helper frame under invoke.

Scopes: a call runs its body in a fresh Environment holding the
parameters only if its node is scoped (a direct statement of the
body declares, or a name in it reads or assigns a parameter; see
nodes.py), and otherwise in the function's closure scope; an if or while
block gets one only if Block.scoped (a direct statement is a var or
function declaration). Skipping one changes no result: only _var_decl
and _function_decl declare into the current scope, and hosts declare on
globals, so a skipped Environment would hold nothing that a name of the
body reaches, and every lookup, assignment and closure would pass
through it. So `function(t, p) { return true; }`, the usual
isTransparent trap, builds no scope when it votes. Every scope is built
without an __init__ (see Environment). Name reads and assignments walk the
chain in their handlers, and declarations write its bindings;
Environment.lookup and declare are the host's.
"""

import io
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import (MAX_CALL_DEPTH, ContractViolation, LangReferenceError,
                     LangTypeError, PlxRuntimeError, ResourceError,
                     StackOverflow)
from .nodes import (Assign, Binary, BoolLit, Call, Conditional, ExprStmt,
                    FunctionDecl, FunctionExpr, Identifier, If, MethodCall,
                    New, NullLit, NumberLit, ObjectLit, Program, PropertyGet,
                    PropertySet, Return, StringLit, UndefinedLit, Unary,
                    VarDecl, While)
from .objects import (NULL, NUMBER_OPERATORS, UNDEFINED, FunctionRecord,
                      Heap, HeapObject, NativeFunction, OrdinaryObject,
                      kind_of, render_value, to_property_key, truthy)
from .parser import ensure_recursion_limit, parse_source
from .proxies import (get_equality_object, is_callable, look_through,
                      proxy_create, revoke, unpack_args_object,
                      with_transparency)
from .equality import (EqualityMode, builtin_is_equal, builtin_is_identical,
                       loose_equals, opaque_loose_equals,
                       opaque_strict_equals, strict_equals)
from .weakmap import create_weakmap

# each mode's resolver of a proxy operand of == and === or WeakMap key
_RESOLVERS = {EqualityMode.OPAQUE: None,
              EqualityMode.TRANSPARENT: look_through,
              EqualityMode.TRAP: get_equality_object}


class Environment:
    """A scope: its own bindings, a dict kept as given, and the enclosing
    scope, or None for globals. It has no __init__, which would cost every
    call a host frame: each scope is built as `env = Environment()`, then
    both slots are set."""
    __slots__ = ("bindings", "parent")

    def declare(self, name: str, value) -> None:
        self.bindings[name] = value

    def lookup(self, name: str):
        env = self
        while env is not None:
            if name in env.bindings:
                return env.bindings[name]
            env = env.parent
        raise LangReferenceError(f"'{name}' is not defined")


@dataclass
class ExecutionResult:
    status: str  # "ok" | "error"
    error_kind: Optional[str]
    error_message: Optional[str]
    error_line: Optional[int]
    output: str
    # the last statement's value if it is an expression statement
    value: object = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class Interpreter:
    def __init__(self, mode=EqualityMode.OPAQUE, sink=None):
        ensure_recursion_limit()
        self.mode = EqualityMode(mode)
        self.resolve = _RESOLVERS[self.mode]
        self.heap = Heap()
        self.sink = sink if sink is not None else io.StringIO()
        self.override_stack: list = []  # (proxy, bool), LIFO
        self.depth = 0
        self.globals = Environment()
        self.globals.bindings = {}
        self.globals.parent = None
        self._proxy_builtin = _install_builtins(self)

    # --- output ---

    def output_text(self) -> str:
        getvalue = getattr(self.sink, "getvalue", None)
        return getvalue() if getvalue else ""

    # --- allocation helpers ---

    def alloc_native(self, name: str, fn) -> OrdinaryObject:
        return self.heap.alloc(OrdinaryObject(
            function=NativeFunction(name, fn)))

    def alloc_function(self, record: FunctionRecord) -> OrdinaryObject:
        return self.heap.alloc(OrdinaryObject(function=record))

    # --- calls ---

    def call_value(self, value, this_value, args):
        """Call a language value: the one entry for every call."""
        if value.__class__ is OrdinaryObject:
            if value.function is None:
                raise LangTypeError("object is not callable")
            return self.invoke(value.function, this_value, args)
        if not isinstance(value, HeapObject):
            raise LangTypeError(f"{kind_of(value)} is not callable")
        return value.call(self, this_value, args)

    def invoke(self, record, this_value, args):
        """Run a FunctionRecord or NativeFunction as one call frame, the
        one host frame of every language call. A call that would pass
        MAX_CALL_DEPTH raises StackOverflow before it is counted. If the
        FunctionExpr record.node is scoped, the parameters are bound in one
        pass in order, so a missing argument is undefined, an extra one is
        ignored, and a repeated name takes its last position, in a scope
        built without an __init__ frame; otherwise the body can observe no
        scope of its own (see nodes.py) and runs in record.env. The body
        runs here, not in a helper, which would be another frame, and a
        return among its statements ends the call here, without _return;
        _if and _while run their blocks inline too."""
        if self.depth >= MAX_CALL_DEPTH:
            raise StackOverflow(
                f"call stack exceeded {MAX_CALL_DEPTH} frames")
        self.depth += 1
        try:
            if record.__class__ is NativeFunction:
                result = record.fn(self, this_value, args)
                return UNDEFINED if result is None else result
            node = record.node
            if node.scoped:
                # one pass in order, so a repeated name takes its last
                # position; a loop, as 3.11's zip() has no fast constructor
                bindings = {}
                count = len(args)
                i = 0
                for param in node.params:
                    bindings[param] = args[i] if i < count else UNDEFINED
                    i += 1
                env = Environment()
                env.bindings = bindings
                env.parent = record.env
            else:
                env = record.env
            for stmt in node.body.statements:
                if stmt.__class__ is Return:
                    value = stmt.value
                    return UNDEFINED if value is None \
                        else value.evaluate(self, env)
                returned = stmt.execute(self, env)
                if returned is not None:
                    return returned[0]
            return UNDEFINED
        finally:
            self.depth -= 1


# --- statement handlers: (node, interp, env) -> None | (return value,) ---

def _at(err, node):
    """Give an error the node's line, unless an inner node gave it one."""
    if err.line is None:
        err.line = node.line
    return err


def _expr_stmt(node, interp, env):
    node.expr.evaluate(interp, env)


def _var_decl(node, interp, env):
    env.bindings[node.name] = node.init.evaluate(interp, env)


def _assign(node, interp, env):
    value = node.value.evaluate(interp, env)
    name = node.name
    while env is not None:
        if name in env.bindings:
            env.bindings[name] = value
            return
        env = env.parent
    raise LangReferenceError(f"'{name}' is not defined", line=node.line)


def _property_set(node, interp, env):
    try:
        obj = node.obj.evaluate(interp, env)
        if not isinstance(obj, HeapObject):
            raise LangTypeError(f"cannot set a property on {kind_of(obj)}")
        key = node.key
        if node.computed:
            key = key.evaluate(interp, env)
            if key.__class__ is not str:
                key = to_property_key(key)
        obj.set(interp, key, node.value.evaluate(interp, env))
    except PlxRuntimeError as err:
        raise _at(err, node)


def _if(node, interp, env):
    test = node.cond.evaluate(interp, env)
    # a comparison gives a bool, which needs no truthy call
    if test.__class__ is not bool:
        test = truthy(test)
    block = node.then if test else node.otherwise
    if block is not None:
        if block.scoped:
            outer = env
            env = Environment()
            env.bindings = {}
            env.parent = outer
        for stmt in block.statements:
            returned = stmt.execute(interp, env)
            if returned is not None:
                return returned


def _while(node, interp, env):
    cond = node.cond
    scoped = node.body.scoped
    statements = node.body.statements
    inner = env
    while True:
        test = cond.evaluate(interp, env)
        # a comparison gives a bool, which needs no truthy call
        if test is not True and (test is False or not truthy(test)):
            return None
        if scoped:
            inner = Environment()
            inner.bindings = {}
            inner.parent = env
        for stmt in statements:
            returned = stmt.execute(interp, inner)
            if returned is not None:
                return returned


def _return(node, interp, env):
    value = node.value
    return (UNDEFINED,) if value is None else (value.evaluate(interp, env),)


def _function_decl(node, interp, env):
    env.bindings[node.name] = interp.alloc_function(
        FunctionRecord(node.function, env))


_EXEC = {ExprStmt: _expr_stmt, VarDecl: _var_decl, Assign: _assign,
         PropertySet: _property_set, If: _if, While: _while,
         Return: _return, FunctionDecl: _function_decl}


# --- expression handlers: (node, interp, env) -> value ---

def _literal(node, interp, env):
    return node.value


def _identifier(node, interp, env):
    name = node.name
    while env is not None:
        if name in env.bindings:
            return env.bindings[name]
        env = env.parent
    raise LangReferenceError(f"'{name}' is not defined", line=node.line)


def _binary(node, interp, env):
    on_numbers = node.on_numbers
    try:
        left = node.left.evaluate(interp, env)
        if on_numbers is None:
            # && stops at a falsy left operand, || at a truthy one
            if truthy(left) == (node.op == "||"):
                return left
            return node.right.evaluate(interp, env)
        # a number literal on the right is read from the node, unevaluated
        right = node.literal
        if right is None:
            right = node.right.evaluate(interp, env)
        if left.__class__ is float and right.__class__ is float:
            return on_numbers(left, right)
        return _BINARY[node.op](interp, left, right)
    except PlxRuntimeError as err:
        raise _at(err, node)


def _property_get(node, interp, env):
    try:
        obj = node.obj.evaluate(interp, env)
        if not isinstance(obj, HeapObject):
            raise LangTypeError(f"cannot read a property of {kind_of(obj)}")
        key = node.key
        if node.computed:
            key = key.evaluate(interp, env)
            if key.__class__ is not str:
                key = to_property_key(key)
        return obj.get(interp, key)
    except PlxRuntimeError as err:
        raise _at(err, node)


def _call(node, interp, env):
    try:
        callee = node.callee.evaluate(interp, env)
        # a loop, not a list comprehension, which on Python 3.11 runs in
        # a host frame of its own
        args = []
        for expr in node.args:
            args.append(expr.evaluate(interp, env))
        return interp.call_value(callee, UNDEFINED, args)
    except PlxRuntimeError as err:
        raise _at(err, node)


def _method_call(node, interp, env):
    try:
        obj = node.obj.evaluate(interp, env)
        if not isinstance(obj, HeapObject):
            raise LangTypeError(f"cannot call a method of {kind_of(obj)}")
        key = node.key
        if node.computed:
            key = key.evaluate(interp, env)
            if key.__class__ is not str:
                key = to_property_key(key)
        method = obj.get(interp, key)
        args = []
        for expr in node.args:
            args.append(expr.evaluate(interp, env))
        return interp.call_value(method, obj, args)
    except PlxRuntimeError as err:
        raise _at(err, node)


def _object_lit(node, interp, env):
    # a loop, not a dict comprehension, which would be a host frame
    properties = {}
    for key, value in node.entries:
        properties[key] = value.evaluate(interp, env)
    return interp.heap.alloc(OrdinaryObject(properties))


def _function_expr(node, interp, env):
    return interp.alloc_function(FunctionRecord(node, env))


def _unary(node, interp, env):
    value = node.operand.evaluate(interp, env)
    if node.op == "!":
        return not truthy(value)
    if value.__class__ is not float:
        raise LangTypeError(
            f"unary '-' needs a number, not {kind_of(value)}",
            line=node.line)
    return -value


def _conditional(node, interp, env):
    branch = node.then if truthy(node.cond.evaluate(interp, env)) \
        else node.otherwise
    return branch.evaluate(interp, env)


def _new(node, interp, env):
    try:
        callee = node.callee.evaluate(interp, env)
        if callee is not interp._proxy_builtin:
            raise LangTypeError("'new' can only construct Proxy")
        if len(node.args) != 2:
            raise LangTypeError("new Proxy takes a target and a handler")
        target, handler = node.args
        return proxy_create(interp, target.evaluate(interp, env),
                            handler.evaluate(interp, env))
    except PlxRuntimeError as err:
        raise _at(err, node)


_EVAL = {NumberLit: _literal, StringLit: _literal, BoolLit: _literal,
         NullLit: lambda node, interp, env: NULL,
         UndefinedLit: lambda node, interp, env: UNDEFINED,
         Identifier: _identifier, Binary: _binary,
         PropertyGet: _property_get, Call: _call, MethodCall: _method_call,
         ObjectLit: _object_lit, FunctionExpr: _function_expr,
         Unary: _unary, Conditional: _conditional, New: _new}

# install each handler as its node class's evaluate or execute method
for _table, _method in ((_EXEC, "execute"), (_EVAL, "evaluate")):
    for _node_class, _handler in _table.items():
        setattr(_node_class, _method, _handler)


# --- binary operators: (interp, left value, right value) -> value ---

def _not_numbers(op, left, right):
    bad = right if left.__class__ is float else left
    return LangTypeError(f"'{op}' needs numbers, not {kind_of(bad)}")


def _plus(interp, left, right):
    if left.__class__ is str and right.__class__ is str:
        return left + right
    if isinstance(left, str) or isinstance(right, str):
        if isinstance(left, HeapObject) or isinstance(right, HeapObject):
            raise LangTypeError("cannot concatenate an object with a string")
        return render_value(left) + render_value(right)
    raise _not_numbers("+", left, right)


def _operator(op):
    """op on operands that are not two numbers: an order compares two
    strings, and anything else is an error."""
    compare = NUMBER_OPERATORS[op] if op[0] in "<>" else None

    def operate(interp, left, right):
        if compare and left.__class__ is str and right.__class__ is str:
            return compare(left, right)
        raise _not_numbers(op, left, right)
    return operate


# each operator on operands that are not two numbers, which _binary
# answers itself; the equality functions are looked up when called, not
# bound here, so that a host can wrap them in this module (as a tracer does)
_BINARY = {
    "==": lambda interp, a, b: loose_equals(interp, a, b),
    "!=": lambda interp, a, b: not loose_equals(interp, a, b),
    "===": lambda interp, a, b: strict_equals(interp, a, b),
    "!==": lambda interp, a, b: not strict_equals(interp, a, b),
    ":==:": lambda interp, a, b: opaque_loose_equals(interp, a, b),
    ":===:": lambda interp, a, b: opaque_strict_equals(interp, a, b),
    "+": _plus,
    "-": _operator("-"),
    "*": _operator("*"),
    "/": _operator("/"),
    "<": _operator("<"),
    "<=": _operator("<="),
    ">": _operator(">"),
    ">=": _operator(">="),
}


# --- builtins ---

def _builtin_print(interp, this, args):
    # a loop, not map(render_value, args), which enters a frame a value
    texts = []
    for value in args:
        if value.__class__ is bool:
            value = "true" if value else "false"
        elif value.__class__ is not str:
            value = render_value(value)
        texts.append(value)
    interp.sink.write(" ".join(texts) + "\n")
    return UNDEFINED


def _builtin_typeof(interp, this, args):
    return kind_of(args[0] if args else UNDEFINED)


def _builtin_contract_violation(interp, this, args):
    message = args[0] if args else UNDEFINED
    text = message if isinstance(message, str) else render_value(message)
    raise ContractViolation(text)


def _builtin_reflect_apply(interp, this, args):
    fn = args[0] if args else UNDEFINED
    this_value = args[1] if len(args) > 1 else UNDEFINED
    args_obj = args[2] if len(args) > 2 else UNDEFINED
    if not is_callable(fn):
        raise LangTypeError("Reflect.apply needs a callable")
    return interp.call_value(
        fn, this_value, unpack_args_object(interp, args_obj))


def _install_builtins(interp: Interpreter) -> OrdinaryObject:
    """Declare the builtins; give the Proxy object, which 'new' accepts.

    A global is a native, or an object of native members. The table is
    read per interpreter, and its entries look their targets up in this
    module when called, so that a host can wrap them here (as a tracer
    does). A native reads its i-th argument inline: args[i], or undefined
    when fewer were passed."""
    table = {
        "print": _builtin_print,
        "typeofValue": _builtin_typeof,
        "contractViolation": _builtin_contract_violation,
        "WeakMap": lambda interp, this, args: create_weakmap(interp),
        "RawWeakMap":
            lambda interp, this, args: create_weakmap(interp, raw=True),
        "Reflect": {"apply": _builtin_reflect_apply},
        "Proxy": {
            "revoke": lambda interp, this, args: revoke(
                interp, args[0] if args else UNDEFINED),
            "isEqual": lambda interp, this, args: builtin_is_equal(
                interp, args[0] if args else UNDEFINED,
                args[1] if len(args) > 1 else UNDEFINED),
            "isIdentical": lambda interp, this, args: builtin_is_identical(
                interp, args[0] if args else UNDEFINED,
                args[1] if len(args) > 1 else UNDEFINED),
            "withTransparency": lambda interp, this, args: with_transparency(
                interp, args[0] if args else UNDEFINED,
                args[1] if len(args) > 1 else UNDEFINED,
                args[2] if len(args) > 2 else UNDEFINED),
        },
    }
    for name, entry in table.items():
        if isinstance(entry, dict):
            value = interp.heap.alloc_object(
                {member: interp.alloc_native(member, fn)
                 for member, fn in entry.items()})
        else:
            value = interp.alloc_native(name, entry)
        interp.globals.declare(name, value)
    return interp.globals.bindings["Proxy"]


# --- embedding API ---

def evaluate_program(program: Program, interp: Interpreter) \
        -> ExecutionResult:
    """Run a parsed program's statements in the interpreter's globals,
    capturing runtime errors in the result. A host RecursionError or
    MemoryError, such as host recursion through a deep chain of proxy
    handlers, comes back as a StackOverflow or ResourceError result; the
    unwinding has restored the call depth and the override stack, so the
    interpreter stays usable."""
    env = interp.globals
    value = None
    try:
        for stmt in program.statements:
            value = None
            if stmt.__class__ is ExprStmt:
                value = stmt.expr.evaluate(interp, env)
            elif stmt.execute(interp, env) is not None:
                break  # a host-built program's top-level return
    except PlxRuntimeError as err:
        error = err.with_traceback(None)  # its traceback holds this frame
    except RecursionError:
        error = StackOverflow("host recursion limit exceeded")
    except MemoryError:
        error = ResourceError("host memory exhausted")
    else:
        return ExecutionResult("ok", None, None, None, interp.output_text(),
                               value)
    return ExecutionResult("error", error.kind, error.message, error.line,
                           interp.output_text())


@lru_cache(maxsize=8)
def _parse_prelude(source: str) -> Program:
    # evaluation never mutates a parsed program, so one serves every run
    return parse_source(source)


def run_source(source: str, *, mode=EqualityMode.OPAQUE,
               prelude_source: Optional[str] = None,
               sink=None) -> ExecutionResult:
    """Parse and run a script. Static errors raise; runtime errors are
    captured in the result. The prelude, when given, runs first in the
    same interpreter; it is parsed once per process and source text.
    On return the interpreter's globals are cleared, unless result.value
    is an object, which may need them. That breaks the cycle globals ->
    function -> its FunctionRecord.env -> globals, so reference counting
    frees the run's objects and function bodies, its maps included. Only
    the cyclic collector frees closures kept in their own call scope and a
    script's object cycles."""
    program = parse_source(source)
    interp = Interpreter(mode=mode, sink=sink)
    result = None
    if prelude_source:
        result = evaluate_program(_parse_prelude(prelude_source), interp)
    if result is None or result.ok:
        result = evaluate_program(program, interp)
    if not isinstance(result.value, HeapObject):
        interp.globals.bindings.clear()
    return result
