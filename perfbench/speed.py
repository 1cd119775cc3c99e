"""The clock the benchmark times calls with, corrected for the machine.

On a shared virtual machine the same Python code runs up to twice as slow
for minutes at a time, as other tenants load the host, and the host also
takes the CPU away now and then. A single run cannot average that out, so
the benchmark

* times calls in CPU time of its thread (``clock``), which leaves out the
  time the host took the CPU away, and
* measures how fast the CPU runs: every ``INTERVAL`` seconds it times a
  small tree-walking evaluator that is part of the benchmark, not of
  proxylang, and scales the times it reports by ``REFERENCE_S / t``,
  where ``t`` is the median of the reference task's last ``WINDOW``
  times, each the best of three.

A reported time is then the time the call would have taken on a machine
that runs the reference task in ``REFERENCE_S`` seconds. A change to
proxylang does not change the reference task, so it moves the reported
times as it moves wall time on a quiet machine.
"""

import statistics
import time
from collections import deque

clock = time.thread_time

# best time of reference() on the machine the README's figures come from
# (Intel Xeon, 2 CPUs, Python 3.11.7, at its quietest)
REFERENCE_S = 0.00125
INTERVAL = 0.1
WINDOW = 5


class _Node:
    __slots__ = ("op", "a", "b", "c")

    def __init__(self, op, a=None, b=None, c=None):
        self.op, self.a, self.b, self.c = op, a, b, c


class _Env:
    __slots__ = ("names", "parent")

    def __init__(self, parent=None):
        self.names = {}
        self.parent = parent

    def lookup(self, name):
        env = self
        while env is not None:
            if name in env.names:
                return env.names[name]
            env = env.parent
        raise KeyError(name)


class _Return(Exception):
    pass


def _evaluate(node, env):
    """A tree walker in the style of proxylang's: node classes, chained
    environments, a frame per call, and a return signal."""
    op = node.op
    if op == "num":
        return node.a
    if op == "var":
        return env.lookup(node.a)
    if op in ("+", "-", "<"):
        left, right = _evaluate(node.a, env), _evaluate(node.b, env)
        if not isinstance(left, int) or not isinstance(right, int):
            raise TypeError(op)
        return left + right if op == "+" else \
            left - right if op == "-" else left < right
    if op == "if":
        branch = node.b if _evaluate(node.a, env) else node.c
        return _evaluate(branch, env)
    if op == "return":
        raise _Return(_evaluate(node.a, env))
    param, body, closure = env.lookup(node.a)
    frame = _Env(closure)
    frame.names[param] = _evaluate(node.b, env)
    try:
        _evaluate(body, frame)
    except _Return as signal:
        return signal.args[0]
    return None


def _fib_program():
    n = _Node("var", "n")
    recurse = [_Node("call", "fib", _Node("-", n, _Node("num", k)))
               for k in (1, 2)]
    body = _Node("if", _Node("<", n, _Node("num", 2)), _Node("return", n),
                 _Node("return", _Node("+", *recurse)))
    globals_ = _Env()
    globals_.names["fib"] = ("n", body, globals_)
    return _Node("call", "fib", _Node("num", 12)), globals_


_CALL, _GLOBALS = _fib_program()


def reference():
    """The reference task: fib(12) by a small tree-walking evaluator."""
    return _evaluate(_CALL, _GLOBALS)


class Speed:
    """How much faster than the reference machine this one runs now."""

    def __init__(self):
        self.factor = 1.0
        self._recent = deque(maxlen=WINDOW)
        self._checked = float("-inf")
        self.refresh()

    def refresh(self):
        """Time the reference task again if ``INTERVAL`` has passed."""
        if time.perf_counter() - self._checked < INTERVAL:
            return
        best = float("inf")
        for _ in range(3):
            start = clock()
            reference()
            best = min(best, clock() - start)
        self._recent.append(best)
        self.factor = REFERENCE_S / statistics.median(self._recent)
        self._checked = time.perf_counter()

    def scale(self, seconds):
        """``seconds`` of ``clock`` now, in seconds at reference speed."""
        return seconds * self.factor
