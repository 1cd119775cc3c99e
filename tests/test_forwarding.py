"""ProxyObject._forward against a walk that asks every link.

_forward passes a run of links that share one trap-less ordinary handler
in an inner loop that reads no dict. test_proxies.reference_forward
enters _trap at every link. Both walk fresh, equal chains of up to 12
links, whose handlers come from a small shared pool and some of which are
revoked, and must give the same link and handler and trap, or the same
error, after the same calls of a proxy handler's get trap, in the same
order. test_proxies.py also runs forwarding end to end against it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from proxylang.errors import PlxRuntimeError
from proxylang.interpreter import Interpreter
from proxylang.objects import NULL, UNDEFINED
from proxylang.proxies import ProxyObject, revoke

from test_proxies import reference_forward


# every chain is built in this interpreter; a walk leaves nothing in it
INTERP = Interpreter()
NAMES = ("get", "set", "apply", "has")
# the handlers a link can have; every link of one kind has the same one
POOL = ("empty", "other", "get", "set and apply", "null", "undefined",
        "five", "meta")


class Chain:
    """A fresh chain: links[0] is the outermost proxy. The "meta" handler
    is a proxy whose get trap logs the name it is asked for and, on its
    write_on-th call, gives the "empty" and "other" handlers the trap
    "written" under that name; its target holds an apply trap."""

    def __init__(self, spec, write_on):
        interp = self.interp = INTERP
        self.log = []
        self.labels = {}

        def trap(label):
            function = interp.alloc_native(label, lambda *_: UNDEFINED)
            self.labels[id(function)] = label
            return function

        def ordinary(properties):
            return interp.heap.alloc_object(properties)

        written = trap("written")
        handlers = {
            "empty": ordinary({}), "other": ordinary({}),
            "get": ordinary({"get": trap("get")}),
            "set and apply": ordinary({"set": trap("set"),
                                       "apply": trap("apply")}),
            "null": ordinary(dict.fromkeys(NAMES, NULL)),
            "undefined": ordinary(dict.fromkeys(NAMES, UNDEFINED)),
            "five": ordinary({"has": 5.0}),
        }

        def meta_get(interp, this, args):
            target, name, _ = args
            self.log.append(name)
            if len(self.log) == write_on:
                handlers["empty"].set(interp, name, written)
                handlers["other"].set(interp, name, written)
            return target.get(interp, name)

        meta = ordinary({"get": interp.alloc_native("meta get", meta_get)})
        handlers["meta"] = ProxyObject(
            ordinary({"apply": trap("meta apply")}), meta)
        self.end = link = ordinary({})
        self.links = []
        for kind, _ in reversed(spec):
            link = ProxyObject(link, handlers[kind])
            self.links.insert(0, link)
        for link, (_, revoked) in zip(self.links, spec):
            if revoked:
                revoke(interp, link)

    def forward(self, forward, name):
        """forward's answer from the outermost link: the index of the link
        and the label of the trap, or the error; and the meta log. The
        handler given is the link's own (None at the end), as no lookup
        here revokes a link."""
        try:
            link, handler, trap = forward(self.links[0], self.interp, name)
        except PlxRuntimeError as error:
            answer = (error.kind, error.message)
        else:
            assert handler is link.handler
            answer = ("end" if link is self.end else self.links.index(link),
                      None if trap is None else self.labels[id(trap)])
        return answer, self.log


def both(spec, name, write_on=None):
    """_forward's outcome and the reference's, each on a chain of its
    own."""
    return (Chain(spec, write_on).forward(ProxyObject._forward, name),
            Chain(spec, write_on).forward(reference_forward, name))


@st.composite
def chains(draw):
    """Up to 12 links whose handlers take two or three kinds, so that
    runs of one kind are common and a kind often comes back below
    another, the meta handler most of all. Each link is revoked one time
    in six, so a run is often cut by a revoked link."""
    kinds = draw(st.lists(st.sampled_from(POOL), min_size=2, max_size=3,
                          unique=True))
    return [(draw(st.sampled_from(kinds)),
             draw(st.integers(0, 5).map(lambda n: n == 0)))
            for _ in range(draw(st.integers(1, 12)))]


@settings(max_examples=300, deadline=None)
@given(chains(), st.sampled_from(NAMES), st.sampled_from([None, 1, 1, 2]))
def test_forwarding_matches_the_loop_it_replaced(spec, name, write_on):
    mine, reference = both(spec, name, write_on)
    assert mine == reference, (spec, name, write_on)


def test_a_trap_written_by_a_proxy_handler_is_found_below_it():
    # the walk passes two links of the empty handler; the meta handler's
    # get trap, asked for get, then gives the empty handler a get trap,
    # which the next link of that handler must find
    spec = [("empty", False)] * 2 + [("meta", False)] + [("empty", False)] * 2
    mine, reference = both(spec, "get", write_on=1)
    assert mine == reference == ((3, "written"), ["get"])


def test_a_revoked_link_ends_a_run():
    spec = [("empty", False), ("empty", True), ("empty", False)]
    mine, reference = both(spec, "get")
    assert mine == reference \
        == (("RevokedProxyError", "'get' on a revoked proxy"), [])


def test_each_outcome_is_reached():
    # a trap below a run, the end, a trap the meta handler's target
    # holds, and a trap that is not callable
    cases = [([("other", False)] * 3 + [("get", False)], "get", (3, "get")),
             ([("null", False), ("undefined", False)] * 2, "set",
              ("end", None)),
             ([("empty", False), ("meta", False)], "apply", (1, "meta apply")),
             ([("five", False)], "has", ("TypeError",
                                         "trap 'has' is not callable"))]
    for spec, name, answer in cases:
        mine, reference = both(spec, name)
        assert mine == reference and mine[0] == answer, (spec, name)
