"""Identity-keyed maps: WeakMap, which respects the active equality
mode, and RawWeakMap, the map counterpart of :===:.

A WeakMap stores entries under the key's equality object, resolved by
interp.resolve at every operation. In trap mode a transparent proxy and
its target therefore address the same entry, while in opaque mode they
are distinct keys. A RawWeakMap never resolves: a proxy and its target are
distinct keys in every mode, as they are under :===:, so it can be keyed
by wrappers (a membrane's wrapper -> inner index needs that). Both are
one IdentityMap type, told apart by its ``raw`` flag. Only objects are
valid keys, and an entry is stored under the resolved object itself,
compared by identity. An ordinary object stands for itself in every
mode, and a raw map takes any object as it is, so only a proxy key of a
WeakMap, which must be resolved, and a primitive key, which is rejected,
go through _resolve_key.
Entries are held strongly; the name follows the host-language
convention for identity-keyed maps, not a collection contract. A map's
methods close over its IdentityMap, not over the map object, and set
returns its receiver (``this``), so a map is no reference cycle and
reference counting frees it once dropped.
"""

from .errors import LangTypeError
from .objects import UNDEFINED, HeapObject, OrdinaryObject, kind_of


class IdentityMap:
    __slots__ = ("entries", "raw")

    def __init__(self, raw: bool = False):
        self.entries: dict = {}  # resolved object -> value
        self.raw = raw           # key by raw identity, whatever the mode


def _resolve_key(interp, imap: IdentityMap, key) -> HeapObject:
    if not isinstance(key, HeapObject):
        name = "RawWeakMap" if imap.raw else "WeakMap"
        raise LangTypeError(f"{name} keys must be objects, "
                            f"not {kind_of(key)}")
    resolve = interp.resolve
    return key if imap.raw or resolve is None else resolve(interp, key)


def idmap_set(interp, imap: IdentityMap, key, value) -> None:
    if key.__class__ is not OrdinaryObject and (
            not imap.raw or not isinstance(key, HeapObject)):
        key = _resolve_key(interp, imap, key)
    imap.entries[key] = value


def idmap_get(interp, imap: IdentityMap, key):
    if key.__class__ is not OrdinaryObject and (
            not imap.raw or not isinstance(key, HeapObject)):
        key = _resolve_key(interp, imap, key)
    return imap.entries.get(key, UNDEFINED)


def idmap_has(interp, imap: IdentityMap, key) -> bool:
    if key.__class__ is not OrdinaryObject and (
            not imap.raw or not isinstance(key, HeapObject)):
        key = _resolve_key(interp, imap, key)
    return key in imap.entries


def idmap_delete(interp, imap: IdentityMap, key) -> bool:
    if key.__class__ is not OrdinaryObject and (
            not imap.raw or not isinstance(key, HeapObject)):
        key = _resolve_key(interp, imap, key)
    return imap.entries.pop(key, _MISSING) is not _MISSING


_MISSING = object()


def create_weakmap(interp, raw: bool = False) -> OrdinaryObject:
    """Allocate a map object with set/get/has/delete methods; ``raw``
    makes it a RawWeakMap."""
    imap = IdentityMap(raw)
    obj = interp.heap.alloc(OrdinaryObject())

    # the arguments are read inline, not through a helper frame
    def wm_set(itp, this, args):
        idmap_set(itp, imap, args[0] if args else UNDEFINED,
                  args[1] if len(args) > 1 else UNDEFINED)
        return this

    def wm_get(itp, this, args):
        return idmap_get(itp, imap, args[0] if args else UNDEFINED)

    def wm_has(itp, this, args):
        return idmap_has(itp, imap, args[0] if args else UNDEFINED)

    def wm_delete(itp, this, args):
        return idmap_delete(itp, imap, args[0] if args else UNDEFINED)

    for name, fn in (("set", wm_set), ("get", wm_get),
                     ("has", wm_has), ("delete", wm_delete)):
        obj.properties[name] = interp.alloc_native(name, fn)
    return obj
