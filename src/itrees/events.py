"""Event signatures, disjoint sums of signatures, and subevent inclusion.

Signatures are first-class values: a named list of kinds, each declaring its
parameter shapes and the answer shape the environment must produce.  Events
occurring inside a sum carry a classification path of Left/Right steps; the
leaf signature is always retained so the answer shape stays available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .values import NAT_T, UNIT_T, Tag, UValue, VType, render_value

_UNIT = Tag.UNIT


class WrongSignature(ValueError):
    """An event was used against a signature or sum it does not belong to."""


class SignatureNotFound(LookupError):
    """The requested signature does not occur in the sum."""


class AmbiguousSignature(LookupError):
    """The requested signature occurs at several leaves of the sum."""


@dataclass(frozen=True)
class KindSpec:
    name: str
    params: tuple[VType, ...]
    answer: VType


@dataclass(frozen=True)
class EventSig:
    """An event alphabet: uniquely named kinds with typed params/answers."""

    name: str
    kinds: tuple[KindSpec, ...]
    params: tuple = ()

    def __post_init__(self):
        by_name = {k.name: k for k in self.kinds}
        if len(by_name) != len(self.kinds):
            raise WrongSignature(f"duplicate kind names in {self.name}")
        object.__setattr__(self, "_by_name", by_name)
        # every instance looks its answer shape up here
        object.__setattr__(self, "_answers", {k.name: k.answer for k in self.kinds})

    def kind(self, name: str) -> KindSpec:
        spec = self._by_name.get(name)
        if spec is None:
            raise WrongSignature(f"signature {self.name} has no kind {name}")
        return spec

    def __repr__(self):
        return f"EventSig({self.name})"


@dataclass(frozen=True)
class SumSig:
    left: Union["SumSig", EventSig]
    right: Union["SumSig", EventSig]

    def __repr__(self):
        return f"({self.left!r} +' {self.right!r})"


Signature = Union[EventSig, SumSig]

LEFT = "L"
RIGHT = "R"


@dataclass(slots=True, unsafe_hash=True)
class EventInstance:
    """A concrete event occurrence.

    ``sig`` is the leaf signature the event comes from; ``path`` classifies
    it within an enclosing sum (empty for a bare event).  ``answer``, the
    shape the environment must answer with, is looked up at construction
    in a table the signature builds once.  Instances compare and hash by
    (sig, kind, args, path), and what an instance stands for never changes:
    its one slot assigned after construction, ``memo``, is where the fused
    store fold caches the event's route (see ``interp.interp_stores``), or
    ``Site.written`` hands it its site's, so equality, hashing and ``repr``
    leave it out.

    The class defines its own ``__init__``, which ``dataclass`` keeps, so
    that building an instance, as a ``Write`` does for its ``Site`` each
    time it is called, is one Python call rather than two.
    """

    sig: EventSig
    kind: str
    args: tuple[UValue, ...] = ()
    path: tuple[str, ...] = ()
    answer: VType = field(init=False, compare=False, repr=False)
    memo: tuple = field(init=False, compare=False, repr=False)

    def __init__(self, sig: EventSig, kind: str, args: tuple[UValue, ...] = (),
                 path: tuple[str, ...] = ()):
        answer = sig._answers.get(kind)
        if answer is None:
            raise WrongSignature(f"signature {sig.name} has no kind {kind}")
        self.sig = sig
        self.kind = kind
        self.args = args
        self.path = path
        self.answer = answer
        self.memo = (None, None)

    def at(self, path: tuple[str, ...]) -> "EventInstance":
        return EventInstance(self.sig, self.kind, self.args, path)

    def __repr__(self):
        inside = ",".join(repr(a.payload if isinstance(a, UValue) else a) for a in self.args)
        where = "".join(self.path)
        prefix = f"{where}:" if where else ""
        return f"{prefix}{self.kind}({inside})"


def event(sig: EventSig, kind: str, *args: UValue, path=()) -> EventInstance:
    spec = sig.kind(kind)
    if len(args) != len(spec.params):
        raise WrongSignature(f"{kind} takes {len(spec.params)} args, got {len(args)}")
    for vt, a in zip(spec.params, args):
        if not vt.accepts(a):  # the message is built only for a mismatch
            vt.check(a, f"argument of {kind}")
    return EventInstance(sig, kind, args, tuple(path))


# The entries in each table in which the Imp and Asm denotations intern
# their read events and write sites, one per (kind, key).
INTERNED = 1024


class Site:
    """A store write to one key.

    The denotations intern one site per kind and key, and one read event
    per kind and key, each in a bounded table of ``INTERNED`` entries:
    every write to that key, in one program text and in every program
    denoted while the site stays in the table, shares the site and the
    route cached in it.  A key beyond the table's size evicts the least
    recently used one, whose writes get a fresh site the next time they
    are denoted.

    A site's kind takes a key and a value and answers the unit, so the tree
    after a write does not depend on the answer; any other kind is refused.
    The key is known, and checked, here; the value is known only when the
    write runs, so the site's event is not built here: ``written(value)``
    builds it, without ``event``'s check of the value, when the site's
    ``core.Write`` is called.  A write is an event node
    built by its ``Write``; the fused store fold answers moves and
    ``Compute``s without one.  Sites compare by identity, and what a site
    stands for never changes, so sharing one is safe: its one assigned
    slot, ``memo``, is where the fused store fold caches the site's route,
    as it does an event's.
    """

    __slots__ = ("sig", "kind", "key", "path", "memo")

    def __init__(self, sig: EventSig, kind: str, key: UValue, path: tuple[str, ...] = ()):
        spec = sig.kind(kind)
        params = spec.params
        if len(params) != 2:
            raise WrongSignature(f"{kind} takes {len(params)} args, not a key and a value")
        if spec.answer.tag is not _UNIT:
            raise WrongSignature(f"{kind} writes but answers {spec.answer!r}, not the unit")
        if not params[0].accepts(key):  # the message is built only for a mismatch
            params[0].check(key, f"key of {kind}")
        self.sig = sig
        self.kind = kind
        self.key = key
        self.path = tuple(path)
        self.memo = (None, None)

    def written(self, value: UValue) -> EventInstance:
        """The event of this write site writing ``value``.  It shares the
        site's path, kind, key and answer, so their routes are the same, and
        it starts with the route the site has cached."""
        e = EventInstance(self.sig, self.kind, (self.key, value), self.path)
        e.memo = self.memo
        return e

    def __repr__(self):
        where = "".join(self.path)
        prefix = f"{where}:" if where else ""
        return f"<site {prefix}{self.kind}({self.key.payload!r})>"


@dataclass(frozen=True)
class SubeventWitness:
    """A Left/Right path from an outer sum down to an inner signature."""

    path: tuple[str, ...]


def sig_leaves(s: Signature, prefix=()):
    """Yield (path, leaf signature) pairs in left-to-right order."""
    if isinstance(s, SumSig):
        yield from sig_leaves(s.left, prefix + (LEFT,))
        yield from sig_leaves(s.right, prefix + (RIGHT,))
    else:
        yield prefix, s


def sig_at(s: Signature, path: tuple[str, ...]) -> Signature:
    for step in path:
        if not isinstance(s, SumSig):
            raise SignatureNotFound(f"path {path} walks past a leaf")
        s = s.left if step == LEFT else s.right
    return s


def derive_witness(inner: EventSig, outer: Signature, strict: bool = False) -> SubeventWitness:
    """Find where ``inner`` sits inside ``outer``.

    Duplicate occurrences resolve to the leftmost one; pass ``strict=True``
    to get :class:`AmbiguousSignature` instead and supply an explicit
    witness yourself.
    """
    hits = [path for path, leaf in sig_leaves(outer) if leaf == inner]
    if not hits:
        raise SignatureNotFound(f"{inner!r} does not occur in {outer!r}")
    if strict and len(hits) > 1:
        raise AmbiguousSignature(f"{inner!r} occurs {len(hits)} times in {outer!r}")
    return SubeventWitness(hits[0])


def inject(w: SubeventWitness, e: EventInstance) -> EventInstance:
    """Re-tag ``e`` as an event of the witness's outer sum."""
    return e.at(tuple(w.path) + e.path)


def project(s: Signature, e: EventInstance):
    """Strip one level of sum classification: ('L', rest) or ('R', rest).

    A bare event is first classified against ``s`` (leftmost rule); an event
    that does not belong to ``s`` raises :class:`WrongSignature`.
    """
    if not isinstance(s, SumSig):
        raise WrongSignature(f"{s!r} is not a sum")
    path = e.path
    if not path:
        try:
            path = derive_witness(e.sig, s).path
        except SignatureNotFound:
            raise WrongSignature(f"{e!r} belongs to neither side of {s!r}") from None
    try:
        leaf = sig_at(s, path)
    except SignatureNotFound:
        leaf = None
    if leaf != e.sig:
        raise WrongSignature(f"{e!r} is not classified within {s!r}")
    stripped = e.at(path[1:])
    return (path[0], stripped)


# Standard signatures.

IOE = EventSig(
    "IO",
    (
        KindSpec("Input", (), NAT_T),
        KindSpec("Output", (NAT_T,), UNIT_T),
    ),
)

EMPTY_E = EventSig("Empty", ())


def state_sig(state_t: VType) -> EventSig:
    return EventSig(
        "State",
        (
            KindSpec("Get", (), state_t),
            KindSpec("Put", (state_t,), UNIT_T),
        ),
        params=(state_t,),
    )


def map_default_sig(key_t: VType, val_t: VType, default: UValue) -> EventSig:
    """Finite-map events with a default for absent keys."""
    val_t.check(default, "map default")
    return EventSig(
        "MapDefault",
        (
            KindSpec("Insert", (key_t, val_t), UNIT_T),
            KindSpec("LookupDefault", (key_t,), val_t),
            KindSpec("Remove", (key_t,), UNIT_T),
        ),
        params=(key_t, val_t, default),
    )


def map_default_of(sig: EventSig) -> UValue:
    if sig.name != "MapDefault":
        raise WrongSignature(f"{sig!r} is not a map signature")
    return sig.params[2]


def render_event(e: EventInstance) -> str:
    args = ",".join(render_value(a) for a in e.args)
    return f"{e.kind}({args})"


def render_event_response(e: EventInstance, answer: UValue) -> str:
    return f"{render_event(e)}={render_value(answer)}"
