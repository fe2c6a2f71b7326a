"""The in-place store path: write sites, store continuations and the fused
store fold that answers them.

The Imp and Asm denotations build their store events from this vocabulary:

- a ``Site`` is a store write to one key, interned per kind and key in a
  bounded table of ``INTERNED`` entries, as the read events are;
- a ``Write`` (``write_at``) continues a value with its write at a site,
  then a tree;
- a ``Compute`` continues a read with the reads still to come, a pure
  function of their answers, and what takes the value: a ``Write``, a
  ``Guard`` or a callable;
- a ``Guard`` continues a value with one of two prebuilt trees, picked by
  whether the value is zero.

Each is an ordinary continuation: called, it builds the tree it stands
for, so a tree built from them observes and checks its answers like any
other.  ``interp_stores`` instead answers a store event in place and tests
its continuation once for these three kinds, calling none of them.  The
tree core, the event algebra and the generic handlers do not know of them.
"""

from __future__ import annotations

from typing import Callable

from .core import ITree, RetO, TauO, VisO, _Cat, _Thunk, _resolve, lazy, observe, ret, taus, vis
from .events import EventInstance, EventSig, WrongSignature
from .interp import UnhandledEvent
from .values import (
    MAP_T,
    NATS,
    SHARED_NATS,
    UNIT,
    AnswerTagMismatch,
    UValue,
    _store_map,
    map_items,
    nat,
    pair,
)

_UNIT = UNIT.tag

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
    write runs, so ``written(value)`` builds the write's event, without
    ``event``'s check of the value.  Sites compare by identity, and what a
    site stands for never changes, so sharing one is safe: its one assigned
    slot, ``memo``, is where ``interp_stores`` caches the site's route, as
    it does an event's.
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


class Write:
    """The continuation that writes its argument at the write site
    ``site``, then runs ``rest``.

    Called with a value, it returns the event node of that write, continued
    by ``Guard(rest, rest)``: the tree after a write does not depend on its
    unit answer.  The ``Guard`` is built on the first call and kept, so two
    observations of one write compare equal, and a ``Write`` that is only
    ever answered in place allocates nothing more.
    """

    __slots__ = ("site", "rest", "_after")

    def __init__(self, site: Site, rest: ITree):
        self.site = site
        self.rest = rest
        self._after = None

    def __call__(self, v: UValue) -> ITree:
        after = self._after
        if after is None:
            after = self._after = Guard(self.rest, self.rest)
        return ITree(VisO(self.site.written(v), after))


class Guard:
    """The continuation that tests a natural: called with a value, it
    returns the tree ``zero`` when the value's payload is 0 and the tree
    ``nonzero`` otherwise.  Both trees are built before the test runs."""

    __slots__ = ("nonzero", "zero")

    def __init__(self, nonzero: ITree, zero: ITree):
        self.nonzero = nonzero
        self.zero = zero

    def __call__(self, v: UValue) -> ITree:
        return self.zero if v.payload == 0 else self.nonzero


class Compute:
    """The continuation of a read whose answer, with the answers of the
    reads ``reads`` still to come, feeds the pure ``fn``; the ``nat`` of
    ``fn``'s int goes to ``then``, a ``Write`` (a computed write), a
    ``Guard`` (a test) or a callable from that value to a tree (a branch).
    ``fn`` takes the tuple of every read's payload, in order; ``got`` holds
    those of the reads answered before this one.

    Called with an answer, it builds the node of the next read, continued
    by a ``Compute`` that holds the answers so far, or after the last read
    it applies ``then`` to the value.
    """

    __slots__ = ("reads", "fn", "then", "got")

    def __init__(self, reads: tuple, fn: Callable[[tuple], int], then, got: tuple = ()):
        self.reads = reads
        self.fn = fn
        self.then = then
        self.got = got

    def __call__(self, a: UValue) -> ITree:
        got = self.got + (a.payload,)
        reads = self.reads
        if reads:
            return ITree(VisO(reads[0], Compute(reads[1:], self.fn, self.then, got)))
        return self.then(nat(self.fn(got)))


def write_at(site: Site, rest: ITree) -> Write:
    """The continuation that writes its argument at the write site
    ``site``, then runs ``rest`` (a ``Write``)."""
    return Write(site, rest)


# The silent steps after which a batch of ``interp_stores`` ends, so that
# observing a tree that steps silently or emits store events forever still
# returns.  The batch ends after the silent run or store event that reaches
# them, taking a run whole.  A batch that has passed a loop mark goes on to
# the next mark instead, but never past ``_HARD_STEPS``.
_BATCH_STEPS = 256
_HARD_STEPS = 4 * _BATCH_STEPS


def _route_table(n: int, items) -> dict:
    """(path, kind) -> (slot, default, steps) over ``n`` stores, for the
    routes ``items``, the ((path, kind), (slot, default)) pairs."""
    return {where: (slot, default, 1 + len(where[0]) + n - slot)
            for where, (slot, default) in items}


def _route(table: dict, x) -> tuple:
    """The route under ``table`` of ``x``, a store head's event or write
    site, cached in ``x.memo``: (slot, default, steps, key, answer tag), or
    () for none.  An event whose arguments do not fit its route, a key for
    a read and a key and a value for a write, or whose key is not a value,
    has no route, and neither has a write site routed as a read."""
    route = table.get((x.path, x.kind))
    if route is None:
        route = ()
    elif type(x) is EventInstance:
        args = x.args
        if len(args) == (2 if route[1] is None else 1) and isinstance(args[0], UValue):
            route += (args[0].payload, x.answer.sole_tag())
        else:
            route = ()
    elif route[1] is None:  # a write site, which answers the unit
        route += (x.key.payload, _UNIT)
    else:
        route = ()
    x.memo = (table, route)
    return route


def interp_stores(t: ITree, stores: tuple[UValue, ...], routes: dict,
                  outward: tuple[str, ...]) -> ITree:
    """Interpret a tree's store events over several finite maps in one pass.

    This is the fusion of a renaming ``interp`` by nested ``handler_bimap``
    handlers (each store event becomes a map event of its own layer) with
    one ``interp_map`` per store, which interpreting a composed handler
    equals composing the interpretations licenses.

    ``routes`` maps (classification path, kind) to (slot, default): the
    event's first argument is a key of ``stores[slot]``, read with
    ``default`` for absent keys, or, when ``default`` is None, written with
    the second argument.  Events under the ``outward`` path prefix are
    re-emitted with the prefix stripped; anything else raises
    :class:`UnhandledEvent`.  The result tree returns
    Pair(stores[0], Pair(stores[1], ... result)).

    Silent steps match the layered stack: each source silent step costs
    one, and each event costs one for the renaming fold, one per
    ``handler_bimap`` level its path descends and one per map layer it
    reaches, the last slot's layer running first and an outward event
    reaching them all.  An outward event pays its steps before it surfaces
    and none after its answer.

    The pass steps the source itself: ``core._resolve`` yields each raw
    head with the binds pending above it, and no observation is built per
    event.  An event node or a silent run is already resolved, so when a
    continuation returns one, or the pass reaches a loop mark, it goes
    straight on without calling ``_resolve``.  A store event's route is read
    from one flat table, (path, kind) -> (slot, default, steps), and only on
    the first visit of the event or write site under that table: ``_route``
    caches it in the event's or site's ``memo``, and the event a ``Write``
    builds starts with its site's (``Site.written``).  Each call builds
    its table from ``routes`` (``_route_table``).  ``interp_imp`` builds
    its table at import, and ``interp_asm`` those of the absent-cell
    defaults 0 and 1; both hand them straight to the same fold.

    An answered store event yields a value: a read its answer, a write the
    unit.  A write continued by a ``Guard``, the node a ``Write`` builds,
    goes straight on with the ``Guard``'s tree when its kind answers the
    unit and the batch is below its cap.  Otherwise, when the answer passes
    its tag test and the batch is below its cap, the pass tests the event's
    continuation once.  A ``Compute``: it answers the reads still to come
    through their routes, computes the value (the shared natural of
    ``values.NATS`` below ``values.SHARED_NATS``) and goes on with its
    ``then``, calling it only when it is neither a ``Write`` nor a
    ``Guard``.  A ``Write``: it writes the value at the site and goes on
    with its tree.  A ``Guard``: it goes on with the tree the ``Guard``
    picks.  Anything else is called.  When a read has no route or an
    answer that does not fit, a read's steps bring the batch to its cap,
    the write site has no route, or the value or the branch raises, the
    pass takes the node that calling the continuation would build as it
    comes instead, so step counts and raises do not change.  Each answer
    is checked once, by one tag test when the event's declared answer
    shape is decided by its tag, and a mismatch raises
    ``AnswerTagMismatch`` at the read that produced it, as ``VisO.k`` would.

    Store events are answered in place, in batches: the steps of a batch
    are one counted node (``taus``), so consumers that take silent runs
    whole skip it at once, and a batch takes the source's silent runs whole
    too, so a loop iteration or a block jump does not end it.  A loop's back
    edge is its loop mark (``combinators.loop_mark``).  A batch ends:

    - at a return;
    - at an outward event, after its steps;
    - at a store event whose answer does not fit or whose continuation
      raises, after its steps, leaving the raise to the event's ``VisO.k``;
    - or before a node, as one silent-run node whose tail runs the next
      batch: before a node whose producer raises, or an event that has no
      route and is not outward, so the tree raises at the step it would
      raise unbatched (a batch with no steps raises there and then); after
      the silent run or store event that brings it to ``_BATCH_STEPS``
      steps, or to ``_HARD_STEPS`` once it has passed a mark (a read
      that does so ends it before the next read or the write of its
      move or ``Compute``), so that observing ``spin()`` or a tree of
      endless store events returns and a long loop body cannot stretch
      it; and at a mark, before its step, once it has passed a mark and
      holds ``_BATCH_STEPS`` steps or more.

    A batch copies each store at most once, on its first write to it, and
    never writes the stores it was handed, so a batch that runs again, or
    an outward event answered twice, starts from the same stores.  At the
    return, ``values._store_map`` builds each store's map from its dict
    with ``umap``'s checks but no copy.  Grouping steps into batches is not
    observable, so step counts do not change.

    A batch that ends at a mark carries in ``TauO._key`` the loop key: the
    fold, the marked head, the pending binds and the stores, the whole
    state the rest of the tree is a function of.  The stores are snapshots
    there, since the next batch copies a store before it writes to it, so
    the key costs one tuple per batch and nothing on the fold's per-step
    path.  ``eutt`` compares keys with ``==`` and relies on one condition:
    two equal keys lead to the same tree.  It holds because trees and
    continuations are pure and do not change (the one update in place, a
    forced lazy node taking on the tree it produced, leaves it the same
    tree, whose identity the keys compare), an event or a site never changes
    what it stands for (its cached route only saves a lookup, and nothing
    else reads or writes ``memo`` but ``Site.written``, which hands a
    site's route to the event it builds, the same route the event would be
    given), nor does a ``Write``, a ``Compute`` or a ``Guard``, whose
    fields are set once (a ``Write``'s ``Guard``, built on its first call,
    only saves building it again), and each component compares as finely
    as it must: the fold and the binds (functions, ``Write``, ``Compute``
    and ``Guard`` continuations and ``_Cat`` nodes, with the nodes, events
    and sites they hold) by identity, the marked ``TauO`` by its tail's
    identity, and the stores by content.
    """
    return _fold(t, stores, _route_table(len(stores), routes.items()), outward)


# The fold's deferred nodes, built here so that ``go``, the run's fold whose
# identity the loop keys hold, keeps its state in plain locals, with no
# closure cell.

def _next_batch(go, head, konts, dicts) -> ITree:
    return lazy(lambda: go(head, konts, dicts))


def _answered(go, ob, dicts):
    """The continuation of ``ob``, an outward or a refused event."""
    return lambda x: _next_batch(go, _Thunk(lambda: ob.k(x)), None, dicts)


def _raising(go, fn, then, got, konts, dicts) -> ITree:
    return _next_batch(go, _Thunk(lambda: then(nat(fn(got)))), konts, dicts)


def _fold(t: ITree, stores: tuple[UValue, ...], table: dict,
          outward: tuple[str, ...]) -> ITree:
    """``interp_stores`` over ``table``, which ``_route_table`` built for
    ``len(stores)`` stores; ``interp_imp`` and ``interp_asm`` call it."""
    for m in stores:
        MAP_T.check(m, "initial map")

    # A batch looks ahead of its consumer, so it must not raise early: what
    # the source raises is left to a lazy node after the batch's steps,
    # which does the same work again and raises there.  A node whose
    # producer raised is forced again, so its batch runs again from the
    # stores it was handed; ``given`` keeps them to tell a batch's own
    # copies from them.  The run's constants are defaults, so the loop reads
    # them as plain locals.
    def go(head, konts, dicts, table=table, cut=len(outward), outward=outward,
           outward_steps=1 + len(outward) + len(stores)):
        given = dicts
        total = 0
        limit = _BATCH_STEPS  # _HARD_STEPS once the batch passes a mark
        loop_key = None  # set only by a batch that ends at a mark
        while True:
            kind = type(head)
            if kind is not VisO:  # an event node is resolved
                if kind is not TauO:  # and so is a silent run
                    try:
                        head, konts = _resolve(head, konts)
                    except Exception:
                        if not total:
                            raise
                        break
                    kind = type(head)
                if kind is TauO:
                    if head._mark:
                        # at the cap here only if the batch passed a mark
                        if total >= _BATCH_STEPS:
                            loop_key = (go, head, konts, dicts)
                            break
                        limit = _HARD_STEPS
                    total += head.run
                    tail = head._tail
                    head = tail._head
                    more = tail._konts
                    if more is not None:
                        konts = more if konts is None else _Cat(more, konts)
                    if total >= limit:
                        break
                    continue
                if kind is RetO:
                    v = head.value
                    for d in reversed(dicts):
                        v = pair(_store_map(d), v)
                    return taus(total, ret(v)) if total else ret(v)
            x = head.event
            kont = head._kont
            memo = x.memo
            route = memo[1] if memo[0] is table else _route(table, x)
            if not route:
                ob = observe(ITree(head, konts))
                e = ob.event
                path = e.path
                if path[:cut] == outward:
                    return taus(total + outward_steps, vis(
                        e.at(path[cut:]), _answered(go, ob, dicts)))
                if not total:
                    raise UnhandledEvent(f"{e!r} has no route in interp_stores")
                break
            slot, default, steps, key, tag = route
            total += steps
            if default is None:
                d = dicts[slot]
                if d is given[slot]:  # the batch's first write to this store
                    d = dict(d)
                    dicts = dicts[:slot] + (d,) + dicts[slot + 1:]
                d[key] = x.args[1]
                if type(kont) is Guard and tag is _UNIT and total < limit:
                    # the tree after a write (``Write``): the unit answer picks
                    # ``nonzero``, and both of its trees are the same
                    nxt = kont.nonzero
                    head = nxt._head
                    more = nxt._konts
                    if more is not None:
                        konts = more if konts is None else _Cat(more, konts)
                    continue
                answer = UNIT
            else:
                answer = dicts[slot].get(key, default)
            if answer.tag is tag and total < limit:
                kind = type(kont)
                if kind is Compute:
                    # the reads still to come, each through its route
                    got = kont.got + (answer.payload,)
                    reads = kont.reads
                    j = 0
                    for e in reads:
                        memo = e.memo
                        route = memo[1] if memo[0] is table else _route(table, e)
                        if not route:
                            break
                        slot, default, steps, key, tag = route
                        if default is None:
                            break
                        answer = dicts[slot].get(key, default)
                        if answer.tag is not tag or total + steps >= limit:
                            break
                        total += steps
                        got += (answer.payload,)
                        j += 1
                    if j < len(reads):  # the read node the call would build
                        head = VisO(reads[j], Compute(reads[j + 1:], kont.fn, kont.then, got))
                        continue
                    fn, then = kont.fn, kont.then
                    kind = type(then)
                    try:
                        v = fn(got)
                        answer = NATS[v] if type(v) is int and 0 <= v < SHARED_NATS else nat(v)
                        if kind is not Write and kind is not Guard:  # a branch
                            nxt = then(answer)
                            head = nxt._head
                            more = nxt._konts
                            if more is not None:
                                konts = more if konts is None else _Cat(more, konts)
                            continue
                    except Exception:
                        # the call raises again when observed, after the reads' steps
                        return taus(total, _raising(go, fn, then, got, konts, dicts))
                    kont = then
                if kind is Write:
                    x = kont.site
                    memo = x.memo
                    route = memo[1] if memo[0] is table else _route(table, x)
                    if not route:  # the event node the call would build
                        head = kont(answer)._head
                        continue
                    # a move or a computed write: answered here, with no node
                    slot, _, steps, key, _ = route
                    d = dicts[slot]
                    if d is given[slot]:
                        d = dict(d)
                        dicts = dicts[:slot] + (d,) + dicts[slot + 1:]
                    d[key] = answer
                    total += steps
                    nxt = kont.rest
                    head = nxt._head
                    more = nxt._konts
                    if more is not None:
                        konts = more if konts is None else _Cat(more, konts)
                    if total >= limit:
                        break
                    continue
                if kind is Guard:  # a test, or the tree after a write: picked here
                    nxt = kont.zero if answer.payload == 0 else kont.nonzero
                    head = nxt._head
                    more = nxt._konts
                    if more is not None:
                        konts = more if konts is None else _Cat(more, konts)
                    continue
            try:
                if answer.tag is not tag:
                    raise AnswerTagMismatch
                nxt = kont(answer)
                more = nxt._konts
                head = nxt._head
            except Exception:
                # VisO.k checks the answer again and raises what it raises
                ob = observe(ITree(head, konts))
                return taus(total, _answered(go, ob, dicts)(answer))
            if more is not None:
                konts = more if konts is None else _Cat(more, konts)
            if total >= limit:
                break
        return ITree(TauO(_next_batch(go, head, konts, dicts), total, _key=loop_key))

    return lazy(lambda: go(t._head, t._konts, tuple(dict(map_items(m)) for m in stores)))
