"""Event handlers and the generic interpreter.

A handler is a function from an event to the tree that answers it;
``interp`` folds it over a tree.  State and map events are folded by one
state-passing pass (``interp_state``, ``interp_map``).  Every fold spends
one silent step per source node consumed (silent or visible), so step
counts are deterministic and the weak checker absorbs them.
``interp_stores`` fuses a renaming fold and one map fold per store into a
single pass with the same step counts.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .core import (
    Compute,
    ITree,
    RetO,
    TauO,
    VisO,
    Write,
    _Cat,
    _Thunk,
    _resolve,
    bind,
    lazy,
    observe,
    ret,
    tau,
    taus,
    trigger,
    vis,
)
from .events import (
    LEFT,
    RIGHT,
    EventInstance,
    map_default_of,
)
from .values import (
    MAP_T,
    UNIT,
    AnswerTagMismatch,
    UValue,
    map_get,
    map_items,
    map_remove,
    map_set,
    nat,
    pair,
    umap,
)


class UnhandledEvent(ValueError):
    """The tree produced an event that no case of its interpreter covers."""


Handler = Callable[[EventInstance], ITree]


def interp(h: Handler, t: ITree) -> ITree:
    """Fold ``h`` over ``t``: returns pass through, events run the handler,
    and every consumed node costs one silent step."""

    def go(t):
        ob = observe(t)
        kind = type(ob)
        if kind is RetO:
            return ret(ob.value)
        if kind is TauO:
            rest = ob.rest
            return tau(lazy(lambda: go(rest)))
        e, k = ob.event, ob.k
        return tau(lazy(lambda: bind(h(e), lambda x: go(k(x)))))

    return go(t)


# The cocartesian structure on handlers: identity is trigger, composition is
# interpretation.

handler_id: Handler = trigger


def handler_cat(h: Handler, g: Handler) -> Handler:
    return lambda e: interp(g, h(e))


def handler_case(h: Handler, g: Handler) -> Handler:
    def apply(e: EventInstance) -> ITree:
        if e.path and e.path[0] == LEFT:
            return h(e.at(e.path[1:]))
        if e.path and e.path[0] == RIGHT:
            return g(e.at(e.path[1:]))
        raise UnhandledEvent(f"{e!r} is not classified within a sum")

    return apply


def handler_bimap(h: Handler, g: Handler) -> Handler:
    """Route a sum's left events through ``h`` and right events through
    ``g``, re-injecting each side's output events on its own side."""
    return handler_case(
        handler_cat(h, lambda e: trigger(e.at((LEFT,) + e.path))),
        handler_cat(g, lambda e: trigger(e.at((RIGHT,) + e.path))))


# State events.

def _fold_state(t: ITree, s0: UValue, step) -> ITree:
    """Thread a state through the left events of a tree.

    ``step(state, event)`` answers a left event, its path stripped, with
    (state', answer); right events surface with the prefix stripped.  Every
    consumed node costs one silent step, an outward event paying it before
    it surfaces.  The result tree returns Pair(final state, result).
    """

    def go(t, s):
        ob = observe(t)
        kind = type(ob)
        if kind is RetO:
            return ret(pair(s, ob.value))
        if kind is TauO:
            rest = ob.rest
            return tau(lazy(lambda: go(rest, s)))
        e, k = ob.event, ob.k
        path = e.path
        if path and path[0] == LEFT:
            s2, answer = step(s, e.at(path[1:]))
            return tau(lazy(lambda: go(k(answer), s2)))
        if path and path[0] == RIGHT:
            outer = e.at(path[1:])
            return tau(lazy(lambda: vis(outer, lambda x: lazy(lambda: go(k(x), s)))))
        raise UnhandledEvent(f"{e!r} is not classified within a sum")

    return lazy(lambda: go(t, s0))


def _state_step(s: UValue, e: EventInstance):
    if e.kind == "Get":
        return s, s
    if e.kind == "Put":
        return e.args[0], UNIT
    raise UnhandledEvent(f"{e!r} is not a state event")


def interp_state(t: ITree, s0: UValue) -> ITree:
    """Interpret the left state events of a State+E tree, threading ``s0``.

    The result tree is over E and returns Pair(final state, result).
    """
    return _fold_state(t, s0, _state_step)


def _map_step(m: UValue, e: EventInstance):
    if e.kind == "Insert":
        return map_set(m, e.args[0].payload, e.args[1]), UNIT
    if e.kind == "LookupDefault":
        return m, map_get(m, e.args[0].payload, map_default_of(e.sig))
    if e.kind == "Remove":
        return map_remove(m, e.args[0].payload), UNIT
    raise UnhandledEvent(f"{e!r} is not a map event")


def interp_map(t: ITree, m0: UValue) -> ITree:
    """Interpret the left map events of a MapDefault+E tree over the initial
    map ``m0``; lookups of absent keys yield the signature's default.

    Stacked under a renaming ``interp`` it is the layered specification
    that ``interp_stores`` fuses.
    """
    MAP_T.check(m0, "initial map")
    return _fold_state(t, m0, _map_step)


# The fused store-passing fold.

# The silent steps after which a batch of ``interp_stores`` ends, so that
# observing a tree that steps silently or emits store events forever still
# returns.  The batch ends after the silent run or store event that reaches
# them, taking a run whole.  A batch that has passed a loop mark goes on to
# the next mark instead, but never past ``_HARD_STEPS``.
_BATCH_STEPS = 256
_HARD_STEPS = 4 * _BATCH_STEPS


@lru_cache(maxsize=64)
def _route_table(n: int, items: tuple) -> dict:
    """(path, kind) -> (slot, default, steps) over ``n`` stores, for the
    routes ``items``.  Calls with equal routes share one table, so the
    route an event or write site caches (``memo``) serves them all."""
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
        route += (x.key.payload, UNIT.tag)
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
    head with the binds pending above it, and an answered store event feeds
    its answer straight to the event's continuation, with no observation or
    tree built per event.  An event node is already resolved, so when a
    continuation returns one, as the denotations' continuations do,
    the pass goes straight to its route without calling ``_resolve``, and
    it queues the continuation's own pending binds in place.

    A store event comes as a ``VisO``, or it is the write of a move, a read
    whose continuation is a ``core.Write``, or of a computed write.  A write
    is an event node built by its ``Write``; the fold answers moves and
    ``Compute``s without one.  Either way its route is read from one flat
    table, (path, kind) -> (slot, default, steps), interned so that calls
    with equal routes over as many stores share it, and read only on the
    first visit of the event or write site under that table: ``_route``
    caches the route, key and answer tag there (``memo``), and from there
    all take the same step.  The event a ``Write`` builds starts with its
    site's cached route (``events.Site.written``).  A denotation run from
    several initial stores thus looks each of its events and sites up once.
    An event whose arguments do not fit its route, or a write site routed as
    a read, has no route.  A move's write is answered in place: once the
    read's answer has passed its tag test, the pass writes it at the
    ``Write``'s site and goes on with the ``Write``'s tree, building no node
    and calling nothing.  A read continued by a ``core.Compute`` is answered
    in place too: the pass answers the reads still to come through their
    cached routes, one tag test each, computes the value, and writes it
    through the same code as a move's when the ``Compute`` goes on to a
    ``Write``, or goes on with the tree its branch returns.  When a read has
    no route or an answer that does not fit, a read's steps bring the batch
    to its cap, the write site has no route, or the value or the branch
    raises, the pass takes the node that calling the continuation would
    build as it comes instead, so step counts and raises do not change.
    Each answer is checked once, by one tag test when the event's declared
    answer shape is decided by its tag (the unit, for a write), and a
    mismatch raises ``AnswerTagMismatch`` at the read that produced it, as
    ``VisO.k`` would.

    Store events are answered in place, in batches: the steps of a batch
    are one counted node (``taus``), so consumers that take silent runs
    whole skip it at once, and a batch takes the source's silent runs whole
    too, so a loop iteration or a block jump does not end it.  Loops mark
    their re-entry nodes (``iterate``).  A batch ends:

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
    an outward event answered twice, starts from the same stores.  Grouping
    steps into batches is not observable, so step counts do not change.

    A batch that ends at a mark carries in ``TauO._key`` the loop key: the
    fold, the marked head, the pending binds and the stores, the whole
    state the rest of the tree is a function of.  The stores are snapshots
    there, since the next batch copies a store before it writes to it, so
    the key costs one tuple per batch and nothing on the fold's per-step
    path.  ``eutt`` compares keys with ``==`` and relies on one condition:
    two equal keys lead to the same tree.  It holds because trees and
    continuations are pure and immutable, an event or a site never changes
    what it stands for (its cached route only saves a lookup, and nothing
    else reads or writes ``memo`` but ``Site.written``, which hands a
    site's route to the event it builds, the same route the event would be
    given), nor does a ``Write`` or a ``Compute``, whose fields are set
    once, and each component compares as finely as it must: the fold and
    the binds (functions, ``Write`` and ``Compute`` continuations and
    ``_Cat`` nodes, with the nodes, events and sites they hold) by
    identity, the marked ``TauO`` by its tail's identity, and the stores by
    content.
    """
    for m in stores:
        MAP_T.check(m, "initial map")
    n = len(stores)
    table = _route_table(n, tuple(routes.items()))
    cut = len(outward)
    outward_steps = 1 + cut + n

    # A batch looks ahead of its consumer, so it must not raise early: what
    # the source raises is left to a lazy node after the batch's steps,
    # which does the same work again and raises there.  A node whose
    # producer raised is forced again, so its batch runs again from the
    # stores it was handed; ``given`` keeps them to tell a batch's own
    # copies from them.
    def go(head, konts, dicts):
        given = dicts
        total = 0
        limit = _BATCH_STEPS  # _HARD_STEPS once the batch passes a mark
        loop_key = None  # set only by a batch that ends at a mark
        while True:
            if type(head) is not VisO:  # an event node is resolved
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
                        v = pair(umap(d), v)
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
                        e.at(path[cut:]), lambda x: lazy(lambda: resume(ob.k(x), dicts))))
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
                answer = UNIT
            else:
                answer = dicts[slot].get(key, default)
                if answer.tag is tag and total < limit:
                    if type(kont) is Compute:
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
                        try:
                            answer = nat(fn(got))
                            if type(then) is not Write:  # a branch, under the cap
                                nxt = then(answer)
                                head = nxt._head
                                more = nxt._konts
                                if more is not None:
                                    konts = more if konts is None else _Cat(more, konts)
                                continue
                        except Exception:
                            # the call raises again when observed, after the reads' steps
                            return taus(total, lazy(lambda: go(
                                _Thunk(lambda: then(nat(fn(got)))), konts, dicts)))
                        kont = then
                    if type(kont) is Write:
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
            try:
                if answer.tag is not tag:
                    raise AnswerTagMismatch
                nxt = kont(answer)
                more = nxt._konts
                head = nxt._head
            except Exception:
                # VisO.k checks the answer again and raises what it raises
                ob = observe(ITree(head, konts))
                return taus(total, lazy(lambda: resume(ob.k(answer), dicts)))
            if more is not None:
                konts = more if konts is None else _Cat(more, konts)
            if total >= limit:
                break
        return ITree(TauO(lazy(lambda: go(head, konts, dicts)), total, _key=loop_key))

    def resume(t, dicts):
        return go(t._head, t._konts, dicts)

    return lazy(lambda: go(t._head, t._konts, tuple(dict(map_items(m)) for m in stores)))
