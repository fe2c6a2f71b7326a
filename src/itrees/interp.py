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

from typing import Callable

from .core import (
    ITree,
    RetO,
    SiteNode,
    TauO,
    VisO,
    _Cat,
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

# The silent steps after which a batch of ``interp_stores`` hands a node to
# its consumer; a source silent run that crosses it ends the batch whole.
# A tree can step silently or emit store events forever, and observing the
# interpreted tree must still return.  A batch that has passed a loop mark
# goes on to the next mark instead, but never past ``_HARD_STEPS``.
_BATCH_STEPS = 256
_HARD_STEPS = 4 * _BATCH_STEPS

_NO_ROUTES: dict = {}  # what the table of ``interp_stores`` holds for a kind it never routes

# Route tables by store count and routes, so that calls with equal routes
# share one table and a site's cached route (``Site.memo``) serves them
# all.  A caller that keeps changing its routes only refills the cache.
_TABLES: dict = {}
_TABLES_KEPT = 64


def _route_table(routes: dict, n: int) -> dict:
    """kind -> path -> (slot, default, steps) over ``n`` stores, keyed by
    kind, then path, so no key tuple is built per event."""
    key = (n, tuple(routes.items()))
    table = _TABLES.get(key)
    if table is None:
        if len(_TABLES) >= _TABLES_KEPT:
            _TABLES.clear()
        table = _TABLES[key] = {}
        for (path, kind), (slot, default) in routes.items():
            table.setdefault(kind, {})[path] = (slot, default, 1 + len(path) + n - slot)
    return table


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
    tree built per event.  An event or site head is already resolved, so
    when a continuation returns one, as the denotations' continuations do,
    the pass goes straight to its route without calling ``_resolve``, and
    it queues the continuation's own pending binds in place.

    A store event comes as a site node (``core.SiteNode``), as the
    denotations emit them, or as a ``VisO``.  A site's route, key and
    answer tag are looked up on its first visit under a route table and
    cached on the site (``Site.memo``).  Calls with equal routes over as
    many stores share one table, so a denotation run from several initial
    stores looks each site up once.  A site node carries no event, so none
    is built or taken apart; a write site's node holds the tree after it,
    which the pass takes without a call.  A ``VisO`` store event has its
    route looked up by kind and path and its key and value read off its
    arguments.  From there both take the same step.  A site whose route
    reads where the site writes, or the other way round, has no route.
    Each answer is checked once, by one tag test when the event's declared
    answer shape is decided by its tag (the unit, for a write), and a
    mismatch raises ``AnswerTagMismatch`` at the read that produced it, as
    ``VisO.k`` would.

    Store events are answered in place, in batches: the steps of a batch
    are one counted node (``taus``), so consumers that take silent runs
    whole skip it at once, and a batch takes the source's silent runs whole
    too, so a loop iteration or a block jump does not end it.  A batch ends
    at a return; at an outward event, after its steps; before a node whose
    observation or continuation raises, or that has no route, so the tree
    raises at the step it would raise unbatched; and once it holds
    ``_BATCH_STEPS`` steps or more, so that observing ``spin()`` or a tree
    of endless store events returns.  A batch copies each store at most
    once, on its first write to it, and never writes the stores it was
    handed, so a batch that runs again, or an outward event answered twice,
    starts from the same stores.

    Loops mark their re-entry nodes (``iterate``).  A batch that has
    passed a mark and holds ``_BATCH_STEPS`` steps or more ends at the next
    mark, before its step, or once it holds ``_HARD_STEPS`` or more, so a
    long loop body cannot stretch it; a source with no marks ends every
    batch at ``_BATCH_STEPS`` as before.  Grouping steps into batches is
    not observable, so step counts do not change.  A batch that ends at a
    mark carries in ``TauO._key`` the loop key: the fold, the marked head,
    the pending binds and the stores, the whole state the rest of the tree
    is a function of.  The stores are snapshots there, since the next batch
    copies a store before it writes to it, so the key costs one tuple per
    batch and nothing on the fold's per-step path.  ``eutt`` compares keys
    with ``==`` and relies on one condition: two equal keys lead to the
    same tree.  It holds because trees and continuations are pure and
    immutable, a site never changes what it stands for (its cached route
    only saves a lookup), and each component compares as finely as it
    must: the fold and the binds (functions and ``_Cat`` nodes, with the
    site nodes and sites their closures hold) by identity, the marked
    ``TauO`` by its tail's identity, and the stores by content.
    """
    for m in stores:
        MAP_T.check(m, "initial map")
    n = len(stores)
    table = _route_table(routes, n)
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
        while True:
            kind = type(head)
            if kind is not SiteNode and kind is not VisO:  # those are resolved
                try:
                    head, konts = _resolve(head, konts)
                except Exception:
                    if not total:
                        raise
                    return taus(total, lazy(lambda: go(head, konts, dicts)))
                kind = type(head)
                if kind is TauO:
                    if head._mark:
                        # at the cap here only if the batch passed a mark
                        if total >= _BATCH_STEPS:
                            return ITree(TauO(lazy(lambda: go(head, konts, dicts)), total,
                                              _key=(go, head, konts, dicts)))
                        limit = _HARD_STEPS
                    total += head.run
                    tail = head._tail
                    head = tail._head
                    more = tail._konts
                    if more is not None:
                        konts = more if konts is None else _Cat(more, konts)
                    if total >= limit:
                        return taus(total, lazy(lambda: go(head, konts, dicts)))
                    continue
                if kind is RetO:
                    v = head.value
                    for d in reversed(dicts):
                        v = pair(umap(d), v)
                    return taus(total, ret(v)) if total else ret(v)
            if kind is SiteNode:
                site = head.site
                memo = site.memo
                if memo[0] is table:
                    route = memo[1]
                else:  # the site's first visit under this table
                    route = table.get(site.kind, _NO_ROUTES).get(site.path)
                    if route is None or (route[1] is None) != (site.event is None):
                        route = ()
                    else:
                        route += (site.key.payload, site.tag)
                    site.memo = (table, route)
                value = head.value
                kont = head.next  # the tree after it, for a write
            else:
                e = head.event
                route = table.get(e.kind, _NO_ROUTES).get(e.path)
                if route is not None:
                    args = e.args
                    value = args[1] if route[1] is None else None
                    route += (args[0].payload, e.answer.sole_tag())
                kont = head._kont
            if not route:
                ob = observe(ITree(head, konts))
                e = ob.event
                path = e.path
                if path[:cut] == outward:
                    return taus(total + outward_steps, vis(
                        e.at(path[cut:]), lambda x: lazy(lambda: resume(ob.k(x), dicts))))
                if not total:
                    raise UnhandledEvent(f"{e!r} has no route in interp_stores")
                return taus(total, lazy(lambda: go(head, konts, dicts)))
            slot, default, steps, key, tag = route
            if default is None:
                d = dicts[slot]
                if d is given[slot]:  # the batch's first write to this store
                    d = dict(d)
                    dicts = dicts[:slot] + (d,) + dicts[slot + 1:]
                d[key] = value
                answer = UNIT
            else:
                answer = dicts[slot].get(key, default)
            total += steps
            try:
                if answer.tag is not tag:
                    raise AnswerTagMismatch
                nxt = kont if type(kont) is ITree else kont(answer)
                more = nxt._konts
                head = nxt._head
            except Exception:
                # VisO.k checks the answer again and raises what it raises
                ob = observe(ITree(head, konts))
                return taus(total, lazy(lambda: resume(ob.k(answer), dicts)))
            if more is not None:
                konts = more if konts is None else _Cat(more, konts)
            if total >= limit:
                return taus(total, lazy(lambda: go(head, konts, dicts)))

    def resume(t, dicts):
        return go(t._head, t._konts, dicts)

    return lazy(lambda: go(t._head, t._konts, tuple(dict(map_items(m)) for m in stores)))
