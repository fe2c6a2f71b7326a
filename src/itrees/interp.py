"""Event handlers and the generic interpreter.

A handler is a function from an event to the tree that answers it;
``interp`` folds it over a tree.  State and map events are folded by one
state-passing pass (``interp_state``, ``interp_map``).  Every fold spends
one silent step per source node consumed (silent or visible), so step
counts are deterministic and the weak checker absorbs them.
``stores.interp_stores`` fuses a renaming fold and one map fold per store
into a single pass with the same step counts.
"""

from __future__ import annotations

from typing import Callable

from .core import ITree, RetO, TauO, bind, lazy, observe, ret, tau, trigger, vis
from .events import LEFT, RIGHT, EventInstance, map_default_of
from .values import MAP_T, UNIT, UValue, map_get, map_remove, map_set, pair


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
    that ``stores.interp_stores`` fuses.
    """
    MAP_T.check(m0, "initial map")
    return _fold_state(t, m0, _map_step)
