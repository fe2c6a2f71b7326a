"""Event handlers and the generic interpreter.

A handler assigns each event a computation in a target monad; ``interp``
folds it over a tree.  Two targets are supported: trees themselves, and
state transformers stacked over a tree target.  The fold spends one
target-level silent step per source node consumed (silent or visible), so
step counts are deterministic and the weak checker absorbs them.
``interp_stores`` fuses a renaming fold and one map fold per store into a
single pass with the same step counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import ITree, RetO, TauO, bind, lazy, observe, ret, tau, trigger, vis
from .events import (
    LEFT,
    RIGHT,
    EventInstance,
    EventSig,
    Signature,
    SumSig,
    map_default_of,
    state_sig,
)
from .values import (
    MAP_T,
    UNIT,
    UValue,
    VType,
    fst,
    map_get,
    map_items,
    map_remove,
    map_set,
    pair,
    snd,
    umap,
    unit,
)


class UnhandledEvent(ValueError):
    """The tree produced an event outside the handler's source signature."""


class ITreeTarget:
    """Computations are plain trees."""

    def ret(self, v: UValue) -> ITree:
        return ret(v)

    def bind(self, m: ITree, k) -> ITree:
        return bind(m, k)

    def guard(self, thunk: Callable[[], ITree]) -> ITree:
        return tau(lazy(thunk))


ITREES = ITreeTarget()


class StateTarget:
    """Computations are functions from a state value to an inner computation
    of Pair(state', result)."""

    def __init__(self, state_t: VType, inner=ITREES):
        self.state_t = state_t
        self.inner = inner

    def ret(self, v: UValue):
        return lambda s: self.inner.ret(pair(s, v))

    def bind(self, m, k):
        def run(s):
            return self.inner.bind(m(s), lambda sr: k(snd(sr))(fst(sr)))

        return run

    def guard(self, thunk):
        return lambda s: self.inner.guard(lambda: thunk()(s))


@dataclass(frozen=True)
class Handler:
    """Maps events of ``source`` to computations in ``target``."""

    source: Signature | None
    target: object
    apply: Callable[[EventInstance], object]


def interp(h: Handler, t: ITree):
    """Fold ``h`` over ``t``: returns pass through, events run the handler,
    and every consumed node costs one target-level silent step."""
    m = h.target
    apply = h.apply

    def go(t):
        ob = observe(t)
        kind = type(ob)
        if kind is RetO:
            return m.ret(ob.value)
        if kind is TauO:
            rest = ob.rest
            return m.guard(lambda: go(rest))
        e, k = ob.event, ob.k
        return m.guard(lambda: m.bind(apply(e), lambda x: go(k(x))))

    return go(t)


# The cocartesian structure on tree-targeted handlers: identity is trigger,
# composition is interpretation.

def handler_id(sig: Signature) -> Handler:
    return Handler(sig, ITREES, trigger)


def handler_cat(h: Handler, g: Handler) -> Handler:
    return Handler(h.source, g.target, lambda e: interp(g, h.apply(e)))


def handler_case(h: Handler, g: Handler) -> Handler:
    source = None
    if h.source is not None and g.source is not None:
        source = SumSig(h.source, g.source)

    def apply(e: EventInstance):
        if e.path and e.path[0] == LEFT:
            return h.apply(e.at(e.path[1:]))
        if e.path and e.path[0] == RIGHT:
            return g.apply(e.at(e.path[1:]))
        raise UnhandledEvent(f"{e!r} is not classified within a sum")

    return Handler(source, g.target, apply)


def handler_inl() -> Handler:
    return Handler(None, ITREES, lambda e: trigger(e.at((LEFT,) + e.path)))


def handler_inr() -> Handler:
    return Handler(None, ITREES, lambda e: trigger(e.at((RIGHT,) + e.path)))


def handler_bimap(h: Handler, g: Handler) -> Handler:
    """Route a sum's left events through ``h`` and right events through
    ``g``, re-injecting each side's output events on its own side."""
    return handler_case(handler_cat(h, handler_inl()), handler_cat(g, handler_inr()))


# State events.

def handle_state(state_t: VType) -> Handler:
    sig = state_sig(state_t)

    def apply(e: EventInstance):
        if e.kind == "Get":
            return lambda s: ret(pair(s, s))
        if e.kind == "Put":
            new = e.args[0]
            return lambda s: ret(pair(new, unit()))
        raise UnhandledEvent(f"{e!r} is not a state event")

    return Handler(sig, StateTarget(state_t), apply)


def _route_through_state(e: EventInstance):
    """Pass an event through untouched, threading the state around it."""
    return lambda s: bind(trigger(e), lambda x: ret(pair(s, x)))


def interp_state(t: ITree, s0: UValue) -> ITree:
    """Interpret the left state events of a State+E tree, threading ``s0``.

    The result tree is over E and returns Pair(final state, result).
    """
    state_t = VType(s0.tag, s0.bound)
    h_state = handle_state(state_t)

    def apply(e: EventInstance):
        if e.path and e.path[0] == LEFT:
            return h_state.apply(e.at(e.path[1:]))
        if e.path and e.path[0] == RIGHT:
            return _route_through_state(e.at(e.path[1:]))
        raise UnhandledEvent(f"{e!r} reached interp_state unclassified")

    h = Handler(None, h_state.target, apply)
    return interp(h, t)(s0)


def handle_map(sig: EventSig) -> Handler:
    default = map_default_of(sig)

    def apply(e: EventInstance):
        if e.kind == "Insert":
            key, val = e.args[0].payload, e.args[1]
            return lambda m: ret(pair(map_set(m, key, val), unit()))
        if e.kind == "LookupDefault":
            key = e.args[0].payload
            return lambda m: ret(pair(m, map_get(m, key, default)))
        if e.kind == "Remove":
            key = e.args[0].payload
            return lambda m: ret(pair(map_remove(m, key), unit()))
        raise UnhandledEvent(f"{e!r} is not a map event")

    return Handler(sig, StateTarget(MAP_T), apply)


def interp_map(t: ITree, m0: UValue) -> ITree:
    """Interpret the left map events of a MapDefault+E tree over the initial
    map ``m0``; lookups of absent keys yield the signature's default.

    This is the state-transformer instance of ``interp`` unrolled by hand —
    same one-silent-step-per-node discipline, but it threads the map
    directly instead of stacking closures.  Stacked under a renaming
    ``interp`` it is the layered specification that ``interp_stores``
    fuses.
    """
    MAP_T.check(m0, "initial map")
    defaults: dict = {}  # id(sig) -> (sig, default); sigs are shared objects

    def default_of(sig):
        entry = defaults.get(id(sig))
        if entry is None:
            entry = (sig, map_default_of(sig))
            defaults[id(sig)] = entry
        return entry[1]

    def go(t, m):
        ob = observe(t)
        kind = type(ob)
        if kind is RetO:
            return ret(pair(m, ob.value))
        if kind is TauO:
            rest = ob.rest
            return tau(lazy(lambda: go(rest, m)))
        e, k = ob.event, ob.k
        path = e.path
        if path and path[0] == LEFT:
            inner = e.at(path[1:])
            op = inner.kind
            if op == "Insert":
                m2 = map_set(m, inner.args[0].payload, inner.args[1])
                return tau(lazy(lambda: go(k(unit()), m2)))
            if op == "LookupDefault":
                answer = map_get(m, inner.args[0].payload, default_of(inner.sig))
                return tau(lazy(lambda: go(k(answer), m)))
            if op == "Remove":
                m2 = map_remove(m, inner.args[0].payload)
                return tau(lazy(lambda: go(k(unit()), m2)))
            raise UnhandledEvent(f"{inner!r} is not a map event")
        if path and path[0] == RIGHT:
            outer = e.at(path[1:])
            return tau(lazy(lambda: vis(outer, lambda x: lazy(lambda: go(k(x), m)))))
        raise UnhandledEvent(f"{e!r} reached interp_map unclassified")

    return lazy(lambda: go(t, m0))


# The fused store-passing fold.

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
    """
    for m in stores:
        MAP_T.check(m, "initial map")
    n = len(stores)
    table = {(path, kind): (slot, default, 1 + len(path) + n - slot)
             for (path, kind), (slot, default) in routes.items()}
    cut = len(outward)
    outward_steps = 1 + cut + n

    def go(t, dicts):
        ob = observe(t)
        kind = type(ob)
        if kind is TauO:
            rest = ob.rest
            return tau(lazy(lambda: go(rest, dicts)))
        if kind is RetO:
            v = ob.value
            for d in reversed(dicts):
                v = pair(umap(d), v)
            return ret(v)
        e, k = ob.event, ob.k
        path = e.path
        route = table.get((path, e.kind))
        if route is not None:
            slot, default, steps = route
            key = e.args[0].payload
            if default is None:
                d = dict(dicts[slot])
                d[key] = e.args[1]
                after = dicts[:slot] + (d,) + dicts[slot + 1:]
                nxt = lazy(lambda: go(k(UNIT), after))
            else:
                answer = dicts[slot].get(key, default)
                nxt = lazy(lambda: go(k(answer), dicts))
        elif path[:cut] == outward:
            steps = outward_steps
            nxt = vis(e.at(path[cut:]), lambda x: lazy(lambda: go(k(x), dicts)))
        else:
            raise UnhandledEvent(f"{e!r} has no route in interp_stores")
        for _ in range(steps):
            nxt = tau(nxt)
        return nxt

    return lazy(lambda: go(t, tuple(dict(map_items(m)) for m in stores)))
