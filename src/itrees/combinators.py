"""Continuation trees and the iteration/recursion combinators.

A KTree is a function from a value to a tree; composition is bind.  Sums at
the value level use the Pair(Bool,_) encoding from :mod:`itrees.values`, so
``case_``-style dispatch inspects the boolean side marker.  ``iterate`` is
the loop primitive: one silent step per repeat, no guardedness requirement
on the body.  ``loop_mark`` builds the denotations' shared back edges.
``mrec`` ties recursive knots by treating calls as events and interpreting
them against the remaining tree, so deep recursions never grow the host
stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import ITree, RetO, TauO, bind, lazy, observe, ret, tau, trigger, vis
from .events import LEFT, RIGHT, EventInstance, EventSig, WrongSignature, event
from .values import UValue, VType, inl, inr, label, label_t, un_sum


@dataclass(frozen=True)
class KTree:
    """A value-consuming tree: morphism of the Kleisli category.

    ``dom`` is optional metadata describing accepted inputs; checkers use it
    to enumerate small domains exhaustively.
    """

    fn: Callable[[UValue], ITree]
    dom: VType | None = None

    def __call__(self, v: UValue) -> ITree:
        return self.fn(v)


def kt_id(dom=None) -> KTree:
    return KTree(ret, dom)


def kt_pure(f: Callable[[UValue], UValue], dom=None) -> KTree:
    return KTree(lambda a: ret(f(a)), dom)


def kt_cat(h: KTree, k: KTree) -> KTree:
    return KTree(lambda a: bind(h(a), k.fn), h.dom)


def kt_case(h: KTree, k: KTree) -> KTree:
    def dispatch(v):
        is_left, payload = un_sum(v)
        return h(payload) if is_left else k(payload)

    return KTree(dispatch)


def kt_inl(dom=None) -> KTree:
    return KTree(lambda a: ret(inl(a)), dom)


def kt_inr(dom=None) -> KTree:
    return KTree(lambda b: ret(inr(b)), dom)


def kt_bimap(f: KTree, g: KTree) -> KTree:
    return kt_case(kt_cat(f, kt_inl()), kt_cat(g, kt_inr()))


def kt_swap() -> KTree:
    return kt_case(kt_inr(), kt_inl())


def split_fin(n1: int, n2: int) -> KTree:
    """Label(n1+n2) -> Label(n1) + Label(n2), low indices on the left."""

    def go(v):
        i = label_t(n1 + n2).check(v, "label").payload
        if i < n1:
            return ret(inl(label(i, n1)))
        return ret(inr(label(i - n1, n2)))

    return KTree(go, label_t(n1 + n2))


def merge_fin(n1: int, n2: int) -> KTree:
    """Label(n1) + Label(n2) -> Label(n1+n2); inverse of ``split_fin``."""

    def go(v):
        is_left, payload = un_sum(v)
        if is_left:
            return ret(label(label_t(n1).check(payload).payload, n1 + n2))
        return ret(label(n1 + payload.payload, n1 + n2))

    return KTree(go)


def loop_mark(build: Callable[[], ITree]) -> ITree:
    """A loop's shared back edge: one silent step with ``TauO._mark`` set,
    then the tree ``build()`` returns, built on first entry.  It observes
    like ``tau``; the fused store fold ends its batches at marks, where the
    loop state can be read (see ``interp_stores``)."""
    return ITree(TauO(lazy(build), _mark=True))


def iterate(body: KTree) -> KTree:
    """Repeat ``body`` until it returns a Right.

    A Left(a') answer costs one silent step and re-enters with a'; a
    Right(b) returns b.  Divergence is a legal outcome.  Each call and
    each re-entry runs ``body`` afresh, so nothing is kept between them.
    """

    fn = body.fn

    def step(ab):
        is_left, payload = un_sum(ab)
        if not is_left:
            return ret(payload)
        return tau(lazy(lambda: bind(fn(payload), step)))

    return KTree(lambda a: bind(fn(a), step), body.dom)


def loop(body: KTree) -> KTree:
    """Patch a body's Left output port back to its Left input port.

    The body maps C+A to C+B; entering at Right(a), every Left(c) output is
    fed back in as Left(c) until a Right(b) escapes.
    """

    def reclassify(cb):
        is_left, payload = un_sum(cb)
        if is_left:
            return ret(inl(inl(payload)))
        return ret(inr(payload))

    stepped = iterate(KTree(lambda ca: bind(body(ca), reclassify)))
    return KTree(lambda a: stepped(inr(a)), body.dom)


@dataclass(frozen=True)
class RecHandler:
    """A recursive event handler: call events answered by a body that may
    itself trigger further call events (Left) or external events (Right)."""

    dsig: EventSig
    body: Callable[[EventInstance], ITree]


def rec_call(sig: EventSig, kind: str, *args: UValue) -> ITree:
    """Trigger a recursive call from inside a recursive handler body."""
    return trigger(event(sig, kind, *args, path=(LEFT,)))


def mrec(rh: RecHandler, e0: EventInstance) -> ITree:
    """Interpret the call events of ``rh.body(e0)`` by splicing the handler
    back in front of the continuation, one node per silent step."""
    if e0.sig != rh.dsig or e0.path:
        raise WrongSignature(f"{e0!r} is not a bare event of {rh.dsig!r}")
    return _mrec_tree(rh, rh.body(e0))


def _mrec_tree(rh: RecHandler, t0: ITree) -> ITree:
    def go(t):
        return lazy(lambda: step(t))

    def step(t):
        ob = observe(t)
        if type(ob) is RetO:
            return ret(ob.value)
        if type(ob) is TauO:
            return tau(go(ob.rest))
        e, k = ob.event, ob.k
        if e.path and e.path[0] == LEFT:
            call = e.at(e.path[1:])
            if call.sig != rh.dsig or call.path:
                raise WrongSignature(f"{e!r} is not a call event of {rh.dsig!r}")
            return tau(go(bind(rh.body(call), k)))
        if e.path and e.path[0] == RIGHT:
            outer = e.at(e.path[1:])
            return vis(outer, lambda x: tau(go(k(x))))
        raise WrongSignature(f"unclassified event {e!r} under mrec")

    return go(t0)
