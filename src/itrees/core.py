"""The interaction-tree structure and its one-step observation.

A tree is observed one node at a time: ``observe`` resolves deferred
producers and pending bind continuations until a genuine return, silent
step, or event node surfaces.  Trees are immutable; binding is constant
work because the continuation is queued rather than pushed through the
structure.  A run of silent steps is one counted node (``taus``; ``tau``
is a run of one); it observes one step at a time like nested ``tau``
nodes, and ``TauO.after`` lets a consumer skip any part of it at once.
Return, run and event nodes are their own observations: ``observe``
returns the node itself, or, with binds pending above it, a copy that
carries them.  A store write at a prebuilt ``events.Site`` is continued
by a ``Write``, and a write is an event node built by its ``Write`` when
called with the value.  A computed write's reads, or a branch's, are
continued by a ``Compute``, which feeds their answers to a pure function
and its value to a ``Write`` or a branch.  The fused store fold
(``interp.interp_stores``) answers moves, reads whose continuation is a
``Write``, and ``Compute``s without one: it answers their reads and write
in place and calls nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .values import AnswerTagMismatch, UValue, nat


# A tree's head is a return, silent-run or event node, which is its own
# observation when no binds are pending (``RetO``, ``TauO``, ``VisO``), or
# a deferred producer.  A write is an event node built by its ``Write``;
# the fused store fold answers moves and ``Compute``s without one.

class _Thunk:
    """Deferred tree producer, evaluated at most once."""

    __slots__ = ("fn", "tree")

    def __init__(self, fn):
        self.fn = fn
        self.tree = None

    def force(self):
        if self.tree is None:
            tree = self.fn()
            if type(tree) is not ITree:
                raise TypeError(f"deferred producer returned {tree!r}, not an ITree")
            self.tree = tree
            self.fn = None
        return self.tree


# The pending-bind queue is None, a single continuation, or a _Cat node.
# Concatenation and push are O(1); popping rotates left spines rightward,
# which is amortized O(1) in the linear use observation makes of it.

class _Cat:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


def _cat(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return _Cat(a, b)


def _pop(q):
    while type(q) is _Cat:
        left = q.left
        if type(left) is _Cat:
            q = _Cat(left.left, _cat(left.right, q.right))
        else:
            return left, q.right
    return q, None


class ITree:
    """An interaction tree: a head producer plus queued bind continuations."""

    __slots__ = ("_head", "_konts")

    def __init__(self, head, konts=None):
        self._head = head
        self._konts = konts

    def __repr__(self):
        return f"<ITree at {id(self):#x}>"


@dataclass(slots=True, unsafe_hash=True)
class RetO:
    value: UValue


@dataclass(slots=True, unsafe_hash=True)
class TauO:
    """The tree takes a silent step; ``rest`` is the tree after exactly one.

    The node is a whole run: ``run`` silent steps (at least one), then the
    tree ``_tail``.  ``after(j)`` skips ``j`` of them, ``1 <= j <= run``, in
    constant time, and ``rest`` is ``after(1)``, which holds the remaining
    ``run - 1`` steps as one node.  An observation carries the binds pending
    above the run in ``_konts``, as ``VisO`` does.

    Two private fields annotate a node without changing what it is, so
    equality and hashing leave them out and an observation keeps them:
    ``_mark`` is set on the loop re-entry nodes of ``iterate``, and
    ``_key`` on a batch of the fused store fold that ends at one, where it
    holds the fold's state after the batch (see ``interp_stores``).
    """

    _tail: ITree
    run: int = 1
    _konts: object = field(default=None, repr=False)
    _mark: bool = field(default=False, repr=False, compare=False)
    _key: object = field(default=None, repr=False, compare=False)

    @property
    def rest(self) -> ITree:
        return self.after(1)

    def after(self, j: int) -> ITree:
        run = self.run
        if j == run:
            tail = self._tail
            konts = self._konts
            if konts is None:
                return tail
            return ITree(tail._head, _cat(tail._konts, konts))
        if not 1 <= j < run:
            raise ValueError(f"cannot skip {j} of a run of {run} silent steps")
        return ITree(TauO(self._tail, run - j), self._konts)


@dataclass(slots=True, unsafe_hash=True)
class VisO:
    """The tree emits ``event``; ``k(x)`` is the tree after the answer ``x``.

    ``k`` checks the answer against the event's declared answer shape,
    raising :class:`AnswerTagMismatch` on a mismatch, before applying the
    node's continuation and re-attaching the binds pending above it.
    """

    event: object
    _kont: Callable[[UValue], ITree]
    _konts: object = field(default=None, repr=False)

    def k(self, x: UValue) -> ITree:
        self.event.answer.check(x, "answer")
        nxt = self._kont(x)
        konts = self._konts
        if konts is None:
            return nxt
        return ITree(nxt._head, _cat(nxt._konts, konts))


Observation = RetO | TauO | VisO


class Write:
    """The continuation that writes its argument at the write site
    ``site``, then runs ``rest``: called with a value, it returns the event
    node of that write, whose continuation is a bound method of the
    ``Write``, so two observations of one write compare equal.

    A read continued by a ``Write`` is a move, whose answer is written
    unchanged, and a ``Compute`` continued by one is a computed write; the
    fused store fold sees the ``Write`` and does the write in place,
    building no node and calling nothing.
    """

    __slots__ = ("site", "rest")

    def __init__(self, site, rest: ITree):
        self.site = site
        self.rest = rest

    def __call__(self, v: UValue) -> ITree:
        return ITree(VisO(self.site.written(v), self._after_write))

    def _after_write(self, _):
        return self.rest


class Compute:
    """The continuation of a read whose answer, with the answers of the
    reads ``reads`` still to come, feeds the pure ``fn``; the ``nat`` of
    ``fn``'s int goes to ``then``, a ``Write`` (a computed write) or a
    callable from that value to a tree (a branch).  ``fn`` takes the tuple
    of every read's payload, in order; ``got`` holds those of the reads
    answered before this one.

    Called with an answer, it builds the node of the next read, continued
    by a ``Compute`` that holds the answers so far, or after the last read
    it applies ``then`` to the value.  The fused store fold answers the
    reads, computes the value and does a ``Write`` in place instead.  Its
    fields are set once, and it compares by identity.
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


def write_at(site, rest: ITree) -> Write:
    """The continuation that writes its argument at the write site
    ``site``, then runs ``rest`` (a ``Write``)."""
    return Write(site, rest)


def ret(v: UValue) -> ITree:
    """The computation that immediately returns ``v``."""
    if not isinstance(v, UValue):
        raise AnswerTagMismatch(f"trees return UValues, got {v!r}")
    return ITree(RetO(v))


def tau(t: ITree) -> ITree:
    """One silent step, then ``t``."""
    return ITree(TauO(t))


def taus(n: int, t: ITree) -> ITree:
    """``n`` silent steps, then ``t``, held as one node: observing it steps
    once at a time like ``n`` nested ``tau``, and ``TauO.after`` skips any
    part of the run at once.  ``n`` is at least one."""
    if n < 1:
        raise ValueError(f"a run needs at least one silent step, got {n}")
    return ITree(TauO(t, n))


def vis(event, kont: Callable[[UValue], ITree]) -> ITree:
    """Emit ``event`` and continue with the environment's answer.

    Answers whose tag disagrees with the event's declared answer type raise
    :class:`AnswerTagMismatch` when ``VisO.k`` applies them.
    """
    return ITree(VisO(event, kont))


def lazy(fn: Callable[[], ITree]) -> ITree:
    """Defer construction; ``fn`` runs at most once, at first observation."""
    return ITree(_Thunk(fn))


def bind(t: ITree, k: Callable[[UValue], ITree]) -> ITree:
    """Run ``t``; feed its return value to ``k``.  Constant work."""
    return ITree(t._head, _cat(t._konts, k))


def trigger(event) -> ITree:
    """Emit ``event`` and return whatever the environment answers."""
    return vis(event, ret)


def _resolve(head, konts):
    """Force deferred producers and consume pending continuations until a
    genuine node surfaces: a return with no binds pending, a silent run or
    an event.  Returns that raw head and the binds still pending above it.

    Each resolution step consumes a pending continuation or a produced node,
    so a single call terminates even on globally infinite trees.  This is
    the one resolution loop: ``observe`` turns its result into an
    observation, and the fused store fold steps on it directly.
    """
    while True:
        tp = type(head)
        if tp is _Thunk:
            u = head.force()
            more = u._konts
            if more is not None:
                konts = more if konts is None else _Cat(more, konts)
            head = u._head
        elif tp is RetO and konts is not None:
            if type(konts) is not _Cat:
                k, konts = konts, None
            elif type(konts.left) is not _Cat:
                k, konts = konts.left, konts.right
            else:
                k, konts = _pop(konts)
            nxt = k(head.value)
            if type(nxt) is not ITree:
                raise TypeError(f"continuation returned {nxt!r}, not an ITree")
            more = nxt._konts
            if more is not None:
                konts = more if konts is None else _Cat(more, konts)
            head = nxt._head
        else:
            return head, konts


def observe(t: ITree) -> Observation:
    """Resolve to the next return, silent step, or event node.

    Deferred producers are forced (once) and return-value continuations are
    consumed until a genuine node surfaces (see ``_resolve``).
    """
    head, konts = _resolve(t._head, t._konts)
    if konts is None:
        return head
    if type(head) is TauO:
        return TauO(head._tail, head.run, konts, head._mark, head._key)
    return VisO(head.event, head._kont, konts)


def burn(n: int, t: ITree) -> ITree:
    """Strip up to ``n`` leading silent steps, whole runs at a time."""
    while n > 0:
        ob = observe(t)
        if type(ob) is not TauO:
            break
        j = min(ob.run, n)
        t = ob.after(j)
        n -= j
    return t


def run_to_head(t: ITree, fuel: int) -> tuple[Observation, int]:
    """Burn silent steps up to ``fuel``, whole runs at a time; return the
    last observation and the number of steps consumed.

    It lets go of ``t`` once observed, so a caller that passes the root
    without keeping it lets the runs already taken be freed as it goes:
    a memoized root would keep every one of them alive."""
    steps = 0
    ob = observe(t)
    del t
    while type(ob) is TauO and steps < fuel:
        j = ob.run
        left = fuel - steps
        if j > left:
            j = left
        steps += j
        ob = observe(ob.after(j))
    return ob, steps


def spin() -> ITree:
    """The silently divergent tree: observing it always yields a silent step
    leading back to itself."""
    t = lazy(lambda: tau(t))
    return t
