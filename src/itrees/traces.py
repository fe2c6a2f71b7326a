"""Finite observation prefixes of trees and bounded trace refinement.

A trace records the events a tree emitted together with the answers the
environment chose, ending in a return, a cut-off, or a pending event.
Refinement and equivalence are decided over bounded enumerations; queries
that outrun a budget come back inconclusive instead of guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .bisim import (
    DEFAULT_NAT_PROBES,
    PROVEN,
    Reason,
    Verdict,
    enumerate_answers,
    merge_verdicts,
    refuted,
    unknown,
)
from .core import ITree, RetO, TauO, VisO, run_to_head
from .events import EventInstance, render_event, render_event_response
from .values import Tag, UValue, render_value


@dataclass(frozen=True)
class TEnd:
    """A partial trace: observation stopped here."""


@dataclass(frozen=True)
class TRet:
    value: UValue


@dataclass(frozen=True)
class TEventResponse:
    event: EventInstance
    answer: UValue
    rest: "Trace"


@dataclass(frozen=True)
class TEventEnd:
    """The tree is waiting on this event; no answer was provided."""

    event: EventInstance


Trace = Union[TEnd, TRet, TEventResponse, TEventEnd]

TEND = TEnd()


def render_trace(tr: Trace) -> str:
    """The stable one-line form: ``Kind(args)=answer ; ... ; ret v``."""
    parts = []
    while isinstance(tr, TEventResponse):
        parts.append(render_event_response(tr.event, tr.answer))
        tr = tr.rest
    if isinstance(tr, TRet):
        parts.append(f"ret {render_value(tr.value)}")
    elif isinstance(tr, TEventEnd):
        parts.append(f"{render_event(tr.event)}?")
    else:
        parts.append("end")
    return " ; ".join(parts)


def is_trace_of(t: ITree, tr: Trace, tau_budget: int):
    """Decide whether ``tr`` is an observation prefix of ``t``.

    Returns True, False, or None when a silent-step budget ran out before
    the tree exposed the next node.
    """
    while True:
        if isinstance(tr, TEnd):
            return True
        ob, _ = run_to_head(t, tau_budget)
        if type(ob) is TauO:
            return None
        if isinstance(tr, TRet):
            return type(ob) is RetO and ob.value == tr.value
        if isinstance(tr, TEventEnd):
            return type(ob) is VisO and ob.event == tr.event
        if type(ob) is not VisO or ob.event != tr.event:
            return False
        if not ob.event.answer.accepts(tr.answer):
            return False
        t = ob.k(tr.answer)
        tr = tr.rest


class AnswerSpaceTooLarge(ValueError):
    """Exact enumeration was requested over a non-enumerable answer space."""


MAX_EVENT_DEPTH = 200  # enumeration and hashing recurse once per event


def enumerate_traces(t: ITree, event_depth: int, tau_budget: int,
                     nat_probes: Sequence[int] = DEFAULT_NAT_PROBES,
                     exact: bool = False) -> set:
    """All traces of ``t`` with at most ``event_depth`` events.

    The frontier is uniform in event depth, so every cut-off member keeps
    its TEnd truncations in the set.  Nat answers use the probe set unless
    ``exact`` is set, in which case they raise.  Depths above
    ``MAX_EVENT_DEPTH`` raise ``ValueError``: they could exhaust the Python
    stack.
    """
    if event_depth > MAX_EVENT_DEPTH:
        raise ValueError(
            f"event depth {event_depth} is above MAX_EVENT_DEPTH = {MAX_EVENT_DEPTH}")
    return set(_traces(t, event_depth, tau_budget, nat_probes, exact))


def _traces(t, event_depth, tau_budget, nat_probes, exact) -> list:
    # Each level is a list: traces that answer an event differently already
    # differ, so a set per level would only hash every nested sub-trace again
    # at each level.  The caller's one set drops what a repeated probe repeats.
    traces = [TEND]
    ob, _ = run_to_head(t, tau_budget)
    if type(ob) is TauO:
        return traces
    if type(ob) is RetO:
        traces.append(TRet(ob.value))
        return traces
    if event_depth <= 0:
        return traces
    traces.append(TEventEnd(ob.event))
    answers = enumerate_answers(ob.event.answer, nat_probes)
    if answers is None or (exact and ob.event.answer.tag is Tag.NAT):
        raise AnswerSpaceTooLarge(f"cannot enumerate answers of {ob.event!r}")
    for x in answers:
        traces += [TEventResponse(ob.event, x, sub)
                   for sub in _traces(ob.k(x), event_depth - 1, tau_budget, nat_probes, exact)]
    return traces


def trace_refines(t: ITree, u: ITree, event_depth: int, tau_budget: int,
                  nat_probes: Sequence[int] = DEFAULT_NAT_PROBES) -> Verdict:
    """Every enumerated trace of ``t`` must be a trace of ``u``.  An
    ``event_depth`` above ``MAX_EVENT_DEPTH`` raises ``ValueError``."""
    def verdict(tr):
        got = is_trace_of(u, tr, tau_budget)
        if got is None:
            return unknown(Reason.TAU_BUDGET)
        return PROVEN if got else refuted((("trace", tr),))

    return merge_verdicts(map(verdict, enumerate_traces(t, event_depth, tau_budget, nat_probes)))


def trace_equiv(t: ITree, u: ITree, event_depth: int, tau_budget: int,
                nat_probes: Sequence[int] = DEFAULT_NAT_PROBES) -> Verdict:
    return merge_verdicts(trace_refines(a, b, event_depth, tau_budget, nat_probes)
                          for a, b in ((t, u), (u, t)))
