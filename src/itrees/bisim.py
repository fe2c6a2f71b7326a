"""Bounded strong and weak bisimulation with three-valued verdicts.

The checkers approximate the greatest-fixpoint definitions with plain
budgets: ``depth`` bounds node-aligned descent, ``tau_budget`` bounds
one-sided silent stripping between alignment points, and infinite answer
spaces are probed.  Refutations carry a replayable counterexample path;
budget exhaustion is reported as Unknown rather than guessed at.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

from .core import ITree, RetO, TauO, VisO, observe
from .values import Tag, UValue, boolean, label, nat, unit

DEFAULT_NAT_PROBES = (0, 1, 2, 9, 17)


class Reason(Enum):
    TAU_BUDGET = "tau-budget"
    DEPTH_BUDGET = "depth-budget"
    NODE_BUDGET = "node-budget"
    ANSWER_SPACE = "answer-space-too-large"


class Status(Enum):
    PROVEN = "proven"
    REFUTED = "refuted"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    status: Status
    witness: tuple = ()
    reason: Reason | None = None

    @property
    def proven(self):
        return self.status is Status.PROVEN

    @property
    def refuted(self):
        return self.status is Status.REFUTED

    @property
    def unknown(self):
        return self.status is Status.UNKNOWN

    def __repr__(self):
        if self.proven:
            return "Proven"
        if self.refuted:
            return f"Refuted({describe_witness(self.witness)})"
        return f"Unknown({self.reason.value if self.reason else '?'})"


PROVEN = Verdict(Status.PROVEN)


def refuted(witness) -> Verdict:
    return Verdict(Status.REFUTED, tuple(witness))


def unknown(reason: Reason) -> Verdict:
    return Verdict(Status.UNKNOWN, (), reason)


def merge_verdicts(verdicts: Iterable[Verdict]) -> Verdict:
    """Refuted dominates, then Unknown, then Proven."""
    worst = PROVEN
    for v in verdicts:
        if v.refuted:
            return v
        if v.unknown:
            worst = v
    return worst


@dataclass(frozen=True)
class RelSpec:
    """A named relation on returned values."""

    name: str
    relates: Callable[[UValue, UValue], bool]


EQ = RelSpec("eq", operator.eq)


def enumerate_answers(vt, nat_probes: Sequence[int] = DEFAULT_NAT_PROBES):
    """All answers of a shape, or None when the space cannot be enumerated.

    Unit, Bool and Label spaces are exact; Nat is sampled at the probe set;
    anything else is declared too large.
    """
    tag = vt.tag
    if tag is Tag.UNIT:
        return [unit()]
    if tag is Tag.BOOL:
        return [boolean(False), boolean(True)]
    if tag is Tag.LABEL and vt.bound is not None:
        return [label(i, vt.bound) for i in range(vt.bound)]
    if tag is Tag.EMPTY:
        return []
    if tag is Tag.NAT:
        return [nat(n) for n in nat_probes]
    return None


def _observed_shape(ob) -> str:
    if type(ob) is RetO:
        return f"ret {ob.value!r}"
    if type(ob) is TauO:
        return "tau"
    return f"vis {ob.event!r}"


def describe_witness(witness) -> str:
    return " ; ".join(_step_text(step) for step in witness)


def _step_text(step):
    kind = step[0]
    if kind == "tau":
        return "tau"
    if kind == "taul":
        return "tau<"
    if kind == "taur":
        return ">tau"
    if kind == "event":
        from .traces import render_event_response

        return render_event_response(step[1], step[2])
    if kind == "ret-mismatch":
        return f"ret {step[1]!r} != ret {step[2]!r}"
    if kind == "rel-fails":
        return f"ret {step[1]!r} !~ ret {step[2]!r}"
    if kind == "event-mismatch":
        return f"{step[1]!r} != {step[2]!r}"
    if kind == "input":
        return f"input {step[1]!r}"
    return f"{step[1]} != {step[2]}"


def strong_bisim(t1: ITree, t2: ITree, depth: int,
                 nat_probes: Sequence[int] = DEFAULT_NAT_PROBES) -> Verdict:
    """Node-exact comparison: same shapes, same values, same step counts."""
    pending = [(t1, t2, depth, ())]
    worst = PROVEN
    while pending:
        a, b, fuel, path = pending.pop()
        oa, ob = observe(a), observe(b)
        ta, tb = type(oa), type(ob)
        if ta is not tb:
            return refuted(path + (("shape", _observed_shape(oa), _observed_shape(ob)),))
        if ta is RetO:
            if oa.value != ob.value:
                return refuted(path + (("ret-mismatch", oa.value, ob.value),))
            continue
        if fuel <= 0:
            worst = unknown(Reason.DEPTH_BUDGET)
            continue
        if ta is TauO:
            pending.append((oa.rest, ob.rest, fuel - 1, path + (("tau",),)))
            continue
        if oa.event != ob.event:
            return refuted(path + (("event-mismatch", oa.event, ob.event),))
        answers = enumerate_answers(oa.event.answer, nat_probes)
        if answers is None:
            worst = unknown(Reason.ANSWER_SPACE)
            continue
        for x in answers:
            pending.append((oa.k(x), ob.k(x), fuel - 1, path + (("event", oa.event, x),)))
    return worst


def eutt(r: RelSpec, t1: ITree, t2: ITree, tau_budget: int, depth: int,
         nat_probes: Sequence[int] = DEFAULT_NAT_PROBES,
         max_nodes: int | None = None) -> Verdict:
    """Weak (heterogeneous) bisimulation up to silent steps.

    Aligned silent steps descend and reset the strip budget; a one-sided
    silent step consumes that side's strip budget.  Returns are compared
    with ``r``; events must match exactly with related continuations at
    every enumerated answer.  ``max_nodes`` caps total explored alignments
    across all branches (exhaustion reports Unknown), which keeps checks
    over wide answer trees affordable.
    """
    budget = max_nodes if max_nodes is not None else -1
    pending = [(t1, t2, depth, ())]
    worst = PROVEN
    while pending:
        if budget == 0:
            return worst if worst.refuted else unknown(Reason.NODE_BUDGET)
        a, b, fuel, prefix = pending.pop()
        oa, ob = observe(a), observe(b)
        strip_a = strip_b = tau_budget
        # Witness steps for this alignment race accumulate in a list: races
        # along interpreted programs run for thousands of silent steps.
        path = list(prefix)
        while True:
            budget -= 1
            if budget == 0:
                worst = unknown(Reason.NODE_BUDGET)
                break
            ta, tb = type(oa), type(ob)
            if ta is TauO and tb is TauO:
                if fuel <= 0:
                    worst = unknown(Reason.DEPTH_BUDGET)
                    break
                fuel -= 1
                strip_a = strip_b = tau_budget
                path.append(("tau",))
                oa, ob = observe(oa.rest), observe(ob.rest)
                continue
            if ta is TauO:
                if strip_a <= 0:
                    worst = unknown(Reason.TAU_BUDGET)
                    break
                strip_a -= 1
                path.append(("taul",))
                oa = observe(oa.rest)
                continue
            if tb is TauO:
                if strip_b <= 0:
                    worst = unknown(Reason.TAU_BUDGET)
                    break
                strip_b -= 1
                path.append(("taur",))
                ob = observe(ob.rest)
                continue
            if ta is RetO and tb is RetO:
                if not r.relates(oa.value, ob.value):
                    path.append(("rel-fails", oa.value, ob.value))
                    return refuted(path)
                break
            if ta is VisO and tb is VisO:
                if oa.event != ob.event:
                    path.append(("event-mismatch", oa.event, ob.event))
                    return refuted(path)
                if fuel <= 0:
                    worst = unknown(Reason.DEPTH_BUDGET)
                    break
                answers = enumerate_answers(oa.event.answer, nat_probes)
                if answers is None:
                    worst = unknown(Reason.ANSWER_SPACE)
                    break
                for x in answers:
                    pending.append(
                        (oa.k(x), ob.k(x), fuel - 1, tuple(path) + (("event", oa.event, x),))
                    )
                break
            path.append(("shape", _observed_shape(oa), _observed_shape(ob)))
            return refuted(path)
    return worst


def replay_witness(r: RelSpec, t1: ITree, t2: ITree, witness) -> bool:
    """Walk both trees along a refutation path and confirm the violation."""
    for step in witness:
        kind = step[0]
        o1, o2 = observe(t1), observe(t2)
        if kind == "tau":
            if type(o1) is not TauO or type(o2) is not TauO:
                return False
            t1, t2 = o1.rest, o2.rest
        elif kind == "taul":
            if type(o1) is not TauO:
                return False
            t1 = o1.rest
        elif kind == "taur":
            if type(o2) is not TauO:
                return False
            t2 = o2.rest
        elif kind == "event":
            _, e, x = step
            if type(o1) is not VisO or type(o2) is not VisO:
                return False
            if o1.event != e or o2.event != e:
                return False
            t1, t2 = o1.k(x), o2.k(x)
        elif kind == "ret-mismatch":
            return (
                type(o1) is RetO and type(o2) is RetO
                and o1.value == step[1] and o2.value == step[2]
                and step[1] != step[2]
            )
        elif kind == "rel-fails":
            return (
                type(o1) is RetO and type(o2) is RetO
                and not r.relates(o1.value, o2.value)
            )
        elif kind == "event-mismatch":
            return type(o1) is VisO and type(o2) is VisO and o1.event != o2.event
        elif kind == "shape":
            return type(o1) is not type(o2)
        else:
            return False
    return False


def ktree_equiv(r: RelSpec, f, g, inputs=None, tau_budget: int = 100,
                depth: int = 200,
                nat_probes: Sequence[int] = DEFAULT_NAT_PROBES,
                max_nodes: int | None = None) -> Verdict:
    """Pointwise weak bisimulation over a sample or exhaustive domain.

    With ``inputs=None`` the domain is enumerated from ``f.dom`` (which must
    be a finite shape).
    """
    if inputs is None:
        if f.dom is None:
            raise ValueError("no inputs given and the ktree declares no domain")
        inputs = enumerate_answers(f.dom, nat_probes)
        if inputs is None:
            return unknown(Reason.ANSWER_SPACE)
    verdicts = []
    for v in inputs:
        out = eutt(r, f(v), g(v), tau_budget, depth, nat_probes, max_nodes)
        if out.refuted:
            return refuted((("input", v),) + out.witness)
        verdicts.append(out)
    return merge_verdicts(verdicts)
