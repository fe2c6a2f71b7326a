"""Bounded strong and weak bisimulation with three-valued verdicts.

The checkers approximate the greatest-fixpoint definitions with plain
budgets: ``depth`` bounds node-aligned descent, ``tau_budget`` bounds
one-sided silent stripping between alignment points, and infinite answer
spaces are probed.  Refutations carry a replayable counterexample path;
budget exhaustion is reported as Unknown rather than guessed at.  Strong
bisimulation is the strict case of ``eutt``'s loop, ``_bisim``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Callable, Iterable, Sequence

from .core import ITree, RetO, TauO, VisO, observe
from .events import render_event_response
from .values import Tag, UValue, boolean, label, nat, unit

DEFAULT_NAT_PROBES = (0, 1, 2, 9, 17)

_TAU, _TAUL, _TAUR = ("tau",), ("taul",), ("taur",)


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
        return render_event_response(step[1], step[2])
    if kind == "ret-mismatch":
        return f"ret {step[1]!r} != ret {step[2]!r}"
    if kind == "rel-fails":
        return f"ret {step[1]!r} !~ ret {step[2]!r}"
    if kind == "event-mismatch":
        return f"{step[1]!r} != {step[2]!r}"
    if kind == "input":
        return f"input {step[1]!r}"
    if kind == "trace":  # a trace prints as traces.render_trace renders it
        return f"trace {step[1]}"
    return f"{step[1]} != {step[2]}"


def _witness(path, last) -> Verdict:
    """Refute with the steps of a parent-linked ``(parent, step, count)``
    path, root first, each link's ``step`` ``count`` times, then ``last``."""
    steps = [last]
    while path is not None:
        path, step, count = path
        steps.extend(repeat(step, count))
    steps.reverse()
    return refuted(steps)


class _Lasso:
    """Brent's cycle detection: ``repeats(state)`` is true once a state equal
    (``==``) to an earlier one comes back.

    It keeps one saved state and moves it forward to the latest each time
    the window since it doubles, so its memory is constant however long
    the sequence, and an eventually periodic sequence is caught within a
    few periods after its stem.  ``eutt`` feeds it the states of the runs
    a strip takes whole, a loop key with the binds pending above the run;
    ``interp_stores`` says why equal states lead to the same tree.
    """

    __slots__ = ("saved", "power", "lam")

    def __init__(self, state):
        self.saved = state
        self.power, self.lam = 1, 0

    def repeats(self, state) -> bool:
        if state == self.saved:
            return True
        self.lam += 1
        if self.lam == self.power:
            self.saved = state
            self.power *= 2
            self.lam = 0
        return False


def _strip_runs_out(budget: int, strip: int):
    """The verdict and node budget left with which ``eutt``'s loop ends
    when, at its top with ``budget`` nodes and ``strip`` strip steps left,
    one side steps silently forever against a return or an event: each
    silent case takes as many nodes as strip steps, so the node budget runs
    out first exactly when it is enabled and at most ``strip + 1``."""
    if 0 < budget <= strip + 1:
        return unknown(Reason.NODE_BUDGET), 0
    return unknown(Reason.TAU_BUDGET), budget - strip - 1


def strong_bisim(t1: ITree, t2: ITree, depth: int,
                 nat_probes: Sequence[int] = DEFAULT_NAT_PROBES) -> Verdict:
    """Node-exact comparison: same shapes, same values, same step counts.

    It is ``eutt``'s loop run strictly, with no strip budget or node cap;
    unequal events refute at any depth, as in ``eutt``."""
    pending = [(t1, t2, depth, None)]
    del t1, t2  # a held root would keep every run taken below it alive
    return _bisim(EQ, pending, 0, nat_probes, None, True)


def eutt(r: RelSpec, t1: ITree, t2: ITree, tau_budget: int, depth: int,
         nat_probes: Sequence[int] = DEFAULT_NAT_PROBES,
         max_nodes: int | None = None) -> Verdict:
    """Weak (heterogeneous) bisimulation up to silent steps.

    Aligned silent steps descend.  Once one side stops at a return or an
    event, the other side's silent steps are stripped, one-sided, up to
    ``tau_budget``; only one side strips between two alignments, since the
    other has stopped and the item ends once both have, so one strip case
    and one strip budget serve either side.  Returns are compared with
    ``r``; events must match exactly with related continuations at every
    enumerated answer.  ``max_nodes`` caps total explored alignments
    across all branches (exhaustion reports Unknown), which keeps checks
    over wide answer trees affordable.

    A strip can stop early, with the answer it would reach.  The fused
    store fold ends its batches at loop marks with a loop key (see
    ``interp_stores``); each run the strip takes whole gives its state,
    the key with the binds pending above the run, to Brent's cycle
    detection (``_Lasso``), in constant memory.  A state that comes back
    means the stripped side is where it was, after silent steps only, so
    it steps silently forever: the strip budget is then known to run out
    rather than spent, and the checker answers ``Unknown(tau-budget)``, or
    ``Unknown(node-budget)`` when ``max_nodes`` would run out first, with
    the node budget left exactly as stripping on would leave it.  Trees
    without keys are stripped until the budget runs out.
    """
    pending = [(t1, t2, depth, None)]
    del t1, t2  # a held root would keep every run taken below it alive
    return _bisim(r, pending, tau_budget, nat_probes, max_nodes, False)


def _bisim(r, pending, tau_budget, nat_probes, max_nodes, strict) -> Verdict:
    """The one loop of ``eutt`` and ``strong_bisim``, depth first over
    ``(t1, t2, depth, path)`` items.  ``strict`` is read off the Proven path
    only: a one-sided silent step with no strip budget left is a ``shape``
    refutation, not ``Unknown(tau-budget)``, and unrelated returns a
    ``ret-mismatch``, not ``rel-fails``."""
    budget = max_nodes if max_nodes is not None else -1
    # Paths share prefixes as parent links, a silent run of j steps as one:
    # races along interpreted programs run for thousands.
    worst = PROVEN
    while pending:
        if budget == 0:
            return unknown(Reason.NODE_BUDGET)
        oa, ob, fuel, path = pending.pop()
        oa, ob = observe(oa), observe(ob)
        strip = tau_budget
        lasso = None
        while True:
            budget -= 1
            if budget == 0:
                worst = unknown(Reason.NODE_BUDGET)
                break
            # A silent case takes j steps at once, j stopping short of every
            # budget's edge, so a budget runs out at the step it would one
            # step at a time; ``budget`` already paid for the first of them.
            ta, tb = type(oa), type(ob)
            if ta is TauO and tb is TauO:
                if fuel <= 0:
                    worst = unknown(Reason.DEPTH_BUDGET)
                    break
                j = oa.run if oa.run < ob.run else ob.run
                if fuel < j:
                    j = fuel
                if 0 < budget < j:
                    j = budget
                budget -= j - 1
                fuel -= j
                path = (path, _TAU, j)
                oa, ob = observe(oa.after(j)), observe(ob.after(j))
                continue
            if ta is TauO or tb is TauO:
                if strip <= 0:
                    if strict:
                        return _witness(path, ("shape", _observed_shape(oa), _observed_shape(ob)))
                    worst = unknown(Reason.TAU_BUDGET)
                    break
                side = oa if ta is TauO else ob
                j = side.run if side.run < strip else strip
                if 0 < budget < j:
                    j = budget
                budget -= j - 1
                strip -= j
                path = (path, _TAUL if ta is TauO else _TAUR, j)
                if j == side.run and side._key is not None:
                    state = (side._key, side._konts)
                    if lasso is None:
                        lasso = _Lasso(state)
                    elif lasso.repeats(state):
                        worst, budget = _strip_runs_out(budget, strip)
                        break
                if ta is TauO:
                    oa = observe(oa.after(j))
                else:
                    ob = observe(ob.after(j))
                continue
            if ta is RetO and tb is RetO:
                if not r.relates(oa.value, ob.value):
                    return _witness(path, (
                        "ret-mismatch" if strict else "rel-fails", oa.value, ob.value))
                break
            if ta is VisO and tb is VisO:
                if oa.event != ob.event:
                    return _witness(path, ("event-mismatch", oa.event, ob.event))
                if fuel <= 0:
                    worst = unknown(Reason.DEPTH_BUDGET)
                    break
                answers = enumerate_answers(oa.event.answer, nat_probes)
                if answers is None:
                    worst = unknown(Reason.ANSWER_SPACE)
                    break
                for x in answers:
                    pending.append(
                        (oa.k(x), ob.k(x), fuel - 1, (path, ("event", oa.event, x), 1)))
                break
            return _witness(path, ("shape", _observed_shape(oa), _observed_shape(ob)))
    return worst


def replay_witness(r: RelSpec, t1: ITree, t2: ITree, witness) -> bool:
    """Walk both trees along a refutation path and confirm the violation.

    Every step must be what the trees do: silent steps where they step
    silently, the named event on both sides, and a final step whose
    returns, events or shapes are the ones it names.  It replays the
    witnesses of ``strong_bisim`` and ``eutt``; the leading ``("input", v)``
    of a ``ktree_equiv`` witness and the ``("trace", tr)`` of a
    ``traces.trace_refines`` one are checked as those functions say."""
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
                and o1.value == step[1] and o2.value == step[2]
                and not r.relates(o1.value, o2.value)
            )
        elif kind == "event-mismatch":
            return (
                type(o1) is VisO and type(o2) is VisO
                and o1.event == step[1] and o2.event == step[2]
                and step[1] != step[2]
            )
        elif kind == "shape":
            return (
                type(o1) is not type(o2)
                and _observed_shape(o1) == step[1] and _observed_shape(o2) == step[2]
            )
        else:
            return False
    return False


def ktree_equiv(r: RelSpec, f, g, inputs=None, tau_budget: int = 100,
                depth: int = 200,
                nat_probes: Sequence[int] = DEFAULT_NAT_PROBES,
                max_nodes: int | None = None) -> Verdict:
    """Pointwise weak bisimulation over a sample or exhaustive domain.

    With ``inputs=None`` the domain is enumerated from ``f.dom`` (which must
    be a finite shape).  A refutation's witness is ``("input", v)``
    followed by an ``eutt`` witness of ``f(v)`` and ``g(v)``: to check it,
    replay the rest with ``replay_witness(r, f(v), g(v), witness[1:])``.
    """
    if inputs is None:
        if f.dom is None:
            raise ValueError("no inputs given and the ktree declares no domain")
        inputs = enumerate_answers(f.dom, nat_probes)
        if inputs is None:
            return unknown(Reason.ANSWER_SPACE)

    def at(v):
        out = eutt(r, f(v), g(v), tau_budget, depth, nat_probes, max_nodes)
        return refuted((("input", v),) + out.witness) if out.refuted else out

    return merge_verdicts(map(at, inputs))
