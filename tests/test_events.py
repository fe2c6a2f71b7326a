"""Signatures, sums, and subevent inclusion."""

import pytest

from itrees import (
    EMPTY_E,
    IOE,
    NAT_T,
    UNIT_T,
    AmbiguousSignature,
    AnswerTagMismatch,
    EventSig,
    KindSpec,
    SignatureNotFound,
    Site,
    SubeventWitness,
    SumSig,
    WrongSignature,
    derive_witness,
    event,
    inject,
    map_default_sig,
    nat,
    project,
    state_sig,
    sym,
    unit,
)
from itrees.events import LEFT, EventInstance, sig_leaves
from itrees.imp import IMP_STATE

STATE_N = state_sig(NAT_T)
MAP_N = map_default_sig(NAT_T, NAT_T, nat(0))

X = EventSig("X", (KindSpec("Ping", (), NAT_T),))
Y = EventSig("Y", (KindSpec("Pong", (), NAT_T),))


def test_event_validates_args():
    e = event(IOE, "Output", nat(3))
    assert e.args == (nat(3),)
    with pytest.raises(WrongSignature):
        event(IOE, "Output")
    with pytest.raises(Exception):
        event(IOE, "Output", unit())
    with pytest.raises(WrongSignature):
        event(IOE, "Flush")


def test_answer_shapes_come_from_the_signature():
    # looked up per instance in the table each signature builds once
    for sig in (IOE, STATE_N, MAP_N, X):
        for spec in sig.kinds:
            assert EventInstance(sig, spec.name).answer is spec.answer
    assert event(IOE, "Output", nat(3)).answer is IOE.kind("Output").answer
    for build in (lambda: event(IOE, "Flush"), lambda: EventInstance(IOE, "Flush"),
                  lambda: event(X, "Pong"), lambda: EventInstance(EMPTY_E, "Ping")):
        with pytest.raises(WrongSignature, match="has no kind"):
            build()


def test_sites_are_writes_of_a_key():
    write = Site(IMP_STATE, "SetVar", sym("x"), [LEFT])
    assert write.path == (LEFT,)
    assert write.written(nat(4)) == event(IMP_STATE, "SetVar", sym("x"), nat(4), path=(LEFT,))
    assert write.written(nat(4)).answer is IMP_STATE.kind("SetVar").answer
    # a write's answer is the unit, so its node holds no continuation
    noisy = EventSig("Noisy", (KindSpec("Put", (NAT_T, NAT_T), NAT_T),))
    with pytest.raises(WrongSignature, match="not the unit"):
        Site(noisy, "Put", nat(0))
    # a kind that does not take a key and a value is refused, reads too
    odd = EventSig("Odd", (KindSpec("Get", (), NAT_T), KindSpec("Put", (NAT_T,) * 3, UNIT_T)))
    for sig, kind, arity in ((odd, "Get", 0), (odd, "Put", 3), (IMP_STATE, "GetVar", 1)):
        with pytest.raises(WrongSignature, match=f"{kind} takes {arity} args"):
            Site(sig, kind, nat(0))
    with pytest.raises(WrongSignature, match="has no kind"):
        Site(IMP_STATE, "DelVar", sym("x"))
    with pytest.raises(Exception, match="key of"):
        Site(IMP_STATE, "SetVar", nat(1))


def test_a_key_that_is_not_a_value_is_refused_or_shown_raw():
    # event() and Site check the key; a hand-built event shows it with repr
    with pytest.raises(AnswerTagMismatch, match="argument of GetVar"):
        event(IMP_STATE, "GetVar", "x")
    with pytest.raises(AnswerTagMismatch, match="key of SetVar"):
        Site(IMP_STATE, "SetVar", "x")
    assert repr(EventInstance(IMP_STATE, "GetVar", ("x",), (LEFT,))) == "L:GetVar('x')"
    assert repr(EventInstance(IMP_STATE, "SetVar", (sym("x"), 3))) == "SetVar('x',3)"


def test_events_cache_a_route_outside_equality():
    # the fused store fold caches an event's route in ``memo``
    e = event(IMP_STATE, "GetVar", sym("x"), path=(LEFT,))
    twin = event(IMP_STATE, "GetVar", sym("x"), path=(LEFT,))
    assert e.memo == (None, None)
    e.memo = ("table", "route")
    assert e == twin and hash(e) == hash(twin) and repr(e) == repr(twin)


def test_empty_sig_has_no_events():
    assert EMPTY_E.kinds == ()
    with pytest.raises(WrongSignature):
        event(EMPTY_E, "anything")


def test_derive_witness_nested():
    outer = SumSig(X, SumSig(IOE, Y))
    w = derive_witness(IOE, outer)
    assert w == SubeventWitness(("R", "L"))
    assert derive_witness(IOE, IOE) == SubeventWitness(())
    with pytest.raises(SignatureNotFound):
        derive_witness(IOE, SumSig(STATE_N, MAP_N))


def test_derive_witness_duplicates_leftmost():
    outer = SumSig(IOE, SumSig(X, IOE))
    assert derive_witness(IOE, outer).path == ("L",)
    with pytest.raises(AmbiguousSignature):
        derive_witness(IOE, outer, strict=True)


def test_inject_reclassifies():
    outer = SumSig(X, SumSig(IOE, Y))
    w = derive_witness(IOE, outer)
    e = inject(w, event(IOE, "Input"))
    assert e.path == ("R", "L")
    assert e.answer == NAT_T
    assert inject(SubeventWitness(()), event(STATE_N, "Get")) == event(STATE_N, "Get")


def test_project_strips_one_level():
    s = SumSig(STATE_N, IOE)
    side, stripped = project(s, event(STATE_N, "Get"))
    assert side == "L" and stripped == event(STATE_N, "Get")
    side, stripped = project(s, event(IOE, "Output", nat(3)))
    assert side == "R" and stripped == event(IOE, "Output", nat(3))
    with pytest.raises(WrongSignature):
        project(s, event(MAP_N, "Remove", nat(1)))


def test_project_inject_round_trip_enumerated():
    # every kind of every shipped signature, nested up to three deep
    sigs = [IOE, STATE_N, MAP_N, X, Y]
    sums = []
    for a in sigs:
        for b in sigs:
            sums.append(SumSig(a, b))
            for c in sigs:
                sums.append(SumSig(a, SumSig(b, c)))

    def sample_event(sig):
        out = []
        for k in sig.kinds:
            args = []
            for p in k.params:
                args.append(nat(4) if p == NAT_T else sym("k"))
            out.append(event(sig, k.name, *args))
        return out

    checked = 0
    for s in sums:
        for path, leaf in sig_leaves(s):
            w = SubeventWitness(path)
            for e in sample_event(leaf):
                rebuilt = inject(w, e)
                at = s
                cur = rebuilt
                for expected in path:
                    side, cur = project(at, cur)
                    assert side == expected
                    at = at.left if side == "L" else at.right
                assert cur == e
                checked += 1
    assert checked > 100
