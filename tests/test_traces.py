"""Trace enumeration, the trace predicate, and bounded refinement."""

import os
import random
import subprocess
import sys

import pytest

import itrees
from itrees import (
    EQ,
    TEnd,
    TEventEnd,
    TEventResponse,
    TRet,
    boolean,
    enumerate_answers,
    enumerate_traces,
    eutt,
    is_trace_of,
    lazy,
    nat,
    render_trace,
    ret,
    spin,
    tau,
    trace_equiv,
    trace_refines,
    unit,
    vis,
)
from itrees.bisim import describe_witness
from itrees.samples import echo, input_ev, kill9, output_ev
from itrees.traces import MAX_EVENT_DEPTH, AnswerSpaceTooLarge

from helpers import gen_tree, mutate_tree, with_extra_taus

TEND = TEnd()


def test_is_trace_of_basics():
    assert is_trace_of(ret(nat(3)), TRet(nat(3)), 5) is True
    assert is_trace_of(ret(nat(3)), TRet(nat(4)), 5) is False
    assert is_trace_of(ret(nat(3)), TEND, 5) is True
    assert is_trace_of(spin(), TEND, 5) is True
    assert is_trace_of(spin(), TRet(nat(1)), 5) is None  # budget, not a no


def test_is_trace_of_echo_prefix():
    tr = TEventResponse(input_ev(), nat(5),
                        TEventResponse(output_ev(5), unit(), TEND))
    assert is_trace_of(echo(), tr, 10) is True
    wrong = TEventResponse(input_ev(), nat(5),
                           TEventResponse(output_ev(6), unit(), TEND))
    assert is_trace_of(echo(), wrong, 10) is False
    assert is_trace_of(echo(), TEventEnd(input_ev()), 10) is True


def test_enumerate_traces_ret():
    assert enumerate_traces(ret(nat(3)), 2, 5) == {TEND, TRet(nat(3))}


def test_enumerate_traces_spin():
    assert enumerate_traces(spin(), 3, 5) == {TEND}


def test_enumerate_traces_kill9_one_level():
    got = enumerate_traces(kill9(), 1, 5, nat_probes=(0, 9))
    expected = {
        TEND,
        TEventEnd(input_ev()),
        TEventResponse(input_ev(), nat(9), TEND),
        TEventResponse(input_ev(), nat(9), TRet(unit())),
        TEventResponse(input_ev(), nat(0), TEND),
    }
    assert got == expected


def test_enumerate_matches_trace_predicate():
    # the enumeration is exactly the is_trace_of filter over candidates
    rng = random.Random(40)
    for _ in range(25):
        t = gen_tree(rng, 3)
        depth, budget = 3, 50
        got = enumerate_traces(t, depth, budget)
        for tr in got:
            assert is_trace_of(t, tr, budget) is True

        def candidates(d):
            # returns cost no events, so they appear at every depth
            yield TEND
            for v in (nat(0), nat(1), nat(2), nat(3), boolean(True),
                      boolean(False), unit()):
                yield TRet(v)
            if d <= 0:
                return
            from helpers import T3
            from itrees import event

            evs = [event(T3, "Ask"), event(T3, "Pick")] + [
                event(T3, "Tell", nat(i)) for i in range(3)
            ]
            for e in evs:
                yield TEventEnd(e)
                for x in enumerate_answers(e.answer):
                    for rest in candidates(d - 1):
                        yield TEventResponse(e, x, rest)

        brute = {tr for tr in candidates(2) if is_trace_of(t, tr, budget) is True}
        assert brute == enumerate_traces(t, 2, budget)


def test_exact_enumeration_rejects_nat_answers():
    with pytest.raises(AnswerSpaceTooLarge):
        enumerate_traces(kill9(), 1, 5, exact=True)


def test_taus_are_trace_invisible():
    rng = random.Random(41)
    for _ in range(30):
        t = gen_tree(rng, 3)
        assert enumerate_traces(tau(t), 3, 50) == enumerate_traces(t, 3, 50)


def test_prefix_closure():
    rng = random.Random(42)

    def truncations(tr):
        while isinstance(tr, TEventResponse):
            yield TEND
            tr = tr.rest
        yield TEND

    for _ in range(20):
        t = gen_tree(rng, 3)
        traces = enumerate_traces(t, 3, 50)
        for tr in traces:
            prefix = tr
            chopped = []
            # rebuild every TEnd-truncation of tr and check membership
            def chop(tr, k):
                if k == 0:
                    return TEND
                if isinstance(tr, TEventResponse):
                    return TEventResponse(tr.event, tr.answer, chop(tr.rest, k - 1))
                return tr

            depth = 0
            probe = tr
            while isinstance(probe, TEventResponse):
                depth += 1
                probe = probe.rest
            for k in range(depth + 1):
                assert chop(tr, k) in traces


def test_refinement_examples():
    assert trace_refines(spin(), ret(nat(1)), 3, 5).proven
    assert trace_refines(spin(), echo(), 3, 5).proven
    assert trace_equiv(tau(ret(nat(1))), ret(nat(1)), 3, 5).proven
    assert trace_equiv(ret(nat(1)), ret(nat(2)), 3, 5).refuted
    # refinement is not symmetric: ret has traces spin lacks
    assert not trace_refines(ret(nat(1)), spin(), 3, 5).proven


def _input_then_zeros():
    """Read an input, then output 0, forever."""
    t = lazy(lambda: vis(input_ev(), lambda _: vis(output_ev(0), lambda _: tau(t))))
    return t


def test_a_trace_refutation_describes_its_trace():
    v = trace_refines(echo(), _input_then_zeros(), 3, 100)
    assert v.refuted
    [(kind, tr)] = v.witness
    assert kind == "trace"
    # checked in enumeration order: the answers 0 then 1 to the input
    assert describe_witness(v.witness) == "trace Input()=1 ; Output(1)?" == f"trace {tr}"
    assert repr(v) == "Refuted(trace Input()=1 ; Output(1)?)"


def test_a_trace_refutation_does_not_depend_on_the_hash_seed():
    code = ("from itrees import lazy, tau, trace_refines, vis\n"
            "from itrees.samples import echo, input_ev, output_ev\n"
            "t = lazy(lambda: vis(input_ev(), lambda _: vis(output_ev(0), lambda _: tau(t))))\n"
            "print(repr(trace_refines(echo(), t, 3, 100)))\n")
    src = os.path.dirname(os.path.dirname(itrees.__file__))
    seen = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        seen.add(out)
    assert seen == {"Refuted(trace Input()=1 ; Output(1)?)\n"}


def test_render_trace_format():
    tr = TEventResponse(input_ev(), nat(5),
                        TEventResponse(output_ev(5), unit(), TRet(unit())))
    assert render_trace(tr) == "Input()=5 ; Output(5)=() ; ret ()"
    assert render_trace(TEND) == "end"
    assert render_trace(TEventEnd(input_ev())) == "Input()?"


def test_correspondence_on_random_pairs():
    rng = random.Random(43)
    agree = refute_pairs = 0
    for _ in range(60):
        t = gen_tree(rng, 3)
        if rng.random() < 0.5:
            u = with_extra_taus(rng, t)
        else:
            u = mutate_tree(rng, t) if rng.random() < 0.5 else gen_tree(rng, 3)
        weak = eutt(EQ, t, u, 50, 200)
        tr = trace_equiv(t, u, 4, 50)
        if weak.proven or tr.proven:
            assert weak.proven and tr.proven
            agree += 1
        if weak.refuted:
            assert tr.refuted
            refute_pairs += 1
    assert agree > 5 and refute_pairs > 5


def _outputs(n):
    """``n`` Output events in a row, then a return: one trace per prefix."""
    t = ret(unit())
    for _ in range(n):
        t = vis(output_ev(1), lambda _, rest=t: rest)
    return t


def test_event_depth_is_bounded_in_the_library():
    t = _outputs(MAX_EVENT_DEPTH + 5)
    assert len(enumerate_traces(t, MAX_EVENT_DEPTH, 5)) == 2 * MAX_EVENT_DEPTH + 1
    assert trace_equiv(t, t, MAX_EVENT_DEPTH, 5).proven
    for check in (lambda d: enumerate_traces(t, d, 5), lambda d: trace_refines(t, t, d, 5),
                  lambda d: trace_equiv(t, t, d, 5)):
        with pytest.raises(ValueError, match=f"above MAX_EVENT_DEPTH = {MAX_EVENT_DEPTH}"):
            check(MAX_EVENT_DEPTH + 1)
