"""Constructors, observation, bind, and the monad/structural laws."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from itrees import (
    AnswerTagMismatch,
    EQ,
    IOE,
    RetO,
    Site,
    TauO,
    VisO,
    bind,
    boolean,
    burn,
    event,
    eutt,
    nat,
    observe,
    ret,
    run_to_head,
    spin,
    strong_bisim,
    sym,
    tau,
    taus,
    trigger,
    unit,
    write_at,
)
from itrees.events import LEFT
from itrees.imp import IMP_STATE, Assign, Lit, Var, denote_expr, denote_stmt, set_var
from itrees.samples import echo, input_ev, kill9

from helpers import gen_kont, gen_tree, nested_taus


def test_observe_ret():
    assert observe(ret(nat(3))) == RetO(nat(3))


def test_observe_tau():
    ob = observe(tau(ret(nat(3))))
    assert type(ob) is TauO
    assert observe(ob.rest) == RetO(nat(3))


def test_spin_observes_to_itself():
    s = spin()
    ob = observe(s)
    assert type(ob) is TauO
    assert ob.rest is s


def test_kill9_probes_until_nine():
    t = kill9()
    ob = observe(t)
    assert type(ob) is VisO
    assert observe(ob.k(nat(4))).event == input_ev()
    assert observe(ob.k(nat(9))) == RetO(unit())


def test_bind_of_ret_observes_through():
    t = bind(ret(nat(1)), lambda x: ret(nat(x.payload + 1)))
    assert observe(t) == RetO(nat(2))


def test_bind_through_vis_defers_continuation():
    k2 = lambda x: ret(nat(x.payload * 2))
    t = bind(trigger(input_ev()), k2)
    ob = observe(t)
    assert type(ob) is VisO
    assert ob.event == input_ev()
    assert observe(ob.k(nat(5))) == RetO(nat(10))


def test_bind_through_tau_is_single_step():
    inner = ret(nat(1))
    t = bind(tau(inner), lambda x: ret(x))
    ob = observe(t)
    assert type(ob) is TauO
    assert observe(ob.rest) == RetO(nat(1))


def test_trigger_returns_answer():
    ob = observe(trigger(input_ev()))
    assert type(ob) is VisO
    assert observe(ob.k(nat(5))) == RetO(nat(5))


def test_vis_rejects_wrong_answer_tag():
    ob = observe(trigger(input_ev()))
    with pytest.raises(AnswerTagMismatch):
        ob.k(unit())


def test_burn():
    assert observe(burn(10, tau(tau(ret(nat(1)))))) == RetO(nat(1))
    assert type(observe(burn(3, spin()))) is TauO
    t = ret(nat(7))
    assert burn(0, t) is t


def test_echo_loops():
    t = echo()
    ob = observe(t)
    assert ob.event == input_ev()
    ob2 = observe(ob.k(nat(5)))
    assert ob2.event.kind == "Output"
    assert ob2.event.args == (nat(5),)
    ob3 = observe(burn(5, ob2.k(unit())))
    assert ob3.event == input_ev()


def test_observation_is_repeatable():
    rng = random.Random(11)
    for _ in range(50):
        t = gen_tree(rng, 4)
        first, second = observe(t), observe(t)
        assert type(first) is type(second)
        if type(first) is RetO:
            assert first.value == second.value
        elif type(first) is VisO:
            assert first.event == second.event
        assert strong_bisim(t, t, 50).proven


def test_observe_productive_on_infinite_trees():
    from itrees import enumerate_answers

    # one observation of a globally infinite tree finishes
    for t in (spin(), echo(), kill9()):
        for _ in range(100):
            ob = observe(t)
            if type(ob) is TauO:
                t = ob.rest
            elif type(ob) is VisO:
                t = ob.k(enumerate_answers(ob.event.answer)[0])
            else:
                break


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=50)
def test_monad_left_identity(n):
    k = lambda x: tau(ret(nat((x.payload * 3 + 1) % 11)))
    assert strong_bisim(bind(ret(nat(n)), k), k(nat(n)), 50).proven


def test_monad_laws_random_trees():
    rng = random.Random(7)
    for _ in range(60):
        t = gen_tree(rng, 4)
        k = gen_kont(rng, 3)
        v = nat(rng.randint(0, 3))
        assert strong_bisim(bind(ret(v), k), k(v), 100).proven
        assert strong_bisim(bind(t, ret), t, 100).proven
        k2 = gen_kont(rng, 2)
        lhs = bind(bind(t, k), k2)
        rhs = bind(t, lambda y: bind(k(y), k2))
        assert strong_bisim(lhs, rhs, 100).proven


def test_structural_laws_random_trees():
    rng = random.Random(8)
    for _ in range(40):
        t = gen_tree(rng, 4)
        k = gen_kont(rng, 2)
        # silent steps vanish weakly
        assert eutt(EQ, tau(t), t, 10, 100).proven
        # bind over a silent step is exactly one silent step
        ob = observe(bind(tau(t), k))
        assert type(ob) is TauO
        assert strong_bisim(ob.rest, bind(t, k), 100).proven
        # bind over an event defers into the continuation
        ev_tree = bind(trigger(input_ev()), k)
        ob2 = observe(ev_tree)
        assert type(ob2) is VisO
        assert strong_bisim(ob2.k(nat(2)), bind(ret(nat(2)), k), 100).proven


# Counted silent steps: a run held as one node must behave exactly like the
# same number of nested single steps, whether taken one at a time or whole.

def _walk(t, limit=100):
    """Step through silent steps one at a time via ``rest``; return the
    step count and the head reached, with events answered by 4."""
    shape, steps = [], 0
    for _ in range(limit):
        ob = observe(t)
        if type(ob) is TauO:
            steps += 1
            t = ob.rest
            continue
        shape.append(steps)
        steps = 0
        if type(ob) is RetO:
            shape.append(ob.value)
            return shape
        shape.append(ob.event)
        t = ob.k(nat(4))
    return shape + ["cut", steps]


def _head(ob):
    if type(ob) is RetO:
        return ("ret", ob.value)
    if type(ob) is VisO:
        return ("vis", ob.event, _walk(ob.k(nat(4))))
    return ("tau", _walk(ob.rest))


COUNTED_SHAPES = [
    ("plain", lambda mk, n: mk(n, ret(nat(1)))),
    ("bound", lambda mk, n: bind(mk(n, ret(nat(2))),
                                  lambda x: mk(n + 1, ret(nat(x.payload + 1))))),
    ("adjacent", lambda mk, n: mk(n, mk(2, trigger(input_ev())))),
    ("event-inside", lambda mk, n: bind(mk(n, trigger(input_ev())), lambda x: mk(n, ret(x)))),
]


@pytest.mark.parametrize("name,build", COUNTED_SHAPES, ids=[c[0] for c in COUNTED_SHAPES])
def test_counted_runs_match_nested_taus(name, build):
    for n in (1, 2, 3, 7):
        whole, single = build(taus, n), build(nested_taus, n)
        assert _walk(whole) == _walk(single)
        total = _walk(single)[0]
        for fuel in range(total + 3):
            ob_w, steps_w = run_to_head(build(taus, n), fuel)
            ob_s, steps_s = run_to_head(build(nested_taus, n), fuel)
            assert steps_w == steps_s and _head(ob_w) == _head(ob_s), (n, fuel)
            assert _walk(burn(fuel, build(taus, n))) == _walk(burn(fuel, build(nested_taus, n)))


def test_tau_observation_skips_within_its_run():
    t = bind(taus(5, ret(nat(1))), lambda x: tau(ret(x)))
    ob = observe(t)
    assert type(ob) is TauO and ob.run == 5
    assert _walk(ob.rest) == [5, nat(1)]
    for j in range(1, 6):
        assert _walk(ob.after(j)) == [6 - j, nat(1)]
    for j in (0, 6):
        with pytest.raises(ValueError):
            ob.after(j)
    assert observe(tau(ret(nat(1)))).run == 1
    for n in (0, -1):
        with pytest.raises(ValueError):
            taus(n, t)


def test_a_silent_run_is_its_own_observation():
    t = taus(3, ret(nat(1)))
    assert observe(t) is observe(t)


def test_answer_and_argument_tags_are_checked():
    # the answer check holds with binds pending above the event too
    for t in (trigger(input_ev()), bind(taus(3, trigger(input_ev())), lambda x: ret(x))):
        ob, _ = run_to_head(t, 10)
        assert type(ob) is VisO
        with pytest.raises(AnswerTagMismatch):
            ob.k(unit())
        assert observe(ob.k(nat(5))) == RetO(nat(5))
    with pytest.raises(AnswerTagMismatch):
        event(IOE, "Output", unit())
    with pytest.raises(AnswerTagMismatch):
        set_var("x", boolean(True))
    with pytest.raises(AnswerTagMismatch):
        ret(5)


def test_a_write_node_is_its_own_observation():
    # a write is a vis node over the event its ``Write`` builds, so with no
    # binds pending observing one allocates nothing and gives the same node
    # each time; with binds pending it is a copy that carries them
    t = denote_stmt(Assign("x", Lit(5)))
    ob = observe(t)
    assert observe(t) is ob
    for w in (ob, observe(bind(t, ret))):
        assert type(w) is VisO
        assert w.event == event(IMP_STATE, "SetVar", sym("x"), nat(5), path=(LEFT,))
        with pytest.raises(AnswerTagMismatch):
            w.k(nat(0))
        assert observe(w.k(unit())) == RetO(unit())
    assert observe(bind(t, ret)) == observe(bind(t, ret))
    # the continuation is a bound method of the ``Write``, so two calls of
    # one ``Write`` with one value give equal observations
    write = write_at(Site(IMP_STATE, "SetVar", sym("x"), (LEFT,)), ret(nat(3)))
    assert observe(write(nat(5))) == observe(write(nat(5)))
    assert observe(observe(write(nat(5))).k(unit())) == RetO(nat(3))


def test_a_read_node_is_its_own_observation():
    # reads are vis nodes over an event interned by the denotation, so
    # observing one allocates nothing and gives the same node each time
    t = denote_expr(Var("x"))
    ob = observe(t)
    assert observe(t) is ob
    assert ob.event == event(IMP_STATE, "GetVar", sym("x"), path=(LEFT,))
    with pytest.raises(AnswerTagMismatch):
        ob.k(unit())
    assert observe(ob.k(nat(5))) == RetO(nat(5))
