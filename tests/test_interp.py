"""The generic interpreter as a monad morphism, plus state/map instances."""

import random

import pytest

from itrees import (
    EQ,
    NAT_T,
    RetO,
    UnhandledEvent,
    bind,
    boolean,
    eutt,
    event,
    handler_bimap,
    handler_case,
    handler_cat,
    handler_id,
    interp,
    interp_map,
    interp_state,
    label,
    map_default_sig,
    nat,
    observe,
    pair,
    ret,
    run_to_head,
    state_sig,
    strong_bisim,
    sym,
    tau,
    taus,
    trigger,
    umap,
    unit,
)
from itrees.events import LEFT, RIGHT

from helpers import T3, gen_kont, gen_tree

STATE_N = state_sig(NAT_T)
MAP_SN = map_default_sig(
    __import__("itrees").SYM_T, NAT_T, nat(0)
)


def _random_translating_handler(rng):
    """T3 ~> trees over T3; each kind maps to one fixed finite tree, so the
    handler is a pure value."""
    pre = {k.name: gen_tree(rng, 2) for k in T3.kinds}
    answers = {
        "Ask": boolean(rng.random() < 0.5),
        "Tell": unit(),
        "Pick": label(rng.randint(0, 1), 2),
    }

    def apply(e):
        out = answers[e.kind]
        return bind(pre[e.kind], lambda _: ret(out))

    return apply


def test_interp_ret_is_exact():
    rng = random.Random(20)
    h = _random_translating_handler(rng)
    for v in (nat(0), unit(), boolean(True)):
        assert strong_bisim(interp(h, ret(v)), ret(v), 20).proven


def test_interp_trigger_is_handler_after_one_step():
    rng = random.Random(21)
    h = _random_translating_handler(rng)
    for kind in ("Ask", "Tell", "Pick"):
        e = event(T3, kind, *( (nat(1),) if kind == "Tell" else () ))
        lhs = interp(h, trigger(e))
        ob = observe(lhs)
        assert type(ob).__name__ == "TauO"  # exactly one step hides the fold
        assert strong_bisim(ob.rest, h(e), 100).proven


def test_interp_commutes_with_bind_weakly():
    rng = random.Random(22)
    h = _random_translating_handler(rng)
    for _ in range(30):
        t = gen_tree(rng, 3)
        k = gen_kont(rng, 2)
        lhs = interp(h, bind(t, k))
        rhs = bind(interp(h, t), lambda x: interp(h, k(x)))
        assert eutt(EQ, lhs, rhs, 200, 400).proven


def _get(path=(LEFT,)):
    return trigger(event(STATE_N, "Get", path=path))


def _put(n, path=(LEFT,)):
    return trigger(event(STATE_N, "Put", nat(n), path=path))


def test_interp_state_get():
    ob, steps = run_to_head(interp_state(_get(), nat(5)), 2)
    assert ob == RetO(pair(nat(5), nat(5)))
    assert steps <= 2


def test_interp_state_put():
    ob, steps = run_to_head(interp_state(_put(7), nat(5)), 2)
    assert ob == RetO(pair(nat(7), unit()))
    assert steps <= 2


def test_interp_state_ret_and_bind_laws():
    rng = random.Random(23)
    for v in (nat(3), boolean(False)):
        ob, _ = run_to_head(interp_state(ret(v), nat(9)), 2)
        assert ob == RetO(pair(nat(9), v))
    # x <- get;; y <- get;; k x y   ~~   x <- get;; k x x
    k = lambda x, y: bind(_put(x.payload + y.payload), lambda _: ret(x))
    lhs = bind(_get(), lambda x: bind(_get(), lambda y: k(x, y)))
    rhs = bind(_get(), lambda x: k(x, x))
    for s0 in (0, 4):
        assert eutt(
            EQ, interp_state(lhs, nat(s0)), interp_state(rhs, nat(s0)), 50, 100
        ).proven


def test_interp_state_routes_other_events():
    e_other = event(T3, "Tell", nat(2), path=(RIGHT,))
    t = bind(trigger(e_other), lambda _: _get())
    out = interp_state(t, nat(8))
    ob, _ = run_to_head(out, 10)
    assert type(ob).__name__ == "VisO"
    assert ob.event == event(T3, "Tell", nat(2))
    ob2, _ = run_to_head(ob.k(unit()), 10)
    assert ob2 == RetO(pair(nat(8), nat(8)))


def _lookup(name, path=(LEFT,)):
    return trigger(event(MAP_SN, "LookupDefault", sym(name), path=path))


def _insert(name, v, path=(LEFT,)):
    return trigger(event(MAP_SN, "Insert", sym(name), nat(v), path=path))


def _remove(name, path=(LEFT,)):
    return trigger(event(MAP_SN, "Remove", sym(name), path=path))


def test_interp_map_default_and_insert():
    ob, _ = run_to_head(interp_map(_lookup("x"), umap()), 10)
    assert ob == RetO(pair(umap(), nat(0)))

    t = bind(_insert("x", 3), lambda _: _lookup("x"))
    ob, _ = run_to_head(interp_map(t, umap()), 10)
    assert ob == RetO(pair(umap({"x": nat(3)}), nat(3)))

    ob, _ = run_to_head(interp_map(_remove("x"), umap({"x": nat(3)})), 10)
    assert ob == RetO(pair(umap(), unit()))


def test_interp_map_respects_signature_default():
    sig9 = map_default_sig(__import__("itrees").SYM_T, NAT_T, nat(9))
    t = trigger(event(sig9, "LookupDefault", sym("q"), path=(LEFT,)))
    ob, _ = run_to_head(interp_map(t, umap()), 10)
    assert ob == RetO(pair(umap(), nat(9)))


def test_unhandled_event_raises():
    bare = trigger(event(T3, "Ask"))  # unclassified: neither side of a sum
    with pytest.raises(UnhandledEvent):
        run_to_head(interp_state(bare, nat(0)), 10)


def test_state_and_map_folds_spend_one_step_per_consumed_node():
    """Both folds share one discipline: one silent step per consumed node
    (a counted run of three costs three), an outward event paying its step
    before it surfaces and none after its answer."""
    tell = trigger(event(T3, "Tell", nat(2), path=(RIGHT,)))
    gets = bind(_get(), lambda x: taus(3, bind(_put(x.payload + 1), lambda _: bind(
        tell, lambda _: tau(_get())))))
    lookups = bind(_insert("a", 7), lambda _: taus(3, bind(_lookup("a"), lambda x: bind(
        tell, lambda _: bind(_remove("a"), lambda _: tau(bind(
            _lookup("a"), lambda y: ret(pair(x, y)))))))))
    # (folded tree, steps before the outward event, steps after it, result)
    cases = (
        (interp_state(tau(gets), nat(5)), 7, 2, pair(nat(6), nat(6))),
        (interp_map(tau(lookups), umap({"b": nat(1)})), 7, 3,
         pair(umap({"b": nat(1)}), pair(nat(7), nat(0)))),
    )
    for out, before, after, final in cases:
        ob, steps = run_to_head(out, 100)
        assert steps == before
        assert type(ob).__name__ == "VisO" and ob.event == event(T3, "Tell", nat(2))
        ob, steps = run_to_head(ob.k(unit()), 100)
        assert (ob, steps) == (RetO(final), after)

    with pytest.raises(UnhandledEvent):
        run_to_head(interp_state(tau(_insert("a", 1)), nat(0)), 10)
    with pytest.raises(UnhandledEvent):
        run_to_head(interp_map(tau(_get()), umap()), 10)


# Handler category laws, pointwise.

def _events_of(sig):
    out = []
    for k in sig.kinds:
        args = [nat(1) if p == NAT_T else sym("a") for p in k.params]
        out.append(event(sig, k.name, *args))
    return out


def test_handler_identity_law():
    rng = random.Random(24)
    h = _random_translating_handler(rng)
    composed = handler_cat(handler_id, h)
    for e in _events_of(T3):
        assert eutt(EQ, composed(e), h(e), 100, 200).proven


def test_handler_case_beta():
    rng = random.Random(25)
    h = _random_translating_handler(rng)
    g = _random_translating_handler(rng)
    case = handler_case(h, g)
    for e in _events_of(T3):
        assert eutt(EQ, case(e.at((LEFT,))), h(e), 100, 200).proven
        assert eutt(EQ, case(e.at((RIGHT,))), g(e), 100, 200).proven


def test_handler_bimap_routes_middle_summand_untouched():
    rng = random.Random(26)
    hx = _random_translating_handler(rng)
    hy = _random_translating_handler(rng)
    routed = handler_bimap(hx, handler_bimap(handler_id, hy))
    for e in _events_of(T3):
        out = routed(e.at((RIGHT, LEFT)))
        expect = trigger(e.at((RIGHT, LEFT)))
        assert eutt(EQ, out, expect, 100, 200).proven
