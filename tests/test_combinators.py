"""Continuation-tree category ops and the iteration/recursion combinators."""

import random

import pytest

from itrees import (
    EQ,
    KTree,
    RetO,
    TauO,
    WrongSignature,
    boolean,
    eutt,
    inl,
    inr,
    interp,
    iterate,
    kt_bimap,
    kt_case,
    kt_cat,
    kt_id,
    kt_inl,
    kt_inr,
    kt_pure,
    kt_swap,
    ktree_equiv,
    label,
    loop,
    mrec,
    nat,
    observe,
    pair,
    ret,
    run_to_head,
    spin,
    tau,
    trigger,
    unit,
)
from itrees.samples import (
    ackermann_event,
    ackermann_handler,
    even_odd_handler,
    EVEN_ODD_E,
)
from itrees.events import event

from helpers import (
    gen_codiagonal_body,
    gen_iter_body,
    gen_two_phase_bodies,
)

BOOLS = [boolean(False), boolean(True)]


def test_cat_identities():
    k = kt_pure(lambda v: nat((v.payload + 1) % 5), dom=None)
    inputs = [nat(i) for i in range(4)]
    assert ktree_equiv(EQ, kt_cat(kt_id(), k), k, inputs).proven
    assert ktree_equiv(EQ, kt_cat(k, kt_id()), k, inputs).proven


def test_case_injections():
    h = kt_pure(lambda v: pair(v, v))
    k = kt_pure(lambda v: v)
    inputs = [nat(0), nat(3)]
    assert ktree_equiv(EQ, kt_cat(kt_inl(), kt_case(h, k)), h, inputs).proven
    assert ktree_equiv(EQ, kt_cat(kt_inr(), kt_case(h, k)), k, inputs).proven


def test_pure_fusion():
    f = lambda v: nat((v.payload * 2) % 7)
    g = lambda v: nat((v.payload + 3) % 7)
    lhs = kt_cat(kt_pure(f), kt_pure(g))
    rhs = kt_pure(lambda v: g(f(v)))
    assert ktree_equiv(EQ, lhs, rhs, [nat(i) for i in range(5)]).proven


def test_swap_and_bimap():
    ins = [inl(nat(1)), inr(boolean(True))]
    assert ktree_equiv(EQ, kt_cat(kt_swap(), kt_swap()), kt_id(), ins).proven
    bm = kt_bimap(kt_pure(lambda v: nat(v.payload + 1)), kt_id())
    got, _ = run_to_head(bm(inl(nat(4))), 10)
    assert got == RetO(inl(nat(5)))
    got, _ = run_to_head(bm(inr(boolean(False))), 10)
    assert got == RetO(inr(boolean(False)))


def test_iterate_countdown_taus_match_manual_unfolding():
    body = KTree(
        lambda v: ret(inr(unit())) if v.payload == 0 else ret(inl(nat(v.payload - 1)))
    )
    for start in range(5):
        ob, steps = run_to_head(iterate(body)(nat(start)), 100)
        assert ob == RetO(unit())
        assert steps == start  # one silent step per repeat, nothing else


def test_iterate_all_left_is_unknown_against_spin():
    body = KTree(lambda v: ret(inl(unit())))
    verdict = eutt(EQ, iterate(body)(unit()), spin(), 10, 50)
    assert verdict.unknown


def _rests(t, n):
    """The trees after each of the first ``n`` silent steps of ``t``."""
    out = []
    for _ in range(n):
        ob = observe(t)
        assert type(ob) is TauO
        t = ob.rest
        out.append(t)
    return out


def test_iterate_reenters_other_payloads_fresh():
    # every payload, a label and the unit too, re-enters through a fresh tree
    stay = iterate(KTree(lambda v: ret(inl(v))))
    for payload in (nat(4), label(0, 1), unit()):
        rests = _rests(stay(payload), 3)
        assert len({id(t) for t in rests}) == 3
        assert stay(payload) is not stay(payload)


def test_iterate_runs_the_body_on_every_reentry():
    # the paper's iter: each Left re-enters through a fresh silent step, so
    # a body whose answer depends on how often it ran still ends the loop
    for payload in (unit(), label(0, 1)):
        calls = []

        def third_time_out(v):
            calls.append(v)
            return ret(inr(v) if len(calls) == 3 else inl(v))

        assert run_to_head(iterate(KTree(third_time_out))(payload), 100) == (RetO(payload), 2)
        assert calls == [payload] * 3


def test_iterate_keeps_no_tree_for_a_body_that_raised():
    calls = []

    def body(v):
        if v.payload == 1:
            calls.append(v)
            raise ValueError("boom")
        return ret(inl(label(1, 2)))

    run = iterate(KTree(body))
    [rest] = _rests(run(label(0, 2)), 1)
    for expected in (1, 2):
        with pytest.raises(ValueError):
            observe(rest)
        assert len(calls) == expected
    for expected in (3, 4):
        with pytest.raises(ValueError):
            run(label(1, 2))
        assert len(calls) == expected


def test_iterate_tells_labels_of_different_bounds_apart():
    def body(v):
        if v.payload == 0:
            return ret(inl(label(1, v.bound)))
        return ret(inr(nat(v.bound)))

    run = iterate(KTree(body))
    for bound in (2, 3, 2):
        ob, steps = run_to_head(run(label(0, bound)), 10)
        assert ob == RetO(nat(bound)) and steps == 1


def test_loop_without_backedge_is_identity():
    body = KTree(lambda v: ret(v))  # Right a -> Right a
    ob, steps = run_to_head(loop(body)(nat(3)), 10)
    assert ob == RetO(nat(3)) and steps == 0


def test_loop_single_backedge():
    def swap_ports(v):
        from itrees import un_sum

        is_left, payload = un_sum(v)
        return ret(inr(payload) if is_left else inl(payload))

    ob, steps = run_to_head(loop(KTree(swap_ports))(nat(7)), 10)
    assert ob == RetO(nat(7)) and steps == 1


def _law_budgets(fn=500):
    return dict(tau_budget=fn, depth=fn)


def test_iterate_fixed_point_law():
    rng = random.Random(100)
    for _ in range(25):
        f = gen_iter_body(rng, 3, 2)
        lhs = iterate(f)
        rhs = kt_cat(f, kt_case(iterate(f), kt_id()))
        assert ktree_equiv(EQ, lhs, rhs, **_law_budgets()).proven


def test_iterate_parameter_law():
    rng = random.Random(101)
    for _ in range(25):
        f = gen_iter_body(rng, 3, 2)
        g = kt_pure(lambda v: label((v.payload + 1) % 2, 2))
        lhs = kt_cat(iterate(f), g)
        rhs = iterate(kt_cat(f, kt_bimap(kt_id(), g)))
        assert ktree_equiv(EQ, lhs, rhs, **_law_budgets()).proven


def test_iterate_composition_law():
    rng = random.Random(102)
    for _ in range(25):
        f, g = gen_two_phase_bodies(rng, 3, 2)
        lhs = iterate(kt_cat(f, kt_case(g, kt_inr())))
        rhs = kt_cat(f, kt_case(iterate(kt_cat(g, kt_case(f, kt_inr()))), kt_id()))
        assert ktree_equiv(EQ, lhs, rhs, **_law_budgets()).proven


def test_iterate_codiagonal_law():
    rng = random.Random(103)
    for _ in range(25):
        f = gen_codiagonal_body(rng, 3, 2)
        lhs = iterate(iterate(f))
        rhs = iterate(kt_cat(f, kt_case(kt_inl(), kt_id())))
        assert ktree_equiv(EQ, lhs, rhs, **_law_budgets()).proven


def _ack_oracle(m, n, memo={}):
    key = (m, n)
    if key in memo:
        return memo[key]
    todo = [key]
    while todo:
        m0, n0 = todo[-1]
        if (m0, n0) in memo:
            todo.pop()
            continue
        if m0 == 0:
            memo[(m0, n0)] = n0 + 1
            todo.pop()
        elif n0 == 0:
            if (m0 - 1, 1) in memo:
                memo[(m0, n0)] = memo[(m0 - 1, 1)]
                todo.pop()
            else:
                todo.append((m0 - 1, 1))
        else:
            if (m0, n0 - 1) in memo:
                inner = memo[(m0, n0 - 1)]
                if (m0 - 1, inner) in memo:
                    memo[(m0, n0)] = memo[(m0 - 1, inner)]
                    todo.pop()
                else:
                    todo.append((m0 - 1, inner))
            else:
                todo.append((m0, n0 - 1))
    return memo[key]


def test_mrec_ackermann_matches_direct_recursion():
    rh = ackermann_handler()
    assert _ack_oracle(2, 3) == 9
    ob, _ = run_to_head(mrec(rh, ackermann_event(2, 3)), 100_000)
    assert ob == RetO(nat(9))
    ob, _ = run_to_head(mrec(rh, ackermann_event(0, 5)), 1000)
    assert ob == RetO(nat(6))
    for m in range(3):
        for n in range(3):
            ob, _ = run_to_head(mrec(rh, ackermann_event(m, n)), 200_000)
            assert ob == RetO(nat(_ack_oracle(m, n)))


def test_mrec_even_odd():
    rh = even_odd_handler()
    ob, _ = run_to_head(mrec(rh, event(EVEN_ODD_E, "Even", nat(10))), 1000)
    assert ob == RetO(boolean(True))
    for n in range(8):
        ob, _ = run_to_head(mrec(rh, event(EVEN_ODD_E, "Odd", nat(n))), 1000)
        assert ob == RetO(boolean(n % 2 == 1))


def _mrec_unfolding_handler(rh):
    def apply(e):
        if e.path and e.path[0] == "L":
            return mrec(rh, e.at(e.path[1:]))
        if e.path and e.path[0] == "R":
            return trigger(e.at(e.path[1:]))
        raise WrongSignature(f"unclassified {e!r}")

    return apply


def test_mrec_unfolding_law():
    rh = ackermann_handler()
    for m, n in [(0, 2), (1, 1), (2, 2), (1, 3)]:
        lhs = mrec(rh, ackermann_event(m, n))
        rhs = interp(_mrec_unfolding_handler(rh), rh.body(ackermann_event(m, n)))
        assert eutt(EQ, lhs, rhs, 10_000, 10_000).proven
    rh2 = even_odd_handler()
    for n in range(6):
        e = event(EVEN_ODD_E, "Even", nat(n))
        lhs = mrec(rh2, e)
        rhs = interp(_mrec_unfolding_handler(rh2), rh2.body(e))
        assert eutt(EQ, lhs, rhs, 1000, 1000).proven


def test_mrec_rejects_foreign_events():
    rh = even_odd_handler()
    with pytest.raises(WrongSignature):
        mrec(rh, ackermann_event(1, 1))


def test_loop_agrees_with_small_step_reference():
    # exhaustive over tiny domains against a direct port-chasing interpreter
    rng = random.Random(104)
    from itrees import un_sum

    for _ in range(60):
        n_c, n_a, n_b = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)

        # a pure table body: C+A -> C+B, written with plain dicts
        table = {}
        for side, bound in (("L", n_c), ("R", n_a)):
            for i in range(bound):
                if rng.random() < 0.4:
                    table[(side, i)] = ("L", rng.randint(0, n_c - 1))
                else:
                    table[(side, i)] = ("R", rng.randint(0, n_b - 1))

        def body_fn(v, _t=table):
            is_left, payload = un_sum(v)
            out_side, out_i = _t[("L" if is_left else "R", payload.payload)]
            if out_side == "L":
                return tau(ret(inl(label(out_i, n_c))))
            return ret(inr(label(out_i, n_b)))

        def reference(a0, _t=table):
            key = ("R", a0)
            for _ in range(1 + n_c + 1):  # a loop over C ports revisits a C at most once before cycling
                out_side, out_i = _t[key]
                if out_side == "R":
                    return out_i
                key = ("L", out_i)
            return None  # cycles through the back-edge forever

        for i in range(n_a):
            expected = reference(i)
            got, steps = run_to_head(loop(KTree(body_fn))(label(i, n_a)), 100)
            if expected is None:
                assert type(got) is TauO  # still spinning at the fuel bound
            else:
                assert got == RetO(label(expected, n_b))
