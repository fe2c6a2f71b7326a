"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines go by.
Budgets and corpus sizes are pinned here; nothing is deferred to later
calibration.
"""

import contextlib
import io
import os
import random
import time

import pytest

from itrees import (
    EQ,
    boolean,
    enumerate_answers,
    inl,
    inr,
    iterate,
    vis,
    RetO,
    TauO,
    bind,
    eutt,
    interp,
    interp_state,
    kt_bimap,
    kt_case,
    kt_cat,
    kt_id,
    kt_inl,
    kt_inr,
    kt_pure,
    ktree_equiv,
    label,
    label_t,
    merge_fin,
    mrec,
    nat,
    observe,
    pair,
    ret,
    run_to_head,
    split_fin,
    strong_bisim,
    tau,
    trace_equiv,
    trigger,
    umap,
    unit,
    KTree,
    loop,
)
from itrees import asm as asm_mod
from itrees.asm import (
    app_asm,
    den_asm,
    interp_asm,
    pure_asm,
    relabel_asm,
    seq_asm,
    while_asm,
)
from itrees.compiler import MUTATIONS, SimConfig, check_equivalent, gen_program
from itrees.events import LEFT, event, state_sig
from itrees.imp import env_of, parse_imp, run_imp
from itrees.samples import ackermann_event, ackermann_handler
from itrees.values import NAT_T

from helpers import (
    T2,
    gen_asm_unit,
    gen_codiagonal_body,
    gen_event2,
    gen_iter_body,
    gen_kont,
    gen_tree,
    gen_two_phase_bodies,
    mutate_tree,
    with_extra_taus,
)

# criterion 1 still uses the three-kind alphabet konts; criteria 2-4 stay on
# the two-kind alphabet throughout

HERE = os.path.dirname(__file__)


def _report(n, name):
    print(f"ACCEPTANCE {n} {name}: PASS")


def test_criterion_1_monad_law_suite():
    started = time.time()
    rng = random.Random(0xA1)
    for _ in range(1000):
        t = gen_tree(rng, 3)
        k = gen_kont(rng, 2)
        k2 = gen_kont(rng, 2)
        v = nat(rng.randint(0, 3))
        depth = 200
        assert strong_bisim(bind(ret(v), k), k(v), depth).proven
        assert strong_bisim(bind(t, ret), t, depth).proven
        assert strong_bisim(
            bind(bind(t, k), k2), bind(t, lambda y: bind(k(y), k2)), depth
        ).proven
        # structural laws
        assert eutt(EQ, tau(t), t, 50, depth).proven
        ob = observe(bind(tau(t), k))
        assert type(ob) is TauO
        assert strong_bisim(ob.rest, bind(t, k), depth).proven
        ev_tree = bind(trigger(gen_event2(rng)), k)
        ob2 = observe(ev_tree)
        x = enumerate_answers(ob2.event.answer)[0]
        assert strong_bisim(ob2.k(x), bind(ret(x), k), depth).proven
    elapsed = time.time() - started
    assert elapsed < 10, f"monad suite took {elapsed:.1f}s"
    _report(1, "monad and structural laws (1000 trees)")


def test_criterion_2_category_law_suite():
    started = time.time()
    rng = random.Random(0xA2)
    dom = [label(i, 4) for i in range(4)]
    sum_dom = [inl(v) for v in dom[:2]] + [inr(v) for v in dom[:2]]
    from helpers import gen_ktree

    for _ in range(40):
        f = gen_ktree(rng, 4, 4, ev_gen=gen_event2)
        g = kt_pure(lambda v: label((v.payload * 2 + 1) % 4, 4))
        h = kt_pure(lambda v: label((v.payload + 3) % 4, 4))
        assert ktree_equiv(EQ, kt_cat(kt_id(), f), f, dom).proven
        assert ktree_equiv(EQ, kt_cat(f, kt_id()), f, dom).proven
        assert ktree_equiv(
            EQ, kt_cat(kt_cat(f, g), h), kt_cat(f, kt_cat(g, h)), dom
        ).proven
        assert ktree_equiv(
            EQ,
            kt_cat(g, h),
            kt_pure(lambda v: label(((v.payload * 2 + 1) % 4 + 3) % 4, 4)),
            dom,
        ).proven
        assert ktree_equiv(EQ, kt_cat(kt_inl(), kt_case(f, g)), f, dom).proven
        assert ktree_equiv(EQ, kt_cat(kt_inr(), kt_case(f, g)), g, dom).proven
        fg = kt_case(f, g)
        eta = kt_case(kt_cat(kt_inl(), fg), kt_cat(kt_inr(), fg))
        assert ktree_equiv(EQ, eta, fg, sum_dom).proven

    # handler analogues on the two-kind alphabet
    from itrees import handler_case, handler_cat, handler_id

    events = [event(T2, "Ask"), event(T2, "Tell", nat(1))]

    def rand_handler():
        pre = {k.name: gen_tree(rng, 2) for k in T2.kinds}
        answers = {"Ask": boolean(True), "Tell": unit()}
        return lambda e: bind(pre[e.kind], lambda _: ret(answers[e.kind]))

    for _ in range(20):
        h = rand_handler()
        g = rand_handler()
        hid = handler_cat(handler_id, h)
        for e in events:
            assert eutt(EQ, hid(e), h(e), 100, 200).proven
        case = handler_case(h, g)
        for e in events:
            assert eutt(EQ, case(e.at(("L",))), h(e), 100, 200).proven
            assert eutt(EQ, case(e.at(("R",))), g(e), 100, 200).proven
    elapsed = time.time() - started
    assert elapsed < 10, f"category suite took {elapsed:.1f}s"
    _report(2, "ktree and handler category laws (exhaustive domains)")


def test_criterion_3_iterative_law_suite():
    rng = random.Random(0xA3)
    budgets = dict(tau_budget=500, depth=500, max_nodes=400_000)
    outcomes = {"proven": 0, "refuted": 0, "unknown": 0}

    def note(v):
        outcomes[v.status.value] += 1

    for _ in range(200):
        f = gen_iter_body(rng, 3, 2, ev_gen=gen_event2)
        note(ktree_equiv(EQ, iterate(f),
                         kt_cat(f, kt_case(iterate(f), kt_id())),
                         **budgets))
        g = kt_pure(lambda v: label((v.payload + 1) % 2, 2))
        note(ktree_equiv(EQ, kt_cat(iterate(f), g),
                         iterate(kt_cat(f, kt_bimap(kt_id(), g))),
                         **budgets))
        f2, g2 = gen_two_phase_bodies(rng, 3, 2, ev_gen=gen_event2)
        lhs = iterate(kt_cat(f2, kt_case(g2, kt_inr())))
        rhs = kt_cat(f2, kt_case(
            iterate(kt_cat(g2, kt_case(f2, kt_inr()))), kt_id()))
        note(ktree_equiv(EQ, lhs, rhs, **budgets))
        f3 = gen_codiagonal_body(rng, 3, 2, ev_gen=gen_event2)
        note(ktree_equiv(EQ, iterate(iterate(f3)),
                         iterate(kt_cat(f3, kt_case(kt_inl(), kt_id()))),
                         **budgets))

    total = sum(outcomes.values())
    assert outcomes["refuted"] == 0, outcomes
    assert outcomes["unknown"] / total < 0.01, outcomes
    _report(3, f"iterative-category laws ({total} checks, {outcomes['unknown']} unknown)")


def test_criterion_4_interp_morphism_suite():
    rng = random.Random(0xA4)

    def rand_handler():
        pre = {k.name: gen_tree(rng, 2) for k in T2.kinds}
        answers = {"Ask": boolean(rng.random() < 0.5), "Tell": unit()}
        return lambda e: bind(pre[e.kind], lambda _: ret(answers[e.kind]))

    def gen_t2_tree(depth):
        pick = rng.random()
        if depth <= 0 or pick < 0.4:
            return ret(nat(rng.randint(0, 3)))
        if pick < 0.6:
            return tau(gen_t2_tree(depth - 1))
        ev = gen_event2(rng)
        table = {x: gen_t2_tree(depth - 1) for x in enumerate_answers(ev.answer)}
        return vis(ev, lambda x, _t=table: _t[x])

    for _ in range(150):
        h = rand_handler()
        # ret: exact
        v = nat(rng.randint(0, 9))
        assert strong_bisim(interp(h, ret(v)), ret(v), 100).proven
        # trigger: handler's tree after exactly one step
        e = gen_event2(rng)
        lhs = interp(h, trigger(e))
        ob = observe(lhs)
        assert type(ob) is TauO
        assert strong_bisim(ob.rest, h(e), 200).proven
        # bind: weak
        t = gen_t2_tree(3)
        fixed = gen_t2_tree(2)
        k = (lambda v, _f=fixed: bind(_f, lambda _: ret(v))) if rng.random() < 0.5 \
            else (lambda v, _f=fixed: _f)
        assert eutt(EQ, interp(h, bind(t, k)),
                    bind(interp(h, t), lambda x: interp(h, k(x))), 200, 400).proven

    get = trigger(event(state_sig(NAT_T), "Get", path=(LEFT,)))
    for _ in range(50):
        s = nat(rng.randint(0, 9))
        s2 = nat(rng.randint(0, 9))
        ob, steps = run_to_head(interp_state(get, s), 2)
        assert ob == RetO(pair(s, s)) and steps <= 2
        put = trigger(event(state_sig(NAT_T), "Put", s2, path=(LEFT,)))
        ob, steps = run_to_head(interp_state(put, s), 2)
        assert ob == RetO(pair(s2, unit())) and steps <= 2
    _report(4, "interp is a monad morphism; state equations exact after burn")


def test_criterion_5_mrec_suite():
    rh = ackermann_handler()

    def oracle(m, n):
        if m == 0:
            return n + 1
        if n == 0:
            return oracle(m - 1, 1)
        return oracle(m - 1, oracle(m, n - 1))

    def unfolding_handler(rh):
        def apply(e):
            if e.path and e.path[0] == "L":
                return mrec(rh, e.at(e.path[1:]))
            return trigger(e.at(e.path[1:]))

        return apply

    for m in range(4):
        for n in range(4):
            ob, _ = run_to_head(mrec(rh, ackermann_event(m, n)), 2_000_000)
            assert ob == RetO(nat(oracle(m, n))), (m, n)
            lhs = mrec(rh, ackermann_event(m, n))
            rhs = interp(unfolding_handler(rh), rh.body(ackermann_event(m, n)))
            assert eutt(EQ, lhs, rhs, 3_000_000, 3_000_000).proven, (m, n)
    assert oracle(2, 3) == 9
    _report(5, "mrec matches direct recursion and its unfolding law (m,n <= 3)")


def test_criterion_6_trace_correspondence():
    rng = random.Random(0xA6)
    proven_pairs = refuted_pairs = 0
    for _ in range(500):
        t = gen_tree(rng, 3)
        roll = rng.random()
        if roll < 0.4:
            u = with_extra_taus(rng, t)
        elif roll < 0.7:
            u = mutate_tree(rng, t)
        else:
            u = gen_tree(rng, 3)
        weak = eutt(EQ, t, u, 60, 200)
        traces = trace_equiv(t, u, 5, 60)
        if weak.proven or traces.proven:
            assert weak.proven and traces.proven, (weak, traces)
            proven_pairs += 1
        if weak.refuted:
            assert traces.refuted, (weak, traces)
            refuted_pairs += 1
    assert proven_pairs > 50 and refuted_pairs > 50
    _report(6, f"weak bisim <=> trace equivalence ({proven_pairs} proven, {refuted_pairs} refuted)")


def test_criterion_7_compiler_correctness():
    started = time.time()
    cfg = SimConfig(fuel=50_000)
    unknowns = []
    for seed in range(500):
        prog = gen_program(20, "bounded", seed)
        verdict = check_equivalent(prog, cfg, seed=seed)
        assert not verdict.refuted, (seed, verdict)
        if verdict.unknown:
            unknowns.append((seed, verdict.reason))
    for seed, reason in unknowns:
        print(f"budget report: seed={seed} reason={reason}")
    assert not unknowns, f"{len(unknowns)} unknown verdicts"

    corpus_dir = os.path.join(HERE, "golden", "corpus")
    for name in sorted(os.listdir(corpus_dir)):
        with open(os.path.join(corpus_dir, name)) as fh:
            prog = parse_imp(fh.read())
        verdict = check_equivalent(prog, cfg)
        assert verdict.proven, (name, verdict)

    scan_cfg = SimConfig(fuel=4000, samples=2)
    programs = [gen_program(14, "bounded", seed) for seed in range(60)]
    for mutation in MUTATIONS:
        assert any(
            check_equivalent(p, scan_cfg, mutation=mutation).refuted for p in programs
        ), f"{mutation} survived"
    elapsed = time.time() - started
    assert elapsed < 300, f"compiler suite took {elapsed:.1f}s"
    _report(7, f"compiler correct on 500 programs + corpus; mutants refuted ({elapsed:.0f}s)")


def test_criterion_8_linking_combinator_equations():
    rng = random.Random(0xA8)
    budgets = dict(tau_budget=1000, depth=1000, nat_probes=(0, 1), max_nodes=200_000)

    for _ in range(100):
        u1 = gen_asm_unit(rng, rng.randint(1, 2), rng.randint(1, 2),
                          rng.randint(0, 2), max_instrs=1)
        u2 = gen_asm_unit(rng, rng.randint(1, 2), rng.randint(1, 2),
                          rng.randint(0, 2), max_instrs=1)
        lhs = den_asm(app_asm(u1, u2))
        rhs = kt_cat(split_fin(u1.entries, u2.entries),
                     kt_cat(kt_bimap(den_asm(u1), den_asm(u2)),
                            merge_fin(u1.exits, u2.exits)))
        rhs = KTree(rhs.fn, label_t(u1.entries + u2.entries))
        assert ktree_equiv(EQ, lhs, rhs, **budgets).proven

    for _ in range(100):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        table = [rng.randrange(b) for _ in range(a)]
        assert ktree_equiv(EQ, den_asm(pure_asm(a, b, lambda i: table[i])),
                           kt_pure(lambda v: label(table[v.payload], b), dom=label_t(a)),
                           **budgets).proven

    for _ in range(100):
        u = gen_asm_unit(rng, rng.randint(1, 3), rng.randint(1, 3),
                         rng.randint(0, 2), max_instrs=1)
        a = rng.randint(1, 3)
        d = u.exits + rng.randint(0, 2)
        entry_map = tuple(rng.randrange(u.entries) for _ in range(a))
        exit_map = tuple(rng.randrange(d) for _ in range(u.exits))
        lhs = den_asm(relabel_asm(entry_map, exit_map, u, d))
        rhs = kt_cat(kt_pure(lambda v: label(entry_map[v.payload], u.entries)),
                     kt_cat(den_asm(u), kt_pure(lambda v: label(exit_map[v.payload], d))))
        assert ktree_equiv(EQ, lhs, KTree(rhs.fn, label_t(a)), **budgets).proven

    for _ in range(100):
        wires = rng.randint(1, 2)
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        u = gen_asm_unit(rng, wires + a, wires + b, rng.randint(0, 2),
                         max_instrs=1, loop_ports=wires)
        lhs = den_asm(asm_mod.loop_asm(u, wires))
        body = kt_cat(merge_fin(wires, a), kt_cat(den_asm(u), split_fin(wires, b)))
        assert ktree_equiv(EQ, lhs, KTree(loop(body).fn, label_t(a)), **budgets).proven

    for _ in range(100):
        mid = rng.randint(1, 2)
        u1 = gen_asm_unit(rng, rng.randint(1, 2), mid, rng.randint(0, 2), max_instrs=1)
        u2 = gen_asm_unit(rng, mid, rng.randint(1, 2), rng.randint(0, 2), max_instrs=1)
        lhs = den_asm(seq_asm(u1, u2))
        rhs = KTree(kt_cat(den_asm(u1), den_asm(u2)).fn, label_t(u1.entries))
        assert ktree_equiv(EQ, lhs, rhs, **budgets).proven

    # while: interpreted form on terminating counter instances (the
    # uninterpreted unrolling is infinite along always-nonzero answers)
    from test_asm import _counting_while, _while_rhs

    for i in range(100):
        e, p = _counting_while(rng)
        lhs = den_asm(while_asm(e, p))
        rhs = _while_rhs(e, p)
        mem = umap({"c": nat(i % 4)})
        assert eutt(EQ, interp_asm(lhs(label(0, 1)), mem, umap()),
                    interp_asm(rhs(label(0, 1)), mem, umap()), 5000, 10_000).proven
    _report(8, "den_asm commutes with app/pure/relabel/loop; seq and while correct")


def test_criterion_9_divergence_sensitivity():
    prog = parse_imp("while 1 do skip end")
    from itrees.compiler import compile_stmt

    unit_c = compile_stmt(prog)
    for fuel in (10**3, 10**4, 10**5):
        assert not run_imp(prog, env_of(), fuel).finished
        t_asm = interp_asm(den_asm(unit_c)(label(0, 1)), umap(), umap())
        ob, steps = run_to_head(t_asm, fuel)
        assert type(ob) is TauO and steps == fuel
    verdict = check_equivalent(prog, SimConfig(fuel=2000, samples=1))
    assert verdict.unknown and not verdict.refuted
    _report(9, "divergence preserved: out-of-fuel on both pipelines, eutt unknown")


def test_criterion_10_cli_end_to_end():
    from itrees import cli

    golden_dir = os.path.join(HERE, "golden")
    corpus = os.path.join(golden_dir, "corpus")

    def run_cli(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def golden(name):
        with open(os.path.join(golden_dir, name), encoding="utf-8") as fh:
            return fh.read()

    for name in sorted(f[:-4] for f in os.listdir(corpus) if f.endswith(".imp")):
        code, out = run_cli(["run-imp", os.path.join(corpus, f"{name}.imp")])
        assert code == 0 and out == golden(f"{name}.run-imp.txt")
        code, out = run_cli(["compile", os.path.join(corpus, f"{name}.imp")])
        assert code == 0 and out == golden(f"{name}.asm")
        code, out = run_cli(["run-asm", os.path.join(golden_dir, f"{name}.asm")])
        assert code == 0 and out == golden(f"{name}.run-asm.txt")
    for name in ("assign", "while_count", "if_true"):
        code, out = run_cli(["trace", os.path.join(corpus, f"{name}.imp"),
                             "--event-depth", "3"])
        assert code == 0 and out == golden(f"{name}.trace.txt")

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.cmd_demo_echo(stdin=io.StringIO("5\n4\n3\n2\n1\n"))
    assert code == 0 and buf.getvalue() == "5\n4\n3\n2\n1\n"
    _report(10, "cli golden files byte-exact; echo demo echoes 5 lines")
