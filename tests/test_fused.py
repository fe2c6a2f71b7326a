"""The fused store-passing interpreters against the layered specification.

``interp_imp`` and ``interp_asm`` run as one ``interp_stores`` pass; the
layered stacks in ``helpers`` compose the renaming ``interp`` with one
``interp_map`` per store.  They must agree up to silent steps and, because
the CLI goldens and checker witnesses count steps, exactly step for step.
"""

import os
import sys

import pytest

from itrees import (
    EQ,
    IOE,
    NAT_T,
    SYM_T,
    UNIT_T,
    EventSig,
    KindSpec,
    AnswerTagMismatch,
    KTree,
    Reason,
    RetO,
    Site,
    TauO,
    UnhandledEvent,
    VisO,
    bind,
    eutt,
    event,
    handler_bimap,
    handler_id,
    interp,
    interp_map,
    interp_stores,
    iterate,
    lazy,
    map_default_sig,
    observe,
    pair,
    ret,
    run_to_head,
    spin,
    strong_bisim,
    tau,
    taus,
    trigger,
    vis,
    write_at,
)
from itrees import asm, compiler, core, imp
from itrees.events import LEFT, RIGHT, EventInstance
from itrees.interp import _BATCH_STEPS, _HARD_STEPS, _route_table
from itrees.asm import den_asm, interp_asm, load, store
from itrees.compiler import MUTATIONS, SimConfig, compile_stmt, gen_program, initial_stores
from itrees.imp import (
    IMP_STATE,
    Assign,
    Lit,
    Var,
    denote_stmt,
    env_of,
    get_var,
    interp_imp,
    parse_imp,
    set_var,
)
from itrees.values import boolean, fst, label, label_t, map_items, nat, snd, sym, umap, unit

from helpers import layered_interp_asm, layered_interp_imp, to_map_events

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
FUEL = 1500  # cuts off some generated runs, so out-of-fuel heads are compared too
CFG = SimConfig()


def _programs():
    for mode in ("bounded", "free"):
        for seed in range(12):
            yield gen_program(12, mode, seed), seed


def _agree(fused, layered):
    """Same head and step count at ``FUEL``; eutt-equal when both finish."""
    a, a_steps = run_to_head(fused, FUEL)
    b, b_steps = run_to_head(layered, FUEL)
    assert a_steps == b_steps
    assert type(a) is type(b)
    if type(a) is RetO:
        assert a == b
        assert eutt(EQ, fused, layered, FUEL, FUEL).proven
    elif type(a) is VisO:
        assert a.event == b.event
    return type(a)


def test_fused_imp_matches_layered():
    heads = set()
    for s, seed in _programs():
        for env0 in initial_stores(CFG, seed):
            heads.add(_agree(interp_imp(denote_stmt(s), env0),
                             layered_interp_imp(denote_stmt(s), env0)))
    assert heads == {RetO, TauO}


@pytest.mark.parametrize("mutation", [None] + sorted(MUTATIONS))
def test_fused_asm_matches_layered(mutation):
    low = MUTATIONS[mutation] if mutation else compiler._CLEAN
    heads = set()
    for s, seed in _programs():
        entry = den_asm(compile_stmt(s, low))(label(0, 1))
        for mem0 in initial_stores(CFG, seed):
            heads.add(_agree(interp_asm(entry, mem0, umap(), low.asm_default),
                             layered_interp_asm(entry, mem0, umap(), low.asm_default)))
    assert RetO in heads


def _node_for_node(fused, layered, depth=FUEL):
    """Strong bisimilarity: every observation equal, silent steps one by one.

    Proven when the runs finish within ``depth`` steps; a run cut off there
    can only come back Unknown."""
    v = strong_bisim(fused, layered, depth)
    finished = type(run_to_head(fused, depth)[0]) is RetO
    assert v.proven if finished else v.reason is Reason.DEPTH_BUDGET
    return v.proven


def test_fused_imp_is_strongly_bisimilar_to_layered():
    proven = [_node_for_node(interp_imp(denote_stmt(s), env0),
                             layered_interp_imp(denote_stmt(s), env0))
              for s, seed in _programs() for env0 in initial_stores(CFG, seed)]
    assert 0 < proven.count(False) < proven.count(True)


@pytest.mark.parametrize("mutation", [None] + sorted(MUTATIONS))
def test_fused_asm_is_strongly_bisimilar_to_layered(mutation):
    low = MUTATIONS[mutation] if mutation else compiler._CLEAN
    proven = []
    for s, seed in _programs():
        entry = den_asm(compile_stmt(s, low))(label(0, 1))
        for mem0 in initial_stores(CFG, seed):
            proven.append(_node_for_node(
                interp_asm(entry, mem0, umap(), low.asm_default),
                layered_interp_asm(entry, mem0, umap(), low.asm_default)))
    assert proven.count(True) > len(proven) // 2


def test_long_batches_are_strongly_bisimilar_to_layered():
    # 300 assignments and 600 reads with no source silent step between them:
    # the fused batches fill up to their cap several times over
    s = parse_imp("".join(f"x{i % 7} := x{(i + 1) % 7} + x{(i + 3) % 7};\n"
                          for i in range(300)) + "skip\n")
    env0 = env_of({"x1": 1, "x3": 2})
    assert _node_for_node(interp_imp(denote_stmt(s), env0),
                          layered_interp_imp(denote_stmt(s), env0), 3000)
    entry = den_asm(compile_stmt(s))(label(0, 1))
    assert _node_for_node(interp_asm(entry, env0, umap()),
                          layered_interp_asm(entry, env0, umap()), 12000)


def test_loop_batches_are_strongly_bisimilar_to_layered():
    # every iteration and block jump is a source silent step; the fused
    # batches run through them and end only at their cap
    s = parse_imp("n := 500;\nwhile n do n := n - 1 end\n")
    fused = interp_imp(denote_stmt(s), env_of())
    assert observe(fused).run >= _BATCH_STEPS
    assert _node_for_node(fused, layered_interp_imp(denote_stmt(s), env_of()), 10_000)
    entry = den_asm(compile_stmt(s))(label(0, 1))
    fused = interp_asm(entry, umap(), umap())
    assert observe(fused).run >= _BATCH_STEPS
    assert _node_for_node(fused, layered_interp_asm(entry, umap(), umap()), 40_000)


def _batches(t):
    """The silent runs a fused tree hands out, and the head after them."""
    runs = []
    ob = observe(t)
    while type(ob) is TauO:
        runs.append(ob)
        ob = observe(ob.after(ob.run))
    return runs, ob


def test_loop_batches_end_at_loop_marks():
    # Every batch but the last ends at a re-entry node of the loop, before
    # its step, and carries the fold's state there: the marked head, the
    # binds pending above it and the stores, which no later batch writes.
    s = parse_imp("c := 400;\nwhile c do c := c - 1 end\n")
    for t in (interp_imp(denote_stmt(s), env_of()),
              interp_asm(den_asm(compile_stmt(s))(label(0, 1)), env_of(), umap())):
        runs, last = _batches(t)
        assert type(last) is RetO and len(runs) > 3
        counts = []
        for ob in runs[:-1]:
            _, head, _, stores = ob._key
            assert type(head) is TauO and head._mark
            assert _BATCH_STEPS <= ob.run < _HARD_STEPS
            counts.append(stores[0]["c"].payload)
        assert counts == sorted(set(counts), reverse=True) and counts[-1] > 0
        assert runs[-1]._key is None and runs[-1].run < _HARD_STEPS


def test_a_long_loop_body_does_not_stretch_a_batch():
    # 300 assignments and 600 reads between two re-entries of the Imp loop:
    # a batch that passed a mark stops at the hard limit, not at the next
    # mark (the compiled unit jumps between blocks, each a mark)
    body = "".join(f"x{i % 7} := x{(i + 1) % 7} + x{(i + 3) % 7};\n" for i in range(300))
    s = parse_imp(f"n := 2;\nwhile n do\n{body}n := n - 1\nend\n")
    env0 = env_of({"x1": 1, "x3": 2})
    runs, _ = _batches(interp_imp(denote_stmt(s), env0))
    assert max(ob.run for ob in runs) == _HARD_STEPS
    entry = den_asm(compile_stmt(s))(label(0, 1))
    runs += _batches(interp_asm(entry, env0, umap()))[0]
    assert all(ob.run < _HARD_STEPS + 8 for ob in runs)
    assert _node_for_node(interp_imp(denote_stmt(s), env0),
                          layered_interp_imp(denote_stmt(s), env0), 6000)
    assert _node_for_node(interp_asm(entry, env0, umap()),
                          layered_interp_asm(entry, env0, umap()), 24000)


def test_a_source_silent_run_is_one_batch():
    ob = observe(interp_imp(taus(10**7, ret(unit())), env_of()))
    assert (type(ob), ob.run) == (TauO, 10**7)
    assert observe(ob.after(10**7)) == RetO(pair(env_of(), unit()))
    ob = observe(interp_asm(taus(10**7, ret(unit())), umap(), umap()))
    assert (type(ob), ob.run) == (TauO, 10**7)
    assert observe(ob.after(10**7)) == RetO(pair(umap(), pair(umap(), unit())))


def test_spin_still_steps():
    # the source steps silently forever: each batch must end at its cap
    for t in (interp_imp(spin(), env_of()), interp_asm(spin(), umap(), umap())):
        for _ in range(3):
            ob = observe(t)
            assert (type(ob), ob.run) == (TauO, _BATCH_STEPS)
            t = ob.after(_BATCH_STEPS)
        ob, steps = run_to_head(t, 10_000)
        assert (type(ob), steps) == (TauO, 10_000)


def test_an_observation_looks_at_most_a_batch_ahead():
    # A source of silent steps and writes that records the interpreted
    # steps of each node it produces: one for a silent step, three for a
    # write.  Each observation forces the source only as far as the batch
    # it hands out, which ends within a write of the cap.
    forced = []

    def node(n):
        def produce():
            if n % 3:
                forced.append(1)
                return tau(node(n + 1))
            forced.append(3)
            return bind(set_var("x", nat(n)), lambda _: node(n + 1))
        return lazy(produce)

    t = interp_imp(node(0), env_of())
    handed = 0
    for _ in range(4):
        ob = observe(t)
        assert type(ob) is TauO and _BATCH_STEPS <= ob.run < _BATCH_STEPS + 3
        handed += ob.run
        assert sum(forced) == handed
        t = ob.after(ob.run)


class Unbounded(BaseException):
    """Not an ``Exception``, so a batch cannot defer it to a later step."""


def test_endless_store_events_still_step():
    # No silent step of its own, ever: each observation must still return.
    # A batch without a cap would read on until it hits Unbounded.
    def reads(n):
        if n == 100_000:
            raise Unbounded
        return bind(get_var("x"), lambda _: reads(n + 1))

    t = interp_imp(reads(0), env_of())
    assert type(observe(t)) is TauO
    ob, steps = run_to_head(t, 10_000)
    assert (type(ob), steps) == (TauO, 10_000)


class Boom(Exception):
    pass


def _boom(_):
    raise Boom


def _least_raising_fuel(t, high):
    """The least fuel below ``high`` at which running ``t`` raises, and
    what it raises, found by bisection; each smaller fuel tried must run
    to a silent step."""
    low, err = 0, None
    while low < high:
        mid = (low + high) // 2
        try:
            ob, steps = run_to_head(t, mid)
        except Exception as raised:
            high, err = mid, type(raised)
        else:
            assert (type(ob), steps) == (TauO, mid)
            low = mid + 1
    assert err is not None
    return low, err


# Imp and Asm steps at which each bad tail raises, measured on the fused
# stack before it answered store events in batches.  The layered stack
# raises at the same steps, or one later for an event it has no case for:
# its renaming fold spends its own silent step before its handler fails.
RAISES_AT = {"unrouted": (10, 14), "stray": (10, 14), "observe": (10, 14), "answer": (13, 14)}


BAD_TAILS = {
    "unrouted": lambda: trigger(event(IOE, "Output", nat(1))),
    "stray": lambda: trigger(event(IOE, "Output", nat(1), path=("L",))),
    "observe": lambda: bind(ret(unit()), _boom),
    "answer": lambda: vis(event(IMP_STATE, "GetVar", sym("x"), path=("L",)), _boom),
}


@pytest.mark.parametrize("tail", sorted(RAISES_AT))
def test_batches_end_before_a_node_that_raises(tail):
    # Stores are written and read, around one source silent step, before
    # the bad node, so the fused tree has a batch open when it meets it.
    bad = BAD_TAILS[tail]

    def imp_program():
        return bind(set_var("x", nat(2)), lambda _: bind(
            get_var("x"), lambda x: tau(bind(set_var("y", x), lambda _: bad()))))

    def asm_program():
        return bind(asm.set_reg(1, nat(2)), lambda _: bind(
            store("a", nat(3)), lambda _: tau(bind(load("a"), lambda _: bad()))))

    # Asm classifies its events one level deeper, so every tail but
    # "observe" is an event without a route there
    runs = ((interp_imp(imp_program(), env_of()), layered_interp_imp(imp_program(), env_of()),
             tail in ("unrouted", "stray")),
            (interp_asm(asm_program(), umap(), umap()),
             layered_interp_asm(asm_program(), umap(), umap()), tail != "observe"))
    for (fused, layered, no_route), at in zip(runs, RAISES_AT[tail]):
        for fuel in range(at):
            ob, steps = run_to_head(fused, fuel)
            assert (type(ob), steps) == (TauO, fuel)
        err = ValueError if no_route else Boom
        with pytest.raises(err):
            run_to_head(fused, at)
        layered_at, layered_err = _least_raising_fuel(layered, 100)
        assert layered_at == at + no_route and issubclass(layered_err, err)


@pytest.mark.parametrize("tail", sorted(BAD_TAILS))
def test_a_node_that_raises_after_many_batches_raises_at_its_step(tail):
    # 300 writes, each followed by a source silent step, then a read and
    # the bad node: the batches run through the silent steps and reach
    # their cap several times before the fused tree meets it.
    bad = BAD_TAILS[tail]

    def imp_program():
        t = bind(get_var("x0"), lambda _: bad())
        for i in reversed(range(300)):
            t = bind(set_var(f"x{i % 5}", nat(i)), lambda _, t=t: tau(t))
        return t

    def asm_program():
        t = bind(load("a0"), lambda _: bad())
        for i in reversed(range(300)):
            write = store(f"a{i % 5}", nat(i)) if i % 2 else asm.set_reg(i % 5, nat(i))
            t = bind(write, lambda _, t=t: tau(t))
        return t

    runs = ((interp_imp(imp_program(), env_of()), layered_interp_imp(imp_program(), env_of()),
             tail in ("unrouted", "stray")),
            (interp_asm(asm_program(), umap(), umap()),
             layered_interp_asm(asm_program(), umap(), umap()), tail != "observe"))
    for fused, layered, no_route in runs:
        expected = ValueError if no_route else Boom
        at, err = _least_raising_fuel(fused, 5000)
        assert at > 3 * _BATCH_STEPS and issubclass(err, expected)
        layered_at, layered_err = _least_raising_fuel(layered, 5000)
        assert layered_at == at + no_route and issubclass(layered_err, expected)


def test_fused_check_equivalent_matches_layered(monkeypatch):
    cfg = SimConfig(fuel=4000, samples=2)

    def outcomes():
        return [(v.status, v.reason, v.witness)
                for s, seed in list(_programs())[::4]
                for v in (compiler.check_equivalent(s, cfg, seed=seed, mutation=m)
                          for m in [None] + sorted(MUTATIONS))]

    fused = outcomes()
    monkeypatch.setattr(compiler, "interp_imp", layered_interp_imp)
    monkeypatch.setattr(asm, "interp_asm", layered_interp_asm)
    assert outcomes() == fused
    assert any(status.value == "refuted" for status, _, _ in fused)


def test_loop_bodies_run_once_per_label_over_a_whole_check(monkeypatch):
    # Every Imp while iteration and Asm block jump re-enters an iterate; its
    # body runs once per label (or unit) however many iterations, stores and
    # replays the check makes.
    loops = []  # (module name, {payload: runs}) per iterate built

    def counting_iterate(module):
        def counted(body):
            runs = {}
            loops.append((module.__name__, runs))

            def fn(a):
                key = (a.payload, a.bound)
                runs[key] = runs.get(key, 0) + 1
                return body.fn(a)

            return iterate(KTree(fn, body.dom))

        monkeypatch.setattr(module, "iterate", counted)

    counting_iterate(imp)
    counting_iterate(asm)
    with open(os.path.join(GOLDEN, "corpus", "nested_while.imp"), encoding="utf-8") as fh:
        s = parse_imp(fh.read())
    assert compiler.check_equivalent(s, CFG).proven
    assert [name for name, _ in loops].count(imp.__name__) == 2
    [asm_runs] = [runs for name, runs in loops if name == asm.__name__]
    assert len(asm_runs) > 2
    assert {n for _, runs in loops for n in runs.values()} == {1}


def test_eutt_on_fused_and_layered_trees_agree_under_node_budgets():
    # The fused trees hold each event's padding as one counted run; the
    # layered ones take it one node at a time.  eutt must not tell them apart,
    # even where the node budget runs out.
    rel = compiler.StateInvariantSpec().relspec()
    reasons = set()
    for s, seed in list(_programs())[::3]:
        for mutation in (None, "wrong-default"):
            low = MUTATIONS[mutation] if mutation else compiler._CLEAN
            unit_ = compile_stmt(s, low)
            env0 = initial_stores(CFG, seed)[-1]

            def outcome(run_imp, run_asm, nodes):
                t_imp = run_imp(denote_stmt(s), env0)
                t_asm = run_asm(den_asm(unit_)(label(0, 1)), env0, umap(), low.asm_default)
                v = eutt(rel, t_imp, t_asm, FUEL, FUEL, max_nodes=nodes)
                return v.status, v.reason, v.witness

            for nodes in (60, 333, 2000):
                fused = outcome(interp_imp, interp_asm, nodes)
                assert fused == outcome(layered_interp_imp, layered_interp_asm, nodes)
                reasons.add((fused[0].value, fused[1]))
    assert ("unknown", Reason.NODE_BUDGET) in reasons
    assert {"proven", "refuted"} <= {status for status, _ in reasons}


def test_halt_and_outward_events_cost_the_same_steps():
    # Done sits under the Asm outward prefix; it surfaces with the prefix
    # stripped after the same silent steps in both stacks
    unit_ = asm.parse_asm("asm entries=1 exits=1 internal=0\nblock 0:\n  mov r1, 3\n  halt\n")
    t = den_asm(unit_)(label(0, 1))
    assert _agree(interp_asm(t, umap(), umap()), layered_interp_asm(t, umap(), umap())) is VisO
    out = event(IOE, "Output", nat(1), path=("R",))
    t = bind(set_var("x", nat(2)), lambda _: trigger(out))
    assert _agree(interp_imp(t, env_of()), layered_interp_imp(t, env_of())) is VisO


def _until_event(t):
    """Run to the first head and check it is an event."""
    ob, _ = run_to_head(t, FUEL)
    assert type(ob) is VisO
    return ob


def test_fused_trees_are_persistent():
    # x := 1; n := <outward answer>; k<n> := n; y := x
    def imp_program():
        ask = event(IOE, "Input", path=("R",))
        return bind(set_var("x", nat(1)), lambda _: bind(
            trigger(ask), lambda n: bind(
                set_var(f"k{n.payload}", n), lambda _: bind(
                    get_var("x"), lambda x: set_var("y", x)))))

    t = interp_imp(imp_program(), env_of())
    assert run_to_head(t, FUEL) == run_to_head(t, FUEL)
    ob = _until_event(t)
    for n in (5, 7, 5):
        got = run_to_head(ob.k(nat(n)), FUEL)
        fresh = _until_event(interp_imp(imp_program(), env_of()))
        assert got == run_to_head(fresh.k(nat(n)), FUEL)
        assert got[0] == RetO(pair(env_of({"x": 1, f"k{n}": n, "y": 1}), unit()))

    # Asm: two stores, and the outward prefix two levels deep
    def asm_program():
        ask = event(IOE, "Input", path=("R", "R"))
        return bind(store("a", nat(1)), lambda _: bind(
            trigger(ask), lambda n: bind(
                asm.set_reg(n.payload, n), lambda _: bind(
                    load("a"), lambda a: store("b", a)))))

    ob = _until_event(interp_asm(asm_program(), umap(), umap()))
    assert ob.event == event(IOE, "Input")
    for n in (2, 9, 2):
        got = run_to_head(ob.k(nat(n)), FUEL)
        fresh = _until_event(interp_asm(asm_program(), umap(), umap()))
        assert got == run_to_head(fresh.k(nat(n)), FUEL)
        mem, regs = umap({"a": nat(1), "b": nat(1)}), umap({n: nat(n)})
        assert got[0] == RetO(pair(mem, pair(regs, unit())))


def test_unrouted_events_raise_like_the_layered_stack():
    bare = trigger(event(IOE, "Output", nat(1)))  # classified nowhere in the sum
    stray = trigger(event(IOE, "Output", nat(1), path=("L",)))  # left, not a variable event
    for run in (interp_imp, layered_interp_imp):
        with pytest.raises(UnhandledEvent):
            run_to_head(run(bare, env_of()), FUEL)
        with pytest.raises(ValueError):
            run_to_head(run(stray, env_of()), FUEL)


def test_initial_stores_are_checked():
    with pytest.raises(AnswerTagMismatch):
        interp_imp(denote_stmt(Assign("x", Lit(1))), nat(0))
    with pytest.raises(AnswerTagMismatch):
        interp_asm(den_asm(asm.id_asm())(label(0, 1)), umap(), unit())


def _raises_answer_mismatch_at(make, at):
    """Running ``make()`` reaches every step below ``at`` and raises
    AnswerTagMismatch exactly at ``at``."""
    for fuel in range(at):
        ob, steps = run_to_head(make(), fuel)
        assert (type(ob), steps) == (TauO, fuel)
    with pytest.raises(AnswerTagMismatch, match="answer UValue<true> does not fit nat"):
        run_to_head(make(), at)


# The fold answers store events without an observation per event, but still
# checks every answer against the event's declared shape, at the step the
# layered stack raises.  The steps were measured before the fold stepped
# raw heads.
def test_store_answers_are_checked_at_the_read():
    _raises_answer_mismatch_at(lambda: interp_imp(
        denote_stmt(Assign("y", Var("x"))), umap({"x": boolean(True)})), 3)
    add = asm.parse_asm("asm entries=1 exits=1 internal=0\nblock 0:\n  add r1, r0, 1\n  jmp 0\n")
    _raises_answer_mismatch_at(lambda: interp_asm(
        den_asm(add)(label(0, 1)), umap(), umap({0: boolean(True)})), 3)
    move = asm.parse_asm("asm entries=1 exits=1 internal=0\nblock 0:\n"
                         "  load r0, @x\n  store @y, r0\n  jmp 0\n")
    _raises_answer_mismatch_at(lambda: interp_asm(
        den_asm(move)(label(0, 1)), umap({"x": boolean(True)}), umap()), 5)


def test_a_hand_built_write_of_a_wrong_value_raises_at_the_read():
    # EventInstance and write sites skip event()'s argument checks, so the
    # store takes the boolean; the read of it three events later is what
    # fails, whichever node wrote it
    def program():
        bad = EventInstance(IMP_STATE, "SetVar", (sym("x"), boolean(True)), (LEFT,))
        return bind(trigger(bad), lambda _: bind(get_var("z"), lambda _: get_var("x")))

    def at_site():
        write = Site(IMP_STATE, "SetVar", sym("x"), (LEFT,))
        return write_at(write, bind(get_var("z"), lambda _: get_var("x")))(boolean(True))

    for make in (program, at_site):
        _raises_answer_mismatch_at(lambda: interp_imp(make(), env_of()), 9)


def test_an_answer_shape_a_tag_does_not_decide_is_checked_in_full():
    # a bounded label's tag alone does not decide it, so the fold's tag test
    # hands the answer to VisO.k, which accepts or refuses it
    lbl = EventSig("Lbl", (KindSpec("Get", (SYM_T,), label_t(3)),
                           KindSpec("Set", (SYM_T, label_t(3)), UNIT_T)))
    routes = {((LEFT,), "Get"): (0, label(0, 3)), ((LEFT,), "Set"): (0, None)}
    t = trigger(event(lbl, "Get", sym("x"), path=(LEFT,)))
    store = umap({"x": label(2, 3)})
    got = run_to_head(interp_stores(t, (store,), routes, (RIGHT,)), FUEL)
    assert got == (RetO(pair(store, label(2, 3))), 3)
    with pytest.raises(AnswerTagMismatch):
        run_to_head(interp_stores(t, (umap({"x": label(2, 4)}),), routes, (RIGHT,)), FUEL)


def test_a_site_follows_the_routes_of_each_run():
    # a site caches its route per route table; one denotation run under
    # routes that differ only in the default, back and forth, reads each
    move = asm.parse_asm("asm entries=1 exits=1 internal=0\nblock 0:\n"
                         "  load r0, @x\n  mov r1, r2\n  jmp 0\n")
    t = den_asm(move)(label(0, 1))
    for default in (0, 5, 0, 7, 5):
        regs = umap({0: nat(default), 1: nat(default)})
        assert run_to_head(interp_asm(t, umap(), umap(), default=default), FUEL) == (
            RetO(pair(umap(), pair(regs, label(0, 1)))), 14)


def test_cached_routes_follow_the_route_tables_through_eviction():
    # more route sets than interp keeps tables for, twice round: tables are
    # dropped and rebuilt while the unit's events and sites still cache
    # routes under the dropped ones
    move = asm.parse_asm("asm entries=1 exits=1 internal=0\nblock 0:\n  mov r1, r2\n  jmp 0\n")
    t = den_asm(move)(label(0, 1))
    defaults = range(_route_table.cache_info().maxsize + 6)
    for default in list(defaults) * 2:
        regs = umap({1: nat(default)})
        assert run_to_head(interp_asm(t, umap(), umap(), default=default), FUEL) == (
            RetO(pair(umap(), pair(regs, label(0, 1)))), 6)
    assert _route_table.cache_info().currsize < len(defaults)


def test_runs_with_equal_routes_share_the_cached_routes(monkeypatch):
    # a denotation run again from another store, under the same routes,
    # finds every event's and site's route cached from the first run
    calls = []
    fold = sys.modules["itrees.interp"]  # ``itrees.interp`` is the function
    route = fold._route
    monkeypatch.setattr(fold, "_route", lambda table, x: calls.append(x) or route(table, x))

    def run(source, target, store):
        calls.clear()
        for t in (interp_imp(source, store), interp_asm(target, store, umap())):
            assert type(run_to_head(t, FUEL)[0]) is RetO

    prog = parse_imp("z := x + 2; while z do z := z - 1; y := y + z end")
    source = denote_stmt(prog)
    target = den_asm(compile_stmt(prog))(label(0, 1))
    for store in (umap(), umap({"x": nat(3)})):
        run(source, target, store)
        assert bool(calls) == (store == umap())
    # a literal write's event is built when its program is denoted, and it
    # starts with the route its interned site cached, so a program denoted
    # afresh looks none of its writes up again
    prog = parse_imp("y := 5; z := x + y; while z do z := z - 1 end")
    for store in (umap(), umap({"x": nat(3)})):
        run(denote_stmt(prog), den_asm(compile_stmt(prog))(label(0, 1)), store)
    assert calls == []


def _run(t):
    """The head ``t`` runs to within ``FUEL`` steps, comparable across trees,
    and the steps it took."""
    ob, steps = run_to_head(t, FUEL)
    kind = type(ob)
    seen = ob.value if kind is RetO else ob.event if kind is VisO else ob.run
    return kind, seen, steps


@pytest.mark.parametrize("mutation", [None] + sorted(MUTATIONS))
def test_shared_denotations_are_persistent(mutation):
    # One denotation interpreted under every initial store, in either order,
    # runs exactly like a fresh denotation per store.
    low = MUTATIONS[mutation] if mutation else compiler._CLEAN
    for s, seed in list(_programs())[::3]:
        unit_ = compile_stmt(s, low)
        stores = initial_stores(CFG, seed)
        fresh = [(_run(interp_imp(denote_stmt(s), env0)),
                  _run(interp_asm(den_asm(unit_)(label(0, 1)), env0, umap(), low.asm_default)))
                 for env0 in stores]
        for order in (1, -1):
            source, target = denote_stmt(s), den_asm(unit_)(label(0, 1))
            shared = [(_run(interp_imp(source, env0)),
                       _run(interp_asm(target, env0, umap(), low.asm_default)))
                      for env0 in stores[::order]]
            assert shared[::order] == fresh


# A batch copies a store on its first write to it and writes the copy in
# place after that; the stores a batch was handed must stay as they were,
# because the same batch can run again from them.

def test_an_outward_event_answered_twice_gives_independent_stores():
    # after the answer, one batch writes the same store several times
    def imp_program():
        ask = event(IOE, "Input", path=("R",))
        return bind(set_var("x", nat(1)), lambda _: bind(
            trigger(ask), lambda n: bind(
                set_var("x", n), lambda _: bind(
                    set_var(f"k{n.payload}", n), lambda _: bind(
                        get_var("x"), lambda x: set_var("y", x))))))

    ob = _until_event(interp_imp(imp_program(), env_of({"z": 4})))
    for n in (5, 7, 5):
        got, _ = run_to_head(ob.k(nat(n)), FUEL)
        assert got == RetO(pair(env_of({"x": n, f"k{n}": n, "y": n, "z": 4}), unit()))

    # Asm: both stores written before and after the answer
    def asm_program():
        ask = event(IOE, "Input", path=("R", "R"))
        return bind(store("a", nat(1)), lambda _: bind(
            asm.set_reg(0, nat(1)), lambda _: bind(
                trigger(ask), lambda n: bind(
                    store("a", n), lambda _: bind(
                        asm.set_reg(n.payload, n), lambda _: bind(
                            load("a"), lambda a: store("b", a)))))))

    ob = _until_event(interp_asm(asm_program(), umap(), umap()))
    for n in (2, 9, 2):
        got, _ = run_to_head(ob.k(nat(n)), FUEL)
        mem, regs = umap({"a": nat(n), "b": nat(n)}), umap({0: nat(1), n: nat(n)})
        assert got == RetO(pair(mem, pair(regs, unit())))


class Flaky(BaseException):
    """Not an ``Exception``, so the batch does not defer it: it leaves the
    batch partway and the tree's node is forced again."""


def _flaky_once():
    raised = []

    def bad(_):
        if not raised:
            raised.append(True)
            raise Flaky
        return ret(unit())

    return bad


def test_a_batch_forced_again_after_a_raise_sees_the_stores_it_was_handed():
    # A silent run as long as the cap ends the first batch, which wrote a
    # store; the second is handed that batch's copy, writes, raises partway,
    # and runs again from the stores it was handed.
    def imp_program(bad):
        return bind(set_var("x", nat(1)), lambda _: taus(_BATCH_STEPS, bind(
            get_var("x"), lambda x: bind(
                set_var("x", nat(x.payload + 1)), lambda _: bind(
                    bind(set_var("w", nat(0)), bad), lambda _: bind(
                        get_var("x"), lambda x: set_var("y", x)))))))

    def asm_program(bad):
        return bind(store("a", nat(1)), lambda _: taus(_BATCH_STEPS, bind(
            load("a"), lambda a: bind(
                store("a", nat(a.payload + 1)), lambda _: bind(
                    asm.set_reg(1, a), lambda _: bind(
                        bind(asm.set_reg(2, a), bad), lambda _: bind(
                            load("a"), lambda a: store("b", a))))))))

    t = interp_imp(imp_program(_flaky_once()), env_of())
    with pytest.raises(Flaky):
        run_to_head(t, FUEL)
    got, _ = run_to_head(t, FUEL)
    assert got == RetO(pair(env_of({"x": 2, "w": 0, "y": 2}), unit()))

    t = interp_asm(asm_program(_flaky_once()), umap(), umap())
    with pytest.raises(Flaky):
        run_to_head(t, FUEL)
    got, _ = run_to_head(t, FUEL)
    mem, regs = umap({"a": nat(2), "b": nat(2)}), umap({1: nat(1), 2: nat(1)})
    assert got == RetO(pair(mem, pair(regs, unit())))


# One kind routed on two paths to two stores: the route table is keyed by
# kind, then path, and ``interp_imp`` and ``interp_asm`` never share a kind
# between routes.  The alphabet is ImpState +' (ImpState +' E), the left
# leaf's variables in store 1 and the right leaf's in store 0.
_TWO_PATHS = {
    ((LEFT,), "GetVar"): (1, nat(7)),
    ((LEFT,), "SetVar"): (1, None),
    ((RIGHT, LEFT), "GetVar"): (0, nat(0)),
    ((RIGHT, LEFT), "SetVar"): (0, None),
}
_OUTWARD = (RIGHT, RIGHT)


def _fused_two_paths(t, s0, s1):
    return interp_stores(t, (s0, s1), _TWO_PATHS, _OUTWARD)


def _layered_two_paths(t, s0, s1):
    left = to_map_events(IMP_STATE, "GetVar", "SetVar", map_default_sig(SYM_T, NAT_T, nat(7)))
    right = to_map_events(IMP_STATE, "GetVar", "SetVar", map_default_sig(SYM_T, NAT_T, nat(0)))
    h = handler_bimap(left, handler_bimap(right, handler_id))
    return interp_map(interp_map(interp(h, t), s1), s0)


def _var(kind, path, name, *value, at_site=False):
    """A read, or a write of ``value``, as a hand-built event node, or for
    a write with ``at_site`` as a write built through a ``Site``."""
    if not (at_site and value):
        return trigger(event(IMP_STATE, kind, sym(name), *value, path=path))
    return write_at(Site(IMP_STATE, kind, sym(name), path), ret(unit()))(*value)


# Which of the program's writes, by position, are writes built through a
# ``Site``.
_AT_SITES = {"none": lambda j: False, "all": lambda j: True,
             "even": lambda j: j % 2 == 0, "odd": lambda j: j % 2 == 1}


def _two_path_program(third, at_sites="none"):
    """Writes and reads of ``x`` and ``y`` through both routed paths, then
    one GetVar on the path ``third``, whose answer is written to ``z``.
    The writes ``_AT_SITES[at_sites]`` picks are built through a ``Site``."""
    left, right = (LEFT,), (RIGHT, LEFT)
    pick = _AT_SITES[at_sites]

    def var(j, *args):
        return _var(*args, at_site=pick(j))

    return bind(var(0, "SetVar", left, "x", nat(1)), lambda _: bind(
        var(1, "SetVar", right, "x", nat(2)), lambda _: bind(
            var(2, "GetVar", left, "x"), lambda a: bind(
                var(3, "GetVar", right, "x"), lambda b: bind(
                    var(4, "SetVar", left, "y", nat(a.payload * 10 + b.payload)), lambda _: bind(
                        var(5, "GetVar", right, "y"), lambda c: bind(
                            var(6, "SetVar", right, "y", c), lambda _: bind(
                                var(7, "GetVar", third, "x"), lambda n: bind(
                                    var(8, "SetVar", left, "z", n), lambda _: bind(
                                        var(9, "GetVar", left, "w"), lambda w: ret(w)))))))))))


def test_one_kind_on_two_paths_reaches_two_stores():
    # writes built through a ``Site``, which share its cached route, and
    # hand-built events take the same step of the fold
    s0, s1 = env_of({"v": 5}), env_of({"x": 9})
    layered = _layered_two_paths(_two_path_program(_OUTWARD), s0, s1)
    for at_sites in sorted(_AT_SITES):
        fused = _fused_two_paths(_two_path_program(_OUTWARD, at_sites), s0, s1)
        # the third path lies under the outward prefix: both stacks re-emit
        # the event with the prefix stripped, after the same silent steps
        a, a_steps = run_to_head(fused, FUEL)
        b, b_steps = run_to_head(layered, FUEL)
        assert type(a) is type(b) is VisO and a_steps == b_steps
        assert a.event == b.event == event(IMP_STATE, "GetVar", sym("x"))
        for n in (3, 4):
            got, got_steps = run_to_head(a.k(nat(n)), FUEL)
            want, want_steps = run_to_head(b.k(nat(n)), FUEL)
            assert got_steps == want_steps
            assert got == want == RetO(pair(env_of({"v": 5, "x": 2, "y": 0}), pair(
                env_of({"x": 1, "y": 12, "z": n}), nat(7))))
            assert _node_for_node(a.k(nat(n)), b.k(nat(n)))


def test_one_kind_on_an_unrouted_path_raises_like_the_layered_stack():
    # (RIGHT,) names neither leaf and lies outside the outward prefix
    s0, s1 = env_of(), env_of()
    layered_at, layered_err = _least_raising_fuel(
        _layered_two_paths(_two_path_program((RIGHT,)), s0, s1), 100)
    assert issubclass(layered_err, UnhandledEvent)
    for at_sites in sorted(_AT_SITES):
        at, err = _least_raising_fuel(
            _fused_two_paths(_two_path_program((RIGHT,), at_sites), s0, s1), 100)
        # the layered renaming fold spends its own silent step before it fails
        assert layered_at == at + 1 and issubclass(err, UnhandledEvent)


def test_a_site_whose_route_reads_where_it_writes_has_no_route():
    # event nodes, hand-built with trigger, and writes built through a
    # ``Site`` alike: a read's one argument does not fit a write route, nor
    # a write's two a read's
    routes = {((LEFT,), "GetVar"): (0, None), ((LEFT,), "SetVar"): (0, nat(0))}
    for kind, value, at_site in (("GetVar", (), False), ("SetVar", (nat(1),), False),
                                 ("SetVar", (nat(1),), True)):
        t = _var(kind, (LEFT,), "x", *value, at_site=at_site)
        with pytest.raises(UnhandledEvent, match=f"L:{kind}"):
            run_to_head(interp_stores(t, (env_of(),), routes, (RIGHT,)), FUEL)


def test_an_event_whose_arguments_do_not_fit_its_route_raises_at_its_step():
    # EventInstance skips event()'s arity check; a GetVar without its key
    # has no route, so it raises at its own step, the layered stack's
    # renaming fold spending one more first, as for any unrouted event
    def make(run):
        bad = EventInstance(IMP_STATE, "GetVar", (), (LEFT,))
        return run(taus(5, trigger(bad)), env_of())

    for fuel in range(5):
        ob, steps = run_to_head(make(interp_imp), fuel)
        assert (type(ob), steps) == (TauO, fuel)
    for fuel in (5, 6, FUEL):
        with pytest.raises(UnhandledEvent):
            run_to_head(make(interp_imp), fuel)
    assert _least_raising_fuel(make(layered_interp_imp), 100)[0] == 6


def test_an_event_whose_key_is_not_a_value_raises_at_its_step():
    # a hand-built GetVar keyed by a raw string has no route, so it raises
    # UnhandledEvent at its own step, naming the event; the layered stack's
    # renaming fold spends one more step and then refuses the key
    def make(run):
        bad = EventInstance(IMP_STATE, "GetVar", ("x",), (LEFT,))
        return run(taus(5, trigger(bad)), env_of())

    for fuel in range(5):
        ob, steps = run_to_head(make(interp_imp), fuel)
        assert (type(ob), steps) == (TauO, fuel)
    for fuel in (5, 6, FUEL):
        with pytest.raises(UnhandledEvent, match=r"L:GetVar\('x'\)"):
            run_to_head(make(interp_imp), fuel)
    at, err = _least_raising_fuel(make(layered_interp_imp), 100)
    assert at == 6 and issubclass(err, AnswerTagMismatch)


# A move, a read whose answer is written unchanged, hands its read a
# ``Write``, and a computed write continues its first read with a
# ``Compute`` that ends in one; the fold answers the reads and the write in
# place and builds no event node for the write of either.

def _count_write_nodes(monkeypatch):
    # a write's event node is built only by calling its ``Write``
    built = []
    call = core.Write.__call__

    def counting(self, v):
        built.append(self.site)
        return call(self, v)

    monkeypatch.setattr(core.Write, "__call__", counting)
    return built


def test_moves_build_no_write_node(monkeypatch):
    runs = {}
    for n in (50, 51):
        prog = parse_imp(f"c := {n}; x := 1; while c do x := x + c; c := c - 1 end")
        entry = den_asm(compile_stmt(prog))(label(0, 1))
        # blocks are denoted on first entry, building the writes' event
        # nodes of immediate moves then, so a first run leaves only the
        # run's own
        run_to_head(interp_asm(entry, env_of(), umap()), 10 ** 6)
        with monkeypatch.context() as patch:
            built = _count_write_nodes(patch)
            ob, _ = run_to_head(interp_asm(entry, env_of(), umap()), 10 ** 6)
        assert type(ob) is RetO
        runs[n] = len(built)
    # none per iteration: the ``add`` and the ``sub`` are computed in place
    assert runs[51] == runs[50] == 0
    built = _count_write_nodes(monkeypatch)
    for src, env0, env in (("y := x; z := y", {"x": 4}, {"x": 4, "y": 4, "z": 4}),
                           ("y := x + 1; z := y * y - x", {"x": 4}, {"x": 4, "y": 5, "z": 21}),
                           ("while c - 1 do c := c - 1 end", {"c": 5}, {"c": 1})):
        got, _ = run_to_head(interp_imp(denote_stmt(parse_imp(src)), env_of(env0)), FUEL)
        assert got == RetO(pair(env_of(env), unit()))
    assert built == []


def test_an_observed_move_still_writes_its_answer():
    # observing the uninterpreted denotation calls the ``Write``, which
    # builds the write's event node
    t = asm.denote_instr(asm.Iload(0, "x"))
    ob = observe(t)
    assert type(ob) is VisO and ob.event == event(asm.MEM_E, "Load", sym("x"), path=(RIGHT, LEFT))
    after = observe(ob.k(nat(5)))
    assert type(after) is VisO and after.event == event(
        asm.REG_E, "SetReg", nat(0), nat(5), path=(LEFT,))
    assert observe(after.k(unit())) == RetO(unit())


def test_an_observed_computed_write_still_writes_its_value():
    # the ``Compute`` builds the second read's node and then the write's
    t = denote_stmt(parse_imp("x := x + y"))
    ob = observe(t)
    assert type(ob) is VisO and ob.event == event(IMP_STATE, "GetVar", sym("x"), path=(LEFT,))
    second = observe(ob.k(nat(4)))
    assert type(second) is VisO and second.event == event(
        IMP_STATE, "GetVar", sym("y"), path=(LEFT,))
    after = observe(second.k(nat(3)))
    assert type(after) is VisO and after.event == event(
        IMP_STATE, "SetVar", sym("x"), nat(7), path=(LEFT,))
    assert observe(after.k(unit())) == RetO(unit())
    ob = observe(denote_stmt(parse_imp("x := x + 1")))
    after = observe(ob.k(nat(4)))
    assert type(after) is VisO and after.event == event(
        IMP_STATE, "SetVar", sym("x"), nat(5), path=(LEFT,))


def test_a_move_across_a_batch_boundary_matches_layered():
    # the read's three steps bring the batch to the cap, so the write's
    # event node is built and the next batch writes it
    move = denote_stmt(Assign("y", Var("x")))
    assert _BATCH_STEPS - 3 == 253
    env0 = env_of({"x": 6})
    for fuel in range(250, 263):
        a, a_steps = run_to_head(interp_imp(taus(_BATCH_STEPS - 3, move), env0), fuel)
        b, b_steps = run_to_head(layered_interp_imp(taus(_BATCH_STEPS - 3, move), env0), fuel)
        assert (type(a), a_steps) == (type(b), b_steps)
    a, _ = run_to_head(interp_imp(taus(_BATCH_STEPS - 3, move), env0), FUEL)
    b, _ = run_to_head(layered_interp_imp(taus(_BATCH_STEPS - 3, move), env0), FUEL)
    assert a == b == RetO(pair(env_of({"x": 6, "y": 6}), unit()))


def test_a_move_whose_write_is_unrouted_raises_like_the_layered_stack():
    # the read is routed (three steps), its ``Write`` site lies on (RIGHT,),
    # which names neither leaf and lies outside the outward prefix
    def program():
        read = event(IMP_STATE, "GetVar", sym("x"), path=(LEFT,))
        stray = Site(IMP_STATE, "SetVar", sym("z"), (RIGHT,))
        return taus(5, vis(read, write_at(stray, ret(unit()))))

    s0, s1 = env_of(), env_of()
    at, err = _least_raising_fuel(_fused_two_paths(program(), s0, s1), 100)
    assert at == 5 + 3 and issubclass(err, UnhandledEvent)
    layered_at, layered_err = _least_raising_fuel(_layered_two_paths(program(), s0, s1), 100)
    assert layered_at == at + 1 and issubclass(layered_err, UnhandledEvent)


def test_a_computed_write_across_a_batch_boundary_matches_layered():
    # three steps per read and three for the write: with ``lead`` silent
    # steps before it, the first read, the second or the write brings the
    # batch to the cap, or none does
    add = denote_stmt(parse_imp("x := x + y"))
    env0 = env_of({"x": 6, "y": 5})
    for lead in range(_BATCH_STEPS - 10, _BATCH_STEPS):
        # the first batch ends after the read or write that reaches the cap
        ends = (lead, lead + 3, lead + 6, lead + 9)
        first = next((n for n in ends if n >= _BATCH_STEPS), lead + 9)
        assert observe(interp_imp(taus(lead, add), env0)).run == first
        for fuel in range(_BATCH_STEPS - 12, _BATCH_STEPS + 10):
            a, a_steps = run_to_head(interp_imp(taus(lead, add), env0), fuel)
            b, b_steps = run_to_head(layered_interp_imp(taus(lead, add), env0), fuel)
            assert (type(a), a_steps) == (type(b), b_steps)
        a, _ = run_to_head(interp_imp(taus(lead, add), env0), FUEL)
        b, _ = run_to_head(layered_interp_imp(taus(lead, add), env0), FUEL)
        assert a == b == RetO(pair(env_of({"x": 11, "y": 5}), unit()))


def test_a_wrong_answer_to_a_second_read_raises_like_the_layered_stack():
    env0 = umap({"x": nat(1), "y": boolean(True)})
    for lead in (1, _BATCH_STEPS - 5, _BATCH_STEPS - 3):
        def make(run):
            return run(taus(lead, denote_stmt(parse_imp("z := x + y"))), env0)

        at, err = _least_raising_fuel(make(interp_imp), lead + 100)
        assert at == lead + 6 and issubclass(err, AnswerTagMismatch)
        assert _least_raising_fuel(make(layered_interp_imp), lead + 100) == (at, err)


def test_a_computed_write_whose_second_read_is_unrouted_raises_like_the_layered_stack():
    # the first read is routed (three steps), the second lies on (RIGHT,),
    # which names neither leaf and lies outside the outward prefix
    def program():
        first = event(IMP_STATE, "GetVar", sym("x"), path=(LEFT,))
        stray = event(IMP_STATE, "GetVar", sym("y"), path=(RIGHT,))
        write = write_at(Site(IMP_STATE, "SetVar", sym("z"), (LEFT,)), ret(unit()))
        return taus(5, vis(first, core.Compute((stray,), lambda p: p[0] + p[1], write)))

    s0, s1 = env_of(), env_of()
    at, err = _least_raising_fuel(_fused_two_paths(program(), s0, s1), 100)
    assert at == 5 + 3 and issubclass(err, UnhandledEvent)
    # the layered stack's renaming fold spends its own step before it fails
    layered_at, layered_err = _least_raising_fuel(_layered_two_paths(program(), s0, s1), 100)
    assert layered_at == at + 1 and issubclass(layered_err, UnhandledEvent)


def test_a_compute_that_raises_raises_like_the_layered_stack():
    # the value or the branch raises once both reads are answered
    def program(fn, then):
        reads = (imp._get_var_event("x"), imp._get_var_event("y"))
        return taus(5, vis(reads[0], core.Compute(reads[1:], fn, then)))

    write = write_at(imp._set_var_site("z"), ret(unit()))
    for fn, then in ((_boom, write), (lambda p: p[0] + p[1], _boom)):
        at, err = _least_raising_fuel(interp_imp(program(fn, then), env_of()), 100)
        assert at == 5 + 6 and issubclass(err, Boom)
        assert _least_raising_fuel(layered_interp_imp(program(fn, then), env_of()), 100) == (
            at, err)


def test_a_computed_write_reads_an_absent_register_as_the_default():
    # ``wrong-default`` reads absent registers as 1
    add = asm.parse_asm("asm entries=1 exits=1 internal=0\nblock 0:\n"
                        "  add r0, r0, r1\n  jmp 0\n")
    default = compiler.MUTATIONS["wrong-default"].asm_default
    assert default == 1
    for run in (interp_asm, layered_interp_asm):
        got, _ = run_to_head(run(den_asm(add)(label(0, 1)), umap(), umap({0: nat(5)}),
                                 default=default), FUEL)
        assert type(got) is RetO and fst(snd(got.value)) == umap({0: nat(6)})


def test_a_return_over_a_store_whose_keys_mix_str_and_int():
    # a register and a memory cell routed to one store: the returned map
    # orders int keys before str keys
    routes = {((LEFT,), "SetReg"): (0, None), ((RIGHT, LEFT), "Store"): (0, None)}
    t = bind(asm.set_reg(1, nat(7)), lambda _: store("x", nat(8)))
    got = run_to_head(interp_stores(t, (umap(),), routes, (RIGHT, RIGHT)), 100)
    assert got == (RetO(pair(umap({"x": nat(8), 1: nat(7)}), unit())), 3 + 4)
    assert map_items(fst(got[0].value)) == ((1, nat(7)), ("x", nat(8)))
