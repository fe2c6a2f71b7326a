"""The fused store-passing interpreters against the layered specification.

``interp_imp`` and ``interp_asm`` run as one ``interp_stores`` pass; the
layered stacks in ``helpers`` compose the renaming ``interp`` with one
``interp_map`` per store.  They must agree up to silent steps and, because
the CLI goldens and checker witnesses count steps, exactly step for step.
"""

import pytest

from itrees import (
    EQ,
    IOE,
    AnswerTagMismatch,
    RetO,
    TauO,
    UnhandledEvent,
    VisO,
    bind,
    eutt,
    event,
    pair,
    run_to_head,
    trigger,
)
from itrees import asm, compiler
from itrees.asm import den_asm, interp_asm, load, store
from itrees.compiler import MUTATIONS, SimConfig, compile_stmt, gen_program, initial_stores
from itrees.imp import Assign, Lit, denote_stmt, env_of, get_var, interp_imp, set_var
from itrees.values import label, nat, umap, unit

from helpers import layered_interp_asm, layered_interp_imp

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
