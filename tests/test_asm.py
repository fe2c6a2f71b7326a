"""Asm denotation, linking combinators, text format, and the machine oracle."""

import random

import pytest

from itrees import (
    EQ,
    KTree,
    RelSpec,
    RetO,
    VisO,
    bind,
    eutt,
    kt_bimap,
    kt_cat,
    kt_pure,
    ktree_equiv,
    label,
    label_t,
    loop,
    merge_fin,
    nat,
    pair,
    ret,
    run_to_head,
    split_fin,
    umap,
    un_sum,
    unit,
)
from itrees.asm import (
    AsmSyntaxError,
    AsmUnit,
    Bbrz,
    Bhalt,
    Bjmp,
    Block,
    BoundViolation,
    Iload,
    Imov,
    Istore,
    Isub,
    Oimm,
    Oreg,
    TMP_IF,
    app_asm,
    den_asm,
    denote_br,
    denote_instr,
    get_reg,
    if_asm,
    interp_asm,
    loop_asm,
    parse_asm,
    print_asm,
    pure_asm,
    relabel_asm,
    seq_asm,
    while_asm,
)
from itrees.compiler import compile_stmt
from itrees.imp import parse_imp

from bigstep import run_machine
from helpers import gen_asm_unit

# Uninterpreted denotations branch over every probed answer at every
# register read, so law checks use a two-value probe set to stay small.
LAW_BUDGET = dict(tau_budget=1000, depth=1000, nat_probes=(0, 1))


def _interp_run(unit, entry=0, mem=None, regs=None, fuel=200_000):
    t = interp_asm(den_asm(unit)(label(entry, unit.entries)),
                   mem if mem is not None else umap(),
                   regs if regs is not None else umap())
    return run_to_head(t, fuel)


def test_denote_br_jmp():
    ob, _ = run_to_head(denote_br(Bjmp(2), 4), 5)
    assert ob == RetO(label(2, 4))


def test_denote_br_brz_polarity():
    # yes-branch fires when the register reads zero
    t = denote_br(Bbrz(1, 2, 3), 4)
    ob = run_to_head(t, 5)[0]
    assert type(ob) is VisO and ob.event.kind == "GetReg"
    assert run_to_head(ob.k(nat(0)), 5)[0] == RetO(label(2, 4))
    ob = run_to_head(t, 5)[0]
    assert run_to_head(ob.k(nat(7)), 5)[0] == RetO(label(3, 4))


def test_denote_instr_mov_then_getreg():
    prog = bind(denote_instr(Imov(0, Oimm(5))), lambda _: get_reg(0))
    ob, _ = run_to_head(interp_asm(prog, umap(), umap()), 50)
    assert ob == RetO(pair(umap(), pair(umap({0: nat(5)}), nat(5))))


def test_interp_asm_examples():
    ob, _ = run_to_head(interp_asm(get_reg(0), umap(), umap()), 50)
    assert ob == RetO(pair(umap(), pair(umap(), nat(0))))

    from itrees.asm import set_reg

    t = bind(set_reg(1, nat(7)), lambda _: get_reg(1))
    ob, _ = run_to_head(interp_asm(t, umap(), umap()), 50)
    assert ob == RetO(pair(umap(), pair(umap({1: nat(7)}), nat(7))))

    from itrees.asm import load, store

    t = bind(store("x", nat(9)), lambda _: load("x"))
    ob, _ = run_to_head(interp_asm(t, umap(), umap()), 50)
    assert ob == RetO(pair(umap({"x": nat(9)}), pair(umap(), nat(9))))


def test_den_asm_single_jump_block():
    u = pure_asm(1, 1, lambda a: 0)
    assert ktree_equiv(EQ, den_asm(u), kt_pure(lambda v: label(0, 1), dom=label_t(1)),
                       **LAW_BUDGET).proven


def test_halt_surfaces_done():
    u = AsmUnit(1, 1, 0, (Block((), Bhalt()),))
    ob, _ = _interp_run(u)
    assert type(ob) is VisO and ob.event.kind == "Done"


def test_unit_validation():
    with pytest.raises(BoundViolation):
        AsmUnit(1, 1, 0, (Block((), Bjmp(1)),))  # target 1 >= internal+exits
    with pytest.raises(BoundViolation):
        AsmUnit(1, 1, 1, (Block((), Bjmp(0)),))  # table too small


def test_print_parse_round_trip_on_compile_output():
    unit = compile_stmt(parse_imp("x := 1; while x do x := x - 1 end"))
    text = print_asm(unit)
    assert parse_asm(text) == unit
    assert print_asm(parse_asm(text)) == text


def test_print_parse_round_trip_random():
    rng = random.Random(60)
    for _ in range(40):
        u = gen_asm_unit(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3))
        assert parse_asm(print_asm(u)) == u


def test_parse_asm_errors():
    with pytest.raises(AsmSyntaxError):
        parse_asm("nonsense")
    with pytest.raises(AsmSyntaxError):
        parse_asm("asm entries=1 exits=1 internal=0\nblock 0:\n  mov r0 5\n  jmp 0")
    with pytest.raises(BoundViolation):
        parse_asm("asm entries=1 exits=1 internal=0\nblock 0:\n  jmp 3")
    head = "asm entries=1 exits=1 internal=0\nblock 0:\n"
    assert parse_asm(head + "  mov r0, 18446744073709551615\n  jmp 0").code[0].instrs == (
        Imov(0, Oimm(2**64 - 1)),)
    with pytest.raises(AsmSyntaxError) as err:
        parse_asm(head + "  mov r0, 1\n  add r0, r0, 18446744073709551616\n  jmp 0")
    assert err.value.line == 4


def test_machine_oracle_agrees_with_denotation():
    rng = random.Random(61)
    for _ in range(60):
        u = gen_asm_unit(rng, rng.randint(1, 2), rng.randint(1, 2), rng.randint(0, 3))
        for entry in range(u.entries):
            ref = run_machine(u, entry, {}, {})
            ob, _ = _interp_run(u, entry)
            if ref.outcome == "halt":
                assert type(ob) is VisO and ob.event.kind == "Done"
                continue
            assert ref.outcome == "exit"
            assert type(ob) is RetO
            mem, rest = ob.value.payload
            regs, exit_label = rest.payload
            assert exit_label == label(ref.exit_label, u.exits)
            assert mem == umap({k: nat(v) for k, v in ref.mem.items()})
            assert regs == umap({k: nat(v) for k, v in ref.regs.items()})


# Denotation-commutation equations, stated through the explicit conversions
# between flat label spaces and sum-encoded ports.

def test_app_asm_denotes_bimap():
    rng = random.Random(62)
    for _ in range(20):
        u1 = gen_asm_unit(rng, rng.randint(1, 2), rng.randint(1, 2),
                          rng.randint(0, 2), max_instrs=1)
        u2 = gen_asm_unit(rng, rng.randint(1, 2), rng.randint(1, 2),
                          rng.randint(0, 2), max_instrs=1)
        lhs = den_asm(app_asm(u1, u2))
        rhs = kt_cat(
            split_fin(u1.entries, u2.entries),
            kt_cat(kt_bimap(den_asm(u1), den_asm(u2)),
                   merge_fin(u1.exits, u2.exits)),
        )
        rhs = KTree(rhs.fn, label_t(u1.entries + u2.entries))
        assert ktree_equiv(EQ, lhs, rhs, **LAW_BUDGET).proven


def test_pure_asm_denotes_pure():
    rng = random.Random(63)
    for _ in range(20):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        table = [rng.randrange(b) for _ in range(a)]
        lhs = den_asm(pure_asm(a, b, lambda i: table[i]))
        rhs = kt_pure(lambda v: label(table[v.payload], b), dom=label_t(a))
        assert ktree_equiv(EQ, lhs, rhs, **LAW_BUDGET).proven


def test_relabel_asm_denotes_pure_sandwich():
    rng = random.Random(64)
    for _ in range(20):
        u = gen_asm_unit(rng, rng.randint(1, 3), rng.randint(1, 3),
                         rng.randint(0, 2), max_instrs=1)
        a = rng.randint(1, 3)
        d = u.exits + rng.randint(0, 2)
        entry_map = tuple(rng.randrange(u.entries) for _ in range(a))
        exit_map = tuple(rng.randrange(d) for _ in range(u.exits))
        lhs = den_asm(relabel_asm(entry_map, exit_map, u, d))
        rhs = kt_cat(
            kt_pure(lambda v: label(entry_map[v.payload], u.entries)),
            kt_cat(den_asm(u), kt_pure(lambda v: label(exit_map[v.payload], d))),
        )
        rhs = KTree(rhs.fn, label_t(a))
        assert ktree_equiv(EQ, lhs, rhs, **LAW_BUDGET).proven


def test_loop_asm_denotes_loop():
    rng = random.Random(65)
    for _ in range(20):
        wires = rng.randint(1, 2)
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        u = gen_asm_unit(rng, wires + a, wires + b, rng.randint(0, 2),
                         max_instrs=1, loop_ports=wires)
        lhs = den_asm(loop_asm(u, wires))
        body = kt_cat(merge_fin(wires, a),
                      kt_cat(den_asm(u), split_fin(wires, b)))
        rhs = KTree(loop(body).fn, label_t(a))
        assert ktree_equiv(EQ, lhs, rhs, **LAW_BUDGET).proven


def test_seq_asm_correct():
    rng = random.Random(66)
    for _ in range(20):
        mid = rng.randint(1, 2)
        u1 = gen_asm_unit(rng, rng.randint(1, 2), mid, rng.randint(0, 2),
                          max_instrs=1)
        u2 = gen_asm_unit(rng, mid, rng.randint(1, 2), rng.randint(0, 2),
                          max_instrs=1)
        lhs = den_asm(seq_asm(u1, u2))
        rhs = KTree(kt_cat(den_asm(u1), den_asm(u2)).fn, label_t(u1.entries))
        assert ktree_equiv(EQ, lhs, rhs, **LAW_BUDGET).proven


def _guard(rng, value):
    """Random scratch work, then force the test register to ``value``."""
    instrs = [Imov(rng.randint(1, 3), Oimm(rng.randint(0, 5)))
              for _ in range(rng.randint(0, 2))]
    instrs.append(Imov(TMP_IF, Oimm(value)))
    return instrs


def _while_rhs(e, p):
    """The loop-with-label-case form the while combinator must denote: enter
    on the right port, test after running the guard code, exit on zero."""
    from itrees import inl, inr

    den_p = den_asm(p)

    def guard_tree():
        t = ret(unit())
        for i in reversed(e):
            t = bind(denote_instr(i), lambda _, _rest=t: _rest)
        return t

    def body(l):
        is_left, _ = un_sum(l)
        if is_left:
            return bind(
                guard_tree(),
                lambda _: bind(
                    get_reg(TMP_IF),
                    lambda v: ret(inr(label(0, 1)))
                    if v.payload == 0
                    else bind(den_p(label(0, 1)), lambda _: ret(inl(label(0, 1)))),
                ),
            )
        return ret(inl(label(0, 1)))

    return KTree(loop(KTree(body)).fn, label_t(1))


def _counting_while(rng):
    """A while instance that terminates from any store: guard loads the
    counter, body decrements it (plus random scratch work)."""
    e = [Iload(TMP_IF, "c")]
    scratch = gen_asm_unit(rng, 1, 1, rng.randint(0, 1), max_instrs=1)
    dec = AsmUnit(1, 1, 0, (Block(
        (Iload(1, "c"), Isub(1, 1, Oimm(1)), Istore("c", Oreg(1))),
        Bjmp(0),
    ),))
    return e, seq_asm(scratch, dec)


def test_while_asm_never_refuted_uninterpreted():
    # the unrolling is infinite along always-nonzero answers, so the
    # uninterpreted check can only close finitely many paths: a correct
    # wiring is Unknown-or-better, a miswiring refutes within one round
    rng = random.Random(67)
    for _ in range(10):
        e, p = _counting_while(rng)
        verdict = ktree_equiv(EQ, den_asm(while_asm(e, p)), _while_rhs(e, p),
                              tau_budget=150, depth=150, nat_probes=(0, 1),
                              max_nodes=30_000)
        assert not verdict.refuted


def test_while_asm_matches_loop_with_label_case_interpreted():
    rng = random.Random(70)
    for _ in range(10):
        e, p = _counting_while(rng)
        lhs = den_asm(while_asm(e, p))
        rhs = _while_rhs(e, p)
        for c0 in (0, 1, 3):
            mem = umap({"c": nat(c0)})
            got = eutt(
                EQ,
                interp_asm(lhs(label(0, 1)), mem, umap()),
                interp_asm(rhs(label(0, 1)), mem, umap()),
                5000,
                10_000,
            )
            assert got.proven


def test_if_asm_constant_true_runs_then_branch():
    rng = random.Random(68)
    ignore_regs = RelSpec(
        "mem+label",
        lambda a, b: a.payload[0] == b.payload[0]
        and a.payload[1].payload[1] == b.payload[1].payload[1],
    )
    for _ in range(10):
        t_branch = gen_asm_unit(rng, 1, 2, rng.randint(0, 2), max_instrs=2)
        f_branch = gen_asm_unit(rng, 1, 2, rng.randint(0, 2), max_instrs=2)
        guard = _guard(rng, 1)
        # the branch sees whatever the guard left in the register file
        regs_after = umap({i.dst: nat(i.src.value) for i in guard})
        unit_if = if_asm(guard, t_branch, f_branch)
        lhs = interp_asm(den_asm(unit_if)(label(0, 1)), umap(), umap())
        rhs = interp_asm(den_asm(t_branch)(label(0, 1)), umap(), regs_after)
        assert eutt(ignore_regs, lhs, rhs, 2000, 4000).proven


def test_combinators_preserve_well_formedness():
    rng = random.Random(69)
    for _ in range(30):
        u1 = gen_asm_unit(rng, 2, 2, rng.randint(0, 2))
        u2 = gen_asm_unit(rng, 2, 2, rng.randint(0, 2))
        # constructors validate in __post_init__; reaching here means ok
        app_asm(u1, u2)
        seq_asm(u1, u2)
        loop_asm(u1, 1)
        relabel_asm((1, 0), (0, 1), u1, 2)
        if_asm([Imov(0, Oimm(1))], relabel_asm((0,), (0, 1), u1, 2),
               relabel_asm((0,), (0, 1), u2, 2))


def test_compiled_while_runs_to_exit():
    unit = compile_stmt(parse_imp("x := 3; while x do x := x - 1 end"))
    ob, _ = _interp_run(unit)
    assert type(ob) is RetO
    mem = ob.value.payload[0]
    assert mem == umap({"x": nat(0)})
