"""Asm denotation, linking combinators, text format, and the machine oracle."""

import random

import pytest

from itrees import (
    EQ,
    KTree,
    RelSpec,
    Reason,
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
    strong_bisim,
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
    Iadd,
    Iload,
    Imov,
    Istore,
    Isub,
    Oimm,
    Oreg,
    TMP_IF,
    app_asm,
    chain_asm,
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
from itrees import asm, compiler
from itrees.stores import INTERNED
from itrees.values import AnswerTagMismatch
from itrees.compiler import MUTATIONS, SimConfig, compile_stmt, gen_program, initial_stores
from itrees.imp import parse_imp

from bigstep import run_machine
from helpers import den_asm_by_loop, gen_asm_unit, gen_instr

# Uninterpreted denotations branch over every probed answer at every
# register read, so law checks use a two-value probe set to stay small.
LAW_BUDGET = dict(tau_budget=1000, depth=1000, nat_probes=(0, 1))


def _interp_run(unit, entry=0, mem=None, regs=None, fuel=200_000):
    t = interp_asm(den_asm(unit)(label(entry, unit.entries)),
                   mem if mem is not None else umap(),
                   regs if regs is not None else umap())
    return run_to_head(t, fuel)


LABELS = tuple(ret(label(l, 4)) for l in range(4))  # jump to l returns label l


def test_denote_br_jmp():
    ob, _ = run_to_head(denote_br(Bjmp(2), LABELS), 5)
    assert ob == RetO(label(2, 4))


def test_denote_br_brz_polarity():
    # yes-branch fires when the register reads zero
    t = denote_br(Bbrz(1, 2, 3), LABELS)
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
    with pytest.raises(BoundViolation, match="negative label counts"):
        AsmUnit(-1, 1, 0, ())


@pytest.mark.parametrize("entry_map, exit_map, message", [
    ((0,), (0,), "exit map must cover every exit"),
    ((0,), (0, 2), "exit map escapes the new exit bound"),
    ((1,), (0, 1), "entry map references entry 1"),
])
def test_relabel_asm_rejects_maps_out_of_bounds(entry_map, exit_map, message):
    u = AsmUnit(1, 2, 0, (Block((), Bjmp(1)),))
    with pytest.raises(BoundViolation, match=message):
        relabel_asm(entry_map, exit_map, u, 2)


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
    # digits int() cannot parse (superscripts) are syntax errors, not crashes
    for body in ("  mov r0, \u00b2\n  jmp 0", "  jmp \u00b2", "  brz r0 -> \u00b2, 0"):
        with pytest.raises(AsmSyntaxError) as err:
            parse_asm(head + body)
        assert err.value.line == 3


@pytest.mark.parametrize("text, line, message", [
    ("", 1, "empty input"),
    ("asm entries=1 exits=1 internal=0\nblock 1:\n  jmp 0", 2, "expected 'block 0:'"),
    ("asm entries=1 exits=1 internal=0\n  jmp 0\nblock 0:\n  jmp 0", 2,
     "instruction outside any block"),
    ("asm entries=1 exits=1 internal=0\nblock 0:\n  mov 5, 1\n  jmp 0", 3,
     "expected a register, found '5'"),
])
def test_parse_asm_rejects_malformed_units(text, line, message):
    with pytest.raises(AsmSyntaxError, match=message) as err:
        parse_asm(text)
    assert err.value.line == line


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


# ``den_asm`` iterates on block labels; the paper's ``loop`` over the block
# table, ``helpers.den_asm_by_loop``, is its specification, node for node.

def _head(t, fuel):
    ob, steps = run_to_head(t, fuel)
    kind = type(ob)
    return kind, ob.value if kind is RetO else ob.event if kind is VisO else None, steps


def _same_as_loop_form(t, ref, depth, nat_probes=(0, 1)):
    """Strongly bisimilar to the reference, with the same head after the same
    number of steps.  Proven when the runs finish within ``depth`` steps."""
    v = strong_bisim(t, ref, depth, nat_probes)
    assert not v.refuted, v.witness
    assert v.proven or v.reason is Reason.DEPTH_BUDGET
    assert _head(t, depth) == _head(ref, depth)
    return v.proven


@pytest.mark.parametrize("mutation", [None] + sorted(MUTATIONS))
def test_den_asm_matches_the_loop_form_on_compiled_units(mutation):
    low = MUTATIONS[mutation] if mutation else compiler._CLEAN
    proven = []
    for size in (8, 20, 40):
        for mode in ("bounded", "free"):
            for seed in range(5):
                u = compile_stmt(gen_program(size, mode, seed), low)
                t, ref = den_asm(u)(label(0, 1)), den_asm_by_loop(u)(label(0, 1))
                for mem0 in initial_stores(SimConfig(), seed):
                    proven.append(_same_as_loop_form(
                        interp_asm(t, mem0, umap(), low.asm_default),
                        interp_asm(ref, mem0, umap(), low.asm_default), 2000))
    assert proven.count(True) > len(proven) // 2


def test_den_asm_matches_the_loop_form_on_random_units():
    rng = random.Random(68)
    for _ in range(150):
        entries, exits = rng.randint(1, 3), rng.randint(1, 3)
        wires = rng.randint(0, min(entries, exits) - 1)
        u = gen_asm_unit(rng, entries, exits, rng.randint(0, 4),
                         max_instrs=2, loop_ports=wires)
        if wires:
            u = loop_asm(u, wires)
        t, ref = den_asm(u), den_asm_by_loop(u)
        for a in range(u.entries):
            assert _same_as_loop_form(t(label(a, u.entries)), ref(label(a, u.entries)), 1000)


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


def _seq_by_wiring(u1, u2):
    """Sequencing as wiring: place the units side by side, move ``u2``'s
    entries first, then loop ``u1``'s exits back into them."""
    b = u1.exits
    app = app_asm(u1, u2)
    entry_map = tuple(range(u1.entries, u1.entries + b)) + tuple(range(u1.entries))
    return loop_asm(relabel_asm(entry_map, tuple(range(app.exits)), app, app.exits), b)


def test_chain_asm_is_seq_by_wiring_folded_from_the_right():
    rng = random.Random(67)
    for _ in range(60):
        ports = [rng.randint(1, 3) for _ in range(rng.randint(3, 7))]
        units = [gen_asm_unit(rng, a, b, rng.randint(0, 3), max_instrs=1)
                 for a, b in zip(ports, ports[1:])]
        folded = units[-1]
        for u in reversed(units[:-1]):
            folded = _seq_by_wiring(u, folded)
        assert chain_asm(units) == folded
        assert seq_asm(units[0], units[1]) == _seq_by_wiring(units[0], units[1])
    u = gen_asm_unit(rng, 1, 2, 1)
    assert chain_asm([u]) == u
    with pytest.raises(BoundViolation):
        chain_asm([u, gen_asm_unit(rng, 1, 1, 0)])


def _if_by_wiring(e, t, f):
    """``if`` as wiring: a guard block leaving by exit 0 when the test
    register is nonzero and by exit 1 when it is zero, sequenced into both
    arms side by side, their exits merged."""
    a = t.exits
    guard = AsmUnit(1, 2, 0, (Block(tuple(e), Bbrz(TMP_IF, 1, 0)),))
    return seq_asm(guard, relabel_asm((0, 1), tuple(range(a)) * 2, app_asm(t, f), a))


def _while_by_wiring(e, p):
    """``while`` as wiring: an ``if`` of the body and a jump to exit 1,
    beside a jump to exit 0, with exit 0 looped back into the guard."""
    body = _if_by_wiring(e, relabel_asm((0,), (0,), p, 2), pure_asm(1, 2, lambda _: 1))
    both = app_asm(body, pure_asm(1, 2, lambda _: 0))
    return loop_asm(relabel_asm((0, 1), (0, 1, 0, 1), both, 2), 1)


def test_if_and_while_asm_are_their_wiring():
    rng = random.Random(71)
    for _ in range(80):
        e = [gen_instr(rng) for _ in range(rng.randint(0, 2))]
        exits = rng.randint(1, 3)  # multi-exit arms too
        t = gen_asm_unit(rng, 1, exits, rng.randint(0, 3), max_instrs=1)
        f = gen_asm_unit(rng, 1, exits, rng.randint(0, 3), max_instrs=1)
        assert if_asm(e, t, f) == _if_by_wiring(e, t, f)
        p = gen_asm_unit(rng, 1, 1, rng.randint(0, 3), max_instrs=1)
        assert while_asm(e, p) == _while_by_wiring(e, p)
        assert while_asm(e, if_asm(e, p, p)) == _while_by_wiring(e, _if_by_wiring(e, p, p))
    one_two, one_one = gen_asm_unit(rng, 1, 2, 1), gen_asm_unit(rng, 1, 1, 1)
    for t, f in ((gen_asm_unit(rng, 2, 2, 1), one_two), (one_two, gen_asm_unit(rng, 2, 2, 0)),
                 (one_two, one_one)):
        with pytest.raises(BoundViolation):
            if_asm([], t, f)
    for p in (one_two, gen_asm_unit(rng, 2, 1, 1)):
        with pytest.raises(BoundViolation):
            while_asm([], p)


def _rebuilt(u):
    """``u`` built again through the checking constructor."""
    return AsmUnit(u.entries, u.exits, u.internal, u.code)


def test_combinators_build_well_formed_units():
    # the combinators build their results unchecked (AsmUnit.unchecked), so
    # every result must pass the check it skipped
    rng = random.Random(73)
    for _ in range(80):
        a, b, c = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        u1 = gen_asm_unit(rng, a, b, rng.randint(0, 3), max_instrs=1)
        u2 = gen_asm_unit(rng, b, c, rng.randint(0, 3), max_instrs=1)
        t = gen_asm_unit(rng, 1, c, rng.randint(0, 3), max_instrs=1)
        f = gen_asm_unit(rng, 1, c, rng.randint(0, 3), max_instrs=1)
        p = gen_asm_unit(rng, 1, 1, rng.randint(0, 3), max_instrs=1)
        e = [gen_instr(rng) for _ in range(rng.randint(0, 2))]
        for u in (app_asm(u1, u2), loop_asm(u1, rng.randint(0, min(a, b))),
                  chain_asm([u1, u2, p if c == 1 else gen_asm_unit(rng, c, 1, 1)]),
                  seq_asm(u1, u2), if_asm(e, t, f), while_asm(e, p),
                  while_asm(e, if_asm(e, p, p))):
            assert _rebuilt(u) == u
    u = gen_asm_unit(rng, 2, 2, 0)
    for wires in (-1, 3):
        with pytest.raises(BoundViolation):
            loop_asm(u, wires)


def test_compile_stmt_checks_the_unit_it_returns_once(monkeypatch):
    checked = []
    check = AsmUnit.check
    monkeypatch.setattr(AsmUnit, "check", lambda u: checked.append(u) or check(u))
    # a ``skip`` lowers to the one shared identity unit, checked when built
    prog = parse_imp("x := 1; if x then y := x + 2 else while x do skip; x := x - 1 end end; "
                     "skip; z := y")
    for low in (None, *MUTATIONS):
        checked.clear()
        unit = compile_stmt(prog, MUTATIONS[low]) if low else compile_stmt(prog)
        assert len(checked) == 1 and checked[0] is unit
        assert _rebuilt(unit) == unit
    assert asm.id_asm() is asm.id_asm()
    for seed in range(40):
        prog = gen_program(14, "bounded", seed)
        for low in MUTATIONS.values():
            unit = compile_stmt(prog, low)
            assert _rebuilt(unit) == unit


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


# ``den_asm`` denotes a block on its first entry, and the events and sites
# of its blocks are interned in bounded tables.

def test_den_asm_denotes_only_the_blocks_it_enters(monkeypatch):
    # the guard is constant, so the blocks of the false arm are never entered
    unit = compile_stmt(parse_imp("if 1 then x := 1 else y := 2; z := 3 end"))
    denoted = []
    denote_bk = asm.denote_bk

    def counting(blk, targets):
        denoted.append(blk)
        return denote_bk(blk, targets)

    monkeypatch.setattr(asm, "denote_bk", counting)
    entry = den_asm(unit)(label(0, 1))
    for _ in range(2):  # the second run replays the first's trees
        ob, _ = run_to_head(interp_asm(entry, umap(), umap()), 1000)
        assert type(ob) is RetO and ob.value.payload[0] == umap({"x": nat(1)})
    # the false arm's two blocks, then the true arm's entry, then the guard
    assert [blk.instrs[-1] for blk in unit.code[:3]] == [
        Istore("z", Oreg(0)), Istore("x", Oreg(0)), Istore("y", Oreg(0))]
    assert denoted == [unit.code[3], unit.code[1]]


def test_a_block_that_cannot_be_denoted_raises_only_once_entered():
    bad = Block((Iload(0, ""),), Bjmp(1))  # ``sym("")`` raises
    with pytest.raises(AnswerTagMismatch):
        denote_instr(Iload(0, ""))
    skipped = AsmUnit(1, 1, 1, (bad, Block((), Bjmp(1))))
    ob, _ = _interp_run(skipped)
    assert type(ob) is RetO
    entered = AsmUnit(1, 1, 1, (bad, Block((), Bjmp(0))))
    for run in (den_asm(entered)(label(0, 1)), interp_asm(
            den_asm(entered)(label(0, 1)), umap(), umap())):
        for _ in range(2):  # observing it again raises again
            with pytest.raises(AnswerTagMismatch):
                run_to_head(run, 1000)
    with pytest.raises(AnswerTagMismatch):  # an entry block raises at the call
        den_asm(AsmUnit(1, 1, 0, (Block(bad.instrs, Bjmp(0)),)))(label(0, 1))


def test_intern_tables_stay_bounded():
    # a chain of moves through more registers than a table holds
    n = INTERNED + 40
    chain = tuple(Imov(r, Oreg(r - 1)) for r in range(2, n + 1))
    unit = AsmUnit(1, 1, 0, (Block((Imov(1, Oimm(7)),) + chain + (
        Iload(0, "a"), Iadd(0, 0, Oreg(n)), Istore("a", Oreg(0))), Bjmp(0)),))
    tables = (asm._get_reg_event, asm._set_reg_site, asm._load_event, asm._store_site)
    runs = []
    for _ in range(2):  # the second run rebuilds what the first evicted
        runs.append(_interp_run(unit, mem=umap({"a": nat(5)})))
        for table in tables:
            assert table.cache_info().maxsize == INTERNED
            assert table.cache_info().currsize <= INTERNED
    assert asm._set_reg_site.cache_info().currsize == INTERNED
    assert runs[0] == runs[1]
    ref = run_machine(unit, 0, {"a": 5}, {})
    ob, _ = runs[0]
    mem, rest = ob.value.payload
    assert mem == umap({"a": nat(12)}) == umap({k: nat(v) for k, v in ref.mem.items()})
    assert rest.payload[0] == umap({k: nat(v) for k, v in ref.regs.items()})
