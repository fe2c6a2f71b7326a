"""Expression/statement compilation, the simulation clauses, and the
bounded-equivalence harness with its seeded bugs."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from itrees import RetO, fst, label, nat, run_to_head, umap
from itrees.asm import (
    AsmUnit,
    Bjmp,
    Block,
    Iadd,
    Iload,
    Imov,
    Istore,
    Oimm,
    Oreg,
    den_asm,
    interp_asm,
)
from itrees import compiler
from itrees.compiler import (
    MUTATIONS,
    SimConfig,
    check_equivalent,
    compile_assign,
    compile_expr,
    compile_stmt,
    gen_program,
    initial_stores,
)
from itrees.imp import (
    Assign,
    Lit,
    Plus,
    Seq,
    Skip,
    Var,
    While,
    env_of,
    parse_imp,
    pretty_stmt,
    run_imp,
)

from bigstep import eval_expr, run_machine, run_reference
from helpers import gen_asm_unit


def _expr_unit(instrs):
    return AsmUnit(1, 1, 0, (Block(tuple(instrs), Bjmp(0)),))


def _rand_expr(rng, size):
    from itrees.compiler import gen_expr

    return gen_expr(rng, size, ("x", "y", "z"))


def test_compile_expr_examples():
    assert compile_expr(0, Lit(5)) == [Imov(0, Oimm(5))]
    assert compile_expr(0, Plus(Var("x"), Lit(2))) == [
        Iload(0, "x"),
        Imov(1, Oimm(2)),
        Iadd(0, 0, Oreg(1)),
    ]


def test_compile_expr_differential_on_random_envs():
    rng = random.Random(80)
    for _ in range(50):
        e = _rand_expr(rng, rng.randint(1, 6))
        env = {n: rng.randint(0, 9) for n in ("x", "y", "z") if rng.random() < 0.7}
        out = run_machine(_expr_unit(compile_expr(0, e)), 0, env, {})
        assert out.outcome == "exit"
        assert out.regs.get(0, 0) == eval_expr(e, env)


def test_sim_rel_clauses_for_compile_expr():
    rng = random.Random(81)
    for _ in range(60):
        n = rng.randint(0, 3)
        e = _rand_expr(rng, rng.randint(1, 6))
        mem = {v: rng.randint(0, 9) for v in ("x", "y", "z") if rng.random() < 0.7}
        regs = {m: rng.randint(1, 9) for m in range(n)}
        out = run_machine(_expr_unit(compile_expr(n, e)), 0, mem, regs)
        assert out.outcome == "exit"
        assert out.mem == mem                      # store untouched
        assert out.regs.get(n, 0) == eval_expr(e, mem)  # value lands in target
        for m in range(n):                          # stack below target intact
            assert out.regs.get(m, 0) == regs.get(m, 0)


def test_compile_assign():
    assert compile_assign("x", Lit(3)) == [Imov(0, Oimm(3)), Istore("x", Oreg(0))]
    rng = random.Random(82)
    for _ in range(40):
        e = _rand_expr(rng, rng.randint(1, 5))
        env = {v: rng.randint(0, 9) for v in ("x", "y") if rng.random() < 0.5}
        out = run_machine(_expr_unit(compile_assign("z", e)), 0, env, {})
        expected = dict(env)
        expected["z"] = eval_expr(e, env)
        assert out.mem == expected


def test_compile_structure():
    assert compile_stmt(Skip()) == AsmUnit(1, 1, 0, (Block((), Bjmp(0)),))
    a, b = Assign("x", Lit(1)), Assign("y", Lit(2))
    from itrees.asm import seq_asm

    assert compile_stmt(Seq(a, b)) == seq_asm(compile_stmt(a), compile_stmt(b))


def test_compiled_loop_runs_to_empty_counter():
    unit = compile_stmt(parse_imp("x := 1; while x do x := x - 1 end"))
    t = interp_asm(den_asm(unit)(label(0, 1)), umap(), umap())
    ob, _ = run_to_head(t, 100_000)
    mem = ob.value.payload[0]
    assert mem == umap({"x": nat(0)})


def test_check_equivalent_simple_cases():
    assert check_equivalent(Skip()).proven
    assert check_equivalent(parse_imp("x := y + 1")).proven
    assert check_equivalent(parse_imp("if x then y := 1 else y := 2 end")).proven
    assert check_equivalent(parse_imp("x := 3; while x do x := x - 1 end")).proven


def test_drop_store_mutant_is_refuted():
    verdict = check_equivalent(parse_imp("x := 1 + 2"), mutation="drop-store")
    assert verdict.refuted


def test_wrong_default_mutant_is_refuted_on_fresh_reads():
    verdict = check_equivalent(parse_imp("y := x + 1"), mutation="wrong-default")
    assert verdict.refuted


def test_swap_branch_mutant_is_refuted():
    verdict = check_equivalent(
        parse_imp("if x then y := 1 else y := 2 end"), mutation="swap-branch"
    )
    assert verdict.refuted


def test_register_mutant_is_refuted_loop_free():
    verdict = check_equivalent(parse_imp("x := 1 + 2"), mutation="register-off-by-one")
    assert verdict.refuted


def test_drop_backedge_mutant_is_refuted():
    verdict = check_equivalent(
        parse_imp("x := 2; while x do x := x - 1 end"), mutation="drop-backedge"
    )
    assert verdict.refuted


def test_all_mutants_refuted_on_a_small_corpus():
    cfg = SimConfig(fuel=4000, samples=2)
    programs = [gen_program(12, "bounded", seed) for seed in range(40)]
    for name in MUTATIONS:
        hit = None
        for prog in programs:
            if check_equivalent(prog, cfg, mutation=name).refuted:
                hit = prog
                break
        assert hit is not None, f"{name} survived the corpus"


def _count_denotations(monkeypatch):
    """Count the calls ``check_equivalent`` makes to ``denote_stmt``."""
    calls = []
    denote = compiler.denote_stmt
    monkeypatch.setattr(compiler, "denote_stmt", lambda s: calls.append(s) or denote(s))
    return calls


def test_a_scan_of_mutations_denotes_its_program_once(monkeypatch):
    calls = _count_denotations(monkeypatch)
    cfg = SimConfig(fuel=4000, samples=2)
    a, b = gen_program(14, "bounded", 2000), gen_program(14, "bounded", 2001)
    for m in MUTATIONS:
        check_equivalent(a, cfg, mutation=m)
    assert len(calls) == 1 and calls[0] is a
    check_equivalent(b, cfg, mutation="drop-store")
    assert len(calls) == 2 and calls[1] is b
    # another seed is another store tuple
    check_equivalent(b, cfg, seed=1, mutation="drop-store")
    assert len(calls) == 3
    for _ in range(2):
        check_equivalent(b, cfg, seed=1)
    assert len(calls) == 5
    # a clean check left nothing to reuse
    check_equivalent(b, cfg, seed=1, mutation="drop-store")
    assert len(calls) == 6


def test_reused_source_trees_give_the_fresh_verdicts(monkeypatch):
    cfg = SimConfig(fuel=4000, samples=2)
    a, b = gen_program(14, "bounded", 2000), gen_program(14, "bounded", 2001)
    order = [(p, m) for p in (a, b, a) for m in MUTATIONS]
    order += [(p, m) for m in MUTATIONS for p in (a, b)]
    seen = [check_equivalent(p, cfg, seed=3, mutation=m) for p, m in order]
    fresh = []
    for p, m in order:
        monkeypatch.setattr(compiler, "_last_source", None)
        fresh.append(check_equivalent(p, cfg, seed=3, mutation=m))
    assert seen == fresh
    assert [repr(v.witness) for v in seen] == [repr(v.witness) for v in fresh]
    assert any(v.refuted for v in seen) and any(v.witness for v in seen)


def test_only_the_last_mutated_program_is_kept():
    cfg = SimConfig(fuel=4000, samples=2)
    prog = gen_program(14, "bounded", 2002)
    check_equivalent(prog, cfg, mutation="swap-branch")
    kept_prog, kept_stores, trees = compiler._last_source
    assert kept_prog is prog and kept_stores is initial_stores(cfg, 0)
    assert len(trees) == len(kept_stores)
    check_equivalent(prog, cfg)
    assert compiler._last_source is None


def test_a_long_straight_line_is_checked_under_a_mutation():
    # the program is keyed by identity: comparing two equal programs with ==
    # would recurse down the Seq spine
    text = "".join(f"x := {i};\n" for i in range(3000)) + "skip"
    first, second = parse_imp(text), parse_imp(text)
    assert check_equivalent(first, mutation="drop-store").refuted
    assert check_equivalent(first, mutation="wrong-default").proven
    assert check_equivalent(second, mutation="wrong-default").proven
    assert compiler._last_source[0] is second


def test_divergence_is_never_refuted():
    prog = parse_imp("while 1 do skip end")
    for fuel in (1000, 10_000):
        assert not run_imp(prog, env_of(), fuel).finished
        cfg = SimConfig(fuel=2000, samples=1)
        verdict = check_equivalent(prog, cfg)
        assert verdict.unknown


def test_gen_program_shape():
    assert gen_program(0, "bounded", 0) == Skip()
    assert gen_program(0, "free", 7) == Skip()

    def nodes(s):
        if isinstance(s, (Skip, Assign)):
            return 1
        if isinstance(s, Seq):
            return 1 + nodes(s.first) + nodes(s.second)
        if isinstance(s, While):
            return 1 + nodes(s.body)
        return 1 + nodes(s.then) + nodes(s.orelse)

    for seed in range(80):
        prog = gen_program(20, "bounded", seed)
        assert nodes(prog) <= 2 * 20 + 8
        assert parse_imp(pretty_stmt(prog)) == prog


def test_bounded_programs_terminate_quickly():
    for seed in range(60):
        prog = gen_program(16, "bounded", seed)
        ref = run_reference(prog, {}, 100_000)
        assert ref is not None, pretty_stmt(prog)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 24), st.integers(0, 10**6),
       st.dictionaries(st.sampled_from(("x", "y", "z", "w", "v")), st.integers(0, 9)))
def test_free_programs_that_finish_agree_with_the_reference(size, seed, env0):
    prog = gen_program(size, "free", seed)
    ref = run_reference(prog, env0, 10**4)
    if ref is None:
        return
    want = env_of(ref[0])
    got = run_imp(prog, env_of(env0), 10**6)
    assert got.finished and got.env == want
    entry = den_asm(compile_stmt(prog))(label(0, 1))
    ob, _ = run_to_head(interp_asm(entry, env_of(env0), umap()), 10**6)
    assert type(ob) is RetO and fst(ob.value) == want
