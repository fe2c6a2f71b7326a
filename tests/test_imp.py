"""Imp parsing, denotation, and agreement with the big-step reference."""

import random

import pytest

from itrees import (
    EQ,
    RetO,
    TauO,
    VisO,
    bind,
    eutt,
    nat,
    observe,
    pair,
    ret,
    run_to_head,
    strong_bisim,
    sym,
    umap,
    unit,
)
from itrees.imp import (
    Assign,
    ImpSyntaxError,
    If,
    Lit,
    Minus,
    Mult,
    Plus,
    Seq,
    Skip,
    Var,
    While,
    denote_expr,
    denote_stmt,
    env_of,
    interp_imp,
    parse_imp,
    pretty_stmt,
    run_imp,
)
from itrees.compiler import gen_program

from bigstep import run_reference

# ceiling on interpreted silent steps per reference step, checked below
TAUS_PER_STEP = 64


def test_parse_examples():
    assert parse_imp("skip") == Skip()
    assert parse_imp("x := 1 + 2") == Assign("x", Plus(Lit(1), Lit(2)))
    assert parse_imp("while x do x := x - 1 end") == While(
        Var("x"), Assign("x", Minus(Var("x"), Lit(1)))
    )
    assert parse_imp("if x then skip else y := 2 end") == If(
        Var("x"), Skip(), Assign("y", Lit(2))
    )
    assert parse_imp("x := 1; y := 2; skip") == Seq(
        Assign("x", Lit(1)), Seq(Assign("y", Lit(2)), Skip())
    )


def test_parse_precedence_and_parens():
    assert parse_imp("x := 1 + 2 * 3") == Assign("x", Plus(Lit(1), Mult(Lit(2), Lit(3))))
    assert parse_imp("x := (1 + 2) * 3") == Assign("x", Mult(Plus(Lit(1), Lit(2)), Lit(3)))
    assert parse_imp("x := 1 - 2 - 3") == Assign("x", Minus(Minus(Lit(1), Lit(2)), Lit(3)))


def test_parse_errors_have_positions():
    with pytest.raises(ImpSyntaxError) as err:
        parse_imp("x := ")
    assert err.value.line == 1
    with pytest.raises(ImpSyntaxError):
        parse_imp("while x do skip")  # missing end
    with pytest.raises(ImpSyntaxError):
        parse_imp("x + 1")
    with pytest.raises(ImpSyntaxError) as err:
        parse_imp("x := 1;\ny := $")
    assert err.value.line == 2
    # literals must fit the 64-bit naturals the semantics computes with
    assert parse_imp("x := 18446744073709551615") == Assign("x", Lit(2**64 - 1))
    with pytest.raises(ImpSyntaxError) as err:
        parse_imp("x := 1;\ny := 2 + 18446744073709551616")
    assert (err.value.line, err.value.col) == (2, 10)


def test_pretty_round_trip_random_programs():
    for seed in range(60):
        prog = gen_program(size=14, loop_bound_mode="bounded", seed=seed)
        assert parse_imp(pretty_stmt(prog)) == prog
    for seed in range(20):
        prog = gen_program(size=10, loop_bound_mode="free", seed=seed)
        assert parse_imp(pretty_stmt(prog)) == prog


def test_denote_expr_lit_and_var():
    assert observe(denote_expr(Lit(5))) == RetO(nat(5))
    ob = observe(denote_expr(Var("x")))
    assert type(ob) is VisO
    assert ob.event.kind == "GetVar" and ob.event.args == (sym("x"),)
    assert observe(ob.k(nat(3))) == RetO(nat(3))


def test_denote_expr_arith_under_interp():
    t = interp_imp(denote_expr(Plus(Lit(1), Lit(2))), env_of())
    ob, _ = run_to_head(t, 50)
    assert ob == RetO(pair(umap(), nat(3)))
    # saturation and wrapping agree with the value helpers
    t = interp_imp(denote_expr(Minus(Lit(1), Lit(2))), env_of())
    ob, _ = run_to_head(t, 50)
    assert ob == RetO(pair(umap(), nat(0)))


def test_denote_skip_and_seq():
    assert observe(denote_stmt(Skip())) == RetO(unit())
    a, b = Assign("x", Lit(1)), Assign("y", Lit(2))
    lhs = denote_stmt(Seq(a, b))
    rhs = bind(denote_stmt(a), lambda _: denote_stmt(b))
    assert strong_bisim(lhs, rhs, 100).proven


def test_while_false_guard_is_one_shot():
    t = denote_stmt(While(Lit(0), Assign("x", Lit(1))))
    ob, steps = run_to_head(t, 10)
    assert ob == RetO(unit())
    assert eutt(EQ, t, ret(unit()), 10, 20).proven


def test_interp_imp_assign():
    t = interp_imp(denote_stmt(Assign("x", Lit(3))), env_of())
    ob, _ = run_to_head(t, 50)
    assert ob == RetO(pair(env_of({"x": 3}), unit()))


def test_interp_imp_default_read():
    t = interp_imp(denote_expr(Var("y")), env_of())
    ob, _ = run_to_head(t, 50)
    assert ob == RetO(pair(umap(), nat(0)))


def test_interp_imp_routes_foreign_events():
    # the extra alphabet slot is real: IO events pass through untouched
    # while the variable events around them are interpreted away
    from itrees import IOE, event, trigger

    out_ev = event(IOE, "Output", nat(0), path=("R",))
    t = bind(denote_stmt(Assign("x", Lit(4))), lambda _: trigger(out_ev))
    stage = interp_imp(t, env_of())
    ob, _ = run_to_head(stage, 100)
    assert type(ob) is VisO
    assert ob.event == event(IOE, "Output", nat(0))
    final, _ = run_to_head(ob.k(unit()), 100)
    assert final == RetO(pair(env_of({"x": 4}), unit()))


def test_interp_imp_divergent_loop_never_returns():
    t = interp_imp(denote_stmt(parse_imp("while 1 do skip end")), env_of())
    for fuel in (100, 1000):
        ob, steps = run_to_head(t, fuel)
        assert type(ob) is TauO and steps == fuel


def test_run_imp_examples():
    r = run_imp(parse_imp("x := 1 + 2"), env_of(), 100)
    assert r.finished and r.env == env_of({"x": 3})
    r = run_imp(parse_imp("while x do x := x - 1 end"), env_of({"x": 5}), 10_000)
    assert r.finished and r.env == env_of({"x": 0})
    r = run_imp(parse_imp("while 1 do skip end"), env_of(), 1000)
    assert not r.finished


def _env_to_dict(env):
    return {k: v.payload for k, v in env.payload}


def test_run_imp_agrees_with_reference_loop_free():
    rng = random.Random(50)
    for seed in range(120):
        prog = gen_program(size=10, loop_bound_mode="bounded", seed=seed)
        # strip loops out by reusing bounded mode but skipping loop programs
        env0 = {}
        for name in ("x", "y", "z"):
            if rng.random() < 0.6:
                env0[name] = rng.randint(0, 20)
        got = run_imp(prog, env_of(env0), 200_000)
        ref = run_reference(prog, env0, 1_000_000)
        assert ref is not None
        ref_env, ref_steps = ref
        assert got.finished, pretty_stmt(prog)
        assert _env_to_dict(got.env) == {k: v for k, v in ref_env.items()}
        assert got.steps <= TAUS_PER_STEP * ref_steps


def test_out_of_fuel_means_reference_is_long_too():
    # a terminating but long loop: out-of-fuel at F implies the reference
    # needs more than F // TAUS_PER_STEP steps
    prog = parse_imp("c := 200; while c do x := x + 1; c := c - 1 end")
    for fuel in (50, 500):
        got = run_imp(prog, env_of(), fuel)
        assert not got.finished
        ref = run_reference(prog, {}, fuel // TAUS_PER_STEP)
        assert ref is None or ref[1] > fuel // TAUS_PER_STEP
