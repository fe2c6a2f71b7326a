"""Imp parsing, denotation, and agreement with the big-step reference."""

import os
import random

import pytest

from itrees import (
    EQ,
    EventInstance,
    Reason,
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
from itrees import asm, cli, compiler, imp
from itrees.imp import (
    MAX_STMT_DEPTH,
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
from itrees.compiler import MUTATIONS, SimConfig, gen_program, initial_stores

from bigstep import run_reference
from helpers import denote_stmt_by_bind

CORPUS = os.path.join(os.path.dirname(__file__), "golden", "corpus")

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
    # expressions nest at most 100 levels: an operator or parentheses each add one
    deepest = "(" * 50 + " * ".join("x" * 51) + ")" * 50
    assert parse_imp(f"y := {deepest}") == parse_imp(f"y := {deepest[50:-50]}")
    with pytest.raises(ImpSyntaxError) as err:
        parse_imp(f"while 1 do\n y := ({deepest})\nend")
    assert (err.value.line, err.value.col) == (2, 7)
    with pytest.raises(ImpSyntaxError) as err:
        parse_imp(f"y := x * {deepest}")
    assert (err.value.line, err.value.col) == (1, 8)


def _nesting(s):
    """How many if and while statements the deepest statement of ``s`` sits in."""
    deepest, stack = 0, [(s, 0)]
    while stack:
        s, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(s, Seq):
            stack += [(s.first, depth), (s.second, depth)]
        elif isinstance(s, If):
            stack += [(s.then, depth + 1), (s.orelse, depth + 1)]
        elif isinstance(s, While):
            stack.append((s.body, depth + 1))
    return deepest


def _nested_ifs(levels):
    return "if 1 then\n" * levels + "x := 1" + "\nelse skip end" * levels


def test_statements_nest_at_most_the_bound():
    deepest = parse_imp(_nested_ifs(MAX_STMT_DEPTH))
    assert _nesting(deepest) == MAX_STMT_DEPTH
    # the error points at the keyword that opens one level too many
    with pytest.raises(ImpSyntaxError) as err:
        parse_imp(_nested_ifs(MAX_STMT_DEPTH + 1))
    assert (err.value.line, err.value.col) == (MAX_STMT_DEPTH + 1, 1)
    src = "x := 1;\n" + "while x do " * 500 + "skip" + " end" * 500
    with pytest.raises(ImpSyntaxError) as err:
        parse_imp(src)
    assert (err.value.line, err.value.col) == (2, 11 * MAX_STMT_DEPTH + 1)
    assert "nested deeper than 100 levels" in str(err.value)
    # a long sequence inside the deepest level adds no nesting
    chain = "if 1 then " * MAX_STMT_DEPTH + "x := 1; " * 500 + "skip" + " else skip end" * MAX_STMT_DEPTH
    assert _nesting(parse_imp(chain)) == MAX_STMT_DEPTH


def test_the_statement_bound_accepts_corpus_and_generated_programs():
    for name in os.listdir(CORPUS):
        with open(os.path.join(CORPUS, name), encoding="utf-8") as fh:
            assert _nesting(parse_imp(fh.read())) <= MAX_STMT_DEPTH
    deepest = max(_nesting(gen_program(size, mode, seed))
                  for mode in ("bounded", "free") for size in range(8, 81)
                  for seed in range(300))
    assert deepest <= MAX_STMT_DEPTH


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


def test_statements_are_denoted_once_however_long_the_loop_runs(monkeypatch):
    # ``_stmt_then`` is the function the statement denotation recurses on
    calls = 0
    denote = imp._stmt_then

    def counted(s, rest):
        nonlocal calls
        calls += 1
        return denote(s, rest)

    monkeypatch.setattr(imp, "_stmt_then", counted)

    def denotations(n):
        nonlocal calls
        calls = 0
        prog = parse_imp(f"c := {n}; while c do "
                         "if c - 1 then x := x + c else y := 1 end; c := c - 1 end")
        assert imp.run_imp(prog, env_of(), 100_000).finished
        return calls

    assert denotations(50) == denotations(500) <= 8


def test_events_are_built_once_however_long_the_loop_runs(monkeypatch, tmp_path):
    # Every read in the text has its interned event, and every write its
    # interned site, taken when the text is denoted; a write's event is
    # built only when something observes it, which the fused fold never
    # does.  So no event, writes included, is built per execution of the
    # loop.
    calls = 0
    build = EventInstance.__init__

    def counted(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        build(self, *args, **kwargs)

    monkeypatch.setattr(EventInstance, "__init__", counted)
    text = ("c := {n}; while c do "
            "if c - 1 then x := x + c * y else y := y + 1 end; c := c - 1 end")

    def events_built(n, run):
        nonlocal calls
        # read events are interned across denotations; start afresh
        for table in (imp._get_var_event, asm._get_reg_event, asm._load_event):
            table.cache_clear()
        calls = 0
        run(text.format(n=n))
        return calls

    def imp_run(src):
        assert imp.run_imp(parse_imp(src), env_of(), 100_000).finished

    def asm_run(src):
        path = tmp_path / "loop.asm"
        path.write_text(asm.print_asm(compiler.compile_stmt(parse_imp(src))))
        assert cli.main(["run-asm", str(path)]) == 0

    for run in (imp_run, asm_run):
        assert 0 < events_built(50, run) == events_built(500, run)


# ``denote_stmt`` is in continuation-passing form; ``helpers.denote_stmt_by_bind``,
# the bind form it replaced, is its specification, node for node.

def _head(t, fuel):
    ob, steps = run_to_head(t, fuel)
    kind = type(ob)
    return kind, ob.value if kind is RetO else ob.event if kind is VisO else None, steps


def _same_as_bind_form(s, env0, depth):
    """The interpreted denotations are strongly bisimilar and reach the same
    head after the same number of steps.  Proven when the runs finish within
    ``depth`` steps."""
    t, ref = interp_imp(denote_stmt(s), env0), interp_imp(denote_stmt_by_bind(s), env0)
    v = strong_bisim(t, ref, depth)
    assert not v.refuted, v.witness
    assert v.proven or v.reason is Reason.DEPTH_BUDGET
    assert _head(t, depth) == _head(ref, depth)
    return v.proven


def _corpus_and_generated():
    for name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, name)) as fh:
            yield parse_imp(fh.read()), 0
    for size in (8, 20, 40):
        for mode in ("bounded", "free"):
            for seed in range(5):
                yield gen_program(size, mode, seed), seed


def test_denote_stmt_matches_the_bind_form():
    proven = [_same_as_bind_form(s, env0, 2000)
              for s, seed in _corpus_and_generated()
              for env0 in initial_stores(SimConfig(), seed)]
    assert proven.count(True) > len(proven) // 2


def test_denote_stmt_emits_the_bind_form_events():
    # uninterpreted, so every observed event is compared: a write observed
    # at its site must equal the bind form's, field for field
    proven = set()
    for name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, name)) as fh:
            s = parse_imp(fh.read())
        v = strong_bisim(denote_stmt(s), denote_stmt_by_bind(s), 12, (0, 1))
        assert not v.refuted, (name, v)
        if v.proven:
            proven.add(name)
    assert sorted(set(os.listdir(CORPUS)) - proven) == ["nested_while.imp", "while_count.imp"]


@pytest.mark.parametrize("mutation", [None] + sorted(MUTATIONS))
def test_check_equivalent_gives_the_bind_form_outcomes(monkeypatch, mutation):
    # statuses, reasons and witnesses, step counts included
    cfg = SimConfig(fuel=4000, samples=2)
    programs = list(_corpus_and_generated())[::3]

    def outcomes():
        return [(v.status, v.reason, v.witness) for s, seed in programs
                for v in [compiler.check_equivalent(s, cfg, seed=seed, mutation=mutation)]]

    got = outcomes()
    monkeypatch.setattr(compiler, "denote_stmt", denote_stmt_by_bind)
    assert outcomes() == got
    if mutation:
        assert any(status.value == "refuted" for status, _, _ in got)
