"""Loop keys and the checker's short-cut on a strip that repeats.

A batch of the fused store fold that ends at a loop mark carries the
fold's state there; when ``eutt`` strips one side against a return or an
event and that state repeats, the strip is known to run out, and the
checker answers what stripping on would answer.  These tests pin that the
answer is unchanged: terminating loops still reach their return, endless
ones still name the budget that runs out, and a table of seeded-mutation
verdicts stays as it is.
"""

import pytest

from itrees import (
    EQ,
    Reason,
    TauO,
    bind,
    eutt,
    lazy,
    observe,
    replay_witness,
    ret,
    run_to_head,
    taus,
    trigger,
)
from itrees import bisim
from itrees.asm import den_asm, interp_asm
from itrees.compiler import MUTATIONS, SimConfig, check_equivalent, compile_stmt, gen_program
from itrees.imp import denote_stmt, env_of, interp_imp, parse_imp
from itrees.samples import input_ev
from itrees.values import label, nat, umap

COUNTDOWN = "c := 40; while c do c := c - 1 end"


def _chain(t, n):
    """``t`` run ``n`` times in sequence: one shared tree, so the same loop
    states come back under different pending binds."""
    return t if n == 1 else bind(t, lambda _: _chain(t, n - 1))


def _interpreted(text, form, times=1, outside=False):
    """A fresh interpreted tree of the Imp program, or of its compilation,
    run ``times`` times in the source, or, ``outside``, the interpreted tree
    run ``times`` times."""
    s = parse_imp(text)
    inner = 1 if outside else times
    if form == "imp":
        t = interp_imp(_chain(denote_stmt(s), inner), env_of())
    else:
        t = interp_asm(_chain(den_asm(compile_stmt(s))(label(0, 1)), inner), env_of(), umap())
    return _chain(t, times) if outside else t


def _unkeyed(t):
    """The same silent runs as ``t``, carrying no loop keys: ``eutt`` on it
    strips every step."""
    def go(t):
        ob = observe(t)
        if type(ob) is TauO:
            return taus(ob.run, lazy(lambda: go(ob.after(ob.run))))
        return t
    return lazy(lambda: go(t))


@pytest.mark.parametrize("times, outside", [(1, False), (32, False), (32, True)])
@pytest.mark.parametrize("form", ["imp", "asm"])
def test_a_terminating_loop_stripped_against_ret_still_returns(form, times, outside):
    # A key that left out the stores would take the countdown's states for
    # a repeat; one that left out the pending binds would do the same with
    # the 32 runs of one loop in sequence, and a checker that left out the
    # binds above the interpreted tree with the 32 runs of that tree.
    def fresh():
        return _interpreted(COUNTDOWN, form, times, outside)

    out, steps = run_to_head(fresh(), 10**6)
    assert observe(fresh())._key is not None
    done = ret(out.value)
    for lhs, rhs in ((fresh(), done), (done, fresh())):
        assert eutt(EQ, lhs, rhs, steps, 10).proven
    assert eutt(EQ, fresh(), done, steps - 1, 10).reason is Reason.TAU_BUDGET
    wrong = ret(nat(7))
    v = eutt(EQ, fresh(), wrong, steps, 10)
    assert v.refuted and len(v.witness) == steps + 1
    assert replay_witness(EQ, fresh(), wrong, v.witness)


def _counting_observe(monkeypatch, limit):
    """Count the observations ``eutt`` makes, failing past ``limit``."""
    seen = [0]

    def counted(t):
        seen[0] += 1
        if seen[0] > limit:
            raise AssertionError(f"eutt made more than {limit} observations")
        return observe(t)

    monkeypatch.setattr(bisim, "observe", counted)
    return seen


@pytest.mark.parametrize("form", ["imp", "asm"])
def test_a_repeating_strip_stops_at_the_repeat(monkeypatch, form):
    # Stripping 10**12 steps would take days; the loop's state repeats
    # within a few batches.
    seen = _counting_observe(monkeypatch, 100)
    v = eutt(EQ, _interpreted("while 1 do x := 0 end", form), ret(nat(0)), 10**12, 10)
    assert v.reason is Reason.TAU_BUDGET
    assert seen[0] < 30


@pytest.mark.parametrize("form", ["imp", "asm"])
def test_a_strip_whose_stores_never_repeat_spends_its_budget(monkeypatch, form):
    budget = 50_000
    seen = _counting_observe(monkeypatch, budget)
    v = eutt(EQ, _interpreted("while 1 do x := x + 1 end", form), ret(nat(0)), budget, 10)
    assert v.reason is Reason.TAU_BUDGET
    assert seen[0] > budget // 1100  # about one observation per batch
    assert v == eutt(EQ, _unkeyed(_interpreted("while 1 do x := x + 1 end", form)),
                     ret(nat(0)), budget, 10)


STRIP = 5000


@pytest.mark.parametrize("max_nodes, reason", [
    (1, Reason.NODE_BUDGET),
    (2, Reason.NODE_BUDGET),
    (700, Reason.NODE_BUDGET),
    (STRIP, Reason.NODE_BUDGET),
    (STRIP + 1, Reason.NODE_BUDGET),
    (STRIP + 2, Reason.TAU_BUDGET),
    (STRIP + 3, Reason.TAU_BUDGET),
    (10 * STRIP, Reason.TAU_BUDGET),
    (None, Reason.TAU_BUDGET),
])
@pytest.mark.parametrize("form", ["imp", "asm"])
def test_the_node_budget_runs_out_where_stripping_would_run_it_out(form, max_nodes, reason):
    loop = "while 1 do x := 0 end"
    for lhs, rhs in ((_interpreted(loop, form), ret(nat(0))),
                     (ret(nat(0)), _interpreted(loop, form))):
        v = eutt(EQ, lhs, rhs, STRIP, 10, max_nodes=max_nodes)
        assert v.reason is reason
        assert v == eutt(EQ, _unkeyed(lhs), _unkeyed(rhs), STRIP, 10, max_nodes=max_nodes)


@pytest.mark.parametrize("max_nodes, reason", [
    (2 * STRIP, Reason.NODE_BUDGET),
    (5 * STRIP + 5, Reason.NODE_BUDGET),
    (5 * STRIP + 6, Reason.NODE_BUDGET),
    (5 * STRIP + 7, Reason.TAU_BUDGET),
    (5 * STRIP + 8, Reason.TAU_BUDGET),
    (None, Reason.TAU_BUDGET),
])
@pytest.mark.parametrize("form", ["imp", "asm"])
def test_a_short_cut_strip_leaves_the_node_budget_stripping_would(form, max_nodes, reason):
    # Five answer branches, each an endless loop against a return, take one
    # node for the event and STRIP + 1 for each strip: the last strip runs
    # out of nodes only if an earlier one left too few.
    loop = _interpreted("while 1 do x := 0 end", form)
    e = input_ev()

    def outcome(side):
        return eutt(EQ, trigger(e), bind(trigger(e), lambda _: side), STRIP, 10,
                    max_nodes=max_nodes)

    v = outcome(loop)
    assert v.reason is reason
    assert v == outcome(_unkeyed(loop))


# (seed, mutation) -> verdict of check_equivalent(gen_program(14, "bounded",
# seed), SimConfig(fuel=4000, samples=2), seed=seed, mutation=mutation).
# P proven, R refuted, T Unknown(tau-budget); columns in sorted mutation
# order.  A lasso that refutes one-sided divergence would turn T into R.
VERDICTS = """
2000 R R T R T
2001 P R P R R
2002 R R T R R
2003 P R P P P
2004 P R R R R
2005 P R P P P
2006 P R R P R
2007 P R P P R
2008 R R T R R
2009 P R R P R
2010 P R R P P
2011 R R T R R
2012 P R R P R
2013 R R R R R
2014 P R R P P
2015 P R R R R
2016 P R R R R
2017 P R R P R
2018 P R R R R
2019 R R T R P
"""


def _letter(v):
    if v.proven:
        return "P"
    if v.refuted:
        return "R"
    return {Reason.TAU_BUDGET: "T", Reason.NODE_BUDGET: "N",
            Reason.DEPTH_BUDGET: "D", Reason.ANSWER_SPACE: "A"}[v.reason]


def test_the_mutant_verdict_table_is_pinned():
    cfg = SimConfig(fuel=4000, samples=2)
    table = []
    for s in range(2000, 2020):
        p = gen_program(14, "bounded", s)
        table.append(" ".join([str(s)] + [_letter(check_equivalent(p, cfg, seed=s, mutation=m))
                                          for m in sorted(MUTATIONS)]))
    assert table == VERDICTS.split("\n")[1:-1]


def _first_repeat(values):
    """The index at which ``_Lasso`` reports a repeat, or None."""
    it = iter(values)
    lasso = bisim._Lasso(next(it))
    for i, v in enumerate(it, 1):
        if lasso.repeats(v):
            return i
    return None


def test_the_lasso_catches_every_eventually_periodic_sequence():
    # stem, then a cycle of distinct values; fresh tuples, so equality and
    # not identity is what makes two states the same
    for stem in range(21):
        for period in range(1, 21):
            seq = [(i if i < stem else stem + (i - stem) % period,) for i in range(40 * 21)]
            at = _first_repeat(seq)
            assert at is not None, (stem, period)
            assert at >= stem + period and seq[at] in seq[:at], (stem, period, at)


def test_the_lasso_never_reports_a_sequence_with_no_repeat():
    assert _first_repeat((i,) for i in range(100_000)) is None
    assert _first_repeat((i % 7, i // 7) for i in range(10_000)) is None
