"""Verdict behavior of the bounded checkers."""

import collections
import random

import pytest

from itrees import (
    EQ,
    NAT_T,
    KTree,
    Reason,
    RelSpec,
    eutt,
    is_trace_of,
    kt_cat,
    kt_id,
    kt_pure,
    ktree_equiv,
    nat,
    boolean,
    replay_witness,
    ret,
    spin,
    bind,
    strong_bisim,
    tau,
    taus,
    trace_refines,
    trigger,
    unit,
    vis,
)
from itrees.asm import den_asm, interp_asm
from itrees.compiler import MUTATIONS, StateInvariantSpec, compile_stmt, initial_stores
from itrees.imp import denote_stmt, interp_imp
from itrees.samples import input_ev, output_ev
from itrees.values import label, umap

import verdict_digest
from helpers import gen_tree, mutate_tree, nested_taus, with_extra_taus


def test_strong_examples():
    assert strong_bisim(ret(nat(1)), ret(nat(1)), 10).proven
    assert strong_bisim(tau(ret(nat(1))), ret(nat(1)), 10).refuted
    verdict = strong_bisim(spin(), spin(), 10)
    assert verdict.unknown and verdict.reason is Reason.DEPTH_BUDGET


def test_strong_witness_is_the_path_to_the_refutation():
    n = 9_999
    lhs, rhs = nested_taus(n, ret(nat(1))), nested_taus(n, ret(nat(2)))
    verdict = strong_bisim(lhs, rhs, n)
    assert verdict.witness == (("tau",),) * n + (("ret-mismatch", nat(1), nat(2)),)
    assert replay_witness(EQ, lhs, rhs, verdict.witness)
    # sibling answer branches leave no steps in the path
    e = input_ev()
    lhs = bind(trigger(e), lambda x: tau(ret(x)))
    rhs = bind(trigger(e), lambda x: tau(ret(nat(0) if x == nat(9) else x)))
    verdict = strong_bisim(lhs, rhs, 10)
    assert verdict.witness == (("event", e, nat(9)), ("tau",), ("ret-mismatch", nat(9), nat(0)))
    assert replay_witness(EQ, lhs, rhs, verdict.witness)


def test_eutt_witness_is_the_path_to_the_refutation():
    # a left-only run, an event, an aligned run, an event whose sibling
    # answer branches (17 first, proven) leave no steps, a right-only run,
    # then the failing returns
    e, out = input_ev(), output_ev(1)
    lhs = taus(2, vis(out, lambda _: taus(3, trigger(e))))
    rhs = vis(out, lambda _: taus(3, bind(
        trigger(e), lambda x: taus(2, ret(nat(0) if x == nat(9) else x)))))
    verdict = eutt(EQ, lhs, rhs, 5, 20)
    assert verdict.witness == (
        ("taul",), ("taul",), ("event", out, unit()), ("tau",), ("tau",), ("tau",),
        ("event", e, nat(9)), ("taur",), ("taur",), ("rel-fails", nat(9), nat(0)))
    assert replay_witness(EQ, lhs, rhs, verdict.witness)


def _real_witnesses():
    """Pairs of trees with the witness a checker refutes them by, one per
    kind of final step and with runs of each kind of silent step."""
    e, out = input_ev(), output_ev(1)
    cases = {
        "strong": (nested_taus(3, ret(nat(1))), nested_taus(3, ret(nat(2)))),
        "strong event": (bind(trigger(e), lambda x: tau(ret(x))),
                         bind(trigger(e), lambda x: tau(ret(nat(0) if x == nat(9) else x)))),
        "weak": (taus(2, vis(out, lambda _: taus(3, trigger(e)))),
                 vis(out, lambda _: taus(3, bind(
                     trigger(e), lambda x: taus(2, ret(nat(0) if x == nat(9) else x)))))),
        "event mismatch": (taus(2, trigger(out)), tau(trigger(output_ev(2)))),
        "shape": (tau(ret(nat(1))), tau(trigger(out))),
    }
    witnesses = {}
    for name, (lhs, rhs) in cases.items():
        check = strong_bisim if name.startswith("strong") else (
            lambda a, b, depth: eutt(EQ, a, b, 5, depth))
        verdict = check(lhs, rhs, 20)
        assert verdict.refuted and replay_witness(EQ, lhs, rhs, verdict.witness)
        witnesses[name] = (lhs, rhs, verdict.witness)
    return witnesses


def _with_last(w, step):
    return w[:-1] + (step,)


# Each tamper changes one step of a real witness so that it names what the
# trees do not do.
TAMPERS = {
    "one tau more": ("strong", lambda w: (("tau",),) + w),
    "one tau fewer": ("strong", lambda w: w[1:]),
    "one left tau more": ("weak", lambda w: (("taul",),) + w),
    "one left tau fewer": ("weak", lambda w: w[1:]),
    "one right tau more": ("weak", lambda w: w[:-1] + (("taur",),) + w[-1:]),
    "one right tau fewer": ("weak", lambda w: w[:-2] + w[-1:]),
    "wrong answer": ("strong event", lambda w: (("event", input_ev(), nat(8)),) + w[1:]),
    "wrong event": ("strong event", lambda w: (("event", output_ev(9), nat(9)),) + w[1:]),
    "changed ret-mismatch value": (
        "strong", lambda w: _with_last(w, ("ret-mismatch", nat(1), nat(3)))),
    "changed rel-fails value": ("weak", lambda w: _with_last(w, ("rel-fails", nat(9), nat(1)))),
    "wrong event-mismatch event": ("event mismatch", lambda w: _with_last(
        w, ("event-mismatch", output_ev(1), output_ev(3)))),
    "wrong shape": ("shape", lambda w: _with_last(w, ("shape", "ret UValue<2>", w[-1][2]))),
    "unknown kind": ("weak", lambda w: _with_last(w, ("rel-holds", nat(9), nat(0)))),
    "no last step": ("weak", lambda w: w[:-1]),
}


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_replay_rejects_a_tampered_witness(tamper):
    name, change = TAMPERS[tamper]
    lhs, rhs, witness = _real_witnesses()[name]
    tampered = change(witness)
    assert tampered != witness
    assert not replay_witness(EQ, lhs, rhs, tampered)


def test_eutt_witness_of_a_long_event_chain():
    # 1,000 events, each followed by a 50-step run, before the returns differ
    def chain(last):
        t = ret(nat(last))
        for i in reversed(range(1_000)):
            t = vis(output_ev(i % 7), lambda _, t=taus(50, t): t)
        return t

    verdict = eutt(EQ, chain(1), chain(2), 100, 10**6)
    assert len(verdict.witness) == 51_001
    assert verdict.witness[0] == ("event", output_ev(0), unit())
    assert verdict.witness[-1] == ("rel-fails", nat(1), nat(2))


def test_eutt_examples():
    assert eutt(EQ, tau(ret(nat(1))), ret(nat(1)), 5, 10).proven
    assert eutt(EQ, ret(nat(1)), ret(nat(2)), 5, 10).refuted
    assert eutt(EQ, vis(input_ev(), ret), ret(nat(1)), 5, 10).refuted
    verdict = eutt(EQ, spin(), ret(nat(1)), 5, 10)
    assert verdict.unknown and verdict.reason is Reason.TAU_BUDGET
    verdict = eutt(EQ, spin(), spin(), 10, 10**6, max_nodes=50)
    assert verdict.unknown and verdict.reason is Reason.NODE_BUDGET


def test_eutt_heterogeneous_relation():
    lt = RelSpec("lt", lambda a, b: a.payload < b.payload)
    assert eutt(lt, ret(nat(1)), tau(ret(nat(2))), 5, 10).proven
    assert eutt(lt, ret(nat(2)), ret(nat(1)), 5, 10).refuted


def test_refutation_witnesses_replay():
    rng = random.Random(30)
    replayed = 0
    for _ in range(200):
        t = gen_tree(rng, 4)
        u = mutate_tree(rng, gen_tree(rng, 4)) if rng.random() < 0.5 else gen_tree(rng, 3)
        for checker in ("strong", "weak"):
            if checker == "strong":
                v = strong_bisim(t, u, 100)
            else:
                v = eutt(EQ, t, u, 50, 100)
            if v.refuted:
                assert replay_witness(EQ, t, u, v.witness), v
                replayed += 1
    assert replayed > 50


def test_budget_monotonicity():
    rng = random.Random(31)
    grid = [(5, 10), (20, 40), (80, 160)]
    for _ in range(80):
        t = gen_tree(rng, 4)
        u = with_extra_taus(rng, t) if rng.random() < 0.5 else gen_tree(rng, 4)
        strong_line = [strong_bisim(t, u, d).status for _, d in grid]
        weak_line = [eutt(EQ, t, u, tb, d).status for tb, d in grid]
        for line in (strong_line, weak_line):
            names = [s.value for s in line]
            # growing budgets may only move unknown -> decided, never flip
            decided = [n for n in names if n != "unknown"]
            assert len(set(decided)) <= 1


def test_eutt_equivalence_properties_bounded():
    rng = random.Random(32)
    trees = [gen_tree(rng, 4) for _ in range(40)]
    for t in trees:
        assert eutt(EQ, t, t, 50, 200).proven  # reflexive on finite trees
    for t in trees[:20]:
        u = with_extra_taus(rng, t)
        w = with_extra_taus(rng, u)
        assert eutt(EQ, t, u, 50, 200).proven
        assert eutt(EQ, u, t, 50, 200).proven  # symmetric verdicts
        assert eutt(EQ, t, w, 50, 200).proven  # transitive on proven pairs


def test_strong_proven_implies_weak_proven():
    rng = random.Random(33)
    for _ in range(60):
        t = gen_tree(rng, 4)
        u = gen_tree(rng, 4) if rng.random() < 0.3 else t
        if strong_bisim(t, u, 100).proven:
            assert eutt(EQ, t, u, 100, 100).proven


def test_ktree_equiv_examples():
    bools = [boolean(False), boolean(True)]
    assert ktree_equiv(EQ, kt_id(), kt_cat(kt_id(), kt_id()), bools).proven
    f = kt_pure(lambda v: nat(v.payload + 1))
    g = kt_pure(lambda v: nat(v.payload + 2))
    assert ktree_equiv(EQ, f, g, [nat(0)]).refuted


def test_ktree_and_trace_witnesses_can_be_checked():
    # a ktree_equiv witness is the input, then an eutt witness at it
    f, g = KTree(ret, NAT_T), KTree(lambda v: ret(nat(0)), NAT_T)
    witness = ktree_equiv(EQ, f, g, inputs=[nat(3)]).witness
    assert witness == (("input", nat(3)), ("rel-fails", nat(3), nat(0)))
    assert replay_witness(EQ, f(nat(3)), g(nat(3)), witness[1:])
    assert not replay_witness(EQ, f(nat(4)), g(nat(4)), witness[1:])
    # a trace_refines witness is a trace of the one tree and not the other
    t, u = trigger(output_ev(1)), trigger(output_ev(2))
    (kind, tr), = trace_refines(t, u, 3, 10).witness
    assert kind == "trace"
    assert is_trace_of(t, tr, 10) is True
    assert is_trace_of(u, tr, 10) is False


def _echo_after(mk, before, after, bump=0):
    return mk(before, bind(trigger(input_ev()),
                           lambda x: mk(after, ret(nat((x.payload + bump) % 7)))))


# Pairs of trees built by ``mk``, either ``taus`` (one counted node per run)
# or ``nested_taus`` (one node per step): aligned runs of unequal length,
# one-sided runs, refutations after a run, and runs around events.
EUTT_PAIRS = [
    lambda mk: (mk(5, ret(nat(1))), mk(3, ret(nat(1)))),
    lambda mk: (mk(2, mk(4, ret(nat(1)))), mk(6, ret(nat(1)))),
    lambda mk: (mk(6, ret(nat(1))), ret(nat(1))),
    lambda mk: (ret(nat(1)), mk(7, ret(nat(1)))),
    lambda mk: (mk(4, ret(nat(1))), mk(2, ret(nat(2)))),
    lambda mk: (mk(3, spin()), mk(5, ret(nat(1)))),
    lambda mk: (_echo_after(mk, 3, 4), _echo_after(mk, 1, 2)),
    lambda mk: (_echo_after(mk, 2, 5), _echo_after(mk, 4, 1, bump=1)),
]


def test_eutt_counted_runs_match_single_steps():
    # budgets placed before, on and after every run's edge in these pairs
    grid = [(tb, d, nodes) for tb in range(9) for d in range(9)
            for nodes in [None] + list(range(1, 26))]
    reasons = set()
    for make in EUTT_PAIRS:
        whole, single = make(taus), make(nested_taus)
        for tb, d, nodes in grid:
            a = eutt(EQ, *whole, tb, d, max_nodes=nodes)
            b = eutt(EQ, *single, tb, d, max_nodes=nodes)
            assert (a.status, a.reason, a.witness) == (b.status, b.reason, b.witness), (
                make, tb, d, nodes)
            reasons.add((a.status.value, a.reason))
    assert {("proven", None), ("refuted", None), ("unknown", Reason.TAU_BUDGET),
            ("unknown", Reason.DEPTH_BUDGET), ("unknown", Reason.NODE_BUDGET)} <= reasons


def _mirrored(step):
    """A witness step with the two sides exchanged."""
    kind = step[0]
    if kind == "taul":
        return ("taur",)
    if kind == "taur":
        return ("taul",)
    if kind in ("rel-fails", "shape", "event-mismatch"):
        return (kind, step[2], step[1])
    return step


def _assert_mirrored(rel, a, b, tau_budget, depth, max_nodes=None):
    """``eutt`` with the sides exchanged, under the flipped relation, gives
    the same answer with the mirror image of the witness, and both
    witnesses replay."""
    flipped = RelSpec(f"flipped {rel.name}", lambda x, y: rel.relates(y, x))
    there = eutt(rel, a, b, tau_budget, depth, max_nodes=max_nodes)
    back = eutt(flipped, b, a, tau_budget, depth, max_nodes=max_nodes)
    assert (back.status, back.reason) == (there.status, there.reason)
    assert back.witness == tuple(map(_mirrored, there.witness))
    if there.refuted:
        assert replay_witness(rel, a, b, there.witness)
        assert replay_witness(flipped, b, a, back.witness)
    return there


def _mutant_pairs():
    """The interpreted source and target of every mutant check of
    ``verdict_digest``, under each of its initial stores."""
    cfg = verdict_digest.MUTANT_CFG
    for s, p, m in verdict_digest.mutants():
        low = MUTATIONS[m]
        source = denote_stmt(p)
        target = den_asm(compile_stmt(p, low))(label(0, 1))
        for store in initial_stores(cfg, s):
            yield (interp_imp(source, store),
                   interp_asm(target, store, umap(), default=low.asm_default))


@pytest.mark.parametrize("max_nodes", [None, 500, 2000])
def test_eutt_is_mirrored_on_the_mutant_pairs(max_nodes):
    # Both sides strip here: a checker that labelled or advanced the wrong
    # side in its one strip case would fail the mirror or the replay.
    rel = StateInvariantSpec().relspec()
    tau_budget, depth = verdict_digest.MUTANT_CFG.budgets()
    seen = collections.Counter()
    for a, b in _mutant_pairs():
        v = _assert_mirrored(rel, a, b, tau_budget, depth, max_nodes)
        seen[v.status.value, v.reason] += 1
        seen.update(step[0] for step in v.witness if step[0] in ("taul", "taur"))
    assert seen["refuted", None] and seen["taul"] and seen["taur"]
    assert seen["unknown", Reason.TAU_BUDGET if max_nodes is None else Reason.NODE_BUDGET]


def test_eutt_is_mirrored_on_shape_and_event_mismatches():
    e, out = input_ev(), output_ev(1)
    pairs = [
        (taus(3, ret(nat(1))), taus(7, trigger(out))),
        (taus(2, trigger(e)), taus(5, vis(out, lambda _: ret(unit())))),
        (vis(out, lambda _: taus(4, trigger(e))), vis(out, lambda _: trigger(out))),
        (taus(6, spin()), taus(2, ret(nat(1)))),
    ] + [make(taus) for make in EUTT_PAIRS]
    kinds = set()
    for a, b in pairs:
        for tau_budget, depth, max_nodes in [(2, 9, None), (9, 9, None), (9, 9, 6), (9, 2, None)]:
            v = _assert_mirrored(EQ, a, b, tau_budget, depth, max_nodes)
            kinds.update(step[0] for step in v.witness)
    assert {"taul", "taur", "shape", "event-mismatch", "rel-fails"} <= kinds
