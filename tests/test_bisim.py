"""Verdict behavior of the bounded checkers."""

import random

from itrees import (
    EQ,
    Reason,
    RelSpec,
    eutt,
    kt_cat,
    kt_id,
    kt_pure,
    ktree_equiv,
    nat,
    boolean,
    replay_witness,
    ret,
    spin,
    strong_bisim,
    tau,
    vis,
)
from itrees.samples import input_ev

from helpers import gen_tree, mutate_tree, with_extra_taus


def test_strong_examples():
    assert strong_bisim(ret(nat(1)), ret(nat(1)), 10).proven
    assert strong_bisim(tau(ret(nat(1))), ret(nat(1)), 10).refuted
    verdict = strong_bisim(spin(), spin(), 10)
    assert verdict.unknown and verdict.reason is Reason.DEPTH_BUDGET


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
