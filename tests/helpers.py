"""Shared generators for randomized tests.

Trees are generated over a three-kind alphabet whose answer spaces are all
exactly enumerable, so bounded checkers explore them completely.  Asm units
are generated with forward-only internal jumps (and, when requested, one-shot
loopable ports), keeping every denotation finite so law checks can come back
Proven rather than Unknown.
"""

from __future__ import annotations

import random

from itrees import (
    BOOL_T,
    NAT_T,
    SYM_T,
    UNIT_T,
    EventSig,
    KindSpec,
    boolean,
    enumerate_answers,
    event,
    handler_bimap,
    handler_id,
    interp,
    interp_map,
    label_t,
    loop,
    map_default_sig,
    nat,
    observe,
    ret,
    tau,
    trigger,
    un_sum,
    unit,
    vis,
)
from itrees.combinators import iterate
from itrees.core import RetO, TauO, bind, lazy
from itrees.events import LEFT, EventInstance
from itrees.values import nat_add, nat_mul, nat_sub, sym
from itrees.asm import (
    MEM_E,
    REG_E,
    AsmUnit,
    Bbrz,
    Bjmp,
    Block,
    Iadd,
    Iload,
    Imov,
    Imul,
    Istore,
    Isub,
    Oimm,
    Oreg,
    denote_instr,
    get_reg,
    halt,
)
from itrees.imp import IMP_STATE, Assign, If, Lit, Minus, Plus, Seq, Skip, Var, get_var

T3 = EventSig(
    "T3",
    (
        KindSpec("Ask", (), BOOL_T),
        KindSpec("Tell", (NAT_T,), UNIT_T),
        KindSpec("Pick", (), label_t(2)),
    ),
)


def gen_value(rng: random.Random):
    pick = rng.random()
    if pick < 0.5:
        return nat(rng.randint(0, 3))
    if pick < 0.8:
        return boolean(rng.random() < 0.5)
    return unit()


def gen_event(rng: random.Random):
    kind = rng.choice(("Ask", "Tell", "Pick"))
    if kind == "Tell":
        return event(T3, "Tell", nat(rng.randint(0, 2)))
    return event(T3, kind)


def gen_tree(rng: random.Random, depth: int):
    """A finite random tree over the test alphabet."""
    pick = rng.random()
    if depth <= 0 or pick < 0.35:
        return ret(gen_value(rng))
    if pick < 0.55:
        return tau(gen_tree(rng, depth - 1))
    ev = gen_event(rng)
    table = {x: gen_tree(rng, depth - 1) for x in enumerate_answers(ev.answer)}
    return vis(ev, lambda x, _t=table: _t[x])


def gen_kont(rng: random.Random, depth: int):
    """A pure function from values to finite trees."""
    mode = rng.random()
    fixed = gen_tree(rng, depth)
    if mode < 0.4:
        return lambda v: fixed
    if mode < 0.7:
        taus = rng.randint(0, 2)

        def wrap(v, _n=taus):
            t = ret(v)
            for _ in range(_n):
                t = tau(t)
            return t

        return wrap
    return lambda v: bind(fixed, lambda _w: ret(v))


def nested_taus(n: int, t):
    """``n`` silent steps before ``t``, one node each: the step-at-a-time
    counterpart of ``taus(n, t)``."""
    for _ in range(n):
        t = tau(t)
    return t


def with_extra_taus(rng: random.Random, t, amount: float = 0.6):
    """Rebuild a finite tree, sprinkling and occasionally deleting silent
    steps; the result is weakly equivalent to the input."""

    def pad(t):
        for _ in range(rng.randint(0, 2) if rng.random() < amount else 0):
            t = tau(t)
        return t

    ob = observe(t)
    if type(ob) is RetO:
        return pad(ret(ob.value))
    if type(ob) is TauO:
        rebuilt = with_extra_taus(rng, ob.rest, amount)
        return pad(rebuilt if rng.random() < 0.5 else tau(rebuilt))
    ev = ob.event
    table = {x: with_extra_taus(rng, ob.k(x), amount)
             for x in enumerate_answers(ev.answer)}
    return pad(vis(ev, lambda x, _t=table: _t[x]))


def mutate_tree(rng: random.Random, t):
    """Rebuild a finite tree with one observable difference somewhere."""
    ob = observe(t)
    if type(ob) is RetO:
        v = ob.value
        bump = nat((v.payload + 1) % 4) if v.tag.value == "nat" else nat(0)
        return ret(bump)
    if type(ob) is TauO:
        return tau(mutate_tree(rng, ob.rest))
    ev = ob.event
    answers = enumerate_answers(ev.answer)
    victim = rng.choice(answers)
    table = {
        x: (mutate_tree(rng, ob.k(x)) if x == victim else ob.k(x)) for x in answers
    }
    return vis(ev, lambda x, _t=table: _t[x])


# Random Asm units.

_ADDRS = ("a", "b")


def gen_instr(rng: random.Random) -> object:
    pick = rng.randint(0, 5)
    reg = lambda: rng.randint(0, 3)
    # prefer immediates: register reads multiply checker branching
    operand = lambda: Oreg(reg()) if rng.random() < 0.3 else Oimm(rng.randint(0, 9))
    if pick == 0:
        return Imov(reg(), operand())
    if pick == 1:
        return Iadd(reg(), reg(), operand())
    if pick == 2:
        return Isub(reg(), reg(), operand())
    if pick == 3:
        return Imul(reg(), reg(), operand())
    if pick == 4:
        return Iload(reg(), rng.choice(_ADDRS))
    return Istore(rng.choice(_ADDRS), operand())


def gen_asm_unit(rng: random.Random, entries: int, exits: int, internal: int,
                 max_instrs: int = 3, loop_ports: int = 0) -> AsmUnit:
    """A well-formed unit whose every run terminates.

    Internal jumps only go forward; exits below ``loop_ports`` (the ones a
    caller intends to wire back) are only ever targeted from non-looped
    entry blocks, so a loop over those ports crosses each back-edge at most
    once.
    """
    bound = internal + exits

    def targets(dom_index: int, looped_block: bool):
        ok = [t for t in range(bound)
              if (t >= internal and (not looped_block or t - internal >= loop_ports))
              or (t < internal and dom_index < internal and t > dom_index)
              or (t < internal and dom_index >= internal)]
        return ok

    if loop_ports and exits <= loop_ports:
        raise ValueError("need a non-looped exit so every block has a target")
    blocks = []
    for j in range(internal + entries):
        looped_block = j < internal or (internal <= j < internal + loop_ports)
        ok = targets(j, looped_block)
        assert ok, f"block {j} has no legal target"
        instrs = tuple(gen_instr(rng) for _ in range(rng.randint(0, max_instrs)))
        if rng.random() < 0.3 and len(ok) >= 2:
            yes, no = rng.choice(ok), rng.choice(ok)
            branch = Bbrz(rng.randint(0, 3), yes, no)
        else:
            branch = Bjmp(rng.choice(ok))
        blocks.append(Block(instrs, branch))
    return AsmUnit(entries, exits, internal, tuple(blocks))


# Loop bodies for the iterative-category laws.  Left targets strictly
# decrease, so every generated iteration terminates and law checks can
# return Proven instead of Unknown.

from itrees import KTree, inl, inr, label


def _maybe_eventful(rng, leaf_fn, depth, ev_gen=None):
    ev_gen = ev_gen or gen_event
    if depth <= 0 or rng.random() < 0.5:
        if rng.random() < 0.25:
            return tau(leaf_fn())
        return leaf_fn()
    ev = ev_gen(rng)
    table = {x: _maybe_eventful(rng, leaf_fn, depth - 1, ev_gen)
             for x in enumerate_answers(ev.answer)}
    return vis(ev, lambda x, _t=table: _t[x])


def gen_iter_body(rng: random.Random, n_a: int, n_b: int, ev_gen=None) -> KTree:
    """body : A -> tree of (A + B) with decreasing Left targets."""

    def tree_for(a_idx):
        def leaf():
            if a_idx > 0 and rng.random() < 0.45:
                return ret(inl(label(rng.randint(0, a_idx - 1), n_a)))
            return ret(inr(label(rng.randint(0, n_b - 1), n_b)))

        return _maybe_eventful(rng, leaf, rng.randint(0, 2), ev_gen)

    trees = [tree_for(i) for i in range(n_a)]
    return KTree(lambda v: trees[v.payload], label_t(n_a))


def gen_two_phase_bodies(rng: random.Random, n: int, n_c: int, ev_gen=None):
    """f : A -> (B + C) and g : B -> (A + C) whose mutual loop terminates:
    f only descends strictly, g never climbs."""

    def f_tree(a_idx):
        def leaf():
            if a_idx > 0 and rng.random() < 0.5:
                return ret(inl(label(rng.randint(0, a_idx - 1), n)))
            return ret(inr(label(rng.randint(0, n_c - 1), n_c)))

        return _maybe_eventful(rng, leaf, rng.randint(0, 1), ev_gen)

    def g_tree(b_idx):
        def leaf():
            if rng.random() < 0.5:
                return ret(inl(label(rng.randint(0, b_idx), n)))
            return ret(inr(label(rng.randint(0, n_c - 1), n_c)))

        return _maybe_eventful(rng, leaf, rng.randint(0, 1), ev_gen)

    fs = [f_tree(i) for i in range(n)]
    gs = [g_tree(i) for i in range(n)]
    return (KTree(lambda v: fs[v.payload], label_t(n)),
            KTree(lambda v: gs[v.payload], label_t(n)))


def gen_codiagonal_body(rng: random.Random, n_a: int, n_b: int, ev_gen=None) -> KTree:
    """f : A -> (A + (A + B)) with every Left-ish target strictly below."""

    def tree_for(a_idx):
        def leaf():
            pick = rng.random()
            if a_idx > 0 and pick < 0.3:
                return ret(inl(label(rng.randint(0, a_idx - 1), n_a)))
            if a_idx > 0 and pick < 0.55:
                return ret(inr(inl(label(rng.randint(0, a_idx - 1), n_a))))
            return ret(inr(inr(label(rng.randint(0, n_b - 1), n_b))))

        return _maybe_eventful(rng, leaf, rng.randint(0, 1), ev_gen)

    trees = [tree_for(i) for i in range(n_a)]
    return KTree(lambda v: trees[v.payload], label_t(n_a))


T2 = EventSig(
    "T2",
    (
        KindSpec("Ask", (), BOOL_T),
        KindSpec("Tell", (NAT_T,), UNIT_T),
    ),
)


def gen_event2(rng: random.Random):
    if rng.random() < 0.5:
        return event(T2, "Ask")
    return event(T2, "Tell", nat(rng.randint(0, 2)))


def gen_ktree(rng: random.Random, n_a: int, n_b: int, ev_gen=None) -> KTree:
    """A random eventful ktree between plain label domains."""

    def tree_for(_a):
        def leaf():
            return ret(label(rng.randint(0, n_b - 1), n_b))

        return _maybe_eventful(rng, leaf, rng.randint(0, 2), ev_gen)

    trees = [tree_for(i) for i in range(n_a)]
    return KTree(lambda v: trees[v.payload], label_t(n_a))


# The layered interpretation stacks: a renaming ``interp`` that turns each
# language's store events into map events, then one ``interp_map`` per store.
# They are the specification the library's fused ``interp_imp`` and
# ``interp_asm`` are compared against.

def to_map_events(source, get_kind, set_kind, map_sig):
    """Translate a get/set alphabet into LookupDefault/Insert of ``map_sig``."""

    def apply(e):
        if e.kind == get_kind:
            return trigger(event(map_sig, "LookupDefault", e.args[0]))
        if e.kind == set_kind:
            return trigger(event(map_sig, "Insert", e.args[0], e.args[1]))
        raise ValueError(f"not a {source.name} event: {e!r}")

    return apply


def layered_interp_imp(t, env0):
    env_map = map_default_sig(SYM_T, NAT_T, nat(0))
    h = handler_bimap(to_map_events(IMP_STATE, "GetVar", "SetVar", env_map), handler_id)
    return interp_map(interp(h, t), env0)


def layered_interp_asm(t, mem0, regs0, default=0):
    reg_map = map_default_sig(NAT_T, NAT_T, nat(default))
    mem_map = map_default_sig(SYM_T, NAT_T, nat(default))
    h = handler_bimap(
        to_map_events(REG_E, "GetReg", "SetReg", reg_map),
        handler_bimap(to_map_events(MEM_E, "Load", "Store", mem_map), handler_id),
    )
    return interp_map(interp_map(interp(h, t), regs0), mem0)


# The Asm denotation in the paper's literal form: ``loop`` over the block
# table, each branch returning the label it jumps to.  The library's
# ``den_asm`` iterates on block labels directly and is compared against this
# one, step for step; the two share only the instruction denotations.

def _denote_br_label(b, bound: int):
    if isinstance(b, Bjmp):
        return ret(label(b.target, bound))
    if isinstance(b, Bbrz):
        return bind(get_reg(b.test),
                    lambda v: ret(label(b.yes if v.payload == 0 else b.no, bound)))
    return halt()


def denote_bks(u: AsmUnit) -> KTree:
    """The block table as a map from internal+entry labels to the labels
    its branches jump to, internal+exit."""
    dom_t = label_t(u.internal + u.entries)
    trees = []
    for blk in u.code:
        t = _denote_br_label(blk.branch, u.internal + u.exits)
        for i in reversed(blk.instrs):
            t = bind(denote_instr(i), lambda _, _rest=t: _rest)
        trees.append(t)
    return KTree(lambda v: trees[dom_t.check(v, "entry label").payload], dom_t)


def den_asm_by_loop(u: AsmUnit) -> KTree:
    """``loop`` over ``denote_bks``: a jump to an internal label leaves on
    the loop's Left port and re-enters its block, a jump to an exit leaves
    on the Right port."""
    internal, ia = u.internal, u.internal + u.entries
    bks = denote_bks(u)

    def split(l):
        i = l.payload
        if i < internal:
            return ret(inl(label(i, internal)))
        return ret(inr(label(i - internal, u.exits)))

    def body(ca):
        is_left, payload = un_sum(ca)
        i = payload.payload if is_left else internal + payload.payload
        return bind(bks(label(i, ia)), split)

    looped = loop(KTree(body))

    def go(a):
        label_t(u.entries).check(a, "entry label")
        return looped(a)

    return KTree(go, label_t(u.entries))


# The Imp denotation in bind form: each event is a ``trigger`` whose answer
# the rest of the statement is bound to.  The library's ``denote_stmt`` is in
# continuation-passing form, each event one site node leading straight to
# the next tree, and is compared against this one, step for step.

def denote_expr_by_bind(e):
    if isinstance(e, Lit):
        return ret(nat(e.value))
    if isinstance(e, Var):
        return get_var(e.name)
    f = nat_add if isinstance(e, Plus) else nat_sub if isinstance(e, Minus) else nat_mul
    rhs = denote_expr_by_bind(e.rhs)
    return bind(
        denote_expr_by_bind(e.lhs),
        lambda l: bind(rhs, lambda r: ret(nat(f(l.payload, r.payload)))),
    )


_CONTINUE = ret(inl(unit()))
_BREAK = ret(inr(unit()))


def denote_stmt_by_bind(s):
    """``Seq`` tails and ``If`` arms are lazy and shared, as in the library."""
    if isinstance(s, Skip):
        return ret(unit())
    if isinstance(s, Assign):
        name = sym(s.name)
        return bind(denote_expr_by_bind(s.expr), lambda v: trigger(
            EventInstance(IMP_STATE, "SetVar", (name, v), (LEFT,))))
    if isinstance(s, Seq):
        second = s.second
        rest = lazy(lambda: denote_stmt_by_bind(second))
        return bind(denote_stmt_by_bind(s.first), lambda _: rest)
    if isinstance(s, If):
        then, orelse = s.then, s.orelse
        then_t = lazy(lambda: denote_stmt_by_bind(then))
        else_t = lazy(lambda: denote_stmt_by_bind(orelse))
        return bind(denote_expr_by_bind(s.cond),
                    lambda v: then_t if v.payload != 0 else else_t)
    body = bind(denote_stmt_by_bind(s.body), lambda _: _CONTINUE)
    test = bind(denote_expr_by_bind(s.cond), lambda v: body if v.payload != 0 else _BREAK)
    return iterate(KTree(lambda _: test))(unit())
