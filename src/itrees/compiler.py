"""Compilation from Imp to Asm and the bounded-equivalence harness.

Expressions compile into a register file used as a stack: a subexpression
may scribble only on registers above its target.  Statements compile
structurally through the linking combinators.  ``check_equivalent`` replays
both semantics from matching initial stores and asks the weak checker
whether the final stores agree; a library of seeded compiler bugs keeps the
harness itself honest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

from . import asm
from .asm import (
    AsmUnit,
    Bbrz,
    Block,
    Bjmp,
    Iadd,
    Iload,
    Imov,
    Imul,
    Istore,
    Isub,
    Oimm,
    Oreg,
)
from .bisim import DEFAULT_NAT_PROBES, RelSpec, Verdict, eutt, merge_verdicts
from .imp import (
    Assign,
    Expr,
    If,
    Lit,
    Minus,
    Mult,
    Plus,
    Seq,
    Skip,
    Stmt,
    Var,
    While,
    denote_stmt,
    interp_imp,
)
from .values import fst, label, nat, umap


@dataclass(frozen=True)
class _Lowering:
    """Knobs for seeding compiler bugs; the default is the honest compiler."""

    drop_store: bool = False
    swap_branch: bool = False
    rhs_gap: int = 1
    drop_backedge: bool = False
    asm_default: int = 0


_CLEAN = _Lowering()

MUTATIONS = {
    "drop-store": _Lowering(drop_store=True),
    "swap-branch": _Lowering(swap_branch=True),
    "register-off-by-one": _Lowering(rhs_gap=2),
    "wrong-default": _Lowering(asm_default=1),
    "drop-backedge": _Lowering(drop_backedge=True),
}


def compile_expr(target: int, e: Expr, low: _Lowering = _CLEAN) -> list:
    """Emit code leaving the value of ``e`` in ``target``, touching only
    registers above it for subresults."""
    if isinstance(e, Lit):
        return [Imov(target, Oimm(e.value))]
    if isinstance(e, Var):
        return [Iload(target, e.name)]
    if isinstance(e, Plus):
        op = Iadd
    elif isinstance(e, Minus):
        op = Isub
    else:
        op = Imul
    code = compile_expr(target, e.lhs, low)
    code += compile_expr(target + low.rhs_gap, e.rhs, low)
    code.append(op(target, target, Oreg(target + 1)))
    return code


def compile_assign(x: str, e: Expr, low: _Lowering = _CLEAN) -> list:
    code = compile_expr(0, e, low)
    if not low.drop_store:
        code.append(Istore(x, Oreg(0)))
    return code


def _swap_branches(u: AsmUnit) -> AsmUnit:
    """Exchange the arms of every guard; they are the only ``brz`` blocks."""
    code = tuple(Block(b.instrs, Bbrz(b.branch.test, b.branch.no, b.branch.yes))
                 if isinstance(b.branch, Bbrz) else b for b in u.code)
    return AsmUnit.unchecked(u.entries, u.exits, u.internal, code)


def _lower(s: Stmt, low: _Lowering) -> AsmUnit:
    if isinstance(s, Skip):
        return asm.id_asm()
    if isinstance(s, Assign):
        return AsmUnit.unchecked(1, 1, 0, (Block(tuple(compile_assign(s.name, s.expr, low)),
                                                 Bjmp(0)),))
    if isinstance(s, Seq):
        items = []
        while isinstance(s, Seq):
            items.append(s.first)
            s = s.second
        items.append(s)
        return asm.chain_asm([_lower(item, low) for item in items])
    if isinstance(s, If):
        return asm.if_asm(compile_expr(0, s.cond, low),
                          _lower(s.then, low), _lower(s.orelse, low))
    unit = asm.while_asm(compile_expr(0, s.cond, low), _lower(s.body, low))
    if not low.drop_backedge:
        return unit
    # The entry block jumps into the guard; send it to the exit instead.
    code = list(unit.code)
    code[unit.internal] = Block((), Bjmp(unit.internal))
    return AsmUnit.unchecked(unit.entries, unit.exits, unit.internal, tuple(code))


def compile_stmt(s: Stmt, low: _Lowering = _CLEAN) -> AsmUnit:
    """Compile a statement to an asm unit with one entry and one exit.

    The units in between are built unchecked (``AsmUnit.unchecked``); the
    one returned is checked once."""
    unit = _lower(s, low)
    if low.swap_branch:
        unit = _swap_branches(unit)
    unit.check()
    return unit


@dataclass(frozen=True)
class SimConfig:
    """Budgets for the bounded-equivalence check."""

    fuel: int = 50_000
    tau_budget: int | None = None
    nat_probe_set: Sequence[int] = DEFAULT_NAT_PROBES
    samples: int = 3

    def budgets(self):
        """(tau budget, depth); the depth is the fuel."""
        tb = self.fuel if self.tau_budget is None else self.tau_budget
        return tb, self.fuel


class StateInvariantSpec:
    """Final-state relation: stores agree key-for-key, results unconstrained."""

    def relspec(self) -> RelSpec:
        return RelSpec("state-invariant",
                       lambda imp_out, asm_out: fst(imp_out) == fst(asm_out))


# What every check shares: the final-state relation, and the empty register
# map each compiled run starts from.
_STATE_INVARIANT = StateInvariantSpec().relspec()
_NO_REGS = umap()

# The variables generated programs and sampled initial stores draw from.
_VAR_POOL = ("x", "y", "z", "w", "v")


def initial_stores(cfg: SimConfig, seed: int) -> tuple:
    """The canonical empty pair plus sampled identical stores.

    Identical maps are exactly the store pairs the final-state relation
    accepts, with variables and addresses identified.  Stores are immutable,
    so calls with the same sample count, probe set and seed share one tuple.
    """
    return _initial_stores(cfg.samples, tuple(cfg.nat_probe_set), seed)


@lru_cache(maxsize=256)
def _initial_stores(samples: int, probes: tuple, seed: int) -> tuple:
    rng = random.Random(seed)
    stores = [umap()]
    for _ in range(samples):
        names = rng.sample(_VAR_POOL, rng.randint(1, len(_VAR_POOL)))
        stores.append(umap({n: nat(rng.choice(probes)) for n in names}))
    return tuple(stores)


# The last check under a mutation: (program, initial stores, the program's
# interpreted source tree from each store), or None.  See check_equivalent.
_last_source = None


def check_equivalent(s: Stmt, cfg: SimConfig = SimConfig(), seed: int = 0,
                     mutation: str | None = None) -> Verdict:
    """Compare source and compiled behavior from related initial stores.

    Proven means equivalent from each of the ``cfg.samples + 1`` checked
    stores (``initial_stores(cfg, seed)``: the empty store and the sampled
    ones), within budgets.

    A check under a seeded ``mutation`` keeps its program's interpreted
    source trees until the next check.  The next check under a mutation
    reuses them when it is for the same program object and the same store
    tuple, so a scan of several mutations denotes and interprets the source
    once.  The key is identity (``is``), never ``==``, which recurses down
    a long ``Seq`` spine: ``initial_stores`` hands equal arguments one
    tuple, and the key rests on nothing changing after construction, the
    program, its stores or its trees (a forced lazy node keeps what it
    produced, and ``eutt`` only reads trees).  Only one program's trees are
    kept; a check without a mutation drops them and keeps none of its own.
    """
    global _last_source
    low = MUTATIONS[mutation] if mutation else _CLEAN
    unit = compile_stmt(s, low)
    tau_budget, depth = cfg.budgets()
    stores = initial_stores(cfg, seed)
    # Denotations do not change, so both are built once, an Asm block on
    # its first entry, and interpreted under every initial store; their
    # read events and write sites are interned, so the routes that earlier
    # checks cached in them serve this one too.
    if not mutation:
        _last_source = None
        source = denote_stmt(s)
        sources = map(partial(interp_imp, source), stores)
    else:
        last = _last_source
        if last is None or last[0] is not s or last[1] is not stores:
            _last_source = last = None  # the last program's trees go first
            source = denote_stmt(s)
            last = _last_source = (s, stores, tuple(map(partial(interp_imp, source), stores)))
        sources = iter(last[2])
    target = asm.den_asm(unit)(label(0, 1))
    # No name holds a source tree while eutt reads it, so a clean check
    # frees the batches eutt has passed.
    return merge_verdicts(
        eutt(_STATE_INVARIANT, next(sources),
             asm.interp_asm(target, store, _NO_REGS, default=low.asm_default),
             tau_budget, depth, cfg.nat_probe_set)
        for store in stores)


# Program generation for the harness.

_COUNTER_POOL = ("c0", "c1", "c2", "c3")


def _right_nest(s: Stmt) -> Stmt:
    """Reassociate sequences to the parser's shape so pretty-printing
    round-trips structurally."""
    if isinstance(s, If):
        return If(s.cond, _right_nest(s.then), _right_nest(s.orelse))
    if isinstance(s, While):
        return While(s.cond, _right_nest(s.body))
    if not isinstance(s, Seq):
        return s
    items, stack = [], [s]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Seq):
            stack.append(cur.second)
            stack.append(cur.first)
        else:
            items.append(_right_nest(cur))
    out = items[-1]
    for item in reversed(items[:-1]):
        out = Seq(item, out)
    return out


def gen_expr(rng: random.Random, size: int, pool: Sequence[str]) -> Expr:
    if size <= 1:
        if rng.random() < 0.5:
            return Lit(rng.randint(0, 9))
        return Var(rng.choice(list(pool)))
    cls = rng.choice((Plus, Minus, Mult))
    left = rng.randint(1, size - 1)
    return cls(gen_expr(rng, left, pool), gen_expr(rng, size - left, pool))


def gen_program(size: int, loop_bound_mode: str = "bounded", seed: int = 0) -> Stmt:
    """A random well-formed statement with at most ``size`` AST nodes.

    In bounded mode every loop is a counting loop: the guard variable is
    initialized just before the loop, only the loop's own decrement touches
    it, and nested loops get small bounds so whole-program work stays small.
    """
    if loop_bound_mode not in ("bounded", "free"):
        raise ValueError(f"unknown loop mode {loop_bound_mode!r}")
    if size <= 0:
        return Skip()
    rng = random.Random(seed)
    counters = iter(_COUNTER_POOL)

    def stmt(budget: int, depth: int) -> tuple[Stmt, int]:
        if budget <= 1:
            return (Skip() if rng.random() < 0.3 else assign(budget), 1)
        pick = rng.random()
        if pick < 0.35:
            return (assign(budget), 1)
        if pick < 0.60:
            first, used1 = stmt(budget // 2, depth)
            second, used2 = stmt(budget - used1 - 1, depth)
            return (Seq(first, second), used1 + used2 + 1)
        if pick < 0.80:
            cond = gen_expr(rng, min(3, budget), _VAR_POOL)
            then, used1 = stmt(budget // 2, depth)
            orelse, used2 = stmt(budget - used1 - 2, depth)
            return (If(cond, then, orelse), used1 + used2 + 2)
        return loop(budget, depth)

    def assign(budget: int) -> Stmt:
        return Assign(rng.choice(_VAR_POOL), gen_expr(rng, max(1, min(4, budget)), _VAR_POOL))

    def loop(budget: int, depth: int) -> tuple[Stmt, int]:
        if loop_bound_mode == "free":
            body, used = stmt(max(1, budget - 3), depth + 1)
            return (While(gen_expr(rng, 2, _VAR_POOL), body), used + 3)
        counter = next(counters, None)
        if counter is None:
            return (assign(budget), 1)
        bound = rng.randint(0, 32 if depth == 0 else 3)
        body, used = stmt(max(1, budget - 5), depth + 1)
        dec = Assign(counter, Minus(Var(counter), Lit(1)))
        return (
            Seq(Assign(counter, Lit(bound)), While(Var(counter), Seq(body, dec))),
            used + 5,
        )

    out, _ = stmt(max(1, size), 0)
    return _right_nest(out)
