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
from dataclasses import dataclass, field
from typing import Sequence

from . import asm
from .asm import (
    AsmUnit,
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
from .values import UValue, fst, label, nat, snd, umap


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


def _cond_asm(e, low: _Lowering) -> AsmUnit:
    unit = asm.cond_asm(e)
    if not low.swap_branch:
        return unit
    blk = unit.code[0]
    return AsmUnit(1, 2, 0, (Block(blk.instrs, asm.Bbrz(blk.branch.test,
                                                        blk.branch.no,
                                                        blk.branch.yes)),))


def _if_asm(e, t: AsmUnit, f: AsmUnit, low: _Lowering) -> AsmUnit:
    a = t.exits
    both = asm.app_asm(t, f)
    merged = asm.relabel_asm((0, 1), tuple(range(a)) + tuple(range(a)), both, a)
    return asm.seq_asm(_cond_asm(e, low), merged)


def _while_asm(e, p: AsmUnit, low: _Lowering) -> AsmUnit:
    body = _if_asm(e, asm.relabel_asm((0,), (0,), p, 2),
                   asm.pure_asm(1, 2, lambda _: 1), low)
    reenter_target = 1 if low.drop_backedge else 0
    reenter = asm.pure_asm(1, 2, lambda _: reenter_target)
    both = asm.app_asm(body, reenter)
    merged = asm.relabel_asm((0, 1), (0, 1, 0, 1), both, 2)
    return asm.loop_asm(merged, 1)


def compile_stmt(s: Stmt, low: _Lowering = _CLEAN) -> AsmUnit:
    """Compile a statement to an asm unit with one entry and one exit."""
    if isinstance(s, Skip):
        return asm.id_asm()
    if isinstance(s, Assign):
        return AsmUnit(1, 1, 0, (Block(tuple(compile_assign(s.name, s.expr, low)),
                                       Bjmp(0)),))
    if isinstance(s, Seq):
        return asm.seq_asm(compile_stmt(s.first, low), compile_stmt(s.second, low))
    if isinstance(s, If):
        return _if_asm(compile_expr(0, s.cond, low),
                       compile_stmt(s.then, low),
                       compile_stmt(s.orelse, low), low)
    return _while_asm(compile_expr(0, s.cond, low), compile_stmt(s.body, low), low)


@dataclass(frozen=True)
class SimConfig:
    """Budgets for the bounded-equivalence check."""

    fuel: int = 50_000
    tau_budget: int | None = None
    depth: int | None = None
    nat_probe_set: Sequence[int] = DEFAULT_NAT_PROBES
    samples: int = 3
    var_pool: Sequence[str] = ("x", "y", "z", "w", "v")

    def budgets(self):
        tb = self.fuel if self.tau_budget is None else self.tau_budget
        dp = self.fuel if self.depth is None else self.depth
        return tb, dp


@dataclass(frozen=True)
class StateInvariantSpec:
    """Final-state relation: stores agree key-for-key, results unconstrained."""

    rab: RelSpec = field(default_factory=lambda: RelSpec("TT", lambda a, b: True))

    def relspec(self) -> RelSpec:
        rab = self.rab

        def relates(imp_out: UValue, asm_out: UValue) -> bool:
            env = fst(imp_out)
            mem = fst(asm_out)
            return env == mem and rab.relates(snd(imp_out), snd(snd(asm_out)))

        return RelSpec("state-invariant", relates)


def initial_stores(cfg: SimConfig, seed: int):
    """The canonical empty pair plus sampled identical stores.

    Identical maps are exactly the store pairs the final-state relation
    accepts, with variables and addresses identified.
    """
    rng = random.Random(seed)
    stores = [umap()]
    for _ in range(cfg.samples):
        names = rng.sample(list(cfg.var_pool), rng.randint(1, len(cfg.var_pool)))
        stores.append(umap({n: nat(rng.choice(list(cfg.nat_probe_set)))
                            for n in names}))
    return stores


def check_equivalent(s: Stmt, cfg: SimConfig = SimConfig(), seed: int = 0,
                     mutation: str | None = None) -> Verdict:
    """Compare source and compiled behavior from related initial stores."""
    low = MUTATIONS[mutation] if mutation else _CLEAN
    unit = compile_stmt(s, low)
    rel = StateInvariantSpec().relspec()
    tau_budget, depth = cfg.budgets()
    verdicts = []
    for store in initial_stores(cfg, seed):
        t_imp = interp_imp(denote_stmt(s), store)
        t_asm = asm.interp_asm(asm.den_asm(unit)(label(0, 1)), store, umap(),
                               default=low.asm_default)
        out = eutt(rel, t_imp, t_asm, tau_budget, depth, cfg.nat_probe_set)
        if out.refuted:
            return out
        verdicts.append(out)
    return merge_verdicts(verdicts)


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
            cond = gen_expr(rng, min(3, budget), _vars())
            then, used1 = stmt(budget // 2, depth)
            orelse, used2 = stmt(budget - used1 - 2, depth)
            return (If(cond, then, orelse), used1 + used2 + 2)
        return loop(budget, depth)

    def assign(budget: int) -> Stmt:
        return Assign(rng.choice(_vars()), gen_expr(rng, max(1, min(4, budget)), _vars()))

    def _vars():
        return ("x", "y", "z", "w", "v")

    def loop(budget: int, depth: int) -> tuple[Stmt, int]:
        if loop_bound_mode == "free":
            body, used = stmt(max(1, budget - 3), depth + 1)
            return (While(gen_expr(rng, 2, _vars()), body), used + 3)
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
