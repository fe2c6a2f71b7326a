"""Independent reference interpreters used as differential oracles.

The Imp interpreter is written directly on the syntax and a dict
environment, the Asm machine directly on blocks and dict stores; neither
touches interaction trees nor the library's arithmetic, so agreement with
the tree pipelines is a real check rather than the same code twice.  Both
compute on 64-bit naturals: addition and multiplication wrap, and
subtraction saturates at 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from itrees import imp
from itrees.asm import (
    AsmUnit,
    Bhalt,
    Bjmp,
    Iadd,
    Iload,
    Imov,
    Imul,
    Isub,
    Oreg,
)

_WORD = 2 ** 64


def _add(a: int, b: int) -> int:
    return (a + b) % _WORD


def _sub(a: int, b: int) -> int:
    return max(a - b, 0)


def _mul(a: int, b: int) -> int:
    return (a * b) % _WORD


class OutOfSteps(Exception):
    pass


def eval_expr(e, env: dict) -> int:
    if isinstance(e, imp.Lit):
        return e.value
    if isinstance(e, imp.Var):
        return env.get(e.name, 0)
    a, b = eval_expr(e.lhs, env), eval_expr(e.rhs, env)
    if isinstance(e, imp.Plus):
        return _add(a, b)
    if isinstance(e, imp.Minus):
        return _sub(a, b)
    return _mul(a, b)


def exec_stmt(s, env: dict, limit: int) -> int:
    """Run ``s`` in-place over ``env``; returns steps spent, raising
    :class:`OutOfSteps` past ``limit``.  One step per statement node
    executed plus one per loop test."""
    steps = 1
    if steps > limit:
        raise OutOfSteps
    if isinstance(s, imp.Skip):
        return steps
    if isinstance(s, imp.Assign):
        env[s.name] = eval_expr(s.expr, env)
        return steps
    if isinstance(s, imp.Seq):
        steps += exec_stmt(s.first, env, limit - steps)
        steps += exec_stmt(s.second, env, limit - steps)
        return steps
    if isinstance(s, imp.If):
        branch = s.then if eval_expr(s.cond, env) != 0 else s.orelse
        return steps + exec_stmt(branch, env, limit - steps)
    while True:
        steps += 1
        if steps > limit:
            raise OutOfSteps
        if eval_expr(s.cond, env) == 0:
            return steps
        steps += exec_stmt(s.body, env, limit - steps)


def run_reference(s, env0: dict, limit: int):
    """(final env, steps) or None when the step limit is exceeded."""
    env = dict(env0)
    try:
        steps = exec_stmt(s, env, limit)
    except OutOfSteps:
        return None
    return env, steps


@dataclass
class MachineResult:
    outcome: str  # "exit" | "halt" | "timeout"
    exit_label: int | None
    mem: dict
    regs: dict


def _operand(op, regs: dict) -> int:
    return regs.get(op.reg, 0) if isinstance(op, Oreg) else op.value


def run_machine(u: AsmUnit, entry: int, mem: dict, regs: dict,
                max_blocks: int = 100_000) -> MachineResult:
    """Execute a unit directly: block index -> instructions -> branch."""
    mem, regs = dict(mem), dict(regs)
    at = u.internal + entry
    for _ in range(max_blocks):
        blk = u.code[at]
        for i in blk.instrs:
            if isinstance(i, Imov):
                regs[i.dst] = _operand(i.src, regs)
            elif isinstance(i, Iadd):
                regs[i.dst] = _add(regs.get(i.lhs, 0), _operand(i.rhs, regs))
            elif isinstance(i, Isub):
                regs[i.dst] = _sub(regs.get(i.lhs, 0), _operand(i.rhs, regs))
            elif isinstance(i, Imul):
                regs[i.dst] = _mul(regs.get(i.lhs, 0), _operand(i.rhs, regs))
            elif isinstance(i, Iload):
                regs[i.dst] = mem.get(i.addr, 0)
            else:
                mem[i.addr] = _operand(i.src, regs)
        b = blk.branch
        if isinstance(b, Bhalt):
            return MachineResult("halt", None, mem, regs)
        if isinstance(b, Bjmp):
            target = b.target
        else:
            target = b.yes if regs.get(b.test, 0) == 0 else b.no
        if target >= u.internal:
            return MachineResult("exit", target - u.internal, mem, regs)
        at = target
    return MachineResult("timeout", None, mem, regs)
