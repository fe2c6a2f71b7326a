"""Reference semantics written directly on syntax and dicts.

Nothing here builds or observes an interaction tree, so these functions can
rank, select and check what the library computes without sharing code with
it.  They serve three purposes:

* ``imp_work`` counts the source-level work a program does (variable reads,
  writes, operators and loop tests), the cost proxy used to stratify the
  ``harness`` programs;
* ``run_asm`` executes an Asm unit with a configurable default for absent
  cells, which ``mutant_class`` uses to predict whether a seeded compiler
  bug diverges (an Unknown verdict that exhausts the checker's budget) or
  changes the final store (a refutation);
* ``wide_source``/``loop_source`` and their closed forms give the
  ``long_run`` programs and their exact final stores and step counts.
"""

from __future__ import annotations

NAT_MASK = (1 << 64) - 1


def _arith(kind: str, a: int, b: int) -> int:
    if kind == "Plus":
        return (a + b) & NAT_MASK
    if kind == "Minus":
        return a - b if a >= b else 0
    return (a * b) & NAT_MASK


def imp_work(stmt, env: dict) -> int:
    """Run ``stmt`` over ``env`` in place; return reads + writes + operators
    + loop tests executed."""
    work = 0

    def expr(e) -> int:
        nonlocal work
        kind = type(e).__name__
        if kind == "Lit":
            return e.value
        if kind == "Var":
            work += 1
            return env.get(e.name, 0)
        a, b = expr(e.lhs), expr(e.rhs)
        work += 1
        return _arith(kind, a, b)

    stack = [stmt]
    while stack:
        s = stack.pop()
        kind = type(s).__name__
        if kind == "Assign":
            env[s.name] = expr(s.expr)
            work += 1
        elif kind == "Seq":
            stack.append(s.second)
            stack.append(s.first)
        elif kind == "If":
            stack.append(s.then if expr(s.cond) != 0 else s.orelse)
        elif kind == "While":
            work += 1
            if expr(s.cond) != 0:
                stack.append(s)
                stack.append(s.body)
    return work


def run_asm(unit, mem: dict, default: int, max_blocks: int):
    """Execute ``unit`` from entry 0.

    Returns ``(outcome, exit_label, mem, regs)`` with outcome one of
    "exit", "halt" or "timeout" (more than ``max_blocks`` blocks run).
    Absent registers and memory cells read ``default``.
    """
    mem, regs = dict(mem), {}

    def operand(op) -> int:
        if type(op).__name__ == "Oreg":
            return regs.get(op.reg, default)
        return op.value

    at = unit.internal
    for _ in range(max_blocks):
        blk = unit.code[at]
        for i in blk.instrs:
            kind = type(i).__name__
            if kind == "Imov":
                regs[i.dst] = operand(i.src)
            elif kind == "Iload":
                regs[i.dst] = mem.get(i.addr, default)
            elif kind == "Istore":
                mem[i.addr] = operand(i.src)
            else:
                op = {"Iadd": "Plus", "Isub": "Minus", "Imul": "Mult"}[kind]
                regs[i.dst] = _arith(op, regs.get(i.lhs, default), operand(i.rhs))
        b = blk.branch
        kind = type(b).__name__
        if kind == "Bhalt":
            return "halt", None, mem, regs
        if kind == "Bjmp":
            target = b.target
        else:
            target = b.yes if regs.get(b.test, default) == 0 else b.no
        if target >= unit.internal:
            return "exit", target - unit.internal, mem, regs
        at = target
    return "timeout", None, mem, regs


def mutant_class(stmt, unit, default: int, stores, max_blocks: int = 3000):
    """Predict a mutant check's verdict from the reference semantics.

    Stores are tried in order as ``check_equivalent`` does: a store on which the
    mutated unit runs past ``max_blocks`` would exhaust the checker's
    budget (Unknown), a store whose final memory differs from the source
    program's final store is a refutation and ends the check.
    Returns ``(verdict, diverging_stores)`` with verdict "proven",
    "refuted" or "unknown".
    """
    diverging = 0
    for store in stores:
        env = dict(store)
        imp_work(stmt, env)
        outcome, _, mem, _ = run_asm(unit, store, default, max_blocks)
        if outcome == "timeout":
            diverging += 1
            continue
        if outcome != "exit" or mem != env:
            return "refuted", diverging
    return ("unknown" if diverging else "proven"), diverging


# long_run programs.  The step counts are the ``steps:`` lines the command
# line prints, as linear functions of the program's shape.  They are the
# counts the library printed when this benchmark was written, frozen here
# as the oracle the way the CLI golden files freeze theirs.

def loop_source(n: int, x0: int) -> str:
    return f"c := {n}; x := {x0}; while c do x := x + c; c := c - 1 end\n"


def loop_final(n: int, x0: int) -> dict:
    return {"c": 0, "x": (x0 + n * (n + 1) // 2) & NAT_MASK}


def loop_steps(n: int) -> tuple[int, int]:
    """(run-imp steps, run-asm steps) of ``loop_source(n, _)``."""
    return 9 + 19 * n, 37 + 75 * n


def wide_inits(width: int, seed: int) -> list[int]:
    return [(i * 37 + seed * 11) % 100 for i in range(width)]


def wide_source(width: int, n: int, seed: int) -> str:
    """``width`` live variables, then a counting loop that keeps them all in
    the store while it updates two of them."""
    lines = [f"v{i:03d} := {v}" for i, v in enumerate(wide_inits(width, seed))]
    last = f"v{width - 1:03d}"
    lines += [
        f"c := {n}",
        "x := 0",
        f"while c do x := x + c; v000 := v000 + c; {last} := {last} + 1; c := c - 1 end",
    ]
    return ";\n".join(lines) + "\n"


def wide_final(width: int, n: int, seed: int) -> dict:
    env = {f"v{i:03d}": v for i, v in enumerate(wide_inits(width, seed))}
    tri = n * (n + 1) // 2
    env["v000"] += tri
    env[f"v{width - 1:03d}"] += n
    env["c"] = 0
    env["x"] = tri
    return env


def wide_steps(width: int, n: int) -> tuple[int, int]:
    """(run-imp steps, run-asm steps) of ``wide_source(width, n, _)``."""
    return 9 + 3 * width + 34 * n, 37 + 12 * width + 138 * n
