"""Command-line front door.

Subcommands: run-imp, compile, run-asm, trace, check-equiv, demo-echo.
Outputs are deterministic (maps print in key order) so they can be frozen
as golden files; check-equiv exits 0 for proven, 1 for refuted, 2 for
unknown and 3 for unusable input, where the other subcommands exit 1.
"""

from __future__ import annotations

import argparse
import sys

from . import compiler
from .asm import AsmSyntaxError, BoundViolation, den_asm, interp_asm, parse_asm, print_asm
from .bisim import describe_witness
from .core import RetO, TauO, VisO, observe, run_to_head
from .imp import ImpSyntaxError, denote_stmt, env_of, interp_imp, parse_imp
from .samples import echo
from .traces import enumerate_traces, render_trace
from .values import (
    AnswerTagMismatch,
    UValue,
    fst,
    label,
    map_items,
    nat,
    render_value,
    snd,
    umap,
    unit,
)

DEFAULT_FUEL = 1_000_000


def _print_map(m: UValue, reg_style: bool = False):
    for key, value in map_items(m):
        name = f"r{key}" if reg_style else str(key)
        print(f"{name}={render_value(value)}")


def cmd_run_imp(path: str, fuel: int) -> int:
    stmt = parse_imp(_read(path))
    tree = interp_imp(denote_stmt(stmt), env_of())
    ob, steps = run_to_head(tree, fuel)
    if type(ob) is RetO:
        print("outcome: finished")
        print(f"steps: {steps}")
        _print_map(fst(ob.value))
    else:
        print("outcome: out-of-fuel")
        print(f"steps: {steps}")
    return 0


def cmd_compile(path: str, out_path: str | None) -> int:
    stmt = parse_imp(_read(path))
    text = print_asm(compiler.compile_stmt(stmt))
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def cmd_run_asm(path: str, fuel: int) -> int:
    unit = parse_asm(_read(path))
    if unit.entries < 1:
        raise BoundViolation("unit has no entry to run")
    tree = interp_asm(den_asm(unit)(label(0, unit.entries)), umap(), umap())
    ob, steps = run_to_head(tree, fuel)
    if type(ob) is RetO:
        mem = fst(ob.value)
        regs = fst(snd(ob.value))
        exit_label = snd(snd(ob.value))
        print("outcome: finished")
        print(f"steps: {steps}")
        print(f"exit: {render_value(exit_label)}")
        print("[mem]")
        _print_map(mem)
        print("[reg]")
        _print_map(regs, reg_style=True)
    elif type(ob) is VisO:
        print("outcome: halted")
        print(f"steps: {steps}")
    else:
        print("outcome: out-of-fuel")
        print(f"steps: {steps}")
    return 0


def cmd_trace(path: str, event_depth: int, tau_budget: int) -> int:
    src = _read(path)
    if path.endswith(".asm"):
        unit = parse_asm(src)
        tree = den_asm(unit)(label(0, unit.entries))
    else:
        tree = denote_stmt(parse_imp(src))
    for tr in sorted(render_trace(t) for t in enumerate_traces(tree, event_depth, tau_budget)):
        print(tr)
    return 0


def cmd_check_equiv(path: str, fuel: int, tau_budget: int | None, seed: int) -> int:
    stmt = parse_imp(_read(path))
    cfg = compiler.SimConfig(fuel=fuel, tau_budget=tau_budget)
    verdict = compiler.check_equivalent(stmt, cfg, seed=seed)
    if verdict.proven:
        print("proven")
        return 0
    if verdict.refuted:
        print(f"refuted: {describe_witness(verdict.witness)}")
        return 1
    print(f"unknown: {verdict.reason.value if verdict.reason else '?'}")
    return 2


def cmd_demo_echo(stdin=None, limit: int | None = None) -> int:
    """Drive the echo tree against the terminal: each input line's integer
    is written straight back out."""
    stdin = stdin or sys.stdin
    tree = echo()
    answered = 0
    while True:
        ob = observe(tree)
        if type(ob) is TauO:
            tree = ob.rest
            continue
        if type(ob) is RetO:
            return 0
        event = ob.event
        if event.kind == "Input":
            if limit is not None and answered >= limit:
                return 0
            line = stdin.readline()
            if not line:
                return 0
            try:
                n = int(line.strip())
            except ValueError:
                print(f"not a number: {line.strip()!r}", file=sys.stderr)
                return 1
            answered += 1
            tree = ob.k(nat(n))
        else:
            print(render_value(event.args[0]))
            tree = ob.k(unit())


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="itrees")
    sub = p.add_subparsers(dest="command", required=True)

    run_imp = sub.add_parser("run-imp", help="run an Imp program to completion or fuel")
    run_imp.add_argument("path")
    run_imp.add_argument("--fuel", type=int, default=DEFAULT_FUEL)

    comp = sub.add_parser("compile", help="compile an Imp program to Asm text")
    comp.add_argument("path")
    comp.add_argument("-o", "--output", default=None)

    run_asm = sub.add_parser("run-asm", help="run an Asm unit from entry 0")
    run_asm.add_argument("path")
    run_asm.add_argument("--fuel", type=int, default=DEFAULT_FUEL)

    trace = sub.add_parser("trace", help="enumerate bounded traces of a program")
    trace.add_argument("path")
    trace.add_argument("--event-depth", type=int, default=3)
    trace.add_argument("--tau-budget", type=int, default=200)

    check = sub.add_parser("check-equiv", help="check a program against its compilation")
    check.add_argument("path")
    check.add_argument("--fuel", type=int, default=50_000)
    check.add_argument("--tau-budget", type=int, default=None)
    check.add_argument("--seed", type=int, default=0)

    sub.add_parser("demo-echo", help="echo integers from stdin, forever")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run-imp":
            return cmd_run_imp(args.path, args.fuel)
        if args.command == "compile":
            return cmd_compile(args.path, args.output)
        if args.command == "run-asm":
            return cmd_run_asm(args.path, args.fuel)
        if args.command == "trace":
            return cmd_trace(args.path, args.event_depth, args.tau_budget)
        if args.command == "check-equiv":
            return cmd_check_equiv(args.path, args.fuel, args.tau_budget, args.seed)
        return cmd_demo_echo()
    except (ImpSyntaxError, AsmSyntaxError, BoundViolation, AnswerTagMismatch) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3 if args.command == "check-equiv" else 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3 if args.command == "check-equiv" else 1


if __name__ == "__main__":
    sys.exit(main())
