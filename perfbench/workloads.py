"""The three workloads: their inputs, the timed operation, and its check.

A workload builds one *pass*: a fixed list of operations that depends only
on the seed and the size.  A run repeats whole passes, so every pass of a
run, and every run of a seed, times exactly the same operations.

* ``harness`` -- ``check_equivalent`` at fuel 50,000 on ``gen_program(20)``
  programs plus the golden corpus (the proof half of criterion 7).  The
  programs are drawn from a seeded stream so that the pass holds one
  program in each percentile band of a source-work proxy, as measured on a
  fixed population of 20,000 generated programs; the top percentile band
  (single checks of one to several seconds) is left out, because one such
  program more or less would move a 30-second run by a tenth.
* ``mutants`` -- ``check_equivalent`` at ``SimConfig(fuel=4000,
  samples=2)`` on every pair of a seeded mutation and a ``gen_program(14)``
  program (criterion 7's bug scan without the short-circuit).  The
  programs fill work bands, separately for programs with and without a
  pair that exhausts the checker's budget (predicted with the reference
  machine), because those pairs cost fifty times the others.
* ``long_run`` -- ``itrees.cli.main`` running long counting loops, as Imp
  and as compiled Asm, on a narrow and a wide store.

No check uses the library as its oracle: verdicts are compared with the
reference semantics in :mod:`perfbench.reference`, final stores and step
counts with closed forms, and registers with the reference machine.
``tests/bigstep.py`` counts source steps for the report.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field
from typing import Callable

import bigstep
from itrees import asm, cli, compiler, imp
from itrees.bisim import replay_witness
from itrees.values import label, map_items, umap

from perfbench import reference

HARNESS_CFG = compiler.SimConfig(fuel=50_000)
MUTANT_CFG = compiler.SimConfig(fuel=4000, samples=2)

# Percentiles 0..100 of the harness work proxy (``program_work``) over
# gen_program(20, "bounded", s) for s in range(10_000_000, 10_020_000).
# Regenerate with ``harness_work_percentiles()``.
HARNESS_WORK_PERCENTILES = (
    12, 16, 16, 20, 20, 20, 20, 20, 20, 20, 20, 20, 24, 24, 24, 24, 24, 24,
    24, 24, 24, 24, 24, 24, 24, 28, 28, 28, 28, 28, 28, 28, 28, 28, 32, 32,
    32, 32, 36, 37, 40, 40, 44, 44, 48, 48, 52, 52, 56, 58, 62, 65, 70, 76,
    83, 92, 105, 125, 148, 172, 196, 220, 248, 275, 300, 332, 364, 393, 420,
    450, 477, 508, 540, 572, 604, 636, 672, 712, 748, 788, 828, 876, 924, 964,
    1012, 1068, 1116, 1180, 1244, 1308, 1376, 1460, 1568, 1692, 1860, 2052,
    2308, 2637, 3145, 4271, 18668,
)

# Work-proxy band limits of gen_program(14, "bounded", s) programs with no
# and with one budget-exhausting mutant pair, for s in range(20_000_000,
# 20_004_000): 60% and 40% of the programs, so 18 and 12 equal bands.  The
# 0.1% with two such pairs are not drawn.  Regenerate with
# ``mutant_work_bands()``.
MUTANT_WORK_BANDS = (
    (6, 15, 15, 15, 18, 18, 18, 18, 21, 21, 23, 26, 30, 33, 36, 42, 51, 209, 1995),
    (9, 57, 135, 209, 297, 399, 477, 579, 690, 819, 978, 1305, 9129),
)

SIZES = {
    # harness: percentile bands used, every ``harness_stride``-th of 0..98,
    # and candidates drawn at least.  mutants: every ``mutant_stride``-th
    # band of each group.  long_run: narrow loop count, wide store
    # width and loop count.  probe_scale divides long_run loop counts for
    # the per-layer probes.
    "full": dict(harness_stride=1, harness_pool=1500, corpus=True, mutant_stride=1,
                 loop_n=3000, wide_width=512, wide_n=200, probe_scale=20),
    "tiny": dict(harness_stride=20, harness_pool=0, corpus=False, mutant_stride=6,
                 loop_n=30, wide_width=16, wide_n=5, probe_scale=3),
}


def _dict_store(store) -> dict:
    return {k: v.payload for k, v in map_items(store)}


def program_work(stmt, cfg, seed: int) -> int:
    """Source work of one ``check_equivalent(stmt, cfg, seed=seed)``,
    summed over the initial stores the check uses."""
    return sum(reference.imp_work(stmt, _dict_store(s))
               for s in compiler.initial_stores(cfg, seed))


def reference_steps(stmt, stores) -> int:
    """``tests/bigstep.py`` steps of ``stmt`` summed over ``stores``."""
    total = 0
    for store in stores:
        out = bigstep.run_reference(stmt, _dict_store(store), 10**7)
        total += out[1]
    return total


def harness_work_percentiles(count: int = 20_000, base: int = 10_000_000):
    """Recompute ``HARNESS_WORK_PERCENTILES``."""
    work = sorted(program_work(compiler.gen_program(20, "bounded", s), HARNESS_CFG, s)
                  for s in range(base, base + count))
    table = [work[min(count - 1, i * count // 100)] for i in range(100)]
    return tuple(table + [work[-1]])


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` is not.

    ``check`` returns None or a failure message.  ``steps`` is the work the
    operation stands for, in the workload's step unit.  Operations with the
    same ``group`` form one request for the latency percentiles.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    steps: int
    call: str = "compiler.check_equivalent"
    group: str | None = None


@dataclass
class Probe:
    """A program the per-layer probes take apart."""

    name: str
    stmt: object
    text: str
    cfg: compiler.SimConfig
    check_seed: int = 0
    mutations: tuple = ()


@dataclass
class Pass:
    """A workload's operations and probe programs for one seed.

    ``build`` leaves in ``ops`` what set-up produced; ``finish`` turns it
    into :class:`Op` values, adding the reference bookkeeping that is not
    part of set-up."""

    workload: str
    ops: list
    probes: list
    gen_seeds: list = field(default_factory=list)
    gen_size: int = 20
    after_pass: Callable[[list], list] | None = None


def _corpus(root: str):
    corpus_dir = os.path.join(root, "tests", "golden", "corpus")
    for name in sorted(os.listdir(corpus_dir)):
        if name.endswith(".imp"):
            with open(os.path.join(corpus_dir, name), encoding="utf-8") as fh:
                yield name[:-4], fh.read()


# harness

def _harness_check(verdict):
    return None if verdict.proven else f"verdict {verdict!r}, expected Proven"


def _harness_op(name, stmt, seed):
    return Op(
        name,
        lambda: compiler.check_equivalent(stmt, HARNESS_CFG, seed=seed),
        _harness_check,
        reference_steps(stmt, compiler.initial_stores(HARNESS_CFG, seed)),
    )


def select_harness(seed: int, stride: int, pool: int):
    """Fill percentile bands 0, stride, 2*stride, ... (< 99) of the work
    proxy with the first programs of the seeded stream that fall in them.

    At least ``pool`` candidates are drawn whatever the seed, so set-up
    does the same work on every seed.  Returns ``[(band, program seed,
    program)]`` in band order."""
    q = HARNESS_WORK_PERCENTILES
    open_bands = list(range(0, 99, stride))
    chosen = {}
    s = first = 1_000_000 * (seed + 1)
    while open_bands or s - first < pool:
        prog = compiler.gen_program(20, "bounded", s)
        work = program_work(prog, HARNESS_CFG, s)
        for band in open_bands:
            if q[band] <= work <= q[band + 1]:
                chosen[band] = (s, prog)
                open_bands.remove(band)
                break
        s += 1
    return [(band, *chosen[band]) for band in sorted(chosen)]


def build_harness(root: str, seed: int, size: dict) -> Pass:
    picked = select_harness(seed, size["harness_stride"], size["harness_pool"])
    ops, probes = [], []
    for band, s, prog in picked:
        ops.append((f"band{band:02d}", prog, s))
    if size["corpus"]:
        corpus = [(name, imp.parse_imp(text)) for name, text in _corpus(root)]
    else:
        corpus = [(name, imp.parse_imp(text)) for name, text in list(_corpus(root))[:2]]
    for name, prog in corpus:
        ops.append((f"corpus:{name}", prog, 0))
    # Probe about ten bands spread over the range and the first corpus programs.
    for band, s, prog in picked[::max(1, len(picked) // 10)]:
        probes.append(Probe(f"band{band:02d}", prog, imp.pretty_stmt(prog), HARNESS_CFG, s))
    for name, prog in corpus[:3]:
        probes.append(Probe(f"corpus:{name}", prog, imp.pretty_stmt(prog), HARNESS_CFG, 0))
    return Pass("harness", ops, probes, gen_seeds=[s for _, s, _ in picked], gen_size=20)


def finish_harness(p: Pass) -> None:
    """Attach reference step counts (benchmark bookkeeping, not set-up)."""
    p.ops = [_harness_op(name, prog, s) for name, prog, s in p.ops]


# mutants

def mutant_trees(stmt, mutation: str, store):
    """Fresh source and mutated-target trees, as ``check_equivalent`` builds
    them for one initial store."""
    low = compiler.MUTATIONS[mutation]
    unit = compiler.compile_stmt(stmt, low)
    t_imp = imp.interp_imp(imp.denote_stmt(stmt), store)
    t_asm = asm.interp_asm(asm.den_asm(unit)(label(0, unit.entries)), store, umap(),
                           default=low.asm_default)
    return t_imp, t_asm


def replays(stmt, mutation: str, witness) -> bool:
    """Does the witness replay, on fresh trees, from one of the stores the
    check starts from?"""
    rel = compiler.StateInvariantSpec().relspec()
    for store in compiler.initial_stores(MUTANT_CFG, 0):
        t_imp, t_asm = mutant_trees(stmt, mutation, store)
        if replay_witness(rel, t_imp, t_asm, witness):
            return True
    return False


def predict_mutants(stmt):
    """Reference-predicted verdict of each mutation on ``stmt``."""
    stores = [_dict_store(s) for s in compiler.initial_stores(MUTANT_CFG, 0)]
    out = {}
    for mutation, low in compiler.MUTATIONS.items():
        unit = compiler.compile_stmt(stmt, low)
        out[mutation] = reference.mutant_class(stmt, unit, low.asm_default, stores)[0]
    return out


def select_mutants(seed: int, stride: int):
    """Programs for work bands 0, stride, 2*stride, ... of each group of
    ``MUTANT_WORK_BANDS``, taking the first programs of the seeded stream
    that fit: one per band without a budget-exhausting pair, two per band
    with one.

    Pairs that exhaust the checker's budget cost fifty times the others, so
    their number is fixed, and large enough that the tail percentile falls
    among them rather than on the edge of their cluster.  The top band of
    each group is left out: its programs run long enough that their other
    pairs hit the budget too, and one of them more or less moves a run by a
    tenth.  Returns ``[(program seed, program, predicted verdicts)]``, the
    two groups interleaved."""
    open_bands = [list(range(0, len(b) - 2, stride)) * per
                  for b, per in zip(MUTANT_WORK_BANDS, (1, 2))]
    chosen = [[], []]
    s = 2_000_000 * (seed + 1)
    while open_bands[0] or open_bands[1]:
        prog = compiler.gen_program(14, "bounded", s)
        work = program_work(prog, MUTANT_CFG, 0)
        fits = [[b for b in open_bands[g] if MUTANT_WORK_BANDS[g][b] <= work
                 <= MUTANT_WORK_BANDS[g][b + 1]] for g in (0, 1)]
        if fits[0] or fits[1]:
            predicted = predict_mutants(prog)
            group = sum(v == "unknown" for v in predicted.values())
            if group < 2 and fits[group]:
                chosen[group].append((fits[group][0], s, prog, predicted))
                open_bands[group].remove(fits[group][0])
        s += 1
    groups = [[c[1:] for c in sorted(chosen[g], key=lambda c: c[:2])] for g in (0, 1)]
    count, ones = len(groups[0]) + len(groups[1]), len(groups[1])
    order = []
    for i in range(count):
        # Spread the second group evenly through the pass.
        g = 1 if (i + 1) * ones // count > i * ones // count else 0
        order.append(groups[g].pop(0))
    return order


def mutant_work_bands(count: int = 4000, base: int = 20_000_000):
    """Recompute ``MUTANT_WORK_BANDS``."""
    groups = ([], [], [])
    for s in range(base, base + count):
        prog = compiler.gen_program(14, "bounded", s)
        unknowns = sum(v == "unknown" for v in predict_mutants(prog).values())
        groups[unknowns].append(program_work(prog, MUTANT_CFG, 0))
    out = []
    for work, bands in zip(groups, (18, 12)):
        work.sort()
        n = len(work)
        out.append(tuple(work[min(n - 1, i * n // bands)] for i in range(bands)) + (work[-1],))
    return tuple(out)


def _mutant_check(stmt, mutation, predicted):
    def check(verdict):
        status = verdict.status.value
        if status not in (predicted, "unknown"):
            return f"verdict {verdict!r}, reference semantics say {predicted}"
        if verdict.refuted and not replays(stmt, mutation, verdict.witness):
            return "refutation witness does not replay"
        return None

    return check


def build_mutants(root: str, seed: int, size: dict) -> Pass:
    picked = select_mutants(seed, size["mutant_stride"])
    ops, probes = [], []
    for s, prog, predicted in picked:
        for mutation in compiler.MUTATIONS:
            ops.append((s, prog, mutation, predicted[mutation]))
    for s, prog, predicted in picked[:6]:
        probes.append(Probe(f"seed{s}", prog, imp.pretty_stmt(prog), MUTANT_CFG, 0,
                            tuple(compiler.MUTATIONS)))
    return Pass("mutants", ops, probes, gen_seeds=[s for s, _, _ in picked], gen_size=14,
                after_pass=_all_mutations_refuted)


def finish_mutants(p: Pass) -> None:
    stores = compiler.initial_stores(MUTANT_CFG, 0)
    steps = {}
    out = []
    for s, prog, mutation, predicted in p.ops:
        if s not in steps:
            steps[s] = reference_steps(prog, stores)
        out.append(Op(
            f"seed{s}:{mutation}",
            lambda prog=prog, mutation=mutation:
                compiler.check_equivalent(prog, MUTANT_CFG, mutation=mutation),
            _mutant_check(prog, mutation, predicted),
            steps[s],
            group=f"seed{s}",
        ))
    p.ops = out


def _all_mutations_refuted(results) -> list:
    """Pass-level check: every mutation is refuted at least once."""
    refuted = {m: 0 for m in compiler.MUTATIONS}
    for op, verdict in results:
        if verdict is not None and verdict.refuted:
            refuted[op.name.split(":", 1)[1]] += 1
    return [f"mutation {m} never refuted" for m, n in refuted.items() if n == 0]


# long_run

def capture(argv) -> tuple[int, str]:
    """Run the command line in-process with standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _parse_store(lines) -> dict:
    out = {}
    for line in lines:
        key, _, value = line.partition("=")
        out[key] = int(value)
    return out


def _imp_check(steps: int, env: dict):
    def check(result):
        code, text = result
        lines = text.splitlines()
        if code != 0 or lines[:2] != ["outcome: finished", f"steps: {steps}"]:
            return f"exit {code}, head {lines[:2]}, expected {steps} steps"
        got = _parse_store(lines[2:])
        return None if got == env else "final store differs from the closed form"

    return check


def _asm_check(steps: int, mem: dict, regs: dict):
    def check(result):
        code, text = result
        lines = text.splitlines()
        head = ["outcome: finished", f"steps: {steps}", "exit: L0/1", "[mem]"]
        if code != 0 or lines[:4] != head or "[reg]" not in lines:
            return f"exit {code}, head {lines[:4]}, expected {steps} steps"
        cut = lines.index("[reg]")
        if _parse_store(lines[4:cut]) != mem:
            return "final memory differs from the closed form"
        got_regs = {int(k[1:]): v for k, v in _parse_store(lines[cut + 1:]).items()}
        return None if got_regs == regs else "final registers differ from the reference machine"

    return check


def long_run_programs(seed: int, size: dict, scale: int = 1):
    """``[(name, Imp source, final store, (imp steps, asm steps))]``."""
    n, width, wn = size["loop_n"] // scale, size["wide_width"], size["wide_n"] // scale
    x0 = seed % 100
    return [
        ("loop", reference.loop_source(n, x0), reference.loop_final(n, x0),
         reference.loop_steps(n)),
        ("wide", reference.wide_source(width, wn, seed), reference.wide_final(width, wn, seed),
         reference.wide_steps(width, wn)),
    ]


def build_long_run(root: str, seed: int, size: dict, workdir: str) -> Pass:
    os.makedirs(workdir, exist_ok=True)
    ops, probes = [], []
    for name, src, env, steps in long_run_programs(seed, size):
        stmt = imp.parse_imp(src)
        asm_text = asm.print_asm(compiler.compile_stmt(stmt))
        imp_path = os.path.join(workdir, f"{name}.imp")
        asm_path = os.path.join(workdir, f"{name}.asm")
        for path, text in ((imp_path, src), (asm_path, asm_text)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        ops.append((name, imp_path, asm_path, asm.parse_asm(asm_text), env, steps))
    for name, src, _, _ in long_run_programs(seed, size, size["probe_scale"]):
        probes.append(Probe(name, imp.parse_imp(src), src, HARNESS_CFG, 0))
    return Pass("long_run", ops, probes,
                gen_seeds=[3_000_000 * (seed + 1) + i for i in range(10)], gen_size=20)


def finish_long_run(p: Pass) -> None:
    out = []
    for name, imp_path, asm_path, unit, env, (imp_steps, asm_steps) in p.ops:
        # The memory is checked against the closed form, the registers
        # against the reference machine (which keeps its own arithmetic).
        regs = reference.run_asm(unit, {}, 0, 10**7)[3]
        out.append(Op(f"run-imp:{name}", lambda path=imp_path: capture(["run-imp", path]),
                      _imp_check(imp_steps, env), imp_steps, "cli.main"))
        out.append(Op(f"run-asm:{name}", lambda path=asm_path: capture(["run-asm", path]),
                      _asm_check(asm_steps, env, regs), asm_steps, "cli.main"))
    p.ops = out


def build(workload: str, root: str, seed: int, size_name: str, workdir: str) -> Pass:
    size = SIZES[size_name]
    if workload == "harness":
        return build_harness(root, seed, size)
    if workload == "mutants":
        return build_mutants(root, seed, size)
    return build_long_run(root, seed, size, workdir)


def finish(p: Pass) -> None:
    {"harness": finish_harness, "mutants": finish_mutants,
     "long_run": finish_long_run}[p.workload](p)


WORKLOADS = ("harness", "mutants", "long_run")
