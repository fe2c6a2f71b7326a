"""Per-layer probes, run only when tracing.

Each probe times calls into one module's public functions from outside and
counts the work they did.  Program probes take the workload's probe
programs apart stage by stage (generate, parse, compile, denote, interpret,
check); micro probes time the tree core, the value layer, events and
``interp_map`` on synthetic inputs of a fixed size.
"""

from __future__ import annotations

import os
import statistics
import time

import bigstep
from itrees import asm, compiler, imp
from itrees.bisim import describe_witness, eutt
from itrees.combinators import KTree, iterate
from itrees.core import RetO, TauO, bind, observe, ret, run_to_head, spin, trigger
from itrees.events import LEFT, event, map_default_sig
from itrees.interp import interp_map
from itrees.values import NAT_T, SYM_T, inl, inr, label, map_get, map_set, nat, sym, umap, unit

from perfbench import workloads

FUEL = 10**8

MICRO_SIZES = {
    "full": dict(spin=200_000, bind=100_000, iterate=50_000, map_small=20_000,
                 map_wide=2_000, events=50_000, interp_small=5_000, interp_wide=1_000, reps=3),
    "tiny": dict(spin=2_000, bind=1_000, iterate=500, map_small=200, map_wide=20,
                 events=500, interp_small=50, interp_wide=10, reps=1),
}


class ProbeFailure(Exception):
    pass


def _timed(tracer, name, fn):
    with tracer.span(name):
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0


def drive_imp(tree):
    """Observe an Imp denotation to its end, answering its variable events
    from a dict.  Returns (final store, nodes observed)."""
    env, nodes = {}, 0
    while True:
        ob = observe(tree)
        nodes += 1
        kind = type(ob)
        if kind is TauO:
            tree = ob.rest
        elif kind is RetO:
            return env, nodes
        else:
            e = ob.event
            if e.kind == "GetVar":
                tree = ob.k(nat(env.get(e.args[0].payload, 0)))
            elif e.kind == "SetVar":
                env[e.args[0].payload] = e.args[1].payload
                tree = ob.k(unit())
            else:
                raise ProbeFailure(f"unexpected Imp event {e!r}")


def drive_asm(tree):
    """Observe an Asm denotation to its end, answering register and memory
    events from dicts.  Returns (memory, nodes observed)."""
    mem, regs, nodes = {}, {}, 0
    while True:
        ob = observe(tree)
        nodes += 1
        kind = type(ob)
        if kind is TauO:
            tree = ob.rest
        elif kind is RetO:
            return mem, nodes
        else:
            e = ob.event
            key = e.args[0].payload if e.args else None
            if e.kind == "GetReg":
                tree = ob.k(nat(regs.get(key, 0)))
            elif e.kind == "SetReg":
                regs[key] = e.args[1].payload
                tree = ob.k(unit())
            elif e.kind == "Load":
                tree = ob.k(nat(mem.get(key, 0)))
            elif e.kind == "Store":
                mem[key] = e.args[1].payload
                tree = ob.k(unit())
            else:
                raise ProbeFailure(f"unexpected Asm event {e!r}")


def _drain(tree, what):
    ob, steps = run_to_head(tree, FUEL)
    if type(ob) is not RetO:
        raise ProbeFailure(f"{what} did not finish within {FUEL} steps")
    return steps


def imp_tree(stmt):
    return imp.interp_imp(imp.denote_stmt(stmt), umap())


def asm_tree(unit_):
    return asm.interp_asm(asm.den_asm(unit_)(label(0, unit_.entries)), umap(), umap())


def _verdicts(probe):
    """check_equivalent verdicts of a probe: one per mutation, or one for
    the honest compiler."""
    if probe.mutations:
        return [(m, compiler.check_equivalent(probe.stmt, probe.cfg, mutation=m))
                for m in probe.mutations]
    return [(None, compiler.check_equivalent(probe.stmt, probe.cfg, seed=probe.check_seed))]


def exact_counts(pass_) -> dict:
    """The counts that must repeat exactly for a seed, computed afresh
    without timing."""
    counts = dict.fromkeys(("interp.imp_steps", "interp.asm_steps", "compiler.asm_instrs",
                            "bisim.witness_steps", "bisim.verdict_proven",
                            "bisim.verdict_refuted", "bisim.verdict_unknown"), 0)
    for probe in pass_.probes:
        unit_ = compiler.compile_stmt(probe.stmt)
        counts["compiler.asm_instrs"] += sum(len(b.instrs) for b in unit_.code)
        counts["interp.imp_steps"] += _drain(imp_tree(probe.stmt), probe.name)
        counts["interp.asm_steps"] += _drain(asm_tree(unit_), probe.name)
        for _, verdict in _verdicts(probe):
            counts[f"bisim.verdict_{verdict.status.value}"] += 1
            counts["bisim.witness_steps"] += len(verdict.witness)
    return counts


def program_probes(pass_, tracer, workdir: str, between):
    """Time every stage on the probe programs, calling ``between()`` before
    each program.  Returns (metrics, counts, failures)."""
    acc = dict.fromkeys(("gen", "imp_parse", "asm_parse", "compile", "imp_denote",
                         "asm_denote", "imp_drain", "asm_drain", "eutt", "replay", "cli"), 0.0)
    counts = dict.fromkeys(("imp.denote_nodes", "asm.den_asm_nodes", "interp.imp_steps",
                            "interp.asm_steps", "compiler.asm_instrs", "bisim.witness_steps",
                            "bisim.witness_chars", "bisim.verdict_proven",
                            "bisim.verdict_refuted", "bisim.verdict_unknown"), 0)
    failures, replayed, cli_programs = [], 0, 0  # failures: (probe name, message)

    for seed in pass_.gen_seeds:
        with tracer.span("probe", op=f"gen{seed}"):
            _, dt = _timed(tracer, "compiler.gen_program",
                           lambda: compiler.gen_program(pass_.gen_size, "bounded", seed))
            acc["gen"] += dt

    for i, probe in enumerate(pass_.probes):
        between()
        try:
            with tracer.span("probe", op=probe.name):
                stmt, dt = _timed(tracer, "imp.parse_imp", lambda: imp.parse_imp(probe.text))
                acc["imp_parse"] += dt
                unit_, dt = _timed(tracer, "compiler.compile_stmt",
                                   lambda: compiler.compile_stmt(stmt))
                acc["compile"] += dt
                text = asm.print_asm(unit_)
                if asm.print_asm(compiler.compile_stmt(stmt)) != text:
                    failures.append((probe.name, "compiling twice gave different code"))
                counts["compiler.asm_instrs"] += sum(len(b.instrs) for b in unit_.code)
                _, dt = _timed(tracer, "asm.parse_asm", lambda: asm.parse_asm(text))
                acc["asm_parse"] += dt

                want = bigstep.run_reference(stmt, {}, 10**7)[0]
                (env, nodes), dt = _timed(tracer, "imp.denote_stmt",
                                          lambda: drive_imp(imp.denote_stmt(stmt)))
                acc["imp_denote"] += dt
                counts["imp.denote_nodes"] += nodes
                if env != want:
                    failures.append((probe.name, f"Imp denotation ends in {env}, reference {want}"))
                (mem, nodes), dt = _timed(
                    tracer, "asm.den_asm",
                    lambda: drive_asm(asm.den_asm(unit_)(label(0, unit_.entries))))
                acc["asm_denote"] += dt
                counts["asm.den_asm_nodes"] += nodes
                if mem != want:
                    failures.append((probe.name, f"Asm denotation ends in {mem}, reference {want}"))

                t_imp, t_asm = imp_tree(stmt), asm_tree(unit_)
                steps, dt = _timed(tracer, "interp.drain_imp", lambda: _drain(t_imp, probe.name))
                acc["imp_drain"] += dt
                counts["interp.imp_steps"] += steps
                steps, dt = _timed(tracer, "interp.drain_asm", lambda: _drain(t_asm, probe.name))
                acc["asm_drain"] += dt
                counts["interp.asm_steps"] += steps

                rel = compiler.StateInvariantSpec().relspec()
                tau_budget, depth = probe.cfg.budgets()
                t_imp, t_asm = imp_tree(stmt), asm_tree(unit_)
                verdict, dt = _timed(tracer, "bisim.eutt", lambda: eutt(
                    rel, t_imp, t_asm, tau_budget, depth, probe.cfg.nat_probe_set))
                acc["eutt"] += dt
                if not verdict.proven:
                    failures.append((probe.name, f"eutt on the honest pair gave {verdict!r}"))

                with tracer.span("compiler.check_equivalent"):
                    verdicts = _verdicts(probe)
                for mutation, verdict in verdicts:
                    counts[f"bisim.verdict_{verdict.status.value}"] += 1
                    if mutation is None and not verdict.proven:
                        failures.append((probe.name, f"honest compilation checked {verdict!r}"))
                    if not verdict.refuted or mutation is None:
                        continue
                    counts["bisim.witness_steps"] += len(verdict.witness)
                    with tracer.span("bisim.describe_witness"):
                        counts["bisim.witness_chars"] += len(describe_witness(verdict.witness))
                    ok, dt = _timed(tracer, "bisim.replay_witness",
                                    lambda: workloads.replays(stmt, mutation, verdict.witness))
                    acc["replay"] += dt
                    replayed += 1
                    if not ok:
                        failures.append((probe.name, f"{mutation}: witness does not replay"))

                if i < 3:
                    acc["cli"] += _cli_overhead(tracer, probe, workdir)
                    cli_programs += 1
        except Exception as exc:  # a probe that raises is a failure, not a crash
            failures.append((probe.name, f"raised {exc!r}"))

    n_probe = len(pass_.probes)
    ms, us = 1000.0, 1_000_000.0
    imp_steps, asm_steps = counts["interp.imp_steps"], counts["interp.asm_steps"]
    metrics = {
        "compiler.gen_program_ms": acc["gen"] * ms / max(1, len(pass_.gen_seeds)),
        "compiler.compile_ms": acc["compile"] * ms / n_probe,
        "imp.parse_ms": acc["imp_parse"] * ms / n_probe,
        "asm.parse_ms": acc["asm_parse"] * ms / n_probe,
        "imp.denote_us_per_node": acc["imp_denote"] * us / max(1, counts["imp.denote_nodes"]),
        "asm.den_asm_us_per_node": acc["asm_denote"] * us / max(1, counts["asm.den_asm_nodes"]),
        "interp.imp_us_per_step": acc["imp_drain"] * us / max(1, imp_steps),
        "interp.asm_us_per_step": acc["asm_drain"] * us / max(1, asm_steps),
        "interp.stack_self_us_per_step":
            (acc["imp_drain"] + acc["asm_drain"] - acc["imp_denote"] - acc["asm_denote"])
            * us / max(1, imp_steps + asm_steps),
        "bisim.eutt_ms": acc["eutt"] * ms / n_probe,
        "bisim.eutt_self_ms": (acc["eutt"] - acc["imp_drain"] - acc["asm_drain"]) * ms / n_probe,
        "bisim.replay_ms": acc["replay"] * ms / replayed if replayed else 0.0,
        "cli.overhead_ms": acc["cli"] * ms / max(1, cli_programs),
    }
    return metrics, counts, failures


def _cli_overhead(tracer, probe, workdir: str) -> float:
    """cli.main run-imp time minus parse + drain of the same program, each
    the median of three runs, in seconds."""
    path = os.path.join(workdir, f"probe-{probe.name.replace(':', '_')}.imp")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(probe.text)
    cli_t, lib_t = [], []
    for _ in range(3):
        (code, _), dt = _timed(tracer, "cli.main", lambda: workloads.capture(["run-imp", path]))
        if code != 0:
            raise ProbeFailure(f"run-imp exited {code} on {probe.name}")
        cli_t.append(dt)

        def library():
            with open(path, encoding="utf-8") as fh:
                stmt = imp.parse_imp(fh.read())
            return _drain(imp_tree(stmt), probe.name)

        _, dt = _timed(tracer, "interp.drain_imp", library)
        lib_t.append(dt)
    return statistics.median(cli_t) - statistics.median(lib_t)


def micro_probes(size_name: str, tracer) -> dict:
    """Fixed-size probes of the core, values, events, combinators and
    interp_map; each figure is the median of ``reps`` runs."""
    z = MICRO_SIZES[size_name]
    reps = z["reps"]
    us = 1_000_000.0
    out = {}

    def median_per(name, n, setup, fn):
        times = []
        for _ in range(reps):
            arg = setup()
            with tracer.span(name):
                t0 = time.perf_counter()
                fn(arg)
                times.append(time.perf_counter() - t0)
        return statistics.median(times) * us / n

    def spin_run(t):
        ob, steps = run_to_head(t, z["spin"])
        if type(ob) is not TauO or steps != z["spin"]:
            raise ProbeFailure("spin stopped")

    out["core.spin_us_per_step"] = median_per("core.spin", z["spin"], spin, spin_run)

    def bind_chain(_):
        k = ret
        t = ret(unit())
        for _ in range(z["bind"]):
            t = bind(t, k)
        if type(observe(t)) is not RetO:
            raise ProbeFailure("bind chain did not return")

    out["core.bind_chain_us_per_node"] = median_per("core.bind", z["bind"], lambda: None,
                                                    bind_chain)

    def countdown(v):
        n = v.payload
        return ret(inl(nat(n - 1))) if n else ret(inr(v))

    def iterate_run(t):
        ob, steps = run_to_head(t, FUEL)
        if type(ob) is not RetO or steps != z["iterate"]:
            raise ProbeFailure(f"iterate took {steps} steps")

    out["combinators.iterate_us_per_iter"] = median_per(
        "combinators.iterate", z["iterate"],
        lambda: iterate(KTree(countdown))(nat(z["iterate"])), iterate_run)

    for width, tag, count in ((8, "small", z["map_small"]), (512, "wide", z["map_wide"])):
        keys = [f"k{i:03d}" for i in range(width)]
        m0 = umap({k: nat(i) for i, k in enumerate(keys)})
        seq = [keys[(i * 7) % width] for i in range(count)]
        value = nat(5)

        def sets(m, seq=seq, value=value):
            for key in seq:
                m = map_set(m, key, value)

        def gets(m, seq=seq, default=nat(0)):
            for key in seq:
                map_get(m, key, default)

        out[f"values.map_set_us.{tag}"] = median_per("values.map_set", count,
                                                     lambda m0=m0: m0, sets)
        out[f"values.map_get_us.{tag}"] = median_per("values.map_get", count,
                                                     lambda m0=m0: m0, gets)

    sig = map_default_sig(SYM_T, NAT_T, nat(0))
    key, val = sym("x"), nat(1)

    def make_events(_):
        for _ in range(z["events"]):
            event(sig, "Insert", key, val, path=(LEFT,))

    out["events.event_us"] = median_per("events.event", z["events"], lambda: None, make_events)

    for width, tag, count in ((8, "small", z["interp_small"]), (512, "wide", z["interp_wide"])):
        keys = [f"k{i:03d}" for i in range(width)]
        m0 = umap({k: nat(i) for i, k in enumerate(keys)})

        def build(keys=keys, count=count):
            t = ret(unit())
            for i in range(count):
                k = sym(keys[(i * 7) % len(keys)])
                e = (event(sig, "Insert", k, nat(i), path=(LEFT,)) if i % 2
                     else event(sig, "LookupDefault", k, path=(LEFT,)))
                t = bind(t, lambda _, e=e: trigger(e))
            return t

        def drain(t, m0=m0):
            _drain(interp_map(t, m0), "interp_map probe")

        out[f"interp.interp_map_us_per_event.{tag}"] = median_per(
            "interp.interp_map", count, build, drain)
    return out
