"""Benchmark of the itrees library: one workload, one seed, one run.

    python3 perfbench/run.py --workload harness --seed 1 --seconds 30 --trace 0

Workloads are ``harness``, ``mutants`` and ``long_run`` (see
``perfbench/workloads.py``).  A single client calls the library in a closed
loop from this process.  The run builds the workload's pass from the seed,
then repeats whole passes while another one fits in ``--seconds``, and
checks every operation's output.  Each operation's latency is its median
over the passes, scaled by a calibration workload timed around and during
it (see ``calibrated``); ``perfbench/README.md`` explains why.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end figures listed in ``BENCHMARK.json``.  With
``--trace 1`` the run first takes the probe programs apart layer by layer
with spans recorded around each call, then alternates untraced and traced
passes to measure the tracing overhead, and its metrics are the per-layer
figures.  The line before the last is a report with the run's provenance,
sample counts and the exact counts; reports and spans are also written
under ``perfbench/out/``.

``--size tiny`` shrinks every workload for the benchmark's own tests.  The
library is imported from ``src/`` next to this directory; without it the
run stops with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_REPS = {"full": 3, "tiny": 1}

# name: unit, in the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.spin_us_per_step": "us",
    "core.bind_chain_us_per_node": "us",
    "combinators.iterate_us_per_iter": "us",
    "values.map_set_us.small": "us",
    "values.map_set_us.wide": "us",
    "values.map_get_us.small": "us",
    "values.map_get_us.wide": "us",
    "events.event_us": "us",
    "imp.parse_ms": "ms",
    "asm.parse_ms": "ms",
    "imp.denote_us_per_node": "us",
    "imp.denote_nodes": "count",
    "asm.den_asm_us_per_node": "us",
    "asm.den_asm_nodes": "count",
    "interp.imp_us_per_step": "us",
    "interp.imp_steps": "count",
    "interp.asm_us_per_step": "us",
    "interp.asm_steps": "count",
    "interp.stack_self_us_per_step": "us",
    "interp.interp_map_us_per_event.small": "us",
    "interp.interp_map_us_per_event.wide": "us",
    "compiler.gen_program_ms": "ms",
    "compiler.compile_ms": "ms",
    "compiler.asm_instrs": "count",
    "bisim.eutt_ms": "ms",
    "bisim.eutt_self_ms": "ms",
    "bisim.verdict_proven": "count",
    "bisim.verdict_refuted": "count",
    "bisim.verdict_unknown": "count",
    "bisim.witness_steps": "count",
    "bisim.witness_chars": "count",
    "bisim.replay_ms": "ms",
    "cli.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}
LAYERS = ("core", "values", "events", "combinators", "interp", "imp", "asm",
          "compiler", "bisim", "cli")
for _layer in LAYERS:
    PER_LAYER[f"trace.self_ms.{_layer}"] = "ms"

# Counts that must repeat exactly for a seed.
EXACT = ("interp.imp_steps", "interp.asm_steps", "compiler.asm_instrs",
         "bisim.witness_steps", "bisim.verdict_proven", "bisim.verdict_refuted",
         "bisim.verdict_unknown")


# Nominal time of ``calibration_loop``; see ``calibrated``.
CAL_NOMINAL_S = 0.002
# How often the loop is timed while an operation runs, and how many of the
# latest loop times calibrate an operation that was too short to be timed
# inside.
CAL_INTERVAL_S = 0.1
CAL_WINDOW = 9


class _Cell:
    __slots__ = ("rest",)

    def __init__(self, rest):
        self.rest = rest


def calibration_loop() -> int:
    """A fixed workload that touches no library code: half plain
    arithmetic, half a countdown through lazily built small objects, closures
    and dict updates, the kind of work the library's interpreters do.  On
    their own, the first slowed down less than the library when the machine
    was busy and the second more."""
    acc = 0
    for i in range(10_000):
        acc = (acc * 31 + i) & 0xFFFF
    store = {}

    def step(i):
        store[i & 15] = (i, store.get((i + 3) & 15))
        return _Cell(lambda: step(i - 1)) if i else None

    cell = step(600)
    while cell is not None:
        cell = cell.rest()
    return acc + len(store)


def calibrate() -> float:
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def calibrated(seconds: float, samples) -> float:
    """Scale a measured time to the machine speed at which the calibration
    loop takes ``CAL_NOMINAL_S``, using the loop's times measured around and
    during the measurement.

    The machines this runs on are shared: on a shared 2-core Linux machine
    with Python 3.11, the same work ran up to twice as slow for minutes at a
    time.  The loop slows down with the machine but not with the
    library, so the scaled time moves with the library and much less with
    the neighbours.  Raw times are kept in the report."""
    return seconds * CAL_NOMINAL_S * len(samples) / sum(samples)


class Sampler:
    """Times the calibration loop every ``CAL_INTERVAL_S`` while armed,
    from a SIGALRM handler, so that a long operation is calibrated with the
    machine's speed over its whole length.  ``stolen`` is the handler's
    time, to be taken out of the operation's."""

    def __init__(self):
        self.samples, self.stolen = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        took = calibrate()
        self.samples.append(took)
        self.stolen += took

    @contextmanager
    def armed(self):
        self.samples, self.stolen = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("harness", "mutants", "long_run"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def provenance(args) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "itrees")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "machine": platform.machine(), "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(), "source_sha256": digest.hexdigest(),
    }


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def timed_import(reps: int) -> list:
    """Import the library ``reps`` times from scratch; calibrated seconds
    per import."""
    times = []
    for _ in range(reps):
        for name in list(sys.modules):
            if name == "itrees" or name.startswith("itrees.") or name in (
                    "bigstep", "perfbench.workloads", "perfbench.probes"):
                del sys.modules[name]
        before = calibrate()
        t0 = time.perf_counter()
        importlib.import_module("itrees")
        importlib.import_module("itrees.cli")
        dt = time.perf_counter() - t0
        times.append(calibrated(dt, [before, calibrate()]))
    return times


class PassResult:
    def __init__(self):
        self.latencies = []  # calibrated seconds
        self.raw = []  # measured seconds
        self.failures = []
        self.attempted = 0

    @property
    def seconds(self):
        return sum(self.latencies)


def run_pass(pass_, tracer, sampler, label: str) -> PassResult:
    res = PassResult()
    outputs = []
    recent = collections.deque([calibrate()], maxlen=CAL_WINDOW)
    for op in pass_.ops:
        gc.collect()
        error = None
        with sampler.armed():
            t0 = time.perf_counter()
            try:
                with tracer.span("op", op=f"{label}:{op.name}"), tracer.span(op.call):
                    out = op.run()
            except Exception as exc:  # an operation that raises counts as failed
                out, error = None, f"raised {exc!r}"
            dt = time.perf_counter() - t0 - sampler.stolen
        before = recent[-1]
        recent.extend(sampler.samples)
        recent.append(calibrate())
        if error is None:
            try:
                error = op.check(out)
            except Exception as exc:
                error = f"check raised {exc!r}"
        res.attempted += 1
        res.raw.append(dt)
        if len(sampler.samples) >= CAL_WINDOW:
            res.latencies.append(calibrated(dt, [before, recent[-1]] + sampler.samples))
        else:
            # The machine's speed changes over seconds; the median of the
            # latest loop times tracks it with less of the loop's own jitter.
            res.latencies.append(calibrated(dt, [statistics.median(recent)]))
        outputs.append((op, out))
        if error:
            res.failures.append(f"{op.name}: {error}")
    if pass_.after_pass is not None:
        res.attempted += 1
        problems = pass_.after_pass(outputs)
        if problems:
            res.failures.append("; ".join(problems))
    return res


def repeat_passes(pass_, seconds: float, tracers) -> list:
    """Run rounds of passes (one per tracer) while another round fits in
    ``seconds``; at least one round."""
    rounds = []
    sampler = Sampler()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append([run_pass(pass_, tr, sampler, f"{len(rounds)}.{i}")
                       for i, tr in enumerate(tracers)])
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return rounds


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value,
    percentile, samples beyond).  Fewer than eleven samples give the max."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def request_latencies(pass_, passes, raw: bool = False) -> list:
    """Each request's median latency over the run's passes.

    A request is one operation, or the operations that share a ``group``
    (a ``mutants`` program checked against all five mutations)."""
    groups = {}
    for i, op in enumerate(pass_.ops):
        groups.setdefault(op.group or op.name, []).append(i)
    return [statistics.median(sum((p.raw if raw else p.latencies)[i] for i in members)
                              for p in passes)
            for members in groups.values()]


def end_to_end(pass_, passes, setup_s: float, raw: bool = False) -> tuple[dict, dict]:
    """Figures of one pass in which every request takes its median time."""
    lat = request_latencies(pass_, passes, raw)
    busy = sum(lat)
    value, pct, beyond = tail(lat)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(pass_.ops) / busy,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "steps_per_s": sum(op.steps for op in pass_.ops) / busy,
        "passes": len(passes), "ops_per_pass": len(pass_.ops), "requests_per_pass": len(lat),
        "tail_percentile": pct, "tail_samples_beyond": beyond,
        "busy_s": sum(sum(p.raw) for p in passes),
    }
    return metrics, detail


def check_counts_file(counts: dict, prov: dict) -> str | None:
    """Compare the exact counts with an earlier run of the same seed and
    source, if one left its counts behind; record them otherwise."""
    folder = os.path.join(OUT, "counts")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{prov['workload']}-{prov['size']}-seed{prov['seed']}-"
                                f"{prov['source_sha256'][:16]}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        if earlier != counts:
            return f"exact counts differ from an earlier run of this seed: {earlier} vs {counts}"
        return None
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, sort_keys=True)
    return None


def traced_run(pass_, args, prov, workdir, tracing, probes):
    tracer = tracing.Tracer()
    start = time.perf_counter()
    failures = []
    samples = [calibrate()]
    layer = dict.fromkeys(PER_LAYER, 0.0)
    attempted, failed = len(pass_.probes) + 3, 0
    with tracer.span("phase.layers"):
        try:
            layer.update(probes.micro_probes(args.size, tracer))
        except Exception as exc:  # reported as a failure, not a crash
            failures.append(f"micro probes raised {exc!r}")
            failed += 1
        samples.append(calibrate())
        metrics, counts, probe_failures = probes.program_probes(
            pass_, tracer, workdir, lambda: samples.append(calibrate()))
    layer_spans = len(tracer.spans)
    layer.update(metrics)
    layer.update(counts)
    failures += [f"{name}: {msg}" for name, msg in probe_failures]
    failed += len({name for name, _ in probe_failures})

    try:
        again = probes.exact_counts(pass_)
    except Exception as exc:
        again = f"raised {exc!r}"
    exact = {k: counts[k] for k in EXACT}
    if again != exact:
        failures.append(f"exact counts differ between two passes of one run: {exact} vs {again}")
        failed += 1
    problem = check_counts_file(exact, prov)
    if problem:
        failures.append(problem)
        failed += 1

    remaining = max(0.0, args.seconds - (time.perf_counter() - start))
    rounds = repeat_passes(pass_, remaining, [tracing.NullTracer(), tracer])
    plain = sum(r[0].seconds for r in rounds)
    traced = sum(r[1].seconds for r in rounds)
    layer["trace.overhead_pct"] = (traced / plain - 1.0) * 100.0
    self_ms = tracing.Tracer()
    self_ms.spans = tracer.spans[:layer_spans]
    for name, ms in self_ms.layer_self_ms(LAYERS).items():
        layer[f"trace.self_ms.{name}"] = ms
    # Probe times are calibrated with the loop's median over the probe phase.
    scale = CAL_NOMINAL_S / statistics.median(samples)
    for name, unit in PER_LAYER.items():
        if unit in ("us", "ms"):
            layer[name] *= scale

    passes = [p for r in rounds for p in r]
    e2e_plain, _ = end_to_end(pass_, [r[0] for r in rounds], 0.0)
    e2e_traced, _ = end_to_end(pass_, [r[1] for r in rounds], 0.0)
    detail = {
        "overhead_passes": len(rounds),
        "untraced": {k: e2e_plain[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")},
        "traced": {k: e2e_traced[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")},
        "exact_counts": exact,
        "spans": len(tracer.spans),
        "probe_calibration_scale": scale,
    }
    spans_path = os.path.join(workdir, "spans.json")
    tracer.write(spans_path)
    detail["spans_file"] = os.path.relpath(spans_path, ROOT)
    return layer, passes, attempted, failed, failures, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "itrees", "__init__.py")) or not os.path.isfile(
            os.path.join(ROOT, "tests", "bigstep.py")):
        print(f"error: the library sources (src/itrees) and tests/bigstep.py must sit next "
              f"to perfbench/ under {ROOT}", file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "tests"), src, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)

    import_s = statistics.median(timed_import(SETUP_REPS[args.size]))
    from perfbench import probes, tracing, workloads

    prov = provenance(args)
    workdir = os.path.join(OUT, f"{args.workload}-{args.size}-seed{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    build_times = []
    for _ in range(SETUP_REPS[args.size]):
        before = calibrate()
        t0 = time.perf_counter()
        pass_ = workloads.build(args.workload, ROOT, args.seed, args.size, workdir)
        dt = time.perf_counter() - t0
        build_times.append(calibrated(dt, [before, calibrate()]))
    setup_s = import_s + statistics.median(build_times)
    workloads.finish(pass_)
    gc.collect()
    gc.freeze()

    started = time.perf_counter()
    if args.trace:
        metrics, passes, attempted, failed, failures, detail = traced_run(
            pass_, args, prov, workdir, tracing, probes)
        units = PER_LAYER
    else:
        passes = [r[0] for r in repeat_passes(pass_, args.seconds, [tracing.NullTracer()])]
        metrics, detail = end_to_end(pass_, passes, setup_s)
        detail["uncalibrated"] = end_to_end(pass_, passes, 0.0, raw=True)[0]
        attempted, failed, failures = 0, 0, []
        units = END_TO_END
    attempted += sum(p.attempted for p in passes)
    failed += sum(len(p.failures) for p in passes)
    failures += [f for p in passes for f in p.failures]
    correct = failed == 0

    report = dict(prov)
    report.update(detail)
    report.update({
        "setup_import_s": import_s, "setup_build_s": build_times,
        "measured_s": time.perf_counter() - started,
        "failed_ratio": failed / attempted, "failures": failures[:20],
        "metrics": {k: [v, units[k]] for k, v in metrics.items()},
        "ops_fields": ["name", "steps", "calibrated seconds per pass", "seconds per pass"],
        "ops": [[op.name, op.steps, [p.latencies[i] for p in passes], [p.raw[i] for p in passes]]
                for i, op in enumerate(pass_.ops)],
    })
    with open(os.path.join(workdir, f"report-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
