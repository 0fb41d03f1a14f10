"""Benchmark for exact ergodicity analysis: one workload per run.

    python3 bench/run.py --workload ergodic --seed 1 --seconds 35 --trace 0

Runs whole cycles of the workload's fixed mix of operations for about
``--seconds`` of measurement (at least two cycles), checks every result
(``gate.py``), prints each metric with its unit, writes
``bench/results/<workload>-seed<seed>-trace<t>.json`` and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, with their times scaled to
the speed of a probe computation timed twenty times a second, during the
operations too (``reference.py``); the wall times are printed beside
them. ``--trace 1`` alternates untraced and traced cycles and reports the
per-layer metrics of the traced ones (``spans.py``), with the tracing
overhead, in wall time and without the probe. See README.md.
"""

import time

# CPU time the interpreter spent starting up, before this module ran.
INTERPRETER_START_S = time.process_time()

import os  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def _import_program() -> float:
    """Import the program from the checkout's source tree and return the
    wall time the import took. Every module of the package is dropped from
    ``sys.modules`` first, so a repeated call imports it afresh."""
    if not os.path.isfile(os.path.join(SRC, "zeonmarkov", "__init__.py")):
        print(f"run.py: no program source under {SRC}", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "zeonmarkov" or m.startswith("zeonmarkov.")]:
        del sys.modules[name]
    start = time.perf_counter()
    import zeonmarkov  # noqa: F401
    import zeonmarkov.cli  # noqa: F401
    import zeonmarkov.documents  # noqa: F401
    return time.perf_counter() - start


IMPORT_S = _import_program() if __name__ == "__main__" else None

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import reference  # noqa: E402
import spans as tracing  # noqa: E402
from workloads import SLOTS, Workload  # noqa: E402

RESULTS_DIR = os.path.join(BENCH_DIR, "results")
FIXTURES_DIR = os.path.join(ROOT, "fixtures")
SETUP_REPEATS = 5
MIN_CYCLES = 2  # peak RSS is read after these, a fixed amount of work

# Per-layer metrics on the final JSON line (BENCHMARK.json "per_layer").
# Times are listed only for layers every workload calls, so none reads a
# constant zero; the full table, with every layer's time, self time and
# calls, is printed and written to the results file.
PER_LAYER_REPORTED = (
    "linalg.det.s", "linalg.det.calls", "linalg.det.bits",
    "linalg.rref.s", "linalg.rref.calls", "linalg.rref.max_dim",
    "linalg.matmul.s", "linalg.matmul.calls",
    "zeon.psi2.s", "zeon.psi2.calls", "zeon.psi2.entries",
    "zeon.permanent.calls", "zeon.power.calls",
    "degree2.actions.calls", "degree2.identities.calls",
    "markov.chain_structure.s", "markov.chain_structure.calls",
    "markov.invariant.s", "markov.limit.s", "markov.quasi_positive.s",
    "markov.determinant.s", "markov.determinant.self_s",
    "markov.zeon_criterion.s", "markov.zeon_criterion.self_s", "markov.zeon_criterion.calls",
    "markov.check_equivalence.calls",
    "documents.parse.s", "documents.parse.calls", "documents.serialize.calls",
    "cli.main.calls", "chains.N", "trace.spans",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SLOTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# -- set-up ---------------------------------------------------------------


def measure_setup(workload: Workload, probe=None) -> dict:
    """Interpreter start happens once per process. The import and the
    loading and validation of cycle 0's inputs through the program's
    loaders are repeated and the median taken: the first import is the
    cold one, the others import the package afresh while the standard
    library stays loaded. The workload keeps the last import. The time
    of the speed probes that interrupt the repeats is taken out."""
    inputs = workload.inputs(0)
    paths = workload.write_inputs(inputs) if workload.name == "nonergodic" else []
    stolen = (lambda: probe.stolen) if probe else (lambda: 0.0)
    start = time.perf_counter()
    imports, loads = [IMPORT_S], []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            before = stolen()
            imports.append(_import_program() - (stolen() - before))
            workload.zm = sys.modules["zeonmarkov"]
        before, t = stolen(), time.perf_counter()
        workload.load(inputs, paths)
        loads.append(time.perf_counter() - t - (stolen() - before))
    program_s = statistics.median(i + load for i, load in zip(imports, loads))
    return {"interpreter_start_s": INTERPRETER_START_S, "import_samples_s": imports,
            "load_samples_s": loads, "import_load_s": program_s,
            "setup_s": INTERPRETER_START_S + program_s,
            "window": [start, time.perf_counter()]}


# -- measurement ------------------------------------------------------------


def run_op(op, probe=None) -> dict:
    """Time one operation and check its result. ``t_s`` is its start and
    ``wall_s`` its wall time on the ``time.perf_counter`` clock;
    ``latency_s`` is the wall time less that of the speed probes that
    interrupted it."""
    before = probe.stolen if probe else 0.0
    start = time.perf_counter()
    try:
        result = op.call()
        error = None
    except (Exception, SystemExit) as exc:  # a crash is a failed operation
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    wall = time.perf_counter() - start
    latency = wall - ((probe.stolen - before) if probe else 0.0)
    if error is None:
        try:
            problems = op.check(result)
        except Exception as exc:  # unreadable output is a failed operation too
            problems = [f"output check raised {type(exc).__name__}: {exc}"]
    else:
        problems = [f"raised {error}"]
    return {"id": op.id, "kind": op.kind, "family": op.family, "n": op.n,
            "N": math.comb(op.n, 2), "analysis": op.analysis,
            "t_s": start, "wall_s": wall, "latency_s": latency,
            "det_bits": op.det_bits, "problems": problems}


def measure(workload: Workload, seconds: float, traced_run: bool, probe=None) -> dict:
    """Whole cycles, at least MIN_CYCLES, ending at the cycle boundary
    nearest to ``seconds`` of wall time."""
    tracer = tracing.Tracer() if traced_run else None
    records, cycles = [], []
    rss_kb = None
    start = time.perf_counter()
    cycle = 0
    while True:
        traced = traced_run and cycle % 2 == 1
        if traced:
            tracer.op = f"{cycle}.load"
            tracer.install()
        try:
            ops = workload.ops(cycle)
            op_s = 0.0
            for op in ops:
                if traced:
                    tracer.op = op.id
                record = run_op(op, probe)
                record["cycle"], record["traced"] = cycle, traced
                op_s += record["latency_s"]
                records.append(record)
        finally:
            if traced:
                tracer.uninstall()
        cycles.append({"cycle": cycle, "traced": traced, "ops": len(ops), "op_s": op_s})
        cycle += 1
        if cycle == MIN_CYCLES:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # stop at the cycle boundary nearest to ``seconds``
        elapsed = time.perf_counter() - start
        if (cycle >= MIN_CYCLES and elapsed + elapsed / cycle / 2 >= seconds
                and not (traced_run and cycle % 2)):
            break
    return {"records": records, "cycles": cycles, "rss_kb": rss_kb,
            "wall_s": time.perf_counter() - start,
            "spans": tracer.spans if tracer else None}


# -- metrics ------------------------------------------------------------------


def end_to_end(setup: dict, run: dict, largest_n: int, probe) -> tuple:
    """The end-to-end metrics scaled to the probe's nominal speed, and the
    same as measured in wall time, less the probes' own time. Each
    operation's latency is multiplied by the speed scale of the probes
    during it, set-up by that of the probes during the set-up repeats.
    Rates come from the scaled latencies."""
    records = run["records"]
    scales = [probe.scale(r["t_s"], r["t_s"] + r["wall_s"]) for r in records]
    setup_scale = probe.scale(*setup["window"])
    largest = [i for i, r in enumerate(records) if r["analysis"] and r["n"] == largest_n]
    passed, scaled_s = [0] * len(run["cycles"]), [0.0] * len(run["cycles"])
    for r, scale in zip(records, scales):
        passed[r["cycle"]] += not r["problems"]
        scaled_s[r["cycle"]] += r["latency_s"] * scale

    def metrics(setup_s, latencies, cycle_s) -> dict:
        return {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (statistics.median(p / t for p, t in zip(passed, cycle_s)), "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "largest_n_ms": (statistics.median(latencies[i] for i in largest) * 1e3, "ms"),
            "peak_rss_mb": (run["rss_kb"] / 1024, "MB"),
        }

    wall_latencies = [r["latency_s"] for r in records]
    scaled = metrics(setup["setup_s"] * setup_scale,
                     [t * scale for t, scale in zip(wall_latencies, scales)], scaled_s)
    wall = metrics(setup["setup_s"], wall_latencies, [c["op_s"] for c in run["cycles"]])
    return scaled, wall, statistics.median(scales)


def per_layer(run: dict) -> dict:
    """Times are means per traced cycle; counts are those of cycle 1, the
    first traced cycle, which every traced run completes, so they repeat
    exactly for a seed."""
    spans = run["spans"]
    traced = [c for c in run["cycles"] if c["traced"]]
    untraced = [c for c in run["cycles"] if not c["traced"]]
    per_cycle = tracing.layer_totals(spans)
    first = tracing.layer_totals([s for s in spans if s[4].split(".", 1)[0] == "1"])
    cycles = len(traced)
    metrics = {}
    for name in tracing.LAYER_NAMES:
        t, c = per_cycle.get(name, tracing.LayerTotals()), first.get(name, tracing.LayerTotals())
        metrics[f"{name}.s"] = (t.seconds / cycles, "s")
        metrics[f"{name}.self_s"] = (t.self_seconds / cycles, "s")
        metrics[f"{name}.calls"] = (c.calls, "count")
    metrics["linalg.det.bits"] = (first.get("linalg.det", tracing.LayerTotals()).value, "bit")
    metrics["linalg.rref.max_dim"] = (first.get("linalg.rref", tracing.LayerTotals()).peak, "count")
    metrics["zeon.psi2.entries"] = (first.get("zeon.psi2", tracing.LayerTotals()).value, "count")
    metrics["chains.N"] = (sum(r["N"] for r in run["records"]
                               if r["cycle"] == 1 and r["analysis"]), "count")
    metrics["trace.spans"] = (sum(1 for s in spans if s[4].startswith("1.")), "count")
    metrics["trace.overhead_s"] = (
        statistics.mean(c["op_s"] for c in traced) - statistics.mean(c["op_s"] for c in untraced),
        "s")
    return metrics


def op_counts(spans: list) -> dict:
    """Exact per-operation counts from the spans of traced cycles."""
    counts = {}
    for name, _start, _end, _parent, op, value in spans:
        c = counts.setdefault(op, {"chain_structure_calls": 0, "psi2_calls": 0, "det_bits": 0})
        if name == "markov.chain_structure":
            c["chain_structure_calls"] += 1
        elif name == "zeon.psi2":
            c["psi2_calls"] += 1
        elif name == "linalg.det":
            c["det_bits"] += value
    return counts


# -- run record -----------------------------------------------------------------


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "python": sys.version.split()[0], "implementation": sys.implementation.name,
            "kernel": os.uname().release}


def git_commit():
    """Commit of the checkout, read from .git without running git; None
    when the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's source files: names the code version
    where there is no git metadata."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "zeonmarkov")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(f.read())
    return "sha256:" + digest.hexdigest()


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    zm = sys.modules["zeonmarkov"]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="inputs-", dir=RESULTS_DIR) as workdir:
        workload = Workload(args.workload, args.seed, zm, FIXTURES_DIR, workdir)
        probe = None if args.trace else reference.SpeedProbe()
        if probe:
            probe.start()
        try:
            setup = measure_setup(workload, probe)
            run = measure(workload, args.seconds, bool(args.trace), probe)
        finally:
            if probe:
                probe.stop()
    records = run["records"]
    attempted = len(records)
    failures = [r for r in records if r["problems"]]
    wall, scale = {}, None
    if args.trace:
        metrics = per_layer(run)
        counts = op_counts(run["spans"])
        for r in records:
            if r["traced"]:
                r["counts"] = counts.get(r["id"], {})
    else:
        metrics, wall, scale = end_to_end(setup, run, workload.largest_n, probe)
    failed_frac = len(failures) / attempted

    result_file = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_file, "w", encoding="utf-8") as f:
        json.dump({
            "record": {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "machine": machine(), "git_commit": git_commit(),
                       "source_digest": source_digest(),
                       "sizes": [{"family": fm, "n": n} for fm, n in workload.slots],
                       "largest_n": workload.largest_n, "cycles": len(run["cycles"]),
                       "measure_wall_s": run["wall_s"]},
            "setup": setup,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "wall_metrics": {k: {"value": v, "unit": u} for k, (v, u) in wall.items()},
            "probe": None if probe is None else {
                "nominal_s": reference.NOMINAL_S, "interval_s": probe.interval,
                "samples": probe.samples, "median_scale": scale},
            "failed_frac": failed_frac,
            "cycles": run["cycles"],
            "ops": records,
            "spans": run["spans"],
        }, f)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cycles {len(run['cycles'])}  ops {attempted}")
    for name, (value, unit) in metrics.items():
        as_measured = f"  (wall {wall[name][0]:.6g})" if name in wall else ""
        print(f"  {name:34s} {value:>16.6g} {unit}{as_measured}")
    if scale is not None:
        print(f"  {'probe scale (median)':34s} {scale:>16.6g} ratio  "
              f"({len(probe.samples)} probes)")
    print(f"  {'failed_frac':34s} {failed_frac:>16.6g} ratio  ({len(failures)} of {attempted})")
    for r in failures[:10]:
        print(f"  FAILED {r['id']} {r['kind']} {r['family']} n={r['n']}: {'; '.join(r['problems'])}",
              file=sys.stderr)
    print(f"  results: {os.path.relpath(result_file, ROOT)}")
    reported = PER_LAYER_REPORTED if args.trace else list(metrics)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                                  for k in reported}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
