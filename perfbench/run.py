"""Benchmark of the probsens analyzer: one workload per run, one process, one thread.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 5 --trace 0

Run from the root of a checkout; ``src/`` is imported as is, nothing is
installed.  A run repeats whole rounds of the workload's operations until
the next round would end after ``--seconds`` (at least one round).  Every
in-process operation starts from a cleared sympy cache, as a CLI call does.
Times are scaled to a nominal machine speed with a fixed probe timed before
every operation (see ``speed_probe``).  After the timed rounds the outputs
are checked against references made apart from the code under test.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Per-operation results go to
``perfbench/out/``, and the spans of a traced run to
``perfbench/out/trace-<workload>-<seed>.json``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from common import child_env  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: workload name -> module in this directory
WORKLOADS = {"corpus": "corpus", "coins": "coins", "oracle": "oracle_ops", "cli": "cli_ops"}

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

#: A run with fewer operations reports no tail percentile but its slowest
#: operation as ``op_tail_s``.
TAIL_MIN_OPS = 40
TAIL_BEYOND = 10

#: Time of ``speed_probe`` on an idle run of the 2-core machine the reference
#: figures in README.md come from; scaled times are seconds at that speed.
PROBE_NOMINAL_S = 0.016
#: An operation is scaled by the median of the probes from the one before it
#: to the one two after it: the probes right before and right after it, and
#: one more on each side.
PROBE_BEFORE, PROBE_AFTER = 1, 2
PROBE_REPEATS = 2

PROBSENS_MODULES = (
    "probsens",
    "probsens.parser",
    "probsens.normalize",
    "probsens.dependency",
    "probsens.moments",
    "probsens.sensitivity",
    "probsens.solver",
    "probsens.symbolic",
    "probsens.oracle",
)


def speed_probe(sp, clear_cache) -> float:
    """Seconds for one fixed, cold sympy simplification.

    The speed of a shared 2-core machine drifts by 15 % and more over
    minutes, which no amount of work in one run averages out.  This probe
    uses sympy the way the analyzer does, shares no code with ``probsens``,
    and is timed around every operation, so dividing by it removes most of
    the drift.  It takes the faster of two timings, which drops a slow pass
    after an operation has left the caches cold."""
    p, q = sp.symbols("p q")
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        clear_cache()
        t0 = time.perf_counter()
        sp.cancel(sp.together(p / (q + 1) + (1 - p) / (p + q) - q / (2 * p + 1)))
        best = min(best, time.perf_counter() - t0)
    return best


def fresh_import_seconds() -> float:
    """Wall time of ``import probsens.cli`` in a fresh interpreter."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import probsens.cli"],
        env=child_env(ROOT), cwd=ROOT, check=True, timeout=120,
    )
    return time.perf_counter() - t0


def tail_value(times: list[float]) -> float:
    """The highest percentile with at least TAIL_BEYOND operations beyond it."""
    ordered = sorted(times)
    if len(ordered) < TAIL_MIN_OPS:
        return ordered[-1]
    return ordered[len(ordered) - TAIL_BEYOND - 1]


def run_rounds(ops, seconds: float, probe, clear_cache, tracer):
    """Whole rounds of ``ops``; returns the outputs of each round and one
    record per op run."""
    rounds, records = [], []
    started = time.perf_counter()
    while True:
        outputs = []
        for op in ops:
            probe_s = probe()
            if op.cold:
                clear_cache()
            # Every op starts with no garbage pending and with what earlier
            # ops left alive out of the collector's sight, so its time does
            # not depend on its place in the seed's order.
            gc.collect()
            gc.freeze()
            if tracer is not None:
                tracer.begin_op(op.label)
            t0 = time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            outputs.append(out)
            records.append({
                "round": len(rounds), "op": op.label, "raw_s": dt, "probe_s": probe_s, "error": error,
            })
        rounds.append(outputs)
        elapsed = time.perf_counter() - started
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds, records


def scale(records: list[dict]) -> float:
    """Add each record's ``seconds``: its raw time at the nominal probe speed,
    judged by the probes around it.  Returns the run's median speed factor
    (probe time over nominal)."""
    probes = [r["probe_s"] for r in records]
    for i, r in enumerate(records):
        window = probes[max(0, i - PROBE_BEFORE): i + PROBE_AFTER + 1]
        r["seconds"] = r["raw_s"] * PROBE_NOMINAL_S / statistics.median(window)
    return statistics.median(probes) / PROBE_NOMINAL_S


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "probsens" / "__init__.py").is_file():
        print(f"error: no probsens package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in PROBSENS_MODULES:
        importlib.import_module(name)
    import sympy
    from sympy.core.cache import clear_cache

    imported = time.perf_counter() - T_START
    workload_mod = importlib.import_module(WORKLOADS[args.workload])
    build_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = workload_mod.build(args.seed, ROOT)
        build_times.append(time.perf_counter() - t0)
    setup_s = imported + statistics.median(build_times)
    ops = list(workload.ops)
    random.Random(args.seed).shuffle(ops)

    probe = lambda: speed_probe(sympy, clear_cache)  # noqa: E731
    probe()  # the first call pays one-off sympy set-up
    if workload.warmup is not None:
        # The first analysis in a process pays for growing the heap; that
        # should not land on whichever op the seed puts first.
        clear_cache()
        workload.warmup()
    tracer = None
    if args.trace:
        from tracing import Tracer, instrument

        tracer = Tracer()
        restore = instrument(tracer)
    rounds, records = run_rounds(ops, args.seconds, probe, clear_cache, tracer)
    if args.trace:
        restore()
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    factor = scale(records)

    by_label = [dict(zip((op.label for op in ops), outputs)) for outputs in rounds]
    problems = workload.verify(by_label)
    failed = sum(1 for r in records if r["error"])
    expected = {op.label for op in ops if op.expect_failure}
    problems += [
        f"{r['op']} failed: {r['error']}" for r in records if r["error"] and r["op"] not in expected
    ]
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    n_rounds = len(rounds)
    round_walls = [sum(r["seconds"] for r in records if r["round"] == i) for i in range(n_rounds)]
    times = [r["seconds"] for r in records if not r["error"]] or [r["seconds"] for r in records]
    if args.trace:
        from tracing import metric_units

        totals = dict(tracer.totals)
        for name, value in workload.layer_metrics(by_label).items():
            totals[name] = totals.get(name, 0.0) + value
        totals["trace.overhead_s"] = tracer.overhead_estimate()
        per_round = {name: value / n_rounds for name, value in totals.items()}
        per_round["cli.import_s"] = fresh_import_seconds()
        metrics = {}
        for name, unit in metric_units().items():
            value = per_round.get(name, 0.0)
            if unit == "count":
                value = round(value, 6)
            else:
                value /= factor
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.wall_s"]["value"] = statistics.median(round_walls)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "rounds": n_rounds,
            "speed_factor": factor,
            "spans_dropped": tracer.dropped,
            "metrics": metrics,
            "spans": tracer.span_records(),
        }))
    else:
        peak_kb = rss_children if workload.children else rss_self
        metrics = {
            "wall_s": {"value": statistics.median(round_walls), "unit": "s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "op_tail_s": {"value": tail_value(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }

    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "rounds": n_rounds,
        "speed_factor": factor,
        "setup_s": setup_s,
        "problems": problems,
        "ops": records,
    }, indent=1))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
