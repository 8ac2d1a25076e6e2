"""Benchmark qqkit end to end, or layer by layer with --trace 1.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; qqkit is imported from ./src.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or its
per-layer metrics with --trace 1).  Each run also writes a results record to
perfbench/results/.  ``--workload all`` runs every workload in its own
process, one after another, and ends with a table of their results.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5  # set-up is repeated and its median reported


def _fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_fresh():
    """Import qqkit from ./src anew, dropping any copy already imported."""
    for name in [n for n in sys.modules if n == "qqkit" or n.startswith("qqkit.")]:
        del sys.modules[name]
    qqkit = importlib.import_module("qqkit")
    for sub in ("cli", "verify", "render"):
        importlib.import_module(f"qqkit.{sub}")
    if Path(qqkit.__file__).resolve().parent != ROOT / "src" / "qqkit":
        _fail(f"imported qqkit from {qqkit.__file__}, not from this checkout")


def _setup(workload_cls, seed: int, workdir: str, host):
    """Time import + fixture loading + job list, SETUP_REPS times; keep the last."""
    spans, wl = [], None
    host.sample(3)
    for _ in range(SETUP_REPS):
        wl = None
        start = time.perf_counter()
        _import_fresh()
        wl = workload_cls(seed, workdir)
        spans.append((start, time.perf_counter()))
        host.sample(3)
    return wl, spans


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def at_reference_speed(p, host) -> tuple[list[float], float]:
    """A pass's op seconds and wall seconds, scaled to reference speed."""
    ops = [t * host.scale(*span) for t, span in zip(p.op_seconds, p.op_spans)]
    wall = p.wall_s * host.scale(*p.wall_span) if p.wall_span else sum(ops)
    return ops, wall


def pass_scale(p, host) -> float:
    span = p.wall_span or (p.op_spans[0][0], p.op_spans[-1][1])
    return host.scale(*span)


def end_to_end(scaled, setup_s: float) -> dict:
    """scaled: (op seconds, wall seconds) of each pass, at reference speed."""
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(wall for _, wall in scaled),
        # each op's median over the passes, then the median over the ops
        "op_p50_ms": statistics.median(statistics.median(t) for t in zip(*(ops for ops, _ in scaled))) * 1000.0,
        "slowest_op_s": statistics.median(max(ops) for ops, _ in scaled),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(summaries, scales: list[float], counters: dict, overhead: float) -> dict:
    """Per-layer metrics: counts from the first traced pass; self times as
    medians over the traced passes, each scaled by its pass's speed scale."""
    first = summaries[0]
    fn, c = first["functions"], first["counters"]

    def median_s(get):
        return statistics.median(get(s) * k for s, k in zip(summaries, scales))

    out = {}
    for layer in first["layers"]:
        out[f"{layer}.self_s"] = median_s(lambda s: s["layers"][layer])
    for name, rec in fn.items():
        out[f"{name}.calls"] = rec["calls"]
        out[f"{name}.self_s"] = median_s(lambda s: s["functions"][name]["self_s"])
    for key in ("engine.terms", "engine.edges", "engine.path_checks", "engine.s_zero_drops"):
        out[key] = c.get(key, 0)
    out["coefficient.specialize.zero_ratio"] = _ratio(c.get("coefficient.specialize.zero", 0), fn["coefficient.specialize"]["calls"])
    out["coefficient.s_r.distinct_ratio"] = _ratio(c["coefficient.s_r.distinct"], fn["coefficient.s_r"]["calls"])
    out["higgsing.higgs.dropped_ratio"] = _ratio(c.get("higgsing.higgs.dropped", 0), c.get("higgsing.higgs.terms_in", 0))
    out["render.bytes"] = counters.get("render.bytes", 0)
    out["verify.fixture_sum_s"] = counters.get("verify.fixture_sum_s", 0.0)
    out["trace.overhead_ratio"] = overhead
    return out


def _exact_counts(summary) -> dict:
    counts = {name: rec["calls"] for name, rec in summary["functions"].items()}
    counts.update(summary["counters"])
    return counts


def run_all(args, spec) -> int:
    """Run each workload in a child process; print a table of the results."""
    rows = []
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if out.returncode != 0:
            _fail(f"workload {w['name']} exited with {out.returncode}")
        line = out.stdout.strip().splitlines()[-1]
        print(line, flush=True)
        rows.append((w["name"], json.loads(line)))
    for name, r in rows:
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for metric, v in r["metrics"].items():
            print(f"    {metric:36s} {v['value']:14.6g} {v['unit']}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "qqkit" / "__init__.py").is_file():
        _fail(f"no qqkit sources under {ROOT / 'src'}; run from a source checkout")
    if not bench_file.is_file():
        _fail(f"{bench_file} is missing")
    spec = json.loads(bench_file.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    import spans
    import speed
    import workloads

    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workdir = str(HERE / "out" / f"{args.workload}-{os.getpid()}")
    # One CPU for every thread of the run, so that speed samples measure the
    # core the work runs on; threads started later inherit the mask.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    passes, summaries = [], []
    tracer = None
    with speed.Speed() as host:
        wl, setup_spans = _setup(workloads.WORKLOADS[args.workload], args.seed, workdir, host)
        start = time.perf_counter()
        if args.trace:
            passes.append(wl.run_pass(host))  # untraced, the base of trace.overhead_ratio
            tracer = spans.Tracer()
            tracer.install()
        while True:
            if tracer is None:
                passes.append(wl.run_pass(host))
            else:
                tracer.reset()
                passes.append(wl.run_pass(host, tracer.muted))
                summaries.append(tracer.summary())
            if time.perf_counter() - start >= args.seconds:
                break
    setup_s = statistics.median((b - a) * host.scale(a, b) for a, b in setup_spans)
    scaled = [at_reference_speed(p, host) for p in passes]

    problems = [q for p in passes for q in p.problems]
    attempted = sum(len(p.op_seconds) for p in passes)
    failed = sum(sum(p.failed) for p in passes)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        untraced_ops, untraced_wall = scaled[0]
        overhead = statistics.median(wall for _, wall in scaled[1:]) / untraced_wall
        counters = dict(passes[0].counters)
        if args.workload == "corpus":
            counters["verify.fixture_sum_s"] = sum(untraced_ops)
        values = per_layer(summaries, [pass_scale(p, host) for p in passes[1:]], counters, overhead)
        if any(_exact_counts(s) != _exact_counts(summaries[0]) for s in summaries):
            problems.append("per-layer counts differ between traced passes")
    else:
        values = end_to_end(scaled, setup_s)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        _fail(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "ops_per_pass": wl.n_ops,
        "attempted": attempted,
        "failed": failed,
        "failed_ops": sorted({i for p in passes for i, f in enumerate(p.failed) if f}),
        "correct": not problems,
        "problems": problems,
        "reference_s": speed.REFERENCE_S,
        "raw_setup_s": [b - a for a, b in setup_spans],
        "pass_wall_s": [wall for _, wall in scaled],
        "raw_pass_wall_s": [p.wall_s for p in passes],
        "op_seconds": [ops for ops, _ in scaled],
        "raw_op_seconds": [p.op_seconds for p in passes],
        "metrics": metrics,
    }
    if tracer is not None:
        record["per_layer_all"] = values
        record["exact_counts"] = _exact_counts(summaries[0])
        record["unwrapped_targets"] = tracer.missing
        record["spans_file"] = f"{stem}.spans.jsonl.gz"
        tracer.write_spans(str(results / record["spans_file"]))
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)

    for q in problems:
        print(f"check failed: {q}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
