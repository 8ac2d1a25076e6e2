"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds results records written by run.py (``*.json``; traced
runs are skipped).  For every workload and end-to-end metric of
BENCHMARK.json this prints each side's median and quartiles, how many pairs
of runs each side won, and a verdict:

- improved: the new side wins at least 9 in 10 pairs, and its median is
  better by more than the base side's quartile spread;
- worse: the new median is worse than the base median by more than the
  metric's bound;
- unresolved: neither, and one side's quartile spread (as a share of its
  median) is wider than the bound, unless every new run beats every base run;
- unchanged: otherwise.

Runs are paired by seed where both sides have it, the rest in file order.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0:
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in new}
    out, rest_b, used = [], [], set()
    for r in base:
        if r["seed"] in by_seed and r["seed"] not in used:
            out.append((r, by_seed[r["seed"]]))
            used.add(r["seed"])
        else:
            rest_b.append(r)
    rest_n = [r for r in new if r["seed"] not in used]
    return out + list(zip(rest_b, rest_n))


def verdict(metric: dict, base: list[float], new: list[float], wins_new: int, n_pairs: int) -> str:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    gain = sign * (bmed - nmed)  # > 0: the new side is better
    if n_pairs and wins_new >= 0.9 * n_pairs and gain > bq3 - bq1:
        return "improved"
    if -gain > metric["bound"] * abs(bmed):
        return "worse"
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0, (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    all_better = all(sign * (b - n) > 0 for b in base for n in new)
    if spread > metric["bound"] and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(argv[0]), load(argv[1])
    for wl in [w["name"] for w in spec["workloads"]]:
        b, n = base.get(wl, []), new.get(wl, [])
        print(f"== {wl}: base {len(b)} runs, new {len(n)} runs")
        for side, runs in (("base", b), ("new", n)):
            att = sum(r["attempted"] for r in runs)
            fail = sum(r["failed"] for r in runs)
            print(f"   {side:4s} ops attempted {att}, failed {fail}")
        if not b or not n:
            continue
        ps = pairs(b, n)
        print(f"   {'metric':14s} {'base q1/med/q3':>32s} {'new q1/med/q3':>32s} {'wins b:n':>9s}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b]
            nv = [r["metrics"][name]["value"] for r in n]
            sign = 1.0 if m["better"] == "lower" else -1.0
            wins_new = sum(1 for rb, rn in ps if sign * (rb["metrics"][name]["value"] - rn["metrics"][name]["value"]) > 0)
            wins_base = sum(1 for rb, rn in ps if sign * (rn["metrics"][name]["value"] - rb["metrics"][name]["value"]) > 0)
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(
                f"   {name:14s} {fmt(quartiles(bv)):>32s} {fmt(quartiles(nv)):>32s} "
                f"{wins_base:>4d}:{wins_new:<4d}  {verdict(m, bv, nv, wins_new, len(ps))} ({m['unit']})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
