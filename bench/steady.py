"""Steadiness helper: run workloads repeatedly and print each metric's spread.

    python3 bench/steady.py --runs 10 --seconds 45 [--workloads street,twins]
                            [--first-seed 1] [--save runs.json]

Run i uses seed first_seed + i for every workload. The workload order
alternates between runs (forward on even runs, reversed on odd ones), so a
host that slows down over time does not always hit the same workload last.
For each metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, min and max, and the
spread (Q3 - Q1) / median, next to a third of its bound in BENCHMARK.json:
a bound should come from spreads measured this way, not from a guess.
Exits 1 if any run failed or reported ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float) -> dict | None:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        return None
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
        "spread": (q3 - q1) / med if med else float("inf"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=None,
                   help="comma-separated; default: every workload in BENCHMARK.json")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--save", type=Path, default=None, help="write every run's result here")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in (workloads if i % 2 == 0 else workloads[::-1]):
            res = run_once(w, seed, seconds)
            if res is None or not res["correct"]:
                ok = False
            if res is not None:
                results[w].append({"seed": seed, **res})
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: "
                  f"{'ok' if res and res['correct'] else 'FAILED'}", file=sys.stderr)

    for w, runs in results.items():
        print(f"\n{w}: {len(runs)} runs")
        print(f"  {'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'min':>12s} {'max':>12s} {'spread':>7s}  bound/3")
        names = runs[0]["metrics"] if runs else {}
        for name in names:
            vals = [r["metrics"][name]["value"] for r in runs]
            if any(v is None for v in vals):
                print(f"  {name:48s} missing in some runs")
                continue
            s = summarize(vals)
            flag = ""
            if name in bounds:
                third = bounds[name] / 3
                flag = f"{third:.3f} {'ok' if s['spread'] <= third else 'WIDE'}"
            print(f"  {name:48s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
                  f"{s['min']:12.5g} {s['max']:12.5g} {s['spread']:7.3f}  {flag}")
    if args.save:
        args.save.write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
