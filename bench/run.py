"""gsfloc benchmark: one workload in one process, as a closed loop.

    python3 bench/run.py --workload street --seed 1 --seconds 45 --trace 0

One caller sends the next query only after the previous one returns, with
library defaults (``RunConfig()``, ``threads=1``). The run first generates
its inputs from ``--seed``, then times its set-ups, then localizes queries
from a fixed pool for ``--seconds`` seconds.

Times are reported at the reference host speed: each is multiplied by
``PROBE_REFERENCE_MS`` over the median host speed probe of its phase (see
``host.py``), which removes most of a shared host's drift. The unscaled
end-to-end values are printed on the ``raw`` line and kept in the report.

``--trace 0`` prints every end-to-end metric. ``--trace 1`` alternates
untraced and traced localizations of the same queries and prints every
per-layer metric plus the tracing overhead. Both check every output: the
hash of each query's status and pose must not change between repeats or
between traced and untraced calls, and the workload's quality floor must
hold. The last stdout line is one JSON object; the exit code is 0 only when
every check passed. Reports and spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def import_program():
    """Import gsfloc from this checkout's sources and nowhere else."""
    pkg = SRC / "gsfloc"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {pkg}; run inside a gsfloc checkout")
    sys.path.insert(0, str(SRC))
    import gsfloc

    if Path(gsfloc.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"bench: imported gsfloc from {gsfloc.__file__}, expected {pkg}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["street", "twins"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny input pool and set-up count, for the smoke tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def check_hashes(records: list[dict]) -> list[str]:
    """Every repeat of a pool query, traced or not, must hash the same."""
    first: dict[int, str] = {}
    problems = []
    for r in records:
        h = first.setdefault(r["pool"], r["hash"])
        if h != r["hash"]:
            problems.append(f"pool query {r['pool']}: result hash changed between calls")
    return problems


def check_floor(workload, e2e: dict) -> list[str]:
    problems = []
    for name, floor in workload.quality_floor.items():
        val = e2e[name]
        ok = val >= floor if name == "success_rate" else val <= floor
        if not ok:
            problems.append(f"quality floor: {name} = {val:.4g}, floor {floor}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from host import PROBE_REFERENCE_MS, fingerprint
    from metrics import (
        BOUNDED,
        END_TO_END_UNITS,
        QUALITY,
        end_to_end,
        expected_spans,
        per_layer,
        per_layer_units,
        run_hash,
        to_reference_speed,
    )
    from tracer import Tracer
    from workloads import WORKLOADS, measure

    machine = fingerprint()
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    scratch = OUT / f"tmp-{tag}-{os.getpid()}"
    scratch.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        run = measure(workload, args.seconds, scratch, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    machine["loadavg_end"] = list(os.getloadavg())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain, traced = run["plain"], run["traced"]
    records = plain + traced
    probe_ms = statistics.median(run["probe_ms"])
    setup_probe_ms = statistics.median(run["setup_probe_ms"])
    factors = (PROBE_REFERENCE_MS / probe_ms, PROBE_REFERENCE_MS / setup_probe_ms)
    raw = end_to_end(plain, run["setup_seconds"], run["query_phase_s"], peak_rss_mb)
    e2e = to_reference_speed(raw, END_TO_END_UNITS, *factors)
    problems = check_hashes(records) + check_floor(workload, e2e)
    if tracer is None:
        metrics = {k: (e2e[k], END_TO_END_UNITS[k]) for k in BOUNDED}
    else:
        agg = tracer.aggregate()
        missing = sorted(expected_spans(workload.bundle_io) - set(agg))
        problems += [f"span {span} never fired in the {phase} phase" for phase, span in missing]
        layer = per_layer(agg, len(traced), len(run["setup_seconds"]))
        layer["trace.queries"] = float(len(traced))
        layer["trace.overhead_ms"] = (
            statistics.median(r["wall_ms"] for r in traced) - raw["query_ms_p50"]
        )
        units = per_layer_units()
        layer = to_reference_speed(layer, units, *factors)
        metrics = {k: (layer[k], units[k]) for k in units}
        tracer.write(OUT / f"{tag}.spans.tsv.gz")

    n = len(plain)
    samples = {
        "queries": len(records),
        "untraced_queries": n,
        "traced_queries": len(traced),
        "distinct_queries": len({r["pool"] for r in records}),
        "pool": len(workload.queries),
        "setups": len(run["setup_seconds"]),
        "p90_tail_samples": n - math.ceil(0.9 * n),
    }
    digest = run_hash({r["pool"]: r["hash"] for r in records})
    correct = not problems
    failed = sum(r["status"] != "success" for r in records)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "samples": samples,
        "result_hash": digest,
        "problems": problems,
        "probe_ms": probe_ms,
        "setup_probe_ms": setup_probe_ms,
        "speed_factors": {"query": factors[0], "setup": factors[1]},
        "end_to_end_raw": raw,
        "end_to_end": e2e,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_seconds": run["setup_seconds"],
        "queries": [
            {k: r[k] for k in ("pool", "wall_ms", "cpu_ms", "status", "hash")}
            | {"traced": j >= n}
            for j, r in enumerate(records)
        ],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    print("machine " + json.dumps(machine, sort_keys=True))
    print("samples " + json.dumps(samples, sort_keys=True))
    print(f"host probe_ms query {probe_ms:.4f} setup {setup_probe_ms:.4f} "
          f"speed_factor query {factors[0]:.4f} setup {factors[1]:.4f}")
    print("quality " + json.dumps({k: {"value": e2e[k], "unit": END_TO_END_UNITS[k]}
                                   for k in QUALITY}))
    print("raw " + json.dumps(raw))
    print(f"result_hash {digest}")
    if tracer is None and samples["p90_tail_samples"] < 10:
        print(f"note: query_ms_p90 rests on {samples['p90_tail_samples']} samples beyond it",
              file=sys.stderr)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            k: {"value": v if math.isfinite(v) else None, "unit": u}
            for k, (v, u) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
