"""Smoke tests for the benchmark, at tiny sizes.

    python3 -m pytest bench/tests -q

Every run uses ``--smoke`` (a pool of a few queries, one or two set-ups) and
a short ``--seconds``. The tests check the output contract, not speed: every
metric named in BENCHMARK.json appears with its unit, every traced span
fires, result hashes repeat, and the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import gzip
import json
import math
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 0

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from metrics import expected_spans  # noqa: E402
from tracer import SITES, Tracer, TraceError  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def runs() -> dict:
    """(workload, trace) -> (exit code, stdout lines), each run once."""
    out = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            proc = bench(w, trace)
            out[w, trace] = (proc.returncode, proc.stdout.strip().splitlines(), proc.stderr)
    return out


def result_hash(lines: list[str]) -> str:
    return next(line.split()[1] for line in lines if line.startswith("result_hash "))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_appears_with_its_unit(runs, workload, trace):
    code, lines, err = runs[workload, trace]
    assert code == 0, err
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), m["name"]
    if not trace:
        assert all(last["metrics"][m["name"]]["value"] > 0 for m in named)
    assert any(line.startswith("machine ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_expected_span_fires(runs, workload):
    assert runs[workload, 1][0] == 0
    fired = set()
    with gzip.open(OUT / f"{workload}-s{SEED}-t1.spans.tsv.gz", "rt") as f:
        next(f)
        for line in f:
            _, name, *_, context, _counts = line.rstrip("\n").split("\t")
            fired.add(("query" if int(context) >= 0 else "setup", name))
    bundle_io = workload == "twins"
    assert expected_spans(bundle_io) <= fired
    assert {name for _, name in fired} <= set(SITES)
    if bundle_io:
        assert {name for _, name in fired} == set(SITES)


def test_self_times_add_up_to_the_localize_span(runs):
    """Within one traced query, the self times under localize sum to its duration."""
    assert runs["twins", 1][0] == 0
    rows = []
    with gzip.open(OUT / f"twins-s{SEED}-t1.spans.tsv.gz", "rt") as f:
        next(f)
        for line in f:
            idx, name, start, end, self_ms, parent, context, _ = line.rstrip("\n").split("\t")
            rows.append((name, float(start), float(end), float(self_ms), int(parent)))
    root_of = {}
    totals = defaultdict(float)
    sizes = defaultdict(int)
    for i, (name, start, end, self_ms, parent) in enumerate(rows):
        root_of[i] = i if parent < 0 else root_of[parent]
        totals[root_of[i]] += self_ms
        sizes[root_of[i]] += 1
    roots = [i for i, r in enumerate(rows) if r[0] == "pipeline.localize"]
    assert roots
    for i in roots:
        # each written time is rounded to 1e-4 ms
        tol = 2e-4 * (sizes[i] + 1)
        assert totals[i] == pytest.approx(rows[i][2] - rows[i][1], abs=tol)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_hash_repeats_across_runs_and_tracing(runs, workload):
    again = bench(workload, 0)
    assert again.returncode == 0, again.stderr
    first = result_hash(runs[workload, 0][1])
    assert result_hash(again.stdout.splitlines()) == first
    assert result_hash(runs[workload, 1][1]) == first


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_fails_loudly_when_a_traced_name_moves():
    from gsfloc import gsf, pipeline

    with pytest.raises(TraceError):
        with Tracer(sites={"gsf.no_such_function": ["pipeline"]}):
            pass
    # scene_graph never imported grid_probe, so nothing there calls it
    with pytest.raises(TraceError):
        with Tracer(sites={"pipeline.localize": ["pipeline"], "gsf.grid_probe": ["scene_graph"]}):
            pass
    assert pipeline.localize.__module__ == "gsfloc.pipeline"
    assert not hasattr(pipeline.localize, "__wrapped__")
    assert pipeline.grid_probe is gsf.grid_probe


def test_output_checks_flag_changed_hashes_and_missed_floors():
    same = [{"pool": 0, "hash": "a"}, {"pool": 1, "hash": "b"}, {"pool": 0, "hash": "a"}]
    assert run.check_hashes(same) == []
    assert run.check_hashes(same + [{"pool": 1, "hash": "c"}])

    class Floor:
        quality_floor = {"success_rate": 0.95, "ate_m_p50": 0.5}

    assert run.check_floor(Floor, {"success_rate": 1.0, "ate_m_p50": 0.1}) == []
    assert len(run.check_floor(Floor, {"success_rate": 0.9, "ate_m_p50": 0.6})) == 2
