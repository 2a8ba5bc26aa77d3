"""Outside-in spans around the public functions of each gsfloc module.

Every traced function is wrapped at the module attribute through which its
caller resolves it: ``pipeline.grid_probe`` rather than ``gsf.grid_probe``,
because ``pipeline`` imported the name and ``localize`` looks it up there.
Installing fails when an attribute is missing or no longer refers to the
function defined under the span's name, so a rename or a moved call site in
the program raises here instead of reading as 0 ms. Spans stay in memory and
are written out once, after the run.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from pathlib import Path


class TraceError(RuntimeError):
    """The program no longer matches the traced call sites."""


# span name ("module.function", where the function is defined) -> modules
# whose attribute of that name the callers resolve
SITES = {
    "pipeline.build_map": ["pipeline"],
    "pipeline.save_map": ["pipeline"],
    "pipeline.load_map": ["pipeline"],
    "pipeline.localize": ["pipeline"],
    "pipeline.voxel_downsample": ["pipeline"],
    "scene_graph.build_scene_graph": ["pipeline"],
    "scene_graph.cluster_instances": ["scene_graph"],
    "scene_graph.save_scene_graph": ["pipeline"],
    "scene_graph.load_scene_graph": ["pipeline"],
    "gsf.fit_gsf": ["scene_graph"],
    "gsf.grid_probe": ["pipeline"],
    "descriptors.triangulate": ["pipeline"],
    "descriptors.build_index": ["pipeline", "descriptors"],
    "descriptors.save_index": ["pipeline"],
    "descriptors.load_index": ["pipeline"],
    "descriptors.query_index": ["pipeline"],
    "descriptors.gsf_filter": ["pipeline"],
    "descriptors.pair_w2": ["pipeline", "descriptors"],
    "wasserstein.w2_squared": ["descriptors"],
    "wasserstein.psd_sqrt": ["wasserstein"],
    "matching.collect_correspondences": ["pipeline"],
    "matching.build_consistency_graph": ["pipeline"],
    "matching.max_clique": ["pipeline"],
    "pose_solver.robust_irls": ["pipeline"],
}


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _pair_w2_hit(args, kwargs) -> dict:
    # read before the call: pair_w2 fills the cache it is given
    cache = args[5] if len(args) > 5 else kwargs.get("cache")
    key = (_arg(args, kwargs, 0, "qid"), _arg(args, kwargs, 1, "mid"))
    return {"cache_hits": int(cache is not None and key in cache)}


def _bundle_bytes(args, kwargs, result) -> dict:
    bundle = Path(_arg(args, kwargs, 1, "bundle_dir"))
    return {"bytes": sum(f.stat().st_size for f in bundle.iterdir() if f.is_file())}


def _irls_counts(args, kwargs, result) -> dict:
    _pose, mask, trace = result
    return {"iterations": len(trace) - 1, "inliers": int(mask.sum()), "pairs": int(mask.size)}


# counts taken before the call, from its arguments
BEFORE = {"descriptors.pair_w2": _pair_w2_hit}

# counts taken after the call, from its arguments and result
AFTER = {
    "pipeline.save_map": _bundle_bytes,
    "pipeline.voxel_downsample": lambda a, k, r: {"points_out": r.n},
    "scene_graph.cluster_instances": lambda a, k, r: {"instances": len(r)},
    "gsf.fit_gsf": lambda a, k, r: {"support_points": r.m},
    "descriptors.triangulate": lambda a, k, r: {"triangles": len(r)},
    "descriptors.query_index": lambda a, k, r: {"candidates": len(r)},
    "descriptors.gsf_filter": lambda a, k, r: {
        "candidates": len(_arg(a, k, 1, "candidate_ids")),
        "survivors": len(r),
    },
    "matching.collect_correspondences": lambda a, k, r: {"correspondences": len(r)},
    "matching.build_consistency_graph": lambda a, k, r: {
        "edges": int(r.adjacency.sum()) // 2
    },
    "matching.max_clique": lambda a, k, r: {"clique_size": len(r)},
    "pose_solver.robust_irls": _irls_counts,
}


class Tracer:
    """Records one span per call of each wrapped function.

    A span is ``[name, start, end, parent index, context, counts]``. The
    context is the query's pool index while a query runs and ``-(k + 1)``
    during set-up ``k``. Calls run on one thread, so a stack gives parents.
    """

    def __init__(self, sites: dict | None = None):
        self.sites = SITES if sites is None else sites
        self.spans: list[list] = []
        self.context = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)

    def __enter__(self) -> "Tracer":
        try:
            for name, callers in self.sites.items():
                self._install(name, callers)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self, name: str, callers: list[str]) -> None:
        home, fn_name = name.rsplit(".", 1)
        home_mod = importlib.import_module(f"gsfloc.{home}")
        original = getattr(home_mod, fn_name, None)
        if original is None or getattr(original, "__module__", None) != home_mod.__name__:
            raise TraceError(f"span {name}: {home_mod.__name__}.{fn_name} is not defined there")
        wrapper = self._wrap(name, original)
        for caller in callers:
            mod = importlib.import_module(f"gsfloc.{caller}")
            if getattr(mod, fn_name, None) is not original:
                raise TraceError(
                    f"span {name}: callers in {mod.__name__} no longer resolve "
                    f"{fn_name} to {home_mod.__name__}.{fn_name}"
                )
            self._patched.append((mod, fn_name, original))
            setattr(mod, fn_name, wrapper)

    def _restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = BEFORE.get(name), AFTER.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.context, None]
            pre = before(args, kwargs) if before else None
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = clock()
                stack.pop()
                rec[5] = {"raised": 1}
                raise
            rec[2] = clock()
            stack.pop()
            counts = after(args, kwargs, result) if after else None
            if pre:
                counts = {**pre, **(counts or {})}
            rec[5] = counts
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover (s)."""
        out = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                out[rec[3]] -= rec[2] - rec[1]
        return out

    def aggregate(self) -> dict:
        """{("query" | "setup", span name): {"calls", "ms", "self_ms", counts...}}."""
        agg: dict = {}
        for rec, self_s in zip(self.spans, self.self_times()):
            phase = "query" if rec[4] >= 0 else "setup"
            a = agg.setdefault((phase, rec[0]), {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            a["calls"] += 1
            a["ms"] += (rec[2] - rec[1]) * 1e3
            a["self_ms"] += self_s * 1e3
            for key, val in (rec[5] or {}).items():
                a[key] = a.get(key, 0) + val
        return agg

    def write(self, path: Path) -> None:
        """All spans as gzipped tab-separated lines, times in ms from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as f:
            f.write("index\tname\tstart_ms\tend_ms\tself_ms\tparent\tcontext\tcounts\n")
            for i, (rec, self_s) in enumerate(zip(self.spans, self.self_times())):
                f.write(
                    f"{i}\t{rec[0]}\t{(rec[1] - t0) * 1e3:.4f}\t{(rec[2] - t0) * 1e3:.4f}\t"
                    f"{self_s * 1e3:.4f}\t{rec[3]}\t{rec[4]}\t"
                    f"{json.dumps(rec[5], separators=(',', ':')) if rec[5] else ''}\n"
                )
