"""Command-line entry points.

Subcommands: build-map, localize, evaluate, synth, selftest.
Exit codes: 0 success; 1 IO error; 2 validation error; 3 build/solve failure;
4 no match. Machine-parsable output goes to stdout (one JSON object last);
diagnostics to stderr. Every run records a manifest with the full effective
configuration and sha256 hashes of its inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, checked
from .core import (
    FormatError,
    GsflocError,
    ValidationError,
    default_taxonomy,
    load_cloud,
    read_json,
    save_cloud,
    sha256_file,
)
from .pipeline import build_map, load_map, localize, save_map
from .synth import SceneSpec, generate_scene, run_benchmark, sample_query_poses

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_BUILD = 3
EXIT_NOMATCH = 4


def _effective_config(args, base: RunConfig | None = None) -> RunConfig:
    """A copy of `base` (the defaults if None), then the --config file, then --set."""
    cfg = RunConfig.from_dict(base.to_dict()) if base is not None else RunConfig()
    if args.config:
        cfg.update_from_file(args.config)
    cfg.apply_overrides(args.set)
    return cfg


def _manifest(command: str, cfg: RunConfig, inputs: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "effective_config": cfg.to_dict(),
        "inputs": {str(k): sha256_file(k) for k in inputs.values() if k is not None},
    }


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _add_common(p) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key, e.g. sim.yaw_samples=4")


def _load_input_cloud(args, taxonomy):
    return load_cloud(
        args.points, args.labels, args.logits, num_classes=taxonomy.num_classes
    )


def cmd_build_map(args) -> int:
    cfg = _effective_config(args)
    taxonomy = default_taxonomy()
    cloud = _load_input_cloud(args, taxonomy)
    ref = build_map(cloud, taxonomy, cfg)
    out = Path(args.out)
    save_map(ref, out)
    manifest = _manifest(
        "build-map", cfg,
        {"points": args.points, "labels": args.labels, "logits": args.logits},
    )
    (out / "run_manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    _emit(
        {
            "bundle": str(out),
            "instances": len(ref.centroids),
            "descriptors": len(ref.index.vertex_ids),
        }
    )
    return EXIT_OK


def cmd_localize(args) -> int:
    ref = load_map(args.map)
    # query settings ride on the bundle's config; localize refuses the ones that
    # make query and map populations incomparable
    cfg = _effective_config(args, base=ref.config)
    if args.no_gsf:
        cfg.pipeline.use_gsf_filter = False
    cloud = _load_input_cloud(args, ref.taxonomy)
    result = localize(cloud, ref, cfg)
    status = result.to_dict(include_timings=not args.no_timings)
    status["manifest"] = _manifest(
        "localize", cfg,
        {"points": args.points, "labels": args.labels, "logits": args.logits},
    )
    if result.pose is not None:
        print(" ".join(repr(float(v)) for v in result.pose.matrix_3x4().ravel()))
    _emit(status)
    if result.status == "success":
        return EXIT_OK
    return EXIT_NOMATCH if result.status == "no-match" else EXIT_BUILD


def cmd_synth(args) -> int:
    doc = read_json(args.spec, f"spec file {args.spec}", ValidationError)
    spec = SceneSpec.from_dict(doc)
    if args.seed is not None:
        spec.seed = args.seed
    taxonomy = default_taxonomy()
    cloud, gt = generate_scene(spec, taxonomy)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_cloud(cloud, out / "scene.points", out / "scene.labels", out / "scene.logits")
    (out / "ground_truth.json").write_text(
        json.dumps(
            {
                "instances": [
                    {
                        "label": int(g.label),
                        "class": taxonomy.name(int(g.label)),
                        "centroid": [float(v) for v in g.centroid],
                        "points": g.count,
                    }
                    for g in gt
                ]
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    manifest = {
        "command": "synth",
        "version": __version__,
        "spec": spec.to_dict(),
        "inputs": {"spec": sha256_file(args.spec)},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    _emit({"out": str(out), "points": cloud.n, "instances": len(gt)})
    return EXIT_OK


def cmd_evaluate(args) -> int:
    doc = checked(dict, read_json(args.spec, f"spec file {args.spec}", ValidationError),
                  "benchmark spec")
    for key in doc:
        if key not in ("map", "queries", "config"):
            raise ValidationError(f"benchmark spec: unknown field {key!r}")
    if "map" not in doc:
        raise ValidationError("benchmark spec: 'map' field is required")
    map_spec = SceneSpec.from_dict(doc["map"])
    if args.seed is not None:
        map_spec.seed = args.seed
    q = checked(dict, doc.get("queries", {}), "benchmark spec: queries")
    for key in q:
        if key not in ("count", "range_max", "dropout", "noise_sigma", "region_half", "z"):
            raise ValidationError(f"benchmark spec: queries: unknown field {key!r}")

    cfg = _effective_config(args)
    if "config" in doc:
        cfg.update(doc["config"])

    def query_field(key, kind, default):
        return checked(kind, q.get(key, default), f"benchmark spec: queries.{key}")

    count = query_field("count", int, 20)
    if count < 1:
        raise ValidationError(f"benchmark spec: queries.count must be >= 1, got {count}")
    range_max = query_field("range_max", float, 60.0)
    if not range_max > 0:
        raise ValidationError(f"benchmark spec: queries.range_max must be > 0, got {range_max}")
    poses = sample_query_poses(
        count, seed=[map_spec.seed, 1],
        half=query_field("region_half", float, map_spec.extent / 4.0),
        z=query_field("z", float, 1.8),
    )
    report = run_benchmark(
        map_spec,
        poses,
        cfg,
        range_max=range_max,
        dropout_rate=query_field("dropout", float, 0.3),
        noise_sigma=query_field("noise_sigma", float, 0.03),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.write_csv(out / "report.csv", include_timings=not args.no_timings)
    summary = {"aggregates": report.aggregates, "spec": map_spec.to_dict()}
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    manifest = _manifest("evaluate", cfg, {"spec": args.spec})
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    _emit(summary["aggregates"])
    return EXIT_OK


def cmd_selftest(args) -> int:
    """Quick oracle-equivalence checks of the numerical core."""
    from scipy.linalg import inv

    from .gsf import (GpHyperParams, GpPopulation, fit_gsf, gsf_predict, grid_probe,
                      matern32_matrix, semantic_sparsify)
    from .matching import ConsistencyGraph, Correspondence, brute_force_max_clique, max_clique
    from .pose_solver import WeightedCorrespondenceSet, weighted_kabsch
    from .core import RigidTransform, rotation_angle_deg, rot_z
    from .descriptors import TriangleDescriptor, build_index, pair_w2, query_index
    from .wasserstein import w2_squared

    rng = np.random.default_rng(7)
    ok = True

    def report(name, passed):
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {name}")

    # GP prediction vs explicit-inverse oracle, on one query set and on a stack;
    # every other fit keeps all m points, the rest draw to a budget below m
    worst, drawn, same_rows = 0.0, 0, True
    for it in range(20):
        m, g, d = rng.integers(3, 12), rng.integers(1, 6), rng.integers(1, 4)
        X = rng.uniform(-3, 3, (m, 3))
        Y = rng.normal(size=(m, d))
        labels = rng.integers(0, 3, m)
        hyper = GpHyperParams(kappa=1.5, sigma_y=0.2)
        budget = m if it % 2 else int(rng.integers(2, m))
        fld = fit_gsf(X, Y, labels, hyper, budget=budget, seed=0)
        kept = semantic_sparsify(labels, budget, 0)
        same_rows &= np.array_equal(fld.X, X[kept]) and np.array_equal(fld.Y, Y[kept])
        drawn += fld.m < m
        K_inv = inv(matern32_matrix(fld.X, fld.X, 1.5) + 0.04 * np.eye(fld.m))
        Qs = rng.uniform(-3, 3, (int(rng.integers(1, 4)), g, 3))
        for Q, (mu, Sigma) in [(Qs[0], gsf_predict(fld, Qs[0])),
                               *zip(Qs, zip(*gsf_predict(fld, Qs)))]:
            kqx = matern32_matrix(Q, fld.X, 1.5)
            mu_o = kqx @ K_inv @ fld.Y
            S_o = matern32_matrix(Q, Q, 1.5) - kqx @ K_inv @ kqx.T
            worst = max(worst, np.abs(mu - mu_o).max(),
                        np.abs(Sigma - 0.5 * (S_o + S_o.T)).max())
    report(f"gp-oracle (max abs dev {worst:.2e}, {drawn} of 20 fits drawn below m)",
           worst < 1e-9 and drawn > 0 and same_rows)

    # clique exactness on random graphs
    agree = True
    for _ in range(30):
        n = int(rng.integers(4, 13))
        adj = np.triu(rng.random((n, n)) < 0.5, 1)
        adj = adj | adj.T
        nodes = [Correspondence(i, i, float(rng.uniform(0.1, 1.0)), 1) for i in range(n)]
        gph = ConsistencyGraph(nodes, adj, 1.0)
        agree = agree and max_clique(gph) == brute_force_max_clique(gph)
    report("max-clique vs brute force", agree)

    # 1-D analytic Wasserstein
    pa = GpPopulation(np.zeros((1, 3)), np.array([[0.0]]), np.array([[1.0]]), np.ones(1))
    pb = GpPopulation(np.zeros((1, 3)), np.array([[3.0]]), np.array([[1.0]]), np.ones(1))
    report("wasserstein 1-D analytic", abs(w2_squared(pa, pb) - 9.0) < 1e-10)

    # pose recovery
    worst_t = worst_r = 0.0
    for _ in range(20):
        T = RigidTransform(rot_z(rng.uniform(0, 2 * np.pi)), rng.uniform(-5, 5, 3))
        q = rng.uniform(-10, 10, (8, 3))
        p = T.apply(q)
        est = weighted_kabsch(WeightedCorrespondenceSet(p, q, rng.uniform(0.2, 1.0, 8)))
        te = float(np.linalg.norm(est.t - T.t))
        re_ = rotation_angle_deg(T.R.T @ est.R)
        worst_t, worst_r = max(worst_t, te), max(worst_r, re_)
    report(f"kabsch recovery (worst {worst_t:.1e} m / {worst_r:.1e} deg)",
           worst_t < 1e-9 and worst_r < 1e-7)

    # yaw-permuted probe vs fresh probe, on the default 5x5 grid at 8 yaws
    taxonomy = default_taxonomy()
    d = taxonomy.num_classes
    fld = fit_gsf(rng.uniform(-6, 6, (80, 3)), rng.normal(size=(80, d)),
                  rng.integers(0, d, 80), GpHyperParams(), budget=80, seed=0)
    yaws = [2.0 * np.pi * k / 8 for k in range(8)]
    grid = RunConfig().gsf.grid
    stack = grid_probe(fld, taxonomy, grid, yaws)
    worst = max(
        max(np.abs(stack.grid[k] - want.grid).max(), np.abs(stack.mu[k] - want.mu).max(),
            np.abs(stack.Sigma[k] - want.Sigma).max(),
            np.abs(stack.stability_weights[k] - want.stability_weights).max())
        for k, want in enumerate(grid_probe(fld, taxonomy, grid, y) for y in yaws)
    )
    report(f"yaw-stacked probe vs fresh probe (8 yaws, max abs dev {worst:.2e})",
           worst < 1e-12)

    # descriptor index vs linear scan; quarter-meter sides put many probes
    # exactly delta_d away, where the match is inclusive
    delta = 0.5
    sides = np.sort(np.round(rng.uniform(1, 10, (200, 3)) * 4) / 4, axis=1).tolist()
    labs = rng.choice([6, 7], (200, 3)).tolist()
    descs = [TriangleDescriptor(i, (0, 1, 2), tuple(s), tuple(lab))
             for i, (s, lab) in enumerate(zip(sides, labs))]
    index = build_index(descs, delta)
    agree, probes, wants = True, [], []
    for row in range(300):
        base = descs[int(rng.integers(len(descs)))]
        offsets = rng.choice([-delta, -delta / 2, 0.0, delta / 2, delta], 3)
        q = TriangleDescriptor(0, (0, 1, 2), tuple(s + o for s, o in zip(base.sides, offsets)),
                               base.labels)
        want = [d.id for d in descs
                if max(abs(a - b) for a, b in zip(q.sides, d.sides)) <= delta
                and sorted(d.labels) == sorted(q.labels)]
        agree = agree and query_index(index, q) == want
        probes.append(q)
        wants += [[row, cid] for cid in want]
    agree = agree and query_index(index, probes).tolist() == wants
    report(f"descriptor index vs linear scan (300 probes one by one and batched, "
           f"{len(wants)} matches)", agree)

    # batched W2 table vs one w2_squared call per pair, on random populations:
    # 4 query instances at 8 yaws against 5 map instances, stability on. Some
    # yaw members sit where the lower bound that lets `pair_w2` skip members
    # is tight: two equal to their map population (one pair's tie), and one
    # with a proportional covariance and the same means.
    def population(*lead):
        g = 25
        a = rng.normal(size=(*lead, g, g))
        return GpPopulation(np.zeros((g, 3)), rng.normal(size=(*lead, g, 12)),
                            a @ np.swapaxes(a, -1, -2) / g, rng.uniform(0.1, 1.0, (*lead, g)))

    pops_q, pops_m = population(4, 8), population(5)
    for q, y, m, scale in [(0, 3, 2, 1.0), (0, 6, 2, 1.0), (1, 5, 4, 2.25)]:
        pops_q[q, y] = pops_m[m]
        pops_q.Sigma[q, y] *= scale
    qids, mids = (np.ravel(v) for v in np.meshgrid(range(4), range(5), indexing="ij"))
    table = pair_w2(qids, mids, pops_q, pops_m, True)
    loop = [float(np.min(w2_squared(pops_q[q], pops_m[m], True)))
            for q, m in zip(qids.tolist(), mids.tolist())]
    report(f"batched W2 table vs per-pair loop ({len(loop)} pairs x 8 yaws, bit-equal)",
           table.tolist() == loop)

    return EXIT_OK if ok else EXIT_BUILD


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gsfloc",
        description="One-shot LiDAR global localization with Gaussian semantic fields",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-map", help="build a reference map bundle from a cloud")
    p.add_argument("--points", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--logits")
    p.add_argument("--out", required=True, help="bundle output directory")
    _add_common(p)
    p.set_defaults(func=cmd_build_map)

    p = sub.add_parser("localize", help="localize a query scan against a map bundle")
    p.add_argument("--map", required=True, help="map bundle directory")
    p.add_argument("--points", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--logits")
    p.add_argument("--no-gsf", action="store_true", help="disable the GSF fine filter")
    p.add_argument("--no-timings", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("synth", help="generate a synthetic labeled scene")
    p.add_argument("--spec", required=True, help="scene spec JSON file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("evaluate", help="run a synthetic localization benchmark")
    p.add_argument("--spec", required=True, help="benchmark spec JSON file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--no-timings", action="store_true",
                   help="omit timing columns for byte-reproducible CSVs")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("selftest", help="run quick oracle-equivalence checks")
    p.set_defaults(func=cmd_selftest)

    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, FormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except GsflocError as e:  # BuildError, GenerationError and the rest
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUILD


if __name__ == "__main__":
    sys.exit(main())
