"""One-shot global localization, end to end.

Generates a 20-instance urban scene, builds the reference map (scene graph +
per-instance field populations + triangle-descriptor index), then localizes
simulated scans taken from unknown poses with noise and dropout. Each query
runs the full cascade: query graph, coarse hash matching, W2 fine filtering,
consistency clique, and robust confidence-weighted pose solving.
"""

from gsfloc.config import RunConfig
from gsfloc.core import default_taxonomy, pose_error
from gsfloc.pipeline import build_map, localize
from gsfloc.synth import (
    InstanceTemplate,
    SceneSpec,
    generate_scene,
    sample_query_poses,
    simulate_scan,
)

tax = default_taxonomy()
spec = SceneSpec(
    extent=80.0,
    templates=[
        InstanceTemplate("pole", 6, 140),
        InstanceTemplate("trunk", 4, 160),
        InstanceTemplate("traffic-sign", 3, 120),
        InstanceTemplate("car", 5, 260),
        InstanceTemplate("truck", 2, 320),
    ],
    seed=11,
)
scene, gt = generate_scene(spec, tax)
print(f"scene: {scene.n} points, {len(gt)} planted instances")

cfg = RunConfig()
ref = build_map(scene, tax, cfg)
print(f"map: {len(ref.centroids)} instances, "
      f"{len(ref.index.table)} triangle descriptors\n")

print(f"{'query':>5} {'status':>9} {'clique':>6} {'inliers':>7} "
      f"{'trans err':>10} {'rot err':>9}")
poses = sample_query_poses(8, seed=[11, 1], half=20.0)
for i, pose in enumerate(poses):
    scan = simulate_scan(scene, pose, range_max=60.0, dropout_rate=0.3,
                         noise_sigma=0.03, seed=500 + i)
    res = localize(scan, ref, cfg)
    if res.pose is not None:
        te, re = pose_error(res.pose, pose)
        print(f"{i:>5} {res.status:>9} {res.clique_size:>6} {res.inlier_count:>7} "
              f"{te:>9.3f} m {re:>7.3f} deg")
    else:
        print(f"{i:>5} {res.status:>9} {res.clique_size:>6} {'-':>7} {'-':>10} {'-':>9}")

t = res.timings_ms
print(f"\nlast-query stage timings (ms): "
      + ", ".join(f"{k} {v:.0f}" for k, v in t.items()))
