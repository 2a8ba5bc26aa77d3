"""Gaussian semantic fields from a local neighborhood.

Builds a synthetic local neighborhood (road plane, a vegetation clump, a pole,
and a small traffic-sign cluster), sparsifies it class-proportionally, fits a
GP from 3D position to class logits, and compares semantic reconstruction
quality against plain random downsampling at the same budgets.
"""

import numpy as np

from gsfloc.config import GridSection
from gsfloc.core import default_taxonomy, one_hot_logits
from gsfloc.gsf import (
    GpHyperParams,
    fit_gsf,
    grid_probe,
    reconstruction_miou,
    semantic_sparsify,
)

rng = np.random.default_rng(7)
tax = default_taxonomy()

# --- assemble the neighborhood ----------------------------------------------
road = np.column_stack([rng.uniform(-8, 8, (1200, 2)), np.zeros((1200, 1))])

veg_xy = rng.uniform(-6, 6, 2) + rng.normal(0, 1.5, (400, 2))
veg = np.column_stack([veg_xy, np.abs(rng.normal(0, 1.0, (400, 1)))])

pole_xy = np.array([3.0, -2.0]) + rng.normal(0, 0.1, (80, 2))
pole = np.column_stack([pole_xy, rng.uniform(0, 4, (80, 1))])

sign_xy = np.array([-4.0, 3.0]) + rng.normal(0, 0.2, (25, 2))
sign = np.column_stack([sign_xy, rng.uniform(2.2, 2.8, (25, 1))])

X = np.vstack([road, veg, pole, sign])
labels = np.concatenate([
    np.full(1200, tax.id_of("road")),
    np.full(400, tax.id_of("vegetation")),
    np.full(80, tax.id_of("pole")),
    np.full(25, tax.id_of("traffic-sign")),
])
Y = one_hot_logits(labels, tax.num_classes)
print(f"neighborhood: {len(X)} points, classes "
      f"{[tax.name(c) for c in np.unique(labels)]}")

# --- class-proportional sparsification ---------------------------------------
for budget in (64, 256):
    kept_labels = labels[semantic_sparsify(labels, budget, seed=0)]
    counts = {tax.name(c): int(np.count_nonzero(kept_labels == c))
              for c in np.unique(kept_labels)}
    print(f"budget {budget}: kept {counts}")

# --- fit and probe ------------------------------------------------------------
hyper = GpHyperParams(kappa=2.0, sigma_y=0.1)
field = fit_gsf(X, Y, labels, hyper, budget=256, seed=0)
pop = grid_probe(field, tax, GridSection(nx=5, ny=5, dx=2.5, dy=2.5))
pred_names = [tax.name(c) for c in np.argmax(pop.mu, axis=1)]
print(f"\n5x5 probe grid argmax classes (row-major): {pred_names}")
print(f"stability weights on the grid: {sorted(set(pop.stability_weights))}")

# --- semantic vs random downsampling ------------------------------------------
print("\nreconstruction mIoU over the full neighborhood "
      "(random: mean/min over 10 draws):")
sign_id = tax.id_of("traffic-sign")
for budget in (64, 128, 256):
    f_sem = fit_gsf(X, Y, labels, hyper, budget, seed=1)
    miou_sem = reconstruction_miou(f_sem, X, labels)
    rand_scores, dropped = [], 0
    for draw in range(10):
        r = np.random.default_rng([budget, draw])
        ridx = np.sort(r.choice(len(X), size=budget, replace=False))
        dropped += sign_id not in labels[ridx]
        f_rand = fit_gsf(X[ridx], Y[ridx], labels[ridx], hyper, budget, seed=1)
        rand_scores.append(reconstruction_miou(f_rand, X, labels))
    print(f"  budget {budget:3d}: semantic {miou_sem:.3f} | "
          f"random {np.mean(rand_scores):.3f}/{np.min(rand_scores):.3f} "
          f"(rare sign class lost in {dropped}/10 draws)")

print("\nClass-proportional sampling keeps every class represented "
      "deterministically; random draws sometimes lose the rare sign cluster "
      "entirely, which is what drags its mean reconstruction quality down.")
