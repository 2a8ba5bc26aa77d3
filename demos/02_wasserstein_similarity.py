"""Comparing semantic fields with the 2-Wasserstein distance.

Populations probed from GPs of the same place are close under W2 (the
residual is sparsification sampling noise); fields of different places are
far. The stability mask discounts grid regions whose predicted class is
movable (cars) so that parked-car churn does not dominate the comparison.
"""

import numpy as np

from gsfloc.config import GridSection
from gsfloc.core import default_taxonomy, one_hot_logits
from gsfloc.gsf import GpHyperParams, fit_gsf, grid_probe
from gsfloc.wasserstein import SimilarityConfig, similarity_weight, w2_squared

tax = default_taxonomy()
hyper = GpHyperParams()


def neighborhood(seed, car=False):
    """Road plane + one vegetation clump (+ optionally a parked car)."""
    r = np.random.default_rng(seed)
    road = np.column_stack([r.uniform(-8, 8, (800, 2)), np.zeros((800, 1))])
    veg_xy = r.uniform(-3, 3, 2) + r.normal(0, 1.2, (300, 2))
    veg = np.column_stack([veg_xy, np.abs(r.normal(0, 1.0, (300, 1)))])
    chunks = [road, veg]
    labels = [np.full(800, tax.id_of("road")), np.full(300, tax.id_of("vegetation"))]
    if car:
        car_xy = np.array([-3.0, -2.0]) + r.uniform(-1.8, 1.8, (200, 2))
        chunks.append(np.column_stack([car_xy, r.uniform(0.3, 1.8, (200, 1))]))
        labels.append(np.full(200, tax.id_of("car")))
    X = np.vstack(chunks)
    L = np.concatenate(labels)
    return X, one_hot_logits(L, 12), L


def probe(X, Y, L, fit_seed=0):
    fld = fit_gsf(X, Y, L, hyper, budget=256, seed=fit_seed)
    return grid_probe(fld, tax, GridSection(nx=5, ny=5, dx=2.5, dy=2.5))


print("W2^2 between probe populations:")
X, Y, L = neighborhood(seed=2)
ref = probe(X, Y, L, fit_seed=0)
same = probe(X, Y, L, fit_seed=0)
revisit = probe(X, Y, L, fit_seed=99)  # same place, different GP support subset
Xo, Yo, Lo = neighborhood(seed=8)
elsewhere = probe(Xo, Yo, Lo)
print(f"  identical fields           -> {w2_squared(ref, same):8.3f}")
print(f"  same place, resampled GP   -> {w2_squared(ref, revisit):8.3f}")
print(f"  different place            -> {w2_squared(ref, elsewhere):8.3f}")

print("\nStability mask: a parked car that left between sessions")
Xa, Ya, La = neighborhood(seed=3, car=True)
Xb, Yb, Lb = neighborhood(seed=3, car=False)  # identical draws, car absent
a, b = probe(Xa, Ya, La), probe(Xb, Yb, Lb)
plain = w2_squared(a, b, use_stability=False)
masked = w2_squared(a, b, use_stability=True)
print(f"  unweighted W2^2 = {plain:.3f}")
print(f"  stability-weighted W2^2 = {masked:.3f} "
      f"(car regions carry weight {tax.stability(tax.id_of('car'))})")

cfg = SimilarityConfig(sigma_w=np.sqrt(max(plain, 1e-9)), accept_threshold=3 * plain)
print("\nconfidence weights omega = exp(-W2^2 / 2 sigma_w^2):")
for name, val in (("identical", 0.0), ("masked", masked), ("unweighted", plain)):
    print(f"  {name:11s} W2^2={val:7.3f} -> omega {similarity_weight(val, cfg):.3f}")
