"""Track the full eigenspace of a noisy low-rank stream, one step at a time.

The streaming update starts from the first two samples and grows one
component per time-step. At the end we compare its cumulative
explained-variance curve against batch PCA computed on the whole matrix.
"""

import numpy as np

from streampca import (
    AdaptiveConfig,
    curve_gap,
    dual_pca,
    explained_variance,
    run_adaptive,
    synth,
)

store, meta = synth("lowrank", d=500, n=100, params={"rank": 30, "sigma": 0.05}, seed=42)
print(f"stream: {meta.steps} steps of dimension {store.dim} (rank 30 + noise)")

# batch reference: Gram-matrix PCA over all samples at once
batch_space = dual_pca(store)
batch = explained_variance(batch_space, store, label="batch")

# streaming: every previous sample in play, one component added per step
config = AdaptiveConfig(space_limit=100, processing_limit=100)
state = run_adaptive(store, config)
adaptive = explained_variance(state.eigenspace(), store, label="adaptive")

print(f"batch components: {len(batch)}, streaming components: {len(adaptive)}")
print(f"largest curve gap: {curve_gap(batch, adaptive):.3f} percentage points")
print()
print(" k   batch    streaming")
for k in (1, 2, 5, 10, 20, 30, 50, 99):
    print(f"{k:3d}  {batch.values[k - 1]:.4f}   {adaptive.values[k - 1]:.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    plt.plot(np.arange(1, len(batch) + 1), batch.values, label="batch")
    plt.plot(np.arange(1, len(adaptive) + 1), adaptive.values, "--", label="streaming")
    plt.xlabel("components")
    plt.ylabel("cumulative explained variance")
    plt.legend()
    plt.tight_layout()
    plt.savefig("full_dimensional_tracking.png", dpi=120)
    print("\nwrote full_dimensional_tracking.png")
except ImportError:
    pass
