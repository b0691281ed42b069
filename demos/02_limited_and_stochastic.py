"""Cap the tracked subspace at 20 components and subsample the history.

The limited regime keeps the per-step cost linear in the number of
previous samples; the stochastic regime draws only 40 of them per step,
making the cost constant. On a stream whose variance concentrates in a
small subspace, both land on the batch answer.
"""

import numpy as np

from streampca import (
    AdaptiveConfig,
    dual_pca,
    explained_variance,
    mean_curve,
    run_adaptive,
    synth,
)

store, _ = synth("cascade", d=2000, n=300, seed=9)
print(f"stream: {store.count} steps of dimension {store.dim}")

batch = explained_variance(dual_pca(store), store, label="batch")
print(f"batch: top 20 of {len(batch)} components hold {batch.values[19]:.2%}")

deterministic = run_adaptive(store, AdaptiveConfig(space_limit=20, processing_limit=300))
det_curve = explained_variance(deterministic.eigenspace(), store)
print(f"deterministic limited (20 components): {det_curve.values[19]:.2%}")
print(f"  inner products consumed: {deterministic.counter.dot_products:,}")

runs = []
totals = []
for seed in range(1, 11):
    config = AdaptiveConfig(space_limit=20, processing_limit=40, seed=seed)
    state = run_adaptive(store, config)
    runs.append(explained_variance(state.eigenspace(), store, label=f"seed {seed}"))
    totals.append(state.counter.dot_products)

mean = mean_curve(runs, label="stochastic mean")
finals = [r.values[-1] for r in runs]
print(f"stochastic (40-sample draws), 10 runs: mean {mean.values[-1]:.2%}, "
      f"min {min(finals):.2%}, max {max(finals):.2%}")
print(f"  inner products per run: {totals[0]:,} "
      f"({totals[0] / deterministic.counter.dot_products:.1%} of deterministic)")
spread = abs(mean.values[-1] - det_curve.values[19]) * 100
print(f"stochastic mean sits {spread:.3f} percentage points from deterministic")
