"""Decompose a stream into spatial components times temporal coefficients.

Every sample satisfies x_t ~= sum_i v_i * f_i(t): the basis vectors v_i
carry the spatial patterns, the score series f_i(t) carry the dynamics.
For a wave sliding across the index axis the two leading coefficients are
sinusoids a quarter period apart.
"""

import numpy as np

from streampca import dual_pca, eigenfunctions, explained_variance, synth

# one spatial wave, exactly one temporal period over the 40-step window
store, _ = synth("traveling_wave", d=64, n=40, params={"speed": 1.6}, seed=0)
space = dual_pca(store)
curve = explained_variance(space, store)
print(f"wave stream: rank {len(space)}, curve reaches {curve.values[-1]:.6f}")

funcs = eigenfunctions(space, store)
t = np.arange(store.count)
omega = 2.0 * np.pi * 1.6 / 64.0
design = np.stack([np.cos(omega * t), np.sin(omega * t)], axis=1)
phases = []
for i in range(2):
    coef, *_ = np.linalg.lstsq(design, funcs[i], rcond=None)
    resid = np.linalg.norm(funcs[i] - design @ coef) / np.linalg.norm(funcs[i])
    phase = np.arctan2(-coef[1], coef[0])
    phases.append(phase)
    amp = np.hypot(*coef)
    print(f"f{i + 1}(t) = {amp:.3f} * cos(omega t + {phase:+.3f})   fit residual {resid:.1e}")
print(f"phase separation: {abs(phases[0] - phases[1]):.6f} rad (pi/2 = {np.pi / 2:.6f})")

recon = space.components.T @ funcs
err = np.max(np.abs(recon - store.matrix()))
print(f"sum_i v_i f_i(t) reconstructs every sample to {err:.1e}")

# a richer stream: a Gaussian bump orbiting a 32x32 grid. The leading
# component is the quasi-static orbit average; the ones after it oscillate,
# faster as the index grows.
store, _ = synth("rotating_blob", d=1024, n=60, seed=3)
space = dual_pca(store)
funcs = eigenfunctions(space, store)
print(f"\norbiting-bump stream: {len(space)} components")
print(f"f1 is quasi-static: peak-to-peak {np.ptp(funcs[0]):.4f} around {funcs[0].mean():.3f}")
print("score-series periods (steps between sign changes x2):")
for i in (1, 4, 9):
    crossings = np.nonzero(np.diff(np.signbit(funcs[i] - funcs[i].mean())))[0]
    if len(crossings) >= 2:
        period = 2.0 * np.mean(np.diff(crossings))
        print(f"  f{i + 1}: ~{period:.1f} steps, amplitude {np.ptp(funcs[i]) / 2:.3f}")
