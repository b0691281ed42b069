"""Acceptance gate.

Each test asserts one criterion at its stated tolerance and prints a
single PASS/FAIL line (run with ``pytest -s`` to see them). The heavy
cascade dataset and its four experiment legs are computed once per module
and shared; each criterion's wall-clock budget covers the legs it uses.
"""

import math
import time

import numpy as np
import pytest

from streampca import (
    AdaptiveConfig,
    RngState,
    SampleStore,
    center,
    curve_gap,
    dual_pca,
    eigenfunctions,
    explained_variance,
    ingest,
    initialize,
    mean_curve,
    run_adaptive,
    sym_eig,
    synth,
)

from test_core import below  # the scalar reference draw

# Regression value frozen from the first verified run of criterion 2.
CRITERION2_FROZEN_GAP_PP = 4.437258446909848


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _angle(u, v) -> float:
    # 2 asin(|a - b| / 2) on sign-aligned unit vectors; acos(|cos|) cannot
    # resolve angles below ~1.5e-8, where the cosine rounds to 1.0
    a = np.asarray(u, dtype=np.float64) / np.linalg.norm(u)
    b = np.asarray(v, dtype=np.float64) / np.linalg.norm(v)
    if float(np.dot(a, b)) < 0.0:
        b = -b
    return 2.0 * math.asin(min(1.0, float(np.linalg.norm(a - b)) / 2.0))


@pytest.fixture(scope="module")
def cascade_bundle():
    times = {}
    t = time.perf_counter()
    store, _ = synth("cascade", d=2000, n=300, seed=9)
    times["generate"] = time.perf_counter() - t

    t = time.perf_counter()
    batch_space = dual_pca(store)
    batch_curve = explained_variance(batch_space, store, label="batch")
    times["batch"] = time.perf_counter() - t

    t = time.perf_counter()
    det_state = run_adaptive(store, AdaptiveConfig(space_limit=20, processing_limit=300))
    det_curve = explained_variance(det_state.eigenspace(), store, label="adaptive")
    times["deterministic"] = time.perf_counter() - t

    t = time.perf_counter()
    stochastic_states = []
    stochastic_curves = []
    for seed in range(1, 11):
        cfg = AdaptiveConfig(space_limit=20, processing_limit=40, seed=seed)
        state = run_adaptive(store, cfg)
        stochastic_states.append(state)
        stochastic_curves.append(
            explained_variance(state.eigenspace(), store, label=f"seed{seed}")
        )
    times["stochastic"] = time.perf_counter() - t

    return {
        "store": store,
        "batch_curve": batch_curve,
        "det_state": det_state,
        "det_curve": det_curve,
        "stochastic_states": stochastic_states,
        "stochastic_curves": stochastic_curves,
        "times": times,
    }


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rng = RngState(2718)
    worst_eig = 0.0
    worst_angle = 0.0
    for _ in range(50):
        d = 2 + below(rng, 24)  # d <= 25
        n = 2 + below(rng, 11)  # n <= 12
        data = rng.gaussian((d, n))
        store = SampleStore.from_matrix(data)
        space = dual_pca(center(store))
        xc = data - data.mean(axis=1, keepdims=True)
        cov = (xc @ xc.T) / (n - 1)
        w, q = sym_eig(cov)
        for i in range(len(space)):
            worst_eig = max(worst_eig, abs(space.eigenvalues[i] - w[i]))
            tied_above = i > 0 and w[i - 1] - w[i] < 1e-6
            tied_below = i + 1 < len(w) and w[i] - w[i + 1] < 1e-6
            if tied_above or tied_below:
                continue  # compare subspaces, not vectors, across near-ties
            worst_angle = max(worst_angle, _angle(space.components[i], q[:, i]))
    elapsed = time.perf_counter() - t0
    ok = worst_eig <= 1e-8 and worst_angle <= 1e-6 and elapsed < 5.0
    _report(
        1,
        ok,
        f"50 instances, eigenvalue err {worst_eig:.2e} (<=1e-8), "
        f"angle {worst_angle:.2e} rad (<=1e-6), {elapsed:.1f}s (<5s)",
    )


def test_criterion_2_full_dimensional_gap():
    t0 = time.perf_counter()
    store, _ = synth("lowrank", d=500, n=100, params={"rank": 30, "sigma": 0.05}, seed=42)
    batch_space = dual_pca(store)
    batch_curve = explained_variance(batch_space, store, label="batch")
    cfg = AdaptiveConfig(space_limit=min(500, 100), processing_limit=100)
    state = run_adaptive(store, cfg)
    adaptive_curve = explained_variance(state.eigenspace(), store, label="adaptive")
    gap = curve_gap(batch_curve, adaptive_curve)
    elapsed = time.perf_counter() - t0
    frozen_ok = gap == pytest.approx(CRITERION2_FROZEN_GAP_PP, rel=1e-6)
    ok = gap <= 5.0 and frozen_ok and elapsed < 60.0
    _report(
        2,
        ok,
        f"gap {gap:.4f} pp (<=5, frozen {CRITERION2_FROZEN_GAP_PP:.4f}), "
        f"{elapsed:.1f}s (<60s)",
    )


def test_criterion_3_concentration(cascade_bundle):
    b = cascade_bundle
    batch20 = b["batch_curve"].values[19]
    det20 = b["det_curve"].values[19]
    elapsed = b["times"]["generate"] + b["times"]["batch"] + b["times"]["deterministic"]
    ok = batch20 >= 0.98 and det20 >= 0.90 and elapsed < 120.0
    _report(
        3,
        ok,
        f"batch@20 {batch20:.4f} (>=0.98), adaptive@20 {det20:.4f} (>=0.90), "
        f"{elapsed:.1f}s (<2min)",
    )


def test_criterion_4_stochastic_agreement(cascade_bundle):
    b = cascade_bundle
    mean = mean_curve(b["stochastic_curves"], label="stochastic_mean")
    det_final = b["det_curve"].values[19]
    spread = abs(mean.values[-1] - det_final) * 100.0
    elapsed = b["times"]["generate"] + b["times"]["stochastic"]
    ok = spread <= 5.0 and elapsed < 180.0
    _report(
        4,
        ok,
        f"|stochastic mean - deterministic| {spread:.4f} pp (<=5), "
        f"{elapsed:.1f}s (<3min)",
    )


def test_criterion_5_complexity_counters(cascade_bundle, tmp_path):
    b = cascade_bundle
    # counters.csv written from criterion 4's first stochastic run
    stochastic_log = b["stochastic_states"][0].counter.per_step_log
    csv_path = tmp_path / "counters.csv"
    csv_path.write_text(
        "step,dot_products\n" + "\n".join(f"{s},{c}" for s, c in stochastic_log) + "\n"
    )
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    tail = [int(c) for s, c in rows if int(s) > 40 + 1]
    constant = len(set(tail)) == 1

    # deterministic limited run: counts affine in step index once the
    # component count saturates at space_limit
    det_log = [(s, c) for s, c in b["det_state"].counter.per_step_log if s > 21]
    steps = np.array([s for s, _ in det_log], dtype=float)
    counts = np.array([c for _, c in det_log], dtype=float)
    design = np.stack([steps, np.ones_like(steps)], axis=1)
    coef, *_ = np.linalg.lstsq(design, counts, rcond=None)
    residual = np.max(np.abs(counts - design @ coef)) / np.max(counts)
    affine = residual < 0.01

    ok = constant and affine
    _report(
        5,
        ok,
        f"stochastic steps>41 constant at {tail[0]} (exact), "
        f"deterministic-limited linear fit residual {residual:.2e} (<1%)",
    )


def test_criterion_6_invariant_suite():
    t0 = time.perf_counter()

    # orthonormality after every ingest
    data = RngState(64).gaussian((40, 30))
    cfg = AdaptiveConfig(space_limit=30, processing_limit=30)
    state = initialize(data[:, 0], data[:, 1], cfg)
    worst_orth = 0.0
    for j in range(2, 30):
        ingest(state, data[:, j])
        v = np.stack(state.components)
        worst_orth = max(worst_orth, float(np.max(np.abs(v @ v.T - np.eye(len(v))))))
    assert worst_orth <= 1e-8

    # curve monotonicity on batch and streaming output
    store = SampleStore.from_matrix(data)
    batch_curve = explained_variance(dual_pca(store), store)
    adaptive_curve = explained_variance(state.eigenspace(), store)
    for curve in (batch_curve, adaptive_curve):
        assert np.all(np.diff(curve.values) >= -1e-12)

    # explained-variance / eigenvalue consistency
    space = dual_pca(store)
    ratios = np.cumsum(space.eigenvalues) / space.eigenvalues.sum()
    consistency = float(np.max(np.abs(batch_curve.values - ratios)))
    assert consistency <= 1e-9

    # seed-independence of the deterministic branch
    samples = [data[:, j] for j in range(12)]
    state_a = run_adaptive(samples, AdaptiveConfig(space_limit=8, processing_limit=99, seed=1))
    state_b = run_adaptive(samples, AdaptiveConfig(space_limit=8, processing_limit=99, seed=2))
    for va, vb in zip(state_a.components, state_b.components):
        assert np.array_equal(va, vb)

    # bit-reproducibility of synthetic generators
    for gen in ("lowrank", "traveling_wave", "rotating_blob", "cascade"):
        d = 36 if gen == "rotating_blob" else 24
        first, _ = synth(gen, d=d, n=6, seed=5)
        second, _ = synth(gen, d=d, n=6, seed=5)
        assert np.array_equal(first.matrix(), second.matrix())

    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(
        6,
        ok,
        f"orthonormality {worst_orth:.2e} (<=1e-8), curves monotone, "
        f"eigenvalue consistency {consistency:.2e} (<=1e-9), deterministic "
        f"branch seed-independent, generators reproducible, {elapsed:.1f}s (<60s)",
    )


def test_criterion_7_eigenfunction_quadrature():
    store, _ = synth("traveling_wave", d=64, n=40, params={"speed": 1.6}, seed=0)
    space = dual_pca(store)
    funcs = eigenfunctions(space, store)

    t = np.arange(40)
    omega = 2.0 * np.pi * 1.6 / 64.0
    design = np.stack([np.cos(omega * t), np.sin(omega * t)], axis=1)
    worst_resid = 0.0
    phases = []
    for i in range(2):
        coef, *_ = np.linalg.lstsq(design, funcs[i], rcond=None)
        resid = np.linalg.norm(funcs[i] - design @ coef) / np.linalg.norm(funcs[i])
        worst_resid = max(worst_resid, float(resid))
        phases.append(math.atan2(-coef[1], coef[0]))
    delta = abs(phases[0] - phases[1]) % (2.0 * math.pi)
    delta = min(delta, 2.0 * math.pi - delta)

    recon = space.components.T @ funcs
    recon_err = float(np.max(np.abs(recon - store.matrix())))

    ok = worst_resid < 1e-6 and abs(delta - math.pi / 2.0) <= 1e-6 and recon_err <= 1e-9
    _report(
        7,
        ok,
        f"sinusoid fit residual {worst_resid:.2e} (<1e-6), phase gap "
        f"{delta:.6f} rad (pi/2), reconstruction {recon_err:.2e} (<=1e-9)",
    )
