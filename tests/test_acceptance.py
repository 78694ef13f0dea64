"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Criterion 7's full-scale reproduction needs the real PEMS04
series and many CPU-hours, so its desk-scale proxy activates when
FLOWCAST_PEMS04 points at the data; a synthetic stand-in exercising the
same persistence-baseline machinery always runs.
"""

import os
import time

import numpy as np
import pytest

import flowcast.tensor as T
from flowcast import gradcheck
from flowcast.config import ModelConfig, TrainConfig
from flowcast.data import load_dataset, make_batch, prepare
from flowcast.graph import EdgeGraph
from flowcast.metrics import compute_metrics
from flowcast.model import Forecaster
from flowcast.optim import lr_at_epoch
from flowcast.synthetic import sinusoid_dataset
from flowcast.training import evaluate, persistence_metrics, train

GRADCHECK_TOL = 1e-4
EQUIVARIANCE_TOL = 1e-5
ANALYTIC_TOL = 1e-9
HUBER_SEAM_TOL = 1e-9


def report(number, name, passed, details=""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status}{' — ' + details if details else ''}")
    assert passed, f"criterion {number} ({name}) failed: {details}"


@pytest.fixture(scope="module")
def overfit_run():
    """Criterion 4's artifacts: default model, 500 Adam steps on the synthetic set."""
    ds = sinusoid_dataset(nodes=10, steps=500, seed=3, noise_frac=0.01)
    prep = prepare(ds)
    model = Forecaster(ModelConfig(), seed=0)
    mae_start = evaluate(model, prep, "train").mae
    t0 = time.time()
    train(model, prep, TrainConfig(epochs=120, batch_size=64, seed=0), max_steps=500)
    runtime = time.time() - t0
    mae_end = evaluate(model, prep, "train").mae
    return {"prep": prep, "model": model, "mae_start": mae_start,
            "mae_end": mae_end, "runtime": runtime}


def test_criterion_1_gradient_fidelity():
    t0 = time.time()
    results = gradcheck.run_all(seed=0)
    runtime = time.time() - t0
    worst = max(r.max_rel_err for r in results)
    ok = all(r.passed for r in results) and runtime < 120.0
    report(1, "gradient fidelity", ok,
           f"{len(results)} cases, worst rel err {worst:.2e} (tol {GRADCHECK_TOL}), "
           f"{runtime:.1f}s (limit 120s)")


def test_criterion_2_structural_invariants():
    t0 = time.time()
    rng = np.random.default_rng(0)

    # (a) adjacency disjointness and range over 100 random inputs
    cfg = ModelConfig(channels=(8, 8, 8, 8), head_hidden=8)
    eg = EdgeGraph(cfg, np.random.default_rng(1), {})
    disjoint = bounded = True
    for _ in range(100):
        f4 = T.Tensor(rng.normal(size=(1, 8, 5, 2)).astype(np.float32))
        state = eg.forward(f4)
        a, ar = state.adj.data, state.adj_reversed.data
        disjoint &= bool(np.all(a * ar == 0.0))
        bounded &= bool(a.min() >= 0 and a.max() < 1 and ar.min() >= 0 and ar.max() < 1)

    # (b) correlation bounds and unit self-similarity
    s_ok = True
    for _ in range(20):
        f4 = T.Tensor(rng.normal(size=(1, 8, 5, 2)).astype(np.float32))
        f_c = eg.reduce_channels(f4)
        from flowcast.graph import representative
        s = T.cosine_correlate(representative(f_c, "last"), f_c).data
        s_ok &= bool(s.min() >= -1.0 and s.max() <= 1.0)
        diag = s[:, np.arange(5), np.arange(5), -1]
        s_ok &= bool(np.allclose(diag, 1.0, atol=1e-5))

    # (c) full-model node permutation equivariance, 20 permutations
    model = Forecaster(cfg, seed=2)
    x = rng.normal(size=(2, 1, 6, 12)).astype(np.float32)
    equivariant = True
    with T.no_grad():
        base, _ = model.forward(T.Tensor(x))
        for _ in range(20):
            perm = rng.permutation(6)
            permuted, _ = model.forward(T.Tensor(x[:, :, perm, :]))
            equivariant &= bool(np.allclose(base.data[:, :, perm], permuted.data,
                                            atol=EQUIVARIANCE_TOL))

    # (d) RMSE >= MAE on 100 random residual sets
    power_mean = True
    for _ in range(100):
        pred = rng.normal(size=30)
        true = rng.normal(size=30)
        rep = compute_metrics(pred, true)
        power_mean &= bool(rep.rmse >= rep.mae - 1e-12)

    # (e) Huber continuity across the |r| = delta seam
    def h(r):
        return float(T.huber(T.Tensor(np.array([r], dtype=np.float64)),
                             T.Tensor(np.array([0.0], dtype=np.float64))).data)

    eps = 1e-10
    seam_gap = abs(h(1.0 - eps) - h(1.0 + eps))
    continuous = seam_gap < HUBER_SEAM_TOL

    runtime = time.time() - t0
    ok = disjoint and bounded and s_ok and equivariant and power_mean and continuous \
        and runtime < 60.0
    report(2, "structural invariants", ok,
           f"disjoint={disjoint} bounded={bounded} correlations={s_ok} "
           f"equivariance={equivariant} rmse>=mae={power_mean} "
           f"huber seam gap {seam_gap:.2e} (tol {HUBER_SEAM_TOL}), "
           f"{runtime:.1f}s (limit 60s)")


def test_criterion_3_analytic_unit_values():
    def h(r):
        return float(T.huber(T.Tensor(np.array([r], dtype=np.float64)),
                             T.Tensor(np.array([0.0], dtype=np.float64))).data)

    from flowcast.graph import squeeze_adjacency
    one = T.Tensor(np.full((1, 1, 1, 1), 1.0, dtype=np.float64))
    squeeze_val = squeeze_adjacency(one, one, "max")[0].data.item()  # R = s * f4 = 1
    cfg = TrainConfig()

    def lr(epoch):
        return lr_at_epoch(epoch, cfg.lr0, cfg.lr_decay, cfg.lr_decay_every)

    checks = {
        "huber(0.5)=0.125": abs(h(0.5) - 0.125),
        "huber(2)=1.5": abs(h(2.0) - 1.5),
        "lr(5)=0.00021": abs(lr(5) - 0.00021),
        "lr(10)=0.000147": abs(lr(10) - 0.000147),
        "squeeze(1)=tanh(1)": abs(squeeze_val - np.tanh(1.0)),
    }
    worst = max(checks.values())
    report(3, "analytic unit values", worst < ANALYTIC_TOL,
           f"worst deviation {worst:.2e} (tol {ANALYTIC_TOL})")


def test_criterion_4_overfit_capability(overfit_run):
    ratio = overfit_run["mae_end"] / overfit_run["mae_start"]
    ok = ratio < 0.20 and overfit_run["runtime"] < 300.0
    report(4, "overfit capability", ok,
           f"training MAE {overfit_run['mae_start']:.2f} -> {overfit_run['mae_end']:.2f} "
           f"(ratio {ratio:.3f}, limit 0.20), {overfit_run['runtime']:.0f}s (limit 300s)")


def test_criterion_5_determinism():
    ds = sinusoid_dataset(nodes=6, steps=200, seed=5)
    prep = prepare(ds)

    def run():
        model = Forecaster(ModelConfig(channels=(8, 8, 8, 8), head_hidden=8), seed=6)
        result = train(model, prep, TrainConfig(epochs=5, batch_size=16, seed=6),
                       max_steps=10)
        return result.step_losses

    first, second = run(), run()
    ok = len(first) == 10 and first == second  # bitwise: exact float equality
    report(5, "determinism", ok,
           f"10-step loss trajectories bitwise identical: {first == second}")


def test_criterion_6_parameter_budget(caplog):
    with caplog.at_level("INFO", logger="flowcast.model"):
        model = Forecaster(ModelConfig(), seed=0)
    count = model.parameter_count()
    logged = any("parameters" in rec.message for rec in caplog.records)
    ok = 100_000 <= count <= 400_000 and logged
    report(6, "parameter budget", ok,
           f"default config has {count:,} parameters (bracket [100,000, 400,000]), "
           f"logged at build: {logged}")


def test_criterion_7_beats_persistence_baseline(overfit_run):
    pems_path = os.environ.get("FLOWCAST_PEMS04")
    if pems_path:
        fmt = "bin" if pems_path.endswith(".bin") else "csv"
        prep = prepare(load_dataset(pems_path, fmt))
        model = Forecaster(ModelConfig(), seed=0)
        train(model, prep, TrainConfig(epochs=5, batch_size=64, seed=0))
        val = evaluate(model, prep, "val").mae
        baseline = persistence_metrics(prep, "val").mae
        report(7, "PEMS04 persistence proxy", val < baseline,
               f"5-epoch val MAE {val:.2f} vs persistence {baseline:.2f}")
        return

    # Without the real dataset the stated proxy cannot run; exercise the same
    # machinery on the criterion-4 synthetic set instead and mark the gap.
    prep = overfit_run["prep"]
    val = evaluate(overfit_run["model"], prep, "val").mae
    baseline = persistence_metrics(prep, "val").mae
    report(7, "persistence baseline (synthetic stand-in)", val < baseline,
           f"val MAE {val:.2f} vs persistence {baseline:.2f}; set FLOWCAST_PEMS04=... "
           f"to run the PEMS04 proxy")


def test_criterion_8_contrastive_sparsity_direction():
    ds = sinusoid_dataset(nodes=10, steps=500, seed=3, noise_frac=0.01)
    prep = prepare(ds)

    def adjacency_sparsity(contrast_weight, seed):
        cfg = ModelConfig(channels=(16, 16, 16, 16), head_hidden=16,
                          contrast_weight=contrast_weight)
        model = Forecaster(cfg, seed=seed)
        result = train(model, prep, TrainConfig(epochs=100, batch_size=64, seed=seed),
                       max_steps=250)
        model.load_state_arrays(result.best_state)
        batch = make_batch(prep, prep.splits["test"][:1])
        with T.no_grad():
            _, state = model.forward(T.Tensor(batch.inputs))
        return float((state.adjacency(0).adj < 1e-3).mean())

    seeds = (0, 1, 2)
    without = [adjacency_sparsity(0.0, s) for s in seeds]
    with_contrast = [adjacency_sparsity(0.1, s) for s in seeds]
    mean_without = float(np.mean(without))
    mean_with = float(np.mean(with_contrast))
    report(8, "contrastive sparsity direction", mean_with >= mean_without,
           f"mean fraction of entries < 1e-3: lambda=0.1 {mean_with:.3f} vs "
           f"lambda=0 {mean_without:.3f} over seeds {seeds}")
