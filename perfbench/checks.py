"""Correctness checks on the benchmark's outputs.

Every check compares the program against an independent numpy
recomputation or against a property of the method; none compares against
stored outputs. Each returns a ``Check`` so that a failure names itself
and the run can report all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRAD_TOL = 1e-4          # relative, as the program's finite-difference oracle
FLOAT32_TOL = 1e-4       # relative, for float32 results against float64 numpy
MAPE_MASK_EPS = 1e-3     # vehicles; the program's documented MAPE threshold


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def rel_err(a: float, b: float, floor: float = 1e-6) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def check_directional_derivative(analytic: float, numeric: float) -> Check:
    err = rel_err(analytic, numeric)
    return Check("gradient", bool(err <= GRAD_TOL),
                 f"analytic {analytic:.9g} vs central difference {numeric:.9g}, rel err {err:.2e}")


def huber_reference(pred: np.ndarray, target: np.ndarray, delta: float = 1.0) -> float:
    r = np.asarray(pred, np.float64) - np.asarray(target, np.float64)
    a = np.abs(r)
    return float(np.where(a < delta, 0.5 * r * r, delta * a - 0.5 * delta * delta).mean())


def check_huber(reported: float, pred: np.ndarray, target: np.ndarray) -> Check:
    ref = huber_reference(pred, target)
    err = rel_err(reported, ref)
    return Check("huber", bool(err <= FLOAT32_TOL),
                 f"program {reported:.7g} vs numpy {ref:.7g}, rel err {err:.2e}")


def metrics_reference(pred: np.ndarray, true: np.ndarray) -> tuple[float, float, float]:
    """RMSE, MAE and MAPE (percent, over |true| >= MAPE_MASK_EPS)."""
    err = np.asarray(pred, np.float64) - np.asarray(true, np.float64)
    keep = np.abs(true) >= MAPE_MASK_EPS
    mape = 100.0 * float(np.mean(np.abs(err[keep]) / np.abs(true[keep]))) if keep.any() else 0.0
    return float(np.sqrt(np.mean(err * err))), float(np.mean(np.abs(err))), mape


def _compare_metrics(name: str, report, ref: tuple[float, float, float], tol: float) -> Check:
    got = (report.rmse, report.mae, report.mape)
    errs = [rel_err(g, r) for g, r in zip(got, ref)]
    ok = all(e <= tol for e in errs)
    detail = ", ".join(f"{k} {g:.6g} vs {r:.6g}"
                       for k, g, r in zip(("rmse", "mae", "mape"), got, ref))
    return Check(name, ok, detail)


def check_evaluate(report, preds: np.ndarray, trues: np.ndarray) -> Check:
    """``evaluate``'s batched metrics against single-window forecasts."""
    return _compare_metrics("evaluate", report, metrics_reference(preds, trues), FLOAT32_TOL)


def persistence_reference(raw: np.ndarray, starts: np.ndarray, t_in: int,
                          t_out: int) -> tuple[float, float, float]:
    last = raw[starts + t_in - 1]
    pred = np.repeat(last[:, None, :], t_out, axis=1)
    true = raw[starts[:, None] + t_in + np.arange(t_out)[None, :]]
    return metrics_reference(pred, true)


def check_persistence(report, raw: np.ndarray, starts: np.ndarray, t_in: int,
                      t_out: int) -> Check:
    return _compare_metrics("persistence", report,
                            persistence_reference(raw, starts, t_in, t_out), 1e-9)


def edge_base_reference(f4: np.ndarray, reduce_w: np.ndarray, reduce_b: np.ndarray,
                        eps: float = 1e-8) -> np.ndarray:
    """tanh of the channel-max relational features, oriented [b, target, source].

    A numpy restatement of the edge block for the default variant (max
    squeeze, last time index as representative): A = relu(base) and
    A_r = relu(-base).
    """
    f4 = np.asarray(f4, np.float64)
    fc = np.einsum("dc,bcnl->bdnl", reduce_w, f4) + reduce_b[None, :, None, None]
    rep = fc[..., -1]
    dots = np.einsum("bdi,bdjt->bijt", rep, fc)
    rep_norm = np.linalg.norm(rep, axis=1)[:, :, None, None]
    fc_norm = np.linalg.norm(fc, axis=1)[:, None, :, :]
    valid = (rep_norm > eps) & (fc_norm > eps)
    s = np.where(valid, dots / np.where(valid, rep_norm * fc_norm, 1.0), 0.0)
    rel = np.einsum("bkit,bcit->bcik", np.clip(s, -1.0, 1.0), f4)
    return np.tanh(rel.max(axis=1)).transpose(0, 2, 1)


def check_adjacency(adj: np.ndarray, adj_r: np.ndarray, base: np.ndarray) -> Check:
    """A and A_r in [0, 1), elementwise disjoint, and equal to relu(+-base)."""
    in_range = all(bool(((m >= 0) & (m < 1)).all()) for m in (adj, adj_r))
    overlap = int(np.count_nonzero((adj > 0) & (adj_r > 0)))
    dev = float(max(np.abs(adj - np.maximum(base, 0)).max(),
                    np.abs(adj_r - np.maximum(-base, 0)).max()))
    ok = in_range and overlap == 0 and dev <= FLOAT32_TOL
    return Check("adjacency", ok, f"in [0,1): {in_range}, overlapping entries {overlap}, "
                 f"max deviation from numpy {dev:.2e}")


def check_equivariance(y: np.ndarray, y_perm: np.ndarray, perm: np.ndarray) -> Check:
    """Forecast [h, n] of node-permuted input equals the permuted forecast."""
    dev = float(np.abs(y_perm - y[:, perm]).max())
    tol = FLOAT32_TOL * max(1.0, float(np.abs(y).max()))
    return Check("equivariance", dev <= tol, f"max deviation {dev:.2e} (tolerance {tol:.2e})")


def check_finite(arrays: dict[str, object]) -> Check:
    bad = [name for name, a in arrays.items() if not np.all(np.isfinite(np.asarray(a, np.float64)))]
    return Check("finite", not bad, "non-finite: " + ", ".join(bad) if bad else
                 f"{len(arrays)} outputs finite")


def check_loss_drop(before: float, after: float) -> Check:
    return Check("loss_drop", bool(after < before),
                 f"held-out Huber loss {before:.6g} before training, {after:.6g} after")


def check_cut_gradients(cut: dict[str, np.ndarray], uncut: dict[str, np.ndarray]) -> Check:
    """Gradients of the module-cut backward equal the uncut ones to rounding."""
    worst, where = 0.0, ""
    for name, g in uncut.items():
        scale = max(float(np.abs(g).max()), 1e-12)
        dev = float(np.abs(cut[name] - g).max()) / scale
        if dev > worst:
            worst, where = dev, name
    return Check("cut_gradients", worst <= FLOAT32_TOL,
                 f"max deviation {worst:.2e} of the gradient scale (at {where or '-'})")
