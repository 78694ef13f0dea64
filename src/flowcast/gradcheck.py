"""Finite-difference gradient verification for every differentiable op.

The oracle is independent of the reverse-mode path: it re-runs the forward
computation with individually perturbed inputs and forms central differences,

    df/dx_i  ~  (f(x + h e_i) - f(x - h e_i)) / 2h,   h = 1e-5,

in 64-bit precision. Each registered case builds fresh leaf tensors, applies
the op, and collapses the output to a scalar through a fixed random
projection so every output element influences the loss.

A stencil that straddles a kink measures a mix of two slopes. When the two
evaluations of a coordinate disagree on a relu mask or an edge-max argmax,
the coordinate is re-stepped with a tenfold smaller h, down to
MIN_FD_STEP, and the result names it. Every case draws its inputs uniform
and relies on this re-step; huber's derivative is continuous at its seam.

The error of a coordinate is relative to the larger of the two estimates,
floored at what the central difference can resolve: about eps64 * |loss| / h
(``resolution_floor``), so that float64 rounding at a coordinate whose
gradient is exactly 0 does not read as error at any loss scale. A
coordinate that still misses the tolerance is rechecked against the
four-point stencil at the same h, Richardson's step on the central
difference D: (4 D(h) - D(2h)) / 3, whose truncation error is O(h^4), so
that a smooth but steep coordinate fails only if its gradient is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import tensor as T

FD_STEP = 1e-5
MIN_FD_STEP = 1e-8         # smallest re-step of a coordinate that straddles a kink
TOLERANCE = 1e-4
REL_ERR_FLOOR = 1e-6       # least denominator floor of the relative error
ROUNDING_ULPS = 32         # float64 ulps of |loss| by which f(x+h) - f(x-h) may round
POINTS_PER_LEAF = 10
MODEL_POINTS_PER_LEAF = 6  # sampled coordinates per parameter in the full-model cases


@dataclass
class OpCase:
    name: str
    build: Callable[[np.random.Generator], tuple[dict[str, T.Tensor], Callable[[], T.Tensor]]]


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    points: int
    restepped: tuple[str, ...] = ()   # "leaf[index] h=step" per coordinate re-stepped

    @property
    def passed(self) -> bool:
        return self.max_rel_err < TOLERANCE


def relative_error(a: float, b: float, floor: float = REL_ERR_FLOOR) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def resolution_floor(loss: float, h: float) -> float:
    """The relative error's denominator floor at step h: rounding of
    ROUNDING_ULPS ulps of |loss| moves the central difference by
    ROUNDING_ULPS * eps * |loss| / 2h, which must read below TOLERANCE. A
    coordinate whose gradient is exactly 0 then meets rounding, not error."""
    rounding = ROUNDING_ULPS * np.finfo(np.float64).eps * abs(loss) / (2.0 * h)
    return max(REL_ERR_FLOOR, rounding / TOLERANCE)


def _kinks(loss: T.Tensor) -> list[np.ndarray]:
    """The kink state (relu masks, edge-max argmaxes) of a recorded graph, in
    graph order, as the ops themselves recorded it."""
    return [node.kinks for node in T._topo_order(loss) if node.kinks is not None]


def _central_difference(forward, flat: np.ndarray, c: int, h: float) -> tuple[float, bool]:
    """(f(x + h e_c) - f(x - h e_c)) / 2h, and whether the two evaluations
    sit on different sides of a kink."""
    orig = flat[c]
    try:
        flat[c] = orig + h
        plus = forward()
        flat[c] = orig - h
        minus = forward()
    finally:
        flat[c] = orig
    straddles = any(not np.array_equal(a, b) for a, b in zip(_kinks(plus), _kinks(minus)))
    return (float(plus.data) - float(minus.data)) / (2.0 * h), straddles


def check_case(case: OpCase, seed: int, points_per_leaf: int = POINTS_PER_LEAF) -> CheckResult:
    """Compare reverse-mode gradients of one case against central differences."""
    rng = np.random.default_rng(seed)
    leaves, forward = case.build(rng)

    loss = forward()
    if loss.data.size != 1:
        raise ValueError(f"case {case.name} must produce a scalar loss")
    loss.backward()
    value = float(loss.data)

    coord_rng = np.random.default_rng(seed + 1)
    max_err = 0.0
    points = 0
    restepped = []
    for key, leaf in leaves.items():
        flat = leaf.data.reshape(-1)
        n = flat.size
        if n <= points_per_leaf:
            coords = np.arange(n)
        else:
            coords = coord_rng.choice(n, size=points_per_leaf, replace=False)
        for c in coords:
            h = FD_STEP
            fd, straddles = _central_difference(forward, flat, c, h)
            while straddles and h / 10 >= MIN_FD_STEP:
                h /= 10
                fd, straddles = _central_difference(forward, flat, c, h)
            if h != FD_STEP:
                restepped.append(f"{key}[{c}] h={h:.0e}")
            ad = 0.0 if leaf.grad is None else float(leaf.grad.flat[c])
            floor = resolution_floor(value, h)
            err = relative_error(fd, ad, floor)
            if err >= TOLERANCE:
                # a smooth but steep coordinate misses by the O(h^2) truncation
                # alone; a wrong gradient misses the O(h^4) stencil as well
                fd4 = (4.0 * fd - _central_difference(forward, flat, c, 2 * h)[0]) / 3.0
                err = relative_error(fd4, ad, floor)
            max_err = max(max_err, err)
            points += 1
    return CheckResult(case.name, max_err, points, tuple(restepped))


# -- case builders -------------------------------------------------------------
#
# Leaves are drawn uniform; the re-step handles any kink they land near.


def _leaf(rng: np.random.Generator, shape, low=-2.0, high=2.0) -> T.Tensor:
    data = rng.uniform(low, high, size=shape)
    return T.Tensor(data, requires_grad=True, dtype=np.float64)


def _projection(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=shape)


def _project(out: T.Tensor, w: np.ndarray) -> T.Tensor:
    return T.sum_over_axis(T.mul(out, T.Tensor(w, dtype=np.float64)))


def _case(name: str, op, **leaves) -> OpCase:
    """op applied to fresh leaves, passed in keyword order. A leaf is a shape,
    drawn uniform in [-2, 2], or a (maker, shape) pair; the projection is
    drawn after the leaves, in the op's output shape."""

    def build(rng):
        made = {key: spec[0](rng, spec[1]) if callable(spec[0]) else _leaf(rng, spec)
                for key, spec in leaves.items()}
        w = _projection(rng, op(*made.values()).shape)
        return made, lambda: _project(op(*made.values()), w)

    return OpCase(name, build)


def _case_gated_block(stride: int, t: int) -> OpCase:
    b, c, n, d = 2, 3, 4, 5
    # in gated_block's argument order
    return _case(f"gated_block_s{stride}", lambda *leaves: T.gated_block(*leaves, stride),
                 x=(b, c, n, t), embed_w=(d, c, 1, 3), embed_b=(d,),
                 gate_w=(d, c, 1, 3), gate_b=(d,),
                 gamma=(partial(_leaf, low=0.5, high=1.5), (d,)), beta=(d,))


def default_registry() -> list[OpCase]:
    """Every differentiable op the model calls; gated_block once per stride,
    the stride-2 case at an odd time extent."""
    shape = (3, 4, 2, 5)
    return [
        _case("add", T.add, a=shape, b=shape),
        _case("mul", T.mul, a=shape, b=shape),
        _case("neg", T.neg, x=shape),
        _case("tanh", T.tanh, x=shape),
        _case("relu", T.relu, x=shape),
        _case("sum_over_axis", T.sum_over_axis, x=shape),
        _case("take_time", lambda x: T.take_time(x, 2), x=shape),
        _case("channel_linear", T.channel_linear, x=(2, 6, 4, 3), weight=(5, 6), bias=(5,)),
        _case_gated_block(stride=1, t=4),
        _case_gated_block(stride=2, t=3),
        _case("cosine_correlate", T.cosine_correlate, rep=(2, 6, 4), feat=(2, 6, 4, 3)),
        _case("edge_max", T.edge_max, corr=(2, 4, 4, 3), feat=(2, 5, 4, 3)),
        _case("edge_mix", T.edge_mix, corr=(2, 4, 4, 3), feat=(2, 5, 4, 3), adj=(2, 4, 4)),
        _case("huber", T.huber, pred=(3, 4, 5), target=(3, 4, 5)),
    ]


# (case name suffix, ModelConfig overrides) of the full-model checks: the
# default and every variant whose edge path differs
MODEL_VARIANTS = (
    ("", {}),
    ("_avg", {"attention_op": "avg"}),
    ("_max_learned", {"attention_op": "max_learned"}),
    ("_no_es", {"use_es": False}),
)


def full_model_case(suffix: str = "", **overrides) -> OpCase:
    """End-to-end check: total training loss of a toy forecaster."""
    from .config import ModelConfig
    from .model import Forecaster
    from .losses import total_loss

    def build(rng):
        cfg = ModelConfig(t_in=12, horizon=6, channels=(8,) * 4, head_hidden=8,
                          contrast_weight=0.1, **overrides)
        model = Forecaster(cfg, seed=int(rng.integers(2**31)), dtype=np.float64)
        x = T.Tensor(rng.uniform(-1.0, 1.0, size=(2, 1, 4, cfg.t_in)), dtype=np.float64)
        y = T.Tensor(rng.uniform(-1.0, 1.0, size=(2, cfg.horizon, 4)), dtype=np.float64)
        # at init every stage ends in a layer norm with unit gamma and zero
        # beta, so the channel mean of the deepest features is 0 to rounding
        # and the avg squeeze sits exactly on the relu kink; jitter all
        # parameters off their constant initial values
        for p in model.params.values():
            p.data += rng.uniform(-0.5, 0.5, size=p.shape)

        def forward():
            yhat, state = model.forward(x)
            loss, _, _ = total_loss(yhat, y, state.f_g, state.f_gr,
                                    contrast_weight=cfg.contrast_weight)
            return loss

        return dict(model.params), forward

    return OpCase("full_model" + suffix, build)


def run_all(seed: int = 0) -> list[CheckResult]:
    cases = default_registry()
    results = [check_case(case, seed=seed + i) for i, case in enumerate(cases)]
    for suffix, overrides in MODEL_VARIANTS:
        case = full_model_case(suffix=suffix, **overrides)
        results.append(check_case(case, seed + len(cases), MODEL_POINTS_PER_LEAF))
    return results
