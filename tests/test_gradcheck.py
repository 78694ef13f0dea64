import inspect
import re

import numpy as np
import pytest

import flowcast.tensor as T
from flowcast import gradcheck


def test_every_registered_op_matches_finite_differences():
    results = [gradcheck.check_case(case, seed=11 + i)
               for i, case in enumerate(gradcheck.default_registry())]
    failed = [r for r in results if not r.passed]
    assert not failed, f"ops failing the oracle: {[(r.name, r.max_rel_err) for r in failed]}"


def test_every_op_case_passes_at_seeds_0_to_99():
    # the op cases draw plain uniform leaves; a kink they meet that the
    # re-step does not resolve fails here
    failed = [(case.name, seed, result.max_rel_err)
              for case in gradcheck.default_registry() for seed in range(100)
              if not (result := gradcheck.check_case(case, seed)).passed]
    assert not failed


def test_registry_names_are_unique():
    names = [case.name for case in gradcheck.default_registry()]
    assert len(names) == len(set(names))


def test_every_public_tensor_function_is_a_checked_op():
    # perfbench's tracer counts every public function of the tensor module as an op
    public = {name for name, fn in vars(T).items()
              if inspect.isfunction(fn) and fn.__module__ == T.__name__
              and not name.startswith("_")}
    checked = {re.sub(r"_s\d$", "", case.name) for case in gradcheck.default_registry()}
    assert public - {"no_grad", "conv_time_length"} - checked == set()


def _broken_case() -> gradcheck.OpCase:
    """An op whose backward deliberately lies (claims 3x instead of 2x)."""

    def broken_scale(x: T.Tensor) -> T.Tensor:
        def backward(g):
            T._accumulate(x, 3.0 * g)

        return T._make(2.0 * x.data, (x,), backward, "broken_scale")

    def build(rng):
        x = T.Tensor(rng.normal(size=(4,)), requires_grad=True, dtype=np.float64)
        return {"x": x}, lambda: T.sum_over_axis(broken_scale(x))

    return gradcheck.OpCase("broken_scale", build)


def test_broken_op_is_caught():
    assert not gradcheck.check_case(_broken_case(), seed=0).passed


def _kink_case(name: str, op, data: np.ndarray, proj: np.ndarray) -> gradcheck.OpCase:
    def build(rng):
        x = T.Tensor(data.copy(), requires_grad=True, dtype=np.float64)
        return {"x": x}, lambda: T.sum_over_axis(T.mul(op(x), T.Tensor(proj)))

    return gradcheck.OpCase(name, build)


def _edge_max_of_channels(x: T.Tensor) -> T.Tensor:
    return T.edge_max(T.Tensor(np.ones((1, 1, 1, 1))), x)


# x[0] sits 3e-6 from a kink, inside the 1e-5 stencil: below the relu seam,
# or below the other channel's value under the channel max, where x[1]'s
# stencil straddles the same tie
NEAR_KINKS = [
    ("relu", T.relu, np.array([3e-6, 1.0, -1.0]), np.array([0.7, -0.3, 0.5]),
     ("x[0] h=1e-06",)),
    ("edge_max", _edge_max_of_channels, np.array([1.0, 1.0 + 3e-6]).reshape(1, 2, 1, 1),
     np.ones((1, 1, 1)), ("x[0] h=1e-06", "x[1] h=1e-06")),
]


@pytest.mark.parametrize("name,op,data,proj,restepped", NEAR_KINKS)
def test_coordinate_straddling_a_kink_is_restepped_and_named(name, op, data, proj, restepped):
    result = gradcheck.check_case(_kink_case(name, op, data, proj), seed=0)
    assert result.passed, result
    assert result.restepped == restepped


def test_kink_is_what_fails_the_unstepped_stencil():
    # the same relu case at the fixed step: the mixed slope fails the bound
    case = _kink_case("relu", *NEAR_KINKS[0][1:4])
    leaves, forward = case.build(np.random.default_rng(0))
    flat = leaves["x"].data.reshape(-1)
    flat[0] += gradcheck.FD_STEP
    plus = float(forward().data)
    flat[0] -= 2 * gradcheck.FD_STEP
    minus = float(forward().data)
    fd = (plus - minus) / (2 * gradcheck.FD_STEP)
    assert gradcheck.relative_error(fd, 0.7) > gradcheck.TOLERANCE


def test_coordinate_on_a_kink_still_fails():
    # x[0] = 0 exactly: every step straddles the seam, so no re-step resolves it
    case = _kink_case("relu", T.relu, np.array([0.0, 1.0, -1.0]), np.array([0.7, -0.3, 0.5]))
    result = gradcheck.check_case(case, seed=0)
    assert not result.passed
    assert result.restepped == ("x[0] h=1e-08",)


def test_relative_error_floors_tiny_denominators():
    assert gradcheck.relative_error(0.0, 0.0) == 0.0
    assert gradcheck.relative_error(1e-9, 0.0) < 1e-2


def _balanced_huber_case() -> gradcheck.OpCase:
    """A loss of ~1.5e4 whose bias gradient is exactly 0: every residual is on
    Huber's linear branch, half of them positive and half negative."""

    def build(rng):
        pred = rng.uniform(-1.0, 1.0, size=64)
        resid = 1e4 * rng.uniform(1.0, 2.0, size=64) * np.where(np.arange(64) % 2, 1.0, -1.0)
        p, target = T.Tensor(pred, dtype=np.float64), T.Tensor(pred - resid, dtype=np.float64)
        bias = T.Tensor(np.zeros(1), requires_grad=True, dtype=np.float64)
        return {"bias": bias}, lambda: T.huber(T.add(p, bias), target)

    return gradcheck.OpCase("balanced_huber", build)


def test_zero_gradient_at_a_large_loss_is_not_read_as_error():
    case = _balanced_huber_case()
    leaves, forward = case.build(np.random.default_rng(3))
    loss = forward()
    loss.backward()
    assert leaves["bias"].grad[0] == 0.0 and float(loss.data) > 1e4
    # float64 rounding alone moves the central difference off 0: against the
    # fixed 1e-6 floor that reads as error
    h = gradcheck.FD_STEP
    fd, straddles = gradcheck._central_difference(forward, leaves["bias"].data.reshape(-1), 0, h)
    assert not straddles
    assert fd != 0.0 and gradcheck.relative_error(fd, 0.0) > gradcheck.TOLERANCE
    assert gradcheck.relative_error(fd, 0.0, gradcheck.resolution_floor(float(loss.data), h)) < 1e-5
    result = gradcheck.check_case(case, seed=3)
    assert result.passed and result.points == 1


def test_resolution_floor_scales_with_the_loss_and_the_step():
    floor = gradcheck.resolution_floor
    assert floor(1e-3, gradcheck.FD_STEP) == gradcheck.REL_ERR_FLOOR
    assert floor(1e4, gradcheck.FD_STEP) == pytest.approx(100 * floor(1e2, gradcheck.FD_STEP))
    assert floor(1e4, 1e-6) == pytest.approx(10 * floor(1e4, 1e-5))


def _ops(loss: T.Tensor) -> set[str]:
    return {node.op for node in T._topo_order(loss)} - {"leaf"}


def test_registry_covers_exactly_the_ops_the_model_calls():
    rng = np.random.default_rng(0)
    called = set()
    for suffix, overrides in gradcheck.MODEL_VARIANTS:
        _, forward = gradcheck.full_model_case(suffix=suffix, **overrides).build(rng)
        called |= _ops(forward())
    registered = set()
    for case in gradcheck.default_registry():
        _, forward = case.build(rng)
        registered |= _ops(forward())
    assert registered == called


@pytest.mark.parametrize("stride,t", [(1, 4), (2, 3)])
def test_gated_block_gradients_hold_across_chunks(monkeypatch, stride, t):
    monkeypatch.setattr(T, "CACHE_BLOCK", 1)   # one sample per chunk
    result = gradcheck.check_case(gradcheck._case_gated_block(stride, t), seed=4)
    assert result.passed, result


def test_smooth_steep_coordinate_passes_on_the_four_point_recheck():
    # at case seed 47 the central difference of this coordinate misses by its
    # O(h^2) truncation alone; the O(h^4) stencil at the same h does not
    case = gradcheck.full_model_case("_max_learned", attention_op="max_learned")
    leaves, forward = case.build(np.random.default_rng(47))
    forward().backward()
    beta = leaves["stage1.block1.norm.beta"]
    ad = float(beta.grad[0])
    flat, h = beta.data.reshape(-1), gradcheck.FD_STEP
    fd, straddles = gradcheck._central_difference(forward, flat, 0, h)
    assert not straddles and gradcheck.relative_error(fd, ad) > gradcheck.TOLERANCE
    fd4 = (4.0 * fd - gradcheck._central_difference(forward, flat, 0, 2 * h)[0]) / 3.0
    assert gradcheck.relative_error(fd4, ad) < gradcheck.TOLERANCE / 10
    result = gradcheck.check_case(case, 47, gradcheck.MODEL_POINTS_PER_LEAF)
    assert result.passed, result


def test_a_rechecked_coordinate_costs_two_more_evaluations():
    # tanh(3000 x) is smooth but steep: at x[0] and x[2] the central difference
    # misses by its O(h^2) truncation alone and is rechecked; the four-point
    # stencil reuses f(x + h) and f(x - h) and evaluates only f(x +- 2h)
    calls = []

    def build(rng):
        x = T.Tensor(np.array([0.0, 2e-4, -1e-4]), requires_grad=True, dtype=np.float64)
        scale = T.Tensor(np.full(3, 3000.0), dtype=np.float64)
        w = T.Tensor(np.array([0.7, -0.3, 0.5]), dtype=np.float64)

        def forward():
            calls.append(1)
            return T.sum_over_axis(T.mul(w, T.tanh(T.mul(scale, x))))

        return {"x": x}, forward

    result = gradcheck.check_case(gradcheck.OpCase("steep_tanh", build), seed=0)
    assert result.passed and result.points == 3 and result.restepped == ()
    # one forward for the gradient, two per coordinate, two per recheck
    assert len(calls) == 1 + 2 * 3 + 2 * 2
