import numpy as np

import flowcast.tensor as T
from flowcast import gradcheck


def test_every_registered_op_matches_finite_differences():
    results = gradcheck.run_all(seed=11, include_model=False)
    failed = [r for r in results if not r.passed]
    assert not failed, f"ops failing the oracle: {[(r.name, r.max_rel_err) for r in failed]}"


def test_registry_names_are_unique():
    names = [case.name for case in gradcheck.default_registry()]
    assert len(names) == len(set(names))


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
    results = gradcheck.run_all(seed=0, registry=[_broken_case()], include_model=False)
    assert not results[0].passed


def test_relative_error_floors_tiny_denominators():
    assert gradcheck.relative_error(0.0, 0.0) == 0.0
    assert gradcheck.relative_error(1e-9, 0.0) < 1e-2


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
