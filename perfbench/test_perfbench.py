"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q

Each correctness check is shown to pass on sound outputs and to fail on a
planted fault, so that none of them is vacuous.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks as C  # noqa: E402
import inputs  # noqa: E402
import stats  # noqa: E402
import workloads as W  # noqa: E402
from flowcast import config as cfgmod  # noqa: E402
from flowcast import data, tensor as T  # noqa: E402
from flowcast.metrics import compute_metrics  # noqa: E402
from flowcast.model import Forecaster  # noqa: E402
from flowcast.optim import Adam  # noqa: E402
from flowcast.training import persistence_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402


# -- order statistics ---------------------------------------------------------------


def test_median_odd_even_and_empty():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_tail_needs_forty_samples():
    assert stats.tail(range(39)) is None
    assert stats.tail(range(40)) == (75, 29.0)


@pytest.mark.parametrize("n, expected", [(100, 90), (120, 91), (1000, 99), (5000, 99)])
def test_tail_percentile(n, expected):
    p, _ = stats.tail(range(n))
    assert p == expected


@pytest.mark.parametrize("n", range(40, 400, 7))
def test_tail_is_highest_percentile_with_ten_beyond(n):
    p, value = stats.tail(np.arange(n, dtype=float))
    beyond = int(np.sum(np.arange(n) > value))
    assert beyond >= stats.TAIL_BEYOND
    if p < 99:
        rank = -(-(p + 1) * n // 100)
        assert n - rank < stats.TAIL_BEYOND


# -- a tiny model to plant faults in -------------------------------------------------


@pytest.fixture()
def session():
    values = inputs.flow_series([0, 0], 400, 6, 0.02)
    ds = data.SeriesDataset(np.nan_to_num(values).astype(np.float32), np.isnan(values))
    prep = data.prepare(ds)
    cfg = cfgmod.from_dict({"model": {"channels": [8, 8, 8, 8], "head_hidden": 8}})
    model = Forecaster(cfg.model, seed=3)
    return W.Session(cfg, prep, model, Adam(model.params))


def test_gradient_check_passes_and_catches_wrong_backward(session, monkeypatch):
    batch = data.make_batch(session.prep, session.prep.splits["val"][:4])
    state = session.model.state_arrays()

    def check():
        return C.check_directional_derivative(
            *W.directional_derivative(session.cfg.model, state, batch, 0))

    assert check().ok

    original = T.sigmoid

    def sigmoid_with_wrong_backward(a):
        out = original(a)
        if out._backward_fn is not None:
            out._backward_fn = lambda g: T._accumulate(a, g)   # drops y * (1 - y)
        return out

    monkeypatch.setattr(T, "sigmoid", sigmoid_with_wrong_backward)
    assert not check().ok


def test_huber_check(session):
    batch = data.make_batch(session.prep, session.prep.splits["val"][:4])
    _, l_h, yhat = W.loss_of(session.model, batch)
    assert C.check_huber(l_h, yhat.data, batch.targets_norm).ok
    assert not C.check_huber(l_h * 1.001, yhat.data, batch.targets_norm).ok


def test_evaluate_check_catches_perturbed_forecast():
    rng = np.random.default_rng(0)
    true = rng.uniform(10, 300, size=(8, 12, 5))
    pred = true + rng.normal(0, 5, size=true.shape)
    report = compute_metrics(pred, true)
    assert C.check_evaluate(report, pred, true).ok
    perturbed = pred.copy()
    perturbed[3] += 1.0
    assert not C.check_evaluate(report, perturbed, true).ok


def test_persistence_check(session):
    prep = session.prep
    test = prep.splits["test"]
    report = persistence_metrics(prep, "test")
    assert C.check_persistence(report, prep.raw, test, prep.t_in, prep.t_out).ok
    assert not C.check_persistence(report, prep.raw, test - 1, prep.t_in, prep.t_out).ok


def test_adjacency_check_catches_swap_range_and_overlap(session):
    batch = data.make_batch(session.prep, session.prep.splits["test"][:1])
    _, state = session.model.forward(T.Tensor(batch.inputs))
    pair = state.adjacency(0)
    base = C.edge_base_reference(state.stage_outputs[3].data,
                                 session.model.params["es.reduce.weight"].data,
                                 session.model.params["es.reduce.bias"].data)[0]
    assert C.check_adjacency(pair.adj, pair.adj_reversed, base).ok
    assert not C.check_adjacency(pair.adj_reversed, pair.adj, base).ok
    assert not C.check_adjacency(pair.adj + 1.0, pair.adj_reversed, base + 1.0).ok
    overlap = pair.adj_reversed.copy()
    k, i = np.unravel_index(np.argmax(pair.adj), pair.adj.shape)
    overlap[k, i] = 1e-6
    assert not C.check_adjacency(pair.adj, overlap, base).ok


def test_equivariance_check():
    rng = np.random.default_rng(1)
    y = rng.normal(size=(12, 7))
    perm = rng.permutation(7)
    assert C.check_equivariance(y, y[:, perm], perm).ok
    assert not C.check_equivariance(y, y, perm).ok
    assert not C.check_equivariance(y, y[:, perm] + 0.01, perm).ok


def test_finite_and_loss_drop_checks():
    assert C.check_finite({"a": [1.0, 2.0], "b": np.zeros(3)}).ok
    assert not C.check_finite({"a": [1.0, float("nan")]}).ok
    assert not C.check_finite({"a": np.array([np.inf])}).ok
    assert C.check_loss_drop(2.0, 1.0).ok
    assert not C.check_loss_drop(1.0, 1.0).ok
    assert not C.check_loss_drop(1.0, float("nan")).ok
    assert not C.check_directional_derivative(float("nan"), 1.0).ok


def test_cut_backward_matches_uncut_and_check_catches_fault(session):
    starts = session.prep.splits["train"][:4]
    loss, _, _ = W.loss_of(session.model, data.make_batch(session.prep, starts))
    session.opt.zero_grad()
    loss.backward()
    uncut = W.grads(session)
    W.cut_forward_backward(session, Tracer(), starts)
    cut = W.grads(session)
    assert C.check_cut_gradients(cut, uncut).ok
    cut["head.out.bias"] = cut["head.out.bias"] * 1.01
    assert not C.check_cut_gradients(cut, uncut).ok


# -- tracer -------------------------------------------------------------------------


def test_tracer_restores_originals_and_attributes_spans(session):
    before = (T.mul, data.make_batch, Forecaster.fuse, T.Tensor.backward)
    tracer = Tracer()
    with tracer.installed():
        assert T.mul is not before[0]
        with tracer.span("forecast"):
            W.forecast(session, int(session.prep.splits["test"][0]))
    assert (T.mul, data.make_batch, Forecaster.fuse, T.Tensor.backward) == before
    (req,) = tracer.requests("forecast")
    assert len(req["spans"]["data.batch"]) == 1
    assert len(req["spans"]["graph.forward"]) == 1
    assert len(req["spans"]["graph.gcn"]) == 2
    assert len(req["spans"]["tensor.conv_nodewise"]) == 14
    assert 0 < req["children"] <= req["total"]


def test_every_workload_forecasts_enough_for_a_tail():
    for w in W.WORKLOADS.values():
        assert W.MIN_ROUNDS * w.forecasts_per_round >= stats.MIN_TAIL_SAMPLES, w.name
