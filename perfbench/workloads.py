"""The three workloads: inputs, set-up, timed rounds and checks.

Every workload is one process driving flowcast's public API in a closed
loop (one caller; the next call starts when the last one returns):

1. set-up, repeated: read the series (and checkpoint), ``prepare``, build
   the ``Forecaster`` and ``Adam``;
2. training steps (forward, loss, backward, Adam, batch assembly included);
3. ``training.evaluate`` over a fixed set of test windows;
4. single-window forecasts under ``no_grad``, denormalised as
   ``flowcast predict`` does.

After the set-up repeats and one warm-up of each operation, the timed part
runs whole rounds (``steps_per_round`` steps, one ``evaluate`` call,
``forecasts_per_round`` forecasts) until ``--seconds`` have passed and at
least ``MIN_ROUNDS`` rounds are done. Checks run outside the timed part.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import sys
import traceback
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import checks as C
import inputs
from flowcast import checkpoint, data, losses
from flowcast import config as cfgmod
from flowcast import tensor as T
from flowcast.model import Forecaster
from flowcast.optim import Adam
from flowcast.training import evaluate, persistence_metrics

WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "work")

MIN_SETUPS = 3
SETUP_SECONDS = 1.0      # set-up repeats until this much time has passed
MIN_ROUNDS = 4           # with forecasts_per_round >= 10, enough samples for a tail
ADJ_WINDOWS = 2          # forecast windows whose adjacency pair is checked
FD_STEP = 1e-6           # central-difference step of the float64 gradient check
HUBER_DELTA = 1.0

# unwrapped ops for the backward seeds of the module-cut step, so that the
# tracer neither counts nor times them as model ops
_MUL, _SUM, _ADD = T.mul, T.sum_over_axis, T.add


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    steps: int               # series length, PEMS-like
    fmt: str                 # series file format
    missing: float           # fraction of missing cells
    batch: int               # training batch
    eval_batch: int
    eval_windows: int        # windows per evaluate call
    from_checkpoint: bool    # set-up reads a checkpoint written before timing
    steps_per_round: int
    forecasts_per_round: int


WORKLOADS = {w.name: w for w in (
    Workload("train-acceptance", 10, 17_280, "csv", 0.02, 64, 64, 256, False, 4, 10),
    Workload("train-pems04", 307, 16_992, "bin", 0.03, 8, 8, 8, False, 1, 10),
    Workload("forecast-pems08", 170, 17_856, "csv", 0.01, 16, 64, 64, True, 1, 24),
)}


@dataclass
class Session:
    cfg: cfgmod.RunConfig
    prep: data.PreparedData
    model: Forecaster
    opt: Adam


@dataclass
class Counter:
    attempted: int = 0
    failed: int = 0

    def call(self, fn, *args):
        """(seconds, result) of one operation, or (None, None) if it raised."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None, None
        return perf_counter() - t0, result


@dataclass
class Measurement:
    counter: Counter = field(default_factory=Counter)
    setup_s: list[float] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)
    step_windows: int = 0
    eval_rates: list[float] = field(default_factory=list)
    eval_values: list[float] = field(default_factory=list)
    forecast_s: list[float] = field(default_factory=list)
    forecast_maxabs: list[float] = field(default_factory=list)
    # the last round's evaluate report and forecasts, made with the same parameters
    eval_report: object = None
    forecasts: dict[int, np.ndarray] = field(default_factory=dict)
    step_losses: list[float] = field(default_factory=list)
    peak_rss_mib: float = 0.0
    loss_before: float = float("nan")   # Huber term on the held-out batch
    # traced run only
    untraced_step_s: list[float] = field(default_factory=list)
    rel_mib: float = 0.0
    train_peak_mib: float = 0.0
    forecast_peak_mib: float = 0.0
    checks: list[C.Check] = field(default_factory=list)


# -- inputs and set-up -----------------------------------------------------------


def write_inputs(w: Workload, seed: int) -> tuple[cfgmod.RunConfig, str | None]:
    """Series file (and checkpoint) for one seed; returns the run config of
    a training workload and the checkpoint path of a forecasting one."""
    os.makedirs(WORK_DIR, exist_ok=True)
    index = list(WORKLOADS).index(w.name)
    values = inputs.flow_series([seed, index], w.steps, w.nodes, w.missing)
    series = os.path.join(WORK_DIR, f"{w.name}-s{seed}.{w.fmt}")
    (inputs.write_csv if w.fmt == "csv" else inputs.write_bin)(series, values)
    train = {"seed": seed} if w.from_checkpoint else {"seed": seed, "batch_size": w.batch}
    cfg = cfgmod.from_dict({"data": {"path": series, "format": w.fmt}, "train": train})
    if not w.from_checkpoint:
        return cfg, None
    path = os.path.join(WORK_DIR, f"{w.name}-s{seed}.ckpt")
    model = Forecaster(cfg.model, seed=seed + 1)
    checkpoint.save(path, model.state_arrays(),
                    {"run": cfgmod.to_dict(cfg), "num_nodes": w.nodes,
                     "parameter_count": model.parameter_count()}, 0, 0.0)
    return cfg, path


def set_up(cfg: cfgmod.RunConfig, ckpt_path: str | None) -> Session:
    params = None
    if ckpt_path is not None:
        params, header = checkpoint.load(ckpt_path)
        cfg = cfgmod.from_dict(header["config"]["run"])
    ds = data.load_dataset(cfg.data.path, cfg.data.format, cfg.data.zeros_as_missing)
    prep = data.prepare(ds, t_in=cfg.model.t_in, t_out=cfg.model.horizon)
    model = Forecaster(cfg.model, seed=cfg.train.seed)
    if params is not None:
        model.load_state_arrays(params)
    opt = Adam(model.params, lr=cfg.train.lr0, weight_decay=cfg.train.weight_decay,
               clip=cfg.train.clip)
    return Session(cfg, prep, model, opt)


# -- operations ------------------------------------------------------------------


def loss_of(model: Forecaster, batch: data.WindowBatch):
    yhat, state = model.forward(T.Tensor(batch.inputs))
    loss, l_h, _ = losses.total_loss(yhat, T.Tensor(batch.targets_norm), state.f_g,
                                     state.f_gr, HUBER_DELTA, model.cfg.contrast_weight)
    return loss, l_h, yhat


def train_step(s: Session, starts: np.ndarray) -> float:
    loss, _, _ = loss_of(s.model, data.make_batch(s.prep, starts))
    s.opt.zero_grad()
    loss.backward()
    s.opt.step()
    return float(loss.data)


def forecast(s: Session, start: int) -> np.ndarray:
    batch = data.make_batch(s.prep, np.array([start]))
    with T.no_grad():
        yhat, _ = s.model.forward(T.Tensor(batch.inputs))
    return s.prep.stats.invert(yhat.data[0])


def _leaf(t: T.Tensor) -> T.Tensor:
    return T.Tensor(t.data, requires_grad=True)


def _seed(outputs: list[T.Tensor], cuts: list[T.Tensor]) -> T.Tensor:
    """Scalar whose backward hands each output its cut leaf's gradient."""
    total = None
    for out, cut in zip(outputs, cuts):
        g = cut.grad if cut.grad is not None else np.zeros_like(cut.data)
        term = _SUM(_MUL(out, T.Tensor(g)))
        total = term if total is None else _ADD(total, term)
    return total


def cut_forward_backward(s: Session, tracer, starts: np.ndarray):
    """One step's forward and backward with the autodiff graph cut into leaf
    tensors at module boundaries, so that each module's backward runs, and
    is timed, on its own. Returns the loss and the edge-block state."""
    batch = data.make_batch(s.prep, starts)
    stages = s.model.encoder.forward(T.Tensor(batch.inputs))
    stage_cuts = [_leaf(t) for t in stages]
    edges = s.model.edge_graph.forward(stage_cuts[3])
    f_g, f_gr = _leaf(edges.f_g), _leaf(edges.f_gr)
    yhat = s.model.predict(s.model.fuse(stage_cuts, f_g))
    yhat_cut = _leaf(yhat)
    loss, _, _ = losses.total_loss(yhat_cut, T.Tensor(batch.targets_norm), f_g, f_gr,
                                   HUBER_DELTA, s.model.cfg.contrast_weight)
    s.opt.zero_grad()
    with tracer.span("losses.backward"):
        loss.backward()
    for name, outs, cuts in (("model.head_backward", [yhat], [yhat_cut]),
                             ("graph.backward", [edges.f_g, edges.f_gr], [f_g, f_gr]),
                             ("temporal.backward", stages, stage_cuts)):
        seed = _seed(outs, cuts)
        with tracer.span(name):
            seed.backward()
    return float(loss.data), edges


def grads(s: Session) -> dict[str, np.ndarray]:
    return {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
            for k, p in s.model.params.items()}


def directional_derivative(model_cfg, state: dict[str, np.ndarray], batch: data.WindowBatch,
                           seed: int) -> tuple[float, float]:
    """Analytic and central-difference derivative of the float64 training
    loss at parameters ``state`` along a random unit direction."""
    model = Forecaster(model_cfg, seed=0, dtype=np.float64)
    model.load_state_arrays(state)
    b64 = dataclasses.replace(batch, inputs=batch.inputs.astype(np.float64),
                              targets_norm=batch.targets_norm.astype(np.float64))
    loss, _, _ = loss_of(model, b64)
    model.zero_grad()
    loss.backward()
    rng = np.random.default_rng([seed, 7])
    direction = {k: rng.standard_normal(p.shape) for k, p in model.params.items()}
    norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    analytic = sum(float((model.params[k].grad * d).sum()) for k, d in direction.items()) / norm
    base = {k: p.data.copy() for k, p in model.params.items()}
    values = []
    for sign in (1.0, -1.0):
        for k, p in model.params.items():
            p.data = base[k] + sign * FD_STEP * direction[k] / norm
        values.append(float(loss_of(model, b64)[0].data))
    return analytic, (values[0] - values[1]) / (2 * FD_STEP)


# -- the run ---------------------------------------------------------------------


def measure(w: Workload, seed: int, seconds: float, tracer=None) -> Measurement:
    m = Measurement()
    cfg, ckpt_path = write_inputs(w, seed)
    traced = tracer is not None

    def timed(name, fn, *args):
        """One operation; in the traced run, a request span with the tracer installed."""
        if not traced:
            return m.counter.call(fn, *args)
        with tracer.installed(), tracer.span(name):
            return m.counter.call(fn, *args)

    s = None
    t_end = perf_counter() + SETUP_SECONDS
    while len(m.setup_s) < MIN_SETUPS or perf_counter() < t_end:
        dt, session = timed("setup", set_up, cfg, ckpt_path)
        if dt is None:
            raise RuntimeError("set-up failed")
        m.setup_s.append(dt)
        s = session
    initial = s.model.state_arrays()
    held_out = data.make_batch(s.prep, s.prep.splits["val"][:w.batch])
    m.loss_before = loss_of(s.model, held_out)[1]

    order = np.random.default_rng([seed, 1]).permutation(s.prep.splits["train"])
    cursor = 0

    def next_starts():
        nonlocal cursor
        starts = np.take(order, np.arange(cursor, cursor + w.batch), mode="wrap")
        cursor += w.batch
        return starts

    eval_starts = s.prep.splits["test"][:w.eval_windows]
    eval_prep = dataclasses.replace(s.prep, splits={"bench": eval_starts})

    # warm-up, not samples; the traced run checks the cut on its first step
    # and takes its tracemalloc peaks here, where they disturb no sample
    if traced:
        m.checks.append(_cut_check(s, tracer, next_starts()))
        m.train_peak_mib = _traced_peak_mib(train_step, s, next_starts())
        m.forecast_peak_mib = _traced_peak_mib(forecast, s, int(eval_starts[0]))
    else:
        m.counter.call(train_step, s, next_starts())
    m.counter.call(forecast, s, int(eval_starts[0]))

    # rounds interleave the operations, so that each metric samples the whole
    # run and not one stretch of it
    deadline = perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() < deadline:
        for _ in range(w.steps_per_round):
            if traced:
                dt, loss = m.counter.call(train_step, s, next_starts())
                if dt is not None:
                    m.untraced_step_s.append(dt)
                    m.step_losses.append(loss)
                dt, out = timed("train.step", _traced_step, s, tracer, next_starts())
                if dt is not None:
                    m.step_s.append(dt)
                    m.step_losses.append(out[0])
                    rel = getattr(out[1], "rel", None)
                    m.rel_mib = rel.data.nbytes / 2**20 if rel is not None else 0.0
            else:
                dt, loss = timed("train.step", train_step, s, next_starts())
                if dt is not None:
                    m.step_s.append(dt)
                    m.step_windows += w.batch
                    m.step_losses.append(loss)
        dt, report = timed("evaluate", evaluate, s.model, eval_prep, "bench", w.eval_batch)
        m.eval_report, m.forecasts = report, {}
        if dt is not None:
            m.eval_rates.append(len(eval_starts) / dt)
            m.eval_values += [report.rmse, report.mae, report.mape]
        for _ in range(w.forecasts_per_round):
            start = int(eval_starts[len(m.forecast_s) % len(eval_starts)])
            dt, pred = timed("forecast", forecast, s, start)
            if dt is not None:
                m.forecast_s.append(dt)
                m.forecast_maxabs.append(float(np.abs(pred).max()))
                m.forecasts[start] = pred
        rounds += 1
    m.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if traced and ckpt_path is None:
        _reload_checkpoint(s, tracer, w, seed)

    m.checks += run_checks(seed, s, m, held_out, eval_starts, initial)
    return m


def _traced_peak_mib(fn, *args) -> float:
    """Peak of memory allocations (numpy buffers included) during one call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _traced_step(s: Session, tracer, starts: np.ndarray):
    loss, edges = cut_forward_backward(s, tracer, starts)
    s.opt.step()
    return loss, edges


def _cut_check(s: Session, tracer, starts: np.ndarray) -> C.Check:
    """Warm-up step of the traced run: the module-cut backward must give the
    parameter gradients of an uncut backward, then Adam steps."""
    loss, _, _ = loss_of(s.model, data.make_batch(s.prep, starts))
    s.opt.zero_grad()
    loss.backward()
    uncut = grads(s)
    cut_forward_backward(s, tracer, starts)
    check = C.check_cut_gradients(grads(s), uncut)
    s.opt.step()
    return check


def _reload_checkpoint(s: Session, tracer, w: Workload, seed: int) -> None:
    """Training workloads read no checkpoint in set-up; the traced run times
    reading back the one the trained model would be saved to."""
    path = os.path.join(WORK_DIR, f"{w.name}-s{seed}-trained.ckpt")
    checkpoint.save(path, s.model.state_arrays(), {"run": cfgmod.to_dict(s.cfg)}, 0, 0.0)
    for _ in range(MIN_SETUPS):
        with tracer.installed(), tracer.span("checkpoint.reload"):
            checkpoint.load(path)


# -- checks ----------------------------------------------------------------------


def _guard(name: str, fn, *args) -> C.Check:
    try:
        return fn(*args)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return C.Check(name, False, f"raised {type(exc).__name__}: {exc}")


def run_checks(seed: int, s: Session, m: Measurement, held_out: data.WindowBatch,
               eval_starts: np.ndarray, initial: dict[str, np.ndarray]) -> list[C.Check]:
    out = []
    _, loss_after, yhat = loss_of(s.model, held_out)
    out.append(C.check_loss_drop(m.loss_before, loss_after))
    out.append(C.check_huber(loss_after, yhat.data, held_out.targets_norm))

    for start in eval_starts:
        if int(start) not in m.forecasts:
            m.forecasts[int(start)] = forecast(s, int(start))
    preds = np.stack([m.forecasts[int(i)] for i in eval_starts])
    out_idx = eval_starts[:, None] + s.prep.t_in + np.arange(s.prep.t_out)[None, :]
    out.append(_guard("evaluate", C.check_evaluate, m.eval_report, preds, s.prep.raw[out_idx]))

    test = s.prep.splits["test"]
    out.append(_guard("persistence", C.check_persistence, persistence_metrics(s.prep, "test"),
                      s.prep.raw, test, s.prep.t_in, s.prep.t_out))
    out.append(_guard("adjacency", _adjacency_check, s, eval_starts[:ADJ_WINDOWS]))
    out.append(_guard("equivariance", _equivariance_check, s, int(eval_starts[0]), seed))

    # a non-finite derivative fails this check through a NaN relative error
    out.append(_guard("gradient", lambda: C.check_directional_derivative(
        *directional_derivative(s.cfg.model, initial, held_out, seed))))
    out.append(C.check_finite({"forecasts": m.forecast_maxabs, "checked_forecasts": preds,
                               "step_losses": m.step_losses, "evaluate": m.eval_values,
                               "held_out_loss": [m.loss_before, loss_after]}))
    return out


def _adjacency_check(s: Session, starts: np.ndarray) -> C.Check:
    """Checked on a forward that records the graph, the path training takes."""
    worst = None
    for start in starts:
        _, state = s.model.forward(T.Tensor(data.make_batch(s.prep, np.array([start])).inputs))
        pair = state.adjacency(0)
        base = C.edge_base_reference(state.stage_outputs[3].data,
                                     s.model.params["es.reduce.weight"].data,
                                     s.model.params["es.reduce.bias"].data,
                                     s.cfg.model.cosine_eps)[0]
        check = C.check_adjacency(pair.adj, pair.adj_reversed, base)
        if worst is None or not check.ok:
            worst = check
    return worst


def _equivariance_check(s: Session, start: int, seed: int) -> C.Check:
    x = data.make_batch(s.prep, np.array([start])).inputs
    perm = np.random.default_rng([seed, 3]).permutation(x.shape[2])
    with T.no_grad():
        y = s.model.forward(T.Tensor(x))[0].data[0]
        y_perm = s.model.forward(T.Tensor(np.ascontiguousarray(x[:, :, perm, :])))[0].data[0]
    return C.check_equivariance(y, y_perm, perm)
