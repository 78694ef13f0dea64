"""The full forecaster: temporal encoder, edge-squeeze graph block, fusion
and the two-layer prediction head.

Fusion takes the last time step of each of the first three stage outputs
through its own 1x1 channel map (only the slice the head reads is mapped)
and sums them with the linearly mapped graph features. The result feeds a
shared-across-nodes ReLU MLP producing the h-step forecast in normalized
units.

With the graph block disabled (`use_es=False`, the backbone-only ablation)
the graph term is replaced by a 1x1-mapped last slice of the deepest stage
so the head still sees stage-4 information.

No parameter anywhere is indexed by node, which makes the whole model
node-permutation equivariant.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from . import params as P
from . import tensor as T
from .config import ModelConfig
from .graph import AdjacencyPair, EdgeGraph, EdgeState
from .temporal import TemporalEncoder, receptive_fields, stage_time_lengths

logger = logging.getLogger(__name__)


@dataclass
class ModelState:
    """Per-forward intermediates needed by losses, export and tests."""
    stage_outputs: list[T.Tensor]
    edges: EdgeState | None

    @property
    def f_g(self) -> T.Tensor | None:
        return self.edges.f_g if self.edges is not None else None

    @property
    def f_gr(self) -> T.Tensor | None:
        return self.edges.f_gr if self.edges is not None else None

    def adjacency(self, sample: int = 0) -> AdjacencyPair:
        if self.edges is None:
            raise ValueError("model ran without the edge graph block")
        return AdjacencyPair(np.array(self.edges.adj.data[sample]),
                             np.array(self.edges.adj_reversed.data[sample]))


class Forecaster:
    """Builds all parameters from (config, seed) and runs the forward pass."""

    def __init__(self, cfg: ModelConfig, seed: int = 0, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        self.params: dict[str, T.Tensor] = {}
        rng = np.random.default_rng(seed)

        self.encoder = TemporalEncoder(cfg, rng, self.params, dtype)
        self.edge_graph = EdgeGraph(cfg, rng, self.params, dtype) if cfg.use_es else None

        c4 = cfg.channels[3]
        for i, c_i in enumerate(cfg.channels[:3], start=1):
            self.params[f"head.fuse{i}.weight"] = P.linear_weight(rng, c4, c_i, dtype)
            self.params[f"head.fuse{i}.bias"] = P.zeros((c4,), dtype)
        if cfg.use_es:
            self.params["head.fuse_es.weight"] = P.linear_weight(rng, c4, c4, dtype)
            self.params["head.fuse_es.bias"] = P.zeros((c4,), dtype)
        else:
            self.params["head.fuse_f4.weight"] = P.linear_weight(rng, c4, c4, dtype)
            self.params["head.fuse_f4.bias"] = P.zeros((c4,), dtype)
        self.params["head.hidden.weight"] = P.linear_weight(rng, cfg.head_hidden, c4, dtype)
        self.params["head.hidden.bias"] = P.zeros((cfg.head_hidden,), dtype)
        self.params["head.out.weight"] = P.linear_weight(rng, cfg.horizon, cfg.head_hidden, dtype)
        self.params["head.out.bias"] = P.zeros((cfg.horizon,), dtype)

        logger.info("model: %d parameters, stage time extents %s, receptive fields %s "
                    "(effective: capped at t_in=%d)",
                    self.parameter_count(), stage_time_lengths(cfg), receptive_fields(cfg),
                    cfg.t_in)

    def parameter_count(self) -> int:
        return P.count_parameters(self.params)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def fuse(self, stage_outputs: list[T.Tensor], f_g: T.Tensor | None) -> T.Tensor:
        """Sum of the 1x1-mapped last time slices of stages 1-3 and the graph term."""
        slices = [(f"fuse{i}", T.take_time(f_i, -1))
                  for i, f_i in enumerate(stage_outputs[:3], start=1)]
        slices.append(("fuse_es", f_g) if f_g is not None
                      else ("fuse_f4", T.take_time(stage_outputs[3], -1)))
        p = self.params
        return functools.reduce(T.add, [
            T.channel_linear(h, p[f"head.{name}.weight"], p[f"head.{name}.bias"])
            for name, h in slices])

    def predict(self, fused: T.Tensor) -> T.Tensor:
        hidden = T.relu(T.channel_linear(fused, self.params["head.hidden.weight"],
                                         self.params["head.hidden.bias"]))
        return T.channel_linear(hidden, self.params["head.out.weight"],
                                self.params["head.out.bias"])

    def forward(self, x: T.Tensor) -> tuple[T.Tensor, ModelState]:
        """x [b, 1, n, t_in] normalized -> forecast [b, horizon, n] normalized."""
        if x.data.ndim != 4 or x.shape[1] != 1 or x.shape[3] != self.cfg.t_in:
            raise T.ShapeError(f"input must be [b, 1, n, {self.cfg.t_in}], got {x.shape}")
        stage_outputs = self.encoder.forward(x)
        edges = self.edge_graph.forward(stage_outputs[3]) if self.edge_graph else None
        fused = self.fuse(stage_outputs, edges.f_g if edges else None)
        yhat = self.predict(fused)
        return yhat, ModelState(stage_outputs, edges)

    # -- parameter I/O ------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        missing = set(self.params) - set(state)
        extra = set(state) - set(self.params)
        if missing or extra:
            raise ValueError(f"parameter set mismatch: missing {sorted(missing)}, "
                             f"unexpected {sorted(extra)}")
        for name, p in self.params.items():
            arr = np.asarray(state[name], dtype=self.dtype)
            if arr.shape != p.shape:
                raise ValueError(f"parameter {name} has shape {arr.shape}, expected {p.shape}")
            p.data = arr.copy()
