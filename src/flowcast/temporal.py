"""Multi-scale temporal encoder built from gated node-wise convolutions.

Four stages of blocks, each block a pair of 1x3 temporal convolutions
(embedding path through tanh, gate path through sigmoid) multiplied
elementwise and layer-normalized over channels. A block is one op,
``tensor.gated_block``, which runs both [c_out, c_in, 1, 3] kernels as one
GEMM over the im2col taps of its input. The kernel never spans the node
axis, so every region's series is encoded independently. A stage's stride
sits on its first block (``block_strides``): strides of (1, 2, 2, 2) halve
the time extent and widen the receptive field stage by stage.
"""

from __future__ import annotations

import numpy as np

from . import params as P
from . import tensor as T
from .config import ModelConfig


class WBlock:
    """Gated conv pair + layer norm. Both convs share in/out channels and stride."""

    def __init__(self, name: str, c_in: int, c_out: int, stride: int,
                 rng: np.random.Generator, store: dict[str, T.Tensor],
                 dtype=np.float32):
        self.stride = stride
        self.embed_w = store[f"{name}.embed.weight"] = P.conv_kernel(rng, c_out, c_in, T.KERNEL_T, dtype)
        self.embed_b = store[f"{name}.embed.bias"] = P.zeros((c_out,), dtype)
        self.gate_w = store[f"{name}.gate.weight"] = P.conv_kernel(rng, c_out, c_in, T.KERNEL_T, dtype)
        self.gate_b = store[f"{name}.gate.bias"] = P.zeros((c_out,), dtype)
        self.gamma = store[f"{name}.norm.gamma"] = P.ones((c_out,), dtype)
        self.beta = store[f"{name}.norm.beta"] = P.zeros((c_out,), dtype)

    def forward(self, x: T.Tensor) -> T.Tensor:
        return T.gated_block(x, self.embed_w, self.embed_b, self.gate_w, self.gate_b,
                             self.gamma, self.beta, self.stride, eps=ModelConfig.norm_eps)


def block_strides(cfg: ModelConfig) -> list[list[int]]:
    """Per stage, the stride of each block: the stage stride sits on its first block."""
    return [[stride] + [1] * (blocks - 1)
            for blocks, stride in zip(cfg.blocks_per_stage, cfg.strides)]


class TemporalEncoder:
    """The four-stage stack; forward returns one feature map per stage."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator,
                 store: dict[str, T.Tensor], dtype=np.float32):
        self.cfg = cfg
        self.stages: list[list[WBlock]] = []
        c_in = 1
        for i, (strides, c_out) in enumerate(zip(block_strides(cfg), cfg.channels), start=1):
            stage = []
            for j, s in enumerate(strides, start=1):
                stage.append(WBlock(f"stage{i}.block{j}", c_in, c_out, s, rng, store, dtype))
                c_in = c_out
            self.stages.append(stage)

    def forward(self, x: T.Tensor) -> list[T.Tensor]:
        outputs = []
        h = x
        for stage in self.stages:
            for block in stage:
                h = block.forward(h)
            outputs.append(h)
        return outputs


def stage_time_lengths(cfg: ModelConfig) -> list[int]:
    """Per-stage output time extents under the conv length arithmetic."""
    lengths = []
    t = cfg.t_in
    for strides in block_strides(cfg):
        for s in strides:
            t = T.conv_time_length(t, s)
            if t < 1:
                raise ValueError(f"time extent collapses to {t} under config {cfg}")
        lengths.append(t)
    return lengths


def receptive_fields(cfg: ModelConfig) -> list[int]:
    """Measured per-stage receptive field on the input series (uncapped).

    The effective field is bounded by the input length; both are logged at
    model build time.
    """
    fields = []
    rf, jump = 1, 1
    for strides in block_strides(cfg):
        for s in strides:
            rf += (T.KERNEL_T - 1) * jump
            jump *= s
        fields.append(rf)
    return fields
