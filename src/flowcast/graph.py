"""Adaptive adjacency from temporal features, plus the graph convolution.

Pipeline per forward pass:

1. squeeze the deepest temporal features to a quarter of their channels
   (1x1 channel map);
2. pick one time index per node as its representative state (last by
   default; first/middle are ablation variants);
3. cosine-correlate every representative against every node's feature at
   every remaining time step -> S [b, n, n, l];
4. the relational edge features are the deep features weighted by those
   correlations and summed over time, R[b, c, i, k] = sum_t S[b, k, i, t]
   F4[b, c, i, t]; R [b, c, n_src, n_tgt] is never stored whole;
5. squeeze R's channel axis (max by default), tanh, and rectify into the
   adjacency matrix A and its sign-reversed counterpart A_r - the two are
   elementwise disjoint by construction and live in [0, 1). Every squeeze
   is the fused ``edge_max``, which forms R in cache-sized blocks of
   (sample, source) pairs and reduces each block at once. R is linear in
   F4, so the channel mean of R is R of the one-channel mean_c(F4), whose
   max over its one channel is itself: ``avg`` is ``edge_max`` over it;
6. aggregate R with each adjacency and map through a shared linear layer.
   ``edge_mix`` contracts S, F4 and A by associativity as one batched
   matmul, a GEMM per sample, so R is not formed here either. The A_r
   aggregation feeds only the contrastive loss and is skipped when no
   gradient is recorded.

Adjacency matrices are oriented row = target: A[k, i] weights source i in
target k's aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import params as P
from . import tensor as T
from .config import ATTENTION_OPS, ModelConfig

REP_INDEX = {
    "last": lambda l: l - 1,
    "middle": lambda l: l // 2,
    "first": lambda l: 0,
}


@dataclass
class AdjacencyPair:
    """Exported edge weights for one sample; both matrices are [n, n]."""
    adj: np.ndarray
    adj_reversed: np.ndarray


def representative(f_c: T.Tensor, position: str) -> T.Tensor:
    """One time slice per node standing in for its temporal state."""
    l = f_c.shape[-1]
    return T.take_time(f_c, REP_INDEX[position](l))


def squeeze_adjacency(s: T.Tensor, f4: T.Tensor, op: str, affine_w: T.Tensor | None = None,
                      affine_b: T.Tensor | None = None) -> tuple[T.Tensor, T.Tensor]:
    """A and A_r [b, target, source]: the disjoint parts of tanh of R's channel squeeze."""
    if op not in ATTENTION_OPS:
        raise ValueError(f"unknown attention op {op!r}")
    if op == "avg":
        # mean_c R is R of the one-channel mean of f4: a 1x1 map through a row of 1/c
        c = f4.shape[1]
        f4 = T.channel_linear(f4, T.Tensor(np.full((1, c), 1.0 / c, dtype=f4.dtype)))
    pre = T.edge_max(s, f4)
    if op == "max_learned":
        pre = T.add(T.mul(pre, affine_w), affine_b)
    pre = T.tanh(pre)   # rebound: a no_grad pass frees the raw squeeze before A and A_r
    return T.relu(pre), T.relu(T.neg(pre))


def gcn(s: T.Tensor, f4: T.Tensor, adj: T.Tensor, weight: T.Tensor,
        bias: T.Tensor) -> T.Tensor:
    """Per target node: weight @ (R(:,:,k) @ A(k,:)) + bias."""
    return T.channel_linear(T.edge_mix(s, f4, adj), weight, bias)


@dataclass
class EdgeState:
    """Intermediates kept for losses, export and tests."""
    s: T.Tensor          # correlations [b, n, n, l]
    adj: T.Tensor        # [b, n_tgt, n_src]
    adj_reversed: T.Tensor
    f_g: T.Tensor        # [b, c, n]
    f_gr: T.Tensor | None  # None when the forward recorded no gradient


class EdgeGraph:
    """Parameters and forward pass of the adjacency-building graph block."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator,
                 store: dict[str, T.Tensor], dtype=np.float32):
        c4 = cfg.channels[3]
        self.cfg = cfg
        self.reduce_w = store["es.reduce.weight"] = P.linear_weight(rng, c4 // 4, c4, dtype)
        self.reduce_b = store["es.reduce.bias"] = P.zeros((c4 // 4,), dtype)
        if cfg.attention_op == "max_learned":
            # scalar affine on the squeezed edges, shared across all entries;
            # identity at init so the variant starts equal to plain max
            self.affine_w = store["es.attn.weight"] = P.ones((), dtype)
            self.affine_b = store["es.attn.bias"] = P.zeros((), dtype)
        else:
            self.affine_w = self.affine_b = None
        self.gcn_w = store["es.gcn.weight"] = P.linear_weight(rng, c4, c4, dtype)
        self.gcn_b = store["es.gcn.bias"] = P.zeros((c4,), dtype)

    def reduce_channels(self, f4: T.Tensor) -> T.Tensor:
        if f4.shape[1] % 4 != 0:
            raise T.ShapeError(f"channel count {f4.shape[1]} not divisible by 4")
        return T.channel_linear(f4, self.reduce_w, self.reduce_b)

    def forward(self, f4: T.Tensor) -> EdgeState:
        f_c = self.reduce_channels(f4)
        f_l = representative(f_c, self.cfg.representative)
        s = T.cosine_correlate(f_l, f_c, eps=self.cfg.cosine_eps)
        adj, adj_rev = squeeze_adjacency(s, f4, self.cfg.attention_op,
                                         self.affine_w, self.affine_b)
        f_g = gcn(s, f4, adj, self.gcn_w, self.gcn_b)
        # only the contrastive loss reads the reversed aggregation
        f_gr = gcn(s, f4, adj_rev, self.gcn_w, self.gcn_b) if adj_rev.requires_grad else None
        return EdgeState(s, adj, adj_rev, f_g, f_gr)
