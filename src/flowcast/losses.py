"""Training objective: Huber forecast loss plus a node contrastive term.

The contrastive term is the per-node dot product between graph features
aggregated through the adjacency matrix and through its reversed
counterpart, averaged over nodes and batch. Driving it down separates the
two feature sets, which empirically prunes weak edges out of the learned
adjacency. It is unbounded below, so the training log surfaces it
separately from the Huber term.
"""

from __future__ import annotations

from . import tensor as T


def node_contrastive_loss(f_g: T.Tensor, f_gr: T.Tensor) -> T.Tensor:
    """(1/n) tr(F_g^T F_gr) per sample, averaged over the batch axis."""
    if f_g.shape != f_gr.shape:
        raise T.ShapeError(f"contrastive: shapes {f_g.shape} and {f_gr.shape} differ")
    b, _, n = f_g.shape
    total = T.sum_over_axis(T.mul(f_g, f_gr))
    return T.mul(total, T.Tensor(1.0 / (n * b), dtype=f_g.dtype))


def total_loss(pred: T.Tensor, target: T.Tensor, f_g: T.Tensor | None,
               f_gr: T.Tensor | None, delta: float = 1.0,
               contrast_weight: float = 0.1) -> tuple[T.Tensor, float, float]:
    """Combined objective; returns (loss, huber value, contrastive value).

    The contrastive value is reported whenever both aggregations exist, but
    joins the loss only with a positive weight, so at zero weight backward
    never reaches it.
    """
    l_h = T.huber(pred, target, delta)
    loss, l_n_value = l_h, 0.0
    if f_g is not None and f_gr is not None:
        l_n = node_contrastive_loss(f_g, f_gr)
        l_n_value = float(l_n.data)
        if contrast_weight > 0:
            loss = T.add(l_h, T.mul(l_n, T.Tensor(contrast_weight, dtype=l_n.dtype)))
    return loss, float(l_h.data), l_n_value
