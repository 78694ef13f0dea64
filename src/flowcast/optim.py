"""Adam with bias correction, coupled L2 decay and a step-decay schedule."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # moment decay rates and denominator guard


class NumericalError(RuntimeError):
    """Non-finite values where finite ones are required."""


def lr_at_epoch(epoch: int, lr0: float, decay: float, every: int) -> float:
    """lr0 * decay^floor(epoch/every); epoch counts from 0."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return lr0 * decay ** (epoch // every)


class Adam:
    """Standard Adam. The L2 term (weight_decay * param) joins the raw
    gradient before the moment updates, i.e. classic coupled decay."""

    def __init__(self, params: dict[str, Tensor], lr: float = 0.0003,
                 weight_decay: float = 0.0, clip: float | None = None):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.clip = clip
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def _gradients(self) -> dict[str, np.ndarray]:
        grads = {}
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise NumericalError(f"non-finite gradient in parameter '{name}'")
            grads[name] = g
        if self.clip is not None:
            norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
            if norm > self.clip:
                scale = self.clip / (norm + 1e-12)
                grads = {k: g * scale for k, g in grads.items()}
        return grads

    def step(self) -> None:
        """One update. Every new value is formed before any is assigned, so a
        step that would leave a parameter non-finite raises NumericalError
        with all parameters as they were."""
        grads = self._gradients()
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        new = {}
        for name, p in self.params.items():
            g = grads[name]
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            new[name] = p.data - np.asarray(self.lr * update, dtype=p.data.dtype)
            if not np.isfinite(new[name]).all():
                raise NumericalError(f"the step makes parameter '{name}' non-finite")
        for name, value in new.items():
            self.params[name].data = value
