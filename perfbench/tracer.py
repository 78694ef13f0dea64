"""In-memory spans around calls into the program's public functions.

The tracer patches module functions and class methods for the duration of
an ``installed()`` block, so code outside the block runs the program
untouched. Each span records its name, start, end, parent and root; the
root identifies the request (one training step, one forecast, one
``evaluate`` call) that caused it. Spans stay in memory and are written out
once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from flowcast import checkpoint, data, graph, losses, metrics, optim, temporal
from flowcast import model as model_mod
from flowcast import tensor as T

# tensor-module functions that are not differentiable ops
NOT_OPS = {"no_grad", "set_debug", "debug_enabled", "conv_time_length"}


def tensor_ops() -> list[str]:
    return sorted(name for name, fn in vars(T).items()
                  if inspect.isfunction(fn) and fn.__module__ == T.__name__
                  and not name.startswith("_") and name not in NOT_OPS)


def targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) of every function the tracer wraps."""
    found = [
        (data, "load_dataset", "data.load"),
        (data, "prepare", "data.prepare"),
        (data, "make_batch", "data.batch"),
        (checkpoint, "load", "checkpoint.load"),
        (metrics.MetricAccumulator, "add", "metrics.add"),
        (temporal.TemporalEncoder, "forward", "temporal.forward"),
        (graph.EdgeGraph, "forward", "graph.forward"),
        (graph, "gcn", "graph.gcn"),
        (model_mod.Forecaster, "fuse", "model.fuse"),
        (model_mod.Forecaster, "predict", "model.predict"),
        (losses, "total_loss", "losses.total_loss"),
        (optim.Adam, "step", "optim.step"),
        (T.Tensor, "backward", "tensor.backward"),
    ]
    found += [(T, op, f"tensor.{op}") for op in tensor_ops()]
    return [(owner, attr, name) for owner, attr, name in found if hasattr(owner, attr)]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, root index]
        self._stack: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        root = self.spans[parent][4] if parent >= 0 else index
        self.spans.append([name, 0.0, 0.0, parent, root])
        self._stack.append(index)
        self.spans[index][1] = perf_counter()

    def end(self) -> None:
        now = perf_counter()
        self.spans[self._stack.pop()][2] = now

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def _wrap(self, fn, name: str):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()
        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in targets():
                fn = inspect.getattr_static(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(getattr(owner, attr), name))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- aggregation ----------------------------------------------------------

    def requests(self, root_name: str) -> list[dict]:
        """Per request of one kind: the durations of its spans by name, in call
        order; its own duration; and the summed duration of its direct children."""
        out: dict[int, dict] = {}
        for i, (name, start, end, parent, root) in enumerate(self.spans):
            if parent < 0:
                if name == root_name:
                    out[i] = {"spans": defaultdict(list), "total": end - start, "children": 0.0}
                continue
            req = out.get(root)
            if req is None:
                continue
            req["spans"][name].append(end - start)
            if parent == root:
                req["children"] += end - start
        return list(out.values())

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent", "root"],
                       "spans": self.spans}, fh, separators=(",", ":"))
