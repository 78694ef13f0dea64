#!/usr/bin/env python3
"""Train-and-forecast benchmark for flowcast, end to end and per module.

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \\
        python3 perfbench/run.py --workload train-acceptance --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``. The
series files (and checkpoint) are generated from ``--seed`` into
``perfbench/work/`` before anything is timed. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` runs the same workload with spans around
the program's public functions and prints the per-layer metrics. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# ops the default model calls; each gets a per-step time and call count
MODEL_OPS = ("add", "channel_linear", "conv_nodewise", "cosine_correlate", "huber",
             "layer_norm", "max_over_channel", "mul", "neg", "neighbor_mix",
             "relation_sum", "relu", "sigmoid", "sum_over_axis", "take_time", "tanh",
             "transpose_last2")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_threads() -> str:
    return ", ".join(f"{k}={os.environ.get(k, 'unset')}"
                     for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))


def end_to_end(w, m) -> tuple[dict, list[str]]:
    tail = stats.tail([t * 1e3 for t in m.forecast_s])
    metrics = {
        "setup_s": (stats.median(m.setup_s), "s"),
        "train_samples_per_s": (m.step_windows / sum(m.step_s), "1/s"),
        "step_ms_p50": (stats.median(m.step_s) * 1e3, "ms"),
        "eval_windows_per_s": (stats.median(m.eval_rates), "1/s"),
        "forecast_ms_p50": (stats.median(m.forecast_s) * 1e3, "ms"),
        "forecast_ms_tail": (tail[1], "ms"),
        "peak_rss_mib": (m.peak_rss_mib, "MiB"),
    }
    notes = [f"samples: setup {len(m.setup_s)}, steps {len(m.step_s)} of b={w.batch}, "
             f"evaluate {len(m.eval_rates)} x {w.eval_windows} windows at b={w.eval_batch}, "
             f"forecasts {len(m.forecast_s)}",
             f"forecast_ms_tail is p{tail[0]} of {len(m.forecast_s)} samples"]
    return metrics, notes


def per_layer(m, tracer) -> tuple[dict, list[str]]:
    reqs = {kind: tracer.requests(kind) for kind in
            ("setup", "checkpoint.reload", "train.step", "evaluate", "forecast")}

    def med(kind, *names, nth=None):
        """Median over requests of one kind of the summed seconds of names
        (or of the nth call of one name), in ms."""
        vals = []
        for req in reqs[kind]:
            if nth is None:
                vals.append(sum(sum(req["spans"][n]) for n in names))
            else:
                calls = req["spans"][names[0]]
                vals.append(calls[nth] if len(calls) > nth else 0.0)
        return stats.median(vals) * 1e3 if vals else 0.0

    steps = reqs["train.step"]
    ms, mib, count = "ms", "MiB", "count"
    load_kind = ("setup" if any(r["spans"]["checkpoint.load"] for r in reqs["setup"])
                 else "checkpoint.reload")
    out = {
        "data.load_ms": (med("setup", "data.load"), ms),
        "data.prepare_ms": (med("setup", "data.prepare"), ms),
        "checkpoint.load_ms": (med(load_kind, "checkpoint.load"), ms),
        "data.batch_ms": (med("train.step", "data.batch"), ms),
        "temporal.fwd_ms": (med("train.step", "temporal.forward"), ms),
        "temporal.bwd_ms": (med("train.step", "temporal.backward"), ms),
        "temporal.nograd_fwd_ms": (med("forecast", "temporal.forward"), ms),
        "graph.fwd_ms": (med("train.step", "graph.forward"), ms),
        "graph.bwd_ms": (med("train.step", "graph.backward"), ms),
        "graph.nograd_fwd_ms": (med("forecast", "graph.forward"), ms),
        "graph.gcn_reversed_nograd_ms": (med("forecast", "graph.gcn", nth=1), ms),
        "graph.rel_mib": (m.rel_mib, mib),
        "model.head_fwd_ms": (med("train.step", "model.fuse", "model.predict"), ms),
        "model.head_bwd_ms": (med("train.step", "model.head_backward"), ms),
        "losses.fwd_ms": (med("train.step", "losses.total_loss"), ms),
        "losses.bwd_ms": (med("train.step", "losses.backward"), ms),
        "optim.step_ms": (med("train.step", "optim.step"), ms),
        "tensor.backward_ms": (med("train.step", "tensor.backward"), ms),
        "tensor.op_calls": (stats.median([sum(len(d) for n, d in r["spans"].items()
                                              if n.startswith("tensor.") and n != "tensor.backward")
                                          for r in steps]), count),
    }
    for op in MODEL_OPS:
        out[f"tensor.{op}.fwd_ms"] = (med("train.step", f"tensor.{op}"), ms)
        out[f"tensor.{op}.calls"] = (stats.median([len(r["spans"][f"tensor.{op}"]) for r in steps]),
                                     count)
    # traced and untraced steps alternate, so pairing them cancels slow drift
    sums = [r["children"] for r in steps]
    out.update({
        "tensor.train_peak_mib": (m.train_peak_mib, mib),
        "tensor.forecast_peak_mib": (m.forecast_peak_mib, mib),
        "metrics.add_ms": (med("evaluate", "metrics.add"), ms),
        "trace.untraced_step_ms": (stats.median(m.untraced_step_s) * 1e3, ms),
        "trace.module_sum_ms": (stats.median(sums) * 1e3, ms),
        "trace.overhead_ms": (stats.median([t - u for t, u in zip(m.step_s, m.untraced_step_s)])
                              * 1e3, ms),
    })
    ratio = stats.median([s_ / u for s_, u in zip(sums, m.untraced_step_s)])
    notes = [f"traced steps {len(steps)}, untraced steps {len(m.untraced_step_s)}; module "
             f"times sum to {100 * ratio:.1f}% of the untraced step (median of paired ratios)"]
    return out, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flowcast", "__init__.py")):
        print(f"error: no flowcast package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import workloads as W
    from tracer import Tracer

    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = W.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    print(f"workload {w.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"BLAS threads {blas_threads()}; numpy {np.__version__}")
    m = W.measure(w, args.seed, args.seconds, tracer)

    if tracer is None:
        metrics, notes = end_to_end(w, m)
    else:
        metrics, notes = per_layer(m, tracer)
        path = os.path.join(W.WORK_DIR, f"{w.name}-s{args.seed}-trace.json")
        tracer.dump(path, {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                           "blas_threads": blas_threads()})
        notes.append(f"spans written to {os.path.relpath(path, ROOT)}")
    for check in m.checks:
        print(f"check {check.name}: {'ok' if check.ok else 'FAIL'} ({check.detail})")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": all(c.ok for c in m.checks),
        "attempted": m.counter.attempted,
        "failed": m.counter.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
