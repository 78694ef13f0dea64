"""Command-line interface.

Subcommands: train, eval, predict, gradcheck, export-aam, ablate, config.
Exit codes: 0 ok, 2 input or file error, 3 corrupt artifact, 4 numerical failure.

eval / predict / export-aam rebuild the model from the config echoed inside
the checkpoint, so a checkpoint plus a data file is all they need; --data
overrides the data path recorded at training time. Window indices count
over the full chronological window list of the given series.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import logging
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import config as C
from . import gradcheck
from . import tensor as T
from .data import DataError, PreparedData, load_dataset, make_batch, prepare
from .model import Forecaster
from .optim import NumericalError
from .training import EpochLog, evaluate, persistence_metrics, train

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CORRUPT = 3
EXIT_NUMERICAL = 4


def _prepare_from_config(cfg: C.RunConfig) -> PreparedData:
    ds = load_dataset(cfg.data.path, cfg.data.format, cfg.data.zeros_as_missing)
    return prepare(ds, t_in=cfg.model.t_in, t_out=cfg.model.horizon)


def _write_json(path: str, doc: dict) -> None:
    """Write doc atomically. A NaN or an infinity in it is a NumericalError,
    raised before anything is created: any earlier file at path stays as it
    was, and no missing directory is made."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path} not written: {exc}") from None
    with ckpt.write_atomic(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_train_log(path: str, result) -> None:
    columns = [f.name for f in dataclasses.fields(EpochLog)]
    with ckpt.write_atomic(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([repr(getattr(e, name)) for name in columns] for e in result.epochs)


def _write_csv(out_dir: str, name: str, matrix: np.ndarray, fmt: str) -> str:
    """Write matrix atomically; a NaN or an infinity in it is a NumericalError."""
    path = os.path.join(out_dir, name)
    if not np.isfinite(matrix).all():
        raise NumericalError(f"{path} not written: the matrix is not finite")
    with ckpt.write_atomic(path) as fh:
        np.savetxt(fh, matrix, delimiter=",", fmt=fmt)
    return path


def _load_run_config(args) -> C.RunConfig:
    """The --config file with the --seed and --out overrides applied."""
    cfg = C.load(args.config)
    if args.seed is not None:
        cfg.train.seed = args.seed
    if args.out is not None:
        cfg.output.dir = args.out
    return cfg


def _run_one_training(cfg: C.RunConfig, prep: PreparedData):
    model = Forecaster(cfg.model, seed=cfg.train.seed)
    result = train(model, prep, cfg.train)
    model.load_state_arrays(result.best_state)
    return result, evaluate(model, prep, "test", cfg.train.batch_size)


def cmd_train(args) -> int:
    if args.repeat < 1:
        raise C.ConfigError(f"--repeat must be >= 1, got {args.repeat}")
    cfg = _load_run_config(args)
    out_dir = cfg.output.dir
    prep = _prepare_from_config(cfg)

    runs = []
    for seed in range(cfg.train.seed, cfg.train.seed + args.repeat):
        seed_cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, seed=seed))
        result, test = _run_one_training(seed_cfg, prep)
        suffix = "" if args.repeat == 1 else f"_seed{seed}"
        ckpt.save(os.path.join(out_dir, f"best{suffix}.ckpt"), result.best_state,
                  {"run": C.to_dict(seed_cfg), "num_nodes": prep.num_nodes,
                   "parameter_count": result.parameter_count},
                  result.best_epoch, result.best_val_mae)
        _write_train_log(os.path.join(out_dir, f"train_log{suffix}.csv"), result)
        runs.append({"seed": seed, "best_epoch": result.best_epoch,
                     "best_val_mae": result.best_val_mae, "test": test.as_dict(),
                     "diverged": result.diverged})
        logger.info("seed %d: test rmse %.4f mae %.4f mape %.4f",
                    seed, test.rmse, test.mae, test.mape)

    doc = {
        "runs": runs,
        "parameter_count": result.parameter_count,   # the same for every seed
        "persistence": {"val": persistence_metrics(prep, "val").as_dict(),
                        "test": persistence_metrics(prep, "test").as_dict()},
        "timestamp": datetime.datetime.now().isoformat(),
    }
    if args.repeat == 1:
        doc["test"] = runs[0]["test"]
    else:
        for metric in ("rmse", "mae", "mape"):
            vals = [r["test"][metric] for r in runs]
            doc[f"test_{metric}_mean"] = float(np.mean(vals))
            doc[f"test_{metric}_std"] = float(np.std(vals))
    _write_json(os.path.join(out_dir, "metrics.json"), doc)
    print(json.dumps(doc["runs"][-1]["test"] if args.repeat == 1 else
                     {k: v for k, v in doc.items() if k.startswith("test_")}, indent=2))
    if any(r["diverged"] for r in runs):
        print("training diverged; last good checkpoint retained", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _load_model_for(args) -> tuple[Forecaster, C.RunConfig, PreparedData, dict]:
    params, header = ckpt.load(args.checkpoint)
    try:
        cfg = C.from_dict(header["config"]["run"])
        trained_nodes = header["config"]["num_nodes"]
        if not (C._is_int(trained_nodes) and trained_nodes >= 1):
            raise ValueError(f"num_nodes must be an int >= 1, got {trained_nodes!r}")
        model = Forecaster(cfg.model, seed=cfg.train.seed)
        model.load_state_arrays(params)
    except (KeyError, TypeError, ValueError) as exc:   # ValueError covers ConfigError
        raise ckpt.CheckpointError(f"corrupt checkpoint {args.checkpoint}: "
                                   f"bad config echo ({exc})") from None
    if args.data is not None:
        cfg.data.path = args.data
    if args.format:
        cfg.data.format = args.format
    prep = _prepare_from_config(cfg)
    if prep.num_nodes != trained_nodes:
        raise DataError(f"checkpoint was trained on {trained_nodes} nodes, "
                        f"data has {prep.num_nodes}")
    return model, cfg, prep, header


def cmd_eval(args) -> int:
    model, cfg, prep, header = _load_model_for(args)
    test = evaluate(model, prep, "test", cfg.train.batch_size)
    doc = {"test": test.as_dict(),
           "checkpoint": {"epoch": header["epoch"], "val_mae": header["val_mae"]},
           "persistence": {"val": persistence_metrics(prep, "val").as_dict(),
                           "test": persistence_metrics(prep, "test").as_dict()},
           "timestamp": datetime.datetime.now().isoformat()}
    out_dir = args.out or cfg.output.dir
    _write_json(os.path.join(out_dir, "metrics.json"), doc)
    print(json.dumps(doc["test"], indent=2))
    return EXIT_OK


def _forward_window(model: Forecaster, prep: PreparedData, index: int):
    total = sum(len(s) for s in prep.splits.values())
    if not 0 <= index < total:
        raise DataError(f"window index {index} out of range [0, {total})")
    with T.no_grad():
        return model.forward(T.Tensor(make_batch(prep, np.array([index])).inputs))


def cmd_predict(args) -> int:
    model, cfg, prep, _ = _load_model_for(args)
    yhat, _ = _forward_window(model, prep, args.window_index)
    pred = prep.stats.invert(yhat.data[0])          # [h, n]
    print(_write_csv(args.out or cfg.output.dir, f"forecast_w{args.window_index}.csv",
                     pred, "%.6f"))
    return EXIT_OK


def cmd_export_aam(args) -> int:
    model, cfg, prep, _ = _load_model_for(args)
    if model.edge_graph is None:
        raise DataError("checkpoint was trained without the edge graph block; no matrix to export")
    _, state = _forward_window(model, prep, args.window_index)
    pair = state.adjacency(0)
    matrix = pair.adj_reversed if args.reversed else pair.adj
    name = f"aam{'_reversed' if args.reversed else ''}_w{args.window_index}.csv"
    print(_write_csv(args.out or cfg.output.dir, name, matrix, "%.8f"))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_all(seed=args.seed if args.seed is not None else 0)
    width = max(len(r.name) for r in results)
    all_pass = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_pass &= r.passed
        print(f"{r.name:<{width}s}  max_rel_err {r.max_rel_err:.3e}  {status}")
        if r.restepped:
            print(f"{'':<{width}s}  re-stepped across a kink: {', '.join(r.restepped)}")
    print(f"gradcheck: {'all ops pass' if all_pass else 'FAILURES present'} "
          f"(tolerance {gradcheck.TOLERANCE:g})")
    return EXIT_OK if all_pass else EXIT_NUMERICAL


ABLATION_PRESETS = {
    "table3": [
        ("1_backbone_only", {"use_es": False, "lambda": 0.0}),
        ("2_edges_no_contrast", {"lambda": 0.0}),
        ("3_default", {}),
        ("4_lambda_0.3", {"lambda": 0.3}),
        ("5_lambda_0.5", {"lambda": 0.5}),
        ("6_lambda_0.7", {"lambda": 0.7}),
        ("7_lambda_0.9", {"lambda": 0.9}),
        ("8_attention_avg", {"attention_op": "avg"}),
        ("9_attention_max_learned", {"attention_op": "max_learned"}),
        ("10_representative_middle", {"representative": "middle"}),
        ("11_representative_first", {"representative": "first"}),
    ],
}


def cmd_ablate(args) -> int:
    if args.preset not in ABLATION_PRESETS:
        raise C.ConfigError(f"unknown ablation preset {args.preset!r}; "
                            f"available: {', '.join(ABLATION_PRESETS)}")
    cfg = _load_run_config(args)
    prep = _prepare_from_config(cfg)

    rows = []
    for name, overrides in ABLATION_PRESETS[args.preset]:
        doc = C.to_dict(cfg)
        doc["model"].update(overrides)
        case_cfg = C.from_dict(doc)
        result, test = _run_one_training(case_cfg, prep)
        rows.append({"case": name, **test.as_dict(),
                     "best_val_mae": result.best_val_mae, "diverged": result.diverged})
        logger.info("ablation %s: rmse %.4f mae %.4f mape %.4f",
                    name, test.rmse, test.mae, test.mape)

    out_dir = cfg.output.dir
    with ckpt.write_atomic(os.path.join(out_dir, "ablation.csv"), "w", newline="",
                           encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    _write_json(os.path.join(out_dir, "ablation.json"),
                {"preset": args.preset, "cases": rows,
                 "timestamp": datetime.datetime.now().isoformat()})
    width = max(len(r["case"]) for r in rows)
    for r in rows:
        print(f"{r['case']:<{width}s}  rmse {r['rmse']:8.4f}  mae {r['mae']:8.4f}  "
              f"mape {r['mape']:7.4f}")
    return EXIT_OK


def cmd_config(args) -> int:
    if args.dump_defaults:
        print(C.dump_defaults())
        return EXIT_OK
    if args.check:
        C.load(args.check)
        print(f"{args.check}: ok")
        return EXIT_OK
    raise C.ConfigError("config: nothing to do (use --dump-defaults or --check PATH)")


def _seed(text: str) -> int:
    """An int >= 0, as numpy's generators take; --seed applies after config validation."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowcast",
                                     description="Traffic-flow forecasting engine")
    parser.add_argument("--verbose", action="store_true", help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed, default=None)

    p = sub.add_parser("train", parents=[seeded], help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--repeat", type=int, default=1, help="train N seeds and aggregate")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_train)

    from_checkpoint = argparse.ArgumentParser(add_help=False)
    from_checkpoint.add_argument("checkpoint")
    from_checkpoint.add_argument("--data", default=None)
    from_checkpoint.add_argument("--format", default=None, choices=["csv", "bin"])
    from_checkpoint.add_argument("--out", default=None)

    p = sub.add_parser("eval", parents=[from_checkpoint],
                       help="evaluate a checkpoint on the test split")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", parents=[from_checkpoint],
                       help="write the forecast for one input window")
    p.add_argument("window_index", type=int)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("export-aam", parents=[from_checkpoint],
                       help="write the adjacency matrix for one window")
    p.add_argument("window_index", type=int)
    p.add_argument("--reversed", action="store_true")
    p.set_defaults(fn=cmd_export_aam)

    p = sub.add_parser("gradcheck", parents=[seeded], help="finite-difference check of every op")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ablate", parents=[seeded],
                       help="train and score a preset family of variants")
    p.add_argument("preset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("config", help="configuration utilities")
    p.add_argument("--dump-defaults", action="store_true")
    p.add_argument("--check", default=None)
    p.set_defaults(fn=cmd_config)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        return args.fn(args)
    except (C.ConfigError, DataError, T.ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ckpt.CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
