import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcast import checkpoint as ckpt
from flowcast import gradcheck
from flowcast.cli import _write_json, _write_train_log, main
from flowcast.data import BIN_MAGIC, save_bin
from flowcast.optim import NumericalError
from flowcast.synthetic import sinusoid_dataset
from malformed import BAD_TYPE_CONFIGS, framed, json_values, payload_of


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestTrain:
    def test_artifacts_written(self, cli_workspace):
        out = cli_workspace / "out"
        assert (out / "best.ckpt").exists()
        assert (out / "train_log.csv").exists()
        metrics = read_json(out / "metrics.json")
        assert metrics["parameter_count"] > 0
        assert set(metrics["test"]) == {"rmse", "mae", "mape"}
        assert "persistence" in metrics

    def test_train_log_has_expected_columns(self, cli_workspace):
        lines = (cli_workspace / "out" / "train_log.csv").read_text().splitlines()
        assert lines[0] == "epoch,lr,train_huber,train_contrast,val_rmse,val_mae,val_mape"
        assert len(lines) == 3  # header + 2 epochs

    def test_same_seed_reproduces_log_bytes(self, cli_workspace, tmp_path):
        rc1 = main(["train", "--config", str(cli_workspace / "cfg.json"),
                    "--out", str(tmp_path / "a"), "--seed", "7"])
        rc2 = main(["train", "--config", str(cli_workspace / "cfg.json"),
                    "--out", str(tmp_path / "b"), "--seed", "7"])
        assert rc1 == rc2 == 0
        log_a = (tmp_path / "a" / "train_log.csv").read_bytes()
        log_b = (tmp_path / "b" / "train_log.csv").read_bytes()
        assert log_a == log_b
        m_a = read_json(tmp_path / "a" / "metrics.json")
        m_b = read_json(tmp_path / "b" / "metrics.json")
        m_a.pop("timestamp"), m_b.pop("timestamp")
        assert m_a == m_b

    def test_repeat_zero_rejected(self, cli_workspace):
        rc = main(["train", "--config", str(cli_workspace / "cfg.json"), "--repeat", "0"])
        assert rc == 2

    def test_missing_data_file_exits_2_naming_path(self, tmp_path, capsys):
        cfg = {"data": {"path": str(tmp_path / "absent.csv"), "format": "csv"},
               "output": {"dir": str(tmp_path / "out")}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(path)])
        assert rc == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_bin_format_trains_end_to_end(self, tmp_path):
        from flowcast.data import SeriesDataset, save_bin
        ds = sinusoid_dataset(nodes=5, steps=120, seed=8)
        rng = np.random.default_rng(0)
        mask = rng.uniform(size=ds.values.shape) < 0.05
        mask[0] = False
        values = np.where(mask, 0, ds.values).astype(np.float32)
        save_bin(SeriesDataset(values, mask), str(tmp_path / "flows.bin"))
        cfg = {"data": {"path": str(tmp_path / "flows.bin"), "format": "bin"},
               "model": {"channels": [8, 8, 8, 8], "head_hidden": 8},
               "train": {"epochs": 1, "batch_size": 16, "seed": 0},
               "output": {"dir": str(tmp_path / "binout")}}
        (tmp_path / "bin.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / "bin.json")]) == 0
        assert main(["eval", str(tmp_path / "binout" / "best.ckpt"),
                     "--out", str(tmp_path / "bineval")]) == 0

    @staticmethod
    def _train_with_cell(tmp_path, value, text):
        """Train 1 epoch on a 150-step, 4-node CSV whose cell [140, 1] is value;
        the test metrics of metrics.json, read with no NaN/Infinity allowed."""
        values = sinusoid_dataset(nodes=4, steps=150, seed=2).values.astype(np.float64)
        values[140, 1] = value
        np.savetxt(tmp_path / "cell.csv", values, delimiter=",", fmt="%.4f")
        cfg = {"data": {"path": str(tmp_path / "cell.csv"), "format": "csv"},
               "model": {"channels": [8, 8, 8, 8], "head_hidden": 8},
               "train": {"epochs": 1, "batch_size": 16, "seed": 0},
               "output": {"dir": str(tmp_path / "out")}}
        (tmp_path / "cell.json").write_text(json.dumps(cfg))
        assert text in (tmp_path / "cell.csv").read_text()
        assert main(["train", "--config", str(tmp_path / "cell.json")]) == 0

        def reject(name):
            raise ValueError(f"non-finite number {name} in metrics.json")

        text = (tmp_path / "out" / "metrics.json").read_text()
        return json.loads(text, parse_constant=reject)["test"]

    def test_inf_cell_is_missing_and_metrics_stay_finite(self, tmp_path):
        metrics = self._train_with_cell(tmp_path, np.inf, "inf")
        assert np.isfinite(metrics["rmse"])

    def test_cell_beyond_float32_is_missing_and_metrics_stay_finite(self, tmp_path):
        # 1e39 is finite in float64 and inf in float32
        metrics = self._train_with_cell(tmp_path, 1e39, f"{1e39:.4f}")
        assert all(np.isfinite(v) for v in metrics.values())

    def test_use_es_false_trains_and_has_no_adjacency(self, cli_workspace, tmp_path):
        doc = json.loads((cli_workspace / "cfg.json").read_text())
        doc["model"]["use_es"] = False
        doc["train"]["epochs"] = 1
        doc["output"]["dir"] = str(tmp_path / "noes")
        (tmp_path / "noes.json").write_text(json.dumps(doc))
        assert main(["train", "--config", str(tmp_path / "noes.json")]) == 0
        rc = main(["export-aam", str(tmp_path / "noes" / "best.ckpt"), "0",
                   "--out", str(tmp_path / "noes")])
        assert rc == 2  # no edge graph block, nothing to export

    def test_repeat_aggregates_seeds(self, cli_workspace, tmp_path):
        rc = main(["train", "--config", str(cli_workspace / "cfg.json"),
                   "--out", str(tmp_path / "rep"), "--repeat", "2", "--seed", "11"])
        assert rc == 0
        metrics = read_json(tmp_path / "rep" / "metrics.json")
        assert [r["seed"] for r in metrics["runs"]] == [11, 12]
        assert "test_mae_mean" in metrics and "test_mae_std" in metrics
        assert (tmp_path / "rep" / "best_seed11.ckpt").exists()
        assert (tmp_path / "rep" / "best_seed12.ckpt").exists()


def test_failed_json_write_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "metrics.json"
    _write_json(str(path), {"rmse": 1.0})
    before = path.read_bytes()
    # json.dump streams "rmse" before it reaches the value it cannot encode
    with pytest.raises(TypeError):
        _write_json(str(path), {"rmse": 2.0, "bad": object()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]


def test_non_finite_json_value_is_a_numerical_error_and_no_file(tmp_path):
    path = tmp_path / "metrics.json"
    _write_json(str(path), {"rmse": 1.0})
    before = path.read_bytes()
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(NumericalError, match="metrics.json"):
            _write_json(str(path), {"test": {"rmse": 2.0, "mae": bad}})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]


def test_eval_of_a_model_emitting_inf_exits_4_and_writes_no_metrics(
        cli_workspace, tmp_path, monkeypatch, capsys):
    from flowcast.model import Forecaster

    forward = Forecaster.forward

    def emit_inf(self, x):
        yhat, state = forward(self, x)
        yhat.data[0, 0, 0] = np.inf
        return yhat, state

    monkeypatch.setattr(Forecaster, "forward", emit_inf)
    trained = str(cli_workspace / "out" / "best.ckpt")
    for argv, written in ((["eval", trained], "metrics.json"),
                          (["predict", trained, "0"], "forecast_w0.csv")):
        rc = main(argv + ["--out", str(tmp_path / "e")])
        assert rc == 4
        assert written in capsys.readouterr().err
        assert not (tmp_path / "e" / written).exists()


@pytest.mark.parametrize("argv,written", [
    (["eval"], "metrics.json"),
    (["predict", "0"], "forecast_w0.csv"),
    (["export-aam", "0"], "aam_w0.csv"),
])
def test_nan_encoder_parameter_exits_4_and_writes_nothing(cli_workspace, tmp_path, capsys,
                                                         argv, written):
    # a NaN reaches the forecast and A through every relu, not as a constant 0
    params, header = ckpt.load(str(cli_workspace / "out" / "best.ckpt"))
    params["stage1.block1.norm.gamma"][:] = np.nan
    nan_ckpt = str(tmp_path / "nan.ckpt")
    ckpt.save(nan_ckpt, params, header["config"], header["epoch"], header["val_mae"])
    rc = main([argv[0], nan_ckpt, *argv[1:], "--out", str(tmp_path / "o")])
    assert rc == 4
    assert written in capsys.readouterr().err
    assert list(tmp_path.glob("o/*")) == []
    assert not (tmp_path / "o").exists()


def test_train_on_a_missing_data_file_exits_2_and_makes_no_out_dir(tmp_path):
    cfg = {"data": {"path": str(tmp_path / "absent.csv")}, "output": {"dir": str(tmp_path / "o")}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 2
    assert not (tmp_path / "o").exists()


def test_run_that_never_validated_saves_null_val_mae_and_evals(cli_workspace, tmp_path,
                                                               monkeypatch):
    from flowcast.optim import Adam

    def diverge(self):
        raise NumericalError("non-finite gradient")

    monkeypatch.setattr(Adam, "step", diverge)   # the first epoch diverges at step 0
    out = tmp_path / "t"
    assert main(["train", "--config", str(cli_workspace / "cfg.json"), "--out", str(out)]) == 4
    _, header = ckpt.load(str(out / "best.ckpt"))
    assert (header["epoch"], header["val_mae"]) == (-1, None)
    assert read_json(out / "metrics.json")["runs"][0]["best_val_mae"] is None
    assert main(["eval", str(out / "best.ckpt"), "--out", str(tmp_path / "e")]) == 0
    assert read_json(tmp_path / "e" / "metrics.json")["checkpoint"] == {"epoch": -1,
                                                                        "val_mae": None}


def test_step_that_overflows_a_parameter_keeps_a_finite_checkpoint(cli_workspace, tmp_path,
                                                                   caplog):
    # lr0 1e39 passes validation; Adam's first step would make parameters inf
    cfg = read_json(cli_workspace / "cfg.json")
    cfg["train"]["lr0"] = 1e39
    cfg["output"]["dir"] = str(tmp_path / "t")
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 4
    params, header = ckpt.load(str(tmp_path / "t" / "best.ckpt"))
    assert header["epoch"] == -1
    assert all(np.isfinite(p).all() for p in params.values())
    assert read_json(tmp_path / "t" / "metrics.json")["runs"][0]["diverged"] is True
    assert "diverged at epoch 0 step 0: forward finite; the step makes parameter" in caplog.text


def test_failed_csv_write_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "train_log.csv"
    row = dict(epoch=1, lr=1e-3, train_huber=0.5, train_contrast=0.1,
               val_rmse=1.0, val_mae=0.8, val_mape=0.2)
    _write_train_log(str(path), SimpleNamespace(epochs=[SimpleNamespace(**row)]))
    before = path.read_bytes()
    # the header and first row are written before the second epoch fails
    broken = SimpleNamespace(epochs=[SimpleNamespace(**row), SimpleNamespace(epoch=2)])
    with pytest.raises(AttributeError):
        _write_train_log(str(path), broken)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["train_log.csv"]


class TestEval:
    def test_reproduces_training_test_metrics_exactly(self, cli_workspace, tmp_path):
        rc = main(["eval", str(cli_workspace / "out" / "best.ckpt"),
                   "--out", str(tmp_path / "eval")])
        assert rc == 0
        trained = read_json(cli_workspace / "out" / "metrics.json")["test"]
        evaled = read_json(tmp_path / "eval" / "metrics.json")["test"]
        assert evaled == trained  # same code path, bit-identical floats

    def test_max_learned_checkpoint_round_trips(self, cli_workspace, tmp_path):
        doc = json.loads((cli_workspace / "cfg.json").read_text())
        doc["model"]["attention_op"] = "max_learned"
        doc["train"]["epochs"] = 1
        doc["output"]["dir"] = str(tmp_path / "ml")
        (tmp_path / "ml.json").write_text(json.dumps(doc))
        assert main(["train", "--config", str(tmp_path / "ml.json")]) == 0
        assert main(["eval", str(tmp_path / "ml" / "best.ckpt"),
                     "--out", str(tmp_path / "mleval")]) == 0
        trained = read_json(tmp_path / "ml" / "metrics.json")["test"]
        evaled = read_json(tmp_path / "mleval" / "metrics.json")["test"]
        assert evaled == trained

    def test_node_count_mismatch_exits_2(self, cli_workspace, tmp_path):
        other = sinusoid_dataset(nodes=4, steps=120, seed=9)
        np.savetxt(tmp_path / "other.csv", other.values, delimiter=",", fmt="%.4f")
        rc = main(["eval", str(cli_workspace / "out" / "best.ckpt"),
                   "--data", str(tmp_path / "other.csv"), "--out", str(tmp_path / "e")])
        assert rc == 2

    def test_corrupt_checkpoint_exits_3(self, cli_workspace, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"XXXXXXXX" + b"\x00" * 100)
        rc = main(["eval", str(bad), "--out", str(tmp_path / "e2")])
        assert rc == 3


def _with_header(src, dst, header) -> str:
    """A copy of checkpoint src with its JSON header replaced."""
    dst.write_bytes(framed(ckpt.MAGIC, header, payload_of(src.read_bytes())))
    return str(dst)


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("bad", BAD_TYPE_CONFIGS)
    def test_bad_config_echo_exits_3(self, cli_workspace, tmp_path, bad):
        trained = cli_workspace / "out" / "best.ckpt"
        _, header = ckpt.load(str(trained))
        run = header["config"]["run"]
        for section, values in bad.items():
            run[section].update(values)
        path = _with_header(trained, tmp_path / "bad.ckpt", header)
        assert main(["eval", path, "--out", str(tmp_path / "e")]) == 3

    @pytest.mark.parametrize("header", [[], {"config": {}, "epoch": 0, "val_mae": 0.0,
                                              "param_shapes": []}])
    def test_wrong_shape_header_exits_3(self, cli_workspace, tmp_path, header):
        path = _with_header(cli_workspace / "out" / "best.ckpt", tmp_path / "bad.ckpt", header)
        assert main(["eval", path, "--out", str(tmp_path / "e")]) == 3

    @pytest.mark.parametrize("entry, value", [
        ("param_shapes/stage2.block1.embed.weight", [3, 8, 1, 8]),   # the same 192 floats
        ("param_shapes/stage2.block1.embed.weight", [8, 8, 1, -1]),
        ("param_shapes/stage1.block1.embed.bias", 8),
        ("config/num_nodes", "6"),
        ("config/num_nodes", 0),
        ("epoch", True),
        ("epoch", -2),
        ("val_mae", "x"),
        ("val_mae", float("nan")),
    ])
    def test_header_that_does_not_match_the_model_exits_3(self, cli_workspace, tmp_path,
                                                          entry, value):
        trained = cli_workspace / "out" / "best.ckpt"
        _, header = ckpt.load(str(trained))
        *parents, key = entry.split("/")
        target = header
        for name in parents:
            target = target[name]
        target[key] = value
        path = _with_header(trained, tmp_path / "bad.ckpt", header)
        assert main(["eval", path, "--out", str(tmp_path / "e")]) == 3
        assert not (tmp_path / "e").exists()

    @settings(max_examples=40, deadline=None)
    @given(run=st.fixed_dictionaries({}, optional={
        name: st.dictionaries(st.sampled_from(["channels", "horizon", "seed", "use_es", "dir"]),
                              json_values, max_size=2) | json_values
        for name in ("data", "model", "train", "output")}) | json_values)
    def test_any_config_echo_exits_2_or_3(self, cli_workspace, tmp_path_factory, run):
        trained = cli_workspace / "out" / "best.ckpt"
        _, header = ckpt.load(str(trained))
        header["config"]["run"] = run
        root = tmp_path_factory.getbasetemp()
        path = _with_header(trained, root / "fuzz.ckpt", header)
        # a readable echo stops at the missing data file instead
        assert main(["eval", path, "--data", str(root / "absent.csv"),
                     "--out", str(root / "e")]) in (2, 3)


@pytest.mark.parametrize("header", [[], {"T": None, "N": 6, "has_mask": False}])
def test_wrong_shape_bin_header_exits_2(cli_workspace, tmp_path, header):
    (tmp_path / "bad.bin").write_bytes(framed(BIN_MAGIC, header))
    assert main(["eval", str(cli_workspace / "out" / "best.ckpt"),
                 "--data", str(tmp_path / "bad.bin"), "--format", "bin",
                 "--out", str(tmp_path / "e")]) == 2


def test_train_on_a_bin_header_of_the_wrong_type_exits_2(cli_workspace, tmp_path):
    good = tmp_path / "good.bin"
    save_bin(sinusoid_dataset(nodes=6, steps=120, seed=1), str(good))
    header = {"T": "120", "N": 6, "interval_minutes": 5, "has_mask": True}
    (tmp_path / "bad.bin").write_bytes(framed(BIN_MAGIC, header, payload_of(good.read_bytes())))
    doc = json.loads((cli_workspace / "cfg.json").read_text())
    doc["data"] = {"path": str(tmp_path / "bad.bin"), "format": "bin"}
    doc["train"]["epochs"] = 1
    doc["output"]["dir"] = str(tmp_path / "out")
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 2
    assert not (tmp_path / "out").exists()


class TestFileSystemErrors:
    def test_out_below_a_file_exits_2(self, cli_workspace, capsys):
        cfg = str(cli_workspace / "cfg.json")
        assert main(["train", "--config", cfg, "--out", cfg + "/sub"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_config_check_of_a_directory_exits_2(self, tmp_path, capsys):
        assert main(["config", "--check", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_eval_data_directory_exits_2(self, cli_workspace, tmp_path, capsys):
        assert main(["eval", str(cli_workspace / "out" / "best.ckpt"), "--data", str(tmp_path),
                     "--out", str(tmp_path / "e")]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestPredict:
    def test_forecast_shape(self, cli_workspace, tmp_path):
        rc = main(["predict", str(cli_workspace / "out" / "best.ckpt"), "0",
                   "--out", str(tmp_path / "p")])
        assert rc == 0
        forecast = np.loadtxt(tmp_path / "p" / "forecast_w0.csv", delimiter=",")
        assert forecast.shape == (12, 6)

    def test_window_index_out_of_range_exits_2(self, cli_workspace, tmp_path):
        rc = main(["predict", str(cli_workspace / "out" / "best.ckpt"), "100000",
                   "--out", str(tmp_path / "p2")])
        assert rc == 2


class TestExportAam:
    def test_matrices_satisfy_invariants(self, cli_workspace, tmp_path):
        ckpt = str(cli_workspace / "out" / "best.ckpt")
        assert main(["export-aam", ckpt, "3", "--out", str(tmp_path / "x")]) == 0
        assert main(["export-aam", ckpt, "3", "--reversed", "--out", str(tmp_path / "x")]) == 0
        a = np.loadtxt(tmp_path / "x" / "aam_w3.csv", delimiter=",")
        ar = np.loadtxt(tmp_path / "x" / "aam_reversed_w3.csv", delimiter=",")
        assert a.shape == (6, 6) and ar.shape == (6, 6)
        assert a.min() >= 0.0 and a.max() < 1.0
        assert ar.min() >= 0.0 and ar.max() < 1.0
        assert np.all(a * ar == 0.0)

    def test_45_block_extractable_on_wide_network(self, tmp_path):
        ds = sinusoid_dataset(nodes=50, steps=100, seed=2)
        np.savetxt(tmp_path / "wide.csv", ds.values, delimiter=",", fmt="%.4f")
        cfg = {"data": {"path": str(tmp_path / "wide.csv"), "format": "csv"},
               "model": {"channels": [8, 8, 8, 8], "head_hidden": 8},
               "train": {"epochs": 1, "batch_size": 16, "seed": 0},
               "output": {"dir": str(tmp_path / "wout")}}
        (tmp_path / "wide.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / "wide.json")]) == 0
        assert main(["export-aam", str(tmp_path / "wout" / "best.ckpt"), "0",
                     "--out", str(tmp_path / "wout")]) == 0
        a = np.loadtxt(tmp_path / "wout" / "aam_w0.csv", delimiter=",")
        block = a[:45, :45]
        assert block.shape == (45, 45)
        assert block.min() >= 0.0 and block.max() < 1.0


@pytest.mark.parametrize("argv", [["train", "--config", "cfg.json"],
                                  ["ablate", "table3", "--config", "cfg.json"],
                                  ["gradcheck"]])
def test_negative_seed_flag_exits_2_without_a_traceback(cli_workspace, capsys, argv):
    argv = [str(cli_workspace / a) if a == "cfg.json" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed: must be >= 0, got -1" in err and "Traceback" not in err


class TestGradcheckCommand:
    def test_fresh_build_passes_listing_each_op_once(self, capsys):
        assert main(["gradcheck", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if "max_rel_err" in l]
        names = [l.split()[0] for l in lines]
        assert len(names) == len(set(names))
        expected = {case.name for case in gradcheck.default_registry()} | \
            {"full_model" + suffix for suffix, _ in gradcheck.MODEL_VARIANTS}
        assert set(names) == expected

    def test_broken_op_exits_nonzero(self, monkeypatch, capsys):
        import flowcast.tensor as T

        def broken(x):
            def backward(g):
                T._accumulate(x, 5.0 * g)

            return T._make(x.data * 2.0, (x,), backward, "broken")

        def build(rng):
            x = T.Tensor(rng.normal(size=(3,)), requires_grad=True, dtype=np.float64)
            return {"x": x}, lambda: T.sum_over_axis(broken(x))

        monkeypatch.setattr(gradcheck, "default_registry",
                            lambda: [gradcheck.OpCase("broken", build)])
        rc = main(["gradcheck"])
        assert rc == 4
        assert "FAIL" in capsys.readouterr().out

    def test_restepped_coordinate_is_named(self, monkeypatch, capsys):
        import flowcast.tensor as T

        def build(rng):
            # x[0] is 3e-6 above the relu seam, inside the 1e-5 stencil
            x = T.Tensor(np.array([3e-6, 1.0]), requires_grad=True, dtype=np.float64)
            return {"x": x}, lambda: T.sum_over_axis(T.relu(x))

        monkeypatch.setattr(gradcheck, "default_registry",
                            lambda: [gradcheck.OpCase("near_kink", build)])
        monkeypatch.setattr(gradcheck, "MODEL_VARIANTS", ())
        assert main(["gradcheck"]) == 0
        assert "re-stepped across a kink: x[0] h=1e-06" in capsys.readouterr().out


class TestAblate:
    def test_table3_enumerates_11_cases(self, cli_workspace, tmp_path, capsys):
        rc = main(["ablate", "table3", "--config", str(cli_workspace / "cfg.json"),
                   "--out", str(tmp_path / "abl")])
        assert rc == 0
        doc = read_json(tmp_path / "abl" / "ablation.json")
        assert len(doc["cases"]) == 11
        names = [c["case"] for c in doc["cases"]]
        assert names[0] == "1_backbone_only"
        assert {"8_attention_avg", "9_attention_max_learned",
                "10_representative_middle", "11_representative_first"} <= set(names)
        lambdas = [n for n in names if "lambda" in n]
        assert lambdas == ["4_lambda_0.3", "5_lambda_0.5", "6_lambda_0.7", "7_lambda_0.9"]
        csv_lines = (tmp_path / "abl" / "ablation.csv").read_text().splitlines()
        assert len(csv_lines) == 12

    def test_backbone_only_case_disables_graph_block_and_contrast(self):
        from flowcast.cli import ABLATION_PRESETS
        name, overrides = ABLATION_PRESETS["table3"][0]
        assert name == "1_backbone_only"
        assert overrides == {"use_es": False, "lambda": 0.0}

    def test_unknown_preset_exits_2(self, cli_workspace):
        assert main(["ablate", "table9", "--config", str(cli_workspace / "cfg.json")]) == 2


class TestConfigCommand:
    def test_dump_defaults_parses_and_round_trips(self, capsys, tmp_path):
        assert main(["config", "--dump-defaults"]) == 0
        dumped = capsys.readouterr().out
        doc = json.loads(dumped)
        assert doc["train"]["epochs"] == 50
        assert doc["model"]["lambda"] == 0.1
        path = tmp_path / "defaults.json"
        path.write_text(dumped)
        assert main(["config", "--check", str(path)]) == 0

    def test_invalid_config_check_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"attention_op": "bogus"}}))
        assert main(["config", "--check", str(path)]) == 2

    @pytest.mark.parametrize("command", [["config", "--check"], ["train", "--config"]])
    @pytest.mark.parametrize("bad", BAD_TYPE_CONFIGS)
    def test_wrongly_typed_value_exits_2(self, tmp_path, capsys, command, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**bad, "output": {"dir": str(tmp_path / "out")}}))
        assert main([*command, str(path)]) == 2
        section, values = next(iter(bad.items()))
        assert f"{section}.{next(iter(values))}" in capsys.readouterr().err

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=40) | json_values.map(lambda v: json.dumps(v).encode("utf-8")))
    @example(b"\xff")
    def test_any_file_checks_ok_or_exits_2(self, tmp_path_factory, blob):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_bytes(blob)
        assert main(["config", "--check", str(path)]) in (0, 2)
