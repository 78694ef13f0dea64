import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from flowcast import data as D
from malformed import payload_of

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def run_synthetic():
    return load_script("run_synthetic")


@pytest.fixture()
def prepare_pems():
    return load_script("prepare_pems")


def exit_code(script, argv, monkeypatch) -> int:
    monkeypatch.setattr(sys, "argv", [script.__file__, *argv])
    try:
        script.main()
    except SystemExit as exc:
        return exc.code
    return 0


class TestRunSynthetic:
    def test_quickstart_writes_every_artifact(self, run_synthetic, tmp_path, monkeypatch, capsys):
        argv = ["--nodes", "4", "--steps", "200", "--epochs", "1", "--channels", "8",
                "--out", str(tmp_path)]
        assert exit_code(run_synthetic, argv, monkeypatch) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "aam_reversed_w0.csv", "aam_w0.csv", "best.ckpt", "config.json",
            "forecast_w0.csv", "metrics.json", "series.csv", "train_log.csv"]
        assert f"artifacts in {tmp_path}/" in capsys.readouterr().out

    @pytest.mark.parametrize("failing", [1, 2, 3])
    def test_a_failing_later_step_fails_the_script(self, run_synthetic, tmp_path, monkeypatch,
                                                   capsys, failing):
        calls = []

        def fake_cli(argv):
            calls.append(argv[0])
            return 2 if len(calls) == failing + 1 else 0

        monkeypatch.setattr(run_synthetic, "cli_main", fake_cli)
        argv = ["--nodes", "4", "--steps", "200", "--out", str(tmp_path)]
        assert exit_code(run_synthetic, argv, monkeypatch) == 2
        assert calls == ["train", "export-aam", "export-aam", "predict"][:failing + 1]
        assert "artifacts in" not in capsys.readouterr().out


# the flow feature of a [T, N, F] archive, with a NaN, an inf and zeros in it
FLOW = np.array([[1.0, np.nan, 3.5], [0.0, 5.25, np.inf], [7.0, 8.0, 9.5], [2.0, 0.0, 4.0]])


class TestPreparePems:
    @pytest.mark.parametrize("zeros_as_missing", [False, True])
    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_output_loads_as_the_flow_feature_does(self, prepare_pems, tmp_path, monkeypatch,
                                                   capsys, fmt, zeros_as_missing):
        # feature 1 differs from feature 0 in every observed cell and has no zeros
        np.savez(tmp_path / "pems.npz", data=np.stack([FLOW, FLOW + 100.0], axis=-1))
        out = tmp_path / f"series.{fmt}"
        argv = [str(tmp_path / "pems.npz"), str(out)]
        assert exit_code(prepare_pems, argv + ["--zeros-as-missing"] * zeros_as_missing,
                         monkeypatch) == 0
        np.savetxt(tmp_path / "flow.csv", FLOW, delimiter=",")
        want = D.load_csv(str(tmp_path / "flow.csv"), zeros_as_missing)
        got = D.load_dataset(str(out), fmt)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.missing_mask, want.missing_mask)
        assert f"missing {100.0 * want.missing_mask.mean():.3f}%" in capsys.readouterr().out
        if fmt == "bin":   # the file itself marks every missing cell
            stored = np.frombuffer(payload_of(out.read_bytes())[4 * FLOW.size:], np.uint8)
            assert np.array_equal(stored.reshape(FLOW.shape) != 0, want.missing_mask)

    @pytest.mark.parametrize("make,argv,out", [
        pytest.param(lambda p: None, [], "series.bin", id="missing-npz"),
        pytest.param(lambda p: p.write_text("1,2\n3,4\n"), [], "series.bin", id="not-an-npz"),
        pytest.param(lambda p: np.savez(p, data=FLOW), ["--key", "nope"], "series.bin",
                     id="unknown-key"),
        pytest.param(lambda p: np.savez(p, data=np.arange(5.0)), [], "series.bin", id="1-d"),
        pytest.param(lambda p: np.savez(p, data=np.zeros((4, 3, 0))), [], "series.bin",
                     id="no-features"),
        pytest.param(lambda p: np.savez(p, data=np.array([["a", "b"], ["c", "d"]])), [],
                     "series.bin", id="non-numeric"),
        pytest.param(lambda p: np.savez(p, data=np.zeros((50, 3, 2, 2))), [], "series.bin",
                     id="4-d"),
        pytest.param(lambda p: np.savez(p, data=FLOW), [], "pems.npz/series.bin",
                     id="out-under-a-file"),
    ])
    def test_bad_input_exits_2_with_one_error_line_and_writes_nothing(
            self, prepare_pems, tmp_path, monkeypatch, capsys, make, argv, out):
        make(tmp_path / "pems.npz")
        before = sorted(tmp_path.iterdir())
        argv = [str(tmp_path / "pems.npz"), str(tmp_path / out), *argv]
        assert exit_code(prepare_pems, argv, monkeypatch) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert sorted(tmp_path.iterdir()) == before
