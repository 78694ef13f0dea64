import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture()
def run_synthetic():
    spec = importlib.util.spec_from_file_location("run_synthetic", SCRIPTS / "run_synthetic.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def exit_code(script, argv, monkeypatch) -> int:
    monkeypatch.setattr(sys, "argv", ["run_synthetic.py", *argv])
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
