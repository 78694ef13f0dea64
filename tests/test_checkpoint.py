import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcast import checkpoint as ckpt
from flowcast import data as D
from malformed import framed, json_values, payload_of


def sample_params():
    rng = np.random.default_rng(0)
    return {
        "stage1.block1.embed.weight": rng.normal(size=(8, 1, 1, 3)).astype(np.float32),
        "es.attn.weight": np.asarray(1.0, dtype=np.float32),   # 0-d scalar parameter
        "head.out.bias": rng.normal(size=12).astype(np.float32),
    }


def test_round_trip(tmp_path):
    params = sample_params()
    path = str(tmp_path / "model.ckpt")
    ckpt.save(path, params, {"run": {"train": {"seed": 3}}}, epoch=7, val_mae=1.25)
    loaded, header = ckpt.load(path)
    assert set(loaded) == set(params)
    for name in params:
        assert loaded[name].shape == params[name].shape
        assert np.array_equal(loaded[name], params[name])
    assert header["epoch"] == 7
    assert header["val_mae"] == 1.25
    assert header["config"]["run"]["train"]["seed"] == 3


def test_framed_files_keep_their_bytes(tmp_path):
    """Both writers share one frame; these digests pin its bytes and each payload."""
    ds = D.SeriesDataset(np.array([[1.5, 0.0], [2.25, -3.0], [0.0, 1e6]], dtype=np.float32),
                         np.array([[False, True], [False, False], [True, False]]),
                         interval_minutes=10)
    D.save_bin(ds, str(tmp_path / "series.bin"))
    params = {"b.bias": np.array([0.5, -1.0, 2.0], dtype=np.float32),
              "a.weight": np.arange(6, dtype=np.float32).reshape(2, 1, 3) / 4,
              "attn": np.asarray(1.0, dtype=np.float32)}
    ckpt.save(str(tmp_path / "model.ckpt"), params,
              {"run": {"train": {"seed": 3}}, "num_nodes": 2}, epoch=4, val_mae=1.25)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("series.bin", "model.ckpt")}
    assert digests == {
        "series.bin": "39c595323869329593751854096db4dff8ecf1280c403cb448ebf30f457b9f42",
        "model.ckpt": "665dc58ec84abd30025a15954119edbd1d725850ec05e0d632b487046163527a"}


def test_header_is_strict_json(tmp_path):
    path = tmp_path / "model.ckpt"
    ckpt.save(str(path), sample_params(), {}, epoch=-1, val_mae=None)
    assert ckpt.load(str(path))[1]["val_mae"] is None
    # Infinity and NaN are not JSON: refused before anything is written
    with pytest.raises(ValueError):
        ckpt.save(str(tmp_path / "inf.ckpt"), sample_params(), {}, epoch=0, val_mae=np.inf)
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_corrupt_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 64)
    with pytest.raises(ckpt.CheckpointError, match="magic"):
        ckpt.load(str(path))


def test_truncated_blob_rejected(tmp_path):
    path = str(tmp_path / "model.ckpt")
    ckpt.save(path, sample_params(), {}, epoch=0, val_mae=0.0)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-5])
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load(path)


def test_missing_file_rejected():
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load("/nonexistent/model.ckpt")


def test_failed_save_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "best.ckpt"
    ckpt.save(str(path), sample_params(), {}, epoch=0, val_mae=0.0)
    before = path.read_bytes()
    # the second blob cannot be encoded as float32, so the write stops midway
    bad = {"a": np.ones(4, dtype=np.float32), "b": np.array(["not a number"])}
    with pytest.raises(ValueError):
        ckpt.save(str(path), bad, {}, epoch=1, val_mae=0.0)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]


_headers = json_values | st.fixed_dictionaries({
    "config": json_values, "epoch": json_values, "val_mae": json_values,
    "param_shapes": st.dictionaries(st.sampled_from(sorted(sample_params())), json_values)
    | json_values})


@settings(max_examples=60, deadline=None)
@given(_headers)
@example([])
@example({"config": {}, "epoch": 0, "val_mae": 0.0, "param_shapes": []})
def test_any_header_loads_or_raises_checkpoint_error(tmp_path_factory, header):
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    ckpt.save(str(path), sample_params(), {}, epoch=0, val_mae=0.0)
    path.write_bytes(framed(ckpt.MAGIC, header, payload_of(path.read_bytes())))
    try:
        params, _ = ckpt.load(str(path))
    except ckpt.CheckpointError:
        return
    assert set(params) == set(header["param_shapes"])
