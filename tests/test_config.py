import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcast import config as C
from malformed import BAD_TYPE_CONFIGS, json_values

# The exact text of `flowcast config --dump-defaults`. Key names and order
# are also the layout of the config echo in every checkpoint header.
DUMP_DEFAULTS = """{
  "data": {
    "path": "",
    "format": "csv",
    "zeros_as_missing": false
  },
  "model": {
    "channels": [
      64,
      64,
      64,
      64
    ],
    "head_hidden": 64,
    "horizon": 12,
    "t_in": 12,
    "attention_op": "max",
    "representative": "last",
    "lambda": 0.1,
    "use_es": true
  },
  "train": {
    "epochs": 50,
    "lr0": 0.0003,
    "lr_decay_every": 5,
    "lr_decay": 0.7,
    "weight_decay": 0.0001,
    "batch_size": 64,
    "seed": 0,
    "clip": null
  },
  "output": {
    "dir": "runs"
  }
}"""

# the config echo of a checkpoint header as checkpoint.save writes it
CHECKPOINT_ECHO = (
    '{"data": {"path": "flows.bin", "format": "bin", "zeros_as_missing": true}, '
    '"model": {"channels": [8, 8, 8, 16], "head_hidden": 8, "horizon": 6, "t_in": 12, '
    '"attention_op": "max_learned", "representative": "middle", "lambda": 0.3, '
    '"use_es": false}, '
    '"train": {"epochs": 2, "lr0": 0.001, "lr_decay_every": 5, "lr_decay": 0.7, '
    '"weight_decay": 0.0001, "batch_size": 16, "seed": 5, "clip": 5.0}, '
    '"output": {"dir": "out"}}')



def test_dump_defaults_round_trips():
    dumped = C.dump_defaults()
    cfg = C.from_dict(json.loads(dumped))
    assert C.to_dict(cfg) == json.loads(dumped)


def test_defaults_match_documented_values():
    cfg = C.RunConfig()
    assert cfg.train.epochs == 50
    assert cfg.train.lr0 == pytest.approx(0.0003)
    assert cfg.train.lr_decay == pytest.approx(0.7)
    assert cfg.train.lr_decay_every == 5
    assert cfg.train.weight_decay == pytest.approx(0.0001)
    assert cfg.train.batch_size == 64
    assert cfg.train.clip is None
    assert cfg.model.contrast_weight == pytest.approx(0.1)
    assert cfg.model.channels == (64, 64, 64, 64)
    assert cfg.model.horizon == 12 and cfg.model.t_in == 12


def test_lambda_key_maps_to_contrast_weight():
    cfg = C.from_dict({"model": {"lambda": 0.5}})
    assert cfg.model.contrast_weight == 0.5
    assert C.to_dict(cfg)["model"]["lambda"] == 0.5


def test_unknown_key_rejected_with_path():
    with pytest.raises(C.ConfigError, match=r"model\.chanels"):
        C.from_dict({"model": {"chanels": [1, 2, 3, 4]}})


def test_unknown_section_rejected():
    with pytest.raises(C.ConfigError, match="sections"):
        C.from_dict({"optimizer": {}})


@pytest.mark.parametrize("doc", [
    {"model": {"attention_op": "softmax"}},
    {"model": {"representative": "penultimate"}},
    {"model": {"channels": [64, 64, 64]}},
    {"model": {"channels": [64, 64, 64, 62]}},   # not divisible by 4
    {"model": {"lambda": -0.1}},
    {"train": {"epochs": 0}},
    {"train": {"clip": -1.0}},
    {"data": {"format": "parquet"}},
    *BAD_TYPE_CONFIGS,
    {"train": {"lr0": float("nan")}},
    {"train": {"clip": "1"}},
    {"train": {"seed": True}},
    {"train": {"seed": -1}},     # numpy's generators take no negative seed
])
def test_invalid_values_rejected(doc):
    with pytest.raises(C.ConfigError):
        C.from_dict(doc)


def test_type_error_names_the_key_path():
    with pytest.raises(C.ConfigError, match=r"model\.use_es must be true or false"):
        C.from_dict({"model": {"use_es": "no"}})
    with pytest.raises(C.ConfigError, match=r"model\.lambda must be a finite number"):
        C.from_dict({"model": {"lambda": "x"}})


def test_rejected_value_is_echoed_short():
    # the 401-digit integer is cut in the message; the key path stays
    with pytest.raises(C.ConfigError) as exc:
        C.from_dict({"train": {"lr0": 10**400}})
    message = str(exc.value)
    assert len(message) < 200
    assert message.startswith("train.lr0 must be a finite number, got 1000")


def test_float_fields_accept_ints_and_clip_accepts_null():
    cfg = C.from_dict({"model": {"lambda": 1}, "train": {"clip": None, "lr0": 1}})
    assert cfg.model.contrast_weight == 1 and cfg.train.clip is None


def test_dump_defaults_text_is_pinned():
    assert C.dump_defaults() == DUMP_DEFAULTS


def test_checkpoint_echo_parses_to_the_same_config():
    cfg = C.from_dict(json.loads(CHECKPOINT_ECHO))
    assert cfg == C.RunConfig(
        data=C.DataConfig(path="flows.bin", format="bin", zeros_as_missing=True),
        model=C.ModelConfig(channels=(8, 8, 8, 16), head_hidden=8, horizon=6,
                            attention_op="max_learned", representative="middle",
                            contrast_weight=0.3, use_es=False),
        train=C.TrainConfig(epochs=2, lr0=0.001, batch_size=16, seed=5, clip=5.0),
        output=C.OutputConfig(dir="out"))
    assert json.dumps(C.to_dict(cfg)) == CHECKPOINT_ECHO


def test_fixed_constants_are_readable_but_not_configurable():
    m = C.ModelConfig()
    assert m.cosine_eps == 1e-8 and m.norm_eps == 1e-5
    assert m.blocks_per_stage == (1, 2, 2, 2) and m.strides == (1, 2, 2, 2)
    with pytest.raises(TypeError):
        C.ModelConfig(norm_eps=1e-3)


_sections = {name: [*keys, "bogus"] for name, keys in json.loads(DUMP_DEFAULTS).items()}
_docs = st.fixed_dictionaries({}, optional={
    name: st.dictionaries(st.sampled_from(keys), json_values, max_size=3) | json_values
    for name, keys in _sections.items()}) | json_values


@settings(max_examples=60, deadline=None)
@given(_docs)
@example({"model": {"channels": 5}})
def test_any_document_is_accepted_or_rejected_with_config_error(doc):
    try:
        cfg = C.from_dict(doc)
    except C.ConfigError:
        return
    assert C.from_dict(C.to_dict(cfg)) == cfg


def test_load_missing_file():
    with pytest.raises(C.ConfigError, match="not found"):
        C.load("/nonexistent/cfg.json")


def test_load_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(C.ConfigError, match="JSON"):
        C.load(str(path))
