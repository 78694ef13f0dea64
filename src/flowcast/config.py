"""Run configuration: dataclasses plus a strict JSON schema.

The dataclass fields are the schema: four sections (data, model, train,
output), one key per field in field order, and ``"lambda"`` the only rename.
Unknown keys are rejected with their full key path so typos never silently
fall back to defaults, and each value must have its default's type.
``dump_defaults()`` emits every accepted key with its default value; feeding
that document back reproduces identical behavior.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


@dataclass
class DataConfig:
    path: str = ""
    format: str = "csv"              # csv | bin
    zeros_as_missing: bool = False


@dataclass
class ModelConfig:
    channels: tuple[int, int, int, int] = (64, 64, 64, 64)
    head_hidden: int = 64
    horizon: int = 12
    t_in: int = 12
    attention_op: str = "max"        # max | avg | max_learned
    representative: str = "last"     # last | middle | first
    contrast_weight: float = 0.1     # JSON key: "lambda"
    use_es: bool = True
    # fixed by the architecture: readable on an instance, never configured
    blocks_per_stage: ClassVar[tuple[int, int, int, int]] = (1, 2, 2, 2)
    strides: ClassVar[tuple[int, int, int, int]] = (1, 2, 2, 2)
    norm_eps: ClassVar[float] = 1e-5
    cosine_eps: ClassVar[float] = 1e-8


@dataclass
class TrainConfig:
    epochs: int = 50
    lr0: float = 0.0003
    lr_decay_every: int = 5
    lr_decay: float = 0.7
    weight_decay: float = 0.0001
    batch_size: int = 64
    seed: int = 0
    clip: float | None = None        # global gradient-norm clip; off by default


@dataclass
class OutputConfig:
    dir: str = "runs"


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


ATTENTION_OPS = ("max", "avg", "max_learned")
REPRESENTATIVES = ("last", "middle", "first")
DATA_FORMATS = ("csv", "bin")

_JSON_KEYS = {"contrast_weight": "lambda"}   # field name -> JSON key, where they differ


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    try:
        return (_is_int(v) or isinstance(v, float)) and math.isfinite(v)
    except OverflowError:   # a JSON integer too large for a float
        return False


# (type of a field's default, test of a value, what the test wants); first
# match wins, so bool precedes int, and a None default is an optional number
_KINDS = (
    (tuple, lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)), "a list of ints"),
    (bool, lambda v: isinstance(v, bool), "true or false"),
    (int, _is_int, "an int"),
    (str, lambda v: isinstance(v, str), "a string"),
    (float, _is_number, "a finite number"),
    (type(None), lambda v: v is None or _is_number(v), "a finite number or null"),
)


def _typed(path: str, value, default):
    """``value`` if it has the kind of ``default``, else a ConfigError naming ``path``."""
    test, kind = next((test, kind) for t, test, kind in _KINDS if isinstance(default, t))
    if not test(value):
        raise ConfigError(f"{path} must be {kind}, got {reprlib.repr(value)}")
    return tuple(value) if isinstance(default, tuple) else value


def from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    sections = {f.name: f.default_factory() for f in fields(RunConfig)}
    unknown = set(doc) - set(sections)
    if unknown:
        raise ConfigError(f"unknown config sections: {', '.join(sorted(unknown))}")

    for name, defaults in sections.items():
        section = doc.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section '{name}' must be an object")
        by_key = {_JSON_KEYS.get(f.name, f.name): f.name for f in fields(defaults)}
        unknown = set(section) - set(by_key)
        if unknown:
            paths = ", ".join(f"{name}.{k}" for k in sorted(unknown))
            raise ConfigError(f"unknown config keys: {paths}")
        sections[name] = replace(defaults, **{
            by_key[k]: _typed(f"{name}.{k}", v, getattr(defaults, by_key[k]))
            for k, v in section.items()})
    cfg = RunConfig(**sections)
    validate(cfg)
    return cfg


def to_dict(cfg: RunConfig) -> dict:
    doc = {}
    for s in fields(cfg):
        section = getattr(cfg, s.name)
        values = {_JSON_KEYS.get(f.name, f.name): getattr(section, f.name) for f in fields(section)}
        doc[s.name] = {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}
    return doc


def load(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:   # JSON syntax or UTF-8 decoding
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return from_dict(doc)


def dump_defaults() -> str:
    return json.dumps(to_dict(RunConfig()), indent=2)


def validate(cfg: RunConfig) -> None:
    m, t = cfg.model, cfg.train
    if cfg.data.format not in DATA_FORMATS:
        raise ConfigError(f"data.format must be one of {DATA_FORMATS}, got {cfg.data.format!r}")
    if len(m.channels) != 4 or any(c <= 0 for c in m.channels):
        raise ConfigError(f"model.channels must be 4 positive ints, got {m.channels}")
    if m.channels[3] % 4 != 0:
        raise ConfigError(f"model.channels[3] must be divisible by 4, got {m.channels[3]}")
    if m.attention_op not in ATTENTION_OPS:
        raise ConfigError(f"model.attention_op must be one of {ATTENTION_OPS}, got {m.attention_op!r}")
    if m.representative not in REPRESENTATIVES:
        raise ConfigError(f"model.representative must be one of {REPRESENTATIVES}, got {m.representative!r}")
    if m.horizon <= 0 or m.t_in <= 0 or m.head_hidden <= 0:
        raise ConfigError("model.horizon, model.t_in and model.head_hidden must be positive")
    if m.contrast_weight < 0:
        raise ConfigError(f"model.lambda must be >= 0, got {m.contrast_weight}")
    for v, name in ((t.epochs, "epochs"), (t.lr0, "lr0"), (t.lr_decay_every, "lr_decay_every"),
                    (t.lr_decay, "lr_decay"), (t.batch_size, "batch_size")):
        if v <= 0:
            raise ConfigError(f"train.{name} must be positive, got {v}")
    if t.weight_decay < 0:
        raise ConfigError(f"train.weight_decay must be >= 0, got {t.weight_decay}")
    if t.seed < 0:
        raise ConfigError(f"train.seed must be >= 0, got {t.seed}")
    if t.clip is not None and t.clip <= 0:
        raise ConfigError(f"train.clip must be positive when set, got {t.clip}")
