"""Run configuration: three small dataclasses and a flat key/value file format.

A config file is one ``section.field = value`` per line, with ``#`` comments
and blank lines ignored. ``read_config`` drops one leading UTF-8 byte-order
mark and reads the rest as UTF-8 whatever the locale, since ``data.source`` is
a filesystem path; a byte that does not decode is a ``ConfigError`` naming its
line. Parsing starts from defaults, so a file only needs the fields it
overrides. ``parse_config(render_config(c))`` returns an equal config. The
``EVIT_SEED`` environment variable, when set, overrides ``train.seed`` after
the file is read. ``check_config`` rejects every field outside its valid range
and returns the model fields resolved to a spec and two enums; parsing runs
it, so a bad file fails before anything is built.
"""

from __future__ import annotations

import codecs
import dataclasses
import math
import os
from dataclasses import dataclass, field

from .attention import ConnectionPattern
from .backbone import VariantSpec, reduced_variant, validate_spec, variant
from .errors import ConfigError
from .feedforward import FfnKind


@dataclass
class ModelConfig:
    variant: str = "tiny"
    width_divisor: int = 4  # 1 keeps the published width
    blocks_per_stage: int = 1  # 0 keeps the variant's own depths
    pattern: str = "bifovea"
    ffn: str = "bffn"
    input_size: int = 32
    num_classes: int = 2
    zero_classifier: bool = True


@dataclass
class TrainConfig:
    seed: int = 0
    steps: int = 300
    batch_size: int = 16
    learning_rate: float = 1e-3
    weight_decay: float = 0.05
    cosine: bool = False


@dataclass
class DataConfig:
    source: str = "synthetic"  # "synthetic" or a directory of per-class images
    count: int = 256
    noise: float = 0.08


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)


_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "data": DataConfig}


def render_config(config: RunConfig) -> str:
    """Serialize to the flat key/value format, grouped by section."""
    lines = []
    for section in _SECTIONS:
        obj = getattr(config, section)
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{section}.{f.name} = {value}")
    return "\n".join(lines) + "\n"


def _convert(raw: str, target_type, key: str):
    raw = raw.strip()
    if target_type is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        return target_type(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {target_type.__name__}, got {raw!r}") from None


def parse_config(text: str) -> RunConfig:
    """Parse the flat format; unknown keys raise ConfigError."""
    config = RunConfig()
    types = {
        (section, f.name): f.type
        for section, cls in _SECTIONS.items()
        for f in dataclasses.fields(cls)
    }
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'section.field = value', got {line!r}")
        key = key.strip()
        section, dot, name = key.partition(".")
        if not dot or (section, name) not in types:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        target = {"int": int, "float": float, "bool": bool, "str": str}[types[(section, name)]]
        setattr(getattr(config, section), name, _convert(value, target, key))
    check_config(config)
    return config


# Smallest value of each train/data number; floats must also be finite. The
# model fields are checked by resolving them to a spec.
_MINIMUM = {
    "train.seed": 0,
    "train.steps": 0,
    "train.batch_size": 1,
    "train.learning_rate": 0.0,
    "train.weight_decay": 0.0,
    "data.count": 1,
    "data.noise": 0.0,
}


def check_config(config: RunConfig) -> tuple[VariantSpec, ConnectionPattern, FfnKind]:
    """Raise ConfigError for the first field outside its valid range.

    Returns the model fields resolved: ``(spec, pattern, ffn_kind)``.
    """
    for key, minimum in _MINIMUM.items():
        section, name = key.split(".")
        value = getattr(getattr(config, section), name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
        if value < minimum:
            raise ConfigError(f"{key} must be >= {minimum}, got {value!r}")
    spec = spec_from_model_config(config.model)
    validate_spec(spec, config.model.input_size)
    return (
        spec,
        _member(ConnectionPattern, config.model.pattern, "connection pattern"),
        _member(FfnKind, config.model.ffn, "feedforward kind"),
    )


def read_config(path: str | os.PathLike) -> RunConfig:
    with open(path, "rb") as fh:
        # a byte-order mark goes here, not via utf-8-sig, so error offsets index ``raw``
        raw = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        return parse_config(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:  # lines counted as parse_config counts them
        lineno = len((raw[: exc.start].decode("utf-8") + "?").splitlines())
        raise ConfigError(f"line {lineno}: not UTF-8 text ({exc.reason})") from None


def apply_env_overrides(config: RunConfig) -> RunConfig:
    """Apply environment overrides; EVIT_SEED takes precedence over the file."""
    raw = os.environ.get("EVIT_SEED")
    if raw is not None:
        try:
            config.train.seed = int(raw)
        except ValueError:
            raise ConfigError(f"EVIT_SEED must be an integer, got {raw!r}") from None
        check_config(config)
    return config


# ---------------------------------------------------------------------------
# translation to build arguments
# ---------------------------------------------------------------------------


def _member(enum_cls, text: str, what: str):
    try:
        return enum_cls(text)
    except ValueError:
        choices = sorted(m.value for m in enum_cls)
        raise ConfigError(f"unknown {what} {text!r}; choose from {choices}") from None


def spec_from_model_config(model: ModelConfig) -> VariantSpec:
    """Resolve a ModelConfig to a concrete stage table."""
    return reduced_variant(
        variant(model.variant),
        width_divisor=model.width_divisor,
        blocks_per_stage=model.blocks_per_stage or None,
        num_classes=model.num_classes,
    )
