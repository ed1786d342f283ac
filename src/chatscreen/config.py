"""Pipeline configuration: a line-oriented `key = value` file with
[section] headers, every key carrying a documented default, unknown keys
rejected. One seed drives all stages; each stage derives its own stream by
hashing its name into the seed.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

from .errors import UsageError


def _key(section: str, default, bound=None):
    """A field set in the file as `key = value` under `[section]`, where the
    key is the field name less any `<section>_` prefix; `bound` is the
    (test, wording) pair a value read from the file must pass."""
    return field(default=default, metadata={"section": section,
                                            "bound": bound})


_SIZE = (lambda v: v >= 1, ">= 1")
_EPOCHS = (lambda v: v >= 0, ">= 0")
_STEP = (lambda v: math.isfinite(v) and v > 0, "finite and > 0")
_RATIO = (lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")
_PROBABILITY = (lambda v: 0 <= v <= 1, "in [0, 1]")
_FRACTION = (lambda v: 0 <= v < 1, "in [0, 1)")
_SUCCESS_RATE = (lambda v: 0 < v <= 1, "in (0, 1]")
_OPTIMIZER = (lambda v: v in ("sgd", "adam"), "sgd or adam")


@dataclass
class PipelineConfig:
    corpus: str = _key("paths", "")
    ground_truth: str = _key("paths", "")
    out: str = _key("paths", "out")
    min_tf: int = _key("preprocessing", 10, _SIZE)
    abbreviations: str = _key("preprocessing", "")  # empty: packaged table
    emoticons: str = _key("preprocessing", "")  # empty: packaged patterns
    lm_embedding_dim: int = _key("lm", 200, _SIZE)
    lm_hidden_dim: int = _key("lm", 200, _SIZE)
    lm_window: int = _key("lm", 35, _SIZE)
    lm_epochs: int = _key("lm", 5, _EPOCHS)
    lm_lr: float = _key("lm", 0.5, _STEP)
    lm_optimizer: str = _key("lm", "sgd", _OPTIMIZER)
    lm_batch_size: int = _key("lm", 16, _SIZE)
    scd_hidden_dim: int = _key("scd", 200, _SIZE)
    scd_chunk_len: int = _key("scd", 100, _SIZE)
    scd_threshold: float = _key("scd", 0.5, _PROBABILITY)
    scd_neg_ratio: float = _key("scd", 5.0, _RATIO)
    scd_epochs: int = _key("scd", 10, _EPOCHS)
    scd_lr: float = _key("scd", 0.05, _STEP)
    scd_optimizer: str = _key("scd", "sgd", _OPTIMIZER)
    scd_batch_size: int = _key("scd", 32, _SIZE)
    scd_val_fraction: float = _key("scd", 0.2, _FRACTION)
    scd_masked: bool = _key("scd", True)
    author_k: int = _key("author", 16, _SIZE)
    author_min_feature_freq: int = _key("author", 5, _SIZE)
    author_epochs: int = _key("author", 8, _EPOCHS)
    author_lr: float = _key("author", 0.1, _STEP)
    author_optimizer: str = _key("author", "sgd", _OPTIMIZER)
    author_batch_size: int = _key("author", 32, _SIZE)
    seed: int = _key("run", 1)
    use_bias: bool = _key("run", True)
    synth_n_conversations: int = _key("synth", 500, _SIZE)
    synth_predator_fraction: float = _key("synth", 0.05, _FRACTION)
    synth_geometric_p: float = _key("synth", 0.08, _SUCCESS_RATE)
    synth_marker_density: float = _key("synth", 0.3, _PROBABILITY)


def load_config(path) -> PipelineConfig:
    """Parse and validate a configuration file against PipelineConfig's
    fields; a leading UTF-8 byte-order mark is dropped. This is the one
    place a setting's bound is checked: no stage checks it again."""
    # no header names the section "", so [DEFAULT] is an ordinary section,
    # refused below, rather than defaults copied into every other section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise UsageError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc})") from exc
    schema: dict[str, dict] = {}
    for f in fields(PipelineConfig):
        section = f.metadata["section"]
        schema.setdefault(section, {})[f.name.removeprefix(f"{section}_")] = f
    cfg = PipelineConfig()
    for section in parser.sections():
        if section not in schema:
            raise UsageError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in schema[section]:
                raise UsageError(f"{path}: unknown key {key!r} in "
                                 f"[{section}]")
            target = schema[section][key]
            try:
                if target.type == "int":
                    value = int(raw)
                elif target.type == "float":
                    value = float(raw)
                elif target.type == "bool":
                    value = parser.BOOLEAN_STATES.get(raw.strip().lower())
                    if value is None:
                        raise ValueError("not a boolean")
                else:
                    value = raw
            except ValueError as exc:
                raise UsageError(f"{path}: bad value for {section}.{key}: "
                                 f"{raw!r} ({exc})") from exc
            bound = target.metadata["bound"]
            if bound is not None and not bound[0](value):
                raise UsageError(f"{path}: [{section}] {key} = {raw} must "
                                 f"be {bound[1]}")
            setattr(cfg, target.name, value)
    return cfg
