"""Flat key=value config documents and CSV output helpers.

Precedence for every setting: command-line flag > config file > default.
CSV files are UTF-8 with LF line endings, a mandatory header row, '.' decimal
separators and full float round-trip precision.
"""

import dataclasses
import os

from .dual import parse_schedule
from .errors import InvalidConfig, InvalidParameter, IoError, ParseError
from .experiments import TOY_CANDIDATES, ExperimentConfig

# config-document keys that differ from the dataclass field names
_ALIASES = {
    "d": "feature_dim",
    "k": "k_leads",
    "v": "vocab_size",
    "master": "seed",
    "repetitions": "reps",
}

# per-kind defaults layered under file/flag values
_KIND_DEFAULTS = {
    "fig7": {"d_i": 11, "d_o": 1, "n_t": 15, "k_leads": 2},
}

_FIELDS = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _coerce(name: str, raw: str):
    kind = _FIELDS[name]
    kind = getattr(kind, "__name__", kind)
    raw = raw.strip()
    if kind in ("int", "float"):
        try:
            return int(raw) if kind == "int" else float(raw)
        except ValueError:
            raise InvalidConfig(f"cannot read {raw!r} as {kind} for {name}") from None
    if kind == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise InvalidConfig(f"cannot read {raw!r} as a boolean for {name}")
    return raw


def parse_config_text(text: str) -> dict:
    """Parse a flat key=value document into field/value pairs."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key=value")
        key, raw = (part.strip() for part in line.split("=", 1))
        name = _ALIASES.get(key.lower(), key.lower())
        if name not in _FIELDS:
            raise InvalidConfig(f"line {lineno}: unknown setting {key!r}")
        values[name] = _coerce(name, raw)
    return values


def load_config(kind: str, path: str | None, overrides: dict) -> ExperimentConfig:
    """Assemble the effective config: defaults, then file, then flags."""
    values = dict(_KIND_DEFAULTS.get(kind, {}))
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise IoError(f"cannot read config {path}: {exc}") from exc
        values.update(parse_config_text(text))
    values.update({k: v for k, v in overrides.items() if v is not None})
    if "seed" not in values and "DUALGRAD_SEED" in os.environ:
        try:
            values["seed"] = int(os.environ["DUALGRAD_SEED"])
        except ValueError:
            raise InvalidConfig("DUALGRAD_SEED must be an integer") from None
    cfg = ExperimentConfig(**values)
    if cfg.feature_dim % 2 or cfg.feature_dim < 2:
        raise InvalidConfig("D (feature_dim) must be even and >= 2")
    if cfg.reps < 1:
        raise InvalidConfig("repetitions must be >= 1")
    if min(cfg.d_i, cfg.d_o, cfg.n_t, cfg.n_d, cfg.demo_len) < 1:
        raise InvalidConfig("dims and sizes must be positive")
    if min(cfg.k_leads, cfg.window) < 0:
        raise InvalidConfig("k_leads and window must be >= 0")
    if cfg.vocab_size < TOY_CANDIDATES:
        raise InvalidConfig(f"vocab_size must be >= {TOY_CANDIDATES}, the toy candidate count")
    if cfg.mode not in ("exact", "kernel"):
        raise InvalidConfig(f"mode must be exact|kernel, got {cfg.mode!r}")
    try:
        parse_schedule(cfg.schedule)
    except InvalidParameter as exc:
        raise InvalidConfig(str(exc)) from None
    return cfg


def format_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(header: list[str], rows: list[list]) -> str:
    """The header and rows as CSV lines, each ending in LF, floats at full precision."""
    return "".join(",".join(map(format_cell, row)) + "\n" for row in [header, *rows])


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Write ``csv_text``; deterministic bytes."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text(header, rows))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
