"""Flat key=value config documents, CSV written and read, and the package's text-file I/O.

Precedence for every setting: command-line flag > config file > default.
CSV files are UTF-8 with LF line endings, a mandatory header row, '.' decimal
separators and full float round-trip precision.
"""

import dataclasses
import os

from .errors import InvalidConfig, IoError, ParseError
from .experiments import ExperimentConfig

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
    if kind is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise InvalidConfig(f"cannot read {raw!r} as a boolean for {name}")
    try:
        return kind(raw)
    except ValueError:
        raise InvalidConfig(f"cannot read {raw!r} as {kind.__name__} for {name}") from None


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
        values.update(parse_config_text(read_text(path)))
    values.update({k: v for k, v in overrides.items() if v is not None})
    if "seed" not in values and "DUALGRAD_SEED" in os.environ:
        try:
            values["seed"] = int(os.environ["DUALGRAD_SEED"])
        except ValueError:
            raise InvalidConfig("DUALGRAD_SEED must be an integer") from None
    return ExperimentConfig(**values)


def read_text(path: str) -> str:
    """The file's UTF-8 text less a leading BOM; a file not read or decoded is an ``IoError``."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def write_text(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 with LF line endings; an unwritable path is an ``IoError``."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def format_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(header: list[str], rows: list[list]) -> str:
    """The header and rows as CSV lines, each ending in LF, floats at full precision."""
    return "".join(",".join(map(format_cell, row)) + "\n" for row in [header, *rows])


def read_csv(text: str, path: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of the CSV document ``text``; ``path`` names it in a ``ParseError``."""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: missing header row")
    header = lines[0].split(",")
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} cells")
        rows.append(cells)
    return header, rows
