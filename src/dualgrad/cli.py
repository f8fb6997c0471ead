"""Command-line harness.

    dualgrad <command> [<csv>] --config <path> --seed <int> --out <path>
        [--reps <int>] [--mode exact|kernel] [--schedule per-token|fractional:<S>]

The commands are the keys of ``_COMMANDS``; only ``plot`` takes ``<csv>``.
Exit codes: 0 success, 1 suite, library or memory failure, 2 config error, 3 I/O error.
``DUALGRAD_SEED`` overrides the default master seed when no flag is given.
"""

import argparse
import os
import sys

from . import props as props_mod
from .config import _FIELDS, csv_text, load_config, read_csv, read_text, write_text
from .errors import (
    DualgradError,
    EmptyData,
    InvalidConfig,
    InvalidParameter,
    IoError,
    ParseError,
)
from .experiments import (
    EQUIV_HEADER,
    FIG7_HEADER,
    GENERATE_HEADER,
    OPTIMIZE_HEADER,
    collapse_comparison,
    run_equiv,
    run_fig7,
    run_generate,
    run_optimize,
)
from .metrics import effect_d
from .svgplot import line_chart


def _emit(cfg, header, rows) -> None:
    if cfg.out:
        write_text(cfg.out, csv_text(header, rows))
    else:
        sys.stdout.write(csv_text(header, rows))


def cmd_equiv(cfg, args) -> int:
    rows = run_equiv(cfg)
    _emit(cfg, EQUIV_HEADER, rows)
    terminal = {}
    for seed, _, step, se, _, _ in rows:
        terminal[seed] = se  # rows are ordered by step within each seed
    worst = max(terminal.values())
    print(f"summary: seeds={cfg.reps} max_terminal_se={worst!r}")
    return 0


def cmd_fig7(cfg, args) -> int:
    report = run_fig7(cfg)
    if cfg.out:
        write_text(cfg.out, csv_text(FIG7_HEADER, report.rows))
    for kind in ("good", "bad"):
        print(
            f"{kind}: hit_position={report.hits[kind]} "
            f"effect_d={effect_d(report.hits[kind])!r} "
            f"terminal_se={report.terminal_se[kind]!r}"
        )
    return 0


def cmd_props(cfg, args) -> int:
    ok, lines = props_mod.run_all(cfg.inject_fault)
    for line in lines:
        print(line)
    return 0 if ok else 1


def cmd_optimize(cfg, args) -> int:
    rows = run_optimize(cfg)
    _emit(cfg, OPTIMIZE_HEADER, rows)
    if cfg.paired:
        summary = collapse_comparison(cfg, n_seeds=cfg.reps)
        print(
            f"paired: seeds={cfg.reps} "
            f"sim_with={summary.sim_with!r} sim_without={summary.sim_without!r} "
            f"best_with={summary.best_with!r} best_without={summary.best_without!r}"
        )
    return 0


def cmd_generate(cfg, args) -> int:
    _emit(cfg, GENERATE_HEADER, run_generate(cfg))
    return 0


def cmd_plot(cfg, args) -> int:
    csv_path = args.csv or cfg.out
    if not csv_path:
        raise InvalidConfig("plot needs a CSV path (positional or out=)")
    header, rows = read_csv(read_text(csv_path), csv_path)
    group = cfg.group if cfg.group in header else None
    svg = line_chart(header, rows, cfg.x, cfg.y, group)
    out = cfg.out if cfg.out and cfg.out != csv_path else csv_path + ".svg"
    write_text(out, svg)
    print(f"wrote {out}")
    return 0


# each command takes the effective config and the parsed command line
_COMMANDS = {
    "equiv": cmd_equiv,
    "fig7": cmd_fig7,
    "props": cmd_props,
    "optimize": cmd_optimize,
    "generate": cmd_generate,
    "plot": cmd_plot,
}


_FLAGS = ("seed", "out", "reps", "mode", "schedule")  # ``ExperimentConfig`` fields a flag sets


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a config error: exit 2, one stderr line."""

    def error(self, message):
        raise InvalidConfig(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dualgrad")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        for flag in _FLAGS:  # typed as the config reads them; the config checks the value
            p.add_argument(f"--{flag}", type=_FIELDS[flag], default=None)
        if command is cmd_plot:
            p.add_argument("csv", nargs="?", default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        flags = {k: getattr(args, k) for k in _FLAGS}
        code = _COMMANDS[args.command](load_config(args.command, args.config, flags), args)
        sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's exit flush
        return code
    except BrokenPipeError:
        # what is still buffered would fail again at exit: send it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("io error: stdout closed", file=sys.stderr)
        return 3
    except (InvalidConfig, InvalidParameter, ParseError, EmptyData) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IoError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except DualgradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an allocation too large for this process, e.g. a huge vocab_size
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
