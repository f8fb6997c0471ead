"""``tools/same_outputs.py`` still covers the CLI and still refuses a call without a ref.

The tool runs only against another commit, so these tests load it as it is
and check what can go stale without a run: its command list against the
CLI's subcommands, and its usage exit.
"""

import argparse
import importlib.util
from pathlib import Path

from dualgrad.cli import _parser

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"


def _load():
    spec = importlib.util.spec_from_file_location("same_outputs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_commands_cover_every_subcommand_but_plot():
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {command[0] for command in _load().COMMANDS} == set(sub.choices) - {"plot"}


def test_a_call_without_a_ref_exits_2(capsys):
    assert _load().main([]) == 2
    assert "usage" in capsys.readouterr().err
