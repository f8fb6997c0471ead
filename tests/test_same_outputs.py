"""``tools/same_outputs.py`` still covers the CLI and still refuses a call without a ref.

The tool runs only against another commit, so these tests load it as it is
and check what can go stale without a run: its command list against the
CLI's subcommands, its usage exit, and its file report, run on this
checkout against itself and against a copy whose SVG writer differs.
"""

import argparse
import importlib.util
import shutil
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


def test_files_write_a_csv_with_out_and_plot_it():
    tool = _load()
    write, plot = tool.FILES
    csv, svg = tool.WRITTEN
    assert write[write.index("--out") + 1] == csv and plot == ["plot", csv]
    assert svg == csv + ".svg"  # where plot writes without out=


def test_file_report_sees_a_change_to_the_svg_bytes(tmp_path, capsys):
    tool = _load()
    (tmp_path / "a").mkdir()
    assert tool.same_files([tool.ROOT, tool.ROOT], tmp_path / "a", "itself") is True
    assert "2 of 2 files written with identical bytes" in capsys.readouterr().out
    other = tmp_path / "other"
    shutil.copytree(tool.ROOT / "src", other / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    svgplot = other / "src" / "dualgrad" / "svgplot.py"
    svgplot.write_text(svgplot.read_text().replace("<svg xmlns", "<svg  xmlns", 1))
    (tmp_path / "b").mkdir()
    assert tool.same_files([tool.ROOT, other], tmp_path / "b", "a copy") is False
    out = capsys.readouterr().out
    assert "1 of 2 files written with identical bytes" in out
    assert "DIFFERENT" in out and "equiv.csv.svg" in out
