import dataclasses
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualgrad
from dualgrad import cli
from dualgrad.cli import main
from dualgrad.config import (
    _ALIASES,
    csv_text,
    format_cell,
    load_config,
    parse_config_text,
    read_csv,
    read_text,
    write_text,
)
from dualgrad.errors import InvalidConfig, IoError, ParseError
from dualgrad.experiments import TOY_CANDIDATES, ExperimentConfig
from dualgrad.svgplot import line_chart


# ---------------------------------------------------------------------------
# config documents


def test_parse_key_value_document():
    values = parse_config_text("n_d = 8\nmode=exact\n# comment\n\nseed=3 # trailing\n")
    assert values == {"n_d": 8, "mode": "exact", "seed": 3}


def test_parse_aliases():
    values = parse_config_text("d=256\nk=3\nmaster=9\nrepetitions=4")
    assert values == {"feature_dim": 256, "k_leads": 3, "seed": 9, "reps": 4}


def test_parse_rejects_unknown_key():
    with pytest.raises(InvalidConfig):
        parse_config_text("learning_rate=0.1")


def test_parse_rejects_malformed_line():
    with pytest.raises(ParseError):
        parse_config_text("just a line without equals")


def test_parse_bool_coercion():
    assert parse_config_text("paired=true")["paired"] is True
    assert parse_config_text("paired=0")["paired"] is False
    with pytest.raises(InvalidConfig):
        parse_config_text("paired=maybe")


def test_precedence_flags_over_file_over_defaults(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed=5\nn_d=9\n")
    cfg = load_config("equiv", str(path), {"seed": 7})
    assert cfg.seed == 7  # flag wins
    assert cfg.n_d == 9  # file wins over default
    assert cfg.d_i == 8  # default survives


def test_kind_defaults_applied():
    cfg = load_config("fig7", None, {})
    assert (cfg.d_i, cfg.d_o, cfg.n_t, cfg.k_leads) == (11, 1, 15, 2)


def test_seed_env_fallback(monkeypatch):
    monkeypatch.setenv("DUALGRAD_SEED", "123")
    assert load_config("equiv", None, {}).seed == 123
    # explicit flag beats the environment
    assert load_config("equiv", None, {"seed": 4}).seed == 4


def test_load_config_validation(tmp_path):
    with pytest.raises(InvalidConfig):
        load_config("equiv", None, {"reps": 0})
    with pytest.raises(InvalidConfig):
        load_config("equiv", None, {"mode": "both"})
    with pytest.raises(InvalidConfig):
        load_config("equiv", None, {"schedule": "sgd"})
    with pytest.raises(InvalidConfig):
        load_config("equiv", None, {"schedule": "fractional:0"})
    with pytest.raises(IoError):
        load_config("equiv", str(tmp_path / "missing.cfg"), {})


def test_csv_format(tmp_path):
    path = tmp_path / "out.csv"
    write_text(str(path), csv_text(["a", "b"], [[1, 0.5], [2, True]]))
    raw = path.read_bytes()
    assert raw == b"a,b\n1,0.5\n2,1\n"
    assert format_cell(1 / 3) == repr(1 / 3)


# ---------------------------------------------------------------------------
# CLI subcommands (in-process)


def test_equiv_writes_csv_with_schema(tmp_path, capsys):
    out = tmp_path / "equiv.csv"
    assert main(["equiv", "--reps", "2", "--seed", "1", "--out", str(out)]) == 0
    header, rows = read_csv(read_text(str(out)), str(out))
    assert header == ["seed", "n_d", "step", "se", "schedule", "mode"]
    assert rows and all(len(r) == 6 for r in rows)


def test_cli_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for cmd in (
        ["equiv", "--reps", "2", "--seed", "3"],
        ["optimize", "--seed", "3"],
    ):
        assert main(cmd + ["--out", str(a)]) == 0
        assert main(cmd + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_fig7_summary(capsys):
    assert main(["fig7", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "good: hit_position=1" in out
    assert "bad: hit_position=3" in out


def test_props_pass_and_fault_injection(tmp_path, capsys):
    assert main(["props"]) == 0
    assert "PASS dual" in capsys.readouterr().out
    cfg = tmp_path / "fault.cfg"
    cfg.write_text("inject_fault=grad-sign\n")
    assert main(["props", "--config", str(cfg)]) == 1
    assert "FAIL dual" in capsys.readouterr().out


def test_optimize_csv_schema(tmp_path):
    out = tmp_path / "opt.csv"
    assert main(["optimize", "--seed", "2", "--out", str(out)]) == 0
    header, rows = read_csv(read_text(str(out)), str(out))
    assert header == [
        "iteration", "path", "effect_d", "similarity", "collapse", "perturbed", "demo_id",
    ]
    assert all(r[4] in ("0", "1") and r[5] in ("0", "1") for r in rows)


def test_generate_emits_rows(capsys):
    assert main(["generate", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "step,position,token_id"
    assert len(lines) == 6  # header + five steps


GOLDEN = Path(__file__).resolve().parent / "golden"


def _cells(text):
    return [c for c in re.split(r"[,\s=]+", text) if c]


def _same_cell(got, want) -> bool:
    """Integer, flag, id and name cells exactly; float cells to 1e-12 relative."""
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if re.fullmatch(r"-?\d+", want):
        return got == want
    return abs(g - w) <= 1e-12 * abs(w)


_GOLDEN_RUNS = [
    (["optimize"], "paired = 0\n", "optimize.txt", 0),
    (["optimize"], "paired = 1\n", "optimize_paired.txt", 0),
    (["generate", "--seed", "0"], "", "generate.txt", 0),
    (["equiv"], "", "equiv.txt", 0),
    (["fig7"], "", "fig7.txt", 0),
    (["props"], "", "props.txt", 0),
    # the injected fault fails every gradient check of the dual suite
    (["props"], "inject_fault = grad-sign\n", "props_grad_sign.txt", 1),
]


@pytest.mark.parametrize(
    "argv, config, golden, code",
    _GOLDEN_RUNS,
    # named by the first three columns alone, as pytest would name them
    ids=[f"argv{i}-{config}-{golden}" for i, (_, config, golden, _) in enumerate(_GOLDEN_RUNS)],
)
def test_cli_output_matches_golden(tmp_path, capsys, monkeypatch, argv, config, golden, code):
    # the outputs at default settings: optimize and generate recorded before
    # stage 2 was batched, equiv and fig7 before the SE curves left descend,
    # props before its suites lost their case-count and seed arguments
    monkeypatch.delenv("DUALGRAD_SEED", raising=False)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert main(argv + ["--config", str(cfg)]) == code
    got, want = capsys.readouterr().out, (GOLDEN / golden).read_text()
    assert got.count("\n") == want.count("\n")
    got_cells, want_cells = _cells(got), _cells(want)
    assert len(got_cells) == len(want_cells)
    bad = [(g, w) for g, w in zip(got_cells, want_cells) if not _same_cell(g, w)]
    assert not bad


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense=1\n")
    assert main(["equiv", "--config", str(cfg)]) == 2
    assert main(["equiv", "--reps", "0"]) == 2


def test_a_bad_mode_flag_and_a_bad_mode_key_print_the_same_line(tmp_path, capsys):
    # the flag is typed as the config reads it; the config alone checks the value
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode = bogus\n")
    errs = []
    for argv in (["equiv", "--mode", "bogus"], ["equiv", "--config", str(cfg)]):
        assert main(argv) == 2
        errs.append(capsys.readouterr().err)
    assert errs == ["config error: mode must be exact|kernel, got 'bogus'\n"] * 2


@pytest.mark.parametrize("line, message", [
    ("reps = 2.5", "cannot read '2.5' as int for reps"),
    ("tau_sim = abc", "cannot read 'abc' as float for tau_sim"),
    ("paired = maybe", "cannot read 'maybe' as a boolean for paired"),
])
def test_an_unreadable_setting_exits_2_naming_its_type(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(["optimize", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


def test_a_text_setting_stays_text_with_its_spaces_stripped():
    assert parse_config_text("y = 3\nmode =  exact  \nreps =\t4 ") == {
        "y": "3", "mode": "exact", "reps": 4
    }


def test_unwritable_out_exits_3(tmp_path):
    assert main(["equiv", "--reps", "1", "--out", str(tmp_path / "no" / "dir.csv")]) == 3


def test_missing_config_file_exits_3(tmp_path, capsys):
    path = tmp_path / "nope.cfg"
    assert main(["equiv", "--config", str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"io error: cannot read {path}: ")


@pytest.mark.parametrize("argv", [["equiv", "--config"], ["plot"]])
def test_a_file_that_is_not_utf8_exits_3(tmp_path, capsys, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"seed = 3\nx = caf\xe9\n")
    assert main(argv + [str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"io error: cannot read {path}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv", [["equiv", "--reps", "2"], ["optimize", "--seed", "1"], ["generate", "--seed", "0"]]
)
def test_out_file_holds_the_csv_lines_of_stdout(tmp_path, capsys, monkeypatch, argv):
    # without --out the CSV lines go to stdout, followed by what is printed either way
    monkeypatch.delenv("DUALGRAD_SEED", raising=False)
    out = tmp_path / "out.csv"
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert main(argv + ["--out", str(out)]) == 0
    rest = capsys.readouterr().out
    csv = out.read_bytes()
    assert csv.count(b"\n") > 1 and stdout.encode() == csv + rest.encode()


# config files for the rows below, written into the working directory
_CONFIGS = {
    "bad.cfg": "d_i = x",
    "layers.cfg": "layers = 3",  # layers is no setting any more
    "kind.cfg": "kind = fig7",  # nor is kind: the subcommand names it
    "vocab0.cfg": "vocab_size = 0",
    "vocab5.cfg": "vocab_size = 5",  # fewer ids than the toy environment's candidates
    "leads-1.cfg": "k_leads = -1",
    "leads0.cfg": "k_leads = 0",
    "window-1.cfg": "window = -1",
    "demo_len-1.cfg": "demo_len = -1",
    "fault.cfg": "inject_fault = grad-sgn",  # no fault has that name
}


def _write_configs(path):
    for name, line in _CONFIGS.items():
        (path / name).write_text(line + "\n")


@pytest.mark.parametrize(
    "argv, env, code",
    [
        (["equiv", "--config", "bad.cfg"], {}, 2),
        (["equiv"], {"DUALGRAD_SEED": "abc"}, 2),
        (["equiv", "--schedule", "fractional:abc"], {}, 2),
        (["plot", "missing.csv"], {}, 3),
        (["equiv", "--config", "layers.cfg"], {}, 2),
        (["fig7", "--schedule", "fractional:0"], {}, 2),  # rejected at load, though unused
        (["optimize", "--config", "vocab0.cfg"], {}, 2),
        (["generate", "--config", "vocab0.cfg"], {}, 2),
        (["optimize", "--config", "vocab5.cfg"], {}, 2),
        (["generate", "--config", "vocab5.cfg"], {}, 2),
        (["equiv", "--config", "leads-1.cfg"], {}, 2),
        (["fig7", "--config", "leads-1.cfg"], {}, 2),
        (["fig7", "--config", "leads0.cfg"], {}, 1),  # the scenario needs a lead token
        (["optimize", "--config", "window-1.cfg"], {}, 2),
        (["optimize", "--config", "demo_len-1.cfg"], {}, 2),
        (["equiv", "--config", "kind.cfg"], {}, 2),
        (["props", "--config", "fault.cfg"], {}, 2),
    ],
)
def test_malformed_input_exit_code_without_traceback(
    tmp_path, monkeypatch, capsys, argv, env, code
):
    # in-process: main returns the code and catches every library error itself
    _write_configs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DUALGRAD_SEED", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_an_allocation_failure_exits_1_with_one_stderr_line(monkeypatch, capsys):
    # numpy raises a MemoryError when an array does not fit, as at a huge vocab_size
    message = "Unable to allocate 763. MiB for an array with shape (100000, 1000)"

    def optimize(cfg, args):
        raise MemoryError(message)

    monkeypatch.setitem(cli._COMMANDS, "optimize", optimize)
    monkeypatch.delenv("DUALGRAD_SEED", raising=False)
    assert main(["optimize"]) == 1
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"  # no traceback


@pytest.mark.parametrize(
    "argv, code",
    [
        (["fig7", "--config", "leads0.cfg"], 1),
        (["equiv", "--config", "bad.cfg"], 2),
        (["plot", "missing.csv"], 3),
        (["generate", "--no-such-option"], 2),
    ],
)
def test_exit_code_reaches_the_shell_without_traceback(tmp_path, argv, code):
    # one row per error exit code, through a fresh interpreter and `python -m`
    _write_configs(tmp_path)
    src = os.path.dirname(os.path.dirname(dualgrad.__file__))
    env = {k: v for k, v in os.environ.items() if k != "DUALGRAD_SEED"}
    proc = subprocess.run(
        [sys.executable, "-m", "dualgrad", *argv],
        cwd=tmp_path,
        env={**env, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


def test_python_m_dualgrad_exits_0_with_the_golden_bytes(tmp_path):
    # the package runs as a module; the error exits go through the test above
    src = os.path.dirname(os.path.dirname(dualgrad.__file__))
    env = {k: v for k, v in os.environ.items() if k != "DUALGRAD_SEED"}
    proc = subprocess.run(
        [sys.executable, "-m", "dualgrad", "generate", "--seed", "0"],
        cwd=tmp_path,
        env={**env, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == (GOLDEN / "generate.txt").read_text()


def test_closed_stdout_exits_3_with_one_stderr_line():
    src = os.path.dirname(os.path.dirname(dualgrad.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dualgrad", "generate", "--seed", "0"],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()  # before the interpreter has even imported dualgrad
    stderr = proc.stderr.read()
    assert proc.wait() == 3
    assert len(stderr.splitlines()) == 1 and "Traceback" not in stderr


# ---------------------------------------------------------------------------
# malformed input, fuzzed in-process


def _fields_of(kind):
    return [
        f.name for f in dataclasses.fields(ExperimentConfig)
        if getattr(f.type, "__name__", f.type) == kind
    ]


def _rejects(parse, raw) -> bool:
    try:
        parse(raw)
    except ValueError:
        return True
    return False


def _is_bool(raw) -> bool:
    return raw.strip().lower() in ("1", "true", "yes", "on", "0", "false", "no", "off")


# one config line: printable ASCII without '#', which would start a comment
_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="#"))
_KNOWN = {f.name for f in dataclasses.fields(ExperimentConfig)} | set(_ALIASES)
_BAD_LINES = st.one_of(
    st.from_regex(r"[a-z_]{1,12}", fullmatch=True).filter(lambda k: k not in _KNOWN).map(
        lambda k: f"{k} = 1"),
    st.tuples(st.sampled_from(_fields_of("int")), _TEXT.filter(
        lambda v: _rejects(int, v.strip()))).map(" = ".join),
    st.tuples(st.sampled_from(_fields_of("float")), _TEXT.filter(
        lambda v: _rejects(float, v.strip()))).map(" = ".join),
    st.tuples(st.sampled_from(_fields_of("bool")), _TEXT.filter(
        lambda v: not _is_bool(v))).map(" = ".join),
    _TEXT.filter(lambda v: v.strip() not in ("exact", "kernel")).map(lambda v: f"mode = {v}"),
    _TEXT.map(lambda v: f"schedule = fractional:{v}").filter(
        lambda line: not line.strip().partition(":")[2].isdecimal()),
    _TEXT.filter(lambda v: "=" not in v and v.strip()),
    st.integers(-5, 0).map(lambda v: f"reps = {v}"),
    st.one_of(
        st.tuples(st.sampled_from(["d_i", "d_o", "n_t", "n_d", "demo_len"]), st.integers(-5, 0)),
        st.tuples(st.sampled_from(["k_leads", "window"]), st.integers(-5, -1)),
        st.tuples(st.just("vocab_size"), st.integers(-5, TOY_CANDIDATES - 1)),
    ).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.integers(-5, 99).filter(lambda v: v % 2 or v < 2).map(lambda v: f"feature_dim = {v}"),
)
# settings that no range check reads, so they cannot repair a bad line
_GOOD_LINES = st.sampled_from(["seed = 3", "tau_sim = 0.9", "y = se", "# a comment", ""])
_ARG = st.text(st.characters(min_codepoint=32, max_codepoint=126))
_BAD_FLAGS = st.one_of(
    _ARG.filter(lambda v: _rejects(int, v)).map(lambda v: [f"--seed={v}"]),
    _ARG.filter(lambda v: _rejects(int, v)).map(lambda v: [f"--reps={v}"]),
    st.integers(-5, 0).map(lambda v: [f"--reps={v}"]),
    _ARG.filter(lambda v: v not in ("exact", "kernel")).map(lambda v: [f"--mode={v}"]),
    _ARG.filter(lambda v: not v.isdecimal()).map(lambda v: [f"--schedule=fractional:{v}"]),
    _ARG.filter(lambda v: v != "per-token" and not v.startswith("fractional:")).map(
        lambda v: [f"--schedule={v}"]),
    st.just(["--no-such-flag"]),
)
_COMMANDS = st.sampled_from(list(cli._COMMANDS))


@st.composite
def _malformed(draw):
    """(argv, config document or None, DUALGRAD_SEED or None, expected exit code)."""
    case = draw(st.sampled_from(["document", "flag", "environment", "missing csv"]))
    command = draw(_COMMANDS)
    if case == "document":
        lines = draw(st.lists(_GOOD_LINES, max_size=3)) + [draw(_BAD_LINES)]
        lines = draw(st.permutations(lines))
        return [command], "\n".join(lines) + "\n", None, 2
    if case == "flag":
        return [command, *draw(_BAD_FLAGS)], None, None, 2
    if case == "environment":
        return [command], None, draw(_ARG.filter(lambda v: _rejects(int, v))), 2
    return ["plot", draw(st.from_regex(r"[a-z]{1,8}\.csv", fullmatch=True))], None, None, 3


@settings(max_examples=200, deadline=None)
@given(case=_malformed())
def test_fuzzed_malformed_input_exits_2_or_3_with_one_stderr_line(tmp_path_factory, case):
    argv, document, env_seed, code = case
    tmp = tmp_path_factory.getbasetemp() / "cli-fuzz"
    tmp.mkdir(exist_ok=True)
    if document is not None:
        (tmp / "fuzz.cfg").write_text(document, encoding="utf-8")
        argv = argv + ["--config", str(tmp / "fuzz.cfg")]
    if argv[0] == "plot" and code == 3:
        argv = ["plot", str(tmp / "absent" / argv[1])]
    err, out = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), redirect_stderr(err), redirect_stdout(out):
        os.environ.pop("DUALGRAD_SEED", None)
        if env_seed is not None:
            os.environ["DUALGRAD_SEED"] = env_seed
        assert main(argv) == code
    assert len(err.getvalue().splitlines()) == 1 and "Traceback" not in err.getvalue()


def test_plot_produces_svg(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    assert main(["equiv", "--reps", "2", "--seed", "1", "--out", str(csv)]) == 0
    assert main(["plot", str(csv)]) == 0
    svg = (tmp_path / "data.csv.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_plot_to_an_unwritable_svg_path_exits_3(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    csv.write_text("step,se,seed\n0,0.5,1\n1,0.25,1\n")
    svg = tmp_path / "no" / "chart.svg"
    assert main(["plot", str(csv), "--out", str(svg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"io error: cannot write {svg}: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_plot_missing_column_exits_2(tmp_path):
    csv = tmp_path / "data.csv"
    csv.write_text("a,b\n1,2\n")
    assert main(["plot", str(csv)]) == 2


def _plot_exits_2_and_writes_nothing(tmp_path, capsys, text):
    csv = tmp_path / "data.csv"
    csv.write_text(text)
    assert main(["plot", str(csv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot draw a point at ") and len(err.splitlines()) == 1
    assert not (tmp_path / "data.csv.svg").exists()


@pytest.mark.parametrize(
    "text", ["step,se\n1,nan\n2,inf\n", "step,se\n1,0.5\n2,-inf\n", "step,se\nnan,0.5\n2,1\n"]
)
def test_plot_refuses_a_non_finite_cell(tmp_path, capsys, text):
    _plot_exits_2_and_writes_nothing(tmp_path, capsys, text)


def test_plot_refuses_a_finite_span_that_overflows(tmp_path, capsys):
    # y1 - y0 = 2e308 overflows to inf, so each scaled coordinate is 0 or NaN
    _plot_exits_2_and_writes_nothing(tmp_path, capsys, "step,se\n1,1e308\n2,-1e308\n")


# ---------------------------------------------------------------------------
# SVG rendering


def test_line_chart_deterministic_and_grouped():
    header = ["step", "se", "seed"]
    rows = [["1", "0.5", "a"], ["2", "0.1", "a"], ["1", "0.6", "b"], ["2", "0.2", "b"]]
    one = line_chart(header, rows, "step", "se", "seed")
    two = line_chart(header, rows, "step", "se", "seed")
    assert one == two
    assert one.count("<polyline") == 2


def test_line_chart_rejects_bad_input():
    from dualgrad.errors import EmptyData

    with pytest.raises(EmptyData):
        line_chart(["x", "y"], [], "x", "y", None)
    with pytest.raises(ParseError):
        line_chart(["x", "y"], [["1", "oops"]], "x", "y", None)


def test_read_csv_validates_row_lengths(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1\n")
    with pytest.raises(ParseError):
        read_csv(read_text(str(path)), str(path))
