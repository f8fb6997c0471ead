"""Check that the CLI prints the same bytes as at another commit.

    python tools/cli_bytes.py BASE_REF

Exports ``src/`` of BASE_REF (any git revision) with ``git archive`` into a
temporary directory, then runs the same CLI commands at their defaults
against that tree and against this checkout's ``src/``: ``equiv``, ``fig7``,
``props``, ``generate``, ``optimize`` with ``paired`` 0 and 1, and ``equiv``
with ``--mode exact`` and with ``--schedule fractional:3`` (kernel mode and
the per-token schedule are ``equiv``'s defaults, and no other command reads
either option).  Each run gets ``PYTHONPATH`` set to its own tree's ``src/``
only and ``DUALGRAD_SEED`` unset.  Exits 0 when every
command gives the same exit code and stdout bytes in both trees, 1 when any
differs, 2 when BASE_REF cannot be exported.

The rest of the tool's environment reaches both trees' runs alike, so

    OPENBLAS_CORETYPE=Haswell python tools/cli_bytes.py BASE_REF

compares the two trees with both under OpenBLAS's Haswell kernel.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = "import sys; from dualgrad.cli import main; sys.exit(main(sys.argv[1:]))"
PAIRED = {"paired0.cfg": "paired = 0\n", "paired1.cfg": "paired = 1\n"}
COMMANDS = (
    ["equiv"],
    ["fig7"],
    ["props"],
    ["generate"],
    ["optimize", "--config", "paired0.cfg"],
    ["optimize", "--config", "paired1.cfg"],
    ["equiv", "--mode", "exact"],
    ["equiv", "--schedule", "fractional:3"],
)


def run(src: Path, cwd: Path, argv: list[str]) -> tuple[int, bytes]:
    env = {k: v for k, v in os.environ.items() if k != "DUALGRAD_SEED"}
    env["PYTHONPATH"] = str(src)
    done = subprocess.run(
        [sys.executable, "-c", RUN, *argv], cwd=cwd, env=env, capture_output=True
    )
    return done.returncode, done.stdout


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/cli_bytes.py BASE_REF", file=sys.stderr)
        return 2
    ref = argv[0]
    with tempfile.TemporaryDirectory(prefix="cli-bytes-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", ref, "src"], capture_output=True
        )
        if archive.returncode:
            print(f"cannot export {ref}: {archive.stderr.decode().strip()}", file=sys.stderr)
            return 2
        (tmp / "base").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "base")], input=archive.stdout, check=True)
        trees = {"base": tmp / "base" / "src", "head": ROOT / "src"}
        for name in trees:
            (tmp / f"cwd-{name}").mkdir()
            for cfg, text in PAIRED.items():
                (tmp / f"cwd-{name}" / cfg).write_text(text)
        differ = 0
        for command in COMMANDS:
            base, head = (run(src, tmp / f"cwd-{name}", command) for name, src in trees.items())
            same = base == head
            differ += not same
            print(f"{'same' if same else 'DIFFERENT':9} exit {base[0]}/{head[0]}, "
                  f"{len(base[1])}/{len(head[1])} B  dualgrad {' '.join(command)}")
    print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} commands print identical bytes at {ref}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
