"""Check that the CLI and the benchmark ops give the same outputs as at another commit.

    python tools/same_outputs.py BASE_REF

Exports ``src/`` and ``bench/`` of BASE_REF (any git revision) once, with
``git archive``, into a temporary directory, then compares that tree with
this checkout in three reports:

* CLI bytes.  The commands of ``COMMANDS`` run at their defaults: every
  subcommand but ``plot``, ``optimize`` with ``paired`` 0 and 1, and
  ``equiv`` with ``--mode exact`` and with ``--schedule fractional:3``
  (kernel mode and the per-token schedule are ``equiv``'s defaults, and no
  other command reads either option).  Each runs in a fresh interpreter with
  ``PYTHONPATH`` set to its own tree's ``src/`` only and ``DUALGRAD_SEED``
  unset.  A command is the same when its exit code and stdout bytes are.
* File bytes.  The commands of ``FILES`` write ``equiv``'s CSV with
  ``--out`` and draw it with ``plot``, in a fresh directory per tree, run as
  the CLI commands are.  A file of ``WRITTEN`` is the same when both trees
  wrote it with the same bytes and every command exited 0.
* Benchmark op digests.  One interpreter per tree imports the tree's own
  ``src/`` and ``bench/workloads.py`` without writing bytecode, runs every
  unit of the three workloads at seeds 0-4 with a clock that times nothing,
  and reports each op's digest and whether its correctness gate passed.
  BLAS runs on one thread, as in ``bench/run.py``.  An op is the same when
  both trees give it the same digest and both gates pass.

Exits 0 when every command, file and op is the same, 1 when any differs,
2 when BASE_REF is not given or cannot be exported.

The rest of the tool's environment reaches both trees' runs alike, so

    OPENBLAS_CORETYPE=Haswell python tools/same_outputs.py BASE_REF

compares the two trees with both under OpenBLAS's Haswell kernel.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(5)
PAIRED = {"paired0.cfg": "paired = 0\n", "paired1.cfg": "paired = 1\n"}
COMMANDS = (
    ["equiv"], ["fig7"], ["props"], ["generate"],
    ["optimize", "--config", "paired0.cfg"], ["optimize", "--config", "paired1.cfg"],
    ["equiv", "--mode", "exact"], ["equiv", "--schedule", "fractional:3"],
)
FILES = (["equiv", "--out", "equiv.csv"], ["plot", "equiv.csv"])  # in order, in one directory
WRITTEN = ("equiv.csv", "equiv.csv.svg")  # what FILES writes there
RUN_CLI = "import sys; from dualgrad.cli import main; sys.exit(main(sys.argv[1:]))"
RUN_OPS = "import json, sys; from same_outputs import ops; print(json.dumps(ops(sys.argv[1])))"
ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class _StubClock:
    """The workloads' clock interface, without timing or calibration."""

    class _Span:
        t0 = t1 = wall = 0.0
        c0 = c1 = cal = None

    def calibrate(self):
        return None

    def __call__(self, fn):
        return self._Span(), fn()


def ops(tree: str) -> dict:
    """{"workload/seed/unit/op": [digest hex, gate passed]} of every op of ``tree``."""
    sys.path[:0] = [f"{tree}/src", f"{tree}/bench"]
    from workloads import WORKLOADS

    out = {}
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            w = workload(seed)
            for k in range(w.units):
                results, _ = w.run_unit(k, _StubClock())
                for i, (_, _, ok, digest) in enumerate(results):
                    out[f"{name}/{seed}/{k}/{i}"] = [digest.hex(), bool(ok)]
    return out


def run(code: str, argv: list[str], cwd: Path, **env: str) -> subprocess.CompletedProcess:
    """``python -c code *argv`` in a fresh interpreter, with ``env`` over the tool's own."""
    env = {k: v for k, v in os.environ.items() if k not in ("DUALGRAD_SEED", "PYTHONPATH")} | env
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True)


def same_cli(trees: list[Path], cwd: Path, ref: str) -> bool:
    differ = 0
    for command in COMMANDS:
        base, head = (run(RUN_CLI, command, cwd, PYTHONPATH=str(t / "src")) for t in trees)
        same = (base.returncode, base.stdout) == (head.returncode, head.stdout)
        differ += not same
        print(f"{'same' if same else 'DIFFERENT':9} exit {base.returncode}/{head.returncode}, "
              f"{len(base.stdout)}/{len(head.stdout)} B  dualgrad {' '.join(command)}")
    print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} commands print identical bytes at {ref}")
    return not differ


def same_files(trees: list[Path], cwd: Path, ref: str) -> bool:
    found = []
    for i, tree in enumerate(trees):
        work = cwd / f"files{i}"
        work.mkdir()
        codes = [run(RUN_CLI, command, work, PYTHONPATH=str(tree / "src")).returncode
                 for command in FILES]
        found.append([codes, [(work / name).read_bytes() if (work / name).is_file() else None
                              for name in WRITTEN]])
    (base_codes, base), (head_codes, head) = found
    ok = base_codes == head_codes == [0] * len(FILES)
    differ = 0
    for name, b, h in zip(WRITTEN, base, head):
        same = ok and b is not None and b == h
        differ += not same
        sizes = "/".join("missing" if f is None else f"{len(f)} B" for f in (b, h))
        print(f"{'same' if same else 'DIFFERENT':9} {sizes}  {name}")
    print(f"{len(WRITTEN) - differ} of {len(WRITTEN)} files written with identical bytes at {ref} "
          f"(exit codes {base_codes}/{head_codes})")
    return not differ


def same_ops(trees: list[Path], cwd: Path, ref: str) -> bool:
    found = []
    for tree in trees:
        done = run(RUN_OPS, [str(tree)], cwd, PYTHONPATH=str(ROOT / "tools"),
                   PYTHONDONTWRITEBYTECODE="1", **ONE_THREAD)
        if done.returncode:
            sys.stderr.write(done.stderr.decode())
            print(f"collecting the ops of {tree} failed with exit code {done.returncode}")
            return False
        found.append(json.loads(done.stdout))
    base, head = found
    every = sorted(base.keys() | head.keys())
    bad = 0
    for op in every:
        b, h = base.get(op), head.get(op)
        if b is None or h is None or b[0] != h[0] or not (b[1] and h[1]):
            bad += 1
            print(f"{op}: base {b}, head {h}")
    for name in sorted({op.split("/")[0] for op in head}):
        n = sum(op.startswith(name + "/") for op in head)
        print(f"{name:15} {n:5} ops at seeds {SEEDS.start}-{SEEDS.stop - 1}")
    print(f"{len(every) - bad} of {len(every)} ops give the same digest "
          f"as at {ref} and pass their gates")
    return not bad


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/same_outputs.py BASE_REF", file=sys.stderr)
        return 2
    ref = argv[0]
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src", "bench"],
                                 capture_output=True)
        if archive.returncode:
            print(f"cannot export {ref}: {archive.stderr.decode().strip()}", file=sys.stderr)
            return 2
        (tmp / "base").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "base")], input=archive.stdout, check=True)
        for cfg, text in PAIRED.items():
            (tmp / cfg).write_text(text)
        trees = [tmp / "base", ROOT]
        # every report, always
        same = [same_cli(trees, tmp, ref), same_files(trees, tmp, ref), same_ops(trees, tmp, ref)]
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
