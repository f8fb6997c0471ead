"""Check that every benchmark op gives the same digest as at another commit.

    python tools/bench_digests.py BASE_REF

Exports ``src/`` and ``bench/`` of BASE_REF (any git revision) with
``git archive`` into a temporary directory.  For that tree and for this
checkout, a fresh interpreter imports the tree's own ``src/`` and
``bench/workloads.py`` without writing bytecode, runs every unit of the three
workloads at seeds 0-4 with a clock that times nothing, and reports each op's
digest and whether its correctness gate passed.  BLAS runs on one thread, as
in ``bench/run.py``.  Exits 0 when both trees give the same ops with the same
digests and every gate passes, 1 otherwise, 2 when BASE_REF cannot be
exported.

The rest of the tool's environment reaches both trees' interpreters alike,
so ``OPENBLAS_CORETYPE`` set for the tool picks the OpenBLAS kernel of both.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(5)
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class _StubClock:
    """The workloads' clock interface, without timing or calibration."""

    class _Span:
        t0 = t1 = wall = 0.0
        c0 = c1 = cal = None

    def calibrate(self):
        return None

    def __call__(self, fn):
        return self._Span(), fn()


def collect(tree: Path) -> dict:
    """{"workload/seed/unit/op": [digest hex, gate passed]} of every op of ``tree``."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    from workloads import WORKLOADS

    ops = {}
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            w = workload(seed)
            for k in range(w.units):
                results, _ = w.run_unit(k, _StubClock())
                for i, (_, _, ok, digest) in enumerate(results):
                    ops[f"{name}/{seed}/{k}/{i}"] = [digest.hex(), bool(ok)]
    return ops


def run(tree: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({v: "1" for v in THREADS}, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--collect", str(tree)],
        env=env, capture_output=True, text=True,
    )
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"collecting the ops of {tree} failed with exit code {done.returncode}")
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--collect":
        print(json.dumps(collect(Path(argv[1]))))
        return 0
    if len(argv) != 1:
        print("usage: python tools/bench_digests.py BASE_REF", file=sys.stderr)
        return 2
    ref = argv[0]
    with tempfile.TemporaryDirectory(prefix="bench-digests-") as tmp:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", ref, "src", "bench"], capture_output=True
        )
        if archive.returncode:
            print(f"cannot export {ref}: {archive.stderr.decode().strip()}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        base, head = run(Path(tmp)), run(ROOT)
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
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
