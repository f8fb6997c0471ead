"""dualgrad benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload identity-sweep --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is the result as
one JSON object; the lines before it print every metric with its unit and
the environment.  ``--workload all`` runs the three workloads one after the
other.  See README.md in this directory for what is measured and why.
"""

import os

# BLAS threads are pinned before numpy is first imported, here and in the
# set-up probes this process starts (they inherit the environment).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("identity-sweep", "long-generate", "demo-search")
SETUP_PROBES = 5  # set-ups timed per run; setup_s is their median
MIN_OPS = 110  # so that at least ten ops lie beyond op_p90_ms


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child_argv(args, workload, *extra):
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    return argv + (["--tiny"] if args.tiny else []) + list(extra)


def import_library():
    """Import dualgrad from this checkout's src/, or stop with exit code 2."""
    if not (SRC / "dualgrad" / "__init__.py").is_file():
        print(f"error: no dualgrad package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import dualgrad

    if Path(dualgrad.__file__).resolve().parent != SRC / "dualgrad":
        print(f"error: dualgrad imported from {dualgrad.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def commit_id():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment():
    src = hashlib.sha256()
    for path in sorted((SRC / "dualgrad").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit_id(),
        "src_sha256": src.hexdigest(),
    }


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  Unlike a single order statistic it stays put where the
    latencies have a gap, as between identity-sweep's cheap and costly ops."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 200_001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


# Reference-speed time.  On a shared VM the CPU's speed follows the
# neighbours' load: on a 2-vCPU Xeon VM it changed by up to 1.65x from one
# minute to the next, and wall-clock figures of identical runs differed by as
# much.  So every op is bracketed by samples of a calibration loop of fixed
# work, and its time is reported at the speed where that loop takes
# CAL_REF_S: wall * CAL_REF_S / calibration.  Wall-clock figures are printed
# alongside.  Set-up time stays in wall time (see time_setups).
CAL_REF_S = 2e-4  # near the loop's time between ops on that VM
_cal_rng = np.random.default_rng(0)
_CAL_ROWS, _CAL_VEC = _cal_rng.normal(size=(64, 16)), _cal_rng.normal(size=16)
_CAL_BLOCK = _cal_rng.normal(size=(64, 64))


def _calibration_work():
    acc = 0.0
    for row in _CAL_ROWS:
        acc += float(row @ _CAL_VEC)
    np.exp(np.sin(_CAL_BLOCK) + np.cos(_CAL_BLOCK))
    return acc


def calibration_s():
    """Time of fixed work like the library's: small numpy calls in a Python
    loop, then elementwise transcendentals on a block.  It runs once untimed
    first, so the sample sees the machine's speed and not the caches the
    preceding op left cold."""
    _calibration_work()
    t0 = perf_counter()
    _calibration_work()
    return perf_counter() - t0


def calibration_median_s():
    """For a timing that has few other samples to average with."""
    return statistics.median(calibration_s() for _ in range(7))


class Span(NamedTuple):
    t0: float
    t1: float
    c0: float | None  # calibration before and after, None when not calibrated
    c1: float | None

    @property
    def wall(self):
        return self.t1 - self.t0

    @property
    def cal(self):
        return None if self.c0 is None else (self.c0 + self.c1) / 2


class Clock:
    """Times one op: ``clock(fn) -> (Span, fn())``.

    Calibrated for the end-to-end run.  The traced run is not calibrated, so
    its per-layer times are wall time, and with a tracer it puts each op in a
    root span."""

    def __init__(self, calibrated=False, tracer=None):
        self.calibrated = calibrated
        self.tracer = tracer

    def calibrate(self):
        return calibration_s() if self.calibrated else None

    def __call__(self, fn):
        c0 = self.calibrate()
        t0 = perf_counter()
        out = fn() if self.tracer is None else self.tracer.call(self.tracer.ROOT, fn)
        t1 = perf_counter()
        return Span(t0, t1, c0, self.calibrate()), out


def at_reference_speed(wall, cal):
    return wall if cal is None else wall * CAL_REF_S / cal


class Record:
    """Op latencies and failures; a repeated op must give its first digest.

    Latencies are at reference speed; ``wall`` keeps the wall-clock ones."""

    def __init__(self, workload):
        self.workload = workload
        self.first = {}
        self.latencies = []
        self.wall = []
        self.unit_rates = []
        self.wall_unit_rates = []
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.info = []

    def run_unit(self, k, clock):
        try:
            ops, info = self.workload.run_unit(k, clock)
        except Exception:  # an op that raises counts as failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            ops, info = [], {}
        self.info.append(info)
        expected = self.workload.ops_per_unit
        self.attempted += max(expected, len(ops))
        self.failed += max(expected - len(ops), 0)
        done, busy, wall_busy = 0, 0.0, 0.0
        for i, (wall, cal, ok, digest) in enumerate(ops):
            ok = ok and self.first.setdefault((k, i), digest) == digest
            ref = at_reference_speed(wall, cal)
            busy += ref
            wall_busy += wall
            if ok:
                self.latencies.append(ref)
                self.wall.append(wall)
                done += 1
            else:
                self.failed += 1
        self.busy_s += busy
        if busy > 0:
            self.unit_rates.append(done / busy)
            self.wall_unit_rates.append(done / wall_busy)


def time_setups(args):
    """Median set-up time of SETUP_PROBES fresh processes, one after another,
    each timed from its start until it has imported dualgrad, built its inputs
    and run one warm-up op.  Wall time: start-up and imports do not follow the
    calibration loop's speed."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(child_argv(args, args.workload, "--setup-probe"),
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def end_to_end(args, workload):
    setup_s = time_setups(args)
    rec = Record(workload)
    clock = Clock(calibrated=True)
    deadline = perf_counter() + args.seconds
    k = 0
    while perf_counter() < deadline or len(rec.latencies) < MIN_OPS:
        rec.run_unit(k % workload.units, clock)
        k += 1
    rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(rec.unit_rates), "ops/s"),
        "op_p50_ms": (hd_quantile(rec.latencies, 0.5) * 1e3, "ms"),
        "op_p90_ms": (hd_quantile(rec.latencies, 0.9) * 1e3, "ms"),
        "peak_rss_mb": rss,
    }
    shown = dict(
        metrics,
        failed_share=(rec.failed / rec.attempted, "ratio"),
        wall_ops_per_s=(statistics.median(rec.wall_unit_rates), "ops/s"),
        wall_op_p50_ms=(hd_quantile(rec.wall, 0.5) * 1e3, "ms"),
        wall_op_p90_ms=(hd_quantile(rec.wall, 0.9) * 1e3, "ms"),
    )
    return rec, metrics, shown, f"{len(rec.latencies)} ops in {k} units"


def per_layer(args, workload):
    """Alternate an untraced and a traced round of the same units.

    Counts come from the first traced round, so they repeat exactly; times
    are per traced round, averaged over all of them.
    """
    from tracing import LAYERS, Tracer, summarize

    rec = Record(workload)
    units = range(workload.trace_units)
    # [ops, op seconds at reference speed] of the untraced and traced rounds;
    # the rounds' clocks are not calibrated, so each unit is bracketed instead
    rate = {False: [0, 0.0], True: [0, 0.0]}
    traced_busy = 0.0  # wall time, as the spans
    times = defaultdict(lambda: defaultdict(float))
    deadline = perf_counter() + args.seconds
    rounds = 0
    while rounds == 0 or perf_counter() < deadline:
        tracer = Tracer()
        for traced in (False, True):
            with tracer.patched() if traced else nullcontext():
                for k in units:
                    c0 = calibration_median_s()
                    n, busy = len(rec.latencies), rec.busy_s
                    rec.run_unit(k, Clock(tracer=tracer if traced else None))
                    c1 = calibration_median_s()
                    rate[traced][0] += len(rec.latencies) - n
                    rate[traced][1] += at_reference_speed(rec.busy_s - busy, (c0 + c1) / 2)
                    if traced:
                        traced_busy += rec.busy_s - busy
        table = summarize(tracer.spans)
        for name, row in table.items():
            for key, value in row.items():
                times[name][key] += value
        if rounds == 0:
            spans, counts, info = tracer.spans, table, rec.info[-len(units):]
        rounds += 1

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (int(counts[layer]["calls"]), "count")
        metrics[f"{layer}.self_s"] = (times[layer]["self_s"] / rounds, "s")
    metrics["kernelmap.phi_matrix.columns"] = (
        int(counts["kernelmap.phi_matrix"]["columns"]), "count")
    metrics["kernelmap.phi_matrix.bytes_out"] = (
        int(counts["kernelmap.phi_matrix"]["bytes_out"]), "B")
    metrics["transformer.stack_trace.total_s"] = (
        times["transformer.stack_trace"]["total_s"] / rounds, "s")
    metrics["transformer.decode.candidates"] = (
        int(counts["transformer.decode"]["candidates"]), "count")
    metrics["sequence.append.bytes_copied"] = (
        int(counts["sequence.append"]["bytes_copied"]), "B")
    metrics["dual.descend.steps"] = (int(counts["dual.descend"]["steps"]), "count")

    def total(key):
        return sum(i.get(key, 0) for i in info)

    records = total("records")
    metrics["transformer.degenerate_redraws"] = (total("redraws"), "count")
    metrics["dual.identity_rel_err_max"] = (
        max((i.get("rel_err_max", 0.0) for i in info), default=0.0), "ratio")
    metrics["optimizer.hit_ratio"] = (total("hits") / records if records else 0.0, "ratio")
    metrics["optimizer.reeval_ratio"] = (
        counts["optimizer.evaluate_demo"]["calls"] / records if records else 0.0, "ratio")

    # Traced op time = self time of every layer + the ops' own code outside
    # any layer span (unattributed) + the wrappers' bookkeeping.
    layer_self = sum(times[layer]["self_s"] for layer in LAYERS)
    unattributed = times[Tracer.ROOT]["self_s"]
    plain_rate, traced_rate = (ops / busy for ops, busy in (rate[False], rate[True]))
    metrics["trace.op_s"] = (traced_busy / rounds, "s")
    metrics["trace.spans"] = (len(spans), "count")
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "ops/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "ops/s")
    metrics["trace.overhead_share"] = (1.0 - traced_rate / plain_rate, "ratio")
    metrics["trace.unattributed_share"] = (unattributed / traced_busy, "ratio")
    metrics["trace.bookkeeping_share"] = (
        (traced_busy - layer_self - unattributed) / traced_busy, "ratio")

    write_spans(args, spans)
    return rec, metrics, metrics, f"{rounds} untraced + {rounds} traced rounds"


def write_spans(args, spans):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    t_ref = spans[0][2] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "fields": ["id", "name", "parent", "t0", "t1",
                                        "overhead", "extra"]}) + "\n")
        for i, (name, parent, t0, t1, ovh, extra) in enumerate(spans):
            fh.write(json.dumps([i, name, parent, t0 - t_ref, t1 - t_ref, ovh, extra]) + "\n")
    print(f"spans written to {path}")


def run_all(args):
    code = 0
    for name in WORKLOAD_NAMES:
        code = max(code, subprocess.run(child_argv(args, name)).returncode)
    return code


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    workload.warmup(Clock())
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    env = environment()
    measure = per_layer if args.trace else end_to_end
    rec, metrics, shown, extent = measure(args, workload)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {extent}, "
          f"{rec.attempted} attempted, {rec.failed} failed")
    for name, (value, unit) in shown.items():
        print(f"  {name:<36} {value!r:>24} {unit}")
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
