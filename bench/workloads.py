"""The three benchmark workloads: inputs from a seed, timed ops, correctness gates.

A workload's inputs are a pool of *units* built from
``dualgrad.rng.stream(seed, "bench/<workload>")`` before anything is timed.
``run_unit`` times one unit's ops with ``clock`` and gates each op; gates
run outside the op clock.  An op result is ``(wall_s, calibration_s, ok,
digest)``; the runner compares the digest of every repeat of the same op (a
later round, or the traced round) with the first one, so nondeterminism also
fails.

Library calls go through module attributes (``dg.kernel_attention``,
``O.run_two_stage``) looked up at call time, so the tracer's wrappers see them.
"""

import hashlib
import math
from time import perf_counter

import numpy as np

import dualgrad as dg
import dualgrad.experiments as E
import dualgrad.optimizer as O
from dualgrad.errors import NormalizationDegenerate

IDENTITY_TOL = 1e-9  # the ROADMAP's dual/forward identity contract
MAX_ATTEMPTS = 20  # redraws per configuration, as run_equiv


def rel_err(a, b) -> float:
    """Max-abs difference relative to max(1, max |b|), as the acceptance suite."""
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def _digest(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


# ---------------------------------------------------------------------------
# the benchmark's own kernel-attention oracle, vectorized and independent of
# dualgrad.transformer: rotary keys/query, random-feature map, normalization


def _rotate(x, positions, base):
    """Apply R_position to each column of x (d, n); odd d keeps the last row."""
    d = x.shape[0]
    half = d // 2
    angles = np.outer(base ** (-2.0 * np.arange(half) / d), positions)
    c, s = np.cos(angles), np.sin(angles)
    out = x.copy()
    even, odd = x[0 : 2 * half : 2], x[1 : 2 * half : 2]
    out[0 : 2 * half : 2] = c * even - s * odd
    out[1 : 2 * half : 2] = s * even + c * odd
    return out


def _features(freqs, xs):
    proj = freqs @ xs
    scale = np.exp(0.5 * np.sum(xs * xs, axis=0)) / np.sqrt(2 * freqs.shape[0])
    return scale * np.vstack([np.sin(proj), np.cos(proj)])


def kernel_attention_ref(params, fmap, tokens, query_pos):
    x = tokens[:query_pos]
    scale = params.d_o**0.25
    keys = _rotate(params.w_k @ x[:-1].T, np.arange(1, query_pos), params.rope_base)
    q = _rotate((params.w_q @ x[-1])[:, None], np.array([query_pos]), params.rope_base)
    weights = _features(fmap.frequencies, keys / scale).T @ _features(fmap.frequencies, q / scale)
    return (params.w_v @ x[:-1].T) @ weights[:, 0] / weights.sum()


def _ffn(rng, d_o, d_h):
    # fan-in scaled weights keep every layer's keys far inside the feature
    # map's overflow guard; with unit-scale weights a 3-layer kernel-mode
    # stack at d = 8 grows past it in some draws
    return dg.FfnParams(
        rng.normal(0, 1 / np.sqrt(d_h), (d_o, d_h)),
        rng.normal(0, 0.1, d_o),
        rng.normal(0, 1 / np.sqrt(d_o), (d_h, d_o)),
        rng.normal(0, 0.1, d_h),
    )


class IdentitySweep:
    """Dual/forward identity of attention, transformer layer, stack and GQA.

    One unit is one random configuration and gives four ops: kernel
    attention + dual + a full per-token descent; one transformer layer and
    its dual; a layer stack and its duals; GQA and its blockwise duals.
    """

    name = "identity-sweep"
    FULL = dict(d=8, n_t=30, n_d=32, leads=2, D=1024, d_h=10, layers=3, n=2, g=2, units=8)
    TINY = dict(d=4, n_t=4, n_d=4, leads=2, D=32, d_h=4, layers=2, n=1, g=2, units=2)
    trace_units = 4
    ops_per_unit = 4

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.size = self.TINY if tiny else self.FULL
        self.units = self.size["units"]
        self.trace_units = min(self.trace_units, self.units)
        self.attempt = [0] * self.units
        self.configs = [self._draw(k, 0) for k in range(self.units)]

    def _draw(self, unit, attempt):
        s = self.size
        d = s["d"]
        rng = dg.stream(self.seed, f"bench/{self.name}/{unit}/{attempt}")
        gcfg = dg.GqaConfig(n=s["n"], g=s["g"], d_o=d)
        hd = gcfg.head_dim
        return dict(
            params=E.random_attention(rng, d, d),
            ffn=_ffn(rng, d, s["d_h"]),
            seq=E.random_sequence(rng, d, s["n_t"], s["n_d"], s["leads"]),
            fmap=dg.sample_feature_map(d, s["D"], seed=int(rng.integers(2**31))),
            stack=dg.LayerStack(
                tuple((E.random_attention(rng, d, d), _ffn(rng, d, s["d_h"]))
                      for _ in range(s["layers"]))
            ),
            gcfg=gcfg,
            gqa=dg.GqaParams(
                rng.normal(0, 0.4, (gcfg.heads, hd, d)),
                rng.normal(0, 0.4, (gcfg.g, hd, d)),
                rng.normal(0, 0.4, (gcfg.g, hd, d)),
            ),
            fmap_head=dg.sample_feature_map(hd, s["D"], seed=int(rng.integers(2**31))),
        )

    def _ops(self, c):
        """(op, gate) pairs; the gate returns (identity errors, digest arrays)."""
        p, seq, fmap = c["params"], c["seq"], c["fmap"]
        pos = len(seq)

        def attention():
            h = dg.kernel_attention(p, fmap, seq, pos)
            dual = dg.build_dual_attention(p, fmap, seq, pos)
            state = dg.descend(dual, dg.start_descent(dual), dual.n_demo)
            return h, dual, state

        def attention_gate(out):
            h, dual, state = out
            fwd = dg.dual_forward(dual)
            errs = (
                rel_err(fwd, h),
                rel_err(state.w @ dual.phi_q, h),
                rel_err(h, kernel_attention_ref(p, fmap, seq.tokens, pos)),
            )
            return errs, (h, fwd, state.w)

        def layer():
            h = dg.layer_forward(p, c["ffn"], seq, pos, fmap)
            return h, dg.build_dual_transformer(p, c["ffn"], fmap, seq, pos)

        def stack():
            h = dg.stack_forward(c["stack"], fmap, seq, pos)
            return h, dg.build_dual_stack(c["stack"], fmap, seq, pos)[-1]

        def single_gate(out):
            h, dual = out
            fwd = dg.dual_forward(dual)
            return (rel_err(fwd, h),), (h, fwd)

        def gqa():
            args = (c["gqa"], c["gcfg"], c["fmap_head"], seq, pos)
            return dg.gqa_attention(*args), dg.build_dual_gqa(*args)

        def gqa_gate(out):
            h, duals = out
            fwd = dg.dual_gqa_forward(duals)
            return (rel_err(fwd, h),), (h, fwd)

        return [(attention, attention_gate), (layer, single_gate),
                (stack, single_gate), (gqa, gqa_gate)]

    def warmup(self, clock):
        op, gate = self._ops(self.configs[0])[0]
        gate(clock(op)[1])

    def run_unit(self, k, clock):
        info = {"redraws": 0, "rel_err_max": 0.0}
        while True:
            try:
                ops = []
                for op, gate in self._ops(self.configs[k]):
                    span, out = clock(op)
                    errs, arrays = gate(out)
                    info["rel_err_max"] = max(info["rel_err_max"], *errs)
                    ok = max(errs) <= IDENTITY_TOL
                    ops.append((span.wall, span.cal, ok, _digest(*arrays)))
                return ops, info
            except NormalizationDegenerate:
                # redraw the configuration, as run_equiv does
                if self.attempt[k] + 1 >= MAX_ATTEMPTS:
                    raise
                self.attempt[k] += 1
                self.configs[k] = self._draw(k, self.attempt[k])
                info["redraws"] += 1


class LongGenerate:
    """Greedy kernel-mode generation over a large vocabulary, no mask.

    One unit is one prompt grown token by token; one op is one token.
    """

    name = "long-generate"
    FULL = dict(d=16, D=256, V=10000, n_t=14, n_d=16, leads=2, grow=224, units=4)
    TINY = dict(d=4, D=16, V=50, n_t=3, n_d=3, leads=2, grow=24, units=2)
    trace_units = 1

    def __init__(self, seed: int, tiny: bool = False):
        s = self.size = self.TINY if tiny else self.FULL
        self.units = s["units"]
        self.ops_per_unit = s["grow"]
        rng = dg.stream(seed, f"bench/{self.name}")
        d = s["d"]
        self.params = E.random_attention(rng, d, d)
        self.fmap = dg.sample_feature_map(d, s["D"], seed=int(rng.integers(2**31)))
        feedback = rng.normal(0, 1, (s["V"], d))
        feedback /= np.linalg.norm(feedback, axis=1, keepdims=True)
        self.vocab = dg.Vocabulary(rng.normal(0, 1, (s["V"], d)), feedback)
        self.prompts = [
            E.random_sequence(rng, d, s["n_t"], s["n_d"], s["leads"]) for _ in range(self.units)
        ]

    def _generate(self, k, steps, clock):
        """Generate ``steps`` tokens; per token (wall_s, calibration_s) and the trace.

        Token i runs from the call of ``forward`` that computes it to the next
        call; the calibration sample taken at the start of that call is not
        part of it."""
        stamps, cals = [], []

        def forward(seq, pos):
            stamps.append(perf_counter())
            cals.append(clock.calibrate())
            return dg.kernel_attention(self.params, self.fmap, seq, pos)

        span, trace = clock(lambda: dg.generate(forward, self.prompts[k], steps, self.vocab))
        bounds = [span.t0] + stamps[1:] + [span.t1]
        cals.append(span.c1)
        timings = []
        for i in range(len(stamps)):
            wall = bounds[i + 1] - bounds[i] - (cals[i] or 0.0)
            cal = None if cals[i] is None else (cals[i] + cals[i + 1]) / 2
            timings.append((wall, cal))
        return timings, trace

    def warmup(self, clock):
        self._generate(0, 1, clock)

    def run_unit(self, k, clock):
        timings, trace = self._generate(k, self.size["grow"], clock)
        tokens = trace.final_seq.tokens
        table = self.vocab.output_embeddings
        ops = []
        for (wall, cal), tok, h, pos in zip(timings, trace.ids, trace.hiddens, trace.positions):
            ok = (
                tok == int(np.argmax(table @ h))
                and rel_err(h, kernel_attention_ref(self.params, self.fmap, tokens, pos))
                <= IDENTITY_TOL
                and rel_err(tokens[pos], self.vocab.input_embeddings[tok]) <= 1e-12
            )
            ops.append((wall, cal, ok, _digest(np.array([tok]), h)))
        return ops, {}


class DemoSearch:
    """The m-path demonstration optimizer on the toy environment, exact mode.

    One unit is one environment seed run twice, perturbation on then off, as
    ``collapse_comparison`` pairs them; one op is one ``run_two_stage`` call.
    """

    name = "demo-search"
    trace_units = 4
    ops_per_unit = 2

    def __init__(self, seed: int, tiny: bool = False):
        self.cfg = E.ExperimentConfig(iterations=4, m=2) if tiny else E.ExperimentConfig()
        self.units = 2 if tiny else 32
        self.trace_units = min(self.trace_units, self.units)
        rng = dg.stream(seed, f"bench/{self.name}")
        self.env_seeds = [int(v) for v in rng.integers(0, 2**31, size=self.units)]
        cfg = self.cfg
        self.envs = [E.make_toy_env(s, cfg.d_i, cfg.d_o, cfg.vocab_size) for s in self.env_seeds]
        self.allowed = {0.0} | {1.0 / math.log2(p + 1) for p in range(1, cfg.steps + 1)}

    def _op(self, k, perturbation):
        ocfg = E.optimizer_config(self.cfg, perturbation, self.env_seeds[k])
        return ocfg, lambda: O.run_two_stage(ocfg, self.envs[k], generator=O.synth_generate)

    def _invariants_hold(self, ocfg, trace) -> bool:
        order = [(it, p) for it in range(1, ocfg.iterations + 1) for p in range(ocfg.m)]
        return (
            [(r.iteration, r.path) for r in trace] == order
            and all(r.effect_d in self.allowed for r in trace)
            and all(-1.0 - 1e-12 <= r.similarity <= 1.0 + 1e-12 for r in trace)
            and all(not r.perturbed or (r.collapse and ocfg.perturbation_enabled)
                    for r in trace)
        )

    def warmup(self, clock):
        clock(self._op(0, True)[1])

    def run_unit(self, k, clock):
        ops, info = [], {"records": 0, "hits": 0}
        for perturbation in (True, False):
            ocfg, op = self._op(k, perturbation)
            span, trace = clock(op)
            rows = E.trace_rows(trace)
            ops.append((span.wall, span.cal, self._invariants_hold(ocfg, trace),
                        hashlib.sha256(repr(rows).encode()).digest()))
            info["records"] += len(trace)
            info["hits"] += sum(1 for r in trace if r.effect_d > 0)
        return ops, info


WORKLOADS = {w.name: w for w in (IdentitySweep, LongGenerate, DemoSearch)}
