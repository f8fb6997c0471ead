"""Acceptance criteria for the release.

Each test prints exactly one ``ACCEPT PASS/FAIL`` line (on the real stdout,
past pytest's capture) and then asserts, so the criterion status is visible
in any run mode.
"""

import sys
import time

import numpy as np

from dualgrad.cli import main
from dualgrad.dual import (
    build_dual_attention,
    build_dual_gqa,
    build_dual_stack,
    build_dual_transformer,
    descend,
    dual_forward,
    dual_gqa_forward,
    start_descent,
    with_value_regularization,
)
from dualgrad.errors import NormalizationDegenerate
from dualgrad.experiments import ExperimentConfig, collapse_comparison, random_attention, random_sequence, run_fig7
from dualgrad.kernelmap import sample_feature_map
from dualgrad.metrics import effect_d
from dualgrad.props import gradient_error
from dualgrad.rng import stream
from dualgrad.sequence import SegmentedSequence, Tag
from dualgrad.transformer import (
    FfnParams,
    GqaConfig,
    GqaParams,
    LayerStack,
    exact_attention,
    gqa_attention,
    kernel_attention,
    layer_forward,
    split_attention,
    stack_forward,
)


def _report(capsys, criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPT {status} {criterion}: {detail}")
        sys.stdout.flush()
    assert ok, f"{criterion}: {detail}"


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def _ffn(rng, d_o, d_h):
    return FfnParams(
        rng.normal(0, 0.5, (d_o, d_h)),
        rng.normal(0, 0.5, d_o),
        rng.normal(0, 0.5, (d_h, d_o)),
        rng.normal(0, 0.5, d_h),
    )


def test_criterion_1_dual_equivalence(capsys):
    t0 = time.time()
    worst, done, seed = 0.0, 0, 0
    while done < 100:
        rng = stream(seed, "accept-1")
        seed += 1
        d_i = int(rng.integers(2, 17))
        d_o = int(rng.integers(2, 9))
        n_t = int(rng.integers(4, 21))
        n_d = int(rng.integers(2, 13))
        params = random_attention(rng, d_i, d_o)
        seq = random_sequence(rng, d_i, n_t, n_d, 2)
        fmap = sample_feature_map(d_o, 128, seed=seed)
        try:
            h = kernel_attention(params, fmap, seq, len(seq))
            dual = build_dual_attention(params, fmap, seq, len(seq))
        except NormalizationDegenerate:
            continue
        worst = max(worst, _rel(dual_forward(dual), h))
        done += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(
        capsys,
        "criterion 1 (dual equivalence)",
        ok,
        f"100 configs, max rel diff {worst:.2e} (<=1e-9), {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_engineered_demonstrations(capsys):
    t0 = time.time()
    report = run_fig7(ExperimentConfig(d_i=11, d_o=1, n_t=15, k_leads=2))
    elapsed = time.time() - t0
    terminal = max(report.terminal_se.values())
    ok = (
        report.hits["good"] == 1
        and effect_d(report.hits["good"]) == 1.0
        and report.hits["bad"] == 3
        and effect_d(report.hits["bad"]) == 0.5
        and terminal <= 1e-9
        and elapsed < 5.0
    )
    _report(
        capsys,
        "criterion 2 (engineered demonstrations)",
        ok,
        f"good hit={report.hits['good']} bad hit={report.hits['bad']} "
        f"terminal se {terminal:.1e} (<=1e-9), {elapsed:.1f}s (<5s)",
    )


def test_criterion_3_variant_duals(capsys):
    t0 = time.time()
    worst = {"transformer": 0.0, "stack": 0.0, "gqa": 0.0}
    for seed in range(50):
        rng = stream(seed, "accept-3")
        d_i, d_o, d_h = 6, 4, 9
        params = random_attention(rng, d_i, d_o)
        ffn = _ffn(rng, d_o, d_h)
        seq = random_sequence(rng, d_i, 6, 4, 2)
        fmap = sample_feature_map(d_o, 128, seed=seed)
        pos = len(seq)
        try:
            h = layer_forward(params, ffn, seq, pos, fmap)
            d = build_dual_transformer(params, ffn, fmap, seq, pos)
            worst["transformer"] = max(worst["transformer"], _rel(dual_forward(d), h))

            layers = tuple(
                (random_attention(rng, d_i if l == 0 else d_o, d_o), _ffn(rng, d_o, d_h))
                for l in range(3)
            )
            stack = LayerStack(layers)
            hs = stack_forward(stack, fmap, seq, pos)
            ds = build_dual_stack(stack, fmap, seq, pos)
            worst["stack"] = max(worst["stack"], _rel(dual_forward(ds[-1]), hs))

            cfg = GqaConfig(n=2, g=2, d_o=8)
            gp = GqaParams(
                rng.normal(0, 0.4, (cfg.heads, cfg.head_dim, d_i)),
                rng.normal(0, 0.4, (cfg.g, cfg.head_dim, d_i)),
                rng.normal(0, 0.4, (cfg.g, cfg.head_dim, d_i)),
            )
            fmap_h = sample_feature_map(cfg.head_dim, 64, seed=seed)
            hg = gqa_attention(gp, cfg, fmap_h, seq, pos)
            dg = build_dual_gqa(gp, cfg, fmap_h, seq, pos)
            worst["gqa"] = max(worst["gqa"], _rel(dual_gqa_forward(dg), hg))
        except NormalizationDegenerate:
            continue
    elapsed = time.time() - t0
    ok = max(worst.values()) <= 1e-9 and elapsed < 30.0
    _report(
        capsys,
        "criterion 3 (transformer/stack/GQA duals)",
        ok,
        "worst rel "
        + " ".join(f"{k}={v:.1e}" for k, v in worst.items())
        + f" (<=1e-9), {elapsed:.1f}s (<30s)",
    )


def test_criterion_4_gradient_check(capsys):
    worst = 0.0
    for seed in range(20):
        rng = stream(seed, "accept-4")
        params = random_attention(rng, 5, 3)
        seq = random_sequence(rng, 5, 5, 3, 2, n_per=2)
        fmap = sample_feature_map(3, 16, seed=seed)
        keep = [i for i, tag in enumerate(seq.tags) if tag is not Tag.D_PER]
        plain = SegmentedSequence(seq.tokens[keep], tuple(seq.tags[i] for i in keep))
        try:
            duals = [build_dual_attention(params, fmap, s, len(s)) for s in (seq, plain)]
        except NormalizationDegenerate:
            continue
        w = rng.normal(0, 1, duals[0].w0.shape)
        for dual in duals:
            for variant in (dual, with_value_regularization(dual, 0.4)):
                worst = max(worst, gradient_error(variant, w))
    ok = worst <= 1e-5
    _report(
        capsys,
        "criterion 4 (gradient vs finite differences)",
        ok,
        f"20 prompts, with and without perturbation tokens, x 2 variants, "
        f"max abs dev {worst:.1e} (<=1e-5)",
    )


def test_criterion_5_regularization_equivalence(capsys):
    worst = 0.0
    for seed in range(50):
        rng = stream(seed, "accept-5")
        params = random_attention(rng, 6, 4)
        seq = random_sequence(rng, 6, 6, 4, 2)
        fmap = sample_feature_map(4, 128, seed=seed)
        pos = len(seq)
        try:
            h_t, h_d = split_attention(params, fmap, seq, pos)
            base = build_dual_attention(params, fmap, seq, pos)
        except NormalizationDegenerate:
            continue
        for alpha in (0.0, 0.3, 1.0):
            dual = with_value_regularization(base, alpha)
            state = descend(dual, start_descent(dual), dual.n_demo)
            reference = (1.0 - alpha) * h_t + h_d
            worst = max(worst, float(np.max(np.abs(state.w @ dual.phi_q - reference))))
    ok = worst <= 1e-10
    _report(
        capsys,
        "criterion 5 (regularization equivalence)",
        ok,
        f"50 configs, alpha in {{0, 0.3, 1.0}}, max abs dev {worst:.1e} (<=1e-10)",
    )


def test_criterion_6_kernel_consistency(capsys):
    medians = []
    for feature_dim in (128, 1024, 4096):
        errors = []
        for seed in range(32):
            rng = stream(seed, "accept-6")
            params = random_attention(rng, 8, 6)
            seq = random_sequence(rng, 8, 10, 6, 2)  # build() normalizes rows
            fmap = sample_feature_map(6, feature_dim, seed=seed)
            pos = len(seq)
            h = exact_attention(params, seq, pos)
            try:
                hk = kernel_attention(params, fmap, seq, pos)
            except NormalizationDegenerate:
                errors.append(np.inf)
                continue
            errors.append(
                float(np.linalg.norm(hk - h) / max(np.linalg.norm(h), 1e-300))
            )
        medians.append(float(np.median(errors)))
    ok = medians[0] > medians[1] > medians[2] and medians[2] <= 0.10
    _report(
        capsys,
        "criterion 6 (kernel consistency)",
        ok,
        "median rel err "
        + " > ".join(f"{m:.4f}" for m in medians)
        + " (strictly decreasing, last <=10%)",
    )


def test_criterion_7_effect_metric(capsys):
    exact = effect_d(1) == 1.0 and effect_d(3) == 0.5
    values = [effect_d(p) for p in range(1, 1001)]
    monotone = all(a > b for a, b in zip(values, values[1:]))
    ok = exact and monotone
    _report(
        capsys,
        "criterion 7 (demonstration-effect metric)",
        ok,
        f"effect(1)={effect_d(1)} effect(3)={effect_d(3)}, monotone on 1..1000={monotone}",
    )


def test_criterion_8_collapse_mitigation(capsys):
    cfg = ExperimentConfig(m=3, iterations=15, seed=0)
    summary = collapse_comparison(cfg, n_seeds=20)
    lower_similarity = summary.sim_with < summary.sim_without
    no_worse_effect = summary.best_with >= summary.best_without
    ok = lower_similarity and no_worse_effect
    _report(
        capsys,
        "criterion 8 (collapse mitigation)",
        ok,
        f"20 paired seeds: post-collapse similarity {summary.sim_with:.4f} < "
        f"{summary.sim_without:.4f}, best effect {summary.best_with:.4f} >= "
        f"{summary.best_without:.4f}",
    )


def test_criterion_9_determinism(tmp_path, capsys):
    commands = [
        ["equiv", "--reps", "3", "--seed", "11"],
        ["equiv", "--reps", "2", "--seed", "5", "--schedule", "fractional:2", "--mode", "exact"],
        ["fig7", "--seed", "0"],
        ["optimize", "--seed", "4"],
        ["generate", "--seed", "2"],
    ]
    identical = True
    for i, cmd in enumerate(commands):
        a = tmp_path / f"{i}a.csv"
        b = tmp_path / f"{i}b.csv"
        assert main(cmd + ["--out", str(a)]) == 0
        assert main(cmd + ["--out", str(b)]) == 0
        identical = identical and a.read_bytes() == b.read_bytes()
    _report(
        capsys,
        "criterion 9 (CLI determinism)",
        identical,
        f"{len(commands)} commands re-run, byte-identical CSV output={identical}",
    )
