"""Self-contained invariant suites behind the ``props`` subcommand.

Each suite yields one (ok, message) pair per case; the message describes
the case's failure.  The ``inject_fault`` hook exists so the harness itself
can be shown to catch a broken identity (it flips the sign of the analytic
gradient inside the gradient suite).
"""

import numpy as np

from .dual import (
    build_dual_attention,
    descend,
    dual_forward,
    linear_dual_equivalence,
    loss_icl,
    start_descent,
    with_value_regularization,
)
from .errors import InvalidConfig, NormalizationDegenerate
from .experiments import random_attention, random_sequence
from .kernelmap import phi, sample_feature_map
from .metrics import effect_d
from .rng import stream
from .transformer import exact_attention, kernel_attention, rope, split_attention


def _draw(seed, n_per=0):
    # d_i = 6, d_o = 4; 6 instruction, 4 demonstration and 2 lead tokens; 64 features
    rng = stream(seed, "props")
    params = random_attention(rng, 6, 4)
    seq = random_sequence(rng, 6, 6, 4, 2, n_per=n_per)
    fmap = sample_feature_map(4, 64, seed=seed)
    return params, seq, fmap, len(seq)


def suite_kernelmap():
    for i in range(50):
        rng = stream(i, "props-kernel")
        fmap = sample_feature_map(4, 64, seed=i)
        x = rng.normal(0, 0.5, 4)
        f = phi(fmap, x)
        norm_ok = abs(float(f @ f) - np.exp(x @ x) / 2) <= 1e-10 * np.exp(x @ x)
        yield norm_ok, f"kernel norm identity failed at case {i}"


def rope_group_error(m: int, n: int, d: int) -> float:
    """Max |R_m' R_n - R_{n-m}| entry, with R_{n-m} = R_{m-n}' when n < m."""
    lhs = rope(m, d).T @ rope(n, d)
    rhs = rope(n - m, d) if n >= m else rope(m - n, d).T
    return float(np.max(np.abs(lhs - rhs)))


def suite_rope():
    for m, n in [(1, 1), (17, 4), (511, 212), (3, 300)]:
        yield rope_group_error(m, n, 8) <= 1e-12, f"rope group law failed for (m={m}, n={n})"


def suite_attention():
    for i in range(25):
        try:
            params, seq, fmap, pos = _draw(i)
            h = kernel_attention(params, fmap, seq, pos)
            h_t, h_d = split_attention(params, fmap, seq, pos)
            exact_attention(params, seq, pos)  # must not raise
        except NormalizationDegenerate:
            yield True, ""  # an explicitly signalled degenerate draw is not a failure
            continue
        ok = np.max(np.abs(h_t + h_d - h)) <= 1e-12 * max(1.0, np.max(np.abs(h)))
        yield ok, f"split recomposition failed at case {i}"


def gradient_error(dual, w, flip_sign=False) -> float:
    """Max |central-difference gradient - analytic gradient| of loss_icl at w.

    The step is 1e-5; ``flip_sign`` negates the analytic side (the grad-sign fault).
    """
    analytic = -(dual.labels @ dual.feats.T) + dual.alpha * w
    if flip_sign:
        analytic = -analytic
    num = np.zeros_like(w)
    hstep = 1e-5
    for idx in np.ndindex(w.shape):
        wp, wm = w.copy(), w.copy()
        wp[idx] += hstep
        wm[idx] -= hstep
        num[idx] = (loss_icl(dual, wp) - loss_icl(dual, wm)) / (2 * hstep)
    return float(np.max(np.abs(num - analytic)))


def suite_dual(inject_fault=""):
    for i in range(25):
        try:
            params, seq, fmap, pos = _draw(i, n_per=2)
            h = kernel_attention(params, fmap, seq, pos)
            dual = build_dual_attention(params, fmap, seq, pos)
        except NormalizationDegenerate:
            yield True, ""
            continue
        f = dual_forward(dual)
        if np.max(np.abs(f - h)) > 1e-9 * max(1.0, np.max(np.abs(h))):
            yield False, f"dual/forward mismatch at case {i}"
            continue
        # gradient vs central finite differences
        rng = stream(i, "props-dual-w")
        w = rng.normal(0, 1, dual.w0.shape)
        dual_r = with_value_regularization(dual, 0.3)
        if gradient_error(dual_r, w, flip_sign=inject_fault == "grad-sign") > 1e-5:
            yield False, f"gradient check failed at case {i}"
            continue
        # schedule independence
        s1 = descend(dual, start_descent(dual, "per-token"), dual.n_demo)
        s2 = descend(dual, start_descent(dual, "fractional:3"), 3 * dual.n_demo)
        yield np.max(np.abs(s1.w - s2.w)) <= 1e-10, f"schedule endpoint mismatch at case {i}"


def suite_linear_duality():
    for i in range(20):
        rng = stream(i, "props-linear")
        w0 = rng.normal(0, 1, (5, 5))
        xs = rng.normal(0, 1, (5, 8))
        es = rng.normal(0, 1, (5, 8))
        lhs, rhs = linear_dual_equivalence(w0, xs, es, rng.normal(0, 1, 5))
        ok = np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))
        yield ok, f"linear duality failed at case {i}"


def suite_metrics():
    checks = [
        abs(effect_d(1) - 1.0) < 1e-15,
        abs(effect_d(3) - 0.5) < 1e-15,
        all(effect_d(p) > effect_d(p + 1) for p in range(1, 1000)),
        effect_d(None) == 0.0,
    ]
    for i, ok in enumerate(checks):
        yield ok, f"metric check {i} failed"


def run_all(inject_fault: str = ""):
    """Run every suite; returns (all_passed, report_lines)."""
    if inject_fault not in ("", "grad-sign"):  # no fault, or a fault ``suite_dual`` injects
        raise InvalidConfig(f"unknown inject_fault {inject_fault!r}")
    suites = {
        "kernelmap": suite_kernelmap(),
        "rope": suite_rope(),
        "attention": suite_attention(),
        "dual": suite_dual(inject_fault),
        "linear-duality": suite_linear_duality(),
        "metrics": suite_metrics(),
    }
    lines = []
    all_passed = True
    for name, suite in suites.items():
        results = list(suite)
        msgs = [msg for ok, msg in results if not ok]
        status = "FAIL" if msgs else "PASS"
        lines.append(f"{status} {name}: {len(results) - len(msgs)} passed, {len(msgs)} failed")
        lines.extend(f"  {m}" for m in msgs)
        all_passed = all_passed and not msgs
    return all_passed, lines
