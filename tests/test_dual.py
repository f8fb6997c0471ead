from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgrad.dual import (
    DualModel,
    build_dual_attention,
    build_dual_gqa,
    build_dual_stack,
    build_dual_transformer,
    descend,
    dual_forward,
    dual_gqa_forward,
    grad_full,
    linear_dual_equivalence,
    loss_icl,
    start_descent,
    with_value_regularization,
)
from dualgrad.errors import InvalidDimension, InvalidParameter, NormalizationDegenerate, OverflowGuard
from dualgrad.experiments import random_attention, random_sequence
from dualgrad.kernelmap import sample_feature_map
from dualgrad.props import gradient_error
from dualgrad.rng import stream
from dualgrad.sequence import SegmentedSequence, Tag
from dualgrad.transformer import (
    FfnParams,
    GqaConfig,
    GqaParams,
    LayerStack,
    gqa_attention,
    kernel_attention,
    layer_forward,
    split_attention,
    stack_forward,
    _kernel_weights,
)


def _setup(seed, d_i=6, d_o=4, n_t=6, n_d=4, n_per=0, feature_dim=128):
    rng = stream(seed, "test-dual")
    params = random_attention(rng, d_i, d_o)
    seq = random_sequence(rng, d_i, n_t, n_d, 2, n_per=n_per)
    fmap = sample_feature_map(d_o, feature_dim, seed=seed)
    return params, seq, fmap, len(seq)


def test_dual_forward_equals_kernel_attention():
    for seed in range(10):
        params, seq, fmap, pos = _setup(seed)
        h = kernel_attention(params, fmap, seq, pos)
        dual = build_dual_attention(params, fmap, seq, pos)
        assert np.allclose(dual_forward(dual), h, atol=1e-12)


def test_constant_part_is_the_task_side():
    params, seq, fmap, pos = _setup(1)
    dual = build_dual_attention(params, fmap, seq, pos)
    h_t, h_d = split_attention(params, fmap, seq, pos)
    assert np.allclose(dual.w0 @ dual.phi_q, h_t, atol=1e-12)
    assert np.allclose(-grad_full(dual) @ dual.phi_q, h_d, atol=1e-12)


def test_one_contribution_per_demo_token():
    params, seq, fmap, pos = _setup(2, n_d=5)
    dual = build_dual_attention(params, fmap, seq, pos)
    assert dual.n_demo == 5
    total = sum(dual.contribution(i) for i in range(dual.n_demo))
    assert np.allclose(total, -grad_full(dual), atol=1e-13)


def test_perturbation_equals_concatenated_build():
    # the perturbation contributions follow the current demonstration's, as
    # in a build over the full demonstration set
    params, seq, fmap, pos = _setup(3, n_per=3)
    dual = build_dual_attention(params, fmap, seq, pos)
    direct = _dual_attention_oracle(params, fmap, seq, pos, include_per=True)
    assert dual.n_demo == 4 + 3
    assert np.allclose(dual.labels, direct.labels, atol=1e-15)
    assert np.allclose(dual.feats, direct.feats, atol=1e-15)
    assert np.allclose(dual.w0, direct.w0, atol=1e-15)


def test_perturbed_forward_matches_full_attention():
    params, seq, fmap, pos = _setup(5, n_per=2)
    h = kernel_attention(params, fmap, seq, pos)
    dual = build_dual_attention(params, fmap, seq, pos)
    assert np.allclose(dual_forward(dual), h, atol=1e-12)


def test_regularization_scales_task_values():
    # after a full alpha-regularized pass, the endpoint equals attention with
    # the task-side values scaled by (1 - alpha)
    for alpha in (0.0, 0.3, 1.0):
        params, seq, fmap, pos = _setup(6)
        h_t, h_d = split_attention(params, fmap, seq, pos)
        dual = with_value_regularization(
            build_dual_attention(params, fmap, seq, pos), alpha
        )
        state = descend(dual, start_descent(dual), dual.n_demo)
        assert np.allclose(state.w @ dual.phi_q, (1 - alpha) * h_t + h_d, atol=1e-11)


def test_regularization_bounds():
    params, seq, fmap, pos = _setup(7)
    dual = build_dual_attention(params, fmap, seq, pos)
    with pytest.raises(InvalidParameter):
        with_value_regularization(dual, -0.1)
    with pytest.raises(InvalidParameter):
        with_value_regularization(dual, 1.5)


def test_loss_gradient_finite_differences():
    params, seq, fmap, pos = _setup(8, n_per=2, feature_dim=32)
    dual = with_value_regularization(build_dual_attention(params, fmap, seq, pos), 0.3)
    w = stream(8, "fd").normal(0, 1, dual.w0.shape)
    assert gradient_error(dual, w) < 1e-5


def test_descent_schedules_share_endpoint():
    params, seq, fmap, pos = _setup(9)
    h = kernel_attention(params, fmap, seq, pos)
    dual = build_dual_attention(params, fmap, seq, pos)
    s1 = descend(dual, start_descent(dual, "per-token"), dual.n_demo)
    s2 = descend(dual, start_descent(dual, "fractional:4"), 4 * dual.n_demo)
    assert np.allclose(s1.w, s2.w, atol=1e-12)
    assert np.allclose(s1.w @ dual.phi_q, h, atol=1e-12)


def test_partial_pass_differs_from_endpoint():
    params, seq, fmap, pos = _setup(10)
    dual = build_dual_attention(params, fmap, seq, pos)
    state = descend(dual, start_descent(dual), dual.n_demo - 1)
    assert not np.allclose(state.w, dual.w0 - grad_full(dual), atol=1e-9)


def test_descent_logs_squared_error():
    params, seq, fmap, pos = _setup(11)
    h = kernel_attention(params, fmap, seq, pos)
    dual = build_dual_attention(params, fmap, seq, pos)
    state = descend(dual, start_descent(dual), dual.n_demo, reference=h)
    assert [s for s, _ in state.se_log] == list(range(1, dual.n_demo + 1))
    assert state.se_log[-1][1] < 1e-18


def test_schedule_validation():
    params, seq, fmap, pos = _setup(12)
    dual = build_dual_attention(params, fmap, seq, pos)
    with pytest.raises(InvalidParameter):
        start_descent(dual, "fractional:0")
    with pytest.raises(InvalidParameter):
        start_descent(dual, "adam")
    with pytest.raises(InvalidParameter):
        descend(dual, start_descent(dual), -1)


@pytest.mark.parametrize(
    "schedule", ["fractional:abc", "fractional:", "fractional:-2", "fractional:1.5"]
)
def test_schedule_non_integer_s_is_invalid_parameter(schedule):
    params, seq, fmap, pos = _setup(12)
    dual = build_dual_attention(params, fmap, seq, pos)
    with pytest.raises(InvalidParameter):
        start_descent(dual, schedule)


def test_rebuild_after_appending_a_lead_token_is_exact():
    params, seq, fmap, pos = _setup(13)
    extended = seq.append(stream(13, "tok").normal(0, 1, seq.dim))
    assert extended.tags[-1] is Tag.T_LEAD
    dual = build_dual_attention(params, fmap, extended, len(extended))
    h = kernel_attention(params, fmap, extended, len(extended))
    assert np.allclose(dual_forward(dual), h, atol=1e-12)


def test_dual_forward_validates_query_features():
    params, seq, fmap, pos = _setup(14)
    dual = build_dual_attention(params, fmap, seq, pos)
    with pytest.raises(InvalidDimension):
        dual_forward(dual, np.ones(dual.phi_q.shape[0] + 1))
    with pytest.raises(InvalidDimension):
        loss_icl(dual, np.zeros((1, 1)))


# ---------------------------------------------------------------------------
# transformer / stack / grouped-query variants


def _ffn(rng, d_o, d_h):
    return FfnParams(
        rng.normal(0, 0.5, (d_o, d_h)),
        rng.normal(0, 0.5, d_o),
        rng.normal(0, 0.5, (d_h, d_o)),
        rng.normal(0, 0.5, d_h),
    )


def test_transformer_dual_matches_layer_forward():
    for seed in range(5):
        params, seq, fmap, pos = _setup(seed + 20)
        ffn = _ffn(stream(seed, "ffn"), params.d_o, 9)
        h = layer_forward(params, ffn, seq, pos, fmap)
        dual = build_dual_transformer(params, ffn, fmap, seq, pos)
        assert np.allclose(dual_forward(dual), h, atol=1e-11)


def test_stack_dual_matches_stack_forward():
    rng = stream(30, "stack")
    d_i, d_o, d_h = 6, 4, 9
    layers = tuple(
        (random_attention(rng, d_i if l == 0 else d_o, d_o), _ffn(rng, d_o, d_h))
        for l in range(3)
    )
    stack = LayerStack(layers)
    seq = random_sequence(rng, d_i, 6, 4, 2)
    fmap = sample_feature_map(d_o, 128, seed=30)
    pos = len(seq)
    h = stack_forward(stack, fmap, seq, pos)
    duals = build_dual_stack(stack, fmap, seq, pos)
    assert len(duals) == 3
    assert np.allclose(dual_forward(duals[-1]), h, atol=1e-10)


def test_gqa_dual_matches_gqa_attention():
    rng = stream(31, "gqa")
    d_i = 6
    cfg = GqaConfig(n=2, g=2, d_o=8)
    H, hd, g = cfg.heads, cfg.head_dim, cfg.g
    params = GqaParams(
        rng.normal(0, 0.4, (H, hd, d_i)),
        rng.normal(0, 0.4, (g, hd, d_i)),
        rng.normal(0, 0.4, (g, hd, d_i)),
    )
    seq = random_sequence(rng, d_i, 6, 4, 2)
    fmap = sample_feature_map(hd, 64, seed=31)
    pos = len(seq)
    h = gqa_attention(params, cfg, fmap, seq, pos)
    duals = build_dual_gqa(params, cfg, fmap, seq, pos)
    assert len(duals) == H
    assert np.allclose(dual_gqa_forward(duals), h, atol=1e-12)


def test_gqa_dual_with_mixing_matrices():
    rng = stream(32, "gqa")
    d_i = 5
    w_concat = rng.normal(0, 0.5, (2, 3, 3))
    cfg = GqaConfig(n=1, g=2, d_o=6, w_concat=w_concat)
    params = GqaParams(
        rng.normal(0, 0.4, (2, 3, d_i)),
        rng.normal(0, 0.4, (2, 3, d_i)),
        rng.normal(0, 0.4, (2, 3, d_i)),
    )
    seq = random_sequence(rng, d_i, 5, 3, 2)
    fmap = sample_feature_map(3, 64, seed=32)
    pos = len(seq)
    assert np.allclose(
        dual_gqa_forward(build_dual_gqa(params, cfg, fmap, seq, pos)),
        gqa_attention(params, cfg, fmap, seq, pos),
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# one DualModel constructor: the per-builder assembly it replaced, as oracles


def _demo_columns_oracle(seq, query_pos, include_per):
    task, demo = [], []
    for i in range(query_pos - 1):
        tag = seq.tags[i]
        if tag in (Tag.T_INSTR, Tag.T_LEAD):
            task.append(i)
        elif tag is Tag.D_CURR or (tag is Tag.D_PER and include_per):
            demo.append(i)
    return np.array(task, dtype=int), np.array(demo, dtype=int)


def _dual_attention_oracle(params, fmap, seq, query_pos, alpha=0.0, include_per=False):
    values, feat_keys, feat_q, _, c = _kernel_weights(params, fmap, seq, query_pos)
    task, demo = _demo_columns_oracle(seq, query_pos, include_per)
    w0 = c * values[:, task] @ feat_keys[:, task].T
    return DualModel(
        w0=w0, labels=c * values[:, demo], feats=feat_keys[:, demo], phi_q=feat_q, c=c,
        alpha=alpha,
    )


def _with_perturbation_oracle(dual, params, fmap, seq, query_pos):
    per = [i for i in range(query_pos - 1) if seq.tags[i] is Tag.D_PER]
    if not per:
        return dual
    values, feat_keys, _, _, _ = _kernel_weights(params, fmap, seq, query_pos)
    per = np.array(per, dtype=int)
    return replace(
        dual,
        labels=np.hstack([dual.labels, dual.c * values[:, per]]),
        feats=np.hstack([dual.feats, feat_keys[:, per]]),
    )


def _dual_transformer_oracle(params, ffn, fmap, seq, query_pos):
    values, feat_keys, feat_q, _, c = _kernel_weights(params, fmap, seq, query_pos)
    h_ref = c * values @ (feat_keys.T @ feat_q)
    if ffn.activation == "identity":
        sigma = np.ones(ffn.d_h)
    else:
        sigma = (ffn.w2 @ h_ref + ffn.b2 > 0).astype(float)
    w_hat = c * (ffn.w1 * sigma) @ ffn.w2
    bias = ffn.b1 + ffn.w1 @ (sigma * ffn.b2)
    task, demo = _demo_columns_oracle(seq, query_pos, include_per=True)
    return DualModel(
        w0=w_hat @ values[:, task] @ feat_keys[:, task].T,
        labels=w_hat @ values[:, demo],
        feats=feat_keys[:, demo],
        phi_q=feat_q,
        c=c,
        bias=bias,
    )


def _dual_gqa_oracle(params, cfg, fmap, seq, query_pos):
    duals = []
    for s in range(cfg.heads):
        values, feat_keys, feat_q, _, c = _kernel_weights(params.head(cfg, s), fmap, seq, query_pos)
        task, demo = _demo_columns_oracle(seq, query_pos, include_per=True)
        mix = cfg.mix(s)
        duals.append(
            DualModel(
                w0=c * mix @ values[:, task] @ feat_keys[:, task].T,
                labels=c * mix @ values[:, demo],
                feats=feat_keys[:, demo],
                phi_q=feat_q,
                c=c,
            )
        )
    return duals


_ARRAYS = ("w0", "labels", "feats", "phi_q")


def _assert_bitwise(a, b):
    for name in _ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert (a.c, a.alpha) == (b.c, b.alpha)
    assert (a.bias is None) == (b.bias is None)
    if a.bias is not None:
        assert a.bias.tobytes() == b.bias.tobytes()


def _assert_close(a, b, rel=1e-12):
    for name in (*_ARRAYS, "bias"):
        x, y = getattr(a, name), getattr(b, name)
        if y is None:
            assert x is None
            continue
        assert x.shape == y.shape, name
        assert np.max(np.abs(x - y), initial=0.0) <= rel * max(1.0, np.max(np.abs(y), initial=0.0))
    assert abs(a.c - b.c) <= rel * abs(b.c)


def _built(oracle, build):
    """(build(), oracle()), or None when both raise NormalizationDegenerate."""
    try:
        want = oracle()
    except NormalizationDegenerate:
        with pytest.raises(NormalizationDegenerate):
            build()
        return None
    return build(), want


@st.composite
def _prompts(draw, min_per=0):
    """(rng, d_i, d_o, sequence, query_pos), with odd d_o, empty segments (n_demo = 0),
    perturbation tokens (at least ``min_per``) and query_pos = 2 among the draws."""
    seed = draw(st.integers(0, 2**16))
    d_i, d_o = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    sizes = [draw(st.integers(lo, 4)) for lo in (0, 0, min_per, 1)]  # instr, demo, per, leads
    rng = np.random.default_rng(seed)
    seq = SegmentedSequence.build(
        *(rng.normal(0, 1, (n, d_i)) for n in (sizes[0], sizes[1])),
        rng.normal(0, 1, (sizes[3], d_i)),
        per=rng.normal(0, 1, (sizes[2], d_i)),
        normalize=True,
    )
    if len(seq) < 2:
        seq = seq.append(rng.normal(0, 1, d_i))
    query_pos = draw(st.integers(2, len(seq)))
    return rng, d_i, d_o, seq, query_pos


@settings(max_examples=80, deadline=None)
@given(case=_prompts(), alpha=st.sampled_from([0.0, 1.0]))
def test_dual_attention_is_bitwise_the_per_builder_oracle(case, alpha):
    # the oracle is the former two-step path: current demonstration first,
    # perturbation columns appended afterwards
    rng, d_i, d_o, seq, pos = case
    params = random_attention(rng, d_i, d_o)
    fmap = sample_feature_map(d_o, 32, seed=int(rng.integers(1 << 30)))
    built = _built(
        lambda: _with_perturbation_oracle(
            _dual_attention_oracle(params, fmap, seq, pos, alpha), params, fmap, seq, pos
        ),
        lambda: with_value_regularization(build_dual_attention(params, fmap, seq, pos), alpha),
    )
    if built is not None:
        _assert_bitwise(*built)


@settings(max_examples=60, deadline=None)
@given(case=_prompts(), activation=st.sampled_from(["relu", "identity"]), d_h=st.integers(1, 5))
def test_dual_transformer_matches_the_per_builder_oracle(case, activation, d_h):
    rng, d_i, d_o, seq, pos = case
    params = random_attention(rng, d_i, d_o)
    ffn = replace(_ffn(rng, d_o, d_h), activation=activation)
    fmap = sample_feature_map(d_o, 32, seed=int(rng.integers(1 << 30)))
    built = _built(
        lambda: _dual_transformer_oracle(params, ffn, fmap, seq, pos),
        lambda: build_dual_transformer(params, ffn, fmap, seq, pos),
    )
    if built is not None:
        _assert_close(*built)


@settings(max_examples=60, deadline=None)
@given(
    case=_prompts(),
    n=st.integers(1, 3),
    g=st.integers(1, 3),
    head_dim=st.sampled_from([1, 2, 3]),
    mixed=st.booleans(),
)
def test_dual_gqa_matches_the_per_builder_oracle(case, n, g, head_dim, mixed):
    rng, d_i, _, seq, pos = case
    heads = n * g
    w_concat = rng.normal(0, 0.5, (heads, head_dim, head_dim)) if mixed else None
    cfg = GqaConfig(n=n, g=g, d_o=heads * head_dim, w_concat=w_concat)
    params = GqaParams(*(rng.normal(0, 0.4, (k, head_dim, d_i)) for k in (heads, g, g)))
    fmap = sample_feature_map(head_dim, 32, seed=int(rng.integers(1 << 30)))
    built = _built(
        lambda: _dual_gqa_oracle(params, cfg, fmap, seq, pos),
        lambda: build_dual_gqa(params, cfg, fmap, seq, pos),
    )
    if built is None:
        return
    got, want = built
    assert len(got) == len(want) == heads
    for a, b in zip(got, want):
        _assert_close(a, b)


def _forward_pairs(case):
    """(dual output, forward output) of plain attention, a transformer layer, a
    2-layer stack and a grouped-query layer on one prompt; None for a pair
    whose forward trips a numerical guard."""
    rng, d_i, d_o, seq, pos = case
    params = random_attention(rng, d_i, d_o)
    ffn = FfnParams(*(rng.normal(0, 0.5, shape) for shape in ((d_o, 3), d_o, (3, d_o), 3)))
    stack = LayerStack(((params, ffn), (random_attention(rng, d_o, d_o), ffn)))
    gcfg = GqaConfig(n=2, g=1, d_o=2 * d_o)  # two query heads share one key group
    gqa = GqaParams(*(rng.normal(0, 0.4, (k, d_o, d_i)) for k in (2, 1, 1)))
    fmap = sample_feature_map(d_o, 64, seed=int(rng.integers(1 << 30)))
    pairs = [
        lambda: (dual_forward(build_dual_attention(params, fmap, seq, pos)),
                 kernel_attention(params, fmap, seq, pos)),
        lambda: (dual_forward(build_dual_transformer(params, ffn, fmap, seq, pos)),
                 layer_forward(params, ffn, seq, pos, fmap)),
        lambda: (dual_forward(build_dual_stack(stack, fmap, seq, pos)[-1]),
                 stack_forward(stack, fmap, seq, pos)),
        lambda: (dual_gqa_forward(build_dual_gqa(gqa, gcfg, fmap, seq, pos)),
                 gqa_attention(gqa, gcfg, fmap, seq, pos)),
    ]
    for pair in pairs:
        try:
            yield pair()
        except (NormalizationDegenerate, OverflowGuard):
            yield None


@settings(max_examples=80, deadline=None)
@given(case=_prompts(min_per=1))
def test_every_dual_reproduces_its_forward_on_perturbation_prompts(case):
    # the forward attends over the perturbation tokens, so every builder's
    # dual carries their terms
    for pair in _forward_pairs(case):
        if pair is not None:
            got, want = pair
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# plain linear model duality


def test_linear_duality_identity():
    rng = stream(40, "lin")
    w0 = rng.normal(0, 1, (4, 6))
    xs = rng.normal(0, 1, (6, 9))
    es = rng.normal(0, 1, (4, 9))
    lhs, rhs = linear_dual_equivalence(w0, xs, es, rng.normal(0, 1, 6))
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_linear_duality_shape_check():
    with pytest.raises(InvalidDimension):
        linear_dual_equivalence(
            np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 4)), np.zeros(2)
        )
