import re
from contextlib import ExitStack, suppress
from dataclasses import astuple, replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import dualgrad.dual as dual_module
import dualgrad.kernelmap as kernelmap_module
import dualgrad.transformer as transformer_module
from dualgrad.dual import (
    build_dual_attention,
    build_dual_gqa,
    build_dual_stack,
    build_dual_transformer,
    dual_gqa_forward,
)
from dualgrad.errors import (
    EmptyCandidateSet,
    InvalidDimension,
    InvalidIndex,
    InvalidParameter,
    NormalizationDegenerate,
    OverflowGuard,
)
from dualgrad.experiments import random_attention, random_sequence
from dualgrad.kernelmap import (
    MAX_SQ_NORM,
    FourierFeatureMap,
    matvecs,
    phi,
    phi_matrix,
    sample_feature_map,
)
from dualgrad.props import rope_group_error
from dualgrad.rng import stream
from dualgrad.sequence import SegmentedSequence, Tag
from dualgrad.transformer import (
    AttentionParams,
    FfnParams,
    GqaConfig,
    GqaParams,
    LayerStack,
    Vocabulary,
    decode,
    exact_attention,
    exact_attention_batch,
    generate,
    gqa_attention,
    kernel_attention,
    layer_forward,
    rope,
    split_attention,
    stack_forward,
    stack_trace,
)
from dualgrad.transformer import (
    _FEATURES,
    _check_pos,
    _featurize,
    _pick,
    _qkv,
    _rope_table,
    _rotate,
    _screen_table,
)


def _draw(seed, d_i=6, d_o=4, n_t=6, n_d=4):
    rng = stream(seed, "test-transformer")
    params = random_attention(rng, d_i, d_o)
    seq = random_sequence(rng, d_i, n_t, n_d, 2)
    return params, seq


# ---------------------------------------------------------------------------
# rotary positions


def test_rope_two_dim_oracle():
    # for d = 2 the single block rotates by exactly `position` radians
    for pos in (0, 1, 5, 13):
        theta = float(pos)
        expected = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        assert np.allclose(rope(pos, 2), expected, atol=1e-15)


def test_rope_identity_at_zero():
    assert np.array_equal(rope(0, 8), np.eye(8))


def test_rope_odd_dim_fixes_last_coordinate():
    r = rope(7, 5)
    assert r[4, 4] == 1.0
    assert np.allclose(r[4, :4], 0.0) and np.allclose(r[:4, 4], 0.0)


def test_rope_is_orthogonal():
    r = rope(9, 6)
    assert np.allclose(r.T @ r, np.eye(6), atol=1e-14)


def test_rope_frequency_spectrum():
    # block j rotates by pos * base^{-2j/d}: later blocks move slower
    r = rope(1, 6)
    angles = [np.arctan2(r[2 * b + 1, 2 * b], r[2 * b, 2 * b]) for b in range(3)]
    assert angles[0] > angles[1] > angles[2] > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 400), st.integers(0, 400))
def test_rope_group_law(m, n):
    assert rope_group_error(m, n, 8) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 5, 6, 8]),
    st.lists(st.integers(0, 5000), min_size=0, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_rotate_matches_dense_rope(d, positions, seed):
    positions = [0] + positions
    x = np.random.default_rng(seed).normal(0, 3, (d, len(positions)))
    got = np.hstack([_rotate(x[:, i : i + 1], p) for i, p in enumerate(positions)])
    assert np.array_equal(got[:, 0], x[:, 0])  # position 0 is the identity
    for i, p in enumerate(positions):
        want = rope(p, d) @ x[:, i]
        assert np.linalg.norm(got[:, i] - want) <= 1e-12 * np.linalg.norm(want)
    if d % 2:
        assert np.array_equal(got[-1], x[-1])


def _rotate_oracle(x, positions):
    """The former ``_rotate``: cos and sin of the given positions, computed afresh.

    The base is RoFormer's 10000, the one base the library rotates with.
    """
    d = x.shape[-2]
    half = d // 2
    angles = np.outer(10000.0 ** (-2.0 * np.arange(half) / d), positions)
    c, s = np.cos(angles), np.sin(angles)
    even, odd = x[..., 0 : 2 * half : 2, :], x[..., 1 : 2 * half : 2, :]
    out = x.copy()
    out[..., 0 : 2 * half : 2, :] = c * even - s * odd
    out[..., 1 : 2 * half : 2, :] = s * even + c * odd
    return out


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 33),
    first=st.integers(0, 3000),
    n=st.integers(0, 80),
    batch=st.sampled_from([(), (3,)]),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=33, first=3000, n=80, batch=(3,), seed=0)  # the far end, batched
def test_rotate_is_bitwise_the_positions_oracle(d, first, n, batch, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 3, (*batch, d, n))
    early = rng.normal(0, 3, (*batch, d, 3))
    _rope_table.cache_clear()
    try:
        before = _rotate(early, 1)  # a table of positions 0..3
        got = _rotate(x, first)  # a larger table when first + n > 4
        want = _rotate_oracle(x, np.arange(first, first + n))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # the larger tables keep the bits of the slices the smaller one gave
        assert _rotate(early, 1).tobytes() == before.tobytes()
    finally:  # a table of 4,096 positions would otherwise stay for the session
        _rope_table.cache_clear()


def test_rope_tables_are_cached_per_power_of_two_and_read_only():
    _rope_table.cache_clear()
    try:
        _rotate(np.ones((4, 5)), 0)  # positions 0..4: the table of 8
        _rotate(np.ones((4, 1)), 7)  # position 7: the same table
        _rotate(np.ones((4, 1)), 8)  # position 8: a table of 16 beside it
        _rotate(np.ones((4, 30)), 0)  # positions 0..29: a table of 32
        _rotate(np.ones((3, 1)), 0)  # position 0 of another dimension: a table of 1
        assert _rope_table.cache_info()[:2] == (1, 4)  # hits, misses
        for d, size in [(4, 8), (4, 16), (4, 32), (3, 1)]:
            cos, sin, swap = _rope_table(d, size)  # a hit each: no table is built
            assert cos.shape == sin.shape == (d, size) and swap.shape == (d,)
            for t in (cos, sin, swap):
                with pytest.raises(ValueError):
                    t[0] = 0
        assert _rope_table.cache_info()[:2] == (5, 4)
    finally:  # later tests start from no tables
        _rope_table.cache_clear()


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 9),
    first=st.integers(0, 40),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=5, first=0, n=3, seed=0)
def test_rotate_keeps_the_oracles_bits_on_signed_zeros(d, first, n, seed):
    rng = np.random.default_rng(seed)
    zeros = rng.choice([0.0, -0.0], (d, n))
    x = np.where(rng.random((d, n)) < 0.5, zeros, rng.normal(0, 3, (d, n)))
    got = _rotate(x, first)
    assert got.tobytes() == _rotate_oracle(x, np.arange(first, first + n)).tobytes()
    if d % 2:  # odd d: the last row is x's, -0.0 included
        assert got[-1].tobytes() == x[-1].tobytes()
    # position 0 is the identity bit for bit without -0.0 entries; with them it
    # need not be, in the oracle too: a = b = -0.0 gives c a - s b = +0.0
    plus = x[:, :1] + 0.0
    assert _rotate(plus, 0).tobytes() == plus.tobytes()


def test_rope_validation():
    with pytest.raises(InvalidParameter):
        rope(-1, 4)
    with pytest.raises(InvalidDimension):
        rope(1, 0)


# ---------------------------------------------------------------------------
# attention


def test_exact_attention_matches_manual_softmax():
    params, seq = _draw(0)
    pos = len(seq)
    x = seq.tokens
    scores = []
    vals = []
    for i in range(pos - 1):
        k = rope(i + 1, params.d_o) @ (params.w_k @ x[i])
        q = rope(pos, params.d_o) @ (params.w_q @ x[pos - 1])
        scores.append(k @ q / np.sqrt(params.d_o))
        vals.append(params.w_v @ x[i])
    w = np.exp(np.array(scores))
    w /= w.sum()
    expected = np.array(vals).T @ w
    assert np.allclose(exact_attention(params, seq, pos), expected, atol=1e-12)


def test_query_token_is_excluded():
    # replacing the token *after* the query position must not change the output
    params, seq = _draw(1)
    pos = len(seq) - 1
    h = exact_attention(params, seq, pos)
    other = seq.truncate(pos)
    assert np.allclose(exact_attention(params, other, pos), h, atol=1e-15)


def _qkv_oracle(params, seq, query_pos, project=lambda w, rows: w @ rows.T):
    """The former ``_qkv``: keys and query rotated by two separate calls.

    ``project(w, rows)`` gives the (d_o, n) context columns: by default one 2-D gemm
    of width n, whose columns may round differently from ``_project``'s rows.
    """
    context = seq.tokens[: query_pos - 1]
    keys = _rotate_oracle(project(params.w_k, context), np.arange(1, query_pos))
    q = params.w_q @ seq.tokens[query_pos - 1]
    q = _rotate_oracle(q[:, None], [query_pos])[:, 0]
    return keys, project(params.w_v, context), q


def _row_project_oracle(w, rows):
    """C-contiguous (d_o, n) columns W x, each row x projected alone in ``_project``'s
    call form: a stacked gemm over a transposed (1, 64, d_i) block, zero but for x."""
    cols = np.empty((len(w), len(rows)))
    for i, x in enumerate(rows):
        block = np.zeros((1, 64, len(x)))
        block[0, 0] = x
        cols[:, i] = np.matmul(w, block.transpose(0, 2, 1))[0, :, 0]
    return cols


def _stacked_qkv_oracle(params, tokens):
    """``_qkv_oracle`` by rows of each prompt in a (B, N, d_i) block, stacked as ``_qkv`` stacks."""
    parts = [_qkv_oracle(params, SimpleNamespace(tokens=t), len(t), _row_project_oracle)
             for t in tokens]
    keys, values, q = (np.stack(x) for x in zip(*parts))
    return keys, values, q[:, :, None]


def _assert_close(got, want):
    """The north star's bound for algebraic rewrites: 1e-12 relative error."""
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    d_o=st.sampled_from([1, 2, 3, 4, 5, 7, 8]),
    n=st.integers(2, 48),
    pos_draw=st.integers(0, 10**6),
)
@example(seed=0, d_o=1, n=2, pos_draw=0)
@example(seed=1, d_o=5, n=48, pos_draw=0)  # query_pos = 2 in a long prompt
@example(seed=2, d_o=6, n=48, pos_draw=46)
def test_exact_attention_is_bitwise_the_two_rotation_oracle(seed, d_o, n, pos_draw):
    rng = stream(seed, "qkv")
    params = random_attention(rng, 5, d_o)
    seq = random_sequence(rng, 5, n - 1, 0, 1)
    pos = 2 + pos_draw % (n - 1)
    keys, values, q = _qkv(params, seq.tokens[None, :pos])
    assert keys.flags.c_contiguous and values.flags.c_contiguous and q.flags.c_contiguous
    got = (keys[0], values[0], q[0, :, 0])
    for g, want in zip(got, _qkv_oracle(params, seq, pos, _row_project_oracle)):
        assert g.shape == want.shape and g.tobytes() == want.tobytes()
    for g, want in zip(got, _qkv_oracle(params, seq, pos)):
        _assert_close(g, want)
    with mock.patch.object(transformer_module, "_qkv", _stacked_qkv_oracle):
        want = exact_attention(params, seq, pos)
    assert exact_attention(params, seq, pos).tobytes() == want.tobytes()


def _exact_attention_oracle(params, seq, query_pos, project=lambda w, rows: w @ rows.T):
    """The former per-prompt ``exact_attention``: 2-D products, one prompt per call.

    ``project`` gives the context columns, as in ``_qkv_oracle``.
    """
    context = seq.tokens[: query_pos - 1]
    block = np.empty((params.d_o, query_pos))
    block[:, :-1] = project(params.w_k, context)
    block[:, -1] = params.w_q @ seq.tokens[query_pos - 1]
    block = _rotate_oracle(block, np.arange(1, query_pos + 1))
    keys, q = np.ascontiguousarray(block[:, :-1]), block[:, -1].copy()
    values = project(params.w_v, context)
    scores = keys.T @ q / np.sqrt(params.d_o)
    scores -= scores.max()
    w = np.exp(scores)
    w /= w.sum()
    return values @ w


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    d_i=st.integers(1, 9),
    d_o=st.integers(1, 8),
    lengths=st.lists(st.integers(2, 40), min_size=1, max_size=8),
    pos_draw=st.integers(0, 10**6),
)
@example(seed=0, d_i=5, d_o=3, lengths=[2, 30, 9], pos_draw=0)  # query_pos = 2
@example(seed=1, d_i=8, d_o=7, lengths=[40] * 8, pos_draw=38)
def test_batched_exact_attention_is_bitwise_the_per_prompt_oracle(
    seed, d_i, d_o, lengths, pos_draw
):
    rng = stream(seed, "batch")
    params = random_attention(rng, d_i, d_o)
    seqs = [random_sequence(rng, d_i, n - 1, 0, 1) for n in lengths]
    pos = 2 + pos_draw % (min(lengths) - 1)
    # prompts of different lengths, cut at one query position inside a wider buffer
    buf = np.zeros((len(seqs), max(lengths) + 3, d_i))
    for b, seq in enumerate(seqs):
        buf[b, : len(seq)] = seq.tokens
    got = exact_attention_batch(params, buf[:, :pos])
    assert got.shape == (len(seqs), d_o)
    for row, seq in zip(got, seqs):
        want = _exact_attention_oracle(params, seq, pos, _row_project_oracle)
        assert row.tobytes() == want.tobytes()
        assert exact_attention(params, seq, pos).tobytes() == want.tobytes()
        _assert_close(row, _exact_attention_oracle(params, seq, pos))


def test_an_empty_block_has_no_rows():
    params = random_attention(stream(0, "batch"), 3, 2)
    assert exact_attention_batch(params, np.ones((0, 5, 3))).shape == (0, 2)


def test_batched_exact_attention_validates_the_block():
    params = random_attention(stream(0, "batch"), 3, 2)
    for shape in ((2, 1, 3), (4, 3)):
        with pytest.raises(InvalidIndex):
            exact_attention_batch(params, np.ones(shape))


def test_kernel_attention_approximates_exact():
    params, seq = _draw(2)
    pos = len(seq)
    h = exact_attention(params, seq, pos)
    fmap = sample_feature_map(params.d_o, 8192, seed=5)
    hk = kernel_attention(params, fmap, seq, pos)
    rel = np.linalg.norm(hk - h) / np.linalg.norm(h)
    assert rel < 0.05


def test_kernel_attention_invariant_to_feature_rescaling():
    # the normalization c absorbs any constant rescaling of phi
    params, seq = _draw(3)
    pos = len(seq)
    fmap = sample_feature_map(params.d_o, 128, seed=1)
    h = kernel_attention(params, fmap, seq, pos)
    import dataclasses

    scaled = dataclasses.replace(fmap, frequencies=fmap.frequencies.copy())
    # same frequencies -> same features; rescaling happens inside c, so just
    # verify c-normalized weights sum to one via the task/demo split
    h_t, h_d = split_attention(params, fmap, seq, pos)
    assert np.allclose(h_t + h_d, h, atol=1e-12)
    assert scaled.frequencies is not fmap.frequencies


def test_position_bounds_checked():
    params, seq = _draw(4)
    with pytest.raises(InvalidIndex):
        exact_attention(params, seq, 1)
    with pytest.raises(InvalidIndex):
        exact_attention(params, seq, len(seq) + 1)


def test_feature_map_dimension_checked():
    params, seq = _draw(5)
    with pytest.raises(InvalidDimension):
        kernel_attention(params, sample_feature_map(params.d_o + 1, 64), seq, len(seq))


def test_degenerate_normalization_signalled():
    # one frequency, one key: the denominator is cos(u (k - q)) up to a
    # positive factor, so u (k - q) = pi/2 cancels it exactly
    from dualgrad.kernelmap import FourierFeatureMap

    fmap = FourierFeatureMap(np.array([[1.0]]))
    d_i = 3
    params = AttentionParams(
        np.array([[0.0, 1.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]), np.ones((1, d_i))
    )
    tokens = np.zeros((2, d_i))
    tokens[0, 0] = np.pi / 2  # key = pi/2 (rope is identity for d_o = 1)
    tokens[1, 1] = 0.0  # query = 0
    seq = SegmentedSequence.build(tokens[:1], tokens[1:2], np.zeros((0, d_i)), normalize=False)
    with pytest.raises(NormalizationDegenerate, match="at position 2$"):
        kernel_attention(params, fmap, seq, 2)


# ---------------------------------------------------------------------------
# feed-forward, stacking, grouped queries


def _ffn(rng, d_o, d_h, activation="relu"):
    return FfnParams(
        rng.normal(0, 0.5, (d_o, d_h)),
        rng.normal(0, 0.5, d_o),
        rng.normal(0, 0.5, (d_h, d_o)),
        rng.normal(0, 0.5, d_h),
        activation,
    )


def test_layer_forward_oracle():
    params, seq = _draw(6)
    rng = stream(6, "ffn")
    ffn = _ffn(rng, params.d_o, 9)
    fmap = sample_feature_map(params.d_o, 256, seed=6)
    pos = len(seq)
    h = kernel_attention(params, fmap, seq, pos)
    expected = ffn.w1 @ np.maximum(ffn.w2 @ h + ffn.b2, 0.0) + ffn.b1
    assert np.allclose(layer_forward(params, ffn, seq, pos, fmap), expected, atol=1e-12)


def test_layer_forward_rejects_positions_below_one():
    params, seq = _draw(6)
    ffn = _ffn(stream(6, "ffn"), params.d_o, 9)
    fmap = sample_feature_map(params.d_o, 256, seed=6)
    # position 1 has no key to attend to: the FFN of a zero attention output
    zero = ffn.w1 @ np.maximum(ffn.b2, 0.0) + ffn.b1
    assert np.array_equal(layer_forward(params, ffn, seq, 1, fmap), zero)
    for pos in (0, -5, len(seq) + 1):
        with pytest.raises(InvalidIndex):
            layer_forward(params, ffn, seq, pos, fmap)


def test_single_layer_stack_reduces_to_layer_forward():
    params, seq = _draw(7)
    rng = stream(7, "ffn")
    ffn = _ffn(rng, params.d_o, 9)
    fmap = sample_feature_map(params.d_o, 256, seed=7)
    stack = LayerStack(((params, ffn),))
    for pos in range(2, len(seq) + 1):
        assert np.allclose(
            stack_forward(stack, fmap, seq, pos), layer_forward(params, ffn, seq, pos, fmap)
        )
    # position 1: layer_forward gives the FFN of a zero attention, the stack refuses
    assert np.array_equal(layer_forward(params, ffn, seq, 1, fmap),
                          ffn.w1 @ np.maximum(ffn.b2, 0.0) + ffn.b1)
    with pytest.raises(InvalidIndex):
        stack_forward(stack, fmap, seq, 1)


def test_identity_connection_equals_explicit_eye():
    rng = stream(8, "stack")
    d_i, d_o, d_h = 5, 5, 7
    layers = tuple(
        (random_attention(rng, d_i if l == 0 else d_o, d_o), _ffn(rng, d_o, d_h))
        for l in range(2)
    )
    seq = random_sequence(rng, d_i, 4, 3, 2)
    fmap = sample_feature_map(d_o, 256, seed=8)
    pos = len(seq)
    a = stack_forward(LayerStack(layers, (None, None)), fmap, seq, pos)
    b = stack_forward(LayerStack(layers, (None, np.eye(d_o))), fmap, seq, pos)
    assert np.allclose(a, b, atol=1e-13)


def test_stack_shape_validation():
    rng = stream(9, "stack")
    layers = (
        (random_attention(rng, 5, 4), _ffn(rng, 4, 6)),
        (random_attention(rng, 3, 4), _ffn(rng, 4, 6)),
    )
    with pytest.raises(InvalidDimension):
        LayerStack(layers, (None, None))  # 4 -> 3 needs a connection matrix
    with pytest.raises(InvalidDimension):
        LayerStack(layers, (None, np.eye(4)))  # wrong shape
    with pytest.raises(InvalidDimension):
        LayerStack(layers, (np.eye(5), np.ones((3, 4))))  # conn[0] is unused
    with pytest.raises(InvalidDimension):
        LayerStack(layers, (None,))  # one slot per layer
    with pytest.raises(InvalidDimension):
        LayerStack(())  # no layer to take the output from


def _stack_trace_oracle(stack, fmap, seq, query_pos):
    """Per-position reference for stack_trace: one from-scratch layer_forward per position."""
    layer_inputs = [seq.truncate(query_pos)]
    for l, (att, ffn) in enumerate(stack.layers[:-1]):
        cur = layer_inputs[-1]
        outs = np.stack([layer_forward(att, ffn, cur, p, fmap) for p in range(1, query_pos + 1)])
        w = stack.conn[l + 1]
        layer_inputs.append(cur.with_tokens(outs if w is None else outs @ w.T))
    return layer_inputs


def _scaled_ffn(rng, d_o, d_h):
    # 1/sqrt(fan-in) weights keep deep kernel-mode keys inside the overflow guard
    return FfnParams(
        rng.normal(0, d_h**-0.5, (d_o, d_h)),
        rng.normal(0, 0.5, d_o),
        rng.normal(0, d_o**-0.5, (d_h, d_o)),
        rng.normal(0, 0.5, d_h),
        rng.choice(["relu", "identity"]),
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_layers=st.sampled_from([1, 2, 3]),
    d_o=st.sampled_from([3, 4, 5]),
    d_mid=st.sampled_from([None, 2, 5]),
    n_d=st.integers(0, 5),
    pos_draw=st.integers(0, 10**6),
)
@example(seed=1, n_layers=3, d_o=5, d_mid=2, n_d=0, pos_draw=0)
@example(seed=3, n_layers=2, d_o=4, d_mid=5, n_d=3, pos_draw=10**6)
@example(seed=4, n_layers=1, d_o=5, d_mid=None, n_d=4, pos_draw=7)
def test_stack_trace_matches_per_position_oracle(seed, n_layers, d_o, d_mid, n_d, pos_draw):
    # d_mid is the input dim of layers >= 1; d_mid != d_o needs a non-square connection
    rng = stream(seed, "scan")
    d_i = 6
    d_in = d_o if d_mid is None else d_mid
    layers = tuple(
        (random_attention(rng, d_i if l == 0 else d_in, d_o), _scaled_ffn(rng, d_o, 7))
        for l in range(n_layers)
    )
    conn = (None,) + tuple(
        None if d_mid is None else rng.normal(0, d_o**-0.5, (d_mid, d_o))
        for _ in range(n_layers - 1)
    )
    stack = LayerStack(layers, conn)
    seq = random_sequence(rng, d_i, 4, n_d, 2)
    query_pos = 2 + pos_draw % (len(seq) - 1)  # pos_draw = 0 gives query_pos = 2
    fmap = sample_feature_map(d_o, 256, seed=seed)
    try:
        got = stack_trace(stack, fmap, seq, query_pos)
    except NormalizationDegenerate:  # a cancelled normalizer: the oracle must refuse it too
        with pytest.raises(NormalizationDegenerate):
            _stack_trace_oracle(stack, fmap, seq, query_pos)
        return
    want = _stack_trace_oracle(stack, fmap, seq, query_pos)
    assert len(got) == len(want) == n_layers
    for a, b in zip(got, want):
        assert a.tags == b.tags and a.tokens.shape == b.tokens.shape
        assert np.linalg.norm(a.tokens - b.tokens) <= 1e-12 * np.linalg.norm(b.tokens)


def _check_normalizers_separate(weights, denom, first_pos):
    size = np.abs(denom)
    cancelled = np.abs(weights).sum(axis=0) > transformer_module.MAX_KAPPA * size
    bad = np.flatnonzero((size < transformer_module.DEGENERATE_EPS) | cancelled)
    if bad.size:
        raise NormalizationDegenerate(
            f"normalization denominator {denom[bad[0]]:.3e} at position {first_pos + bad[0]}"
        )


def _kernel_weights_separate(params, fmap, seq, query_pos):
    """The single-query pieces computed on their own: ``_kernel_block``'s bitwise reference."""
    _check_pos(seq, query_pos)
    context = seq.tokens[: query_pos - 1]
    feat_keys = _FEATURES.features(params.w_k, fmap, context)
    feat_q = _featurize(params.w_q, fmap, seq.tokens[query_pos - 1 : query_pos], query_pos)[0]
    weights = feat_keys.T @ feat_q
    denom = weights.sum(keepdims=True)
    _check_normalizers_separate(weights, denom, query_pos)
    return params.w_v @ context.T, feat_keys, feat_q, weights, 1.0 / float(denom[0])


def _layer_scan_separate(params, ffn, seq, fmap):
    """The causal layer scan computed on its own: ``_kernel_block``'s bitwise reference."""
    n = len(seq)
    tokens = seq.tokens.T
    causal = np.triu(np.ones((n - 1, n - 1), dtype=bool))
    feat_keys = _FEATURES.features(params.w_k, fmap, seq.tokens[:-1])
    feat_q = _featurize(params.w_q, fmap, seq.tokens[1:], 2).T
    w = np.where(causal, feat_keys.T @ feat_q, 0.0)
    denom = w.sum(axis=0)
    _check_normalizers_separate(w, denom, 2)
    h = np.zeros((params.d_o, n))
    h[:, 1:] = params.w_v @ tokens[:, :-1] @ (w / denom)
    return transformer_module._ffn_forward(ffn, h)


def _bits_or_raise(run):
    """Shape, dtype and bytes of every array (or float) ``run`` returns, or what it raised."""
    try:
        return [transformer_module._bits(np.asarray(x)) for x in run()]
    except (OverflowGuard, NormalizationDegenerate) as e:
        return type(e), str(e)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    d_o=st.sampled_from([3, 4, 5]),
    D=st.sampled_from([8, 64]),
    n_d=st.integers(0, 4),
    pos_draw=st.integers(0, 10**6),
)
@example(seed=5, d_o=5, D=8, n_d=0, pos_draw=0)  # odd d_o, query_pos = 2, no demonstration
@example(seed=6, d_o=3, D=64, n_d=0, pos_draw=10**6)
def test_kernel_block_is_bitwise_the_separate_forms(seed, d_o, D, n_d, pos_draw):
    # every piece _kernel_weights returns, c included, and every output of a
    # layer scan, on a cold cache, a warm one, and one warmed by longer rows
    rng = stream(seed, "kernel-block")
    params = random_attention(rng, 5, d_o)
    ffn = _scaled_ffn(rng, d_o, 4)
    seq = random_sequence(rng, 5, 3, n_d, 2)
    pos = 2 + pos_draw % (len(seq) - 1)  # pos_draw = 0 gives query_pos = 2
    fmap = sample_feature_map(d_o, D, seed=seed)
    forms = [
        (lambda: _kernel_weights_separate(params, fmap, seq, pos),
         lambda: transformer_module._kernel_weights(params, fmap, seq, pos)),
        (lambda: [_layer_scan_separate(params, ffn, seq.truncate(pos), fmap)],
         lambda: [transformer_module._layer_scan(params, ffn, seq.truncate(pos), fmap)]),
    ]
    for separate, merged in forms:
        runs = {}
        for name, run in (("separate", separate), ("merged", merged)):
            _FEATURES.clear()
            runs[name] = [_bits_or_raise(run), _bits_or_raise(run)]
            with suppress(OverflowGuard):  # the last row is no key of any run
                _FEATURES.features(params.w_k, fmap, seq.tokens)  # pos - 1 rows are a slice now
            runs[name].append(_bits_or_raise(run))
        assert runs["merged"] == runs["separate"]
        assert all(r == runs["merged"][0] for r in runs["merged"])


def _one_dim_layer(w_q, w_k, w_v):
    # d_i = d_o = d_h = 1 with an identity-activation, identity-weight FFN, so the
    # layer output is its attention output (rope is the identity for d_o = 1)
    ffn = FfnParams(np.ones((1, 1)), np.zeros(1), np.ones((1, 1)), np.zeros(1), "identity")
    return AttentionParams(np.array([[w_q]]), np.array([[w_k]]), np.array([[w_v]])), ffn


def _degenerate_at_interior_of_layer_1():
    # one frequency u = 1: phi(k).phi(q) = e^{(k^2+q^2)/2} cos(k - q) / 2.  Layer 0
    # has zero keys and query, so its output at p is the mean of tokens 1..p-1.
    # Layer 1 has zero keys and query = input, so its denominator at p vanishes
    # iff that mean is pi/2: at position 3 of 4 only.
    fmap = FourierFeatureMap(np.array([[1.0]]))
    layer0 = _one_dim_layer(0.0, 0.0, 1.0)
    layer1 = _one_dim_layer(1.0, 0.0, 1.0)
    stack = LayerStack((layer0, layer1, layer1))
    tokens = np.array([[0.5], [np.pi - 0.5], [1.0], [0.3]])
    seq = SegmentedSequence.build(tokens, np.zeros((0, 1)), np.zeros((0, 1)), normalize=False)
    return stack, fmap, seq, NormalizationDegenerate


def _feature_dimension_mismatch():
    params, seq = _draw(40)
    ffn = _scaled_ffn(stream(40, "ffn"), params.d_o, 5)
    stack = LayerStack(((params, ffn), (random_attention(stream(41, "a"), 4, 4), ffn)))
    return stack, sample_feature_map(params.d_o + 1, 64), seq, InvalidDimension


def _over_norm_interior_key():
    params, seq = _draw(42)
    ffn = _scaled_ffn(stream(42, "ffn"), params.d_o, 5)
    stack = LayerStack(((params, ffn), (random_attention(stream(43, "a"), 4, 4), ffn)))
    tokens = seq.tokens.copy()
    tokens[3] *= 200.0
    return stack, sample_feature_map(params.d_o, 64), seq.with_tokens(tokens), OverflowGuard


@pytest.mark.parametrize(
    "case",
    [_degenerate_at_interior_of_layer_1, _feature_dimension_mismatch, _over_norm_interior_key],
)
def test_stack_trace_guards_match_oracle(case):
    """Each input trips exactly one guard, and the scan raises the oracle's class.

    The scan featurizes every key and query column of a layer before it checks
    any denominator, while the oracle goes position by position.  On an input
    that trips both OverflowGuard and NormalizationDegenerate the two may
    therefore raise different classes; these inputs trip one guard only.
    """
    stack, fmap, seq, exc = case()
    pos = len(seq)
    with pytest.raises(exc):
        _stack_trace_oracle(stack, fmap, seq, pos)
    with pytest.raises(exc):
        stack_trace(stack, fmap, seq, pos)
    with pytest.raises(exc):
        build_dual_stack(stack, fmap, seq, pos)


def test_stack_trace_degenerate_message_names_position():
    stack, fmap, seq, _ = _degenerate_at_interior_of_layer_1()
    with pytest.raises(NormalizationDegenerate, match="at position 3$"):
        stack_trace(stack, fmap, seq, len(seq))
    # positions 2 and 4 are regular, so the prefix up to 2 goes through
    assert len(stack_trace(stack, fmap, seq, 2)) == 3


def test_stack_trace_never_featurizes_the_last_key():
    # the key of the query token is not attended to, so its norm is not guarded
    rng = stream(44, "scan")
    d_o = 4
    att = random_attention(rng, 6, d_o)
    big_key = AttentionParams(att.w_q, 300.0 * att.w_k, att.w_v)
    ffn = _scaled_ffn(rng, d_o, 5)
    stack = LayerStack(((big_key, ffn), (random_attention(rng, d_o, d_o), ffn)))
    tokens = np.zeros((5, 6))
    tokens[:4, 0] = 1e-3  # keys of tokens 1..4 stay small even after the x300
    tokens[4] = rng.normal(0, 1, 6)
    seq = SegmentedSequence.build(tokens, np.zeros((0, 6)), np.zeros((0, 6)), normalize=False)
    fmap = sample_feature_map(d_o, 64, seed=44)
    got = stack_trace(stack, fmap, seq, len(seq))
    want = _stack_trace_oracle(stack, fmap, seq, len(seq))
    assert np.linalg.norm(got[1].tokens - want[1].tokens) <= 1e-12 * np.linalg.norm(want[1].tokens)
    with pytest.raises(OverflowGuard):  # the same token as an interior key trips the guard
        stack_trace(stack, fmap, seq.append(tokens[0]), len(seq) + 1)


def test_stack_trace_never_featurizes_the_first_query():
    # position 1 attends to nothing, so the query of the first token is not guarded
    rng = stream(45, "scan")
    d_o = 4
    att = random_attention(rng, 6, d_o)
    big_query = AttentionParams(300.0 * att.w_q, att.w_k, att.w_v)
    ffn = _scaled_ffn(rng, d_o, 5)
    stack = LayerStack(((big_query, ffn), (random_attention(rng, d_o, d_o), ffn)))
    tokens = np.zeros((5, 6))
    tokens[:, 0] = 1e-3  # queries of small tokens stay small even after the x300
    tokens[0] = rng.normal(0, 1, 6)
    q = big_query.w_q @ tokens[0] / d_o**0.25
    assert q @ q > MAX_SQ_NORM
    seq = SegmentedSequence.build(tokens, np.zeros((0, 6)), np.zeros((0, 6)), normalize=False)
    fmap = sample_feature_map(d_o, 64, seed=45)
    got = stack_trace(stack, fmap, seq, len(seq))
    want = _stack_trace_oracle(stack, fmap, seq, len(seq))
    assert np.linalg.norm(got[1].tokens - want[1].tokens) <= 1e-12 * np.linalg.norm(want[1].tokens)
    second = seq.with_tokens(tokens[[1, 0, 2, 3, 4]])  # the same token as the query at 2
    with pytest.raises(OverflowGuard):
        _stack_trace_oracle(stack, fmap, second, len(second))
    with pytest.raises(OverflowGuard):
        stack_trace(stack, fmap, second, len(second))


def test_stack_dual_build_after_its_forward_featurizes_only_its_single_queries():
    # stack_trace's memo spares the repeated scans, and every layer's keys are
    # in the cache, so only the L queries of _kernel_weights are featurized
    rng = stream(46, "featurize-once")
    d_i, d_o = 6, 4
    stack = LayerStack(tuple(
        (random_attention(rng, d_i if l == 0 else d_o, d_o), _scaled_ffn(rng, d_o, 5))
        for l in range(3)
    ))
    seq = random_sequence(rng, d_i, 4, 3, 2)
    fmap = sample_feature_map(d_o, 64, seed=46)
    _FEATURES.clear()
    h = stack_forward(stack, fmap, seq, len(seq))
    columns = []

    def counted(fmap, xs):
        columns.append(np.shape(xs)[1])
        return phi_matrix(fmap, xs)

    # phi_matrix is reached through the cache (transformer) and through phi (kernelmap)
    with mock.patch.object(kernelmap_module, "phi_matrix", counted), \
            mock.patch.object(transformer_module, "phi_matrix", counted):
        duals = build_dual_stack(stack, fmap, seq, len(seq))
    assert columns == [1] * len(stack.layers)
    assert np.linalg.norm(dual_module.dual_forward(duals[-1]) - h) <= 1e-9 * np.linalg.norm(h)


def _memo_case():
    rng = stream(47, "trace-memo")
    d_i, d_o = 6, 4
    layers = tuple(
        (random_attention(rng, d_i if l == 0 else d_o, d_o), _scaled_ffn(rng, d_o, 5))
        for l in range(3)
    )
    stack = LayerStack(layers, (None, None, rng.normal(0, d_o**-0.5, (d_o, d_o))))
    return stack, sample_feature_map(d_o, 64, seed=47), random_sequence(rng, d_i, 4, 3, 2)


def _counted_scans():
    return mock.patch.object(
        transformer_module, "_layer_scan", wraps=transformer_module._layer_scan
    )


def test_stack_dual_build_after_its_forward_scans_nothing():
    stack, fmap, seq = _memo_case()
    pos = len(seq)
    _FEATURES.clear()
    with _counted_scans() as scans:
        h = stack_forward(stack, fmap, seq, pos)
        assert scans.call_count == len(stack.layers) - 1
        duals = build_dual_stack(stack, fmap, seq, pos)
        assert scans.call_count == len(stack.layers) - 1
        _FEATURES.clear()  # the reset every cold-cache test uses drops the memo too
        stack_trace(stack, fmap, seq, pos)
        assert scans.call_count == 2 * (len(stack.layers) - 1)
    assert np.linalg.norm(dual_module.dual_forward(duals[-1]) - h) <= 1e-9 * np.linalg.norm(h)


def test_stack_forward_caches_one_key_entry_per_layer_and_its_dual_build_none():
    stack, fmap, seq = _memo_case()
    _FEATURES.clear()
    stack_forward(stack, fmap, seq, len(seq))
    w_ks = [att.w_k for att, _ in stack.layers]

    def held():
        assert len(_FEATURES.entries) == len(stack.layers)  # no scan queries
        assert all(len(entry) == 4 for entry in _FEATURES.entries)
        return [(f, w.tobytes(), len(rows)) for f, w, rows, _ in _FEATURES.entries]

    after_forward = held()
    assert after_forward == [(fmap, w.tobytes(), len(seq) - 1) for w in w_ks]
    build_dual_stack(stack, fmap, seq, len(seq))
    assert held() == after_forward


def _edit_ffn_weight(stack, fmap, seq):
    stack.layers[0][1].w1[0, 0] += 0.25  # FfnParams arrays are writable
    return stack, fmap, seq


def _edit_connection(stack, fmap, seq):
    stack.conn[2][1, 0] -= 0.25
    return stack, fmap, seq


def _other_token(stack, fmap, seq):
    tokens = seq.tokens.copy()
    tokens[1] = -tokens[1]
    return stack, fmap, replace(seq, tokens=tokens)


def _other_tags(stack, fmap, seq):
    return stack, fmap, replace(seq, tags=(Tag.D_CURR,) + seq.tags[1:])


def _new_feature_map(stack, fmap, seq):
    # the same frequencies in a new object: the memo compares feature maps by identity
    return stack, sample_feature_map(fmap.input_dim, fmap.feature_dim, seed=47), seq


@pytest.mark.parametrize(
    "edit", [_edit_ffn_weight, _edit_connection, _other_token, _other_tags, _new_feature_map]
)
def test_stack_trace_memo_misses_on_any_change_of_its_inputs(edit):
    stack, fmap, seq = _memo_case()
    pos = len(seq)
    _FEATURES.clear()
    stack_trace(stack, fmap, seq, pos)
    stack, fmap, seq = edit(stack, fmap, seq)
    with _counted_scans() as scans:
        got = stack_trace(stack, fmap, seq, pos)
    assert scans.call_count == len(stack.layers) - 1
    want = _stack_trace_oracle(stack, fmap, seq, pos)
    for a, b in zip(got, want, strict=True):
        assert a.tags == b.tags and a.normalized == b.normalized
        assert np.linalg.norm(a.tokens - b.tokens) <= 1e-12 * np.linalg.norm(b.tokens)


def test_a_trace_that_raises_leaves_the_memo_as_it_was():
    stack, fmap, seq = _memo_case()
    _FEATURES.clear()
    stack_trace(stack, fmap, seq, len(seq))
    memo = _FEATURES.trace
    bad_stack, bad_fmap, bad_seq, exc = _degenerate_at_interior_of_layer_1()
    with pytest.raises(exc):
        stack_trace(bad_stack, bad_fmap, bad_seq, len(bad_seq))
    assert _FEATURES.trace is memo
    with _counted_scans() as scans:
        stack_trace(stack, fmap, seq, len(seq))
    assert scans.call_count == 0


def test_gqa_single_head_matches_plain_kernel_attention():
    rng = stream(10, "gqa")
    d_i, d_o = 5, 4
    w_q = rng.normal(0, 0.5, (d_o, d_i))
    w_k = rng.normal(0, 0.5, (d_o, d_i))
    w_v = rng.normal(0, 0.5, (d_o, d_i))
    seq = random_sequence(rng, d_i, 5, 3, 2)
    fmap = sample_feature_map(d_o, 128, seed=3)
    pos = len(seq)
    plain = kernel_attention(AttentionParams(w_q, w_k, w_v), fmap, seq, pos)
    gqa = gqa_attention(
        GqaParams(w_q[None], w_k[None], w_v[None]),
        GqaConfig(n=1, g=1, d_o=d_o),
        fmap,
        seq,
        pos,
    )
    assert np.allclose(gqa, plain, atol=1e-12)


def _head_groups(params, cfg):
    """The key/value group whose projections ``head`` gives each query head."""
    groups = []
    for s in range(cfg.heads):
        att = params.head(cfg, s)
        assert np.array_equal(att.w_q, params.w_q[s])
        (grp,) = [i for i in range(cfg.g)
                  if np.array_equal(att.w_k, params.w_k[i]) and np.array_equal(att.w_v, params.w_v[i])]
        groups.append(grp)
    return groups


def test_gqa_head_to_group_assignment():
    cfg = GqaConfig(n=2, g=2, d_o=8)
    assert cfg.head_dim == 2 and cfg.heads == 4
    rng = stream(10, "gqa-assign")
    params = GqaParams(*(rng.normal(0, 0.5, (k, 2, 3)) for k in (4, 2, 2)))
    assert _head_groups(params, cfg) == [0, 0, 1, 1]


def test_gqa_dimension_validation():
    with pytest.raises(InvalidDimension):
        GqaConfig(n=2, g=2, d_o=6)
    with pytest.raises(InvalidDimension):
        GqaConfig(n=1, g=2, d_o=8, w_concat=np.zeros((2, 3, 3)))


@pytest.mark.parametrize(
    "n, g, groups",
    [(2, 1, [0, 0]), (1, 2, [0, 1]), (3, 2, [0, 0, 0, 1, 1, 1]), (2, 3, [0, 0, 1, 1, 2, 2])],
)
def test_gqa_heads_use_their_groups_key_and_value(n, g, groups):
    rng = stream(11, "gqa-groups")
    d_i, hd = 5, 2
    cfg = GqaConfig(n=n, g=g, d_o=hd * n * g)
    params = GqaParams(*(rng.normal(0, 0.5, (k, hd, d_i)) for k in (cfg.heads, g, g)))
    seq = random_sequence(rng, d_i, 5, 3, 2)
    fmap = sample_feature_map(hd, 128, seed=11)
    pos = len(seq)
    assert _head_groups(params, cfg) == groups
    per_head = [
        kernel_attention(
            AttentionParams(params.w_q[s], params.w_k[grp], params.w_v[grp]), fmap, seq, pos
        )
        for s, grp in enumerate(groups)
    ]
    h = gqa_attention(params, cfg, fmap, seq, pos)
    assert np.allclose(h, np.concatenate(per_head), atol=1e-12)
    assert np.allclose(dual_gqa_forward(build_dual_gqa(params, cfg, fmap, seq, pos)), h, atol=1e-12)


def test_gqa_params_must_match_heads_and_groups():
    cfg = GqaConfig(n=2, g=1, d_o=4)  # two query heads, one key/value group

    def params(heads, k_groups, v_groups):
        return GqaParams(*(np.zeros((k, 2, 3)) for k in (heads, k_groups, v_groups)))

    assert params(2, 1, 1).head(cfg, 1).w_k.shape == (2, 3)
    for bad in ((2, 2, 2), (1, 1, 1), (2, 1, 2), (3, 1, 1)):
        with pytest.raises(InvalidDimension):
            params(*bad).head(cfg, 0)


@pytest.mark.parametrize("qk_dim, v_dim", [(3, 3), (4, 3)])
def test_gqa_head_dimension_must_match_the_config(qk_dim, v_dim):
    # heads of dim 4 (d_o = 8 over 2 heads) with projections of other dims:
    # the feature map takes the keys' dim, so only the head check catches
    # projections that all have dim 3, and it names the dim for a value mismatch
    cfg = GqaConfig(n=1, g=2, d_o=8)
    rng = stream(12, "gqa-head-dim")
    params = GqaParams(
        rng.normal(0, 0.5, (2, qk_dim, 6)),
        rng.normal(0, 0.5, (2, qk_dim, 6)),
        rng.normal(0, 0.5, (2, v_dim, 6)),
    )
    seq = random_sequence(rng, 6, 4, 3, 2)
    fmap = sample_feature_map(qk_dim, 64, seed=12)
    for run in (gqa_attention, build_dual_gqa):
        with pytest.raises(InvalidDimension, match="all of dim 4"):
            run(params, cfg, fmap, seq, len(seq))


# ---------------------------------------------------------------------------
# prefix-key feature cache


def _kernel_weights_oracle(params, fmap, seq, query_pos):
    """From-scratch reference for _kernel_weights: every key rotated and featurized anew."""
    _check_pos(seq, query_pos)
    if fmap.input_dim != params.d_o:
        raise InvalidDimension("feature map input_dim must equal d_o")
    keys, values, q = _qkv_oracle(params, seq, query_pos)
    scale = params.d_o**0.25
    feat_keys = phi_matrix(fmap, keys / scale)
    feat_q = phi(fmap, q / scale)
    weights = feat_keys.T @ feat_q
    denom = float(np.sum(weights))
    if (abs(denom) < transformer_module.DEGENERATE_EPS
            or np.sum(np.abs(weights)) > transformer_module.MAX_KAPPA * abs(denom)):
        raise NormalizationDegenerate(f"normalization denominator {denom:.3e}")
    return values, feat_keys, feat_q, weights, 1.0 / denom


def _oracle_consumers(c):
    """``_consumers`` with every reader of the cache replaced by its from-scratch oracle.

    The dual builders import ``_kernel_weights`` and ``stack_trace``, so both
    modules are patched.
    """
    with ExitStack() as patches:
        for module in (transformer_module, dual_module):
            patches.enter_context(
                mock.patch.object(module, "_kernel_weights", _kernel_weights_oracle))
            patches.enter_context(mock.patch.object(module, "stack_trace", _stack_trace_oracle))
        return _consumers(c)


def _cache_case(seed, d_o, D, n_d, n_per, pos_draw):
    rng = stream(seed, "key-cache")
    d_i = 5
    params = random_attention(rng, d_i, d_o)
    ffn = _scaled_ffn(rng, d_o, 4)
    layers = [(params, ffn)] + [(random_attention(rng, d_o, d_o), ffn) for _ in range(2)]
    stack = LayerStack(tuple(layers))
    gcfg = GqaConfig(n=2, g=1, d_o=4)  # two query heads share key group 0
    gqa = GqaParams(*(rng.normal(0, 0.5, (k, 2, d_i)) for k in (2, 1, 1)))
    seq = random_sequence(rng, d_i, 3, n_d, 2, n_per)
    pos = 2 + pos_draw % (len(seq) - 1)  # pos_draw = 0 gives query_pos = 2
    fmap = sample_feature_map(d_o, D, seed=seed)
    fmap_head = sample_feature_map(2, D, seed=seed + 1)
    return dict(params=params, ffn=ffn, stack=stack, gcfg=gcfg, gqa=gqa, seq=seq, pos=pos,
                fmap=fmap, fmap_head=fmap_head, token=rng.normal(0, 1, d_i))


def _consumers(c, seq=None, pos=None, params=None, fmap=None):
    """Every kernel-mode result built from prefix-key features, as a flat list of arrays."""
    seq = c["seq"] if seq is None else seq
    pos = c["pos"] if pos is None else pos
    params = c["params"] if params is None else params
    fmap = c["fmap"] if fmap is None else fmap
    appended = seq.truncate(pos - 1).append(seq.tokens[pos - 1])
    duals = [
        build_dual_attention(params, fmap, seq, pos),
        build_dual_attention(params, fmap, appended, pos),
        build_dual_transformer(params, c["ffn"], fmap, seq, pos),
        *build_dual_stack(c["stack"], fmap, seq, pos),
        *build_dual_gqa(c["gqa"], c["gcfg"], c["fmap_head"], seq, pos),
    ]
    out = [
        kernel_attention(params, fmap, seq, pos),
        *split_attention(params, fmap, seq, pos),
        layer_forward(params, c["ffn"], seq, pos, fmap),
        stack_forward(c["stack"], fmap, seq, pos),
        *(s.tokens for s in transformer_module.stack_trace(c["stack"], fmap, seq, pos)),
        gqa_attention(c["gqa"], c["gcfg"], c["fmap_head"], seq, pos),
    ]
    for d in duals:
        out += [np.asarray(f, dtype=float) for f in astuple(d) if f is not None]
    return out


def _histories(c):
    """Ways to leave the cache before evaluating the case: cold plus four warm ones."""
    seq, pos = c["seq"], c["pos"]
    branch = seq.truncate(pos - 2).append(c["token"]).append(c["token"])
    other = dict(c, params=random_attention(stream(1, "other"), seq.dim, c["params"].d_o))
    return {
        "cold": lambda: None,
        "longer lineage": lambda: _consumers(c, seq.append(c["token"]), len(seq) + 1),
        "shorter lineage": lambda: _consumers(c, pos=max(2, pos - 1)),
        "branched lineage": lambda: _consumers(c, branch, len(branch)),
        "interleaved params and fmap": lambda: (
            _consumers(c, pos=max(2, pos - 1)),
            _consumers(other),
            _consumers(c, fmap=sample_feature_map(c["params"].d_o, c["fmap"].feature_dim)),
        ),
    }


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    d_o=st.sampled_from([3, 4, 5]),
    D=st.sampled_from([8, 64, 256]),
    n_d=st.integers(0, 4),
    n_per=st.integers(0, 2),
    pos_draw=st.integers(0, 10**6),
)
@example(seed=7, d_o=5, D=64, n_d=0, n_per=0, pos_draw=0)
@example(seed=8, d_o=3, D=8, n_d=3, n_per=2, pos_draw=10**6)
# normalizers that cancel (sum |w| / |sum w| = 67 at seed 310, 15.7 at seed 115) lift the
# last-bit difference of the two featurization orders past 1e-12; the guard refuses them
@example(seed=310, d_o=5, D=64, n_d=0, n_per=1, pos_draw=53)
@example(seed=65536, d_o=5, D=256, n_d=1, n_per=2, pos_draw=242)
@example(seed=115, d_o=5, D=256, n_d=0, n_per=0, pos_draw=3)
def test_key_cache_consumers_match_oracle_and_history(seed, d_o, D, n_d, n_per, pos_draw):
    c = _cache_case(seed, d_o, D, n_d, n_per, pos_draw)
    _FEATURES.clear()
    try:
        want = _oracle_consumers(c)
    except (OverflowGuard, NormalizationDegenerate):
        reject()
    assert not _FEATURES.entries  # the oracle run never touched the cache
    runs = {}
    for name, history in _histories(c).items():
        _FEATURES.clear()
        try:
            history()
        except (OverflowGuard, NormalizationDegenerate):
            pass  # a guard that fires mid-history still leaves a history behind
        runs[name] = _consumers(c)
    for got, ref in zip(runs["cold"], want):
        assert got.shape == ref.shape
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    for name, got in runs.items():
        assert len(got) == len(runs["cold"]), name
        for a, b in zip(got, runs["cold"]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_guard_refuses_a_normalizer_whose_weights_cancel():
    # seed 115's second layer sums weights of both signs to a normalizer 15.7 times
    # below their absolute sum; unrefused, the third layer's normalizer is -2.9e12
    c = _cache_case(115, 5, 256, 0, 0, 3)
    with pytest.raises(NormalizationDegenerate, match="at position 5"):
        stack_forward(c["stack"], c["fmap"], c["seq"], c["pos"])


def test_key_cache_stays_within_its_bound():
    _FEATURES.clear()
    rng = stream(50, "bound")
    seq = random_sequence(rng, 5, 4, 3, 2)
    fmap = sample_feature_map(4, 32, seed=50)
    for i in range(3 * _FEATURES.size):
        params = random_attention(rng, 5, 4)
        kernel_attention(params, fmap, seq, 2 + i % (len(seq) - 1))
        assert len(_FEATURES.entries) <= _FEATURES.size
    assert len(_FEATURES.entries) == _FEATURES.size


def test_key_cache_serves_read_only_features():
    params, seq = _draw(51)
    fmap = sample_feature_map(params.d_o, 32, seed=51)
    _FEATURES.clear()
    kernel_attention(params, fmap, seq, len(seq))
    feats = _FEATURES.features(params.w_k, fmap, seq.tokens[:-1])  # a hit
    with pytest.raises(ValueError):
        feats[0, 0] = 1.0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    d_o=st.integers(1, 6),
    D=st.sampled_from([2, 8, 1024]),
    m=st.integers(1, 40),
    first=st.integers(1, 3),
)
def test_cold_feature_request_is_phi_matrix_of_its_rotated_block(seed, d_o, D, m, first):
    rng = stream(seed, "cold-features")
    w = rng.normal(0, 0.5, (d_o, 5))
    rows = rng.normal(0, 0.5, (m, 5))
    fmap = sample_feature_map(d_o, D, seed=seed)

    def oracle(first):
        block = _rotate_oracle(matvecs(w, rows).T, np.arange(first, first + m))
        return phi_matrix(fmap, block / d_o**0.25)

    got, want = _featurize(w, fmap, rows, first).T, oracle(first)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    _FEATURES.clear()
    got, want = _FEATURES.features(w, fmap, rows), oracle(1)  # the cache holds keys at 1..m
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    held = _FEATURES.entries[-1][2]
    rows[0] += 1.0  # the entry keeps its own copy of the rows
    assert not np.shares_memory(held, rows) and held[0].tobytes() != rows[0].tobytes()


def test_overflow_guard_fires_for_a_key_appended_to_a_warm_cache():
    rng = stream(52, "guard")
    params = random_attention(rng, 6, 4)
    params = AttentionParams(params.w_q, 300.0 * params.w_k, params.w_v)
    tokens = np.zeros((4, 6))
    tokens[:, 0] = 1e-3  # small keys even after the x300
    seq = SegmentedSequence.build(tokens, np.zeros((0, 6)), np.zeros((0, 6)), normalize=False)
    fmap = sample_feature_map(4, 64, seed=52)
    _FEATURES.clear()
    before = kernel_attention(params, fmap, seq, len(seq))
    grown = seq.append(rng.normal(0, 1, 6)).append(tokens[0])
    with pytest.raises(OverflowGuard):
        kernel_attention(params, fmap, grown, len(grown))
    # the failed extension left the entry as it was
    assert [len(rows) for *_, rows, _ in _FEATURES.entries] == [len(seq) - 1]
    assert kernel_attention(params, fmap, seq, len(seq)).tobytes() == before.tobytes()


def test_a_raise_while_extending_a_middle_entry_leaves_every_entry_in_its_place():
    rng = stream(53, "guard-order")
    fmap = sample_feature_map(4, 64, seed=53)
    ws = [rng.normal(0, 0.1, (4, 6)) for _ in range(3)]
    rows = rng.normal(0, 0.1, (2, 6))
    _FEATURES.clear()
    for w in ws:
        _FEATURES.features(w, fmap, rows)
    before = list(_FEATURES.entries)
    grown = np.vstack((rows, np.full((1, 6), 1e3)))  # a key far over the overflow bound
    with pytest.raises(OverflowGuard):
        _FEATURES.features(ws[1], fmap, grown)
    # the same three entries, in the same least-recently-used order
    assert len(_FEATURES.entries) == 3
    assert all(got is want for got, want in zip(_FEATURES.entries, before))


def test_degenerate_normalization_fires_for_a_key_appended_to_a_warm_cache():
    # one frequency, rope the identity (d_o = 1): the denominator is
    # sum_i e^{k_i^2/2} cos(k_i - q) up to a positive factor, so keys pi/2, pi/2
    # with query 0 cancel it, while key pi/2 with query 1 does not
    fmap = FourierFeatureMap(np.array([[1.0]]))
    params = AttentionParams(
        np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]), np.ones((1, 2))
    )
    key, q1 = [np.pi / 2, 0.0], [0.0, 1.0]
    warm = SegmentedSequence.build([key], [q1], np.zeros((0, 2)), normalize=False)
    _FEATURES.clear()
    kernel_attention(params, fmap, warm, 2)
    target = SegmentedSequence.build([key], [key, [0.0, 0.0]], np.zeros((0, 2)), normalize=False)
    with pytest.raises(NormalizationDegenerate):
        kernel_attention(params, fmap, target, 3)
    # served by extending the warm entry
    assert [len(rows) for *_, rows, _ in _FEATURES.entries] == [2]


# ---------------------------------------------------------------------------
# decoding and generation


def _vocab(rng, size, d_o, d_i):
    return Vocabulary(rng.normal(0, 1, (size, d_o)), rng.normal(0, 1, (size, d_i)))


def _decode_oracle(vocab, h, mask=None):
    """Per-id loop: the first strictly better score wins, so ties keep the smallest id."""
    ids = range(vocab.size) if mask is None else sorted(int(v) for v in mask)
    best_id, best_score = -1, -np.inf
    for v in ids:
        score = float(vocab.output_embeddings[v] @ h)
        if score > best_score:
            best_id, best_score = v, score
    return best_id


def _int_vocab(seed, size=40, d_o=3, d_i=5):
    # small integers keep every score exact, so duplicate rows tie exactly
    rng = np.random.default_rng(seed)
    out = rng.integers(-2, 3, (size, d_o)).astype(float)
    out[size // 2 :] = out[: size - size // 2]  # every row has a duplicate
    return Vocabulary(out, rng.normal(0, 1, (size, d_i)))


def test_decode_greedy_and_tie_break():
    out = np.array([[1.0], [2.0], [2.0], [0.0]])
    vocab = Vocabulary(out, np.zeros((4, 3)))
    assert decode(vocab, np.array([1.0])) == 1  # tie between 1 and 2 -> smaller id
    assert decode(vocab, np.array([-1.0])) == 3
    assert decode(vocab, np.array([1.0]), mask={0, 3}) == 0
    assert decode(vocab, np.array([1.0]), mask=np.array([2, 1])) == 1


@pytest.mark.parametrize("d_o", [8, 9, 12])
def test_decode_is_generates_first_pick_on_identical_rows(d_o):
    # identical output rows can get different logits from one gemv over the
    # table, so the pick is the first maximum of the logits as computed, not
    # always the smaller twin; decode and generate must still agree
    rng = np.random.default_rng(d_o)
    seq = SegmentedSequence(np.zeros((1, 3)), (Tag.T_INSTR,))
    for _ in range(240):
        size = int(rng.integers(5, 12))
        out = rng.normal(0, 1, (size, d_o))
        a, b = sorted(rng.choice(size, 2, replace=False))
        h = rng.normal(0, 1, d_o)
        out[a] = out[b] = h + rng.normal(0, 0.3, d_o)  # the twins are often the best rows
        vocab = Vocabulary(out, rng.normal(0, 1, (size, 3)))
        keep = rng.random(size) < 0.7
        keep[[a, b]] = True
        for mask in (None, set(np.flatnonzero(keep).tolist())):
            ids = np.arange(size) if mask is None else np.flatnonzero(keep)
            pick = decode(vocab, h, mask)
            assert pick == ids[int(np.argmax(out[ids] @ h))]
            for exclude in (False, True):
                trace = generate(lambda s, p: h, seq, 1, vocab, mask, exclude)
                assert trace.ids[0] == pick


@pytest.mark.parametrize("kind", [set, frozenset, np.array])
def test_decode_matches_loop_oracle(kind):
    vocab = _int_vocab(0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        h = rng.integers(-2, 3, 3).astype(float)
        mask = rng.choice(vocab.size, size=int(rng.integers(1, vocab.size)), replace=False)
        assert decode(vocab, h) == _decode_oracle(vocab, h)
        assert decode(vocab, h, kind(mask.tolist())) == _decode_oracle(vocab, h, mask)


def test_decode_empty_mask():
    vocab = Vocabulary(np.ones((2, 1)), np.zeros((2, 2)))
    with pytest.raises(EmptyCandidateSet):
        decode(vocab, np.array([1.0]), mask=set())


def test_generate_positions_and_feedback():
    rng = stream(11, "gen")
    params = random_attention(rng, 5, 4)
    seq = random_sequence(rng, 5, 4, 3, 2)
    vocab = _vocab(rng, 10, 4, 5)
    trace = generate(lambda s, p: exact_attention(params, s, p), seq, 4, vocab)
    assert trace.positions == tuple(range(len(seq), len(seq) + 4))
    assert len(trace.final_seq) == len(seq) + 4
    assert all(t is Tag.T_LEAD for t in trace.final_seq.tags[-4:])
    # each appended token is the (normalized) feedback embedding of its id
    emb = trace.final_seq.tokens[len(seq)]
    expected = vocab.input_embeddings[trace.ids[0]]
    assert np.allclose(emb, expected / np.linalg.norm(expected), atol=1e-12)


def test_generate_exclude_emitted_yields_distinct_ids():
    rng = stream(12, "gen")
    params = random_attention(rng, 5, 4)
    seq = random_sequence(rng, 5, 4, 3, 2)
    vocab = _vocab(rng, 6, 4, 5)
    trace = generate(
        lambda s, p: exact_attention(params, s, p), seq, 6, vocab, exclude_emitted=True
    )
    assert len(set(trace.ids)) == len(trace.ids)


@pytest.mark.parametrize("kind", [None, set, frozenset, np.array])
def test_generate_exclude_emitted_until_exhausted_matches_oracle(kind):
    vocab = _int_vocab(2, size=12, d_o=4)
    rng = stream(14, "gen")
    params = random_attention(rng, 5, 4)
    seq = random_sequence(rng, 5, 4, 3, 2)
    mask = None if kind is None else kind([0, 2, 3, 5, 6, 8, 9, 11])

    def forward(s, p):
        return np.round(3 * exact_attention(params, s, p))  # integer scores, many ties

    remaining = set(range(vocab.size)) if mask is None else set(mask)
    expected, cur = [], seq
    while remaining:
        tok = _decode_oracle(vocab, forward(cur, len(cur)), remaining)
        expected.append(tok)
        remaining.discard(tok)
        cur = cur.append(vocab.input_embeddings[tok])
    trace = generate(forward, seq, 50, vocab, mask=mask, exclude_emitted=True)
    assert list(trace.ids) == expected


def test_generate_validates_steps():
    rng = stream(13, "gen")
    params = random_attention(rng, 5, 4)
    seq = random_sequence(rng, 5, 4, 3, 2)
    vocab = _vocab(rng, 6, 4, 5)
    with pytest.raises(InvalidParameter):
        generate(lambda s, p: exact_attention(params, s, p), seq, 0, vocab)


# ---------------------------------------------------------------------------
# the float32 screen of greedy picks: bitwise the float64 first maximum


def _float64_pick(table, h, left=None):
    logits = table @ h
    return int(logits.argmax() if left is None else left[logits[left].argmax()])


class _CountingTable(np.ndarray):
    """A decode table that counts its float64 products with a hidden: ``_pick``'s fallbacks."""

    products = 0

    def __matmul__(self, other):
        if self.dtype == np.float64:
            type(self).products += 1
        return np.asarray(self) @ other


@st.composite
def _screen_draws(draw):
    """A table, a hidden and maybe a ``left`` subset, built to make the screen's proof fail."""
    size, d = draw(st.integers(1, 300)), draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # near-twins twice as often: logits 2^-18 to 2^-30 apart are where a wrong slack shows
    rows = draw(st.sampled_from(["normal", "integer", "twins", "near-twins", "near-twins"]))
    if rows == "integer":  # every score exact, so equal scores tie exactly
        table = rng.integers(-2, 3, (size, d)).astype(float)
    else:
        table = rng.normal(0, 1, (size, d))
    hidden = draw(st.sampled_from(["normal", "integer", "row", "zero", "nan", "inf"]))
    h = {
        "normal": lambda: rng.normal(0, 1, d),
        "integer": lambda: rng.integers(-2, 3, d).astype(float),
        "row": lambda: table[rng.integers(size)] + rng.normal(0, 1e-3, d),  # a near-best row
        "zero": lambda: np.zeros(d),
        "nan": lambda: np.where(np.arange(d) == rng.integers(d), np.nan, rng.normal(0, 1, d)),
        "inf": lambda: np.where(np.arange(d) == rng.integers(d), np.inf, rng.normal(0, 1, d)),
    }[hidden]()
    if rows != "normal" and size > 1:  # the best row gets twins, exact or about 2^-k apart
        k = draw(st.integers(18, 30)) if rows == "near-twins" else None
        with np.errstate(invalid="ignore"):
            best = int(np.nan_to_num(table @ h).argmax())
        for twin in rng.choice(size, int(rng.integers(1, min(size, 8) + 1)), replace=False):
            table[twin] = table[best] + (0 if k is None else rng.normal(0, 2.0**-k, d))
    # scales from 2^-48 to 2^48 cross the screen's range [2^-40, 2^40] on either side
    table *= 2.0 ** draw(st.integers(-48, 48))
    h *= 2.0 ** draw(st.integers(-48, 48))
    left = None
    if draw(st.booleans()):
        left = np.sort(rng.choice(size, int(rng.integers(1, size + 1)), replace=False))
    return table, h, left


@settings(max_examples=600, deadline=None)
@given(_screen_draws())
def test_screened_pick_is_the_float64_first_maximum(draw):
    table, h, left = draw
    with np.errstate(invalid="ignore", over="ignore"):
        assert _pick(table, h, left, _screen_table(table)) == _float64_pick(table, h, left)


def test_screen_is_off_out_of_range():
    table = np.random.default_rng(0).normal(0, 1, (20, 4))
    assert _screen_table(table) is not None
    assert _screen_table(table * 2.0**41) is None and _screen_table(table * 2.0**-42) is None
    assert _screen_table(np.ones((3, 1025))) is None  # past d = 1024 the proof's spare units run out
    assert _screen_table(np.zeros((3, 4))) is None


def _fallbacks(table, h):
    """The float64 products ``_pick`` ran to pick from ``table``, once its pick is checked."""
    _CountingTable.products = 0
    pick = _pick(table.view(_CountingTable), h, None, _screen_table(table))
    assert pick == _float64_pick(table, h)
    return _CountingTable.products


def test_float64_product_runs_only_on_near_ties():
    rng = np.random.default_rng(7)
    separated = twins = 0
    for _ in range(200):
        table, h = rng.normal(0, 1, (1000, 16)), rng.normal(0, 1, 16)
        separated += _fallbacks(table, h)
        best = _float64_pick(table, h)
        table[(best + 1) % 1000] = table[best]  # an exact twin of the best row: a tie
        twins += _fallbacks(table, h)
    assert (separated, twins) == (0, 200)


@pytest.mark.parametrize("exclude", [False, True])
def test_generate_at_the_benchmark_shape_matches_the_float64_argmax(exclude):
    # long-generate's shape: V = 10,000, d = 16, D = 256, 200 tokens
    rng = stream(33, "screen")
    params = random_attention(rng, 16, 16)
    fmap = sample_feature_map(16, 256, seed=int(rng.integers(2**31)))
    vocab = _vocab(rng, 10_000, 16, 16)
    seq = random_sequence(rng, 16, 14, 16, 2)
    table = vocab.output_embeddings.view(_CountingTable)
    with mock.patch.object(
        transformer_module, "_candidate_table", lambda v, m: (range(v.size), table)
    ):
        _CountingTable.products = 0
        trace = generate(
            lambda s, p: kernel_attention(params, fmap, s, p), seq, 200, vocab,
            exclude_emitted=exclude,
        )
    left = np.arange(vocab.size)
    for tok, h in zip(trace.ids, trace.hiddens):
        assert tok == _float64_pick(vocab.output_embeddings, h, left if exclude else None)
        left = left[left != tok]
    assert len(trace.ids) == 200 and _CountingTable.products == 0


@pytest.mark.parametrize("shape", [(3,), (5,), (4, 1), (1, 4), ()])
def test_decode_and_generate_refuse_a_hidden_that_is_not_a_d_o_vector(shape):
    rng = np.random.default_rng(0)
    vocab = _vocab(rng, 6, 4, 3)
    seq = SegmentedSequence(np.zeros((1, 3)), (Tag.T_INSTR,))
    with pytest.raises(InvalidDimension, match=rf"shape \(4,\), got {re.escape(str(shape))}"):
        decode(vocab, np.zeros(shape))
    for exclude in (False, True):
        with pytest.raises(InvalidDimension, match="shape"):
            generate(lambda s, p: np.ones(shape), seq, 2, vocab, exclude_emitted=exclude)
