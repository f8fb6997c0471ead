"""Desk-scale decoder components.

Masked softmax attention with rotary positions, its random-feature
approximation, a frozen-activation FFN, multi-layer stacking through
connection matrices, grouped-query attention, and greedy decoding.

Rotary positions are applied elementwise to all columns at once, in the
x*cos + rotate_half(x)*sin form of RoFormer (Su et al. 2021), where
rotate_half maps each coordinate pair (a, b) to (-b, a); the dense matrix
``rope`` is kept as the reference that tests compare against.

Conventions:
  * positions are 1-based; the query at position p attends to the p-1
    strictly preceding tokens (the query token itself is excluded),
  * keys are rotated, values are not: k_i = R_i W_k x_i, v_i = W_v x_i,
  * the 1/sqrt(d) score scaling is absorbed into the kernel by dividing
    keys and query by d^{1/4} before the feature map,
  * a position with no preceding tokens yields the zero vector (needed
    when propagating every position through a layer stack).
"""

import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyCandidateSet,
    InvalidDimension,
    InvalidIndex,
    InvalidParameter,
    NormalizationDegenerate,
)
from .kernelmap import FourierFeatureMap, matvecs, phi, phi_matrix
from .sequence import SegmentedSequence, Tag

DEGENERATE_EPS = 1e-12


# ---------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True)
class AttentionParams:
    w_q: np.ndarray  # (d_o, d_i)
    w_k: np.ndarray
    w_v: np.ndarray
    rope_base: float = 10000.0

    def __post_init__(self):
        if not (self.w_q.shape == self.w_k.shape == self.w_v.shape):
            raise InvalidDimension("q/k/v projections must share shape")
        if self.rope_base <= 1.0:
            raise InvalidParameter("rope_base must exceed 1")
        for m in (self.w_q, self.w_k, self.w_v):
            m.setflags(write=False)

    @property
    def d_o(self) -> int:
        return self.w_q.shape[0]

    @property
    def d_i(self) -> int:
        return self.w_q.shape[1]


@dataclass(frozen=True)
class FfnParams:
    w1: np.ndarray  # (d_o, d_h)
    b1: np.ndarray  # (d_o,)
    w2: np.ndarray  # (d_h, d_o)
    b2: np.ndarray  # (d_h,)
    activation: str = "relu"  # "relu" | "identity"

    def __post_init__(self):
        d_o, d_h = self.w1.shape
        if self.w2.shape != (d_h, d_o) or self.b1.shape != (d_o,) or self.b2.shape != (d_h,):
            raise InvalidDimension("inconsistent FFN shapes")
        if self.activation not in ("relu", "identity"):
            raise InvalidParameter(f"unknown activation {self.activation!r}")

    @property
    def d_h(self) -> int:
        return self.w1.shape[1]


@dataclass(frozen=True)
class LayerStack:
    """Ordered (attention, ffn) layers; conn[l] maps layer l-1 output to layer l input.

    conn has length L with conn[0] unused and required to be None; None
    elsewhere means identity and requires d_o == d_i.
    """

    layers: tuple[tuple[AttentionParams, FfnParams], ...]
    conn: tuple[np.ndarray | None, ...] = ()

    def __post_init__(self):
        if not self.layers:
            raise InvalidDimension("a stack needs at least one layer")
        conn = self.conn if self.conn else tuple([None] * len(self.layers))
        if len(conn) != len(self.layers):
            raise InvalidDimension("need one connection slot per layer")
        if conn[0] is not None:
            raise InvalidDimension("conn[0] is unused and must be None")
        object.__setattr__(self, "conn", conn)
        for l in range(1, len(self.layers)):
            prev_out = self.layers[l - 1][0].d_o
            cur_in = self.layers[l][0].d_i
            w = conn[l]
            if w is None:
                if prev_out != cur_in:
                    raise InvalidDimension(
                        f"layer {l}: identity connection needs d_o == d_i "
                        f"({prev_out} vs {cur_in})"
                    )
            elif w.shape != (cur_in, prev_out):
                raise InvalidDimension(f"layer {l}: connection must be ({cur_in},{prev_out})")


@dataclass(frozen=True)
class GqaConfig:
    """n*g query heads in g key/value groups of n heads, over an output of dim d_o."""

    n: int
    g: int
    d_o: int
    w_concat: np.ndarray | None = None  # (n*g, head_dim, head_dim); None = identity

    def __post_init__(self):
        if self.n < 1 or self.g < 1:
            raise InvalidParameter("n and g must be positive")
        if self.d_o % (self.n * self.g) != 0:
            raise InvalidDimension(f"d_o={self.d_o} not divisible by n*g={self.n * self.g}")
        if self.w_concat is not None and self.w_concat.shape != (
            self.heads,
            self.head_dim,
            self.head_dim,
        ):
            raise InvalidDimension("w_concat must be (n*g, head_dim, head_dim)")

    @property
    def heads(self) -> int:
        return self.n * self.g

    @property
    def head_dim(self) -> int:
        return self.d_o // (self.n * self.g)

    def mix(self, s: int) -> np.ndarray:
        if self.w_concat is None:
            return np.eye(self.head_dim)
        return self.w_concat[s]

    def group_of(self, s: int) -> int:
        """Key/value group serving query head s (0-based): group i has heads [i*n, (i+1)*n)."""
        return s // self.n


@dataclass(frozen=True)
class GqaParams:
    """Per-head query projections, per-group key/value projections."""

    w_q: np.ndarray  # (heads, head_dim, d_i)
    w_k: np.ndarray  # (g, head_dim, d_i)
    w_v: np.ndarray  # (g, head_dim, d_i)
    rope_base: float = 10000.0

    def head(self, cfg: GqaConfig, s: int) -> AttentionParams:
        """Plain attention parameters of query head s and the group serving it."""
        if (self.w_q.shape[0], self.w_k.shape[0], self.w_v.shape[0]) != (cfg.heads, cfg.g, cfg.g):
            raise InvalidDimension(
                f"GQA params need {cfg.heads} query heads and {cfg.g} key/value groups"
            )
        grp = cfg.group_of(s)
        return AttentionParams(self.w_q[s], self.w_k[grp], self.w_v[grp], self.rope_base)


@dataclass(frozen=True)
class Vocabulary:
    output_embeddings: np.ndarray  # (V, d_o), decode table
    input_embeddings: np.ndarray  # (V, d_i), feedback table for autoregression

    def __post_init__(self):
        if self.output_embeddings.shape[0] != self.input_embeddings.shape[0]:
            raise InvalidDimension("decode and feedback tables must share row count")
        if not (
            np.all(np.isfinite(self.output_embeddings))
            and np.all(np.isfinite(self.input_embeddings))
        ):
            raise InvalidParameter("vocabulary embeddings must be finite")

    @property
    def size(self) -> int:
        return self.output_embeddings.shape[0]


# ---------------------------------------------------------------------------
# rotary positions


def rope(position: int, d_o: int, base: float = 10000.0) -> np.ndarray:
    """Block-diagonal rotation matrix R_position; identity at position 0.

    Odd d_o leaves the final coordinate fixed.  Satisfies R_m' R_n = R_{n-m}.
    This dense form is the reference only: the attention code rotates
    elementwise through ``_rotate``.
    """
    if position < 0:
        raise InvalidParameter("position must be non-negative")
    if d_o < 1:
        raise InvalidDimension("d_o must be >= 1")
    out = np.eye(d_o)
    half = d_o // 2
    if half == 0:
        return out
    j = np.arange(half)
    angles = position * base ** (-2.0 * j / d_o)
    c, s = np.cos(angles), np.sin(angles)
    for b in range(half):
        out[2 * b, 2 * b] = c[b]
        out[2 * b, 2 * b + 1] = -s[b]
        out[2 * b + 1, 2 * b] = s[b]
        out[2 * b + 1, 2 * b + 1] = c[b]
    return out


# (d, base) -> read-only cos and sin, (d // 2, P), of the angles at positions 0..P-1
_ROPE_TABLES: dict[tuple[int, float], tuple[np.ndarray, np.ndarray]] = {}


def _rope_table(d: int, base: float, end: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the rope angles of dimension d at positions 0..P-1, for some P >= end.

    A request past the end of the held table rebuilds it at twice its size,
    so the table grows with the longest position asked for.  Each element is
    the product and the ``cos``/``sin`` call a table of exactly these
    positions would make, so a slice has the bits of a fresh computation.
    """
    table = _ROPE_TABLES.get((d, base))
    if table is None or table[0].shape[1] < end:
        size = max(end, 0 if table is None else 2 * table[0].shape[1])
        angles = np.outer(base ** (-2.0 * np.arange(d // 2) / d), np.arange(size))
        table = np.cos(angles), np.sin(angles)
        for t in table:
            t.flags.writeable = False
        _ROPE_TABLES[(d, base)] = table
    return table


def _rotate(x: np.ndarray, first: int, base: float) -> np.ndarray:
    """Columnwise rope(first + i, d) @ x[..., :, i] for x of shape (..., d, n), elementwise.

    Column i sits at position first + i; cos and sin are slices of the
    (d, base) table of ``_rope_table``.
    """
    d, n = x.shape[-2:]
    half = d // 2
    cos, sin = _rope_table(d, base, first + n)
    c, s = cos[:, first : first + n], sin[:, first : first + n]
    even, odd = x[..., 0 : 2 * half : 2, :], x[..., 1 : 2 * half : 2, :]
    out = x.copy()
    out[..., 0 : 2 * half : 2, :] = c * even - s * odd
    out[..., 1 : 2 * half : 2, :] = s * even + c * odd
    return out


# ---------------------------------------------------------------------------
# attention


def _check_pos(seq: SegmentedSequence, query_pos: int) -> None:
    if query_pos < 2 or query_pos > len(seq):
        raise InvalidIndex(f"query_pos {query_pos} out of range for length {len(seq)}")


def _qkv(params: AttentionParams, tokens: np.ndarray):
    """Rotated keys, values (B, d_o, N-1) and rotated query (B, d_o, 1) of (B, N, d_i) tokens.

    Keys and query are rotated together, as columns 1..N.  A stacked
    ``np.matmul`` calls BLAS once per prompt with a lone prompt's strides, so
    no prompt's bits depend on the others.  Keys and query are C-contiguous
    copies: a strided view would change the BLAS path and last bits of the scores.
    """
    n = tokens.shape[1]
    context = tokens[:, :-1].transpose(0, 2, 1)
    block = np.empty((len(tokens), params.d_o, n))
    block[:, :, :-1] = np.matmul(params.w_k, context)
    block[:, :, -1:] = np.matmul(params.w_q, tokens[:, -1, :, None])
    block = _rotate(block, 1, params.rope_base)
    keys = np.ascontiguousarray(block[:, :, :-1])
    return keys, np.matmul(params.w_v, context), block[:, :, -1:].copy()


def exact_attention_batch(params: AttentionParams, tokens: np.ndarray) -> np.ndarray:
    """Masked softmax attention at the last position of each prompt in a (B, N, d_i) block.

    Row b is bitwise the output for prompt b alone.  Prompts of different
    lengths need separate blocks: padding would reassociate the softmax sum.
    """
    if tokens.ndim != 3 or tokens.shape[1] < 2:
        raise InvalidIndex(f"need a (B, N >= 2, d_i) token block, got shape {tokens.shape}")
    keys, values, q = _qkv(params, tokens)
    scores = np.matmul(keys.transpose(0, 2, 1), q)[:, :, 0] / np.sqrt(params.d_o)
    scores -= scores.max(axis=1, keepdims=True)
    w = np.exp(scores)
    w /= w.sum(axis=1, keepdims=True)
    return np.matmul(values, w[:, :, None])[:, :, 0]


def exact_attention(
    params: AttentionParams, seq: SegmentedSequence, query_pos: int
) -> np.ndarray:
    """Masked softmax attention output at query_pos, numerically stable."""
    _check_pos(seq, query_pos)
    return exact_attention_batch(params, seq.tokens[None, :query_pos])[0]


class _FeatureCache:
    """Bounded LRU of featurized rotated projections, checked by content.

    An entry is (feature map, W, rope base, first, rows, features): rows
    x_1..x_n at positions first..first+n-1 and the (n, D) features of their
    projections R_p W x_i / d_o^{1/4}, both exact-sized, under one feature
    map, compared by identity, one W, compared bitwise with its shape, one
    rope base and one first position.  Keys are served with W = W_k from
    position 1, the queries of a layer scan with W = W_q from position 2.  A
    request for rows y_1..y_m is served by the most recent entry whose rows
    agree bitwise with y on their common prefix: a slice when the entry holds
    at least m rows, else only the rows it lacks are rotated, featurized and
    concatenated on, and the longer entry replaces it.  Any other request
    starts a new entry, which keeps the array ``phi_matrix`` returned as its
    features, without a copy.  Features are computed per column
    (``matvecs``, ``phi_matrix``), so a served array has exactly the bits of a
    cold computation, and the guards of ``phi_matrix`` run on every row the
    first time it is featurized.

    The cache also holds ``stack_trace``'s memo of its last result, under the
    same lock; ``clear`` empties both.
    """

    def __init__(self, size: int):
        self.size = size
        self.entries: list[tuple] = []  # least recently used first
        self.trace: tuple | None = None  # (feature map, key, layer inputs 1..L-1)
        self._lock = threading.Lock()

    def clear(self) -> None:
        with self._lock:
            self.entries.clear()
            self.trace = None

    def features(
        self,
        w: np.ndarray,
        rope_base: float,
        fmap: FourierFeatureMap,
        rows: np.ndarray,
        first: int,
    ) -> np.ndarray:
        """Read-only (D, m) features of R_p W x for rows (m, d_i) at positions first..first+m-1."""
        if fmap.input_dim != w.shape[0]:
            raise InvalidDimension("feature map input_dim must equal d_o")
        rows = np.asarray(rows, dtype=float)
        w = np.asarray(w, dtype=float)
        with self._lock:
            hit = next(
                (i for i, (f, v, b, p, have, _) in reversed(list(enumerate(self.entries)))
                 if f is fmap and b == rope_base and p == first and _same_bits(v, w)
                 and _same_bits(have[: len(rows)], rows[: len(have)])),
                None,
            )
            if hit is None:
                entry = (fmap, w.copy(), rope_base, first, rows[:0],
                         np.empty((0, fmap.feature_dim)))
            else:
                entry = self.entries[hit]
            have, feats = entry[4:]
            n = len(have)
            if len(rows) > n:  # a guard raised here leaves the cache as it was
                x = _rotate(matvecs(w, rows[n:]).T, first + n, rope_base)
                new = phi_matrix(fmap, x / w.shape[0] ** 0.25).T
                if n:
                    have, feats = np.concatenate((have, rows[n:])), np.concatenate((feats, new))
                else:  # a new entry adopts the block phi_matrix just wrote
                    have, feats = rows.copy(), new
                entry = entry[:4] + (have, feats)
            if hit is not None:
                del self.entries[hit]
            self.entries.append(entry)
            del self.entries[: -self.size]
            out = feats[: len(rows)].T
        out.flags.writeable = False
        return out


def _bits(a: np.ndarray) -> tuple:
    """dtype, shape and bytes: equal for two arrays iff they hold the same bits."""
    return a.dtype.str, a.shape, a.tobytes()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return _bits(a) == _bits(b)


# A prompt and its extensions share one entry per projection.  An L-layer
# stack's forward pass uses 2L - 1: keys and queries of each of its L - 1
# scans, and the keys of its last layer.  Its dual build takes the layer
# inputs from stack_trace's memo and hits the L key entries; a scan repeated
# after the memo has moved on hits the query entries too.
# Every entry keeps its feature map and its features alive, so each further
# slot costs memory.
_FEATURES = _FeatureCache(5)


def _kernel_weights(
    params: AttentionParams,
    fmap: FourierFeatureMap,
    seq: SegmentedSequence,
    query_pos: int,
):
    """Shared pieces of every kernelized computation at one position.

    Returns (values, feat_keys, feat_q, weights, c) with keys and query
    pre-divided by d_o^{1/4} so that feature inner products target
    exp(k.q / sqrt(d_o)); ``weights`` are the unnormalized phi(K)' phi(q)
    whose sum is 1 / c.  The key features come from ``_FEATURES`` and are
    read-only.
    """
    _check_pos(seq, query_pos)
    context = seq.tokens[: query_pos - 1]
    feat_keys = _FEATURES.features(params.w_k, params.rope_base, fmap, context, 1)
    q = _rotate((params.w_q @ seq.tokens[query_pos - 1])[:, None], query_pos, params.rope_base)
    feat_q = phi(fmap, q[:, 0] / params.d_o**0.25)
    weights = feat_keys.T @ feat_q
    denom = float(np.sum(weights))
    if abs(denom) < DEGENERATE_EPS:
        raise NormalizationDegenerate(f"normalization denominator {denom:.3e}")
    return params.w_v @ context.T, feat_keys, feat_q, weights, 1.0 / denom


def kernel_attention(
    params: AttentionParams,
    fmap: FourierFeatureMap,
    seq: SegmentedSequence,
    query_pos: int,
) -> np.ndarray:
    """Random-feature approximation h = c V phi(K)' phi(q)."""
    values, _, _, weights, c = _kernel_weights(params, fmap, seq, query_pos)
    return c * values @ weights


def split_attention(
    params: AttentionParams,
    fmap: FourierFeatureMap,
    seq: SegmentedSequence,
    query_pos: int,
):
    """Kernel attention split into task-side and demonstration-side parts."""
    values, _, _, weights, c = _kernel_weights(params, fmap, seq, query_pos)
    weights = c * weights
    task = np.isin(np.arange(query_pos - 1), seq.idx_task)
    return values @ (weights * task), values @ (weights * ~task)


# ---------------------------------------------------------------------------
# feed-forward and stacking


def _ffn_forward(ffn: FfnParams, h: np.ndarray) -> np.ndarray:
    """FFN of one hidden vector (d_o,) or of every column of a (d_o, n) array."""
    b1, b2 = (ffn.b1, ffn.b2) if h.ndim == 1 else (ffn.b1[:, None], ffn.b2[:, None])
    z = ffn.w2 @ h + b2
    act = np.maximum(z, 0.0) if ffn.activation == "relu" else z
    return ffn.w1 @ act + b1


def layer_forward(
    params: AttentionParams,
    ffn: FfnParams,
    seq: SegmentedSequence,
    query_pos: int,
    fmap: FourierFeatureMap | None = None,
) -> np.ndarray:
    """Attention followed by the FFN; kernel mode when a feature map is given."""
    if query_pos < 2:
        h = np.zeros(params.d_o)
    elif fmap is None:
        h = exact_attention(params, seq, query_pos)
    else:
        h = kernel_attention(params, fmap, seq, query_pos)
    return _ffn_forward(ffn, h)


def _layer_scan(
    params: AttentionParams,
    ffn: FfnParams,
    seq: SegmentedSequence,
    fmap: FourierFeatureMap | None,
) -> np.ndarray:
    """Layer outputs at positions 1..n = len(seq) as the columns of a (d_o, n) array.

    Causal linear attention (Katharopoulos et al. 2020): keys 1..n-1 and
    queries 2..n are rotated and featurized once, and the query at column j
    (position j+2) weighs key i (position i+1) iff i <= j.  Matches
    ``layer_forward`` at every position, with the same guards.  In kernel
    mode both key and query features come from ``_FEATURES``, keys first, so
    a repeated scan of the same layer input featurizes no column again.
    Position 1 is never featurized as a query.
    """
    n = len(seq)
    tokens = seq.tokens.T
    causal = np.triu(np.ones((n - 1, n - 1), dtype=bool))
    if fmap is None:
        queries = _rotate(params.w_q @ tokens[:, 1:], 2, params.rope_base)
        keys = _rotate(params.w_k @ tokens[:, :-1], 1, params.rope_base)
        scores = np.where(causal, keys.T @ queries / np.sqrt(params.d_o), -np.inf)
        w = np.exp(scores - scores.max(axis=0))
    else:
        feat_keys = _FEATURES.features(params.w_k, params.rope_base, fmap, seq.tokens[:-1], 1)
        feat_q = _FEATURES.features(params.w_q, params.rope_base, fmap, seq.tokens[1:], 2)
        w = np.where(causal, feat_keys.T @ feat_q, 0.0)
    denom = w.sum(axis=0)
    bad = np.flatnonzero(np.abs(denom) < DEGENERATE_EPS)
    if bad.size:
        raise NormalizationDegenerate(
            f"normalization denominator {denom[bad[0]]:.3e} at position {bad[0] + 2}"
        )
    h = np.zeros((params.d_o, n))
    h[:, 1:] = params.w_v @ tokens[:, :-1] @ (w / denom)
    return _ffn_forward(ffn, h)


def stack_trace(
    stack: LayerStack,
    fmap: FourierFeatureMap | None,
    seq: SegmentedSequence,
    query_pos: int,
):
    """Propagate every position through every layer.

    Returns the list of per-layer input sequences (length L, element l is the
    sequence layer l consumes, truncated at query_pos).  Each of the first
    L-1 layers is one causal pass over all positions (``_layer_scan``): one
    feature pass over N keys and N queries plus a masked N x N product, so
    O(L N d D + L N^2 (D + d)) instead of the O(L N^2 d D) of N from-scratch
    attentions per layer.

    The last result is memoized in ``_FEATURES.trace``, so a stack's dual
    build right after its forward pass scans nothing again.  The memo is
    checked by content: the feature map by identity, and bitwise every
    projection, rope base, FFN array and activation, every connection matrix
    (FFN and connection arrays are writable), the tokens and tags up to
    query_pos.  A hit returns the caller's own prefix as layer 0's input and
    the stored, read-only inputs of layers 1..L-1.  Only a trace that passed
    every guard is stored, and ``_FEATURES.clear()`` drops it.
    """
    _check_pos(seq, query_pos)
    key = _trace_key(stack, seq, query_pos)
    with _FEATURES._lock:
        memo = _FEATURES.trace
    layer_inputs = [seq.truncate(query_pos)]
    if memo is not None and memo[0] is fmap and memo[1] == key:
        return layer_inputs + list(memo[2])
    for l, (att, ffn) in enumerate(stack.layers[:-1]):
        outs = _layer_scan(att, ffn, layer_inputs[-1], fmap).T
        w = stack.conn[l + 1]
        nxt = outs if w is None else outs @ w.T
        layer_inputs.append(layer_inputs[-1].with_tokens(nxt))
    with _FEATURES._lock:
        _FEATURES.trace = (fmap, key, tuple(layer_inputs[1:]))
    return layer_inputs


def _trace_key(stack: LayerStack, seq: SegmentedSequence, query_pos: int) -> tuple:
    """Everything ``stack_trace`` reads except the feature map, as plain values and bytes."""
    layers = tuple(
        (*(_bits(m) for m in (att.w_q, att.w_k, att.w_v, ffn.w1, ffn.b1, ffn.w2, ffn.b2)),
         att.rope_base, ffn.activation)
        for att, ffn in stack.layers
    )
    conn = tuple(None if w is None else _bits(w) for w in stack.conn)
    return layers, conn, query_pos, _bits(seq.tokens[:query_pos]), seq.tags[:query_pos]


def stack_forward(
    stack: LayerStack,
    fmap: FourierFeatureMap | None,
    seq: SegmentedSequence,
    query_pos: int,
) -> np.ndarray:
    """Output of the final layer at query_pos; L = 1 reduces to layer_forward."""
    layer_inputs = stack_trace(stack, fmap, seq, query_pos)
    att, ffn = stack.layers[-1]
    return layer_forward(att, ffn, layer_inputs[-1], query_pos, fmap)


# ---------------------------------------------------------------------------
# grouped-query attention


def gqa_attention(
    params: GqaParams,
    cfg: GqaConfig,
    fmap: FourierFeatureMap,
    seq: SegmentedSequence,
    query_pos: int,
) -> np.ndarray:
    """Concatenation of per-head block outputs W_concat^(s) c^(s) V phi(K)' phi(q)."""
    return np.concatenate(
        [cfg.mix(s) @ kernel_attention(params.head(cfg, s), fmap, seq, query_pos)
         for s in range(cfg.heads)]
    )


# ---------------------------------------------------------------------------
# decoding and generation


def _candidate_ids(mask, size: int) -> np.ndarray:
    """Ascending ids in [0, size) from a set or other iterable of ids, or from an int array."""
    ids = np.sort(np.asarray(mask if isinstance(mask, np.ndarray) else list(mask), dtype=np.intp))
    if ids.size and (ids[0] < 0 or ids[-1] >= size):
        raise InvalidIndex(f"candidate ids must lie in [0, {size}), got {ids[0]}..{ids[-1]}")
    return ids


def _candidate_table(vocab: Vocabulary, mask) -> tuple[np.ndarray | None, np.ndarray]:
    """Ascending candidate ids (None for the whole vocabulary) and their output embeddings.

    Every greedy pick is an ``argmax`` over logits of this one table, so an
    id's logit has the same bits whichever ids an emission rule has removed.
    """
    if mask is None:
        if not vocab.size:
            raise EmptyCandidateSet("vocabulary is empty")
        return None, vocab.output_embeddings
    ids = _candidate_ids(mask, vocab.size)
    if not ids.size:
        raise EmptyCandidateSet("candidate mask is empty")
    return ids, vocab.output_embeddings[ids]


def decode(vocab: Vocabulary, h: np.ndarray, mask=None) -> int:
    """Greedy argmax of dot(h, output embedding); ties go to the smallest id.

    ``mask`` is any iterable of candidate ids (a set, or an int array).
    """
    ids, table = _candidate_table(vocab, mask)
    # argmax returns the first maximum, which over ascending ids is the smallest id
    i = int(np.argmax(table @ h))
    return i if ids is None else int(ids[i])


@dataclass(frozen=True)
class GenerationTrace:
    ids: tuple[int, ...]
    hiddens: tuple[np.ndarray, ...]
    positions: tuple[int, ...]
    final_seq: SegmentedSequence


def generate(
    forward,
    seq: SegmentedSequence,
    steps: int,
    vocab: Vocabulary,
    mask=None,
    exclude_emitted: bool = False,
) -> GenerationTrace:
    """Autoregressive greedy loop: forward at the last position, decode, append.

    ``forward(seq, pos) -> hidden`` abstracts over the attention variants.
    With ``exclude_emitted`` the output behaves like a ranked list of distinct
    items: an id is removed from the candidate set once emitted.  Each step
    decodes as ``decode`` does over the candidate set, with the emitted ids
    skipped by the argmax rather than removed from the logits' table.
    """
    if steps < 1:
        raise InvalidParameter("steps must be >= 1")
    cand, table = _candidate_table(vocab, mask)
    left = np.arange(len(table)) if exclude_emitted else None  # table rows not yet emitted
    ids, hiddens, positions = [], [], []
    for _ in range(steps):
        pos = len(seq)
        h = forward(seq, pos)
        logits = table @ h
        i = int(np.argmax(logits) if left is None else left[np.argmax(logits[left])])
        tok = i if cand is None else int(cand[i])
        ids.append(tok)
        hiddens.append(h)
        positions.append(pos)
        if left is not None:
            left = left[left != i]
            if not left.size:
                break
        seq = seq.append(vocab.input_embeddings[tok], Tag.T_LEAD)
    return GenerationTrace(tuple(ids), tuple(hiddens), tuple(positions), seq)
