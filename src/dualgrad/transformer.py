"""Desk-scale decoder components.

Masked softmax attention with rotary positions, its random-feature
approximation, a frozen-activation FFN, kernel-mode layers stacked through
connection matrices, grouped-query attention, and greedy decoding.

Rotary positions are applied elementwise to all columns at once, in the
x*cos + rotate_half(x)*sin form of RoFormer (Su et al. 2021), where
rotate_half maps each coordinate pair (a, b) to (-b, a), with its sign kept
in the sine table; the dense matrix ``rope`` is the tests' reference.

Conventions:
  * positions are 1-based; the query at position p attends to the p-1
    strictly preceding tokens (the query token itself is excluded),
  * keys are rotated, values are not: k_i = R_i W_k x_i, v_i = W_v x_i,
  * the 1/sqrt(d) score scaling is absorbed into the kernel by dividing
    keys and query by d^{1/4} before the feature map,
  * a position with no preceding tokens yields the zero vector (needed
    when propagating every position through a layer stack).
"""

import math
from dataclasses import dataclass
from functools import cache
from typing import ClassVar

import numpy as np

from .errors import (
    EmptyCandidateSet,
    InvalidDimension,
    InvalidIndex,
    InvalidParameter,
    NormalizationDegenerate,
)
from .kernelmap import FourierFeatureMap, matvecs, phi_matrix
from .sequence import SegmentedSequence

DEGENERATE_EPS = 1e-12
MAX_KAPPA = 10.0  # largest sum|w| / |sum w|: cancellation scales the normalizer's rounding by it
ROPE_BASE = 10000.0  # RoFormer's rotary base: block j turns by p * ROPE_BASE^{-2j/d}


# ---------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True)
class AttentionParams:
    w_q: np.ndarray  # (d_o, d_i)
    w_k: np.ndarray
    w_v: np.ndarray
    # Not a field; only the benchmark's own oracle reads it
    # (bench/workloads.py, kernel_attention_ref).  The library reads ROPE_BASE.
    rope_base: ClassVar[float] = ROPE_BASE

    def __post_init__(self):
        if not (self.w_q.shape == self.w_k.shape == self.w_v.shape):
            raise InvalidDimension("q/k/v projections must share shape")
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


@dataclass(frozen=True)
class GqaParams:
    """Per-head query projections, per-group key/value projections."""

    w_q: np.ndarray  # (heads, head_dim, d_i)
    w_k: np.ndarray  # (g, head_dim, d_i)
    w_v: np.ndarray  # (g, head_dim, d_i)

    def head(self, cfg: GqaConfig, s: int) -> AttentionParams:
        """Attention parameters of query head s (0-based) and group s // n, which serves it."""
        shapes = (self.w_q.shape[:2], self.w_k.shape[:2], self.w_v.shape[:2])
        if shapes != ((cfg.heads, cfg.head_dim), (cfg.g, cfg.head_dim), (cfg.g, cfg.head_dim)):
            raise InvalidDimension(
                f"GQA params need {cfg.heads} query heads and {cfg.g} key/value "
                f"groups, all of dim {cfg.head_dim}"
            )
        grp = s // cfg.n
        return AttentionParams(self.w_q[s], self.w_k[grp], self.w_v[grp])


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
        for t in (self.output_embeddings, self.input_embeddings):
            t.setflags(write=False)

    @property
    def size(self) -> int:
        return self.output_embeddings.shape[0]


# ---------------------------------------------------------------------------
# rotary positions


def rope(position: int, d_o: int) -> np.ndarray:
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
    j = np.arange(d_o // 2)
    angles = position * ROPE_BASE ** (-2.0 * j / d_o)
    c, s = np.cos(angles), np.sin(angles)
    out[2 * j, 2 * j] = out[2 * j + 1, 2 * j + 1] = c
    out[2 * j, 2 * j + 1], out[2 * j + 1, 2 * j] = -s, s
    return out


@cache
def _rope_table(d: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only C, S and swap: rope(p, d) @ x = x * C[:, p] + x[swap] * S[:, p] for p < size.

    Rows 2j and 2j+1 hold cos of block j's angles in C, -sin and sin in S;
    swap exchanges them, and an odd d's last row (1 in C, 0 in S) stays.
    ``_rotate`` asks for a power-of-two size, so each d holds one table per
    power of two up to its longest position, at ROPE_BASE.  Each element is the
    product and the ``cos``/``sin`` call a table of exactly these positions would
    make, so a slice has the bits of a fresh computation at any size.
    """
    angles = np.outer(ROPE_BASE ** (-2.0 * np.arange(d // 2) / d), np.arange(size))
    cos, sin = np.ones((d, size)), np.zeros((d, size))
    cos[0 : d - 1 : 2] = cos[1::2] = np.cos(angles)
    sin[1::2] = np.sin(angles)
    sin[0 : d - 1 : 2] = -sin[1::2]
    swap = np.arange(d)
    swap[: d - d % 2] ^= 1
    for t in (cos, sin, swap):
        t.flags.writeable = False
    return cos, sin, swap


def _rotate(x: np.ndarray, first: int) -> np.ndarray:
    """Columnwise rope(first + i, d) @ x[..., :, i] for x of shape (..., d, n), elementwise.

    Column i sits at position first + i.  A pair (a, b) becomes (a c + b (-s), b c + a s),
    bitwise c a - s b and s a + c b for finite x; an odd d's last row is copied from x.
    """
    d, n = x.shape[-2:]
    cos, sin, swap = _rope_table(d, 1 << (first + n - 1).bit_length())
    out = x * cos[:, first : first + n]
    out += x.take(swap, axis=-2) * sin[:, first : first + n]
    if d % 2:
        out[..., -1, :] = x[..., -1, :]
    return out


# ---------------------------------------------------------------------------
# attention


def _check_pos(seq: SegmentedSequence, query_pos: int) -> None:
    if query_pos < 2 or query_pos > len(seq):
        raise InvalidIndex(f"query_pos {query_pos} out of range for length {len(seq)}")


def _qkv(params: AttentionParams, tokens: np.ndarray):
    """Rotated keys, values (B, d_o, N-1) and rotated query (B, d_o, 1) of (B, N, d_i) tokens.

    Keys sit at positions 1..N-1 and the query at N.  A stacked ``np.matmul``
    calls BLAS once per prompt with a lone prompt's strides, so no prompt's
    bits depend on the others.  ``_rotate`` returns fresh C-contiguous arrays:
    a strided view would change the BLAS path and last bits of the scores.
    """
    context = tokens[:, :-1].transpose(0, 2, 1)
    keys = _rotate(np.matmul(params.w_k, context), 1)
    query = _rotate(np.matmul(params.w_q, tokens[:, -1, :, None]), tokens.shape[1])
    return keys, np.matmul(params.w_v, context), query


def exact_attention_batch(params: AttentionParams, tokens: np.ndarray) -> np.ndarray:
    """Masked softmax attention at the last position of each prompt in a (B, N, d_i) block.

    Row b is bitwise the output for prompt b alone.  Prompts of different
    lengths need separate blocks: padding would reassociate the softmax sum.
    """
    if tokens.ndim != 3 or tokens.shape[1] < 2:
        raise InvalidIndex(f"need a (B, N >= 2, d_i) token block, got shape {tokens.shape}")
    return _softmax(*_qkv(params, tokens))


def _softmax(keys: np.ndarray, values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Softmax attention (B, d_o) of queries q (B, d_o, 1) over keys and values (B, d_o, N-1).

    Works in place on the (B, N-1, 1) score block, which weights the values as it stands;
    the ufunc reductions are the arithmetic of ``ndarray.max`` and ``.sum`` without their wrappers.
    """
    scores = np.matmul(keys.transpose(0, 2, 1), q)
    scores /= math.sqrt(keys.shape[1])
    scores -= np.maximum.reduce(scores, axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=1, keepdims=True)
    return np.matmul(values, scores)[:, :, 0]


def _project(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """W x (n, d_o) of rows x (n, d_i), by gemms of 64 columns in ``_qkv``'s call form."""
    pad = np.vstack((rows, np.zeros((-len(rows) % 64, rows.shape[1]))))
    cols = np.matmul(w, pad.reshape(-1, 64, pad.shape[1]).transpose(0, 2, 1))
    return cols.transpose(0, 2, 1).reshape(-1, len(w))[: len(rows)]


@cache
def _width_free(d_o: int, d_i: int, end: int) -> bool:
    """Whether ``_qkv``'s context gemms of widths 2..end-1 give every column ``_project``'s bits.

    A BLAS may take another path at another width or tail position (gemv at d_o = 1,
    OpenBLAS's small-matrix kernel, edge tiles), and no path reads the data: random rows
    settle it for a shape, each row at every position of a block of each width.
    """
    rng = np.random.default_rng(0)
    w, x = rng.normal(size=(d_o, d_i)), rng.normal(size=(64, d_i))
    spin, want = np.arange(64)[:, None], _project(w, x)
    return all(_same_bits(np.matmul(w, x[at].transpose(0, 2, 1)), want[at].transpose(0, 2, 1))
               for at in ((spin + np.arange(m)) % 64 for m in range(2, end)))


class SlotTables:
    """Keys, queries and values of the rows of ``rows`` (slots) at positions 1..P.

    Keys and queries, turned by ``_rotate``, and values, alike at every position, are flat
    C-order (P, d_o, S) tables: a block's flat indices are its slots plus ``offsets``.  Key and
    value columns come from ``_project``, query columns from ``matvecs``, as ``_qkv``'s query.
    """

    def __init__(self, params: AttentionParams, rows: np.ndarray):
        self.params, self.rows, self.positions = params, rows, 0

    def grow(self, end: int) -> "SlotTables":
        """Hold positions 1..end at least, rebuilt at exactly that length when longer.

        Tables that are not width-free are never read, so they are not built.
        """
        p, rows = self.params, self.rows
        if end > self.positions:
            self.positions, self.width_free = end, _width_free(p.d_o, p.d_i, end)
            if self.width_free:
                k, q = (np.broadcast_to(t[:, :, None], (*t.shape, end))
                        for t in (_project(p.w_k, rows), matvecs(p.w_q, rows)))
                self.keys, self.queries = (_rotate(t, 1).transpose(2, 1, 0).ravel() for t in (k, q))
                v = _project(p.w_v, rows).T
                self.values = np.broadcast_to(v, (end, *v.shape)).ravel()
                self.offsets = np.arange(0, end * p.d_o * len(rows), len(rows)).reshape(end, -1).T
        return self


def exact_attention_slots(tables: SlotTables, slots: np.ndarray) -> np.ndarray:
    """``exact_attention_batch(tables.params, tables.rows[slots])``, bitwise, of a (B, N) int block.

    Keys, values (B, d_o, N-1) and query (B, d_o, 1) are gathered C-contiguous, as ``_qkv``
    lays them out.  N < 3 (a 1-column context is gemv in ``_qkv``; N < 2 raises there)
    and tables that are not width-free take the row forward.
    """
    n = slots.shape[1]
    if n < 3 or not tables.grow(n).width_free:
        return exact_attention_batch(tables.params, tables.rows[slots])
    at = slots[:, None, :] + tables.offsets[:, :n]
    ctx = at[:, :, :-1]
    return _softmax(tables.keys.take(ctx), tables.values.take(ctx),
                    tables.queries.take(at[:, :, -1:]))


def exact_attention(
    params: AttentionParams, seq: SegmentedSequence, query_pos: int
) -> np.ndarray:
    """Masked softmax attention output at query_pos, numerically stable."""
    _check_pos(seq, query_pos)
    return exact_attention_batch(params, seq.tokens[None, :query_pos])[0]


def _featurize(w: np.ndarray, fmap: FourierFeatureMap, rows: np.ndarray, first: int) -> np.ndarray:
    """Fresh (n, D) features of R_p W x / d_o^{1/4}, rows x (n, d_i) at positions first...

    Per row throughout, so a row's features have the same bits in a block of any size.
    """
    return phi_matrix(fmap, _rotate(matvecs(w, rows).T, first) / w.shape[0] ** 0.25).T


class _FeatureCache:
    """Bounded LRU of featurized rotated prefix keys, checked by content.

    An entry is (feature map, W, rows, features): rows x_1..x_n at positions
    1..n and their (n, D) features from ``_featurize``, both exact-sized,
    under one feature map, compared by identity, and one W = W_k, compared
    bitwise with its shape.  Queries are not held: a layer scan featurizes
    its queries on every pass, and ``stack_trace``'s memo serves a repeated
    pass.  A request for rows y_1..y_m is served by the most recent entry
    whose rows agree bitwise with y on their common prefix: a slice when the
    entry holds at least m rows, else only the rows it lacks are featurized
    and concatenated on, and the longer entry replaces it.  Any other
    request starts a new entry, which keeps the block ``_featurize`` wrote as
    its features, without a copy.  Features are computed per row, so a
    served array has exactly the bits of a cold computation, and the guards
    of ``phi_matrix`` run on every row the first time it is featurized.

    The cache also holds ``stack_trace``'s memo of its last result; ``clear``
    empties both.  No lock guards it: callers on several threads must hold
    one of their own around every kernel-mode call.
    """

    def __init__(self, size: int):
        self.size = size
        self.entries: list[tuple] = []  # least recently used first
        self.trace: tuple | None = None  # (feature map, key, layer inputs 1..L-1)

    def clear(self) -> None:
        self.entries.clear()
        self.trace = None

    def features(self, w: np.ndarray, fmap: FourierFeatureMap, rows: np.ndarray) -> np.ndarray:
        """Read-only (D, m) features of R_p W x for rows (m, d_i) at positions 1..m."""
        rows = np.asarray(rows, dtype=float)
        w = np.asarray(w, dtype=float)
        for hit in reversed(range(len(self.entries))):  # the most recent match
            f, v, have, feats = self.entries[hit]
            if f is fmap and _same_bits(v, w) and _same_bits(have[: len(rows)], rows[: len(have)]):
                break
        else:
            hit, v, have, feats = None, w.copy(), rows[:0], np.empty((0, fmap.feature_dim))
        n = len(have)
        if len(rows) > n:  # a guard raised here leaves the cache as it was
            new = _featurize(w, fmap, rows[n:], 1 + n)
            if n:
                have, feats = np.concatenate((have, rows[n:])), np.concatenate((feats, new))
            else:  # a new entry adopts the block _featurize just wrote
                have, feats = rows.copy(), new
        if hit is not None:
            del self.entries[hit]
        self.entries.append((fmap, v, have, feats))
        del self.entries[: -self.size]
        out = feats[: len(rows)].T
        out.flags.writeable = False
        return out


def _bits(a: np.ndarray) -> tuple:
    """dtype, shape and bytes: equal for two arrays iff they hold the same bits."""
    return a.dtype.str, a.shape, a.tobytes()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return _bits(a) == _bits(b)


# A prompt and its extensions share one entry per key projection.  An
# L-layer stack's forward pass makes L entries, the keys of each layer, and
# its dual build takes the layer inputs from stack_trace's memo and hits
# those L entries; GQA makes one entry per key group.
# Every entry keeps its feature map and its features alive, so each further
# slot costs memory.
_FEATURES = _FeatureCache(5)


def _kernel_block(
    params: AttentionParams, fmap: FourierFeatureMap, tokens: np.ndarray, first: int
):
    """Kernel attention pieces for the queries at positions first..n of rows (n, d_i) ``tokens``.

    Returns values V (d_o, n-1), read-only key features (D, n-1) from
    ``_FEATURES``, query features (D, n-first+1), featurized after the keys,
    the unnormalized weights phi(K)' phi(q) of each query's preceding keys,
    and their column sums.  The first sum whose size is below ``DEGENERATE_EPS``,
    or below sum |w| / ``MAX_KAPPA`` (weights that cancel), raises
    ``NormalizationDegenerate``.  Keys and queries are pre-divided by
    d_o^{1/4} so that feature inner products target exp(k.q / sqrt(d_o)).
    """
    feat_keys = _FEATURES.features(params.w_k, fmap, tokens[:-1])
    feat_q = _featurize(params.w_q, fmap, tokens[first - 1 :], first).T
    weights = feat_keys.T @ feat_q
    # Key i (position i+1) precedes the query in column j.  One query sees
    # every key and skips np.triu, whose fixed cost (about 6 us on a 2-vCPU
    # x86-64 host) took 5 % off long-generate's ops/s.
    if weights.shape[1] > 1:
        weights = np.triu(weights, 2 - first)
    denom = weights.sum(axis=0)
    floor = np.maximum(np.add.reduce(np.abs(weights)) / MAX_KAPPA, DEGENERATE_EPS)
    bad = np.flatnonzero(np.abs(denom) < floor)
    if bad.size:
        raise NormalizationDegenerate(
            f"normalization denominator {denom[bad[0]]:.3e} at position {first + bad[0]}"
        )
    return params.w_v @ tokens[:-1].T, feat_keys, feat_q, weights, denom


def _kernel_weights(
    params: AttentionParams,
    fmap: FourierFeatureMap,
    seq: SegmentedSequence,
    query_pos: int,
):
    """``_kernel_block`` of the one query at query_pos, as (values, feat_keys, feat_q, weights, c).

    ``feat_q`` and ``weights`` are that query's column, and c = 1 / sum(weights).
    """
    _check_pos(seq, query_pos)
    values, feat_keys, feat_q, weights, denom = _kernel_block(
        params, fmap, seq.tokens[:query_pos], query_pos
    )
    return values, feat_keys, feat_q[:, 0], weights[:, 0], 1.0 / float(denom[0])


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
    return tuple(values[:, cols] @ weights[cols] for cols in _split(seq, query_pos))


def _split(seq: SegmentedSequence, query_pos: int):
    """Task-side and demonstration columns of the context before query_pos.

    It depends only on the tags, so one dual build computes it once for all its
    heads or layers.
    """
    task = seq.idx_task
    task = task[task < query_pos - 1]
    return task, np.delete(np.arange(query_pos - 1), task)


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
    fmap: FourierFeatureMap,
) -> np.ndarray:
    """Kernel attention followed by the FFN; position 1 has no key, so its attention is 0."""
    h = np.zeros(params.d_o) if query_pos == 1 else kernel_attention(params, fmap, seq, query_pos)
    return _ffn_forward(ffn, h)


def _layer_scan(
    params: AttentionParams,
    ffn: FfnParams,
    seq: SegmentedSequence,
    fmap: FourierFeatureMap,
) -> np.ndarray:
    """Layer outputs at positions 1..n = len(seq) as the columns of a (d_o, n) array.

    Causal linear attention (Katharopoulos et al. 2020): ``_kernel_block`` of
    queries 2..n, so keys 1..n-1 and queries 2..n are rotated and featurized
    once.  Matches ``layer_forward`` at every position, with the same guards;
    ``stack_trace``'s memo spares a repeated pass.  Position 1 is never
    featurized as a query.
    """
    values, _, _, weights, denom = _kernel_block(params, fmap, seq.tokens, 2)
    h = np.zeros((params.d_o, len(seq)))
    h[:, 1:] = values @ (weights / denom)
    return _ffn_forward(ffn, h)


def stack_trace(
    stack: LayerStack,
    fmap: FourierFeatureMap,
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
    build right after its forward pass runs no scan and featurizes no scan
    query again.  The memo is checked by content: the feature map by
    identity, and bitwise every projection, FFN array and activation, every
    connection matrix (FFN and connection arrays are writable), the tokens
    and tags up to query_pos.  A hit returns the caller's own prefix as layer 0's input and
    the stored, read-only inputs of layers 1..L-1.  Only a trace that passed
    every guard is stored, and ``_FEATURES.clear()`` drops it.
    """
    _check_pos(seq, query_pos)
    key = _trace_key(stack, seq, query_pos)
    memo = _FEATURES.trace
    layer_inputs = [seq.truncate(query_pos)]
    if memo is not None and memo[0] is fmap and memo[1] == key:
        return layer_inputs + list(memo[2])
    for l, (att, ffn) in enumerate(stack.layers[:-1]):
        outs = _layer_scan(att, ffn, layer_inputs[-1], fmap).T
        w = stack.conn[l + 1]
        nxt = outs if w is None else outs @ w.T
        layer_inputs.append(layer_inputs[-1].with_tokens(nxt))
    _FEATURES.trace = (fmap, key, tuple(layer_inputs[1:]))
    return layer_inputs


def _trace_key(stack: LayerStack, seq: SegmentedSequence, query_pos: int) -> tuple:
    """Everything ``stack_trace`` reads except the feature map, as plain values and bytes."""
    layers = tuple(
        (*(_bits(m) for m in (att.w_q, att.w_k, att.w_v, ffn.w1, ffn.b1, ffn.w2, ffn.b2)),
         ffn.activation)
        for att, ffn in stack.layers
    )
    conn = tuple(None if w is None else _bits(w) for w in stack.conn)
    return layers, conn, query_pos, _bits(seq.tokens[:query_pos]), seq.tags[:query_pos]


def stack_forward(
    stack: LayerStack,
    fmap: FourierFeatureMap,
    seq: SegmentedSequence,
    query_pos: int,
) -> np.ndarray:
    """Output of the final layer at query_pos.

    L = 1 reduces to ``layer_forward`` at query_pos >= 2 only: at 1, where that
    gives the FFN of a zero attention, this raises ``InvalidIndex`` as the dual
    builders do.
    """
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


_INT_TYPES = frozenset({int, *(np.dtype(c).type for c in np.typecodes["AllInteger"])})


def _token_ids(ids, size: int) -> tuple:
    """The one id rule: ``ids`` as a tuple, each an int or numpy integer (no bool) in [0, size)."""
    try:
        ids = tuple(ids)
    except TypeError:
        raise InvalidIndex(f"token ids must be an iterable of ids, got {ids!r}") from None
    if ids and not (_INT_TYPES.issuperset(map(type, ids)) and 0 <= min(ids) and max(ids) < size):
        bad = next(i for i in ids if type(i) not in _INT_TYPES or not 0 <= i < size)
        raise InvalidIndex(f"token ids must be integers in [0, {size}), got {bad!r}")
    return ids


def _candidate_table(vocab: Vocabulary, mask) -> tuple[range | list[int], np.ndarray]:
    """Ascending candidate ids (``range(V)`` without a mask) and their output embeddings.

    Every greedy pick is an ``argmax`` over logits of this one table, so an
    id's logit has the same bits whichever ids an emission rule has removed.
    """
    if mask is None:
        ids, table = range(vocab.size), vocab.output_embeddings
    else:
        ids = sorted({int(i) for i in _token_ids(mask, vocab.size)})
        table = vocab.output_embeddings.take(ids, axis=0)
    if not ids:
        raise EmptyCandidateSet(f"{'vocabulary' if mask is None else 'candidate mask'} is empty")
    return ids, table


def _screen_table(table: np.ndarray) -> tuple[np.ndarray, float] | None:
    """``_pick``'s screen: a float32 copy and N, the largest row norm; None out of range."""
    n = math.sqrt(np.einsum("ij,ij->i", table, table, dtype=float).max())
    ok = table.shape[1] <= 1024 and 2.0**-40 <= n <= 2.0**40
    return (table.astype(np.float32), n) if ok else None


def _pick(table: np.ndarray, h: np.ndarray, left=None, screen=None) -> int:
    """Row of the first maximum of the float64 logits ``table @ h``, among the rows ``left`` if given.

    With ``screen`` (``_screen_table(table)``) and ||h|| in [2^-40, 2^40], each float32
    logit s_i is within slack = (d + 4) 2^-24 N ||h|| of row i's float64 logit, in any
    summation order, with or without FMA: the roundings of both operands, the products and
    at most d - 1 sums add at most (d + 2) 2^-24 sum_j |t_ij h_j| <= (d + 2) 2^-24 N ||h||;
    2 more units cover second-order terms (d <= 1024), underflow and float64's own error.
    So if no other s_j is within 2 slack of the largest s_k, row k's float64 logit is
    strictly the largest.  Otherwise (ties, near-ties, a NaN, inf or zero h) float64 decides.
    """
    if np.shape(h) != table.shape[1:]:
        raise InvalidDimension(f"a hidden must have shape {table.shape[1:]}, got {np.shape(h)}")
    if screen and 2.0**-40 <= (hn := float(np.linalg.norm(np.asarray(h, float)))) <= 2.0**40:
        s = screen[0] @ np.asarray(h, np.float32)
        s = s if left is None else s[left]
        k = int(s.argmax())
        cut = float(s[k]) - 2 * (len(h) + 4) * 2.0**-24 * screen[1] * hn
        s[k] = -np.inf
        if float(s[s.argmax()]) < cut:
            return k if left is None else int(left[k])
    logits = table @ h
    return int(logits.argmax() if left is None else left[logits[left].argmax()])


def decode(vocab: Vocabulary, h: np.ndarray, mask=None) -> int:
    """Greedy pick: the first maximum of the logits ``table @ h`` over ascending candidate ids.

    A BLAS may round two identical rows of the table differently (OpenBLAS's
    gemv does at d_o >= 8), so the smaller twin is not sure to win.
    ``mask`` is any iterable that ``_token_ids`` accepts (a set, a 1-D int array); ``h`` is (d_o,).
    """
    ids, table = _candidate_table(vocab, mask)
    return ids[_pick(table, h)]


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
    picks as ``decode`` does over the candidate set (its first id is
    ``decode``'s), the emitted ids skipped by the argmax, not removed from the table.
    ``_pick`` reads the pick from a float32 copy of the table wherever that copy proves it.
    """
    if steps < 1:
        raise InvalidParameter("steps must be >= 1")
    cand, table = _candidate_table(vocab, mask)
    screen = _screen_table(table)
    left = np.arange(len(table)) if exclude_emitted else None  # table rows not yet emitted
    ids, hiddens, positions = [], [], []
    for _ in range(steps):
        pos = len(seq)
        h = forward(seq, pos)
        tok = cand[i := _pick(table, h, left, screen)]
        ids.append(tok)
        hiddens.append(h)
        positions.append(pos)
        if left is not None:
            left = left[left != i]
            if not left.size:
                break
        seq = seq.append(vocab.input_embeddings[tok])
    return GenerationTrace(tuple(ids), tuple(hiddens), tuple(positions), seq)
