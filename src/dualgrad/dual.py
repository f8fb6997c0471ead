"""Dual linear models of the kernelized forward passes.

Each forward output at a position equals f(q) = W phi(q~) (+ bias) where
W = W_0 - grad, W_0 collects the task-side (instruction + lead) key/value
terms and grad collects the demonstration terms:

    W_0  = c V_T phi(K~_T)'          grad = -c V_D phi(K~_D)'

D is every demonstration token before the query in position order: the
current demonstration, then the perturbation demonstration, whose terms are
extra loss terms of the same pass.  Descending the in-context loss from W_0
with one full pass of step size 1 lands exactly on W, so token generation is
gradient descent of the dual.  The transformer, layer-stack and grouped-query
variants differ only in what multiplies each value vector and in an additive
bias.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidDimension, InvalidParameter
from .kernelmap import FourierFeatureMap
from .sequence import SegmentedSequence
from .transformer import (
    AttentionParams,
    FfnParams,
    GqaConfig,
    GqaParams,
    LayerStack,
    _kernel_weights,
    _split,
    stack_trace,
)


@dataclass(frozen=True)
class DualModel:
    """Constant part plus rank-1 demonstration contributions.

    ``labels`` column i and ``feats`` column i form contribution
    labels[:,i] (x) feats[:,i]; the normalization c (and, for the transformer
    variant, the frozen FFN map) is already folded into the labels.
    """

    w0: np.ndarray  # (d_out, D)
    labels: np.ndarray  # (d_out, n_demo)
    feats: np.ndarray  # (D, n_demo)
    phi_q: np.ndarray  # (D,) feature vector of the build query
    c: float
    alpha: float = 0.0
    bias: np.ndarray | None = None

    @property
    def n_demo(self) -> int:
        return self.labels.shape[1]

    def contribution(self, i: int) -> np.ndarray:
        return np.outer(self.labels[:, i], self.feats[:, i])


def grad_full(dual: DualModel) -> np.ndarray:
    """dL/dW at W_0: minus the contribution sum, plus the L2 term."""
    g = -(dual.labels @ dual.feats.T)
    if dual.alpha:
        g = g + dual.alpha * dual.w0
    return g


def dual_forward(dual: DualModel) -> np.ndarray:
    """f(q) = (W_0 - grad) phi(q~) + bias at the build query: the forward output there."""
    out = (dual.w0 - grad_full(dual)) @ dual.phi_q
    if dual.bias is not None:
        out = out + dual.bias
    return out


def loss_icl(dual: DualModel, w: np.ndarray) -> float:
    """In-context loss whose one-step descent reproduces the forward output."""
    if w.shape != dual.w0.shape:
        raise InvalidDimension(f"W must be {dual.w0.shape}, got {w.shape}")
    val = -np.sum(dual.labels * (w @ dual.feats))
    if dual.alpha:
        val += dual.alpha / 2.0 * float(np.sum(w * w))
    return float(val)


# ---------------------------------------------------------------------------
# builders


def _dual(split, parts: tuple, left, bias: np.ndarray | None = None) -> DualModel:
    """The dual whose every term multiplies its value by ``left``.

    ``split`` is the (task, demo) columns of ``_split`` and ``parts`` the
    (values, feat_keys, feat_q, weights, c) of ``_kernel_weights``; ``left`` maps value
    columns to their label columns: c V for plain attention,
    c W_FFN1 Sigma W_FFN2 V for a transformer layer, c W_concat V for a
    grouped-query head.  The task-side columns form W_0 = left(V_T)
    phi(K~_T)', every other column before the query (the current, then the
    perturbation demonstration) the labels left(V_D).
    """
    values, feat_keys, feat_q, _, c = parts
    task, demo = split
    return DualModel(
        w0=left(values[:, task]) @ feat_keys[:, task].T,
        labels=left(values[:, demo]),
        feats=feat_keys[:, demo],
        phi_q=feat_q,
        c=c,
        bias=bias,
    )


def build_dual_attention(
    params: AttentionParams,
    fmap: FourierFeatureMap,
    seq: SegmentedSequence,
    query_pos: int,
) -> DualModel:
    """Dual of plain kernel attention at query_pos.

    ``with_value_regularization`` sets the L2 coefficient alpha.
    """
    parts = _kernel_weights(params, fmap, seq, query_pos)
    c = parts[4]
    return _dual(_split(seq, query_pos), parts, lambda v: c * v)


def with_value_regularization(dual: DualModel, alpha: float) -> DualModel:
    """L2 coefficient whose one-step descent scales the task-side values by 1-alpha."""
    if not 0.0 <= alpha <= 1.0:
        raise InvalidParameter(f"alpha must lie in [0, 1], got {alpha}")
    return replace(dual, alpha=float(alpha))


def _transformer_dual(ffn: FfnParams, parts: tuple, split) -> DualModel:
    """``_dual`` of attention + FFN with the activation frozen at the reference pass."""
    values, _, _, weights, c = parts
    sigma = np.ones(ffn.d_h)
    if ffn.activation == "relu":  # frozen at the reference pass
        h_ref = c * values @ weights
        sigma = (ffn.w2 @ h_ref + ffn.b2 > 0).astype(float)
    w_hat = c * (ffn.w1 * sigma) @ ffn.w2  # c W_FFN1 Sigma W_FFN2
    bias = ffn.b1 + ffn.w1 @ (sigma * ffn.b2)
    return _dual(split, parts, lambda v: w_hat @ v, bias)


def build_dual_transformer(
    params: AttentionParams,
    ffn: FfnParams,
    fmap: FourierFeatureMap,
    seq: SegmentedSequence,
    query_pos: int,
) -> DualModel:
    """Dual of attention + FFN with the activation frozen at the reference pass."""
    parts = _kernel_weights(params, fmap, seq, query_pos)
    return _transformer_dual(ffn, parts, _split(seq, query_pos))


def build_dual_stack(
    stack: LayerStack,
    fmap: FourierFeatureMap,
    seq: SegmentedSequence,
    query_pos: int,
) -> list[DualModel]:
    """One dual per layer, frozen from a reference kernel-mode forward pass.

    Layer l's dual consumes the reference inputs x^(l) = W_conn x_hat^(l-1);
    the final dual's forward equals stack_forward.  The descent story is
    sequential: only after every layer completes its pass is the stacked
    output reproduced.  Right after ``stack_forward`` on the same inputs,
    ``stack_trace`` returns that pass's layer inputs from its memo, so the
    build scans no layer again and only featurizes each layer's query.
    """
    layer_inputs = stack_trace(stack, fmap, seq, query_pos)
    split = _split(seq, query_pos)  # every layer input carries the same tags
    return [
        _transformer_dual(ffn, _kernel_weights(att, fmap, layer_seq, query_pos), split)
        for (att, ffn), layer_seq in zip(stack.layers, layer_inputs)
    ]


def build_dual_gqa(
    params: GqaParams,
    cfg: GqaConfig,
    fmap: FourierFeatureMap,
    seq: SegmentedSequence,
    query_pos: int,
) -> list[DualModel]:
    """Blockwise duals, one per query head; concatenated forwards equal GQA."""
    heads = [_kernel_weights(params.head(cfg, s), fmap, seq, query_pos)
             for s in range(cfg.heads)]
    split = _split(seq, query_pos)
    duals = []
    for s, parts in enumerate(heads):
        left = parts[4] * cfg.mix(s)  # c W_concat^(s)
        duals.append(_dual(split, parts, lambda v: left @ v))
    return duals


def dual_gqa_forward(duals: list[DualModel]) -> np.ndarray:
    return np.concatenate([dual_forward(d) for d in duals])


# ---------------------------------------------------------------------------
# descent trajectories


@dataclass
class DescentState:
    """Single-owner mutable descent trajectory of W.

    ``passes`` is the S of a fractional:<S> schedule (None for per-token) and
    ``pass_length`` the number of steps of one complete pass.
    """

    w: np.ndarray
    passes: int | None
    pass_length: int
    steps_applied: int = 0


def parse_schedule(schedule: str) -> int | None:
    """S of "fractional:<S>" (S >= 1), or None for "per-token"."""
    if schedule == "per-token":
        return None
    prefix, _, s = schedule.partition(":")
    if prefix != "fractional" or not s.isdecimal() or int(s) < 1:
        raise InvalidParameter(
            f"schedule must be per-token|fractional:<S> with integer S >= 1, got {schedule!r}"
        )
    return int(s)


def start_descent(dual: DualModel, schedule: str = "per-token") -> DescentState:
    passes = parse_schedule(schedule)
    return DescentState(dual.w0.copy(), passes, (passes or 1) * max(dual.n_demo, 1))


def descend(dual: DualModel, state: DescentState, n_steps: int) -> DescentState:
    """Apply n_steps of gradient descent, distributing -grad_full over a pass.

    Per-token applies contribution i at step i; fractional:S applies the
    uniform 1/(S n) share per step.  Either way a complete pass lands on
    W_0 - grad_full.
    """
    if n_steps < 0:
        raise InvalidParameter("n_steps must be >= 0")
    reg_share = dual.alpha * dual.w0 / state.pass_length if dual.alpha else None
    for _ in range(n_steps):
        if state.passes is None:
            if dual.n_demo:
                j = state.steps_applied % dual.n_demo
                state.w += dual.contribution(j)
        else:
            state.w += (dual.labels @ dual.feats.T) / state.pass_length
        if reg_share is not None:
            state.w -= reg_share
        state.steps_applied += 1
    return state


# ---------------------------------------------------------------------------
# preliminary duality for a plain linear model


def linear_dual_equivalence(
    w0: np.ndarray, xs: np.ndarray, errors: np.ndarray, x_test: np.ndarray
):
    """Both sides of the linear-model identity W' x' = W_0 x' + LA(E, X, x').

    ``xs`` and ``errors`` hold one training pair per column.
    """
    if xs.shape[1] != errors.shape[1]:
        raise InvalidDimension("one error signal per training input required")
    w_prime = w0 + errors @ xs.T
    lhs = w_prime @ x_test
    rhs = w0 @ x_test + (errors @ (xs.T @ x_test))
    return lhs, rhs
