"""Attention/gradient-descent duality toolkit.

Verifies, numerically and exactly, that kernelized causal attention over a
demonstration-bearing prompt equals one pass of gradient descent on a linear
model over random Fourier features, and builds a small demonstration
optimizer and CLI harness on top of that identity.
"""

from .dual import (
    DescentState,
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
from .errors import DualgradError
from .kernelmap import FourierFeatureMap, exp_estimate, phi, phi_matrix, sample_feature_map
from .metrics import EffectDScore, effect_d, hit_position, ndcg_at_k, recall_at_k, score_output
from .optimizer import (
    Demonstration,
    MemoryBank,
    OptimizerConfig,
    OptimizerEnv,
    TraceRecord,
    run_two_stage,
)
from .rng import stream
from .sequence import SegmentedSequence, Tag
from .transformer import (
    AttentionParams,
    FfnParams,
    GenerationTrace,
    GqaConfig,
    GqaParams,
    LayerStack,
    Vocabulary,
    decode,
    exact_attention,
    generate,
    gqa_attention,
    kernel_attention,
    layer_forward,
    rope,
    split_attention,
    stack_forward,
    stack_trace,
)

__version__ = "0.1.0"
