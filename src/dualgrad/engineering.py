"""Engineered demonstration scenarios for the equivalence validation runs.

The toy decoder is wired so that each token embedding carries its query, key
and value content in three designated coordinates:

  * coordinate 0 of the embedding becomes the query magnitude,
  * coordinate 1 becomes the key magnitude,
  * coordinate 2 becomes the value magnitude.

Keys and the query are routed into the slowest rotary block (or the unrotated
final coordinate when the head dimension is odd), so position rotations leave
the score geometry essentially untouched; values land on output coordinate 0,
which the rotary map never touches.  Scores are kept invariant under the head
dimension by scaling keys and query with d_o^{1/4}.

The "good" demonstration aligns a strongly-keyed positive value with the
initial query, so the target (largest decode embedding) is emitted first.
The "bad" demonstration answers large queries with negative values, steering
the first two emissions to decoy ids whose feedback embeddings shrink the
query until a weakly-keyed positive value takes over: the target surfaces at
the third output token.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionFailed
from .sequence import SegmentedSequence
from .transformer import ROPE_BASE, AttentionParams, Vocabulary

TARGET_ID = 0
# decode-table scalars; the target carries the largest one
_DECODE = (2.0, 1.0, 0.5, -0.5, -1.0)


@dataclass(frozen=True)
class EngineeredScenario:
    params: AttentionParams
    seq: SegmentedSequence
    vocab: Vocabulary


def _score_coord(d_o: int) -> int:
    """Coordinate carrying keys and query: unrotated if odd d_o, slowest block else."""
    return d_o - 1 if d_o % 2 == 1 else d_o - 2


def _embed(d_i: int, q: float = 0.0, k: float = 0.0, v: float = 0.0) -> np.ndarray:
    x = np.zeros(d_i)
    x[0], x[1], x[2] = q, k, v
    return x


def build_scenario(kind: str, d_i: int, d_o: int, n_t: int, k_leads: int) -> EngineeredScenario:
    """Construct the "good" (N_D = 15) or "bad" (N_D = 10) demonstration setup."""
    if kind not in ("good", "bad"):
        raise ConstructionFailed(f"unknown scenario kind {kind!r}")
    if d_i < 3:
        raise ConstructionFailed("need at least 3 embedding coordinates")
    if d_o < 1:
        raise ConstructionFailed("need d_o >= 1")
    if k_leads < 1:
        raise ConstructionFailed("need a lead token to carry the initial query")
    coord = _score_coord(d_o)
    gain = d_o**0.25  # keeps k.q / sqrt(d_o) invariant in d_o
    if d_o > 1 and d_o % 2 == 0:
        # slowest rotary block drifts by pos * base^{-(d_o-2)/d_o}; stay sharp
        drift = (n_t + 20 + k_leads + 8) * ROPE_BASE ** (-(d_o - 2) / d_o)
        if np.cos(drift) < 0.99:
            raise ConstructionFailed("rotary drift too large for an even head dim")

    w_q = np.zeros((d_o, d_i))
    w_k = np.zeros((d_o, d_i))
    w_v = np.zeros((d_o, d_i))
    w_q[coord, 0] = gain
    w_k[coord, 1] = gain
    w_v[0, 2] = 1.0
    params = AttentionParams(w_q, w_k, w_v)

    instr = np.zeros((n_t, d_i))
    leads = np.zeros((k_leads, d_i))
    leads[-1] = _embed(d_i, q=2.0)  # initial query magnitude

    if kind == "good":
        demo = np.tile(_embed(d_i, k=3.0, v=1.0), (15, 1))
    else:
        strong = np.tile(_embed(d_i, k=3.0, v=-1.0), (8, 1))
        weak = np.tile(_embed(d_i, k=0.5, v=8.0), (2, 1))
        demo = np.vstack([strong, weak])

    out = np.zeros((len(_DECODE), d_o))
    out[:, 0] = _DECODE
    feedback = np.zeros((len(_DECODE), d_i))
    feedback[3] = _embed(d_i, q=0.05)  # small query: weak keys win next
    feedback[4] = _embed(d_i, q=2.0)  # large query again: still negative
    vocab = Vocabulary(out, feedback)

    seq = SegmentedSequence.build(instr, demo, leads, normalize=False)
    return EngineeredScenario(params, seq, vocab)
