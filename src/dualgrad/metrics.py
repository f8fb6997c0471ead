"""Demonstration-quality and ranking metrics."""

import math
from dataclasses import dataclass

from .errors import InvalidParameter


@dataclass(frozen=True)
class EffectDScore:
    """1 / log2(hit_position + 1), or 0 when the target never appears."""

    value: float
    hit_position: int | None = None


def hit_position(output_ids, target_id: int) -> int | None:
    """1-based index of the first occurrence of target_id, or None."""
    for i, tok in enumerate(output_ids, start=1):
        if tok == target_id:
            return i
    return None


def effect_d(pos: int | None) -> float:
    """Demonstration effectiveness at a 1-based hit position; a miss scores 0."""
    if pos is None:
        return 0.0
    if pos < 1:
        raise InvalidParameter(f"hit position must be >= 1, got {pos}")
    return 1.0 / math.log2(pos + 1)


def score_output(output_ids, target_id: int) -> EffectDScore:
    pos = hit_position(output_ids, target_id)
    return EffectDScore(effect_d(pos), pos)


def ndcg_at_k(ranked_ids, target_id: int, k: int) -> float:
    """Single-relevant-item nDCG@k: ``effect_d`` of the rank within the cutoff, else 0."""
    if k < 1:
        raise InvalidParameter("k must be >= 1")
    rank = hit_position(ranked_ids, target_id)
    return effect_d(rank) if rank is not None and rank <= k else 0.0


def recall_at_k(ranked_ids, target_id: int, k: int) -> float:
    """1 if the target appears within the top k, else 0."""
    if k < 1:
        raise InvalidParameter("k must be >= 1")
    rank = hit_position(ranked_ids, target_id)
    return 1.0 if rank is not None and rank <= k else 0.0
