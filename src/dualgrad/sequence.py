"""Segmented prompt sequences.

A sequence is an ordered list of token embeddings, each carrying one of four
segment tags: task instruction, lead (previously generated or primer) tokens,
current demonstration, and perturbation demonstration.  The instruction and
lead tokens form the "task" index set; every other token is a demonstration
token, whose terms drive the dual model's gradient.
"""

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import InvalidDimension


class Tag(Enum):
    T_INSTR = "T_instr"
    T_LEAD = "T_lead"
    D_CURR = "D_curr"
    D_PER = "D_per"


def _unit_rows(tokens: np.ndarray) -> np.ndarray:
    # the arithmetic of np.linalg.norm(tokens, axis=1) for real rows, without its dispatch
    norms = np.sqrt(np.add.reduce(tokens * tokens, axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    return tokens / norms


@dataclass(frozen=True)
class SegmentedSequence:
    """Immutable token/tag sequence. Positions are 1-based for the rotary code."""

    tokens: np.ndarray  # (N, d_i), one row per token
    tags: tuple[Tag, ...]
    normalized: bool = True

    def __post_init__(self):
        if self.tokens.ndim != 2:
            raise InvalidDimension("tokens must be a (N, d_i) array")
        if self.tokens.shape[0] != len(self.tags):
            raise InvalidDimension("one tag per token required")
        self.tokens.setflags(write=False)

    @classmethod
    def build(
        cls,
        instr: np.ndarray,
        demo: np.ndarray,
        leads: np.ndarray,
        per: np.ndarray | None = None,
        normalize: bool = True,
    ) -> "SegmentedSequence":
        """Assemble instruction, demonstration, perturbation and lead segments."""
        parts, tags = [], []
        segments = (instr, Tag.T_INSTR), (demo, Tag.D_CURR), (per, Tag.D_PER), (leads, Tag.T_LEAD)
        for rows, tag in segments:
            if rows is not None and np.size(rows):  # an empty segment adds no row and no tag
                rows = np.atleast_2d(np.asarray(rows, dtype=float))
                if rows.ndim > 2:
                    raise InvalidDimension(f"{tag.value} segment {rows.shape} is not (n, d_i)")
                parts.append(rows)
                tags += [tag] * rows.shape[0]
        if not parts:
            raise InvalidDimension("a sequence needs at least one token; every segment is empty")
        dims = {p.shape[1] for p in parts}
        if len(dims) != 1:
            raise InvalidDimension(f"segments disagree on embedding dim: {sorted(dims)}")
        tokens = np.vstack(parts)
        if normalize:
            tokens = _unit_rows(tokens)
        return cls(tokens, tuple(tags), normalize)

    def __len__(self) -> int:
        return self.tokens.shape[0]

    @property
    def dim(self) -> int:
        return self.tokens.shape[1]

    @property
    def idx_task(self) -> np.ndarray:
        """0-based indices of the task side (instruction + lead tokens)."""
        task = (Tag.T_INSTR, Tag.T_LEAD)
        return np.array([i for i, t in enumerate(self.tags) if t in task], dtype=int)

    def append(self, embedding: np.ndarray) -> "SegmentedSequence":
        """Return a new sequence with one lead token appended under the same norm policy.

        A normalized sequence scales the row with ``_unit_rows``, as ``build`` does.
        """
        emb = np.asarray(embedding, dtype=float).reshape(1, -1)
        if emb.shape[1] != self.dim:
            raise InvalidDimension("appended embedding has wrong dimension")
        if self.normalized:
            emb = _unit_rows(emb)
        tokens = np.concatenate((self.tokens, emb))
        return type(self)(tokens, self.tags + (Tag.T_LEAD,), self.normalized)

    def truncate(self, length: int) -> "SegmentedSequence":
        return replace(self, tokens=self.tokens[:length], tags=self.tags[:length])

    def with_tokens(self, tokens: np.ndarray) -> "SegmentedSequence":
        """Same tags, different embeddings (used between layers)."""
        if tokens.shape[0] != len(self):
            raise InvalidDimension("token count must be preserved")
        return replace(self, tokens=np.asarray(tokens, dtype=float), normalized=False)
