"""Two-stage iterative demonstration optimization with m independent paths.

Stage 1 proposes a demonstration (local search over the path's best stored
demonstration, optionally spliced with a donor span from another path when
collapse is detected).  Stage 2 evaluates it by running generation against the
toy model and scoring how early the target token appears.  Demonstrations
that hit the target are admitted to the path's memory.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEmbedding,
    InsufficientHistory,
    InvalidConfig,
    InvalidDonor,
)
from .metrics import EffectDScore, score_output
from .rng import stream
from .sequence import SegmentedSequence
from .transformer import Vocabulary, generate


@dataclass(frozen=True)
class Demonstration:
    """Token ids forming the current demonstration, plus optional perturbation ids."""

    ids: tuple[int, ...]
    per_ids: tuple[int, ...] = ()
    origin: tuple[int, int] = (-1, -1)  # (path, iteration)

    def __post_init__(self):
        if not self.ids:
            raise InvalidConfig("a demonstration must contain at least one token")


@dataclass
class MemoryEntry:
    demo: Demonstration
    score: EffectDScore
    iteration: int


class MemoryBank:
    """Per-path store of demonstrations that hit the target.

    Capacity is enforced by evicting the lowest-scoring entry; the maximum is
    therefore never discarded and best-of-memory is non-decreasing.
    """

    def __init__(self, capacity: int = 16):
        if capacity < 1:
            raise InvalidConfig("memory capacity must be >= 1")
        self.capacity = capacity
        self.entries: list[MemoryEntry] = []

    def admit(self, demo: Demonstration, score: EffectDScore, iteration: int) -> bool:
        if score.value <= 0.0:
            return False
        self.entries.append(MemoryEntry(demo, score, iteration))
        if len(self.entries) > self.capacity:
            worst = min(range(len(self.entries)), key=lambda i: self.entries[i].score.value)
            del self.entries[worst]
        return True

    def best(self) -> MemoryEntry | None:
        if not self.entries:
            return None
        return max(self.entries, key=lambda e: e.score.value)


@dataclass(frozen=True)
class OptimizerConfig:
    m: int
    iterations: int
    tau_sim: float = 0.95
    eps_imp: float = 0.01
    window: int = 3
    master_seed: int = 0
    perturbation_enabled: bool = False
    demo_len: int = 4
    gen_steps: int = 5
    memory_capacity: int = 16

    def __post_init__(self):
        if self.m < 1 or self.iterations < 1:
            raise InvalidConfig("m and iterations must be >= 1")
        if not 0.0 < self.tau_sim <= 1.0:
            raise InvalidConfig("tau_sim must lie in (0, 1]")
        if self.perturbation_enabled and self.m < 2:
            raise InvalidConfig("perturbation needs a donor path: m >= 2")


@dataclass(frozen=True)
class OptimizerEnv:
    """Fixed evaluation environment: model forward, prompt frame, and target."""

    forward: object  # callable(seq, pos) -> hidden
    instr: np.ndarray
    leads: np.ndarray
    vocab: Vocabulary
    target_id: int
    candidate_mask: frozenset | None = None
    normalize: bool = True


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    path: int
    effect_d: float
    similarity: float
    collapse: bool
    perturbed: bool
    demo_id: str
    demo: Demonstration


def evaluate_demo(env: OptimizerEnv, demo: Demonstration, steps: int) -> EffectDScore:
    """Splice the demonstration into the prompt frame, generate, and score."""
    emb = env.vocab.input_embeddings
    per = emb[list(demo.per_ids)] if demo.per_ids else None
    seq = SegmentedSequence.build(
        env.instr,
        emb[list(demo.ids)],
        env.leads,
        per=per,
        normalize=env.normalize,
        candidate_mask=env.candidate_mask,
    )
    # the score reads only the first hit, so generation stops there
    trace = generate(
        env.forward, seq, steps, env.vocab, env.candidate_mask, exclude_emitted=True,
        stop_id=env.target_id,
    )
    return score_output(trace.ids, env.target_id)


def similarity(vocab: Vocabulary, d1: Demonstration, d2: Demonstration) -> float:
    """Cosine similarity of the mean token embeddings of two demonstrations."""
    means = []
    for d in (d1, d2):
        ids = list(d.ids) + list(d.per_ids)
        means.append(vocab.input_embeddings[ids].mean(axis=0))
    n1, n2 = np.linalg.norm(means[0]), np.linalg.norm(means[1])
    if n1 == 0.0 or n2 == 0.0:
        raise DegenerateEmbedding("zero-norm mean embedding")
    return float(means[0] @ means[1] / (n1 * n2))


def detect_collapse(
    scores, similarities, tau_sim: float = 0.95, eps_imp: float = 0.01, window: int = 3
) -> bool:
    """True when consecutive demos are near-duplicates or the best score stalls."""
    if len(scores) < 2 or len(similarities) < 2:
        raise InsufficientHistory("collapse detection needs >= 2 iterations")
    if similarities[-1] >= tau_sim:
        return True
    best = np.maximum.accumulate(np.asarray(scores, dtype=float))
    anchor = max(len(best) - 1 - window, 0)
    return bool(best[-1] - best[anchor] < eps_imp)


def synth_generate(
    path: int,
    iteration: int,
    memory: MemoryBank,
    rng: np.random.Generator,
    vocab_size: int,
    demo_len: int,
    donor: Demonstration | None = None,
    donor_rng: np.random.Generator | None = None,
) -> Demonstration:
    """Stage-1 proposal: mutate the best stored demo, or draw a cold-start one.

    A donor (perturbation) must originate from a different path; a contiguous
    span of its tokens is appended as the perturbation segment.  Span draws
    come from ``donor_rng`` so that runs with and without perturbation share
    the same mutation trajectory.
    """
    if donor is not None and donor.origin[0] == path:
        raise InvalidDonor("perturbation donor must come from another path")
    best = memory.best()
    if best is None:
        ids = tuple(int(v) for v in rng.integers(0, vocab_size, size=demo_len))
    else:
        ids = list(best.demo.ids)
        ids[int(rng.integers(0, len(ids)))] = int(rng.integers(0, vocab_size))
        ids = tuple(ids)
    per_ids: tuple[int, ...] = ()
    if donor is not None:
        srng = donor_rng if donor_rng is not None else rng
        span = int(srng.integers(1, len(donor.ids) + 1))
        start = int(srng.integers(0, len(donor.ids) - span + 1))
        per_ids = donor.ids[start : start + span]
    return Demonstration(ids, per_ids, origin=(path, iteration))


def run_two_stage(
    config: OptimizerConfig, env: OptimizerEnv, generator=synth_generate
) -> list[TraceRecord]:
    """Run the m-path loop; deterministic given (config, env, generator).

    Each distinct (ids, per_ids) is evaluated once per call: its score
    depends on nothing else, and the scores are kept only for this run.
    """
    rngs = [stream(config.master_seed, f"path/{p}") for p in range(config.m)]
    donor_rngs = [stream(config.master_seed, f"donor/{p}") for p in range(config.m)]
    memories = [MemoryBank(config.memory_capacity) for _ in range(config.m)]
    history: list[list[TraceRecord]] = [[] for _ in range(config.m)]
    last_demo: list[Demonstration | None] = [None] * config.m
    trace: list[TraceRecord] = []
    vocab_size = env.vocab.size
    scores: dict[tuple[tuple[int, ...], tuple[int, ...]], EffectDScore] = {}

    def score_of(demo: Demonstration) -> EffectDScore:
        key = (demo.ids, demo.per_ids)
        if key not in scores:
            scores[key] = evaluate_demo(env, demo, config.gen_steps)
        return scores[key]

    for it in range(1, config.iterations + 1):
        for p in range(config.m):
            records = history[p]
            collapsed = False
            if len(records) >= 2:
                collapsed = detect_collapse(
                    [r.effect_d for r in records],
                    [r.similarity for r in records],
                    config.tau_sim,
                    config.eps_imp,
                    config.window,
                )
            donor = None
            if collapsed and config.perturbation_enabled:
                # random other path; prefer its best stored demonstration
                others = [q for q in range(config.m) if q != p and last_demo[q] is not None]
                if others:
                    # the other path's latest demonstration, so the injected
                    # content varies from round to round
                    donor = last_demo[int(donor_rngs[p].choice(others))]
            demo = generator(
                p, it, memories[p], rngs[p], vocab_size, config.demo_len, donor,
                donor_rng=donor_rngs[p],
            )
            score = score_of(demo)
            sim = 0.0
            if last_demo[p] is not None:
                sim = similarity(env.vocab, last_demo[p], demo)
            # memory tracks the demonstration's own quality: score it without
            # the transient perturbation segment so donor content cannot
            # inflate the stored value of a weak demonstration
            mem_score = score
            if demo.per_ids:
                mem_score = score_of(Demonstration(demo.ids, origin=demo.origin))
            memories[p].admit(demo, mem_score, it)
            rec = TraceRecord(
                iteration=it,
                path=p,
                effect_d=score.value,
                similarity=sim,
                collapse=collapsed,
                perturbed=donor is not None,
                demo_id=f"p{p}i{it}",
                demo=demo,
            )
            records.append(rec)
            trace.append(rec)
            last_demo[p] = demo
    return trace
