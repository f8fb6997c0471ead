"""Two-stage iterative demonstration optimization with m independent paths.

Stage 1 proposes a demonstration (local search over the path's best stored
demonstration, optionally spliced with a donor span from another path when
collapse is detected).  Stage 2 evaluates it by running generation against the
toy model and scoring how early the target token appears.  Demonstrations
that hit the target are admitted to the path's memory.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateEmbedding,
    InsufficientHistory,
    InvalidConfig,
    InvalidDonor,
    InvalidParameter,
)
from .metrics import EffectDScore, effect_d
from .rng import stream
from .sequence import SegmentedSequence, Tag
from .transformer import (
    AttentionParams, SlotTables, Vocabulary, _candidate_table, _token_ids, exact_attention_slots,
)


@dataclass(frozen=True)
class Demonstration:
    """Token ids forming the current demonstration, plus optional perturbation ids."""

    ids: tuple[int, ...]
    per_ids: tuple[int, ...] = ()
    origin: int = -1  # the path that proposed it

    def __post_init__(self):
        if not self.ids:
            raise InvalidConfig("a demonstration must contain at least one token")


@dataclass(frozen=True)
class MemoryEntry:
    demo: Demonstration
    score: EffectDScore


MEMORY_CAPACITY = 16


class MemoryBank:
    """Per-path store of demonstrations that hit the target.

    At most ``MEMORY_CAPACITY`` entries, enforced by evicting the
    lowest-scoring one; the maximum is therefore never discarded and
    best-of-memory is non-decreasing.  ``admit`` keeps the first maximal
    entry, which ``best`` returns, and ``entries`` is a read-only tuple.
    """

    def __init__(self):
        self._entries: tuple[MemoryEntry, ...] = ()
        self._best: MemoryEntry | None = None

    @property
    def entries(self) -> tuple[MemoryEntry, ...]:
        return self._entries

    def admit(self, demo: Demonstration, score: EffectDScore) -> bool:
        if score.value <= 0.0:
            return False
        self._entries += (MemoryEntry(demo, score),)
        if self._best is None or score.value > self._best.score.value:
            self._best = self._entries[-1]
        if len(self._entries) > MEMORY_CAPACITY:
            worst = min(self._entries, key=lambda e: e.score.value)  # the first lowest
            self._entries = tuple(e for e in self._entries if e is not worst)
            if worst is self._best:  # then every entry ties, and the next is the first maximum
                self._best = self._entries[0]
        return True

    def best(self) -> MemoryEntry | None:
        return self._best


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

    def __post_init__(self):
        if self.m < 1 or self.iterations < 1:
            raise InvalidConfig("m and iterations must be >= 1")
        if not 0.0 < self.tau_sim <= 1.0:
            raise InvalidConfig("tau_sim must lie in (0, 1]")
        if not math.isfinite(self.eps_imp):
            raise InvalidConfig(f"eps_imp must be finite, got {self.eps_imp!r}")
        if self.window < 0:
            raise InvalidConfig("window must be >= 0")
        if self.perturbation_enabled and self.m < 2:
            raise InvalidConfig("perturbation needs a donor path: m >= 2")


@dataclass(frozen=True)
class OptimizerEnv:
    """Fixed evaluation environment: attention parameters, prompt frame, candidates and target.

    Stage 2 runs the exact attention of ``params`` from ``tables``, which holds every frame row.
    """

    params: AttentionParams
    instr: np.ndarray
    leads: np.ndarray
    vocab: Vocabulary
    target_id: int
    candidate_mask: frozenset

    def __post_init__(self):
        for rows in (self.instr, self.leads):  # the cached properties below read them
            rows.setflags(write=False)

    @cached_property
    def frame(self) -> SegmentedSequence:
        """Instruction rows, input embeddings and lead rows: ``build``'s one normalized stack."""
        return SegmentedSequence.build(self.instr, self.vocab.input_embeddings, self.leads)

    @cached_property
    def candidates(self) -> tuple[list[int], np.ndarray]:
        """Ascending candidate ids and their output-embedding rows, from ``_candidate_table``."""
        return _candidate_table(self.vocab, self.candidate_mask)

    @cached_property
    def tables(self) -> SlotTables:
        """``SlotTables`` of ``params`` over the frame rows, ``[instr; emb; leads]``."""
        return SlotTables(self.params, self.frame.tokens)


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Stage-2 scores by (ids, per_ids): pure functions of these, the env and ``gen_steps``."""

    env: OptimizerEnv
    steps: int
    scores: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    path: int
    effect_d: float
    similarity: float
    collapse: bool
    perturbed: bool
    demo: Demonstration


def _first_max(logits: list, ids: list) -> int:
    """``np.argmax`` over ``logits[i]`` for ``i`` in ``ids``, as that ``i``.

    The first maximum, so over ascending ids the smallest id wins a tie; a
    NaN counts as above every number, so the first NaN wins.
    """
    best = ids[0]
    top = logits[best]
    for i in ids:
        v = logits[i]
        if v > top:
            best, top = i, v
        elif v != v:
            return i
    return best


def score_demos(env: OptimizerEnv, demos, steps: int) -> list[EffectDScore]:
    """Stage 2 of several demonstrations at once: splice each into the frame, generate, score.

    Every id must be an integer in [0, V).  Greedy, emitted ids excluded,
    stopped at the target (the score reads only its first hit).  Every prompt
    grows by one token per step, so all prompts that have started and not yet
    left share one length N: each N makes one ``exact_attention_slots`` call on the
    live prompts' rows, in start order, of one array of slots of ``env.tables``,
    numbered as the frame ``[instr; emb; leads]``.  A prompt picks at most
    ``min(steps, candidates)`` tokens, so the tables grow first to the longest start
    plus that, less one: the longest prompt the call can reach.  After each call, one
    product over the candidate table (``env.candidates``) gives every row's logits,
    and each row picks in plain Python from its own list of remaining candidates, as
    ``generate`` does: the first maximum, or the first NaN.  A prompt leaves on the
    target, when out of candidates or after ``steps`` tokens.  Each score is bitwise
    that of ``generate`` over ``SegmentedSequence.build``.
    """
    if steps < 1:
        raise InvalidParameter("steps must be >= 1")
    frame, (cand, table) = env.frame, env.candidates
    if not demos:
        return []
    first = frame.tags.index(Tag.D_CURR)  # the slot of token id 0
    leads = list(range(first + env.vocab.size, len(frame)))
    ids = [_token_ids(d.ids + d.per_ids, env.vocab.size) for d in demos]
    end = first + max(map(len, ids)) + len(leads) + min(steps, len(cand))  # past the longest prompt
    slots = np.empty((len(demos), end), dtype=np.intp)
    slots[:, :first] = range(first)
    groups: dict[int, list[int]] = {}  # start length -> prompts
    for b, demo in enumerate(ids):
        prompt = [first + int(i) for i in demo] + leads  # its slots past the instruction
        n0 = first + len(prompt)
        slots[b, first:n0] = prompt
        groups.setdefault(n0, []).append(b)
    tables, target, every = env.tables.grow(end - 1), env.target_id, list(range(len(cand)))
    hits: list[int | None] = [None] * len(demos)
    active = []  # (prompt, start, remaining candidate indices), in start order
    for n in range(min(groups), end):
        active += [(b, n, every.copy()) for b in groups.get(n, ())]  # prompts that start here
        if not active:  # no prompt has this length
            continue
        h = exact_attention_slots(tables, slots[:, :n].take([b for b, _, _ in active], axis=0))
        logits = np.matmul(table, h[:, :, None])[:, :, 0].tolist()
        kept = []
        for (b, n0, left), row in zip(active, logits):
            i = _first_max(row, left)
            if cand[i] == target:
                hits[b] = n - n0 + 1
            elif len(left) > 1 and n - n0 + 1 < steps:
                left.remove(i)
                kept.append((b, n0, left))
                slots[b, n] = first + cand[i]
        active = kept
    return [EffectDScore(effect_d(pos), pos) for pos in hits]


def evaluate_demo(env: OptimizerEnv, demo: Demonstration, steps: int) -> EffectDScore:
    """Stage 2 of one demonstration: ``score_demos`` for a block of one prompt."""
    return score_demos(env, [demo], steps)[0]


def _mean_norm(vocab: Vocabulary, demo: Demonstration) -> tuple[np.ndarray, float]:
    """Mean token embedding of a demonstration and its Euclidean norm."""
    # the arithmetic of ndarray.mean and np.linalg.norm for real rows, without their dispatch
    ids = _token_ids(demo.ids + demo.per_ids, vocab.size)
    mean = np.add.reduce(vocab.input_embeddings.take(ids, axis=0), axis=0) / len(ids)
    return mean, math.sqrt(mean.dot(mean))


def _cosine(a: tuple[np.ndarray, float], b: tuple[np.ndarray, float]) -> float:
    """Cosine of two ``_mean_norm`` results; ``dot`` gives the bits of ``@`` with less dispatch."""
    (m1, n1), (m2, n2) = a, b
    if n1 == 0.0 or n2 == 0.0:
        raise DegenerateEmbedding("zero-norm mean embedding")
    return float(m1.dot(m2)) / (n1 * n2)


def similarity(vocab: Vocabulary, d1: Demonstration, d2: Demonstration) -> float:
    """Cosine similarity of the mean token embeddings of two demonstrations."""
    return _cosine(_mean_norm(vocab, d1), _mean_norm(vocab, d2))


def detect_collapse(scores, similarities, tau_sim: float, eps_imp: float, window: int) -> bool:
    """True when consecutive demos are near-duplicates or the best of finite ``scores`` stalls."""
    if len(scores) < 2 or len(similarities) < 2:
        raise InsufficientHistory("collapse detection needs >= 2 iterations")
    anchor = max(len(scores) - 1 - window, 0)
    return similarities[-1] >= tau_sim or max(scores) - max(scores[: anchor + 1]) < eps_imp


def synth_generate(
    path: int,
    memory: MemoryBank,
    rng: np.random.Generator,
    vocab_size: int,
    demo_len: int,
    donor: Demonstration | None,
    donor_rng: np.random.Generator,
) -> Demonstration:
    """Stage-1 proposal: mutate the best stored demo, or draw a cold-start one.

    A donor (perturbation) must originate from a different path; a contiguous
    span of its tokens is appended as the perturbation segment.  Span draws
    come from ``donor_rng`` so that runs with and without perturbation share
    the same mutation trajectory.
    """
    if donor is not None and donor.origin == path:
        raise InvalidDonor("perturbation donor must come from another path")
    best = memory.best()
    if best is None:
        ids = rng.integers(0, vocab_size, size=demo_len).tolist()
    else:
        ids = list(best.demo.ids)
        ids[int(rng.integers(0, len(ids)))] = int(rng.integers(0, vocab_size))
    per_ids: tuple[int, ...] = ()
    if donor is not None:
        span = int(donor_rng.integers(1, len(donor.ids) + 1))
        start = int(donor_rng.integers(0, len(donor.ids) - span + 1))
        per_ids = donor.ids[start : start + span]
    return Demonstration(tuple(ids), per_ids, origin=path)


def run_two_stage(
    config: OptimizerConfig, env: OptimizerEnv, generator=synth_generate, table=None
) -> list[TraceRecord]:
    """Run the m-path loop; deterministic given (config, env, generator).

    An iteration draws its m proposals first, in path order (none depends on
    a score of its own iteration), then scores the (ids, per_ids) pairs that
    ``table`` lacks, memory twins included, in one ``score_demos`` call.  A
    table bound to (env, gen_steps) may serve several runs; else scores last one.
    """
    rngs = [stream(config.master_seed, f"path/{p}") for p in range(config.m)]
    donor_rngs = [stream(config.master_seed, f"donor/{p}") for p in range(config.m)]
    memories = [MemoryBank() for _ in range(config.m)]
    effects: list[list[float]] = [[] for _ in range(config.m)]  # per path, one per iteration
    sims: list[list[float]] = [[] for _ in range(config.m)]
    last_demo: list[Demonstration | None] = [None] * config.m
    last_mean: list[tuple[np.ndarray, float] | None] = [None] * config.m  # of last_demo
    trace: list[TraceRecord] = []
    if table is not None and (table.env is not env or table.steps != config.gen_steps):
        raise InvalidConfig("the score table is bound to another env or gen_steps")
    scores = {} if table is None else table.scores  # (ids, per_ids) -> EffectDScore

    for it in range(1, config.iterations + 1):
        drawn = []
        for p in range(config.m):
            collapsed = len(effects[p]) >= 2 and detect_collapse(
                effects[p], sims[p], config.tau_sim, config.eps_imp, config.window
            )
            donor = None
            if collapsed and config.perturbation_enabled:
                # another path at random (each has drawn by now, and m >= 2) lends its latest
                # demonstration, so injected content varies; ``integers`` draws as ``choice``
                others = [q for q in range(config.m) if q != p]
                donor = last_demo[others[int(donor_rngs[p].integers(0, len(others)))]]
            demo = generator(
                p, memories[p], rngs[p], env.vocab.size, config.demo_len, donor,
                donor_rng=donor_rngs[p],
            )
            mean = _mean_norm(env.vocab, demo)
            sim = 0.0 if last_mean[p] is None else _cosine(last_mean[p], mean)
            drawn.append((demo, collapsed, donor is not None, sim))
            last_demo[p], last_mean[p] = demo, mean
        # memory tracks a demonstration's own quality: scored without the transient
        # perturbation segment, donor content cannot inflate a weak demonstration's value
        todo = {}  # each unscored pair, as the proposal itself where it is that pair
        for d, *_ in drawn:
            for k in ((d.ids, d.per_ids), (d.ids, ())):
                if k not in scores and k not in todo:
                    todo[k] = d if k[1] == d.per_ids else Demonstration(d.ids)
        if todo:
            scores.update(zip(todo, score_demos(env, list(todo.values()), config.gen_steps)))
        for p, (demo, collapsed, perturbed, sim) in enumerate(drawn):
            memories[p].admit(demo, scores[(demo.ids, ())])
            effect = scores[(demo.ids, demo.per_ids)].value
            effects[p].append(effect)
            sims[p].append(sim)
            trace.append(TraceRecord(it, p, effect, sim, collapsed, perturbed, demo))
    return trace
