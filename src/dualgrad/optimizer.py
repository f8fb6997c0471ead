"""Two-stage iterative demonstration optimization with m independent paths.

Stage 1 proposes a demonstration (local search over the path's best stored
demonstration, optionally spliced with a donor span from another path when
collapse is detected).  Stage 2 evaluates it by running generation against the
toy model and scoring how early the target token appears.  Demonstrations
that hit the target are admitted to the path's memory.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEmbedding,
    InsufficientHistory,
    InvalidConfig,
    InvalidDimension,
    InvalidDonor,
    InvalidParameter,
)
from .metrics import EffectDScore, effect_d
from .rng import stream
from .sequence import _unit_rows
from .transformer import Vocabulary, _candidate_table


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
        if self.window < 0:
            raise InvalidConfig("window must be >= 0")
        if self.perturbation_enabled and self.m < 2:
            raise InvalidConfig("perturbation needs a donor path: m >= 2")


@dataclass(frozen=True)
class OptimizerEnv:
    """Fixed evaluation environment: batched model forward, prompt frame, and target."""

    forward: object  # callable((B, N, d_i) prompts) -> (B, d_o) hiddens at position N
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


def _prompt_tables(env: OptimizerEnv):
    """Instruction rows, lead rows and input embeddings, normalized as ``build`` would."""
    tables = [np.atleast_2d(np.asarray(t, dtype=float))
              for t in (env.instr, env.leads, env.vocab.input_embeddings)]
    if len({t.shape[1] for t in tables}) != 1:
        raise InvalidDimension("prompt frame and vocabulary disagree on embedding dim")
    return [_unit_rows(t) for t in tables] if env.normalize else tables


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


def score_demos(env: OptimizerEnv, demos, steps: int, tables=None) -> list[EffectDScore]:
    """Stage 2 of several demonstrations at once: splice each into the frame, generate, score.

    Greedy, emitted ids excluded, stopped at the target (the score reads only
    its first hit).  Every prompt grows by one token per step, so all prompts
    that have started and not yet left share one length N: each N makes one
    ``env.forward`` call, from the shortest start to the last live prompt.
    After each call, one product over the candidate table gives every row's
    logits, and each row picks in plain Python from its own list of remaining
    candidates, as ``generate`` does: the first maximum, or the first NaN.  A
    prompt leaves on the target, when out of candidates or after ``steps``
    tokens.  Each score is bitwise that of ``generate`` over
    ``SegmentedSequence.build``.
    """
    if steps < 1:
        raise InvalidParameter("steps must be >= 1")
    instr, leads, emb = tables or _prompt_tables(env)
    cand, table = _candidate_table(env.vocab, env.candidate_mask)
    cand = list(range(len(table))) if cand is None else cand.tolist()
    hits: list[int | None] = [None] * len(demos)
    groups: dict[int, list[int]] = {}  # start length -> prompts
    for b, demo in enumerate(demos):
        groups.setdefault(len(instr) + len(demo.ids) + len(demo.per_ids) + len(leads), []).append(b)
    rows = np.empty((len(demos), max(groups, default=0) + steps, emb.shape[1]))
    rows[:, : len(instr)] = instr
    for n0, live in groups.items():
        rows[live, len(instr) : n0 - len(leads)] = emb[[demos[b].ids + demos[b].per_ids
                                                         for b in live]]
        rows[live, n0 - len(leads) : n0] = leads
    todo = sorted(groups)
    active = []  # (prompt, start, remaining candidate indices) in start order
    n = 0
    while todo or active:
        if not active:  # no prompt has this length: skip to the next start
            n = todo[0]
        if todo and todo[0] == n:
            active += [(b, n, list(range(len(cand)))) for b in groups[todo.pop(0)]]
        h = env.forward(rows[[b for b, _, _ in active], :n])
        logits = np.matmul(table, h[:, :, None])[:, :, 0].tolist()
        kept, toks = [], []
        for (b, n0, left), row in zip(active, logits):
            i = _first_max(row, left)
            if cand[i] == env.target_id:
                hits[b] = n - n0 + 1
            elif len(left) > 1 and n - n0 + 1 < steps:
                left.remove(i)
                kept.append((b, n0, left))
                toks.append(cand[i])
        if kept:
            rows[[b for b, _, _ in kept], n] = emb[toks]
        active = kept
        n += 1
    return [EffectDScore(effect_d(pos), pos) for pos in hits]


def evaluate_demo(env: OptimizerEnv, demo: Demonstration, steps: int) -> EffectDScore:
    """Stage 2 of one demonstration: ``score_demos`` for a block of one prompt."""
    return score_demos(env, [demo], steps)[0]


def _mean_norm(vocab: Vocabulary, demo: Demonstration) -> tuple[np.ndarray, float]:
    """Mean token embedding of a demonstration and its Euclidean norm."""
    # the arithmetic of ndarray.mean and np.linalg.norm for real rows, without their dispatch
    ids = list(demo.ids) + list(demo.per_ids)
    mean = np.add.reduce(vocab.input_embeddings[ids], axis=0) / len(ids)
    return mean, math.sqrt(mean @ mean)


def _cosine(a: tuple[np.ndarray, float], b: tuple[np.ndarray, float]) -> float:
    """Cosine of two ``_mean_norm`` results."""
    (m1, n1), (m2, n2) = a, b
    if n1 == 0.0 or n2 == 0.0:
        raise DegenerateEmbedding("zero-norm mean embedding")
    return float(m1 @ m2 / (n1 * n2))


def similarity(vocab: Vocabulary, d1: Demonstration, d2: Demonstration) -> float:
    """Cosine similarity of the mean token embeddings of two demonstrations."""
    return _cosine(_mean_norm(vocab, d1), _mean_norm(vocab, d2))


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

    An iteration draws its m proposals first, in path order (none depends on
    a score of its own iteration), then scores their distinct unscored
    (ids, per_ids) pairs, memory twins included, in one ``score_demos`` call.
    Each pair is scored once per call; scores are kept only for this run.
    """
    rngs = [stream(config.master_seed, f"path/{p}") for p in range(config.m)]
    donor_rngs = [stream(config.master_seed, f"donor/{p}") for p in range(config.m)]
    memories = [MemoryBank(config.memory_capacity) for _ in range(config.m)]
    history: list[list[TraceRecord]] = [[] for _ in range(config.m)]
    last_demo: list[Demonstration | None] = [None] * config.m
    last_mean: list[tuple[np.ndarray, float] | None] = [None] * config.m  # of last_demo
    trace: list[TraceRecord] = []
    vocab_size = env.vocab.size
    tables = _prompt_tables(env)
    scores: dict[tuple[tuple[int, ...], tuple[int, ...]], EffectDScore] = {}

    for it in range(1, config.iterations + 1):
        drawn = []
        for p in range(config.m):
            records = history[p]
            collapsed = len(records) >= 2 and detect_collapse(
                [r.effect_d for r in records], [r.similarity for r in records],
                config.tau_sim, config.eps_imp, config.window,
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
            mean = _mean_norm(env.vocab, demo)
            sim = 0.0 if last_mean[p] is None else _cosine(last_mean[p], mean)
            drawn.append((demo, collapsed, donor is not None, sim))
            last_demo[p], last_mean[p] = demo, mean
        # memory tracks the demonstration's own quality: it is scored without
        # the transient perturbation segment, so donor content cannot inflate
        # the stored value of a weak demonstration
        keys = [k for d, *_ in drawn for k in ((d.ids, d.per_ids), (d.ids, ())) if k not in scores]
        if keys:
            keys = list(dict.fromkeys(keys))
            demos = [Demonstration(*k) for k in keys]
            scores.update(zip(keys, score_demos(env, demos, config.gen_steps, tables)))
        for p, (demo, collapsed, perturbed, sim) in enumerate(drawn):
            memories[p].admit(demo, scores[(demo.ids, ())], it)
            effect = scores[(demo.ids, demo.per_ids)].value
            rec = TraceRecord(it, p, effect, sim, collapsed, perturbed, f"p{p}i{it}", demo)
            history[p].append(rec)
            trace.append(rec)
    return trace
