import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dualgrad.experiments as experiments_module
import dualgrad.optimizer as optimizer_module
from dualgrad.errors import (
    EmptyCandidateSet,
    InsufficientHistory,
    InvalidConfig,
    InvalidDimension,
    InvalidDonor,
    InvalidIndex,
)
from dualgrad.experiments import (
    ExperimentConfig,
    collapse_comparison,
    make_toy_env,
    optimizer_config,
)
from dualgrad.metrics import EffectDScore, effect_d, score_output
from dualgrad.optimizer import (
    MEMORY_CAPACITY,
    Demonstration,
    MemoryBank,
    OptimizerConfig,
    OptimizerEnv,
    ScoreTable,
    TraceRecord,
    _first_max,
    _mean_norm,
    detect_collapse,
    evaluate_demo,
    run_two_stage,
    score_demos,
    similarity,
    synth_generate,
)
from dualgrad.rng import stream
from dualgrad.sequence import SegmentedSequence
from dualgrad.transformer import (
    AttentionParams,
    Vocabulary,
    decode,
    exact_attention_batch,
    exact_attention_slots,
    generate,
)


def _config(**kw):
    base = dict(m=3, iterations=10, master_seed=0, perturbation_enabled=True)
    base.update(kw)
    return OptimizerConfig(**base)


# ---------------------------------------------------------------------------
# building blocks


def test_demonstration_requires_tokens():
    with pytest.raises(InvalidConfig):
        Demonstration(())


def test_memory_admits_only_hits():
    bank = MemoryBank()
    assert not bank.admit(Demonstration((1,)), EffectDScore(0.0, None))
    assert bank.admit(Demonstration((2,)), EffectDScore(0.5, 3))
    assert bank.best().score.value == 0.5


def test_memory_evicts_lowest_keeps_best():
    # one hit more than the bank holds: the lowest score, admitted third, goes
    bank = MemoryBank()
    values = [0.5 + 0.01 * i for i in range(MEMORY_CAPACITY + 1)]
    values[2], values[5] = 0.1, 1.0
    for i, v in enumerate(values):
        assert bank.admit(Demonstration((i,)), EffectDScore(v, 1))
    assert len(bank.entries) == MEMORY_CAPACITY
    assert [e.demo.ids[0] for e in bank.entries] == [i for i in range(len(values)) if i != 2]
    assert bank.best().demo.ids == (5,)


class _MemoryOracle:
    """The bank as a list, its best found by a scan: the first maximum, as ``max`` finds it."""

    def __init__(self):
        self.entries = []

    def admit(self, demo, score):
        if score.value <= 0.0:
            return False
        self.entries.append((demo, score))
        if len(self.entries) > MEMORY_CAPACITY:
            del self.entries[min(range(len(self.entries)),
                                 key=lambda i: self.entries[i][1].value)]
        return True


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.75, 1.0]), max_size=3 * MEMORY_CAPACITY))
@example([1.0] * (2 * MEMORY_CAPACITY))  # every eviction takes the best entry, all tying
@example([0.5] * MEMORY_CAPACITY + [1.0, 0.5, 1.0, 0.25])
def test_memory_keeps_its_first_best_entry_through_ties_and_evictions(values):
    bank, oracle = MemoryBank(), _MemoryOracle()
    for i, v in enumerate(values):
        score = EffectDScore(v, 1 if v else None)
        assert bank.admit(Demonstration((i,)), score) == oracle.admit(Demonstration((i,)), score)
        assert [(e.demo, e.score) for e in bank.entries] == oracle.entries
        assert bank.best() is max(bank.entries, key=lambda e: e.score.value, default=None)
    assert type(bank.entries) is tuple
    with pytest.raises(AttributeError):
        bank.entries = ()  # read-only, so nothing outside admit can desynchronise best
    if bank.entries:
        with pytest.raises(AttributeError):
            bank.entries[0].score = EffectDScore(0.1, 9)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        _config(m=0)
    with pytest.raises(InvalidConfig):
        _config(iterations=0)
    with pytest.raises(InvalidConfig):
        _config(tau_sim=0.0)
    with pytest.raises(InvalidConfig):
        _config(m=1, perturbation_enabled=True)
    _config(m=1, perturbation_enabled=False)  # fine


def test_negative_window_is_a_config_error():
    # not an IndexError from detect_collapse's anchor
    with pytest.raises(InvalidConfig):
        run_two_stage(OptimizerConfig(m=2, iterations=6, window=-1), make_toy_env(0))


def test_similarity_is_cosine_of_mean_embeddings():
    env = make_toy_env(0)
    d1 = Demonstration((0, 1))
    d2 = Demonstration((2, 3))
    emb = env.vocab.input_embeddings
    m1, m2 = emb[[0, 1]].mean(axis=0), emb[[2, 3]].mean(axis=0)
    expected = float(m1 @ m2 / (np.linalg.norm(m1) * np.linalg.norm(m2)))
    assert similarity(env.vocab, d1, d2) == pytest.approx(expected)
    assert similarity(env.vocab, d1, d1) == pytest.approx(1.0)


def _similarity_oracle(vocab, d1, d2):
    """``similarity`` through numpy's generic ``ndarray.mean`` and ``np.linalg.norm``."""
    means = [vocab.input_embeddings[list(d.ids) + list(d.per_ids)].mean(axis=0) for d in (d1, d2)]
    n1, n2 = np.linalg.norm(means[0]), np.linalg.norm(means[1])
    return float(means[0] @ means[1] / (n1 * n2))


_ids = st.lists(st.integers(0, 23), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 40),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    ids1=_ids,
    ids2=_ids,
    per1=st.lists(st.integers(0, 23), max_size=4),
    per2=st.lists(st.integers(0, 23), max_size=4),
)
def test_similarity_is_bitwise_the_generic_numpy_form(seed, d, scale, ids1, ids2, per1, per2):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(rng.normal(0, 1, (24, d)), rng.normal(0, scale, (24, d)))
    d1 = Demonstration(tuple(ids1), tuple(per1))
    d2 = Demonstration(tuple(ids2), tuple(per2))
    got, want = similarity(vocab, d1, d2), _similarity_oracle(vocab, d1, d2)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_detect_collapse_on_similarity():
    assert detect_collapse([0.2, 0.9], [0.1, 0.96], tau_sim=0.95, eps_imp=0.01, window=3)
    assert not detect_collapse([0.2, 0.9], [0.1, 0.5], tau_sim=0.95, eps_imp=0.01, window=3)


def test_detect_collapse_on_stagnation():
    # best score stalls below eps_imp across the window
    scores = [0.5, 0.5, 0.5, 0.5, 0.5]
    assert detect_collapse(scores, [0.1] * 5, tau_sim=0.95, eps_imp=0.01, window=3)
    rising = [0.1, 0.2, 0.4, 0.6, 0.9]
    assert not detect_collapse(rising, [0.1] * 5, tau_sim=0.95, eps_imp=0.01, window=3)


def test_detect_collapse_needs_history():
    with pytest.raises(InsufficientHistory):
        detect_collapse([0.5], [0.1], tau_sim=0.95, eps_imp=0.01, window=3)


def test_synth_generate_cold_start_and_mutation():
    rng = stream(0, "t")
    bank = MemoryBank()
    cold = synth_generate(0, bank, rng, 10, 4, None, stream(0, "d"))
    assert len(cold.ids) == 4 and all(0 <= t < 10 for t in cold.ids)
    bank.admit(cold, EffectDScore(1.0, 1))
    warm = synth_generate(0, bank, rng, 10, 4, None, stream(0, "d"))
    assert sum(a != b for a, b in zip(warm.ids, cold.ids)) <= 1


def test_synth_generate_rejects_same_path_donor():
    rng = stream(0, "t")
    donor = Demonstration((1, 2, 3), origin=0)
    with pytest.raises(InvalidDonor):
        synth_generate(0, MemoryBank(), rng, 10, 4, donor, stream(0, "d"))


def test_synth_generate_splices_contiguous_donor_span():
    rng = stream(0, "t")
    donor = Demonstration((4, 5, 6, 7), origin=1)
    demo = synth_generate(0, MemoryBank(), rng, 10, 4, donor, stream(0, "d"))
    assert demo.per_ids
    joined = ",".join(map(str, donor.ids))
    assert ",".join(map(str, demo.per_ids)) in joined


def test_evaluate_demo_is_deterministic():
    env = make_toy_env(3)
    demo = Demonstration((1, 2, 3, 4), per_ids=(5,))
    a = evaluate_demo(env, demo, steps=5)
    b = evaluate_demo(env, demo, steps=5)
    assert a == b


# ---------------------------------------------------------------------------
# full loop


def test_run_is_deterministic():
    env = make_toy_env(1)
    cfg = _config()
    assert run_two_stage(cfg, env) == run_two_stage(cfg, env)


def test_trace_is_complete_and_ordered():
    env = make_toy_env(2)
    cfg = _config(m=2, iterations=6)
    trace = run_two_stage(cfg, env)
    assert len(trace) == 12
    assert [(r.iteration, r.path) for r in trace] == [
        (it, p) for it in range(1, 7) for p in range(2)
    ]


def test_no_collapse_flags_before_two_iterations():
    env = make_toy_env(2)
    trace = run_two_stage(_config(), env)
    for r in trace:
        if r.iteration <= 2:
            assert not r.collapse and not r.perturbed


@pytest.mark.parametrize("perturbation", [True, False])
def test_trace_similarity_is_bitwise_similarity_of_consecutive_demos(perturbation):
    # run_two_stage keeps each path's last mean; the record must not notice
    for seed in range(20):
        env = make_toy_env(200 + seed, d_i=int(3 + seed % 6))
        cfg = _config(iterations=8, master_seed=seed, perturbation_enabled=perturbation)
        last = {}
        for r in run_two_stage(cfg, env):
            want = 0.0 if r.path not in last else similarity(env.vocab, last[r.path], r.demo)
            assert np.float64(r.similarity).tobytes() == np.float64(want).tobytes()
            last[r.path] = r.demo


def test_perturbed_only_with_collapse_and_enabled():
    env = make_toy_env(4)
    for enabled in (True, False):
        trace = run_two_stage(_config(perturbation_enabled=enabled, m=3), env)
        for r in trace:
            if r.perturbed:
                assert enabled and r.collapse and r.demo.per_ids


def test_perturbation_donor_from_other_path():
    env = make_toy_env(5)
    trace = run_two_stage(_config(iterations=15), env)
    by_path_iter = {(r.path, r.iteration): r for r in trace}
    perturbed = [r for r in trace if r.perturbed]
    assert perturbed, "expected at least one perturbation event"
    for r in perturbed:
        # the spliced span must appear verbatim in another path's latest demo:
        # paths before r.path have already moved to the current iteration
        donors = []
        for q in range(3):
            if q == r.path:
                continue
            it = r.iteration if q < r.path else r.iteration - 1
            if (q, it) in by_path_iter:
                donors.append(by_path_iter[(q, it)].demo.ids)
        span = ",".join(map(str, r.demo.per_ids))
        assert any(span in ",".join(map(str, ids)) for ids in donors)


def test_scores_are_valid_effect_values():
    env = make_toy_env(6)
    trace = run_two_stage(_config(), env)
    for r in trace:
        assert 0.0 <= r.effect_d <= 1.0
        assert -1.0 <= r.similarity <= 1.0


# ---------------------------------------------------------------------------
# stage-2 work: stop at the target, one evaluation per distinct demonstration


def _evaluate_demo_oracle(env, demo, steps, seen=None, batch=None):
    """Reference stage 2: build, full-length generation, then the first hit.

    ``batch`` maps (B, N, d_i) prompts to (B, d_o) hiddens, by default
    ``exact_attention_batch`` of ``env.params``.  With ``seen``, the bytes of
    every prompt given to the forward map to the bytes of its output.
    """
    emb = env.vocab.input_embeddings
    per = emb[list(demo.per_ids)] if demo.per_ids else None
    seq = SegmentedSequence.build(env.instr, emb[list(demo.ids)], env.leads, per=per)
    batch = batch or (lambda tokens: exact_attention_batch(env.params, tokens))

    def forward(s, pos):
        h = batch(s.tokens[None, :pos])[0]
        if seen is not None:
            seen[s.tokens[:pos].tobytes()] = h.tobytes()
        return h

    trace = generate(forward, seq, steps, env.vocab, env.candidate_mask, exclude_emitted=True)
    return score_output(trace.ids, env.target_id)


def _run_two_stage_oracle(config, env):
    """Reference m-path loop: every proposal and memory score evaluated afresh."""
    rngs = [stream(config.master_seed, f"path/{p}") for p in range(config.m)]
    donor_rngs = [stream(config.master_seed, f"donor/{p}") for p in range(config.m)]
    memories = [MemoryBank() for _ in range(config.m)]
    history = [[] for _ in range(config.m)]
    last_demo = [None] * config.m
    trace = []
    for it in range(1, config.iterations + 1):
        for p in range(config.m):
            records = history[p]
            collapsed = len(records) >= 2 and detect_collapse(
                [r.effect_d for r in records], [r.similarity for r in records],
                config.tau_sim, config.eps_imp, config.window,
            )
            donor = None
            if collapsed and config.perturbation_enabled:
                others = [q for q in range(config.m) if q != p and last_demo[q] is not None]
                if others:
                    donor = last_demo[int(donor_rngs[p].choice(others))]
            demo = synth_generate(
                p, memories[p], rngs[p], env.vocab.size, config.demo_len, donor,
                donor_rng=donor_rngs[p],
            )
            score = _evaluate_demo_oracle(env, demo, config.gen_steps)
            sim = 0.0 if last_demo[p] is None else similarity(env.vocab, last_demo[p], demo)
            mem_score = score
            if demo.per_ids:
                mem_score = _evaluate_demo_oracle(
                    env, Demonstration(demo.ids, origin=demo.origin), config.gen_steps
                )
            memories[p].admit(demo, mem_score)
            rec = TraceRecord(it, p, score.value, sim, collapsed, donor is not None, demo)
            records.append(rec)
            trace.append(rec)
            last_demo[p] = demo
    return trace


@pytest.mark.parametrize("perturbation", [True, False])
@pytest.mark.parametrize("seed", range(10))
def test_run_two_stage_matches_full_length_oracle(seed, perturbation):
    env = make_toy_env(100 + seed, d_i=8, d_o=6)
    cfg = _config(iterations=15, master_seed=seed, perturbation_enabled=perturbation)
    assert run_two_stage(cfg, env) == _run_two_stage_oracle(cfg, env)


@pytest.mark.parametrize("perturbation", [True, False])
def test_run_two_stage_matches_the_oracle_through_memory_evictions(perturbation):
    # a path admits at most one entry per iteration, so only runs of more than
    # MEMORY_CAPACITY iterations evict, and draw from a memory that has evicted
    evictions = 0
    admit = MemoryBank.admit

    def counting_admit(bank, demo, score):
        nonlocal evictions
        evictions += len(bank.entries) == MEMORY_CAPACITY and score.value > 0.0
        return admit(bank, demo, score)

    for seed in range(10):
        env = make_toy_env(100 + seed, d_i=8, d_o=6)
        cfg = _config(iterations=40, master_seed=seed, perturbation_enabled=perturbation)
        with mock.patch.object(MemoryBank, "admit", counting_admit):
            trace = run_two_stage(cfg, env)
        assert trace == _run_two_stage_oracle(cfg, env)
    assert evictions > 0  # else these seeds no longer reach eviction: choose longer runs


def test_evaluate_demo_stops_at_the_target():
    env = make_toy_env(8)
    calls = []

    def forward(tables, slots):
        calls.append(slots.shape)
        return exact_attention_slots(tables, slots)

    rng = np.random.default_rng(8)
    hits = set()
    for _ in range(60):
        demo = Demonstration(tuple(int(v) for v in rng.integers(0, env.vocab.size, 4)))
        calls.clear()
        with mock.patch.object(optimizer_module, "exact_attention_slots", forward):
            score = evaluate_demo(env, demo, steps=5)
        assert score == _evaluate_demo_oracle(env, demo, 5)
        assert len(calls) == (score.hit_position or 5)
        assert all(shape[0] == 1 for shape in calls)
        hits.add(score.hit_position)
    assert len(hits) > 2  # misses and hits at several positions were exercised


def test_repeated_demonstration_is_evaluated_once_per_run():
    env = make_toy_env(7)
    cfg = _config(m=2, iterations=5, perturbation_enabled=False)
    ids = (1, 2, 3, 4)

    def same_demo(path, memory, rng, vocab_size, demo_len, donor=None, donor_rng=None):
        # path 1 adds a perturbation segment, so its memory score is path 0's pair
        return Demonstration(ids, (5,) if path else (), origin=path)

    def scored(spy):
        return sorted((d.ids, d.per_ids) for c in spy.call_args_list for d in c.args[1])

    with mock.patch.object(optimizer_module, "score_demos", wraps=score_demos) as spy:
        trace = run_two_stage(cfg, env, generator=same_demo)
        assert scored(spy) == [(ids, ()), (ids, (5,))]
        run_two_stage(cfg, env, generator=same_demo)
        assert len(scored(spy)) == 4  # nothing is kept from one run to the next
    for r in trace:
        assert r.effect_d == evaluate_demo(env, r.demo, cfg.gen_steps).value


def _toy_env(seed, variant):
    env = make_toy_env(seed, d_i=int(3 + seed % 6), d_o=int(1 + seed % 7))
    if variant == "whole-vocab":  # every id a candidate
        return replace(env, candidate_mask=frozenset(range(env.vocab.size)))
    if variant == "zero-rows":  # rows that normalizing leaves at zero
        instr, emb = env.instr.copy(), env.vocab.input_embeddings.copy()
        instr[1], emb[::5] = 0.0, 0.0
        return replace(env, instr=instr, vocab=Vocabulary(env.vocab.output_embeddings, emb))
    if variant == "ties":  # ids 2j and 2j+1 score alike, so the smaller one must win
        out = env.vocab.output_embeddings.copy()
        out[1::2] = out[::2]
        return replace(env, vocab=Vocabulary(out, env.vocab.input_embeddings))
    return env


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    variant=st.sampled_from(["mask", "whole-vocab", "zero-rows", "ties"]),
    demos=st.lists(
        st.tuples(st.lists(st.integers(0, 23), min_size=1, max_size=3),
                  st.lists(st.integers(0, 23), max_size=2)),
        min_size=1, max_size=8,
    ),
    steps=st.integers(1, 8),
)
@example(seed=3, variant="mask", demos=[([1], []), ([2], [3, 4]), ([5], [6])], steps=12)
# three lengths; ([3], [3]) hits on the first step, and ([8, 10], [10]) emits the target
# as the last of its 12 candidates, so its candidate set empties two steps before ``steps``
@example(seed=2, variant="mask", demos=[([3], [3]), ([8, 10], [10]), ([5], []), ([1, 2], [])],
         steps=14)
def test_score_demos_is_bitwise_per_demonstration_generation(seed, variant, demos, steps):
    env = _toy_env(seed, variant)
    demos = [Demonstration(tuple(ids), tuple(per)) for ids, per in demos]
    seen = {}
    want = [_evaluate_demo_oracle(env, d, steps, seen) for d in demos]
    blocks = []

    def forward(tables, slots):
        h = exact_attention_slots(tables, slots)
        blocks.append((tables.rows[slots], h))
        return h

    with mock.patch.object(optimizer_module, "exact_attention_slots", forward):
        assert score_demos(env, demos, steps) == want
    assert [evaluate_demo(env, d, steps) for d in demos] == want
    # every row a block fed to the forward is a prompt that per-demonstration
    # generation builds, and its output has the same bits
    for tokens, h in blocks:
        for row, out in zip(tokens, h):
            assert seen[row.tobytes()] == out.tobytes()


def test_score_demos_makes_one_forward_call_per_prompt_length():
    env = make_toy_env(5)
    # a target outside the candidates is never hit, so every prompt runs all its steps
    env = replace(env, target_id=next(i for i in range(env.vocab.size)
                                      if i not in env.candidate_mask))
    demos = [Demonstration(ids, per) for ids, per in
             [((1,), ()), ((2, 3), ()), ((4,), (5,)), ((6, 7, 8), ()), ((9, 1, 2), (3, 4))]]
    steps = 5
    seen = {}
    want = [_evaluate_demo_oracle(env, d, steps, seen) for d in demos]
    starts = [len(env.instr) + len(d.ids) + len(d.per_ids) + len(env.leads) for d in demos]
    assert len(set(starts)) == 4
    blocks = []

    def forward(tables, slots):
        blocks.append(tables.rows[slots])
        return exact_attention_slots(tables, slots)

    with mock.patch.object(optimizer_module, "exact_attention_slots", forward):
        assert score_demos(env, demos, steps) == want
    lengths = [b.shape[1] for b in blocks]
    assert all(a < b for a, b in zip(lengths, lengths[1:]))
    assert len(blocks) <= max(starts) - min(starts) + steps
    # every row is a prompt of the block's length that per-demonstration
    # generation builds, and the blocks hold as many rows as it makes calls
    assert all(row.tobytes() in seen for b in blocks for row in b)
    assert sum(len(b) for b in blocks) == len(demos) * steps == len(seen)


def test_steps_beyond_the_candidate_count_score_as_that_count():
    # a prompt leaves once out of candidates, so no step past the candidate count can move a score
    env = make_toy_env(4)
    demos = [Demonstration(ids, per) for ids, per in _EDGE_DEMOS]
    count = len(env.candidate_mask)
    want = score_demos(make_toy_env(4), demos, count)
    for steps in (count + 1, 400):
        assert score_demos(env, demos, steps) == want


def test_tables_stop_at_the_longest_prompt_a_call_can_reach():
    env = make_toy_env(0)
    # a target outside the candidates is never hit, so every prompt takes every candidate
    env = replace(env, target_id=next(i for i in range(env.vocab.size)
                                      if i not in env.candidate_mask))
    frame = len(env.instr) + len(env.leads)
    score_demos(env, [Demonstration((1,)), Demonstration((1, 2, 3), (4,))], 400)
    assert env.tables.positions == frame + 4 + len(env.candidate_mask) - 1


def test_no_demonstrations_score_nothing_and_grow_no_tables():
    env = make_toy_env(0)
    assert score_demos(env, [], 5) == []
    assert env.tables.positions == 0


@settings(max_examples=300, deadline=None)
@given(
    logits=st.lists(st.sampled_from([0.0, -1.0, 1.0, 2.0, np.inf, -np.inf, np.nan]),
                    min_size=1, max_size=10),
    data=st.data(),
)
def test_first_max_is_argmax_over_the_listed_ids(logits, data):
    ids = sorted(data.draw(st.sets(st.integers(0, len(logits) - 1), min_size=1)))
    want = ids[int(np.argmax(np.array(logits)[ids]))]
    assert _first_max(logits, ids) == want


def _assert_scores_match_generation(env, demos, steps, poison=None):
    """``score_demos`` against per-demonstration generation, hidden rows compared bitwise.

    ``poison(tokens, h)``, if given, rewrites both forwards' hidden rows by the prompts' content.
    """
    def oracle_forward(tokens):
        h = exact_attention_batch(env.params, tokens)
        return h if poison is None else poison(tokens, h)

    seen = {}
    want = [_evaluate_demo_oracle(env, d, steps, seen, oracle_forward) for d in demos]
    blocks = []

    def forward(tables, slots):
        tokens, h = tables.rows[slots], exact_attention_slots(tables, slots)
        h = h if poison is None else poison(tokens, h)
        blocks.append((tokens, h))
        return h

    with mock.patch.object(optimizer_module, "exact_attention_slots", forward):
        assert score_demos(env, demos, steps) == want
    for tokens, h in blocks:
        for row, out in zip(tokens, h):
            assert seen[row.tobytes()] == out.tobytes()
    return want


_EDGE_DEMOS = [((1,), ()), ((2, 3), ()), ((4,), (5,)), ((6, 7, 8), (9,))]


@pytest.mark.parametrize("seed", range(4))
def test_score_demos_with_one_or_two_candidates_matches_generation(seed):
    # the candidates run out before ``steps``, at different prompt lengths
    env = make_toy_env(seed)
    other = sorted(i for i in range(env.vocab.size) if i != env.target_id)
    demos = [Demonstration(ids, per) for ids, per in _EDGE_DEMOS]
    hits = set()
    for mask in ({env.target_id}, {other[seed]}, {env.target_id, other[seed]},
                 {other[seed], other[seed + 5]}):
        want = _assert_scores_match_generation(replace(env, candidate_mask=frozenset(mask)),
                                               demos, steps=5)
        hits |= {w.hit_position for w in want}
    assert {None, 1} <= hits


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_score_demos_with_nan_hidden_rows_matches_generation():
    # a NaN hidden row makes every logit NaN; an infinite coordinate against
    # zero output entries makes some NaN among infinities, where argmax takes
    # the first NaN and a bare max would take the first infinity
    kinds = set()
    for seed in range(6):
        env = make_toy_env(300 + seed)
        out = env.vocab.output_embeddings.copy()
        out[::3, 0] = 0.0
        env = replace(env, vocab=Vocabulary(out, env.vocab.input_embeddings))

        def poison(tokens, h):
            h = h.copy()
            key = tokens[:, -1, 0]  # by content, so a row is poisoned alike in any block
            h[key > 0.4] = np.nan
            h[(key > -0.2) & (key <= 0.4), 0] = np.inf
            kinds.update(["nan"] * bool((key > 0.4).any())
                         + ["inf"] * bool(((key > -0.2) & (key <= 0.4)).any()))
            return h

        demos = [Demonstration(ids, per) for ids, per in _EDGE_DEMOS]
        _assert_scores_match_generation(env, demos, steps=6, poison=poison)
    assert kinds == {"nan", "inf"}


@pytest.mark.parametrize("d_o", [8, 9, 12])
def test_score_demos_matches_generation_on_tied_rows_of_wide_outputs(d_o):
    # at d_o >= 8, BLAS may round a row's logit differently in tables of other
    # sizes, so exact ties hold only if both decoders take one candidate table
    for seed in range(40):
        env = make_toy_env(seed, d_o=d_o)
        out = env.vocab.output_embeddings.copy()
        out[1::2] = out[::2]
        vocab = Vocabulary(out, env.vocab.input_embeddings)
        for mask in (frozenset(range(env.vocab.size)), env.candidate_mask):
            tied = replace(env, vocab=vocab, candidate_mask=mask)
            _assert_scores_match_generation(
                tied, [Demonstration(ids, per) for ids, per in _EDGE_DEMOS], steps=12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), lengths=st.lists(st.integers(1, 7), min_size=2, max_size=6),
       steps=st.integers(1, 3))
# the 1-id prompt leaves after its second token, as the 3-id one joins the 2-id one
@example(seed=0, lengths=[1, 2, 3], steps=2)
# one token each: no prompt is live when each later start group joins
@example(seed=5, lengths=[1, 1, 4, 6, 6], steps=1)
def test_prompts_that_leave_before_a_later_start_joins_match_generation(seed, lengths, steps):
    # starts spread wider than ``steps``: prompts leave stage 2's live rows before a
    # longer start group joins them, so a step's rows skip the prompts that left
    env = make_toy_env(seed % 8)
    rng = stream(seed, "leave-then-join")
    demos = [Demonstration(tuple(rng.integers(0, env.vocab.size, m).tolist())) for m in lengths]
    _assert_scores_match_generation(env, demos, steps)


@pytest.mark.parametrize("n_instr, n_leads",
                         [(0, 2), (4, 0), (0, 1), (None, 2), (4, None), ("row", 2), (4, "row")])
def test_frames_without_instruction_or_lead_rows_match_generation(n_instr, n_leads):
    # without leads a prompt ends on a demonstration id; with one row of frame,
    # a one-id demonstration makes a 2-row prompt, which takes the row forward;
    # None is a 1-D empty array, which build drops as it drops a (0, d_i) segment;
    # "row" is one 1-D row, which build makes a (1, d_i) segment
    def cut(rows, n):
        return np.zeros(0) if n is None else rows[0] if n == "row" else rows[:n]

    for seed in range(3):
        env = make_toy_env(seed)
        env = replace(env, instr=cut(env.instr, n_instr), leads=cut(env.leads, n_leads))
        _assert_scores_match_generation(
            env, [Demonstration(ids, per) for ids, per in _EDGE_DEMOS], steps=6)


def test_frame_is_one_stack_of_the_rows_build_makes():
    env = make_toy_env(0)
    want = SegmentedSequence.build(env.instr, env.vocab.input_embeddings, env.leads).tokens
    assert env.frame.tokens.tobytes() == want.tobytes()
    assert env.tables.rows is env.frame.tokens  # the tables hold no second copy


def test_prompt_frame_and_vocabulary_must_share_the_embedding_dim():
    env = make_toy_env(0)
    d_i = env.vocab.input_embeddings.shape[1]
    for bad in (replace(env, instr=np.ones((4, d_i + 1))),
                replace(env, leads=np.ones((2, d_i - 1)))):
        with pytest.raises(InvalidDimension):
            score_demos(bad, [Demonstration((1, 2))], 5)
        with pytest.raises(InvalidDimension):
            run_two_stage(_config(iterations=2), bad)


def test_candidate_table_is_built_once_per_environment():
    # like frame, the table is a cached property of the env: neither a run's
    # score_demos calls nor a second run on the same env rebuild it
    cfg = optimizer_config(ExperimentConfig(), perturbation=True, seed=0)
    env = make_toy_env(0)
    with mock.patch.object(optimizer_module, "_candidate_table",
                           wraps=optimizer_module._candidate_table) as spy:
        run_two_stage(cfg, env)
        assert spy.call_count == 1
        run_two_stage(cfg, env)
        assert spy.call_count == 1
        run_two_stage(cfg, make_toy_env(1))
        assert spy.call_count == 2


def test_vocabulary_tables_are_read_only():
    # an env derives its frame and candidate table from these tables once, so
    # an in-place write would leave them stale while generate read the new rows
    env = make_toy_env(0)
    score_demos(env, [Demonstration((1, 2))], 5)
    for table in (env.vocab.output_embeddings, env.vocab.input_embeddings):
        with pytest.raises(ValueError):
            table[0] += 1.0


def test_env_instruction_and_lead_rows_are_read_only():
    # the env's frame and slot tables are cached from these rows, as from the
    # vocabulary's: an in-place write would leave stage 2 scoring the old rows
    env = make_toy_env(0, 8, 6)
    before = score_demos(env, [Demonstration((1, 2, 3, 4))], 5)
    for rows in (env.instr, env.leads):
        with pytest.raises(ValueError):
            rows[:] = 0.0
    assert score_demos(env, [Demonstration((1, 2, 3, 4))], 5) == before


def test_score_demos_with_an_empty_candidate_mask_raises():
    env = replace(make_toy_env(0), candidate_mask=frozenset())
    with pytest.raises(EmptyCandidateSet):
        score_demos(env, [Demonstration((1, 2))], 5)
    with pytest.raises(EmptyCandidateSet):
        evaluate_demo(env, Demonstration((1, 2)), 5)


_H = np.array([1.0, 0.0, 0.0])


def _fixed_forward(tables, slots):
    return np.tile(_H, (len(slots), 1))


def _fixed_env():
    """Candidates 2 and 3, target 3; ``_H``, every hidden state of ``_fixed_forward``, favours 2."""
    out = np.zeros((6, 3))
    out[2, 0], out[3, 0] = 2.0, 1.0
    rng = stream(0, "fixed-env")
    inp = rng.normal(0, 1, (6, 4))
    return OptimizerEnv(
        params=AttentionParams(*rng.normal(0, 1, (3, 3, 4))),
        instr=np.ones((2, 4)),
        leads=np.ones((1, 4)),
        vocab=Vocabulary(out, inp),
        target_id=3,
        candidate_mask=frozenset({2, 3}),
    )


def test_a_repeated_candidate_id_is_emitted_once():
    env = _fixed_env()
    seq = SegmentedSequence.build(env.instr, np.ones((1, 4)), env.leads)
    for mask in ([2, 2, 3], np.array([3, 2, 2, 3])):
        trace = generate(lambda s, p: _H, seq, 3, env.vocab, mask, exclude_emitted=True)
        assert trace.ids == (2, 3)
        assert decode(env.vocab, _H, mask) == 2
        # the target follows the one other candidate
        with mock.patch.object(optimizer_module, "exact_attention_slots", _fixed_forward):
            scores = score_demos(replace(env, candidate_mask=mask), [Demonstration((1, 2))], 3)
        assert scores == [EffectDScore(effect_d(2), 2)]


def test_candidate_ids_must_be_integers():
    env = _fixed_env()
    seq = SegmentedSequence.build(env.instr, np.ones((1, 4)), env.leads)
    # flags would otherwise be read as the ids 0 and 1, and a 2-D array flattened into ids
    for bad in (np.array([False, True, False, False, False, False]), [True, False], [2.0, 3.0],
                {True, 5}, frozenset({np.True_, 2, 3}), np.array([[1, 2], [3, 4]])):
        with pytest.raises(InvalidIndex):
            decode(env.vocab, _H, bad)
        with pytest.raises(InvalidIndex):
            generate(lambda s, p: _H, seq, 3, env.vocab, mask=bad)
        with pytest.raises(InvalidIndex):
            score_demos(replace(env, candidate_mask=bad), [Demonstration((1, 2))], 5)
    for empty in ([], np.array([], dtype=bool), frozenset()):
        with pytest.raises(EmptyCandidateSet):
            decode(env.vocab, _H, empty)


def test_candidate_ids_outside_the_vocabulary_raise():
    env = make_toy_env(0)
    h = np.ones(env.vocab.output_embeddings.shape[1])
    seq = SegmentedSequence.build(np.ones((2, 6)), np.zeros((0, 6)), np.zeros((0, 6)))
    for bad in (-1, env.vocab.size):
        mask = frozenset({2, bad})
        with pytest.raises(InvalidIndex):
            decode(env.vocab, h, mask)
        with pytest.raises(InvalidIndex):
            generate(lambda s, p: h, seq, 3, env.vocab, mask=mask)
        with pytest.raises(InvalidIndex):
            score_demos(replace(env, candidate_mask=mask), [Demonstration((1, 2))], 5)


def test_a_mask_that_is_not_iterable_raises_invalid_index():
    env = _fixed_env()
    seq = SegmentedSequence.build(env.instr, np.ones((1, 4)), env.leads)
    for bad in (2, np.array(2), 2.0, np.int64(2)):
        with pytest.raises(InvalidIndex, match="iterable"):
            decode(env.vocab, _H, bad)
        with pytest.raises(InvalidIndex, match="iterable"):
            generate(lambda s, p: _H, seq, 3, env.vocab, mask=bad)
        with pytest.raises(InvalidIndex, match="iterable"):
            score_demos(replace(env, candidate_mask=bad), [Demonstration((1, 2))], 5)


def test_an_invalid_id_message_names_the_first_bad_id():
    env = make_toy_env(0)
    h = np.ones(env.vocab.output_embeddings.shape[1])
    ids = [*range(env.vocab.size)] * 375  # 9,000 valid ids
    want = f"token ids must be integers in [0, {env.vocab.size}), got "
    for bad, shown in ((-1, "-1"), (np.int64(99), "np.int64(99)"), (True, "True"), (2.0, "2.0")):
        with pytest.raises(InvalidIndex) as err:
            decode(env.vocab, h, ids + [bad])
        assert str(err.value) == want + shown
        with pytest.raises(InvalidIndex) as err:
            score_demos(env, [Demonstration((3, bad))], 5)
        assert str(err.value) == want + shown


# ---------------------------------------------------------------------------
# stage 1 in plain Python: each form against the numpy form it replaced


def _detect_collapse_oracle(scores, similarities, tau_sim, eps_imp, window):
    """``detect_collapse`` through ``np.maximum.accumulate`` of the score history."""
    if similarities[-1] >= tau_sim:
        return True
    best = np.maximum.accumulate(np.asarray(scores, dtype=float))
    anchor = max(len(best) - 1 - window, 0)
    return bool(best[-1] - best[anchor] < eps_imp)


_EFFECTS = [effect_d(None)] + [effect_d(pos) for pos in range(1, 9)]


@settings(max_examples=400, deadline=None)
@given(
    scores=st.lists(st.sampled_from(_EFFECTS), min_size=2, max_size=15),
    sim=st.sampled_from([0.0, 0.5, 0.9499999, 0.95, 1.0]),
    eps_imp=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
    window=st.integers(0, 5),
)
def test_detect_collapse_is_the_running_maximum_form(scores, sim, eps_imp, window):
    sims = [0.0] * (len(scores) - 1) + [sim]
    got = detect_collapse(scores, sims, 0.95, eps_imp, window)
    assert type(got) is bool
    assert got == _detect_collapse_oracle(scores, sims, 0.95, eps_imp, window)


# the stall is read from the best score at the anchor, len - 1 - window, and
# not one score earlier or later: each case fails an anchor off by one
@pytest.mark.parametrize("scores, window, want", [
    ([0.5, 0.6, 0.6, 0.6], 2, True),  # the best was 0.6 already at the anchor
    ([0.5, 0.5, 0.6, 0.6], 2, False),  # it rose from 0.5 after the anchor
])
def test_detect_collapse_reads_the_best_score_at_the_anchor(scores, window, want):
    assert detect_collapse(scores, [0.0] * len(scores), 0.95, 0.01, window) is want


def test_run_two_stage_reads_collapse_from_finite_effect_values():
    # detect_collapse's max form assumes finite scores (a NaN would not
    # propagate as it did through np.maximum.accumulate): its one caller
    # passes effect_d values only
    histories = []

    def spy(scores, *args):
        histories.append(list(scores))
        return detect_collapse(scores, *args)

    cfg = _config()
    allowed = {effect_d(None)} | {effect_d(pos) for pos in range(1, cfg.gen_steps + 1)}
    with mock.patch.object(optimizer_module, "detect_collapse", spy):
        for seed in range(4):
            run_two_stage(replace(cfg, master_seed=seed), make_toy_env(seed))
    assert histories and all(s in allowed for h in histories for s in h)


def _mean_norm_oracle(vocab, demo):
    """``_mean_norm`` through list conversions and a list fancy-index."""
    ids = list(demo.ids) + list(demo.per_ids)
    mean = np.add.reduce(vocab.input_embeddings[ids], axis=0) / len(ids)
    return mean, math.sqrt(mean @ mean)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 40),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    ids=_ids,
    per=st.lists(st.integers(0, 23), max_size=4),
)
def test_mean_norm_is_bitwise_the_fancy_index_form(seed, d, scale, ids, per):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(rng.normal(0, 1, (24, d)), rng.normal(0, scale, (24, d)))
    demo = Demonstration(tuple(ids), tuple(per))
    (mean, norm), (want_mean, want_norm) = _mean_norm(vocab, demo), _mean_norm_oracle(vocab, demo)
    assert mean.tobytes() == want_mean.tobytes()
    assert np.float64(norm).tobytes() == np.float64(want_norm).tobytes()


def test_synth_generate_cold_start_draws_as_the_per_value_form():
    for seed in range(50):
        rng, want_rng = stream(seed, "cold"), stream(seed, "cold")
        demo = synth_generate(0, MemoryBank(), rng, 24, 4, None, stream(seed, "d"))
        assert demo.ids == tuple(int(v) for v in want_rng.integers(0, 24, size=4))
        assert all(type(i) is int for i in demo.ids)
        assert rng.bit_generator.state == want_rng.bit_generator.state


# ---------------------------------------------------------------------------
# demonstration ids


def test_demonstration_ids_outside_the_vocabulary_raise():
    env = make_toy_env(0)
    vocab, size = env.vocab, env.vocab.size
    # -1 would read row V-1, V would raise numpy's bare IndexError, 1.5 would
    # read row 1, and True and a numpy timedelta of 1 would be read as id 1
    for bad in ((-1,), (size,), (1, 2, 1.5), (True, 2), (1, np.float64(2.0)),
                (np.True_,), (np.timedelta64(1), 2)):
        for demo in (Demonstration(bad), Demonstration((3,), bad)):
            with pytest.raises(InvalidIndex):
                score_demos(env, [Demonstration((1, 2)), demo], 5)
            with pytest.raises(InvalidIndex):
                evaluate_demo(env, demo, 5)
            with pytest.raises(InvalidIndex):
                similarity(vocab, demo, Demonstration((size - 1,)))
            with pytest.raises(InvalidIndex):
                similarity(vocab, Demonstration((size - 1,)), demo)

    def bad_ids(path, memory, rng, vocab_size, demo_len, donor=None, donor_rng=None):
        return Demonstration((vocab_size,), origin=path)

    with pytest.raises(InvalidIndex):
        run_two_stage(_config(iterations=2), env, generator=bad_ids)


def test_numpy_integer_ids_score_as_python_ints():
    env = make_toy_env(0)
    ids, per = (0, 5, env.vocab.size - 1), (7,)
    as_np = Demonstration(tuple(np.array(ids)), tuple(np.array(per, dtype=np.uint8)))
    assert score_demos(env, [as_np], 5) == score_demos(env, [Demonstration(ids, per)], 5)
    assert similarity(env.vocab, as_np, Demonstration((1,))) == similarity(
        env.vocab, Demonstration(ids, per), Demonstration((1,)))


# ---------------------------------------------------------------------------
# a score table shared by the two arms of a paired run


def test_paired_arms_draw_the_same_ids():
    # the premise of sharing a table: perturbation changes per_ids only
    cfg = ExperimentConfig()
    for seed in range(20):
        env = make_toy_env(seed, cfg.d_i, cfg.d_o, cfg.vocab_size)
        arms = [run_two_stage(optimizer_config(cfg, on, seed), env) for on in (True, False)]
        assert [r.demo.ids for r in arms[0]] == [r.demo.ids for r in arms[1]]
        assert any(r.demo.per_ids for r in arms[0])


def test_a_score_table_serves_only_its_env_and_steps():
    cfg = _config(iterations=4)
    env = make_toy_env(0)
    table = ScoreTable(env, cfg.gen_steps)
    want = run_two_stage(cfg, env)
    assert run_two_stage(cfg, env, table=table) == want
    assert table.scores
    # a second run on a full table scores nothing and gives the same trace
    with mock.patch.object(optimizer_module, "score_demos") as spy:
        assert run_two_stage(cfg, env, table=table) == want
    assert not spy.called
    for bad in (ScoreTable(make_toy_env(0), cfg.gen_steps), ScoreTable(env, cfg.gen_steps + 1)):
        with pytest.raises(InvalidConfig):
            run_two_stage(cfg, env, table=bad)


def _scored_keys(run):
    """Summary of ``run()`` and the number of demonstrations it sends to ``score_demos``."""
    count = [0]

    def counted(env, demos, steps):
        count[0] += len(demos)
        return score_demos(env, demos, steps)

    with mock.patch.object(optimizer_module, "score_demos", counted):
        return run(), count[0]


def test_collapse_comparison_scores_each_key_once_per_seed():
    cfg = ExperimentConfig(m=3, iterations=15, seed=0)
    shared, n_shared = _scored_keys(lambda: collapse_comparison(cfg, n_seeds=40))

    def unshared(config, env, table=None):
        return run_two_stage(config, env)

    with mock.patch.object(experiments_module, "run_two_stage", unshared):
        alone, n_alone = _scored_keys(lambda: collapse_comparison(cfg, n_seeds=40))
    assert shared == alone
    assert (n_shared, n_alone) == (2822, 4496)
