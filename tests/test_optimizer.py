from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dualgrad.optimizer as optimizer_module
from dualgrad.errors import (
    EmptyCandidateSet,
    InsufficientHistory,
    InvalidConfig,
    InvalidDonor,
    InvalidIndex,
)
from dualgrad.experiments import make_toy_env
from dualgrad.metrics import EffectDScore, score_output
from dualgrad.optimizer import (
    Demonstration,
    MemoryBank,
    OptimizerConfig,
    TraceRecord,
    _first_max,
    detect_collapse,
    evaluate_demo,
    run_two_stage,
    score_demos,
    similarity,
    synth_generate,
)
from dualgrad.rng import stream
from dualgrad.sequence import SegmentedSequence
from dualgrad.transformer import Vocabulary, decode, generate


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
    bank = MemoryBank(capacity=4)
    assert not bank.admit(Demonstration((1,)), EffectDScore(0.0, None), 1)
    assert bank.admit(Demonstration((2,)), EffectDScore(0.5, 3), 2)
    assert bank.best().score.value == 0.5


def test_memory_evicts_lowest_keeps_best():
    bank = MemoryBank(capacity=2)
    bank.admit(Demonstration((1,)), EffectDScore(0.4, 4), 1)
    bank.admit(Demonstration((2,)), EffectDScore(1.0, 1), 2)
    bank.admit(Demonstration((3,)), EffectDScore(0.6, 2), 3)
    values = sorted(e.score.value for e in bank.entries)
    assert values == [0.6, 1.0]
    assert bank.best().demo.ids == (2,)


def test_memory_capacity_validated():
    with pytest.raises(InvalidConfig):
        MemoryBank(capacity=0)


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
    assert detect_collapse([0.2, 0.9], [0.1, 0.96], tau_sim=0.95)
    assert not detect_collapse([0.2, 0.9], [0.1, 0.5], tau_sim=0.95)


def test_detect_collapse_on_stagnation():
    # best score stalls below eps_imp across the window
    scores = [0.5, 0.5, 0.5, 0.5, 0.5]
    assert detect_collapse(scores, [0.1] * 5, eps_imp=0.01, window=3)
    rising = [0.1, 0.2, 0.4, 0.6, 0.9]
    assert not detect_collapse(rising, [0.1] * 5, eps_imp=0.01, window=3)


def test_detect_collapse_needs_history():
    with pytest.raises(InsufficientHistory):
        detect_collapse([0.5], [0.1])


def test_synth_generate_cold_start_and_mutation():
    rng = stream(0, "t")
    bank = MemoryBank()
    cold = synth_generate(0, 1, bank, rng, vocab_size=10, demo_len=4)
    assert len(cold.ids) == 4 and all(0 <= t < 10 for t in cold.ids)
    bank.admit(cold, EffectDScore(1.0, 1), 1)
    warm = synth_generate(0, 2, bank, rng, vocab_size=10, demo_len=4)
    assert sum(a != b for a, b in zip(warm.ids, cold.ids)) <= 1


def test_synth_generate_rejects_same_path_donor():
    rng = stream(0, "t")
    donor = Demonstration((1, 2, 3), origin=(0, 1))
    with pytest.raises(InvalidDonor):
        synth_generate(0, 2, MemoryBank(), rng, 10, 4, donor=donor)


def test_synth_generate_splices_contiguous_donor_span():
    rng = stream(0, "t")
    donor = Demonstration((4, 5, 6, 7), origin=(1, 3))
    demo = synth_generate(0, 2, MemoryBank(), rng, 10, 4, donor=donor)
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
    assert all(r.demo_id == f"p{r.path}i{r.iteration}" for r in trace)


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


def _evaluate_demo_oracle(env, demo, steps, seen=None):
    """Reference stage 2: build, full-length generation, then the first hit.

    With ``seen``, the bytes of every prompt given to the forward map to the
    bytes of its output.
    """
    emb = env.vocab.input_embeddings
    per = emb[list(demo.per_ids)] if demo.per_ids else None
    seq = SegmentedSequence.build(
        env.instr, emb[list(demo.ids)], env.leads, per=per,
        normalize=env.normalize,
    )

    def forward(s, pos):
        h = env.forward(s.tokens[None, :pos])[0]
        if seen is not None:
            seen[s.tokens[:pos].tobytes()] = h.tobytes()
        return h

    trace = generate(forward, seq, steps, env.vocab, env.candidate_mask, exclude_emitted=True)
    return score_output(trace.ids, env.target_id)


def _run_two_stage_oracle(config, env):
    """Reference m-path loop: every proposal and memory score evaluated afresh."""
    rngs = [stream(config.master_seed, f"path/{p}") for p in range(config.m)]
    donor_rngs = [stream(config.master_seed, f"donor/{p}") for p in range(config.m)]
    memories = [MemoryBank(config.memory_capacity) for _ in range(config.m)]
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
                p, it, memories[p], rngs[p], env.vocab.size, config.demo_len, donor,
                donor_rng=donor_rngs[p],
            )
            score = _evaluate_demo_oracle(env, demo, config.gen_steps)
            sim = 0.0 if last_demo[p] is None else similarity(env.vocab, last_demo[p], demo)
            mem_score = score
            if demo.per_ids:
                mem_score = _evaluate_demo_oracle(
                    env, Demonstration(demo.ids, origin=demo.origin), config.gen_steps
                )
            memories[p].admit(demo, mem_score, it)
            rec = TraceRecord(it, p, score.value, sim, collapsed, donor is not None,
                              f"p{p}i{it}", demo)
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


def test_evaluate_demo_stops_at_the_target():
    env = make_toy_env(8)
    calls = []

    def forward(tokens):
        calls.append(tokens.shape)
        return env.forward(tokens)

    counted = replace(env, forward=forward)
    rng = np.random.default_rng(8)
    hits = set()
    for _ in range(60):
        demo = Demonstration(tuple(int(v) for v in rng.integers(0, env.vocab.size, 4)))
        calls.clear()
        score = evaluate_demo(counted, demo, steps=5)
        assert score == _evaluate_demo_oracle(env, demo, 5)
        assert len(calls) == (score.hit_position or 5)
        assert all(shape[0] == 1 for shape in calls)
        hits.add(score.hit_position)
    assert len(hits) > 2  # misses and hits at several positions were exercised


def test_repeated_demonstration_is_evaluated_once_per_run():
    env = make_toy_env(7)
    cfg = _config(m=2, iterations=5, perturbation_enabled=False)
    ids = (1, 2, 3, 4)

    def same_demo(path, iteration, memory, rng, vocab_size, demo_len, donor=None,
                  donor_rng=None):
        # path 1 adds a perturbation segment, so its memory score is path 0's pair
        return Demonstration(ids, (5,) if path else (), origin=(path, iteration))

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
    if variant == "no-mask":
        return replace(env, candidate_mask=None)
    if variant == "unnormalized":
        return replace(env, normalize=False)
    if variant == "ties":  # ids 2j and 2j+1 score alike, so the smaller one must win
        out = env.vocab.output_embeddings.copy()
        out[1::2] = out[::2]
        return replace(env, vocab=Vocabulary(out, env.vocab.input_embeddings))
    return env


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    variant=st.sampled_from(["mask", "no-mask", "unnormalized", "ties"]),
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

    def forward(tokens):
        h = env.forward(tokens)
        blocks.append((tokens.copy(), h))
        return h

    assert score_demos(replace(env, forward=forward), demos, steps) == want
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

    def forward(tokens):
        blocks.append(tokens.copy())
        return env.forward(tokens)

    assert score_demos(replace(env, forward=forward), demos, steps) == want
    lengths = [b.shape[1] for b in blocks]
    assert all(a < b for a, b in zip(lengths, lengths[1:]))
    assert len(blocks) <= max(starts) - min(starts) + steps
    # every row is a prompt of the block's length that per-demonstration
    # generation builds, and the blocks hold as many rows as it makes calls
    assert all(row.tobytes() in seen for b in blocks for row in b)
    assert sum(len(b) for b in blocks) == len(demos) * steps == len(seen)


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


def _assert_scores_match_generation(env, demos, steps):
    seen = {}
    want = [_evaluate_demo_oracle(env, d, steps, seen) for d in demos]
    blocks = []

    def forward(tokens):
        h = env.forward(tokens)
        blocks.append((tokens.copy(), h))
        return h

    assert score_demos(replace(env, forward=forward), demos, steps) == want
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

        def forward(tokens, forward=env.forward):
            h = forward(tokens).copy()
            key = tokens[:, -1, 0]  # by content, so a row is poisoned alike in any block
            h[key > 0.4] = np.nan
            h[(key > -0.2) & (key <= 0.4), 0] = np.inf
            kinds.update(["nan"] * bool((key > 0.4).any())
                         + ["inf"] * bool(((key > -0.2) & (key <= 0.4)).any()))
            return h

        demos = [Demonstration(ids, per) for ids, per in _EDGE_DEMOS]
        _assert_scores_match_generation(replace(env, forward=forward), demos, steps=6)
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
        for mask in (None, env.candidate_mask):
            tied = replace(env, vocab=vocab, candidate_mask=mask)
            _assert_scores_match_generation(
                tied, [Demonstration(ids, per) for ids, per in _EDGE_DEMOS], steps=12)


def test_score_demos_with_an_empty_candidate_mask_raises():
    env = replace(make_toy_env(0), candidate_mask=frozenset())
    with pytest.raises(EmptyCandidateSet):
        score_demos(env, [Demonstration((1, 2))], 5)
    with pytest.raises(EmptyCandidateSet):
        evaluate_demo(env, Demonstration((1, 2)), 5)


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
