import numpy as np
import pytest

from dualgrad.dual import build_dual_attention
from dualgrad.engineering import TARGET_ID, build_scenario
from dualgrad.errors import ConstructionFailed, InvalidConfig
from dualgrad.experiments import (
    OPTIMIZE_HEADER,
    TOY_CANDIDATES,
    ExperimentConfig,
    make_toy_env,
    run_equiv,
    run_fig7,
    run_generate,
    run_optimize,
)
from dualgrad.kernelmap import sample_feature_map
from dualgrad.metrics import hit_position, score_output
from dualgrad.optimizer import Demonstration, OptimizerEnv, evaluate_demo, score_demos
from dualgrad.sequence import SegmentedSequence, Tag
from dualgrad.transformer import (
    Vocabulary,
    exact_attention,
    exact_attention_batch,
    generate,
    kernel_attention,
)


FIG7 = dict(d_i=11, d_o=1, n_t=15, k_leads=2)  # fig7's dimensions in the config defaults


def _scenario_env(kind: str) -> tuple[OptimizerEnv, int]:
    """Wrap an engineered scenario so its demo tokens are addressable by id."""
    scen = build_scenario(kind, **FIG7)
    demo = [i for i, tag in enumerate(scen.seq.tags) if tag is Tag.D_CURR]
    demo_rows = np.unique(scen.seq.tokens[demo], axis=0)
    d_o = scen.vocab.output_embeddings.shape[1]
    vocab = Vocabulary(
        np.vstack([scen.vocab.output_embeddings, np.zeros((len(demo_rows), d_o))]),
        np.vstack([scen.vocab.input_embeddings, demo_rows]),
    )
    first_demo_id = scen.vocab.size
    n_t = scen.seq.tags.count(Tag.T_INSTR)
    instr = scen.seq.tokens[:n_t]
    leads = scen.seq.tokens[scen.seq.idx_task[n_t] :]
    env = OptimizerEnv(
        params=scen.params,
        instr=instr,
        leads=leads,
        vocab=vocab,
        target_id=TARGET_ID,
        candidate_mask=frozenset(range(scen.vocab.size)),  # the scenario's whole table
    )
    return env, first_demo_id


def test_engineered_good_demo_scores_one_via_evaluator():
    # the optimizer's scorer and the scenario agree on demonstration quality
    env, demo_id = _scenario_env("good")
    score = evaluate_demo(env, Demonstration((demo_id,) * 15), steps=5)
    assert score.value == 1.0 and score.hit_position == 1


@pytest.mark.parametrize("kind", ["good", "bad"])
def test_scenario_env_scores_equal_per_demonstration_generation(kind):
    # a frame with zero rows, which normalizing keeps; prompts of several lengths in one call
    env, demo_id = _scenario_env(kind)
    n_demo = env.vocab.size - demo_id
    rng = np.random.default_rng(0)
    demos = [
        Demonstration(tuple(int(v) for v in rng.integers(0, env.vocab.size, length)),
                      tuple(demo_id + rng.permutation(n_demo)[: length % 3]))
        for length in rng.integers(1, 16, 12)
    ] + [Demonstration((demo_id,) * 15)]
    emb = env.vocab.input_embeddings
    want = []
    for d in demos:
        seq = SegmentedSequence.build(
            env.instr, emb[list(d.ids)], env.leads, per=emb[list(d.per_ids)] if d.per_ids else None
        )
        trace = generate(lambda s, p: exact_attention_batch(env.params, s.tokens[None, :p])[0],
                         seq, 5, env.vocab, env.candidate_mask, exclude_emitted=True)
        want.append(score_output(trace.ids, env.target_id))
    assert score_demos(env, demos, 5) == want
    assert {s.hit_position for s in want} != {None}


def test_mask_forcing_overrides_demo_quality():
    scen = build_scenario("bad", **FIG7)
    trace = generate(
        lambda s, p: exact_attention(scen.params, s, p),
        scen.seq,
        1,
        scen.vocab,
        mask={TARGET_ID},
    )
    assert hit_position(trace.ids, TARGET_ID) == 1


@pytest.mark.parametrize(
    "bad",
    [
        {"mode": "Kernel"}, {"mode": "both"}, {"schedule": "sgd"}, {"schedule": "fractional:0"},
        {"reps": 0}, {"feature_dim": 7}, {"feature_dim": 0}, {"d_o": 0}, {"demo_len": 0},
        {"k_leads": -1}, {"window": -1}, {"vocab_size": TOY_CANDIDATES - 1},
    ],
)
def test_experiment_config_checks_its_own_ranges(bad):
    # a config built in code gets the checks a config file or flag gets; else
    # run_equiv would run mode "Kernel" as exact attention
    with pytest.raises(InvalidConfig):
        run_equiv(ExperimentConfig(**{"reps": 1, **bad}))


def test_scenario_validation():
    with pytest.raises(ConstructionFailed):
        build_scenario("mediocre", **FIG7)
    with pytest.raises(ConstructionFailed):
        build_scenario("good", **{**FIG7, "d_i": 2})


def test_equiv_step_zero_row_is_demo_contribution_norm():
    cfg = ExperimentConfig(reps=1, seed=0)
    rows = run_equiv(cfg)
    zero = next(r for r in rows if r[2] == 0)
    # reconstruct: SE at step 0 is ||h - W_0 phi(q)||^2 by definition
    from dualgrad.experiments import random_attention, random_sequence
    from dualgrad.rng import stream

    rng = stream(0, "equiv")
    params = random_attention(rng, cfg.d_i, cfg.d_o)
    seq = random_sequence(rng, cfg.d_i, cfg.n_t, cfg.n_d, cfg.k_leads)
    fmap = sample_feature_map(cfg.d_o, cfg.feature_dim, seed=0)
    h = kernel_attention(params, fmap, seq, len(seq))
    dual = build_dual_attention(params, fmap, seq, len(seq))
    expected = float(np.sum((h - dual.w0 @ dual.phi_q) ** 2))
    assert zero[3] == pytest.approx(expected, rel=1e-12)


def test_equiv_terminal_se_vanishes_for_all_seeds():
    rows = run_equiv(ExperimentConfig(reps=5, seed=0))
    terminal = {}
    for seed, _, step, se, _, _ in rows:
        terminal[seed] = se
    assert all(se <= 1e-9 for se in terminal.values())


def test_fig7_curves_cover_both_scenarios():
    report = run_fig7(ExperimentConfig(**FIG7))
    kinds = {row[0] for row in report.rows}
    assert kinds == {"good", "bad"}
    assert all(se >= 0.0 for *_, se in report.rows)


def test_toy_env_deterministic_and_masked():
    a, b = make_toy_env(7), make_toy_env(7)
    assert np.array_equal(a.vocab.output_embeddings, b.vocab.output_embeddings)
    assert a.candidate_mask == b.candidate_mask
    assert a.target_id in a.candidate_mask


@pytest.mark.parametrize("vocab_size", [5, TOY_CANDIDATES - 1])
def test_toy_env_needs_its_candidate_count(vocab_size):
    # not numpy's ValueError from drawing the candidate ids
    with pytest.raises(InvalidConfig):
        make_toy_env(0, vocab_size=vocab_size)


def test_run_generate_emits_masked_ids():
    cfg = ExperimentConfig(seed=0, steps=4)
    rows = run_generate(cfg)
    env = make_toy_env(cfg.seed, cfg.d_i, cfg.d_o, cfg.vocab_size)
    assert len(rows) == 4
    assert all(tok in env.candidate_mask for _, _, tok in rows)


def test_optimize_rows_name_each_demonstration_by_path_and_iteration():
    rows = run_optimize(ExperimentConfig(seed=0, m=2, iterations=3))
    assert len(rows) == 6 and all(len(r) == len(OPTIMIZE_HEADER) for r in rows)
    col = {name: i for i, name in enumerate(OPTIMIZE_HEADER)}
    assert [r[col["demo_id"]] for r in rows] == [
        f"p{r[col['path']]}i{r[col['iteration']]}" for r in rows
    ]
    assert [r[col["demo_id"]] for r in rows[:2]] == ["p0i1", "p1i1"]
