"""Reusable experiment drivers shared by the CLI and the acceptance suite."""

from dataclasses import dataclass, field

import numpy as np

from .dual import DualModel, build_dual_attention, descend, parse_schedule, start_descent
from .engineering import TARGET_ID, build_scenario
from .errors import InvalidConfig, InvalidParameter, NormalizationDegenerate
from .kernelmap import sample_feature_map
from .metrics import hit_position
from .optimizer import OptimizerConfig, OptimizerEnv, ScoreTable, TraceRecord, run_two_stage
from .rng import stream
from .sequence import SegmentedSequence
from .transformer import (
    AttentionParams,
    Vocabulary,
    exact_attention,
    generate,
    kernel_attention,
)


@dataclass
class ExperimentConfig:
    """Flat configuration shared by the CLI subcommands; construction checks every range."""

    d_i: int = 8
    d_o: int = 6
    feature_dim: int = 128
    n_t: int = 10
    n_d: int = 6
    k_leads: int = 2
    vocab_size: int = 24
    seed: int = 0
    reps: int = 10
    steps: int = 5
    schedule: str = "per-token"
    mode: str = "kernel"
    m: int = 3
    iterations: int = 15
    perturbation: bool = True
    paired: bool = False
    tau_sim: float = 0.95
    eps_imp: float = 0.01
    window: int = 3
    demo_len: int = 4
    inject_fault: str = ""
    out: str = ""
    x: str = "step"
    y: str = "se"
    group: str = "seed"

    def __post_init__(self):
        if self.feature_dim % 2 or self.feature_dim < 2:
            raise InvalidConfig("D (feature_dim) must be even and >= 2")
        if self.reps < 1:
            raise InvalidConfig("repetitions must be >= 1")
        if min(self.d_i, self.d_o, self.n_t, self.n_d, self.demo_len) < 1:
            raise InvalidConfig("dims and sizes must be positive")
        if min(self.k_leads, self.window) < 0:
            raise InvalidConfig("k_leads and window must be >= 0")
        if self.vocab_size < TOY_CANDIDATES:
            raise InvalidConfig(f"vocab_size must be >= {TOY_CANDIDATES}, the toy candidate count")
        if self.mode not in ("exact", "kernel"):
            raise InvalidConfig(f"mode must be exact|kernel, got {self.mode!r}")
        try:
            parse_schedule(self.schedule)
        except InvalidParameter as exc:
            raise InvalidConfig(str(exc)) from None


def random_attention(rng: np.random.Generator, d_i: int, d_o: int) -> AttentionParams:
    scale = 1.0 / np.sqrt(d_i)
    return AttentionParams(
        rng.normal(0, scale, (d_o, d_i)),
        rng.normal(0, scale, (d_o, d_i)),
        rng.normal(0, scale, (d_o, d_i)),
    )


def random_sequence(
    rng: np.random.Generator, d_i: int, n_t: int, n_d: int, k_leads: int, n_per: int = 0
) -> SegmentedSequence:
    return SegmentedSequence.build(
        rng.normal(0, 1, (n_t, d_i)),
        rng.normal(0, 1, (n_d, d_i)),
        rng.normal(0, 1, (k_leads, d_i)),
        per=rng.normal(0, 1, (n_per, d_i)) if n_per else None,
        normalize=True,
    )


def _se_curve(dual: DualModel, reference: np.ndarray, schedule: str) -> list[tuple[int, float]]:
    """(step, squared error against reference) of an attention dual, from W_0 through one pass."""
    state = start_descent(dual, schedule)
    curve = []
    for step in range(state.pass_length + 1):
        if step:
            descend(dual, state, 1)
        curve.append((step, float(np.sum((reference - state.w @ dual.phi_q) ** 2))))
    return curve


EQUIV_HEADER = ["seed", "n_d", "step", "se", "schedule", "mode"]


def run_equiv(cfg: ExperimentConfig) -> list[list]:
    """SE-vs-descent-step curves for random configurations, one pass per seed."""
    rows = []
    for rep in range(cfg.reps):
        seed = cfg.seed + rep
        rng = stream(seed, "equiv")
        for attempt in range(20):
            params = random_attention(rng, cfg.d_i, cfg.d_o)
            seq = random_sequence(rng, cfg.d_i, cfg.n_t, cfg.n_d, cfg.k_leads)
            fmap = sample_feature_map(cfg.d_o, cfg.feature_dim, seed=seed * 1000 + attempt)
            pos = len(seq)
            try:
                reference = (
                    kernel_attention(params, fmap, seq, pos)
                    if cfg.mode == "kernel"
                    else exact_attention(params, seq, pos)
                )
                dual = build_dual_attention(params, fmap, seq, pos)
            except NormalizationDegenerate:
                continue
            break
        else:
            raise NormalizationDegenerate(f"seed {seed}: no usable draw in 20 attempts")
        for step, se in _se_curve(dual, reference, cfg.schedule):
            rows.append([seed, cfg.n_d, step, se, cfg.schedule, cfg.mode])
    return rows


FIG7_HEADER = ["run", "token_step", "descent_step", "se"]
FIG7_STEPS = 5  # tokens each engineered scenario generates


@dataclass
class Fig7Report:
    hits: dict = field(default_factory=dict)
    terminal_se: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)


def run_fig7(cfg: ExperimentConfig) -> Fig7Report:
    """Good/bad engineered demonstrations: hit positions plus dual SE curves.

    Decoding runs in exact softmax mode so the hit positions do not depend on
    feature-map noise; the SE curves compare the dual descent against the
    kernel-mode forward it is algebraically equal to.
    """
    report = Fig7Report()
    fmap = sample_feature_map(cfg.d_o, cfg.feature_dim, seed=cfg.seed)
    for kind in ("good", "bad"):
        scen = build_scenario(kind, cfg.d_i, cfg.d_o, cfg.n_t, cfg.k_leads)

        def forward(seq, pos):
            return exact_attention(scen.params, seq, pos)

        trace = generate(forward, scen.seq, FIG7_STEPS, scen.vocab, exclude_emitted=True)
        report.hits[kind] = hit_position(trace.ids, TARGET_ID)

        # one full descent pass per generated token, logged against the
        # kernel-mode output at that position
        seq = trace.final_seq
        terminal = 0.0
        for token_step, p in enumerate(trace.positions, start=1):
            reference = kernel_attention(scen.params, fmap, seq, p)
            dual = build_dual_attention(scen.params, fmap, seq, p)
            curve = _se_curve(dual, reference, "per-token")
            report.rows.extend([kind, token_step, step, se] for step, se in curve)
            terminal = max(terminal, curve[-1][1])
        report.terminal_se[kind] = terminal
    return report


GENERATE_HEADER = ["step", "position", "token_id"]
TOY_CANDIDATES = 12  # candidate ids a toy environment draws from its vocabulary


def make_toy_env(
    seed: int,
    d_i: int = 6,
    d_o: int = 4,
    vocab_size: int = 24,
) -> OptimizerEnv:
    """Random but fully deterministic generation environment."""
    if vocab_size < TOY_CANDIDATES:
        raise InvalidConfig(f"vocab_size must be >= {TOY_CANDIDATES}, the toy candidate count")
    rng = stream(seed, "toy-env")
    params = random_attention(rng, d_i, d_o)
    out = rng.normal(0, 1, (vocab_size, d_o))
    feedback = rng.normal(0, 1, (vocab_size, d_i))
    feedback /= np.linalg.norm(feedback, axis=1, keepdims=True)
    vocab = Vocabulary(out, feedback)
    candidates = rng.choice(vocab_size, size=TOY_CANDIDATES, replace=False)
    target = int(candidates[0])

    return OptimizerEnv(
        params=params,
        instr=rng.normal(0, 1, (4, d_i)),
        leads=rng.normal(0, 1, (2, d_i)),
        vocab=vocab,
        target_id=target,
        candidate_mask=frozenset(int(v) for v in candidates),
    )


def run_generate(cfg: ExperimentConfig) -> list[list]:
    """Free-running generation over a random toy environment."""
    env = make_toy_env(cfg.seed, cfg.d_i, cfg.d_o, cfg.vocab_size)
    rng = stream(cfg.seed, "generate-demo")
    demo_ids = rng.integers(0, cfg.vocab_size, size=cfg.n_d)
    seq = SegmentedSequence.build(env.instr, env.vocab.input_embeddings[demo_ids], env.leads)
    trace = generate(lambda s, pos: exact_attention(env.params, s, pos),
                     seq, cfg.steps, env.vocab, env.candidate_mask)
    return [
        [i + 1, p, t] for i, (p, t) in enumerate(zip(trace.positions, trace.ids))
    ]


OPTIMIZE_HEADER = [
    "iteration", "path", "effect_d", "similarity", "collapse", "perturbed", "demo_id",
]


def optimizer_config(cfg: ExperimentConfig, perturbation: bool, seed: int) -> OptimizerConfig:
    return OptimizerConfig(
        m=cfg.m,
        iterations=cfg.iterations,
        tau_sim=cfg.tau_sim,
        eps_imp=cfg.eps_imp,
        window=cfg.window,
        master_seed=seed,
        perturbation_enabled=perturbation,
        demo_len=cfg.demo_len,
        gen_steps=cfg.steps,
    )


def trace_rows(trace: list[TraceRecord]) -> list[list]:
    return [
        [r.iteration, r.path, r.effect_d, r.similarity, int(r.collapse), int(r.perturbed),
         f"p{r.path}i{r.iteration}"]
        for r in trace
    ]


def run_optimize(cfg: ExperimentConfig) -> list[list]:
    env = make_toy_env(cfg.seed, cfg.d_i, cfg.d_o, cfg.vocab_size)
    trace = run_two_stage(optimizer_config(cfg, cfg.perturbation, cfg.seed), env)
    return trace_rows(trace)


@dataclass
class CollapseSummary:
    sim_with: float
    sim_without: float
    best_with: float
    best_without: float


def collapse_comparison(cfg: ExperimentConfig, n_seeds: int = 20) -> CollapseSummary:
    """Paired with/without-perturbation runs over shared seeds.

    Mean consecutive similarity is taken over records after each run's first
    collapse event; best effectiveness is the per-run maximum.
    """
    sims = {True: [], False: []}
    bests = {True: [], False: []}
    for seed in range(cfg.seed, cfg.seed + n_seeds):
        env = make_toy_env(seed, cfg.d_i, cfg.d_o, cfg.vocab_size)
        table = ScoreTable(env, cfg.steps)  # both runs propose the same ids
        for perturbed in (True, False):
            trace = run_two_stage(optimizer_config(cfg, perturbed, seed), env, table=table)
            first = next((i for i, r in enumerate(trace) if r.collapse), None)
            if first is not None:
                sims[perturbed].append(float(np.mean([r.similarity for r in trace[first:]])))
            bests[perturbed].append(max(r.effect_d for r in trace))
    return CollapseSummary(
        sim_with=float(np.mean(sims[True])) if sims[True] else float("nan"),
        sim_without=float(np.mean(sims[False])) if sims[False] else float("nan"),
        best_with=float(np.mean(bests[True])),
        best_without=float(np.mean(bests[False])),
    )
