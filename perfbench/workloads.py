"""The benchmark's workloads: inputs from a seed, the config, a quality score.

Each workload is a closed loop of one caller making blocking training
steps.  The dataset is generated here, outside any timed region, and
written to a file; the timed code only ever sees that file.  Run length is fixed
work (a step count derived from ``--seconds`` and a constant nominal rate),
so two commits always run the same steps and their logs can be compared
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config_file: str
    # Constant sizing rate in critic steps per second; it fixes the work of a
    # run and must stay the same on every commit that is compared.
    nominal_steps_per_s: float
    steps_per_epoch: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-direct",
            "gridworld desk config: direct Q, categorical policy, BC; small matrices, "
            "so per-call overhead in nets, critic and policy dominates and rff is bypassed",
            "grid.toml",
            nominal_steps_per_s=80.0,
            steps_per_epoch=100,
        ),
        Workload(
            "mc-rff",
            "mountain-car desk config: RFF Q (rff_dim 512) on 128x10 policy rows; the trig "
            "kernel dominates and the future encoder must see no policy-phase rows",
            "mountain_car.toml",
            nominal_steps_per_s=13.0,
            steps_per_epoch=20,
        ),
    )
}

GRID_EPISODES = 500
MC_EPISODES = 300
EPSILON = 0.3
MC_SIGMA = 0.3
Q_ANCHORS = 256
Q_POOL = 2000


def plan(workload: Workload, seconds: float, repeats: int) -> int:
    """Epochs such that ``repeats`` runs take about ``seconds`` at the
    nominal rate."""
    steps = seconds * workload.nominal_steps_per_s / repeats
    return max(1, round(steps / workload.steps_per_epoch))


def _gridworld():
    from occq.envs import make_gridworld

    return make_gridworld(5, 5, goal_cell=24, slip_prob=0.1, gamma=0.9, horizon=40)


def _seeds(seed: int, n: int):
    return np.random.SeedSequence([seed, 0x0CC9]).spawn(n)


def make_dataset(workload: Workload, seed: int, path: Path) -> Path:
    """Generate the workload's dataset file from the workload seed."""
    from occq import data
    from occq.envs import MountainCarEnv, behavior_policy

    path.parent.mkdir(parents=True, exist_ok=True)
    s_data = _seeds(seed, 1)[0]
    if workload.name == "grid-direct":
        env = _gridworld()
        behavior = behavior_policy("epsilon_soft_tabular", mdp=env, epsilon=EPSILON)
        ds = data.generate_dataset(env, behavior, GRID_EPISODES, seed=s_data)
    else:
        behavior = behavior_policy("scripted_mountain_car", sigma=MC_SIGMA)
        ds = data.generate_dataset(MountainCarEnv(), behavior, MC_EPISODES, seed=s_data)
    data.save(ds, path)
    return path


def make_config(workload: Workload, root: Path, epochs: int):
    """The workload's desk config with the run length overridden.

    The training seed stays the config's own: the workload seed picks the
    dataset and the scoring sample only.  Across training seeds the gridworld ``rank_corr`` after
    a short run varied twice as much as across datasets.
    """
    from occq.config import load_config

    return load_config(
        root / "configs" / workload.config_file,
        overrides={"epochs": str(epochs), "steps_per_epoch": str(workload.steps_per_epoch)},
    )


def quality(workload: Workload, seed: int, result, ds) -> tuple[float, dict]:
    """The run's rank-correlation score, plus diagnostics to print.

    Gridworld: Spearman between exp(learned logits) and the exact density
    ratio.  Mountain car: Spearman between
    ``q_value_rff`` and ``q_value_direct`` on seed-derived anchors and a
    future pool drawn like training batches, which guards precision and
    kernel changes in ``rff``; the kernel-level agreement of
    phi(a) . phi(f) with exp(a . f / temperature) is reported alongside.
    """
    from occq.analysis import future_sample_pool, ratio_recovery_spearman
    from occq.critic import encode_anchor, encode_future
    from occq.data import state_action_frequencies
    from occq.envs import epsilon_soft_table
    from occq.oracle import spearman, value_iteration
    from occq.rff import q_value_direct, q_value_rff, rff_features

    if workload.name == "grid-direct":
        env = _gridworld()
        _, greedy = value_iteration(env)
        weights = state_action_frequencies(ds, env.n_states, env.n_actions)
        rho, n = ratio_recovery_spearman(
            result.critic, result.featurizer, env, epsilon_soft_table(greedy, EPSILON), weights
        )
        return float(rho), {"ratio_triples": n}

    critic, feats, gamma = result.critic, result.featurizer, result.config.gamma
    rng = np.random.default_rng(_seeds(seed, 4)[3])
    states = np.concatenate([ep.states[:-1] for ep in ds.episodes])
    actions = np.concatenate([ep.actions for ep in ds.episodes])
    anchors = rng.choice(len(states), size=Q_ANCHORS, replace=False)
    futures = rng.choice(len(states), size=Q_ANCHORS, replace=False)
    sa = np.concatenate([feats.state_feats(states[anchors]), feats.action_feats(actions[anchors])], axis=1)
    a_emb, _, _ = encode_anchor(critic, sa)
    f_emb, _, _ = encode_future(critic, feats.state_feats(states[futures]), target=True)
    exact = np.exp(a_emb @ f_emb.T / critic.temperature)
    approx = rff_features(result.rff, a_emb) @ rff_features(result.rff, f_emb).T
    pool_states, pool_rewards = future_sample_pool(ds, gamma, rng, Q_POOL)
    q_direct = q_value_direct(critic, sa, feats.state_feats(pool_states), pool_rewards, gamma)
    q_rff = q_value_rff(critic, result.rff, sa, gamma)
    return float(spearman(q_rff, q_direct)), {"kernel_rank_corr": float(spearman(approx.ravel(), exact.ravel()))}
