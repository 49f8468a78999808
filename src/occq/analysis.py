"""Diagnostics that compare learned quantities against the exact oracles.

These back the built-in tabular reports: how well the exponentiated critic
logits track the true conditional-over-marginal density ratio, and how well
the estimated Q values preserve the ranking of the exact ones.
"""

from __future__ import annotations

import numpy as np

from .critic import CriticParams, pair_logits
from .data import OfflineDataset, sample_batch, state_action_frequencies
from .envs import TabularMDP
from .errors import InvalidSpec
from .features import TabularFeaturizer
from .oracle import RatioTable, exact_q, exact_ratio, spearman
from .rff import q_value_direct, q_weighted


def all_pair_feats(featurizer: TabularFeaturizer):
    """Feature rows for every (state, action) pair, ordered s-major."""
    n_s, n_a = featurizer.n_states, featurizer.n_actions
    states = np.repeat(np.arange(n_s), n_a)
    actions = np.tile(np.arange(n_a), n_s)
    feats = np.concatenate([featurizer.state_feats(states), featurizer.action_feats(actions)], axis=1)
    return states, actions, feats


def learned_logit_table(critic: CriticParams, featurizer: TabularFeaturizer) -> np.ndarray:
    """(S, A, S) table of critic logits for every anchor/future combination,
    using the EMA target copy of the future encoder."""
    states, actions, anchor_feats = all_pair_feats(featurizer)
    futures = featurizer.state_feats(np.arange(featurizer.n_states))
    logits, _, _ = pair_logits(critic, anchor_feats, futures, target=True)
    return logits.reshape(featurizer.n_states, featurizer.n_actions, featurizer.n_states)


def ratio_recovery_spearman(
    critic: CriticParams,
    featurizer: TabularFeaturizer,
    mdp: TabularMDP,
    behavior_table: np.ndarray,
    anchor_weights: np.ndarray,
) -> tuple[float, int]:
    """Rank agreement between exp(learned logits) and the exact density
    ratio over supported triples (dataset-visited anchors, reachable
    futures).  Returns (rho, number of triples compared)."""
    table = exact_ratio(mdp, behavior_table, anchor_weights)
    logits = learned_logit_table(critic, featurizer)
    visited = anchor_weights > 0
    mask = visited[:, :, None] & table.supported[None, None, :]
    rho = spearman(np.exp(logits[mask]), table.ratio[mask])
    return rho, int(mask.sum())


def future_sample_pool(dataset: OfflineDataset, gamma: float, rng: np.random.Generator, n_min: int):
    """Future states and their rewards drawn exactly like training batches,
    until at least ``n_min`` samples are collected."""
    states, rewards = [], []
    total = 0
    while total < n_min:
        batch = sample_batch(dataset, gamma, rng, include_rewards=True)
        states.append(batch.positives)
        rewards.append(batch.future_rewards)
        total += batch.batch_size
    return np.concatenate(states), np.concatenate(rewards)


def q_topology_report(
    critic: CriticParams,
    featurizer: TabularFeaturizer,
    dataset: OfflineDataset,
    mdp: TabularMDP,
    behavior_table: np.ndarray,
    gamma: float,
    rng: np.random.Generator,
    n_future_samples: int = 20_000,
) -> dict:
    """Spearman rank agreement of estimated Q against the exact Q over the
    dataset's (s, a) pairs.

    Two estimates share one future-sample pool: the learned-critic one
    (purely dataset + critic) and a control that substitutes the exact
    density ratio for the critic, which isolates estimator error from
    critic error.
    """
    if dataset.space.state_kind != "index":
        raise InvalidSpec("topology report needs a tabular dataset")
    weights = state_action_frequencies(dataset, mdp.n_states, mdp.n_actions)
    visited = weights > 0
    pool_states, pool_rewards = future_sample_pool(dataset, gamma, rng, n_future_samples)

    states, actions, anchor_feats = all_pair_feats(featurizer)
    keep = visited[states, actions]
    anchor_feats = anchor_feats[keep]
    kept_states, kept_actions = states[keep], actions[keep]

    q_learned = q_value_direct(critic, anchor_feats, featurizer.state_feats(pool_states), pool_rewards, gamma)

    table: RatioTable = exact_ratio(mdp, behavior_table, weights)
    ratio_cols = table.ratio[kept_states, kept_actions][:, pool_states]
    ratio_cols = np.nan_to_num(ratio_cols, nan=0.0)  # unsupported futures carry no weight
    q_control = q_weighted(ratio_cols, pool_rewards, gamma)

    q_true = exact_q(mdp, behavior_table)[kept_states, kept_actions]
    return {
        "spearman_learned": spearman(q_learned, q_true),
        "spearman_exact_ratio": spearman(q_control, q_true),
        "n_pairs": int(keep.sum()),
        "n_future_samples": len(pool_rewards),
        "q_learned": q_learned,
        "q_control": q_control,
        "q_true": q_true,
        "pairs": (kept_states, kept_actions),
    }
