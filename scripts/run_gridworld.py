#!/usr/bin/env python3
"""Desk-scale gridworld experiment.

Generates an offline dataset from an epsilon-soft behavior policy, trains
the contrastive critic and decodes a policy, then reports how well the
learned model matches the exact oracle: density-ratio rank agreement,
Q-value rank agreement (learned and exact-ratio control), and the
policy-improvement check against the behavior policy.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from occq.analysis import q_topology_report, ratio_recovery_spearman
from occq.config import load_config
from occq.data import generate_dataset, state_action_frequencies
from occq.envs import behavior_policy, epsilon_soft_table, make_env
from occq.features import featurizer_for
from occq.oracle import exact_q, value_iteration
from occq.policy import policy_table
from occq.training import evaluate, train

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=500)
    parser.add_argument("--steps", type=int, default=20_000)
    parser.add_argument("--epsilon", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="optional checkpoint/metrics directory")
    args = parser.parse_args()

    env = make_env("gridworld5x5")
    behavior = behavior_policy("epsilon_soft_tabular", mdp=env, epsilon=args.epsilon)
    dataset = generate_dataset(env, behavior, n_episodes=args.episodes, seed=args.seed)

    overrides = {"epochs": "10", "steps_per_epoch": str(args.steps // 10), "seed": str(args.seed)}
    config = load_config(CONFIGS / "grid.toml", overrides=overrides)
    start = time.time()
    result = train(config, dataset, out_dir=args.out)
    print(f"trained {args.steps} steps in {time.time() - start:.0f}s")

    feats = featurizer_for(env.space)
    _, greedy = value_iteration(env)
    btable = epsilon_soft_table(greedy, args.epsilon)
    weights = state_action_frequencies(dataset, env.n_states, env.n_actions)

    rho, n = ratio_recovery_spearman(result.critic, feats, env, btable, weights)
    print(f"density-ratio rank agreement: {rho:.3f} over {n} triples")

    report = q_topology_report(
        result.critic, feats, dataset, env, btable, config.gamma, np.random.default_rng(args.seed)
    )
    print(f"Q-topology (learned critic):   {report['spearman_learned']:.3f}")
    print(f"Q-topology (exact-ratio ctrl): {report['spearman_exact_ratio']:.3f}")

    table = policy_table(result.policy, feats.state_feats(np.arange(env.n_states)))
    q_decoded = exact_q(env, table)
    q_behavior = exact_q(env, btable)
    slack = 0.05 * (env.reward_range[1] - env.reward_range[0])
    visited = weights > 0
    improved = (q_decoded - q_behavior)[visited] >= -slack
    print(f"policy improvement: {improved.mean() * 100:.1f}% of dataset pairs within slack")

    stats = evaluate(result.policy, env, n_episodes=200, seed=args.seed + 1)
    print(f"decoded-policy return: {stats.return_mean:.3f} +- {stats.return_std:.3f}")


if __name__ == "__main__":
    main()
