#!/usr/bin/env python3
"""Offline mountain car from a noisy scripted controller.

Collects episodes from an energy-pumping controller with Gaussian action
noise, trains with the random-feature Q path and no behavior cloning, and
compares the decoded policy's evaluation returns and goal rate against the
data-collection controller.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from occq.config import load_config
from occq.data import generate_dataset
from occq.envs import MountainCarEnv, behavior_policy, rollout
from occq.training import evaluate, train

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def behavior_stats(env, controller, n_episodes, seed):
    rng = np.random.default_rng(seed)
    returns, goals = [], 0
    for _ in range(n_episodes):
        traj = rollout(env, controller, rng, max_len=env.horizon)
        returns.append(traj.rewards.sum())
        goals += int(traj.terminal)
    return float(np.mean(returns)), goals / n_episodes


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=300)
    parser.add_argument("--steps", type=int, default=4000)
    parser.add_argument("--sigma", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    env = MountainCarEnv()
    controller = behavior_policy("scripted_mountain_car", sigma=args.sigma)
    dataset = generate_dataset(env, controller, n_episodes=args.episodes, seed=args.seed)
    lengths = [ep.n_steps for ep in dataset.episodes]
    print(f"dataset: {len(lengths)} episodes, steps min/mean/max = {min(lengths)}/{np.mean(lengths):.0f}/{max(lengths)}")

    overrides = {"epochs": "10", "steps_per_epoch": str(args.steps // 10), "seed": str(args.seed)}
    config = load_config(CONFIGS / "mountain_car.toml", overrides=overrides)
    start = time.time()
    result = train(config, dataset, out_dir=args.out)
    print(f"trained {args.steps} steps in {time.time() - start:.0f}s (faults: {result.fault_count})")

    base_return, base_goal = behavior_stats(env, controller, 50, seed=args.seed + 100)
    stats = evaluate(result.policy, env, n_episodes=50, seed=args.seed + 200)
    print(f"behavior controller: return {base_return:.2f}, goal rate {base_goal:.2f}")
    print(f"decoded policy:      return {stats.return_mean:.2f}, goal rate {stats.goal_rate:.2f}")


if __name__ == "__main__":
    main()
