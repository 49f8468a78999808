#!/usr/bin/env python3
"""Reward-free pretraining transfer study.

Source and target tasks share the gridworld layout but place the goal in
different corners.  The critic is pretrained on reward-stripped source
data, then finetuned on the target task; the comparison against training
from scratch is the number of finetuning steps until the critic's
density-ratio rank agreement first crosses a threshold, repeated over
seeds.
"""

import argparse
from pathlib import Path

import numpy as np

from occq.analysis import ratio_recovery_spearman
from occq.config import load_config
from occq.data import generate_dataset, state_action_frequencies, strip_rewards
from occq.envs import behavior_policy, epsilon_soft_table, make_env
from occq.features import featurizer_for
from occq.oracle import value_iteration
from occq.training import pretrain_then_finetune, train

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def steps_to_threshold(probe_log, threshold):
    for step, rho in probe_log:
        if rho >= threshold:
            return step
    return None


def run_pair(seed, pretrain_steps, finetune_steps, threshold, probe_every):
    source = make_env("gridworld5x5")
    target = make_env("gridworld5x5b")
    src_behavior = behavior_policy("epsilon_soft_tabular", mdp=source, epsilon=0.3)
    tgt_behavior = behavior_policy("epsilon_soft_tabular", mdp=target, epsilon=0.3)
    unlabeled = strip_rewards(generate_dataset(source, src_behavior, n_episodes=300, seed=seed + 1000))
    labeled = generate_dataset(target, tgt_behavior, n_episodes=300, seed=seed + 2000)

    feats = featurizer_for(target.space)
    _, greedy = value_iteration(target)
    btable = epsilon_soft_table(greedy, 0.3)
    weights = state_action_frequencies(labeled, target.n_states, target.n_actions)

    def probe(step, critic, pol, rff):
        return ratio_recovery_spearman(critic, feats, target, btable, weights)[0]

    overrides = {"epochs": "1", "steps_per_epoch": str(finetune_steps), "seed": str(seed)}
    config = load_config(CONFIGS / "grid.toml", overrides=overrides)
    scratch = train(config, labeled, probe=probe, probe_every=probe_every)
    pretrained = pretrain_then_finetune(
        config, unlabeled, labeled, pretrain_steps=pretrain_steps, probe=probe, probe_every=probe_every
    )
    assert unlabeled.reward_reads == 0, "pretraining must not read rewards"
    return (
        steps_to_threshold(scratch.probe_log, threshold),
        steps_to_threshold(pretrained.probe_log, threshold),
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--pretrain-steps", type=int, default=3000)
    parser.add_argument("--finetune-steps", type=int, default=6000)
    parser.add_argument("--threshold", type=float, default=0.75)
    parser.add_argument("--probe-every", type=int, default=250)
    args = parser.parse_args()

    wins = 0
    for seed in range(args.seeds):
        scratch, pretrained = run_pair(
            seed, args.pretrain_steps, args.finetune_steps, args.threshold, args.probe_every
        )
        fmt = lambda s: "never" if s is None else str(s)
        faster = pretrained is not None and (scratch is None or pretrained <= scratch)
        wins += int(faster)
        print(
            f"seed {seed}: steps to rho>={args.threshold}: scratch {fmt(scratch)}, "
            f"pretrained {fmt(pretrained)} {'<- faster' if faster else ''}"
        )
    print(f"pretraining at least as fast in {wins}/{args.seeds} seeds")


if __name__ == "__main__":
    main()
