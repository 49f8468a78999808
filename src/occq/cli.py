"""Command-line surface.

Subcommands: gen-data, train, pretrain, eval, inspect, export-plot.
Exit codes: 0 success, 1 operational failure (bad file, bad spec),
2 usage errors (argparse).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import data
from .config import load_config, parse_kv
from .envs import ENV_REGISTRY, MountainCarEnv, TabularMDP, behavior_policy, make_env
from .errors import FormatError, OccqError
from .features import featurizer_for
from .fileio import replacing
from .metrics import export_plot_data, load_metrics
from .training import evaluate, load_policy_checkpoint, pretrain_then_finetune, train


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="occq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="roll out a behavior policy into a dataset file")
    p.add_argument("--env", required=True, help=f"registry name ({', '.join(ENV_REGISTRY)}) or env spec file")
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--behavior",
        default="auto",
        choices=["auto", "uniform", "epsilon-soft", "scripted"],
        help="auto = epsilon-soft for tabular envs, scripted for mountain car",
    )
    p.add_argument("--epsilon", type=float, default=0.3, help="epsilon-soft mixing rate")
    p.add_argument("--sigma", type=float, default=0.3, help="scripted-controller noise")

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", required=True, help="flat key-value config file")
    run.add_argument("--out", required=True)
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override any config key")

    p = sub.add_parser("train", parents=[run], help="train on a dataset")
    p.add_argument("--data", required=True)

    p = sub.add_parser("pretrain", parents=[run], help="critic-only pretraining, then full finetuning")
    p.add_argument("--unlabeled", required=True, help="dataset for the reward-free phase")
    p.add_argument("--labeled", required=True, help="dataset for the finetuning phase")
    p.add_argument("--pretrain-steps", type=int, required=True)

    p = sub.add_parser("eval", help="roll out a checkpointed policy")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--env", required=True)
    p.add_argument("--episodes", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("inspect", help="summarize a dataset file")
    p.add_argument("--data", required=True)

    p = sub.add_parser("export-plot", help="dump metrics as delimiter-separated values")
    p.add_argument("--metrics", required=True)
    p.add_argument("--fields", default="critic_loss", help="comma-separated metric names")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.add_argument("--delimiter", default=",")
    return parser


def _overrides(args) -> dict[str, str]:
    kv = parse_kv(args.set)
    if args.seed is not None:
        kv["seed"] = str(args.seed)
    return kv


def _make_behavior(args, env):
    kind = args.behavior
    if kind == "auto":
        kind = "epsilon-soft" if isinstance(env, TabularMDP) else "scripted"
    if kind == "uniform":
        return behavior_policy("uniform_random", env=env)
    if kind == "epsilon-soft":
        return behavior_policy("epsilon_soft_tabular", mdp=env, epsilon=args.epsilon)
    if not isinstance(env, MountainCarEnv):
        raise OccqError("the scripted controller only drives mountain car")
    return behavior_policy("scripted_mountain_car", sigma=args.sigma)


def cli(argv=None) -> int:
    """Run one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (OccqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "gen-data":
        env = make_env(args.env)
        behavior = _make_behavior(args, env)
        dataset = data.generate_dataset(env, behavior, n_episodes=args.episodes, seed=args.seed)
        data.save(dataset, args.out)
        print(f"wrote {dataset.n_episodes} episodes to {args.out}")
        return 0

    if args.command == "train":
        config = load_config(args.config, overrides=_overrides(args))
        dataset = data.load(args.data)
        result = train(config, dataset, out_dir=args.out)
        last = result.metrics[-1] if result.metrics else None
        loss = f"{last.critic_loss:.4f}" if last else "n/a"
        print(f"trained {len(result.metrics)} steps; final critic loss {loss}; outputs in {args.out}")
        return 0

    if args.command == "pretrain":
        config = load_config(args.config, overrides=_overrides(args))
        unlabeled = data.load(args.unlabeled)
        labeled = data.load(args.labeled)
        result = pretrain_then_finetune(
            config, unlabeled, labeled, pretrain_steps=args.pretrain_steps, out_dir=args.out
        )
        print(
            f"pretrained {args.pretrain_steps} critic steps "
            f"(reward reads during pretraining: {unlabeled.reward_reads}); "
            f"finetuned {len(result.metrics)} steps; outputs in {args.out}"
        )
        return 0

    if args.command == "eval":
        pol, _, meta = load_policy_checkpoint(args.checkpoint)
        env = make_env(args.env)
        if meta.get("env_id") != env.env_id:
            raise OccqError(
                f"checkpoint was trained on {meta.get('env_id')!r}, not {env.env_id!r}"
            )
        state_dim = featurizer_for(env.space).state_dim
        if pol.net.input_dim != state_dim:
            raise FormatError(
                f"{args.checkpoint}: policy net takes {pol.net.input_dim} inputs, "
                f"but {env.env_id} states have {state_dim} features"
            )
        stats = evaluate(pol, env, n_episodes=args.episodes, seed=args.seed)
        print(
            f"episodes={stats.n_episodes} return_mean={stats.return_mean:.4f} "
            f"return_std={stats.return_std:.4f} goal_rate={stats.goal_rate:.2f}"
        )
        return 0

    if args.command == "inspect":
        dataset = data.load(args.data)
        print(f"env_id: {dataset.env_id}")
        print(f"episodes: {dataset.n_episodes}")
        print(f"rewards_available: {str(dataset.rewards_available).lower()}")
        print(f"behavior: {dataset.behavior_descriptor}")
        print(f"gamma: {dataset.gamma}  horizon: {dataset.horizon}")
        if not dataset.n_episodes:
            return 0
        lengths = np.array([ep.n_steps for ep in dataset.episodes])
        print(f"steps: min={lengths.min()} mean={lengths.mean():.1f} max={lengths.max()}")
        if dataset.rewards_available:
            returns = np.array([ep.rewards.sum() for ep in dataset.episodes])
            print(f"returns: mean={returns.mean():.3f} std={returns.std():.3f}")
        return 0

    # export-plot, the last of the six commands argparse admits
    records, dropped = load_metrics(args.metrics)
    fields = [f.strip() for f in args.fields.split(",") if f.strip()]
    text = export_plot_data(records, fields, delimiter=args.delimiter)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with replacing(args.out) as fh:
            fh.write(text.encode("utf-8"))
    if dropped:
        print(f"note: dropped {dropped} partial trailing record(s)", file=sys.stderr)
    return 0


def entry():
    sys.exit(cli())


if __name__ == "__main__":
    entry()
