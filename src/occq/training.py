"""The training loop, pretrain-then-finetune workflow, and evaluation.

Per step: sample a contrastive batch, update the critic (gradient step plus
EMA target refresh), fold the batch's reward-weighted future features into
the running average, build the step's Q function (random-feature path by
default, direct re-encoding path otherwise), and update the policy against
it.  A checkpoint is written per epoch and one metrics record per step.

Randomness is split into independent streams (critic init, policy init,
random features, batch sampling, policy sampling) so toggling the
random-feature path changes only Q evaluation: critic training consumes
exactly the same draws either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import critic as critic_mod
from . import nets, policy as policy_mod, rff as rff_mod
from .checkpoint import load_checkpoint, save_checkpoint
from .config import TrainConfig, config_hash, config_to_kv
from .critic import CriticParams, critic_update, encode_future, future_encode_rows
from .data import OfflineDataset, sample_batch
from .envs import Env, rollout
from .errors import InvalidSpec, NumericalFault
from .features import Featurizer, featurizer_for
from .metrics import MetricsRecord, MetricsWriter
from .nets import AdamState
from .policy import PolicyParams, deterministic_action, policy_update
from .rff import RFFState, make_direct_q_fn, make_rff_q_fn, rff_features, update_reward_features


@dataclass(eq=False)
class TrainResult:
    critic: CriticParams
    policy: PolicyParams
    rff: RFFState | None
    metrics: list[MetricsRecord]
    featurizer: Featurizer
    config: TrainConfig
    fault_count: int = 0
    # Rows pushed through the future encoder while the policy was updating;
    # stays at zero on the random-feature path.
    future_rows_in_policy_phase: int = 0
    probe_log: list | None = None


def _init_models(config: TrainConfig, dataset: OfflineDataset):
    ss = np.random.SeedSequence(config.seed)
    seeds = ss.spawn(5)
    rng_critic = np.random.default_rng(seeds[0])
    rng_policy = np.random.default_rng(seeds[1])
    rng_rff = np.random.default_rng(seeds[2])
    rng_data = np.random.default_rng(seeds[3])
    rng_actions = np.random.default_rng(seeds[4])

    featurizer = featurizer_for(dataset.space)
    discrete = dataset.space.action_kind == "index"
    critic = critic_mod.init_critic(
        rng_critic,
        state_dim=featurizer.state_dim,
        action_dim=featurizer.action_dim,
        hidden=config.hidden_sizes,
        latent_dim=config.latent_dim,
        densenet=config.densenet,
        layernorm=config.layernorm,
        l2_normalize_outputs=config.l2_normalize,
        temperature=config.tau_nce,
    )
    pol = policy_mod.init_policy(
        rng_policy,
        state_dim=featurizer.state_dim,
        action_dim=(dataset.space.n_actions if discrete else dataset.space.action_dim),
        hidden=config.hidden_sizes,
        discrete=discrete,
        densenet=config.densenet,
        layernorm=config.layernorm,
        log_std_bounds=(config.log_std_min, config.log_std_max),
    )
    rff_state = None
    if config.use_rff:
        rff_state = rff_mod.init_rff(rng_rff, config.rff_dim, config.latent_dim, config.reward_feature_ema)
    adam_c = nets.init_adam(
        nets.param_list(critic.sa_encoder) + nets.param_list(critic.future_encoder), config.learning_rate
    )
    adam_p = nets.init_adam(nets.param_list(pol.net), config.learning_rate)
    return critic, pol, rff_state, adam_c, adam_p, featurizer, rng_data, rng_actions


def write_training_checkpoint(
    path,
    config: TrainConfig,
    dataset: OfflineDataset,
    critic: CriticParams,
    pol: PolicyParams,
    rff_state: RFFState | None,
    step: int,
    epoch: int,
):
    arrays = {
        **nets.mlp_to_arrays("critic/sa_encoder", critic.sa_encoder),
        **nets.mlp_to_arrays("critic/future_encoder", critic.future_encoder),
        **nets.mlp_to_arrays("critic/future_encoder_target", critic.future_encoder_target),
        **nets.mlp_to_arrays("policy/net", pol.net),
    }
    if rff_state is not None:
        arrays["rff/projection"] = rff_state.projection
        arrays["rff/phase"] = rff_state.phase
        arrays["rff/reward_features"] = rff_state.reward_features
    meta = {
        "config_hash": config_hash(config),
        "config": ";".join(f"{k}={v}" for k, v in sorted(config_to_kv(config).items())),
        "env_id": dataset.env_id,
        "step": str(step),
        "epoch": str(epoch),
        "discrete": str(int(pol.discrete)),
        "action_dim": str(pol.action_dim),
        "rff_initialized": str(int(bool(rff_state and rff_state.initialized))),
        "rff_ema_coeff": repr(rff_state.ema_coeff) if rff_state is not None else "",
    }
    save_checkpoint(path, arrays, meta)


def load_policy_checkpoint(path):
    """Rebuild the policy (and its metadata) from a checkpoint file."""
    from .config import config_from_kv

    arrays, meta = load_checkpoint(path)
    kv = dict(item.split("=", 1) for item in meta["config"].split(";") if item)
    config = config_from_kv(kv)
    net = nets.mlp_from_arrays(arrays, "policy/net", config.densenet, config.layernorm)
    pol = PolicyParams(
        net=net,
        action_dim=int(meta["action_dim"]),
        discrete=bool(int(meta["discrete"])),
        log_std_min=config.log_std_min,
        log_std_max=config.log_std_max,
    )
    return pol, config, meta


def _critic_step(config, dataset, featurizer, rng_data, critic, adam_c, include_rewards: bool):
    """Draw one contrastive batch and take one critic step on it.

    Returns (critic, adam_c, critic metrics, batch, positive feature rows).
    """
    batch = sample_batch(dataset, config.gamma, rng_data, include_rewards=include_rewards)
    anchor_feats = np.concatenate(
        [featurizer.state_feats(batch.anchor_states), featurizer.action_feats(batch.anchor_actions)], axis=1
    )
    positive_feats = featurizer.state_feats(batch.positives)
    critic, adam_c, metrics = critic_update(critic, anchor_feats, positive_feats, config, adam_c)
    return critic, adam_c, metrics, batch, positive_feats


def train(
    config: TrainConfig,
    dataset: OfflineDataset,
    out_dir=None,
    probe=None,
    probe_every: int = 0,
    _phase1_state=None,
) -> TrainResult:
    """Run the full interleaved critic/policy loop over the dataset.

    ``probe``, if given, is called as ``probe(step, critic, policy, rff)``
    every ``probe_every`` steps and its results collected in the result's
    ``probe_log`` (instrumentation only; does not affect training).
    """
    if not dataset.rewards_available:
        raise InvalidSpec("full training needs a reward-labeled dataset")
    if config.horizon and config.horizon != dataset.horizon:
        raise InvalidSpec(
            f"config horizon {config.horizon} does not match dataset horizon {dataset.horizon}"
        )
    if _phase1_state is None:
        critic, pol, rff_state, adam_c, adam_p, featurizer, rng_data, rng_actions = _init_models(
            config, dataset
        )
    else:
        critic, pol, rff_state, adam_c, adam_p, featurizer, rng_data, rng_actions = _phase1_state

    out_path = Path(out_dir) if out_dir is not None else None
    writer = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        writer = MetricsWriter(out_path / "metrics.log")
        write_training_checkpoint(
            out_path / "checkpoint_0000.ckpt", config, dataset, critic, pol, rff_state, step=0, epoch=0
        )

    records: list[MetricsRecord] = []
    probe_log = []
    fault_count = 0
    policy_phase_rows = 0
    step = 0
    start = time.monotonic()
    try:
        for epoch in range(config.epochs):
            for _ in range(config.steps_per_epoch):
                step += 1
                # The step works on locals and commits them only when both phases succeed,
                # so a fault leaves every model and optimizer state as it was.
                try:
                    new_critic, new_adam_c, cm, batch, positive_feats = _critic_step(
                        config, dataset, featurizer, rng_data, critic, adam_c, include_rewards=True
                    )
                    new_rff = rff_state
                    if config.use_rff:
                        target_emb, _, _ = encode_future(new_critic, positive_feats, target=True)
                        new_rff = update_reward_features(
                            rff_state, rff_features(rff_state, target_emb), batch.future_rewards
                        )
                        q_fn = make_rff_q_fn(new_critic, new_rff, config.gamma)
                    else:
                        q_fn = make_direct_q_fn(
                            new_critic, positive_feats, batch.future_rewards, config.gamma
                        )

                    states = batch.anchor_states
                    actions = batch.anchor_actions
                    if config.policy_state_cap and batch.batch_size > config.policy_state_cap:
                        pick = rng_actions.choice(batch.batch_size, size=config.policy_state_cap, replace=False)
                        states = states[pick]
                        actions = actions[pick]
                    rows_before = future_encode_rows()
                    new_pol, new_adam_p, pm = policy_update(
                        pol, featurizer.state_feats(states), actions, q_fn, config, adam_p, rng_actions
                    )
                    policy_phase_rows += future_encode_rows() - rows_before
                    critic, adam_c, rff_state = new_critic, new_adam_c, new_rff
                    pol, adam_p = new_pol, new_adam_p
                    record = MetricsRecord(step=step, epoch=epoch, **cm, **pm, wall_time=time.monotonic() - start)
                except NumericalFault:
                    fault_count += 1
                    record = MetricsRecord(step=step, epoch=epoch, fault=True)
                    if step >= 100 and fault_count > 0.01 * step:
                        if writer is not None:
                            writer.append(record)
                        raise NumericalFault(
                            f"aborting: {fault_count} numerical faults in {step} steps (>1%)"
                        )
                records.append(record)
                if writer is not None:
                    writer.append(record)
                if probe is not None and probe_every and step % probe_every == 0:
                    probe_log.append((step, probe(step, critic, pol, rff_state)))
            if out_path is not None:
                write_training_checkpoint(
                    out_path / f"checkpoint_{epoch + 1:04d}.ckpt",
                    config,
                    dataset,
                    critic,
                    pol,
                    rff_state,
                    step=step,
                    epoch=epoch + 1,
                )
    finally:
        if writer is not None:
            writer.close()
    return TrainResult(
        critic=critic,
        policy=pol,
        rff=rff_state,
        metrics=records,
        featurizer=featurizer,
        config=config,
        fault_count=fault_count,
        future_rows_in_policy_phase=policy_phase_rows,
        probe_log=probe_log if probe is not None else None,
    )


def pretrain_critic(
    config: TrainConfig,
    dataset: OfflineDataset,
    steps: int,
    state=None,
):
    """Critic-only training; works on reward-free data.

    Returns the internal state tuple accepted by ``train`` so a finetune
    phase can pick up the pretrained critic.
    """
    if state is None:
        state = _init_models(config, dataset)
    critic, pol, rff_state, adam_c, adam_p, featurizer, rng_data, rng_actions = state
    for _ in range(steps):
        critic, adam_c, *_ = _critic_step(
            config, dataset, featurizer, rng_data, critic, adam_c, include_rewards=False
        )
    return critic, pol, rff_state, adam_c, adam_p, featurizer, rng_data, rng_actions


def pretrain_then_finetune(
    config: TrainConfig,
    unlabeled_dataset: OfflineDataset,
    labeled_dataset: OfflineDataset,
    pretrain_steps: int,
    out_dir=None,
    probe=None,
    probe_every: int = 0,
) -> TrainResult:
    """Phase 1: critic-only updates on the unlabeled data (no rewards read,
    no policy, no reward-feature tracking).  Phase 2: the full loop on the
    labeled data, starting from the phase-1 critic and optimizer state."""
    if unlabeled_dataset.space != labeled_dataset.space:
        raise InvalidSpec("pretraining and finetuning datasets use different spaces")
    state = _init_models(config, unlabeled_dataset)
    state = pretrain_critic(config, unlabeled_dataset, pretrain_steps, state=state)
    return train(
        config,
        labeled_dataset,
        out_dir=out_dir,
        probe=probe,
        probe_every=probe_every,
        _phase1_state=state,
    )


@dataclass(frozen=True)
class EvalStats:
    return_mean: float
    return_std: float
    n_episodes: int
    goal_rate: float  # fraction of episodes that terminated early (reached a goal)


def evaluate(pol: PolicyParams, env: Env, n_episodes: int, seed: int) -> EvalStats:
    """Deterministic-action rollouts; undiscounted return mean and std."""
    if n_episodes < 1:
        raise InvalidSpec("need at least one evaluation episode")
    featurizer = featurizer_for(env.space)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    returns = np.empty(n_episodes)
    goals = 0

    def act(state, _rng):
        feats = featurizer.state_feats(state)
        return deterministic_action(pol, feats)

    for i in range(n_episodes):
        traj = rollout(env, act, rng, max_len=env.horizon)
        returns[i] = float(traj.rewards.sum())
        goals += int(traj.terminal)
    return EvalStats(
        return_mean=float(returns.mean()),
        return_std=float(returns.std()),
        n_episodes=n_episodes,
        goal_rate=goals / n_episodes,
    )
