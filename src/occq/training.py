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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import critic as critic_mod
from . import native, nets, policy as policy_mod, rff as rff_mod
from .checkpoint import load_checkpoint, save_checkpoint
from .config import TrainConfig, config_from_kv, config_hash, config_to_kv, parse_kv
from .critic import CriticParams, critic_update, encode_future, future_encode_rows
from .data import OfflineDataset, sample_batch
from .envs import Env, rollout
from .errors import FormatError, InvalidSpec, NumericalFault, OccqError
from .features import Featurizer, TabularFeaturizer, featurizer_for
from .metrics import MetricsRecord, MetricsWriter
from .nets import AdamState
from .policy import PolicyParams, deterministic_action, policy_update
from .rff import RFFState, make_direct_q_fn, make_rff_q_fn, rff_features, update_reward_features


@dataclass(frozen=True, eq=False)
class RunState:
    """What a run carries from one step to the next.  A step builds a new
    ``RunState`` and the loop commits it with one assignment, so a faulted
    step leaves the previous one in place.  The two generators are shared
    by successive states: their draws are consumed even by a faulted step."""

    critic: CriticParams
    policy: PolicyParams
    rff: RFFState | None
    adam_critic: AdamState
    adam_policy: AdamState
    rng_data: np.random.Generator
    rng_actions: np.random.Generator
    featurizer: Featurizer


@dataclass(frozen=True, eq=False)
class TrainResult(RunState):
    """A run's final ``RunState``, with what the run recorded."""

    metrics: list[MetricsRecord]
    config: TrainConfig
    fault_count: int = 0
    # Rows pushed through the future encoder while the policy was updating;
    # stays at zero on the random-feature path.
    future_rows_in_policy_phase: int = 0
    probe_log: list | None = None


def _init_state(config: TrainConfig, dataset: OfflineDataset) -> RunState:
    if not dataset.rewards_available:
        raise InvalidSpec("full training needs a reward-labeled dataset")
    if config.horizon and config.horizon != dataset.horizon:
        raise InvalidSpec(f"config horizon {config.horizon} does not match dataset horizon {dataset.horizon}")
    if config.use_rff and not (config.l2_normalize and config.tau_nce == 1):
        raise InvalidSpec(
            "use_rff needs l2_normalize and tau_nce = 1: the random features approximate exp(x . y) "
            "only at unit norm and unit temperature"
        )
    native.keep_temporaries_on_heap()
    rng_critic, rng_policy, rng_rff, rng_data, rng_actions = (
        np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(5)
    )
    featurizer = featurizer_for(dataset.space)
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
        action_dim=featurizer.action_dim,
        hidden=config.hidden_sizes,
        discrete=dataset.space.state_kind == "index",
        densenet=config.densenet,
        layernorm=config.layernorm,
        log_std_bounds=(config.log_std_min, config.log_std_max),
    )
    rff_state = None
    if config.use_rff:
        rff_state = rff_mod.init_rff(rng_rff, config.rff_dim, config.latent_dim, config.reward_feature_ema)
    critic_params = nets.param_list(critic.sa_encoder) + nets.param_list(critic.future_encoder)
    return RunState(
        critic=critic,
        policy=pol,
        rff=rff_state,
        adam_critic=nets.init_adam(critic_params, config.learning_rate),
        adam_policy=nets.init_adam(nets.param_list(pol.net), config.learning_rate),
        rng_data=rng_data,
        rng_actions=rng_actions,
        featurizer=featurizer,
    )


def write_training_checkpoint(
    path, config: TrainConfig, dataset: OfflineDataset, state: RunState, step: int, epoch: int
):
    critic, pol, rff_state = state.critic, state.policy, state.rff
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
    """Rebuild the policy (and its metadata) from a checkpoint file.  Contents
    that do not make a config, an action head and a net whose arrays chain
    from its input width to that head raise ``FormatError`` naming ``path``."""
    arrays, meta = load_checkpoint(path)
    try:
        config = config_from_kv(parse_kv(meta["config"].split(";")))
        action_dim, discrete = int(meta["action_dim"]), bool(int(meta["discrete"]))
        net = nets.mlp_from_arrays(arrays, "policy/net", config.densenet, config.layernorm)
        out_dim = action_dim if discrete else 2 * action_dim
        if net.output_dim != out_dim:
            raise FormatError(f"policy net arrays do not chain from {net.input_dim} inputs to {out_dim} outputs")
    except (KeyError, ValueError, IndexError, OccqError) as exc:
        raise FormatError(f"{path}: not a policy checkpoint ({exc})") from None
    pol = PolicyParams(
        net=net,
        action_dim=action_dim,
        discrete=discrete,
        log_std_min=config.log_std_min,
        log_std_max=config.log_std_max,
    )
    return pol, config, meta


def _critic_step(config, dataset, state: RunState, include_rewards: bool):
    """Draw one contrastive batch and take one critic step on it.

    Returns (new state, critic metrics, batch, positive feature rows).
    """
    featurizer = state.featurizer
    batch = sample_batch(dataset, config.gamma, state.rng_data, include_rewards=include_rewards)
    anchor_feats = np.concatenate(
        [featurizer.state_feats(batch.anchor_states), featurizer.action_feats(batch.anchor_actions)], axis=1
    )
    positive_feats = featurizer.state_feats(batch.positives)
    critic, adam_c, metrics = critic_update(
        state.critic, anchor_feats, positive_feats, config, state.adam_critic
    )
    return replace(state, critic=critic, adam_critic=adam_c), metrics, batch, positive_feats


def _train_step(config, dataset, state: RunState):
    """One full step: critic, reward-feature fold, policy.  Returns (new state,
    metrics, future-encoder rows of the policy phase); raises ``NumericalFault``
    without touching ``state``."""
    state, cm, batch, positive_feats = _critic_step(config, dataset, state, include_rewards=True)
    rff_state = state.rff
    if config.use_rff:
        target_emb, _, _ = encode_future(state.critic, positive_feats, target=True)
        rff_state = update_reward_features(
            rff_state, rff_features(rff_state, target_emb), batch.future_rewards
        )
        q_fn = make_rff_q_fn(state.critic, rff_state, config.gamma)
    else:
        q_fn = make_direct_q_fn(state.critic, positive_feats, batch.future_rewards, config.gamma)

    states, actions = batch.anchor_states, batch.anchor_actions
    if config.policy_state_cap and batch.batch_size > config.policy_state_cap:
        pick = state.rng_actions.choice(batch.batch_size, size=config.policy_state_cap, replace=False)
        states, actions = states[pick], actions[pick]
    inverse = None
    if isinstance(state.featurizer, TabularFeaturizer):
        # the policy phase runs once per distinct state, weighted by its count
        states, inverse = np.unique(states, return_inverse=True)
    feats = state.featurizer.state_feats(states)
    rows_before = future_encode_rows()
    pol, adam_p, pm = policy_update(
        state.policy, feats, actions, q_fn, config, state.adam_policy, state.rng_actions, inverse=inverse
    )
    rows = future_encode_rows() - rows_before
    return replace(state, rff=rff_state, policy=pol, adam_policy=adam_p), {**cm, **pm}, rows


def _run(config, dataset, state: RunState, out_dir, probe, probe_every) -> TrainResult:
    out_path = Path(out_dir) if out_dir is not None else None
    writer = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        # the step-0 checkpoint comes first, so a failed write leaves no log file open
        write_training_checkpoint(out_path / "checkpoint_0000.ckpt", config, dataset, state, step=0, epoch=0)
        writer = MetricsWriter(out_path / "metrics.log")

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
                try:
                    state, metrics, rows = _train_step(config, dataset, state)
                    policy_phase_rows += rows
                except NumericalFault:
                    fault_count += 1
                    metrics = {"fault": True}
                record = MetricsRecord(step=step, epoch=epoch, **metrics, wall_time=time.monotonic() - start)
                records.append(record)
                if writer is not None:
                    writer.append(record)
                if record.fault and step >= 100 and fault_count > 0.01 * step:
                    raise NumericalFault(f"aborting: {fault_count} numerical faults in {step} steps (>1%)")
                if probe is not None and probe_every and step % probe_every == 0:
                    probe_log.append((step, probe(step, state.critic, state.policy, state.rff)))
            if out_path is not None:
                ckpt = out_path / f"checkpoint_{epoch + 1:04d}.ckpt"
                write_training_checkpoint(ckpt, config, dataset, state, step=step, epoch=epoch + 1)
    finally:
        if writer is not None:
            writer.close()
    return TrainResult(
        **vars(state),
        metrics=records,
        config=config,
        fault_count=fault_count,
        future_rows_in_policy_phase=policy_phase_rows,
        probe_log=probe_log if probe is not None else None,
    )


def train(
    config: TrainConfig, dataset: OfflineDataset, out_dir=None, probe=None, probe_every: int = 0
) -> TrainResult:
    """Run the full interleaved critic/policy loop over the dataset.

    ``probe``, if given, is called as ``probe(step, critic, policy, rff)``
    every ``probe_every`` steps and its results collected in the result's
    ``probe_log`` (instrumentation only; does not affect training).
    """
    return _run(config, dataset, _init_state(config, dataset), out_dir, probe, probe_every)


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
    labeled data, starting from the phase-1 state."""
    if unlabeled_dataset.space != labeled_dataset.space:
        raise InvalidSpec("pretraining and finetuning datasets use different spaces")
    if pretrain_steps < 0:
        raise InvalidSpec("pretrain_steps must be non-negative")
    # the labeled dataset's rules are checked before the first pretraining step
    state = _init_state(config, labeled_dataset)
    for _ in range(pretrain_steps):
        state, *_ = _critic_step(config, unlabeled_dataset, state, include_rewards=False)
    return _run(config, labeled_dataset, state, out_dir, probe, probe_every)


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
