"""Policy representation and the decoding losses.

Continuous policies are diagonal Gaussians squashed through tanh (samples
are reparameterized, so gradients flow through them); discrete policies are
categorical over logits.  Decoding minimizes the KL divergence to the
softmax of Q over actions (dropping the policy-independent log-partition
term), optionally plus a behavior-cloning loss with an entropy bonus that
keeps the policy on the data.

The stable tanh log-density correction is
log(1 - tanh(u)^2) = 2 * (log 2 - u - softplus(-2u)).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nets
from .config import TrainConfig
from .envs import _draw
from .errors import InvalidSpec
from .features import _one_hot
from .nets import AdamState, MLPParams

_LOG_2PI = np.log(2.0 * np.pi)
_ATANH_CLIP = 1.0 - 1e-6


@dataclass(eq=False)
class PolicyParams:
    """Policy head: (mean, log-std) for continuous actions, logits for
    discrete ones.  ``action_dim`` is the number of actions when discrete."""

    net: MLPParams
    action_dim: int
    discrete: bool
    log_std_min: float = -5.0
    log_std_max: float = 2.0


def init_policy(
    rng: np.random.Generator,
    state_dim: int,
    action_dim: int,
    hidden: tuple[int, ...],
    discrete: bool,
    densenet: bool = True,
    layernorm: bool = True,
    log_std_bounds: tuple[float, float] = (-5.0, 2.0),
) -> PolicyParams:
    out_dim = action_dim if discrete else 2 * action_dim
    net = nets.init_mlp(rng, state_dim, hidden, out_dim, densenet=densenet, layernorm=layernorm)
    return PolicyParams(
        net=net,
        action_dim=action_dim,
        discrete=discrete,
        log_std_min=log_std_bounds[0],
        log_std_max=log_std_bounds[1],
    )


def _log1m_tanh2(u: np.ndarray) -> np.ndarray:
    return 2.0 * (np.log(2.0) - u - np.logaddexp(0.0, -2.0 * u))


def _heads(policy: PolicyParams, out: np.ndarray):
    """Split raw net output into (mean, log_std, clip_mask)."""
    mean, raw = out[:, : policy.action_dim], out[:, policy.action_dim :]
    log_std = np.clip(raw, policy.log_std_min, policy.log_std_max)
    mask = (raw > policy.log_std_min) & (raw < policy.log_std_max)
    return mean, log_std, mask


def _tanh_gaussian(mean: np.ndarray, log_std: np.ndarray, rng: np.random.Generator, n: int):
    """``n`` samples ``tanh(mean + std * eps)`` per row, shape (N, n, d); returns
    (actions, log_probs with the tanh correction, eps, std)."""
    std = np.exp(log_std)
    eps = rng.standard_normal((mean.shape[0], n, mean.shape[1]))
    u = mean[:, None, :] + std[:, None, :] * eps
    log_probs = (-0.5 * eps**2 - log_std[:, None, :] - 0.5 * _LOG_2PI - _log1m_tanh2(u)).sum(axis=2)
    return np.tanh(u), log_probs, eps, std


def _reparam_grads(du: np.ndarray, std: np.ndarray, eps: np.ndarray, scale: float):
    """(d mean, d log_std) of ``scale`` times a sum over samples, given its
    derivative ``du`` in u = mean + std * eps; the -1 is d log_prob / d log_std."""
    return scale * du.sum(axis=1), scale * (du * std[:, None, :] * eps - 1.0).sum(axis=1)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def sample_actions(policy: PolicyParams, state_feats: np.ndarray, rng: np.random.Generator, n: int):
    """Draw ``n`` actions per state; returns (actions, log_probs).

    Continuous: actions (N, n, action_dim) in (-1, 1) via the tanh squash,
    log_probs including the change-of-variables correction.  Discrete:
    integer actions (N, n)."""
    if n < 1:
        raise InvalidSpec("need at least one sample")
    out, _ = nets.forward(policy.net, state_feats)
    if policy.discrete:
        logp = _log_softmax(out)
        cdf = np.cumsum(np.exp(logp), axis=1)
        actions = _draw(cdf[:, None, :], rng.random((state_feats.shape[0], n)))
        return actions, np.take_along_axis(logp, actions, axis=1)
    mean, log_std, _ = _heads(policy, out)
    return _tanh_gaussian(mean, log_std, rng, n)[:2]


def deterministic_action(policy: PolicyParams, state_feats: np.ndarray):
    """Evaluation-mode action for the first state row: tanh(mean) or the argmax class."""
    out, _ = nets.forward(policy.net, state_feats)
    if policy.discrete:
        return int(np.argmax(out[0]))
    mean, _, _ = _heads(policy, out)
    return np.tanh(mean[0])


def policy_table(policy: PolicyParams, state_feats: np.ndarray) -> np.ndarray:
    """Action distribution per state (discrete policies only)."""
    if not policy.discrete:
        raise InvalidSpec("policy_table needs a discrete policy")
    out, _ = nets.forward(policy.net, state_feats)
    return np.exp(_log_softmax(out))


def kl_boltzmann_loss(
    policy: PolicyParams,
    q_fn,
    state_feats: np.ndarray,
    tau: float,
    n_a: int,
    rng: np.random.Generator,
    *,
    forward=None,
):
    """KL(policy || softmax(Q / tau)) up to the policy-independent constant.

    Discrete actions are enumerated exactly; continuous actions use ``n_a``
    reparameterized samples per state, so the gradient includes the dQ/da
    path.  ``forward``, if given, is the ``nets.forward`` result of the
    policy net on ``state_feats``, so a caller can share it between losses.
    Returns (loss, grads, info), ``grads`` as from ``nets.backward``.
    """
    if tau <= 0:
        raise InvalidSpec("tau must be positive")
    n = state_feats.shape[0]
    out, cache = forward if forward is not None else nets.forward(policy.net, state_feats)

    if policy.discrete:
        na = policy.action_dim
        logp = _log_softmax(out)
        p = np.exp(logp)
        # One call scores every (state, action) pair; no dQ/da, so use ``values`` if offered.
        tiled_states = np.repeat(state_feats, na, axis=0)
        tiled_actions = _one_hot(np.tile(np.arange(na), n), na)
        values = getattr(q_fn, "values", None)
        q_flat = values(tiled_states, tiled_actions) if values else q_fn(tiled_states, tiled_actions)[0]
        q = q_flat.reshape(n, na)
        advantage = logp - q / tau
        loss = float((p * advantage).sum(axis=1).mean())
        # d/d logits of sum_a p_a (logp_a - q_a/tau) = p * (adv - sum_b p_b adv_b)
        dout = p * (advantage - (p * advantage).sum(axis=1, keepdims=True)) / n
        info = {"mean_q": float((p * q).sum(axis=1).mean())}
    else:
        mean, log_std, clip_mask = _heads(policy, out)
        a, log_prob, eps, std = _tanh_gaussian(mean, log_std, rng, n_a)
        flat_states = np.repeat(state_feats, n_a, axis=0)
        q, dq_da = q_fn(flat_states, a.reshape(n * n_a, policy.action_dim))
        q, dq_da = q.reshape(n, n_a), dq_da.reshape(n, n_a, policy.action_dim)
        loss = float((log_prob - q / tau).mean())
        # d log_prob / d u = 2 tanh(u), and da/du = 1 - tanh(u)^2.
        du = 2.0 * a - dq_da * (1.0 - a**2) / tau
        d_mean, d_log_std = _reparam_grads(du, std, eps, 1.0 / (n * n_a))
        dout = np.concatenate([d_mean, d_log_std * clip_mask], axis=1)
        info = {"mean_q": float(q.mean())}
    grads, _ = nets.backward(policy.net, cache, dout)
    return loss, grads, info


def bc_loss(
    policy: PolicyParams,
    state_feats: np.ndarray,
    actions,
    entropy_coeff: float,
    rng: np.random.Generator | None = None,
    n_a: int = 10,
    *,
    forward=None,
):
    """Negative data log-likelihood minus an entropy bonus.

    The entropy of a continuous policy is estimated from ``n_a`` fresh
    samples per state (requires ``rng`` when entropy_coeff > 0); discrete
    entropy is exact.  ``forward`` and the return are as in ``kl_boltzmann_loss``.
    """
    n = state_feats.shape[0]
    out, cache = forward if forward is not None else nets.forward(policy.net, state_feats)

    if policy.discrete:
        idx = np.asarray(actions, dtype=np.int64).reshape(-1)
        logp = _log_softmax(out)
        p = np.exp(logp)
        nll = -float(logp[np.arange(n), idx].mean())
        entropy = -float((p * logp).sum(axis=1).mean())
        dout = (p - _one_hot(idx, policy.action_dim)) / n
        if entropy_coeff > 0:
            # d(-H)/d logits = p * (logp - sum_b p_b logp_b) / n
            d_neg_h = p * (logp - (p * logp).sum(axis=1, keepdims=True)) / n
            dout = dout + entropy_coeff * d_neg_h
    else:
        mean, log_std, clip_mask = _heads(policy, out)
        std = np.exp(log_std)
        u_data = np.arctanh(np.clip(actions, -_ATANH_CLIP, _ATANH_CLIP))
        z = (u_data - mean) / std
        # The tanh correction of the data log-density does not depend on the
        # parameters, but it keeps the reported value an honest log-likelihood.
        logp_data = (-0.5 * z**2 - log_std - 0.5 * _LOG_2PI - _log1m_tanh2(u_data)).sum(axis=1)
        nll = -float(logp_data.mean())
        d_mean = -z / std / n
        d_log_std = -(z**2 - 1.0) / n
        entropy = 0.0
        if entropy_coeff > 0:
            if rng is None:
                raise InvalidSpec("continuous entropy bonus needs an rng")
            tanh_u, samp_logp, eps, _ = _tanh_gaussian(mean, log_std, rng, n_a)
            entropy = -float(samp_logp.mean())
            # loss += -coeff * H = coeff * mean(log prob of fresh samples)
            dh = _reparam_grads(2.0 * tanh_u, std, eps, entropy_coeff / (n * n_a))
            d_mean, d_log_std = d_mean + dh[0], d_log_std + dh[1]
        dout = np.concatenate([d_mean, d_log_std * clip_mask], axis=1)
    loss = nll - entropy_coeff * entropy
    grads, _ = nets.backward(policy.net, cache, dout)
    return loss, grads, {"bc_nll": nll, "entropy": entropy}


def policy_update(
    policy: PolicyParams,
    state_feats: np.ndarray,
    actions,
    q_fn,
    config: TrainConfig,
    adam: AdamState,
    rng: np.random.Generator,
):
    """One Adam step on KL-to-Boltzmann plus the weighted BC loss."""
    # Both losses read the same policy output; ``nets.backward`` leaves the cache intact.
    fwd = nets.forward(policy.net, state_feats)
    kl, grads, info = kl_boltzmann_loss(
        policy,
        q_fn,
        state_feats,
        tau=config.tau_boltzmann,
        n_a=config.n_action_samples,
        rng=rng,
        forward=fwd,
    )
    metrics = {"policy_kl_loss": kl, "mean_q": info["mean_q"], "bc_loss": 0.0}
    if config.lambda_bc > 0:
        bc, bc_grads, _ = bc_loss(
            policy,
            state_feats,
            actions,
            entropy_coeff=config.entropy_coeff,
            rng=rng,
            n_a=config.n_action_samples,
            forward=fwd,
        )
        metrics["bc_loss"] = bc
        grads = nets.map_params(lambda k, b: k + config.lambda_bc * b, grads, bc_grads)
    adam, (net,), grad_norm = nets.adam_update(adam, [policy.net], [grads], config.max_grad_norm)
    metrics["policy_grad_norm"] = grad_norm
    return replace(policy, net=net), adam, metrics
