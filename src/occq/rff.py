"""Q-value estimation from the learned critic.

Two estimators of the same quantity, a reward-weighted average of
exponentiated critic logits over future states, scaled by 1 / (1 - gamma):

* the direct path re-encodes a pool of future states at every query;
* the random-feature path exploits the cosine feature map
  F(x) = sqrt(2e/k) * cos(W x + b), whose inner products approximate
  exp(x . y) for unit vectors in expectation, to split the exponential:
  all future-state work collapses into a single running vector
  (``reward_features``, an EMA of reward-weighted mapped features), after
  which each query is one anchor encoding plus one dot product and never
  touches the future encoder.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, replace

import numpy as np

from .critic import CriticParams, embedding_backward, encode_anchor, pair_logits
from .critic import encode_future  # noqa: F401  (re-exported as occq.rff.encode_future)
from .errors import AccumulatorUninitialized, InvalidSpec, RewardRequired, ShapeError


@dataclass(eq=False)
class RFFState:
    """Fixed random projection plus the reward-weighted feature average.

    ``projection`` (k x d) and ``phase`` (k,) are drawn once and never
    trained.  ``reward_features`` tracks the batch estimates by EMA with
    step ``ema_coeff``; the first batch initializes it directly.
    """

    projection: np.ndarray
    phase: np.ndarray
    reward_features: np.ndarray
    ema_coeff: float
    initialized: bool = False

    @property
    def feature_dim(self) -> int:
        return self.projection.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.projection.shape[1]


def init_rff(rng: np.random.Generator, feature_dim: int, latent_dim: int, ema_coeff: float) -> RFFState:
    if feature_dim < 1 or latent_dim < 1:
        raise InvalidSpec("feature and latent dimensions must be positive")
    if not 0.0 < ema_coeff <= 1.0:
        raise InvalidSpec("ema_coeff must lie in (0, 1]")
    return RFFState(
        projection=rng.standard_normal((feature_dim, latent_dim)),
        phase=rng.uniform(0.0, 2.0 * np.pi, size=feature_dim),
        reward_features=np.zeros(feature_dim),
        ema_coeff=ema_coeff,
        initialized=False,
    )


def _latent_rows(rff: RFFState, z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != rff.latent_dim:
        raise ShapeError(f"latents of shape {z.shape} do not match projection width {rff.latent_dim}")
    return z


def rff_features(rff: RFFState, z: np.ndarray) -> np.ndarray:
    """sqrt(2e/k) * cos(W z + b) for each row of ``z``, shape (n, feature_dim)."""
    return _projected_trig(rff, _latent_rows(rff, z), np.cos, np.sqrt(2.0 * np.e / rff.feature_dim))


def rff_features_backward(rff: RFFState, z: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """Gradient of ``rff_features`` w.r.t. its latent rows."""
    z = _latent_rows(rff, z)
    dout = np.broadcast_to(np.asarray(dout, dtype=np.float64), (len(z), rff.feature_dim))
    return _projected_trig(rff, z, np.sin, -np.sqrt(2.0 * np.e / rff.feature_dim), dout) @ rff.projection


_THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_BLOCK_ELEMS = 65536  # a smaller trig tail (the reward-feature fold, any gridworld array) is not split
_pool = functools.cache(lambda: __import__("concurrent.futures").futures.ThreadPoolExecutor(_THREADS - 1))
if hasattr(os, "register_at_fork"):  # a forked child inherits the pool object but none of its threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _projected_trig(rff: RFFState, rows: np.ndarray, trig, scale: float, dout=None) -> np.ndarray:
    """``trig(rows @ W.T + b) * scale [* dout]``: the matmul runs whole, the elementwise tail in place on
    whole-row blocks, up to one per CPU on a pool started at the first split; any split gives the same bytes."""
    out = rows @ rff.projection.T  # updated in place: at rff_dim columns, a step's largest array
    blocks = max(1, min(_THREADS, len(out), out.size // _BLOCK_ELEMS))
    cuts = [len(out) * i // blocks for i in range(blocks + 1)]
    def tail(lo, hi):
        block = out[lo:hi]
        block += rff.phase
        trig(block, out=block)
        block *= scale
        if dout is not None:
            block *= dout[lo:hi]

    futures = [_pool().submit(tail, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
    try:
        tail(0, cuts[1])
    finally:
        for future in futures:
            future.exception()  # waits: no block may still be writing when the caller resumes
    for future in futures:
        future.result()
    return out


def update_reward_features(rff: RFFState, future_feats: np.ndarray, future_rewards: np.ndarray) -> RFFState:
    """Fold one batch of reward-weighted, feature-mapped future states into
    the running average."""
    if future_rewards is None:
        raise RewardRequired("reward-free batch cannot update the reward-feature average")
    r = np.asarray(future_rewards, dtype=np.float64).reshape(-1)
    if future_feats.ndim != 2 or future_feats.shape[1] != rff.feature_dim:
        raise ShapeError(f"feature width does not match the projection: rows of shape {future_feats.shape}, "
                         f"{rff.feature_dim} features")
    if future_feats.shape[0] != len(r):
        raise ShapeError("one reward per future feature row required")
    batch_estimate = (future_feats * r[:, None]).mean(axis=0)
    if not rff.initialized:
        new = batch_estimate
    else:
        new = (1.0 - rff.ema_coeff) * rff.reward_features + rff.ema_coeff * batch_estimate
    return replace(rff, reward_features=new, initialized=True)


def q_weighted(exp_logits: np.ndarray, rewards: np.ndarray, gamma: float):
    """Core estimator: reward-weighted average of exponentiated logits
    over future samples, scaled by 1 / (1 - gamma).

    ``exp_logits`` has one row per query and one column per future sample.
    The samples come from the offset sampler, which already applies the
    gamma-weighting, so a plain mean applies.
    """
    r = _rewards(rewards)
    if exp_logits.shape[1] != len(r):
        raise InvalidSpec("one reward per future sample required")
    return exp_logits @ r / (len(r) * (1.0 - gamma))


def _rewards(rewards) -> np.ndarray:
    r = np.asarray(rewards, dtype=np.float64).reshape(-1)
    if len(r) == 0:
        raise InvalidSpec("need at least one future sample")
    return r


# A Q head maps anchor features to (q, anchor side, dq/d anchor embedding);
# the gradient is returned as a thunk so plain Q queries never pay for it.


def _direct_head(critic: CriticParams, future_state_feats, future_rewards, gamma: float):
    if future_rewards is None:
        raise RewardRequired("direct Q estimation needs future rewards")
    r = _rewards(future_rewards)

    def head(sa_feats):
        logits, anchor, future = pair_logits(critic, sa_feats, future_state_feats, target=True)
        expl = np.exp(logits)

        def d_emb():
            # sum_i r_i exp(logit_i) f_i / (n (1-gamma) temperature)
            return (expl * r) @ future[0] / (len(r) * (1.0 - gamma) * critic.temperature)

        return q_weighted(expl, r, gamma), anchor, d_emb

    return head


def _rff_head(critic: CriticParams, rff: RFFState, gamma: float):
    if not rff.initialized:
        raise AccumulatorUninitialized("no reward-labeled batch folded in yet")

    def head(sa_feats):
        anchor = encode_anchor(critic, sa_feats)
        emb = anchor[0]
        q = rff_features(rff, emb) @ rff.reward_features / (1.0 - gamma)
        return q, anchor, lambda: rff_features_backward(rff, emb, rff.reward_features) / (1.0 - gamma)

    return head


def _q_fn(critic: CriticParams, head):
    """Q function for policy decoding: (state_feats, action_feats) ->
    (q, dq/d action_feats); its ``values`` attribute returns q alone,
    skipping the backward pass."""

    def q_fn(state_feats: np.ndarray, action_feats: np.ndarray):
        q, (_, raw, cache), d_emb = head(np.concatenate([state_feats, action_feats], axis=1))
        _, d_in = embedding_backward(critic, critic.sa_encoder, raw, cache, d_emb(), param_grads=False)
        return q, d_in[:, state_feats.shape[1] :]

    q_fn.values = lambda s, a: head(np.concatenate([s, a], axis=1))[0]
    return q_fn


def q_value_direct(
    critic: CriticParams,
    sa_feats: np.ndarray,
    future_state_feats: np.ndarray,
    future_rewards: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """Monte-Carlo Q estimate against a pool of future states.

    Encodes the pool through the target future encoder at every call, which
    is exactly the cost the random-feature path amortizes away.
    """
    return _direct_head(critic, future_state_feats, future_rewards, gamma)(sa_feats)[0]


def q_value_rff(critic: CriticParams, rff: RFFState, sa_feats: np.ndarray, gamma: float) -> np.ndarray:
    """Linearized Q estimate: feature-mapped anchor dotted with the reward
    feature average; no future-encoder work at call time."""
    return _rff_head(critic, rff, gamma)(sa_feats)[0]


def make_rff_q_fn(critic: CriticParams, rff: RFFState, gamma: float):
    """Random-feature Q function for policy decoding."""
    return _q_fn(critic, _rff_head(critic, rff, gamma))


def make_direct_q_fn(
    critic: CriticParams,
    future_state_feats: np.ndarray,
    future_rewards: np.ndarray,
    gamma: float,
):
    """Direct-path Q function; re-encodes the future pool on every call."""
    return _q_fn(critic, _direct_head(critic, future_state_feats, future_rewards, gamma))
