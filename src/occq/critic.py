"""The implicit occupancy model.

Two encoders score how likely a future state is, given a state-action
anchor: ``sa_encoder`` embeds the anchor, ``future_encoder`` embeds the
candidate future state, and the scaled inner product of the (optionally
L2-normalized) embeddings is the classifier logit.  Training classifies
each anchor's true future state against the other futures in the batch
(InfoNCE with in-batch negatives) plus a squared-log-partition regularizer
that pins the per-row normalization.  A slow EMA copy of the future encoder
serves the Q-estimation side.

Forward passes through the future encoder are counted (``future_encode_rows``)
so the complexity contract of the random-feature Q path can be asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nets
from .config import TrainConfig
from .errors import BatchTooSmall, NumericalFault
from .nets import AdamState, MLPParams

# Rows pushed through the future encoder (either copy) since import.
_FUTURE_ENCODE_ROWS = 0


def future_encode_rows() -> int:
    return _FUTURE_ENCODE_ROWS


@dataclass(eq=False)
class CriticParams:
    """Paired encoders plus the EMA target copy of the future encoder."""

    sa_encoder: MLPParams
    future_encoder: MLPParams
    future_encoder_target: MLPParams
    l2_normalize_outputs: bool = True
    temperature: float = 1.0


def init_critic(
    rng: np.random.Generator,
    state_dim: int,
    action_dim: int,
    hidden: tuple[int, ...],
    latent_dim: int,
    densenet: bool = True,
    layernorm: bool = True,
    l2_normalize_outputs: bool = True,
    temperature: float = 1.0,
) -> CriticParams:
    future = nets.init_mlp(rng, state_dim, hidden, latent_dim, densenet=densenet, layernorm=layernorm)
    return CriticParams(
        sa_encoder=nets.init_mlp(
            rng, state_dim + action_dim, hidden, latent_dim, densenet=densenet, layernorm=layernorm
        ),
        future_encoder=future,
        future_encoder_target=nets.map_params(np.copy, future),
        l2_normalize_outputs=l2_normalize_outputs,
        temperature=temperature,
    )


def encode_anchor(critic: CriticParams, sa_feats: np.ndarray):
    """Embed state-action rows; returns (embedding, raw_output, cache)."""
    raw, cache = nets.forward(critic.sa_encoder, sa_feats)
    emb = nets.l2_normalize(raw) if critic.l2_normalize_outputs else raw
    return emb, raw, cache


def encode_future(critic: CriticParams, state_feats: np.ndarray, target: bool = False):
    """Embed future-state rows; counted for the complexity contract."""
    global _FUTURE_ENCODE_ROWS
    net = critic.future_encoder_target if target else critic.future_encoder
    raw, cache = nets.forward(net, state_feats)
    _FUTURE_ENCODE_ROWS += len(state_feats)
    emb = nets.l2_normalize(raw) if critic.l2_normalize_outputs else raw
    return emb, raw, cache


def pair_logits(critic: CriticParams, anchor_feats: np.ndarray, future_feats: np.ndarray, target: bool = False):
    """Scaled inner products of every anchor with every future state.

    Returns (logits, anchor side, future side); each side is the
    ``(embedding, raw_output, cache)`` triple of its encoder, kept for the
    backward pass.
    """
    anchor = encode_anchor(critic, anchor_feats)
    future = encode_future(critic, future_feats, target=target)
    return (anchor[0] @ future[0].T) / critic.temperature, anchor, future


def embedding_backward(critic: CriticParams, net: MLPParams, raw, cache, d_emb, *, param_grads: bool = True):
    """Push d loss / d embedding back through the output normalization and
    ``net``; returns (grads, input_grad) as ``nets.backward`` does."""
    d_raw = nets.l2_normalize_backward(raw, d_emb) if critic.l2_normalize_outputs else d_emb
    return nets.backward(net, cache, d_raw, param_grads=param_grads)


def _softmax_lse(logits: np.ndarray):
    """Row-wise softmax and log-sum-exp of a logit matrix; a non-finite logit
    raises ``NumericalFault``."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise NumericalFault("non-finite logits")
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    s = e.sum(axis=1, keepdims=True)
    return e / s, np.log(s[:, 0]) + m[:, 0]


def _loss_terms(logits: np.ndarray):
    """InfoNCE loss, partition value and their logit gradients from one
    softmax: (infonce_loss, partition_reg, infonce_grad, partition_reg_grad)."""
    p, lse = _softmax_lse(logits)
    k = p.shape[0]
    loss = float(np.mean(lse - np.diag(logits)))
    reg = float(np.mean(lse**2))
    d_reg = (2.0 / k) * lse[:, None] * p
    p[np.arange(k), np.arange(k)] -= 1.0
    return loss, reg, p / k, d_reg


def infonce_loss(logits: np.ndarray) -> float:
    """Mean over rows of -log softmax(row)[diagonal]."""
    return _loss_terms(logits)[0]


def infonce_grad(logits: np.ndarray) -> np.ndarray:
    """d infonce_loss / d logits."""
    return _loss_terms(logits)[2]


def partition_reg(logits: np.ndarray) -> float:
    """Mean over rows of (log sum_j exp(logit_ij))^2."""
    return _loss_terms(logits)[1]


def partition_reg_grad(logits: np.ndarray) -> np.ndarray:
    return _loss_terms(logits)[3]


def ema_update(target: MLPParams, source: MLPParams, beta: float) -> MLPParams:
    """target <- beta * source + (1 - beta) * target, elementwise."""
    return nets.map_params(lambda t, s: beta * s + (1.0 - beta) * t, target, source)


def critic_update(
    critic: CriticParams,
    anchor_feats: np.ndarray,
    positive_feats: np.ndarray,
    config: TrainConfig,
    adam: AdamState,
):
    """One gradient step on both encoders, then the EMA target refresh.

    The batch needs no rewards, so reward-free pretraining runs through this
    exact code path.  Returns (critic, adam, metrics).  Fewer than two anchors
    raise ``BatchTooSmall`` before anything is encoded; a non-finite logit
    raises ``NumericalFault`` before any array or Adam moment changes.
    """
    if len(anchor_feats) < 2:
        raise BatchTooSmall("need at least two anchors for a contrastive batch")
    logits, (a_emb, a_raw, a_cache), (p_emb, p_raw, p_cache) = pair_logits(critic, anchor_feats, positive_feats)
    loss, reg, dlogits, d_reg = _loss_terms(logits)
    if config.lambda_partition > 0:
        dlogits = dlogits + config.lambda_partition * d_reg

    temp = critic.temperature
    a_grads, _ = embedding_backward(critic, critic.sa_encoder, a_raw, a_cache, (dlogits @ p_emb) / temp)
    p_grads, _ = embedding_backward(critic, critic.future_encoder, p_raw, p_cache, (dlogits.T @ a_emb) / temp)

    adam, (new_sa, new_future), grad_norm = nets.adam_update(
        adam, [critic.sa_encoder, critic.future_encoder], [a_grads, p_grads], config.max_grad_norm
    )
    new_target = ema_update(critic.future_encoder_target, new_future, config.ema_beta)
    new_critic = replace(
        critic, sa_encoder=new_sa, future_encoder=new_future, future_encoder_target=new_target
    )
    metrics = {
        "critic_loss": loss,
        "partition_reg": reg,
        "positive_logit_mean": float(np.mean(np.diag(logits))),
        "critic_grad_norm": grad_norm,
    }
    return new_critic, adam, metrics
