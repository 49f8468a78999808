import numpy as np
import pytest

from occq import nets
from occq.config import TrainConfig
from occq.critic import (
    critic_logits,
    critic_update,
    ema_update,
    embedding_backward,
    encode_anchor,
    encode_future,
    infonce_grad,
    infonce_loss,
    init_critic,
    partition_reg,
    partition_reg_grad,
)
from occq.errors import BatchTooSmall, NumericalFault

from conftest import finite_difference, max_rel_error


@pytest.fixture
def small_critic(rng):
    return init_critic(rng, state_dim=5, action_dim=3, hidden=(8, 8), latent_dim=4)


def test_identical_embeddings_constant_matrix(rng):
    critic = init_critic(rng, 5, 3, (8,), 4)
    anchors = np.tile(rng.standard_normal(8), (4, 1))
    positives = np.tile(rng.standard_normal(5), (4, 1))
    logits = critic_logits(critic, anchors, positives)
    assert np.max(np.abs(logits - logits[0, 0])) <= 1e-12


def test_normalized_logits_bounded(small_critic, rng):
    anchors = rng.standard_normal((6, 8))
    positives = rng.standard_normal((6, 5))
    logits = critic_logits(small_critic, anchors, positives)
    bound = 1.0 / small_critic.temperature
    assert np.all(np.abs(logits) <= bound + 1e-12)


def test_logits_match_double_loop(rng):
    critic = init_critic(rng, 5, 3, (8,), 4, l2_normalize_outputs=False, temperature=0.7)
    anchors = rng.standard_normal((5, 8))
    positives = rng.standard_normal((5, 5))
    logits = critic_logits(critic, anchors, positives)
    a_emb, _, _ = encode_anchor(critic, anchors)
    p_emb, _, _ = encode_future(critic, positives)
    for i in range(5):
        for j in range(5):
            manual = sum(a_emb[i, k] * p_emb[j, k] for k in range(4)) / 0.7
            assert abs(logits[i, j] - manual) <= 1e-12


def test_batch_too_small(small_critic, rng):
    with pytest.raises(BatchTooSmall):
        critic_logits(small_critic, rng.standard_normal((1, 8)), rng.standard_normal((1, 5)))


class TestInfoNCE:
    def test_uniform_logits_log_k(self):
        logits = np.full((8, 8), 1.37)
        assert infonce_loss(logits) == pytest.approx(np.log(8.0), abs=1e-10)

    def test_saturated_diagonal(self):
        logits = np.full((6, 6), -20.0)
        np.fill_diagonal(logits, 20.0)
        assert infonce_loss(logits) <= 1e-8

    def test_matches_direct_formula(self, rng):
        logits = rng.standard_normal((4, 4))
        manual = 0.0
        for i in range(4):
            row = logits[i]
            manual += -np.log(np.exp(row[i]) / np.exp(row).sum())
        manual /= 4
        assert infonce_loss(logits) == pytest.approx(manual, abs=1e-10)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericalFault):
            infonce_loss(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_grad_matches_finite_differences(self, rng):
        logits = rng.standard_normal((5, 5))
        fd = finite_difference(lambda arrs: infonce_loss(arrs[0]), [logits.copy()])
        assert max_rel_error([infonce_grad(logits)], fd) <= 1e-4


def test_loss_terms_match_separate_softmaxes(rng):
    # Reference: each term from its own row-wise softmax, as the terms were first written.
    logits = 3.0 * rng.standard_normal((7, 7))
    k = logits.shape[0]

    def softmax_lse(x):
        m = x.max(axis=1, keepdims=True)
        e = np.exp(x - m)
        s = e.sum(axis=1, keepdims=True)
        return e / s, np.log(s[:, 0]) + m[:, 0]

    p, lse = softmax_lse(logits)
    assert infonce_loss(logits) == float(np.mean(lse - np.diag(logits)))
    assert partition_reg(logits) == float(np.mean(lse**2))
    assert np.array_equal(partition_reg_grad(logits), (2.0 / k) * lse[:, None] * p)
    p, _ = softmax_lse(logits)
    p[np.arange(k), np.arange(k)] -= 1.0
    assert np.array_equal(infonce_grad(logits), p / k)


class TestPartitionReg:
    def test_designed_zero(self):
        logits = np.full((4, 4), -np.log(4.0))
        assert partition_reg(logits) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_single_entry(self):
        assert partition_reg(np.array([[0.0]])) == pytest.approx(0.0, abs=1e-12)
        assert partition_reg(np.array([[np.log(2.0)]])) == pytest.approx(np.log(2.0) ** 2, abs=1e-12)

    def test_matches_direct_formula(self, rng):
        logits = rng.standard_normal((5, 5))
        manual = np.mean([np.log(np.exp(row).sum()) ** 2 for row in logits])
        assert partition_reg(logits) == pytest.approx(manual, abs=1e-10)

    def test_grad_matches_finite_differences(self, rng):
        logits = rng.standard_normal((4, 4))
        fd = finite_difference(lambda arrs: partition_reg(arrs[0]), [logits.copy()])
        assert max_rel_error([partition_reg_grad(logits)], fd) <= 1e-4


class TestCriticUpdate:
    def _config(self, **kw):
        defaults = dict(
            hidden_sizes=(8, 8), latent_dim=4, learning_rate=1e-2, lambda_partition=0.0,
            epochs=1, steps_per_epoch=1,
        )
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_overfits_frozen_batch(self, rng):
        critic = init_critic(rng, 5, 3, (8, 8), 4)
        anchors = rng.standard_normal((6, 8))
        positives = rng.standard_normal((6, 5))
        config = self._config()
        adam = nets.init_adam(
            nets.param_list(critic.sa_encoder) + nets.param_list(critic.future_encoder), 1e-2
        )
        first = None
        for i in range(100):
            critic, adam, metrics = critic_update(critic, anchors, positives, config, adam)
            if first is None:
                first = metrics["critic_loss"]
        assert metrics["critic_loss"] < first

    def test_ema_boundaries(self, rng):
        critic = init_critic(rng, 5, 3, (8,), 4)
        anchors = rng.standard_normal((4, 8))
        positives = rng.standard_normal((4, 5))
        adam = nets.init_adam(
            nets.param_list(critic.sa_encoder) + nets.param_list(critic.future_encoder), 1e-3
        )
        beta_one, _, _ = critic_update(critic, anchors, positives, self._config(ema_beta=1.0), adam)
        for a, b in zip(beta_one.future_encoder_target.weights, beta_one.future_encoder.weights):
            assert np.array_equal(a, b)
        beta_zero, _, _ = critic_update(critic, anchors, positives, self._config(ema_beta=0.0), adam)
        for a, b in zip(beta_zero.future_encoder_target.weights, critic.future_encoder_target.weights):
            assert np.array_equal(a, b)

    def test_target_stays_in_past_snapshot_envelope(self, rng):
        critic = init_critic(rng, 5, 3, (8,), 4)
        anchors = rng.standard_normal((4, 8))
        positives = rng.standard_normal((4, 5))
        config = self._config(ema_beta=0.25)
        adam = nets.init_adam(
            nets.param_list(critic.sa_encoder) + nets.param_list(critic.future_encoder), 1e-2
        )
        lows = [w.copy() for w in critic.future_encoder.weights]
        highs = [w.copy() for w in critic.future_encoder.weights]
        for _ in range(20):
            critic, adam, _ = critic_update(critic, anchors, positives, config, adam)
            lows = [np.minimum(lo, w) for lo, w in zip(lows, critic.future_encoder.weights)]
            highs = [np.maximum(hi, w) for hi, w in zip(highs, critic.future_encoder.weights)]
            for t, lo, hi in zip(critic.future_encoder_target.weights, lows, highs):
                assert np.all(t >= lo - 1e-12) and np.all(t <= hi + 1e-12)

    @pytest.mark.parametrize("lambda_partition", [0.0, 0.1])
    def test_matches_the_four_loss_functions(self, rng, lambda_partition):
        # One softmax inside critic_update: the same bits as composing the four public terms.
        critic = init_critic(rng, 5, 3, (8, 8), 4, temperature=0.7)
        anchors = rng.standard_normal((6, 8))
        positives = rng.standard_normal((6, 5))
        config = self._config(lambda_partition=lambda_partition)
        adam = nets.init_adam(
            nets.param_list(critic.sa_encoder) + nets.param_list(critic.future_encoder), 1e-2
        )
        got, got_adam, metrics = critic_update(critic, anchors, positives, config, adam)

        logits = critic_logits(critic, anchors, positives)
        dlogits = infonce_grad(logits)
        if lambda_partition > 0:
            dlogits = dlogits + lambda_partition * partition_reg_grad(logits)
        a_emb, a_raw, a_cache = encode_anchor(critic, anchors)
        p_emb, p_raw, p_cache = encode_future(critic, positives)
        a_grads, _ = embedding_backward(
            critic, critic.sa_encoder, a_raw, a_cache, (dlogits @ p_emb) / 0.7
        )
        p_grads, _ = embedding_backward(
            critic, critic.future_encoder, p_raw, p_cache, (dlogits.T @ a_emb) / 0.7
        )
        grads = nets.grad_list(critic.sa_encoder, a_grads) + nets.grad_list(critic.future_encoder, p_grads)
        arrays = nets.param_list(critic.sa_encoder) + nets.param_list(critic.future_encoder)
        want_adam, want_arrays, want_norm = nets.adam_step(adam, arrays, grads)

        assert metrics["critic_loss"] == infonce_loss(logits)
        assert metrics["partition_reg"] == partition_reg(logits)
        assert metrics["critic_grad_norm"] == want_norm
        assert np.array_equal(got_adam.m, want_adam.m) and np.array_equal(got_adam.v, want_adam.v)
        got_arrays = nets.param_list(got.sa_encoder) + nets.param_list(got.future_encoder)
        assert all(np.array_equal(a, b) for a, b in zip(got_arrays, want_arrays))

    def test_infonce_near_log_k_at_init(self, rng):
        critic = init_critic(rng, 25, 4, (64, 64), 16)
        anchors = np.zeros((32, 29))
        anchors[np.arange(32), rng.integers(0, 25, 32)] = 1.0
        anchors[np.arange(32), 25 + rng.integers(0, 4, 32)] = 1.0
        positives = np.zeros((32, 25))
        positives[np.arange(32), rng.integers(0, 25, 32)] = 1.0
        logits = critic_logits(critic, anchors, positives)
        assert abs(infonce_loss(logits) - np.log(32.0)) <= 0.1


def test_ema_update_convex_combination(rng):
    a = nets.init_mlp(rng, 3, (4,), 2)
    b = nets.init_mlp(rng, 3, (4,), 2)
    mixed = ema_update(a, b, 0.3)
    expect = 0.3 * b.weights[0] + 0.7 * a.weights[0]
    assert np.max(np.abs(mixed.weights[0] - expect)) <= 1e-15
