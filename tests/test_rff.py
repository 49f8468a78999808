import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from occq import critic as critic_mod
from occq import rff as rff_mod
from occq.critic import encode_anchor, encode_future, init_critic
from occq.errors import AccumulatorUninitialized, InvalidSpec, RewardRequired, ShapeError
from occq.nets import param_list
from occq.oracle import spearman
from occq.policy import init_policy, kl_boltzmann_loss
from occq.rff import (
    RFFState,
    init_rff,
    make_direct_q_fn,
    make_rff_q_fn,
    q_value_direct,
    q_value_rff,
    q_weighted,
    rff_features,
    rff_features_backward,
    update_reward_features,
)

from conftest import finite_difference, max_rel_error


def unit_vectors(rng, n, dim):
    v = rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestFeatureMap:
    def test_coordinates_bounded_by_cosine_envelope(self, rng):
        rff = init_rff(rng, feature_dim=64, latent_dim=8, ema_coeff=0.1)
        z = unit_vectors(rng, 10, 8)
        feats = rff_features(rff, z)
        bound = np.sqrt(2.0 * np.e / 64)
        assert np.all(np.abs(feats) <= bound + 1e-12)

    def test_inner_product_approximates_exponential(self):
        # Monte-Carlo vs the closed form e^(x . y) over 20 fresh projections
        rng = np.random.default_rng(77)
        x = unit_vectors(rng, 1, 16)[0]
        estimates = []
        for _ in range(20):
            rff = init_rff(rng, feature_dim=8192, latent_dim=16, ema_coeff=0.1)
            estimates.append(float(rff_features(rff, x[None, :])[0] @ rff_features(rff, x[None, :])[0]))
        assert abs(np.mean(estimates) - np.e) <= 0.05

    def test_orthogonal_vectors_approximate_one(self):
        rng = np.random.default_rng(78)
        x = np.zeros(16)
        y = np.zeros(16)
        x[0] = 1.0
        y[1] = 1.0
        estimates = []
        for _ in range(20):
            rff = init_rff(rng, feature_dim=8192, latent_dim=16, ema_coeff=0.1)
            estimates.append(float(rff_features(rff, x[None, :])[0] @ rff_features(rff, y[None, :])[0]))
        assert abs(np.mean(estimates) - 1.0) <= 0.05

    def test_error_shrinks_at_root_k_rate(self):
        rng = np.random.default_rng(123)
        pairs = [(unit_vectors(rng, 1, 16)[0], unit_vectors(rng, 1, 16)[0]) for _ in range(100)]

        def mean_abs_error(k):
            rff = init_rff(np.random.default_rng(5), feature_dim=k, latent_dim=16, ema_coeff=0.1)
            errs = [
                abs(float(rff_features(rff, x[None, :])[0] @ rff_features(rff, y[None, :])[0]) - np.exp(x @ y))
                for x, y in pairs
            ]
            return np.mean(errs)

        e1 = mean_abs_error(2048)
        e2 = mean_abs_error(8192)
        assert 1.4 <= e1 / e2 <= 2.8

    def test_dimension_mismatch(self, rng):
        rff = init_rff(rng, feature_dim=16, latent_dim=8, ema_coeff=0.1)
        with pytest.raises(ShapeError):
            rff_features(rff, np.zeros(5)[None, :])

    def test_projection_fixed_at_construction(self, rng):
        rff = init_rff(rng, feature_dim=16, latent_dim=4, ema_coeff=0.5)
        W = rff.projection.copy()
        rff2 = update_reward_features(rff, rff_features(rff, unit_vectors(rng, 3, 4)), np.ones(3))
        assert np.array_equal(rff2.projection, W)
        assert np.array_equal(rff2.phase, rff.phase)

    def test_backward_matches_finite_differences(self, rng):
        rff = init_rff(rng, feature_dim=12, latent_dim=5, ema_coeff=0.1)
        z = rng.standard_normal((3, 5))
        w = rng.standard_normal((3, 12))

        def loss(arrays):
            return float((rff_features(rff, arrays[0]) * w).sum())

        fd = finite_difference(loss, [z.copy()])
        assert max_rel_error([rff_features_backward(rff, z, w)], fd) <= 1e-4


class TestRewardFeatures:
    def test_zero_rewards_decay_to_zero(self, rng):
        rff = init_rff(rng, feature_dim=8, latent_dim=4, ema_coeff=0.5)
        feats = rff_features(rff, unit_vectors(rng, 6, 4))
        rff = update_reward_features(rff, feats, np.ones(6))
        start = np.linalg.norm(rff.reward_features)
        for _ in range(30):
            rff = update_reward_features(rff, feats, np.zeros(6))
        assert np.linalg.norm(rff.reward_features) <= start * 0.5**29 + 1e-12

    def test_ema_one_tracks_latest_batch(self, rng):
        rff = init_rff(rng, feature_dim=8, latent_dim=4, ema_coeff=1.0)
        f1 = rff_features(rff, unit_vectors(rng, 4, 4))
        f2 = rff_features(rff, unit_vectors(rng, 4, 4))
        rff = update_reward_features(rff, f1, np.full(4, 2.0))
        rff = update_reward_features(rff, f2, np.full(4, -1.0))
        assert np.allclose(rff.reward_features, (f2 * -1.0).mean(axis=0))

    def test_converges_to_fixed_point(self, rng):
        # constant features f and constant reward r: EMA fixed point is r * f
        rff = init_rff(rng, feature_dim=8, latent_dim=4, ema_coeff=0.05)
        z = unit_vectors(rng, 1, 4)
        feats = np.tile(rff_features(rff, z), (5, 1))
        r = 3.0
        for _ in range(1000):
            rff = update_reward_features(rff, feats, np.full(5, r))
        assert np.linalg.norm(rff.reward_features - r * feats[0]) <= 1e-6

    def test_reward_free_batch_rejected(self, rng):
        rff = init_rff(rng, feature_dim=8, latent_dim=4, ema_coeff=0.1)
        with pytest.raises(RewardRequired):
            update_reward_features(rff, np.zeros((3, 8)), None)


class TestDirectQ:
    def test_zero_rewards_zero_q(self, rng):
        critic = init_critic(rng, 5, 3, (8,), 4)
        q = q_value_direct(critic, rng.standard_normal(8)[None, :], rng.standard_normal((6, 5)), np.zeros(6), 0.9)[0]
        assert q == 0.0

    def test_closed_form_single_sample(self, rng):
        # orthogonal embeddings give a zero logit: Q = r / (1 - gamma)
        critic = init_critic(rng, 4, 2, (), 4, l2_normalize_outputs=False)
        critic.sa_encoder.weights[0] = np.zeros((4, 6))
        critic.sa_encoder.biases[0] = np.array([1.0, 0.0, 0.0, 0.0])
        critic.future_encoder_target.weights[0] = np.zeros((4, 4))
        critic.future_encoder_target.biases[0] = np.array([0.0, 1.0, 0.0, 0.0])
        q = q_value_direct(critic, np.zeros(6)[None, :], np.zeros((1, 4)), np.array([1.0]), 0.9)[0]
        assert q == pytest.approx(10.0, abs=1e-12)

    def test_matches_scalar_recomputation(self, rng):
        critic = init_critic(rng, 5, 3, (8,), 4)
        sa = rng.standard_normal(8)
        futures = rng.standard_normal((7, 5))
        rewards = rng.standard_normal(7)
        gamma = 0.8
        q = q_value_direct(critic, sa[None, :], futures, rewards, gamma)[0]
        a, _, _ = encode_anchor(critic, sa[None, :])
        f, _, _ = encode_future(critic, futures, target=True)
        manual = np.mean([rewards[i] * np.exp(a[0] @ f[i]) for i in range(7)]) / (1.0 - gamma)
        assert q == pytest.approx(manual, abs=1e-10)

    def test_empty_future_set_rejected(self, rng):
        critic = init_critic(rng, 5, 3, (8,), 4)
        with pytest.raises(InvalidSpec):
            q_value_direct(critic, rng.standard_normal(8)[None, :], np.zeros((0, 5)), np.zeros(0), 0.9)

    def test_explicit_weights_match_sampled_expectation(self, rng):
        # enumerated gamma-weights over all offsets vs offset-sampled mean
        critic = init_critic(rng, 3, 2, (8,), 4)
        gamma = 0.6
        futures = np.eye(3)
        sa = rng.standard_normal(5)
        weights = gamma ** np.arange(3)
        rewards = np.array([1.0, 2.0, 3.0])
        single = [q_value_direct(critic, sa[None, :], futures[i : i + 1], rewards[i : i + 1], gamma)[0] for i in range(3)]
        q_enum = weights @ single / weights.sum()
        probs = weights / weights.sum()
        draws = rng.choice(3, size=200_000, p=probs)
        q_mc = q_value_direct(critic, sa[None, :], futures[draws], rewards[draws], gamma)[0]
        assert q_mc == pytest.approx(q_enum, rel=0.02)


class TestRffQ:
    def test_zero_accumulator_zero_q(self, rng):
        critic = init_critic(rng, 5, 3, (8,), 4)
        rff = init_rff(rng, 32, 4, 0.1)
        rff = update_reward_features(rff, np.zeros((4, 32)), np.zeros(4))
        q = q_value_rff(critic, rff, rng.standard_normal((6, 8)), 0.9)
        assert np.all(q == 0.0)

    def test_uninitialized_rejected(self, rng):
        critic = init_critic(rng, 5, 3, (8,), 4)
        rff = init_rff(rng, 32, 4, 0.1)
        with pytest.raises(AccumulatorUninitialized):
            q_value_rff(critic, rff, rng.standard_normal(8), 0.9)
        with pytest.raises(AccumulatorUninitialized):
            make_rff_q_fn(critic, rff, 0.9)

    def test_never_touches_future_encoder(self, rng):
        critic = init_critic(rng, 5, 3, (8,), 4)
        rff = init_rff(rng, 64, 4, 0.1)
        feats = rff_features(rff, unit_vectors(rng, 6, 4))
        rff = update_reward_features(rff, feats, rng.standard_normal(6))
        critic_mod.reset_future_encode_rows()
        q_value_rff(critic, rff, rng.standard_normal((10, 8)), 0.9)
        q_fn = make_rff_q_fn(critic, rff, 0.9)
        q_fn(rng.standard_normal((10, 5)), rng.standard_normal((10, 3)))
        assert critic_mod.future_encode_rows() == 0

    def test_agrees_with_direct_estimator_in_rank(self):
        # frozen critic, frozen future set: both paths rank (s, a) alike
        rng = np.random.default_rng(31)
        critic = init_critic(rng, 6, 2, (16,), 8)
        futures = rng.standard_normal((300, 6))
        rewards = rng.random(300) + 0.5
        gamma = 0.9
        f_emb, _, _ = encode_future(critic, futures, target=True)
        rff = init_rff(rng, 8192, 8, ema_coeff=1.0)
        rff = update_reward_features(rff, rff_features(rff, f_emb), rewards)
        queries = rng.standard_normal((80, 8))
        q_direct = q_value_direct(critic, queries, futures, rewards, gamma)
        q_rff = q_value_rff(critic, rff, queries, gamma)
        assert spearman(q_direct, q_rff) >= 0.8


class TestQFnGradients:
    def test_rff_q_fn_action_grad(self, rng):
        critic = init_critic(rng, 4, 2, (6,), 4)
        rff = init_rff(rng, 32, 4, 0.5)
        f_emb, _, _ = encode_future(critic, rng.standard_normal((5, 4)), target=True)
        rff = update_reward_features(rff, rff_features(rff, f_emb), rng.standard_normal(5))
        q_fn = make_rff_q_fn(critic, rff, 0.9)
        states = rng.standard_normal((3, 4))
        actions = rng.standard_normal((3, 2))
        _, da = q_fn(states, actions)

        def loss(arrays):
            q, _ = q_fn(states, arrays[0])
            return float(q.sum())

        fd = finite_difference(loss, [actions.copy()])
        assert max_rel_error([da], fd) <= 1e-4

    def test_direct_q_fn_action_grad(self, rng):
        critic = init_critic(rng, 4, 2, (6,), 4)
        futures = rng.standard_normal((5, 4))
        rewards = rng.standard_normal(5)
        q_fn = make_direct_q_fn(critic, futures, rewards, 0.9)
        states = rng.standard_normal((3, 4))
        actions = rng.standard_normal((3, 2))
        _, da = q_fn(states, actions)

        def loss(arrays):
            q, _ = q_fn(states, arrays[0])
            return float(q.sum())

        fd = finite_difference(loss, [actions.copy()])
        assert max_rel_error([da], fd) <= 1e-4


class TestQFnMatchesQValue:
    # the policy-decoding closures and the plain estimators share one head
    # per path, so their Q values agree to the last bit

    def test_direct(self, rng):
        critic = init_critic(rng, 4, 2, (6,), 4)
        futures = rng.standard_normal((9, 4))
        rewards = rng.standard_normal(9)
        states, actions = rng.standard_normal((5, 4)), rng.standard_normal((5, 2))
        q, _ = make_direct_q_fn(critic, futures, rewards, 0.9)(states, actions)
        sa = np.concatenate([states, actions], axis=1)
        assert np.array_equal(q, q_value_direct(critic, sa, futures, rewards, 0.9))

    def test_rff(self, rng):
        critic = init_critic(rng, 4, 2, (6,), 4)
        rff = init_rff(rng, 32, 4, 0.5)
        f_emb, _, _ = encode_future(critic, rng.standard_normal((5, 4)), target=True)
        rff = update_reward_features(rff, rff_features(rff, f_emb), rng.standard_normal(5))
        states, actions = rng.standard_normal((5, 4)), rng.standard_normal((5, 2))
        q, _ = make_rff_q_fn(critic, rff, 0.9)(states, actions)
        sa = np.concatenate([states, actions], axis=1)
        assert np.array_equal(q, q_value_rff(critic, rff, sa, 0.9))

    @pytest.mark.parametrize("path", ["direct", "rff"])
    def test_values_skip_only_the_gradient(self, rng, path):
        # discrete decoding scores actions through q_fn.values; the
        # gradient-free entry point must give the same bits as the full call
        critic = init_critic(rng, 4, 3, (6,), 4)
        futures = rng.standard_normal((9, 4))
        if path == "direct":
            q_fn = make_direct_q_fn(critic, futures, rng.standard_normal(9), 0.9)
        else:
            rff = init_rff(rng, 32, 4, 0.5)
            f_emb, _, _ = encode_future(critic, futures, target=True)
            rff = update_reward_features(rff, rff_features(rff, f_emb), rng.standard_normal(9))
            q_fn = make_rff_q_fn(critic, rff, 0.9)
        states, actions = rng.standard_normal((12, 4)), np.tile(np.eye(3), (4, 1))
        assert np.array_equal(q_fn.values(states, actions), q_fn(states, actions)[0])
        policy = init_policy(rng, 4, 3, (8,), discrete=True)
        with_values = kl_boltzmann_loss(policy, q_fn, states[::3], 0.5, 1, rng)
        without = kl_boltzmann_loss(policy, lambda s, a: q_fn(s, a), states[::3], 0.5, 1, rng)
        assert with_values[0] == without[0]
        assert all(np.array_equal(a, b) for a, b in zip(with_values[1].weights, without[1].weights))


def _split(monkeypatch, blocks):
    # force the trig tail into ``blocks`` row blocks, whatever the CPU count and array size
    monkeypatch.setattr(rff_mod, "_THREADS", blocks)
    monkeypatch.setattr(rff_mod, "_BLOCK_ELEMS", 1)


class TestRowBlocks:
    # the cos/sin tail is elementwise, so any row split gives the 1-block bytes

    @pytest.mark.parametrize("width", [1, 7, 33, 512])
    @pytest.mark.parametrize("n_rows", [1, 5, 1280])
    def test_kernels_match_one_block(self, monkeypatch, width, n_rows):
        rng = np.random.default_rng(width * 10_000 + n_rows)
        rff = init_rff(rng, feature_dim=width, latent_dim=16, ema_coeff=0.1)
        z = rng.standard_normal((n_rows, 16))
        dout_row, dout_rows = rng.standard_normal(width), rng.standard_normal((n_rows, width))

        def kernels():
            return [
                rff_features(rff, z),
                rff_features_backward(rff, z, dout_row),
                rff_features_backward(rff, z, dout_rows),
            ]

        _split(monkeypatch, 1)
        one_block = kernels()
        _split(monkeypatch, 3)
        for got, want in zip(kernels(), one_block):
            assert np.array_equal(got, want)

    def test_policy_kl_matches_one_block(self, monkeypatch):
        rng = np.random.default_rng(7)
        critic = init_critic(rng, 4, 2, (16,), 8)
        rff = init_rff(rng, 512, 8, 0.5)
        f_emb, _, _ = encode_future(critic, rng.standard_normal((20, 4)), target=True)
        rff = update_reward_features(rff, rff_features(rff, f_emb), rng.standard_normal(20))
        policy = init_policy(rng, 4, 2, (8,), discrete=False)
        states = rng.standard_normal((128, 4))

        def kl():
            q_fn = make_rff_q_fn(critic, rff, 0.9)
            return kl_boltzmann_loss(policy, q_fn, states, 1.0, 10, np.random.default_rng(3))

        _split(monkeypatch, 1)
        loss, grads, _ = kl()
        _split(monkeypatch, 3)
        loss_split, grads_split, _ = kl()
        assert loss_split == loss
        assert all(np.array_equal(a, b) for a, b in zip(param_list(grads_split), param_list(grads), strict=True))

    @pytest.mark.parametrize("failing", [0, 2])
    def test_error_raised_after_every_block_returns(self, monkeypatch, failing):
        # block i holds the single value i (identity projection, zero phase);
        # block 0 runs on the calling thread, blocks 1 and 2 on the pool
        _split(monkeypatch, 3)
        rff = RFFState(np.ones((1, 1)), np.zeros(1), np.zeros(1), ema_coeff=1.0)
        finished = []

        def trig(block, out):
            index = int(block[0, 0])
            if index == failing:
                raise FloatingPointError(f"block {index}")
            time.sleep(0.2)
            finished.append(index)

        with pytest.raises(FloatingPointError, match=f"block {failing}"):
            rff_mod._projected_trig(rff, np.arange(3.0)[:, None], trig, 1.0)
        assert sorted(finished) == [i for i in range(3) if i != failing]

    def test_concurrent_callers_under_fast_switching(self, monkeypatch):
        # more blocks than cores, four calling threads, a thread switch every
        # microsecond: every result must still equal the 1-block bytes
        rng = np.random.default_rng(11)
        rff = init_rff(rng, feature_dim=64, latent_dim=16, ema_coeff=0.1)
        zs = [rng.standard_normal((40, 16)) for _ in range(4)]
        _split(monkeypatch, 1)
        want = [rff_features(rff, z) for z in zs]
        _split(monkeypatch, 8)
        matched = {}

        def caller(i):
            matched[i] = all(np.array_equal(rff_features(rff, zs[i]), want[i]) for _ in range(50))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert matched == {i: True for i in range(4)}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_computes_features(self):
        # the child inherits a started pool object without its threads; it must
        # start its own instead of waiting on workers that do not exist
        script = """
import os, signal, sys
import numpy as np
from occq import rff
rff._THREADS = 2
state = rff.init_rff(np.random.default_rng(0), 512, 16, 0.1)
z = np.random.default_rng(1).standard_normal((1280, 16))
want = rff.rff_features(state, z)
assert rff._pool.cache_info().currsize == 1
pid = os.fork()
if pid == 0:
    signal.alarm(30)  # a hung child dies instead of outliving the test
    os._exit(0 if np.array_equal(rff.rff_features(state, z), want) else 3)
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(rff_mod.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], env=env, timeout=60, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


def _folded_rff(rng):
    rff = init_rff(rng, feature_dim=16, latent_dim=4, ema_coeff=0.5)
    return update_reward_features(rff, rff_features(rff, unit_vectors(rng, 3, 4)), np.ones(3))


def test_q_weighted_validates():
    with pytest.raises(InvalidSpec):
        q_weighted(np.ones((2, 3)), np.ones(2), 0.9)



@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda rng: init_rff(rng, feature_dim=0, latent_dim=4, ema_coeff=0.5), InvalidSpec, "dimensions"),
        (lambda rng: init_rff(rng, feature_dim=8, latent_dim=0, ema_coeff=0.5), InvalidSpec, "dimensions"),
        (lambda rng: init_rff(rng, feature_dim=8, latent_dim=4, ema_coeff=0.0), InvalidSpec, "ema_coeff"),
        (lambda rng: init_rff(rng, feature_dim=8, latent_dim=4, ema_coeff=1.5), InvalidSpec, "ema_coeff"),
        (lambda rng: update_reward_features(init_rff(rng, 8, 4, 0.5), np.zeros((3, 8)), np.ones(2)),
         ShapeError, "one reward per"),
        (lambda rng: update_reward_features(init_rff(rng, 8, 4, 0.5), np.zeros((3, 7)), np.ones(3)),
         ShapeError, "feature width"),
        (lambda rng: update_reward_features(init_rff(rng, 8, 4, 0.5), np.zeros(8), np.ones(8)),
         ShapeError, "feature width"),
        (lambda rng: rff_features(init_rff(rng, 8, 4, 0.5), np.zeros(4)), ShapeError, "latents of shape"),
        (lambda rng: rff_features_backward(init_rff(rng, 8, 4, 0.5), np.zeros(4), np.ones(8)),
         ShapeError, "latents of shape"),
        (lambda rng: q_value_direct(init_critic(rng, 5, 3, (8,), 4), np.zeros(8), np.zeros((3, 5)), np.ones(3), 0.9),
         ShapeError, "input of shape"),
        (lambda rng: q_value_rff(init_critic(rng, 5, 3, (8,), 4), _folded_rff(rng), np.zeros(8), 0.9),
         ShapeError, "input of shape"),
    ],
    ids=[
        "feature-dim", "latent-dim", "ema-zero", "ema-above-one", "reward-count", "feature-width",
        "update-reward-features-vector", "rff-features-vector", "rff-features-backward-vector",
        "q-value-direct-vector", "q-value-rff-vector",
    ],
)
def test_inconsistent_arguments_rejected(rng, call, error, message):
    with pytest.raises(error, match=message):
        call(rng)
