import hashlib

import numpy as np
import pytest

from occq import nets
from occq.config import TrainConfig
from occq.errors import InvalidSpec
from occq.policy import (
    bc_loss,
    deterministic_action,
    init_policy,
    kl_boltzmann_loss,
    policy_table,
    policy_update,
    sample_actions,
)

from conftest import finite_difference, max_rel_error


def constant_q(value=0.0):
    def q_fn(states, actions):
        n = np.atleast_2d(states).shape[0]
        return np.full(n, value), np.zeros_like(np.atleast_2d(actions))

    return q_fn


def tabular_q(values):
    """Q depending only on the (one-hot) action."""
    table = np.asarray(values, dtype=np.float64)

    def q_fn(states, actions):
        idx = np.argmax(np.atleast_2d(actions), axis=1)
        return table[idx], np.zeros_like(np.atleast_2d(actions))

    return q_fn


class TestSampling:
    def test_fixed_seed_identical(self, rng):
        policy = init_policy(rng, 4, 2, (8,), discrete=False)
        s = rng.standard_normal((3, 4))
        a1, lp1 = sample_actions(policy, s, np.random.default_rng(5), 6)
        a2, lp2 = sample_actions(policy, s, np.random.default_rng(5), 6)
        assert np.array_equal(a1, a2) and np.array_equal(lp1, lp2)

    def test_actions_inside_squashed_range(self, rng):
        policy = init_policy(rng, 4, 3, (8,), discrete=False)
        actions, log_probs = sample_actions(policy, rng.standard_normal((5, 4)), rng, 50)
        assert np.all(np.abs(actions) < 1.0)
        assert np.all(np.isfinite(log_probs))

    def test_tiny_std_concentrates_at_tanh_mean(self, rng):
        policy = init_policy(rng, 3, 1, (), discrete=False, log_std_bounds=(-8.0, -7.9))
        s = rng.standard_normal((1, 3))
        actions, _ = sample_actions(policy, s, rng, 10_000)
        assert actions.std() <= 2.0 * np.exp(-7.9)
        mean_action = deterministic_action(policy, s)
        assert abs(actions.mean() - mean_action[0]) <= 1e-3

    def test_log_probs_match_empirical_density(self):
        # histogram of samples vs density integrated over bins
        rng = np.random.default_rng(3)
        policy = init_policy(rng, 2, 1, (8,), discrete=False)
        s = np.array([[0.4, -0.2]])
        actions, _ = sample_actions(policy, s, rng, 100_000)
        flat = actions[0, :, 0]
        edges = np.linspace(-1.0, 1.0, 41)
        hist, _ = np.histogram(flat, bins=edges)
        empirical = hist / len(flat)
        centers = 0.5 * (edges[:-1] + edges[1:])
        u = np.arctanh(np.clip(centers, -1 + 1e-9, 1 - 1e-9))
        # evaluate the model density via log_prob at forced samples
        out, _ = nets.forward(policy.net, s)
        mean, log_std = out[0, :1], np.clip(out[0, 1:], -5.0, 2.0)
        std = np.exp(log_std)
        log_density = (
            -0.5 * ((u - mean[0]) / std[0]) ** 2
            - log_std[0]
            - 0.5 * np.log(2 * np.pi)
            - np.log1p(-centers**2)
        )
        model = np.exp(log_density) * np.diff(edges)
        assert np.max(np.abs(model - empirical)) <= 0.02

    def test_discrete_sampling_matches_table(self, rng):
        policy = init_policy(rng, 3, 4, (8,), discrete=True)
        s = rng.standard_normal((1, 3))
        table = policy_table(policy, s)[0]
        actions, _ = sample_actions(policy, s, rng, 100_000)
        freqs = np.bincount(actions[0], minlength=4) / actions.shape[1]
        assert np.max(np.abs(freqs - table)) <= 0.01

    def test_needs_at_least_one_sample(self, rng):
        policy = init_policy(rng, 3, 2, (8,), discrete=False)
        with pytest.raises(InvalidSpec):
            sample_actions(policy, rng.standard_normal((1, 3)), rng, 0)

    def test_log_probs_finite_strictly_inside_range(self, rng):
        policy = init_policy(rng, 3, 2, (8,), discrete=False)
        states = rng.standard_normal((6, 3))
        actions = rng.uniform(-1 + 1e-6, 1 - 1e-6, size=(6, 2))
        loss, _, info = bc_loss(policy, states, actions, entropy_coeff=0.0)
        assert np.isfinite(loss)
        assert np.isfinite(info["bc_nll"])

    def test_discrete_draw_at_the_top_has_positive_probability(self):
        # These logits give a cdf that ends at 0.9999999999999998, below a draw of
        # 1 - 2**-53; the draw must land on action 3, not on action 4 (probability 0).
        logits = [1.2940638143982073, 1.0067243153057943, -2.7111624789659685, -1.8890132459676727, -1000.0]
        policy = init_policy(np.random.default_rng(0), 2, 5, (), discrete=True)
        policy.net.weights[0][:] = 0.0
        policy.net.biases[0][:] = logits
        assert policy_table(policy, np.zeros((1, 2)))[0].cumsum()[-1] < 1.0 - 2.0**-53
        actions, log_probs = sample_actions(policy, np.zeros((2, 2)), _FixedDraw(1.0 - 2.0**-53), 3)
        assert np.array_equal(actions, np.full((2, 3), 3))
        assert np.all(log_probs > -10.0)


class _FixedDraw:
    """A generator stand-in whose ``random(size)`` fills its result with ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


class TestKLBoltzmann:
    def _optimize(self, policy, q_fn, states, tau, steps=400, lr=0.05, seed=11):
        adam = nets.init_adam(nets.param_list(policy.net), lr)
        for i in range(steps):
            _, grads, _ = kl_boltzmann_loss(
                policy, q_fn, states, tau, n_a=16, rng=np.random.default_rng(seed + i)
            )
            adam, new_arrays, _ = nets.adam_step(
                adam, nets.param_list(policy.net), nets.grad_list(policy.net, grads)
            )
            policy.net = nets.with_param_list(policy.net, new_arrays)
        return policy

    def test_constant_q_gives_uniform_policy(self, rng):
        policy = init_policy(rng, 3, 4, (16,), discrete=True)
        states = rng.standard_normal((6, 3))
        policy = self._optimize(policy, constant_q(2.5), states, tau=1.0)
        table = policy_table(policy, states)
        assert np.max(np.abs(table - 0.25)) <= 0.02

    def test_recovers_target_policy(self, rng):
        # Q = tau * log pi0 is minimized exactly at pi0
        pi0 = np.array([0.5, 0.25, 0.15, 0.1])
        tau = 0.7
        policy = init_policy(rng, 3, 4, (16,), discrete=True)
        states = rng.standard_normal((5, 3))
        policy = self._optimize(policy, tabular_q(tau * np.log(pi0)), states, tau=tau)
        table = policy_table(policy, states)
        tv = 0.5 * np.abs(table - pi0).sum(axis=1).max()
        assert tv <= 0.05

    def test_scale_invariance_of_gradients(self, rng):
        # scaling Q by alpha and tau by alpha leaves gradients identical
        policy = init_policy(rng, 3, 2, (8,), discrete=False)
        states = rng.standard_normal((4, 3))

        def q_scaled(alpha):
            def q_fn(s, a):
                a2 = np.atleast_2d(a)
                q = alpha * (a2**2).sum(axis=1)
                return q, alpha * 2.0 * a2

            return q_fn

        _, g1, _ = kl_boltzmann_loss(policy, q_scaled(1.0), states, tau=0.5, n_a=8, rng=np.random.default_rng(0))
        _, g2, _ = kl_boltzmann_loss(policy, q_scaled(7.0), states, tau=3.5, n_a=8, rng=np.random.default_rng(0))
        for a, b in zip(nets.grad_list(policy.net, g1), nets.grad_list(policy.net, g2)):
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_tau_must_be_positive(self, rng):
        policy = init_policy(rng, 3, 2, (8,), discrete=True)
        with pytest.raises(InvalidSpec):
            kl_boltzmann_loss(policy, constant_q(), rng.standard_normal((2, 3)), tau=0.0, n_a=4, rng=rng)

    @pytest.mark.parametrize("discrete", [True, False])
    def test_gradients_match_finite_differences(self, discrete):
        rng = np.random.default_rng(21)
        policy = init_policy(rng, 4, 3 if discrete else 2, (10,), discrete=discrete)
        states = rng.standard_normal((3, 4))

        def q_fn(s, a):
            a2 = np.atleast_2d(a)
            s2 = np.atleast_2d(s)
            q = (a2 * a2).sum(axis=1) * 0.7 + s2.sum(axis=1) * 0.1
            return q, 1.4 * a2

        def loss(arrays):
            p = type(policy)(
                net=nets.with_param_list(policy.net, arrays),
                action_dim=policy.action_dim,
                discrete=policy.discrete,
            )
            value, _, _ = kl_boltzmann_loss(p, q_fn, states, tau=0.8, n_a=6, rng=np.random.default_rng(9))
            return value

        _, grads, _ = kl_boltzmann_loss(policy, q_fn, states, tau=0.8, n_a=6, rng=np.random.default_rng(9))
        fd = finite_difference(loss, nets.param_list(policy.net))
        assert max_rel_error(nets.grad_list(policy.net, grads), fd) <= 1e-4


class TestBC:
    def test_pure_mle_loss_strictly_decreases(self, rng):
        # small-step gradient descent on one repeated (s, a) pair
        policy = init_policy(rng, 3, 1, (8,), discrete=False)
        state = rng.standard_normal((1, 3))
        action = np.array([[0.37]])
        losses = []
        for _ in range(200):
            value, grads, _ = bc_loss(policy, state, action, entropy_coeff=0.0)
            losses.append(value)
            arrays = nets.param_list(policy.net)
            glist = nets.grad_list(policy.net, grads)
            policy.net = nets.with_param_list(policy.net, [a - 1e-3 * g for a, g in zip(arrays, glist)])
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_entropy_dominance_discrete(self, rng):
        policy = init_policy(rng, 3, 4, (12,), discrete=True)
        states = rng.standard_normal((6, 3))
        actions = np.zeros(6, dtype=np.int64)  # all the same class
        adam = nets.init_adam(nets.param_list(policy.net), 0.05)
        for _ in range(300):
            _, grads, _ = bc_loss(policy, states, actions, entropy_coeff=50.0)
            adam, new_arrays, _ = nets.adam_step(
                adam, nets.param_list(policy.net), nets.grad_list(policy.net, grads)
            )
            policy.net = nets.with_param_list(policy.net, new_arrays)
        table = policy_table(policy, states)
        assert table.max() <= 0.25 + 0.05

    def test_self_distillation_near_stationary(self):
        # actions sampled from the policy itself: BC gradient (entropy off)
        # is near zero compared against data from an unrelated policy
        rng = np.random.default_rng(8)
        policy = init_policy(rng, 3, 2, (8,), discrete=False)
        other = init_policy(np.random.default_rng(99), 3, 2, (8,), discrete=False)
        states = np.repeat(rng.standard_normal((4, 3)), 2048, axis=0)
        own_actions, _ = sample_actions(policy, states, rng, 1)
        _, g_own, _ = bc_loss(policy, states, own_actions[:, 0, :], entropy_coeff=0.0)
        other_actions, _ = sample_actions(other, states, rng, 1)
        _, g_other, _ = bc_loss(policy, states, other_actions[:, 0, :], entropy_coeff=0.0)
        norm_own = nets.global_grad_norm(nets.grad_list(policy.net, g_own))
        norm_other = nets.global_grad_norm(nets.grad_list(policy.net, g_other))
        assert norm_own <= 0.05 * norm_other

    @pytest.mark.parametrize("discrete", [True, False])
    def test_gradients_match_finite_differences(self, discrete):
        rng = np.random.default_rng(31)
        policy = init_policy(rng, 4, 3 if discrete else 2, (10,), discrete=discrete)
        states = rng.standard_normal((3, 4))
        if discrete:
            actions = rng.integers(0, 3, size=3)
        else:
            actions = np.tanh(rng.standard_normal((3, 2)))

        def loss(arrays):
            p = type(policy)(
                net=nets.with_param_list(policy.net, arrays),
                action_dim=policy.action_dim,
                discrete=policy.discrete,
            )
            value, _, _ = bc_loss(p, states, actions, entropy_coeff=0.3, rng=np.random.default_rng(4), n_a=6)
            return value

        _, grads, _ = bc_loss(policy, states, actions, entropy_coeff=0.3, rng=np.random.default_rng(4), n_a=6)
        fd = finite_difference(loss, nets.param_list(policy.net))
        assert max_rel_error(nets.grad_list(policy.net, grads), fd) <= 1e-4


class TestPolicyUpdate:
    def _config(self, **kw):
        defaults = dict(hidden_sizes=(12,), learning_rate=0.05, n_action_samples=8)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_huge_bc_weight_matches_pure_bc(self, rng):
        # two distinct states with stochastic action targets: the BC optimum
        # is each state's empirical action mixture, so both runs are pinned
        config = self._config(lambda_bc=1000.0, entropy_coeff=0.0, tau_boltzmann=1.0)
        base = rng.standard_normal((2, 3))
        states = np.repeat(base, 16, axis=0)
        mix0 = [0] * 8 + [1] * 4 + [2] * 3 + [3] * 1
        mix1 = [3] * 10 + [2] * 4 + [1] * 1 + [0] * 1
        actions = np.array(mix0 + mix1)

        def run(with_kl):
            policy = init_policy(np.random.default_rng(2), 3, 4, (12,), discrete=True)
            adam = nets.init_adam(nets.param_list(policy.net), 0.05)
            for i in range(400):
                if with_kl:
                    policy, adam, _ = policy_update(
                        policy, states, actions, constant_q(), config, adam, np.random.default_rng(i)
                    )
                else:
                    _, grads, _ = bc_loss(policy, states, actions, entropy_coeff=0.0)
                    adam, new_arrays, _ = nets.adam_step(
                        adam, nets.param_list(policy.net),
                        [g * 1000.0 for g in nets.grad_list(policy.net, grads)],
                    )
                    policy.net = nets.with_param_list(policy.net, new_arrays)
            return policy_table(policy, base)

        combined = run(with_kl=True)
        pure = run(with_kl=False)
        tv = 0.5 * np.abs(combined - pure).sum(axis=1).max()
        assert tv <= 0.05
        empirical = np.array([[8, 4, 3, 1], [1, 1, 4, 10]]) / 16.0
        assert 0.5 * np.abs(pure - empirical).sum(axis=1).max() <= 0.05

    @pytest.mark.parametrize("discrete", [True, False])
    def test_matches_separate_forward_passes(self, rng, discrete):
        # policy_update runs the policy net once for both losses: the same bits as
        # letting each loss run its own forward pass.
        config = self._config(lambda_bc=0.5, entropy_coeff=0.1, tau_boltzmann=0.3)
        policy = init_policy(rng, 3, 4 if discrete else 2, (12, 12), discrete=discrete)
        states = rng.standard_normal((6, 3))
        if discrete:
            actions, q_fn = rng.integers(0, 4, 6), tabular_q([0.3, -1.0, 2.0, 0.5])
        else:

            def q_fn(s, a):
                return (a * a).sum(axis=1) * s[:, 0], 2.0 * a * s[:, :1]

            actions = np.tanh(rng.standard_normal((6, 2)))
        adam = nets.init_adam(nets.param_list(policy.net), 0.05)
        got, got_adam, metrics = policy_update(
            policy, states, actions, q_fn, config, adam, np.random.default_rng(7)
        )

        ref_rng = np.random.default_rng(7)
        kl, kl_grads, info = kl_boltzmann_loss(policy, q_fn, states, tau=0.3, n_a=8, rng=ref_rng)
        bc, bc_grads, _ = bc_loss(policy, states, actions, entropy_coeff=0.1, rng=ref_rng, n_a=8)
        glist = [
            k + 0.5 * b
            for k, b in zip(nets.grad_list(policy.net, kl_grads), nets.grad_list(policy.net, bc_grads))
        ]
        want_adam, want_arrays, want_norm = nets.adam_step(adam, nets.param_list(policy.net), glist)

        assert metrics == {
            "policy_kl_loss": kl, "mean_q": info["mean_q"], "bc_loss": bc, "policy_grad_norm": want_norm
        }
        assert np.array_equal(got_adam.m, want_adam.m) and np.array_equal(got_adam.v, want_adam.v)
        assert all(np.array_equal(a, b) for a, b in zip(nets.param_list(got.net), want_arrays))

    def test_zero_bc_weight_reports_zero_term(self, rng):
        policy = init_policy(rng, 3, 2, (8,), discrete=True)
        config = self._config(lambda_bc=0.0)
        adam = nets.init_adam(nets.param_list(policy.net), 0.05)
        _, _, metrics = policy_update(
            policy, rng.standard_normal((4, 3)), np.zeros(4, dtype=int), constant_q(), config, adam, rng
        )
        assert metrics["bc_loss"] == 0.0

    def test_bandit_probability_increases_monotonically(self, rng):
        # two-armed bandit with Q(a1) > Q(a0); the closed-form target is
        # softmax(Q / tau), with P(a1) = 1 / (1 + exp(-1 / tau))
        policy = init_policy(rng, 2, 2, (8,), discrete=True)
        tau = 0.25
        config = self._config(lambda_bc=0.0, tau_boltzmann=tau, learning_rate=0.01)
        states = np.ones((4, 2))
        adam = nets.init_adam(nets.param_list(policy.net), 0.01)
        probs = [policy_table(policy, states[:1])[0, 1]]
        for i in range(150):
            policy, adam, _ = policy_update(
                policy, states, np.zeros(4, dtype=int), tabular_q([0.0, 1.0]), config, adam,
                np.random.default_rng(i),
            )
            probs.append(policy_table(policy, states[:1])[0, 1])
        target = 1.0 / (1.0 + np.exp(-1.0 / tau))
        climbing = [p for p in probs if p < 0.95]
        assert all(b >= a for a, b in zip(climbing, climbing[1:]))
        assert abs(probs[-1] - target) <= 0.01


def _loss_digest(loss, grads, info):
    """SHA-256 of a loss value, its info values (in key order) and every gradient array."""
    h = hashlib.sha256(np.float64(loss).tobytes())
    for key in sorted(info):
        h.update(key.encode() + np.float64(info[key]).tobytes())
    for g in nets.param_list(grads):
        h.update(g.tobytes())
    return h.hexdigest()


def _slope_q(s, a):
    """Q with a nonzero dQ/da that also depends on the state."""
    return (a * a).sum(axis=1) * s[:, 0] + a[:, 0], 2.0 * a * s[:, :1] + np.eye(a.shape[1])[0]


class _ValuesQ:
    """A Q function that also offers ``values``, as the direct path does."""

    def __call__(self, s, a):
        raise AssertionError("the discrete KL must use values")

    def values(self, s, a):
        return _slope_q(s, a)[0]


class TestLossBytes:
    """Fixed-seed bytes of both decoding losses on every discrete/continuous
    branch, entropy bonus off and on, so a rewrite of either loss must keep
    each value and gradient bit for bit."""

    def _setup(self, discrete):
        rng = np.random.default_rng(41)
        policy = init_policy(rng, 3, 4 if discrete else 2, (12, 12), discrete=discrete)
        states = rng.standard_normal((6, 3))
        actions = rng.integers(0, 4, 6) if discrete else np.tanh(rng.standard_normal((6, 2)))
        return policy, states, actions

    @pytest.mark.parametrize(
        "discrete, q_fn, digest",
        [
            (True, _slope_q, "98d29b8525bfeae976b7a78473b73dd860ff15ca5a4201cd355c5cd3700f539d"),
            (True, _ValuesQ(), "98d29b8525bfeae976b7a78473b73dd860ff15ca5a4201cd355c5cd3700f539d"),
            (False, _slope_q, "df0704628726d691d860669dc23016066d3a1d445b7e78946375f13cbe836b26"),
        ],
        ids=["discrete", "discrete-values", "continuous"],
    )
    def test_kl_boltzmann(self, discrete, q_fn, digest):
        policy, states, _ = self._setup(discrete)
        got = kl_boltzmann_loss(policy, q_fn, states, tau=0.3, n_a=5, rng=np.random.default_rng(7))
        assert _loss_digest(*got) == digest

    @pytest.mark.parametrize(
        "discrete, entropy_coeff, digest",
        [
            (True, 0.0, "f85f3e3432b844844712ec524cd6faf301325580e47d67ad1804776b0e6e4607"),
            (True, 0.2, "8bb1a649e5b5a3bc7aad06a2b2abc7aaaf24f2b91d06261db2ecaa647addeb3b"),
            (False, 0.0, "dfa2f504fa80330a162273f796c8e3c4f6f75cebccb87ca8dc09bba64726b533"),
            (False, 0.2, "e8d861c546be3b4cc0427d0d52816b864c332e1422b682eacc1149f5523e3c90"),
        ],
        ids=["discrete", "discrete-entropy", "continuous", "continuous-entropy"],
    )
    def test_bc(self, discrete, entropy_coeff, digest):
        policy, states, actions = self._setup(discrete)
        got = bc_loss(policy, states, actions, entropy_coeff, rng=np.random.default_rng(7), n_a=5)
        assert _loss_digest(*got) == digest


def _update_digest(policy, adam, metrics):
    """SHA-256 of a ``policy_update`` result: metrics (in key order), new arrays and Adam moments."""
    h = hashlib.sha256()
    for key in sorted(metrics):
        h.update(key.encode() + np.float64(metrics[key]).tobytes())
    for a in nets.param_list(policy.net) + [adam.m, adam.v]:
        h.update(a.tobytes())
    return h.hexdigest()


class TestDistinctStates:
    """``inverse`` runs the discrete policy phase once per distinct state,
    weighted by its count: the batch rows' sums, regrouped."""

    # state 3 appears five times with three different actions; state 2 never
    KEYS = np.array([3, 0, 3, 3, 1, 0, 3, 4, 1, 3])
    ACTIONS = np.array([0, 2, 1, 0, 3, 2, 2, 1, 3, 0])

    def _config(self, **kw):
        return TrainConfig(hidden_sizes=(12, 12), learning_rate=0.05, n_action_samples=8, tau_boltzmann=0.3, **kw)

    @pytest.mark.parametrize("lambda_bc", [0.0, 0.5])
    @pytest.mark.parametrize("entropy_coeff", [0.0, 0.2])
    def test_matches_full_rows(self, lambda_bc, entropy_coeff):
        config = self._config(lambda_bc=lambda_bc, entropy_coeff=entropy_coeff)
        policy = init_policy(np.random.default_rng(43), 5, 4, (12, 12), discrete=True)
        adam = nets.init_adam(nets.param_list(policy.net), 0.05)
        distinct, inverse = np.unique(self.KEYS, return_inverse=True)
        eye = np.eye(5)
        full = policy_update(policy, eye[self.KEYS], self.ACTIONS, _slope_q, config, adam, np.random.default_rng(7))
        grouped = policy_update(
            policy, eye[distinct], self.ACTIONS, _slope_q, config, adam, np.random.default_rng(7), inverse=inverse
        )

        def rel(a, b):
            a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
            return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))

        assert full[2].keys() == grouped[2].keys()
        for key in full[2]:
            assert (full[2][key] == 0.0) == (grouped[2][key] == 0.0), key
            if full[2][key]:
                assert rel(grouped[2][key], full[2][key]) <= 1e-12, key
        want = nets.param_list(full[0].net) + [full[1].m, full[1].v]
        got = nets.param_list(grouped[0].net) + [grouped[1].m, grouped[1].v]
        assert all(rel(g, w) <= 1e-12 for g, w in zip(got, want))

    def test_losses_match_full_rows(self):
        policy = init_policy(np.random.default_rng(43), 5, 4, (12, 12), discrete=True)
        distinct, inverse = np.unique(self.KEYS, return_inverse=True)
        eye = np.eye(5)
        for loss in (
            lambda s, **kw: kl_boltzmann_loss(policy, _ValuesQ(), s, tau=0.3, n_a=5, rng=None, **kw),
            lambda s, **kw: bc_loss(policy, s, self.ACTIONS, entropy_coeff=0.2, **kw),
        ):
            full, grouped = loss(eye[self.KEYS]), loss(eye[distinct], inverse=inverse)
            assert grouped[0] == pytest.approx(full[0], rel=1e-12, abs=0.0)
            assert grouped[2] == pytest.approx(full[2], rel=1e-12, abs=0.0)
            for g, w in zip(nets.param_list(grouped[1]), nets.param_list(full[1])):
                assert np.allclose(g, w, rtol=0.0, atol=1e-12 * np.abs(w).max())

    def test_without_inverse_keeps_bytes(self):
        # fixed-seed bytes of policy_update on full rows, continuous and discrete
        config = self._config(lambda_bc=0.5, entropy_coeff=0.2)
        digests = []
        for discrete in (False, True):
            rng = np.random.default_rng(47)
            policy = init_policy(rng, 3, 4 if discrete else 2, (12, 12), discrete=discrete)
            states = rng.standard_normal((6, 3))
            actions = rng.integers(0, 4, 6) if discrete else np.tanh(rng.standard_normal((6, 2)))
            adam = nets.init_adam(nets.param_list(policy.net), 0.05)
            digests.append(_update_digest(
                *policy_update(policy, states, actions, _slope_q, config, adam, np.random.default_rng(7))
            ))
        assert digests == [
            "f9ba85d443d747e53b3f00a055e385e7a7006bd1dd69de127f3d48e7aa19fb11",
            "95f084e02c2df0ba0c3372ecf5b638dfc7419b75f3a23458b0fa38c1ca38a78f",
        ]

    def test_rejects_bad_inverse(self):
        config = self._config(lambda_bc=0.5)
        continuous = init_policy(np.random.default_rng(0), 3, 2, (8,), discrete=False)
        adam = nets.init_adam(nets.param_list(continuous.net), 0.05)
        with pytest.raises(InvalidSpec, match="discrete"):
            policy_update(
                continuous, np.ones((2, 3)), np.zeros((3, 2)), _slope_q, config, adam,
                np.random.default_rng(0), inverse=[0, 1, 1],
            )
        policy = init_policy(np.random.default_rng(0), 3, 2, (8,), discrete=True)
        with pytest.raises(InvalidSpec, match="inverse"):
            kl_boltzmann_loss(policy, _slope_q, np.ones((2, 3)), 0.3, 5, None, inverse=[0, 2])
        with pytest.raises(InvalidSpec, match="2 actions for 3 batch rows"):
            bc_loss(policy, np.ones((2, 3)), [0, 1], 0.0, inverse=[0, 1, 1])
