import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from occq.data import generate_dataset, state_action_frequencies
from occq.envs import TabularMDP, behavior_policy, epsilon_soft_table, make_chain, rollout
from occq.errors import InvalidSpec
from occq.oracle import (
    bellman_q,
    exact_occupancy,
    exact_q,
    exact_ratio,
    spearman,
    value_iteration,
)

from conftest import reference_value_iteration


def random_mdp(rng, n_states, n_actions, gamma=0.9):
    P = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    r = rng.random(n_states)
    start = rng.dirichlet(np.ones(n_states))
    return TabularMDP(
        n_states=n_states,
        n_actions=n_actions,
        transition=P,
        reward=r,
        start_dist=start,
        gamma=gamma,
        horizon=100,
    )


def random_policy_table(rng, n_states, n_actions):
    return rng.dirichlet(np.ones(n_actions), size=n_states)


class TestOccupancy:
    def test_chain_all_mass_on_absorbing_state(self, chain):
        table = np.tile([1.0, 0.0], (2, 1))  # always advance
        occ = exact_occupancy(chain, table)
        assert occ[0, 0, 1] == pytest.approx(1.0, abs=1e-12)
        assert occ[0, 0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_truncated_power_series(self):
        # brute force: sum_k gamma^(k-1) (1-gamma) P_pi^k on a 2-state swap chain
        P = np.zeros((2, 1, 2))
        P[0, 0, 1] = 1.0
        P[1, 0, 0] = 1.0
        mdp = TabularMDP(
            n_states=2,
            n_actions=1,
            transition=P,
            reward=np.array([0.0, 1.0]),
            start_dist=np.array([1.0, 0.0]),
            gamma=0.5,
            horizon=50,
        )
        table = np.ones((2, 1))
        M = P[:, 0, :]
        brute = np.zeros((2, 2))
        term = np.eye(2)
        for k in range(1, 1001):
            term = term @ M
            brute += 0.5 ** (k - 1) * 0.5 * term
        occ = exact_occupancy(mdp, table)
        assert np.max(np.abs(occ[:, 0, :] - brute)) <= 1e-9

    @given(n_states=st.integers(2, 8), n_actions=st.integers(1, 4), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one(self, n_states, n_actions, seed):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(rng, n_states, n_actions)
        table = random_policy_table(rng, n_states, n_actions)
        occ = exact_occupancy(mdp, table)
        assert np.max(np.abs(occ.sum(axis=2) - 1.0)) <= 1e-9
        assert np.all(occ >= -1e-12)


class TestExactQ:
    def test_chain_geometric_series(self, chain):
        table = np.tile([1.0, 0.0], (2, 1))
        q = exact_q(chain, table)
        # reward 1 at every future state: sum gamma^(k-1) = 1 / (1 - gamma)
        assert q[0, 0] == pytest.approx(10.0, abs=1e-9)

    def test_zero_rewards_zero_q(self, grid5, rng):
        zero = TabularMDP(
            n_states=grid5.n_states,
            n_actions=grid5.n_actions,
            transition=grid5.transition,
            reward=np.zeros(grid5.n_states),
            start_dist=grid5.start_dist,
            gamma=grid5.gamma,
            horizon=grid5.horizon,
        )
        table = random_policy_table(rng, grid5.n_states, grid5.n_actions)
        assert np.all(exact_q(zero, table) == 0.0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_occupancy_form_matches_bellman(self, seed):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(rng, 6, 3)
        table = random_policy_table(rng, 6, 3)
        assert np.max(np.abs(exact_q(mdp, table) - bellman_q(mdp, table))) <= 1e-8


class TestExactRatio:
    def test_single_anchor_ratio_is_one(self, grid3, rng):
        table = random_policy_table(rng, grid3.n_states, grid3.n_actions)
        w = np.zeros((grid3.n_states, grid3.n_actions))
        w[2, 1] = 1.0
        ratio = exact_ratio(grid3, table, w)
        vals = ratio.ratio[2, 1, ratio.supported]
        assert np.max(np.abs(vals - 1.0)) <= 1e-9

    def test_marginal_weighted_ratio_sums_to_one(self, grid5, rng):
        table = random_policy_table(rng, grid5.n_states, grid5.n_actions)
        w = rng.dirichlet(np.ones(grid5.n_states * grid5.n_actions)).reshape(grid5.n_states, -1)
        rt = exact_ratio(grid5, table, w)
        sums = np.nansum(rt.ratio * rt.marginal[None, None, :], axis=2)
        assert np.max(np.abs(sums - 1.0)) <= 1e-9

    def test_all_zero_weights_rejected(self, grid3, rng):
        table = random_policy_table(rng, grid3.n_states, grid3.n_actions)
        with pytest.raises(InvalidSpec):
            exact_ratio(grid3, table, np.zeros((grid3.n_states, grid3.n_actions)))

    def test_matches_monte_carlo_rollouts(self, grid5):
        # rollout-frequency oracle on supported entries with fat marginals
        behavior = behavior_policy("epsilon_soft_tabular", mdp=grid5, epsilon=0.4)
        dataset = generate_dataset(grid5, behavior, n_episodes=120, seed=17)
        weights = state_action_frequencies(dataset, grid5.n_states, grid5.n_actions)
        _, greedy = value_iteration(grid5)
        table = epsilon_soft_table(greedy, 0.4)
        rt = exact_ratio(grid5, table, weights)

        # empirical conditional occupancy for one dense anchor via simulation
        rng = np.random.default_rng(99)
        anchor_s, anchor_a = 0, 1
        gamma = grid5.gamma
        counts = np.zeros(grid5.n_states)
        cdf = np.cumsum(table, axis=1)
        tcdf = np.cumsum(grid5.transition, axis=2)  # the same sums as a per-step cumsum of each row
        n_runs = 200_000
        offsets = rng.geometric(1.0 - gamma, size=n_runs)
        for dt in offsets:
            s = int(np.argmax(tcdf[anchor_s, anchor_a] > rng.random()))
            for _ in range(dt - 1):
                a = int(np.searchsorted(cdf[s], rng.random()))
                s = int(np.argmax(tcdf[s, a] > rng.random()))
            counts[s] += 1
        empirical = counts / counts.sum()
        occ_row = rt.ratio[anchor_s, anchor_a] * rt.marginal
        dense = empirical >= 0.01
        rel = np.abs(occ_row[dense] - empirical[dense]) / empirical[dense]
        assert np.max(rel) <= 0.05


class TestSpearman:
    def test_identical(self):
        assert spearman([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)

    def test_reversed(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_computed_swap(self):
        # ranks (1,2,3,4) vs (1,3,2,4): rho = 1 - 6*2/(4*15) = 0.8
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_too_short(self):
        with pytest.raises(InvalidSpec):
            spearman([1.0], [2.0])

    @given(seed=st.integers(0, 10_000), n=st.integers(3, 60))
    @settings(max_examples=50, deadline=None)
    def test_matches_scipy_with_ties(self, seed, n):
        rng = np.random.default_rng(seed)
        xs = rng.integers(0, 6, size=n).astype(float)
        ys = rng.integers(0, 6, size=n).astype(float)
        if np.all(xs == xs[0]) or np.all(ys == ys[0]):
            return
        ours = spearman(xs, ys)
        reference = scipy_stats.spearmanr(xs, ys).statistic
        assert ours == pytest.approx(reference, abs=1e-12)


class TestValueIteration:
    def test_matches_reference(self, grid3):
        q, greedy = value_iteration(grid3)
        ref = reference_value_iteration(grid3.transition, grid3.reward, grid3.gamma)
        assert np.max(np.abs(q - ref)) <= 1e-8
        assert np.array_equal(greedy.argmax(axis=1), ref.argmax(axis=1))

    def test_greedy_rows_onehot(self, grid5):
        _, greedy = value_iteration(grid5)
        assert np.all(greedy.sum(axis=1) == 1.0)
        assert set(np.unique(greedy)) == {0.0, 1.0}
