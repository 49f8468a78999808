import numpy as np
import pytest

from occq.analysis import (
    future_sample_pool,
    learned_logit_table,
    q_topology_report,
    ratio_recovery_spearman,
)
from occq.config import TrainConfig
from occq.critic import init_critic
from occq.data import generate_dataset, state_action_frequencies
from occq.envs import MountainCarEnv, behavior_policy, epsilon_soft_table
from occq.errors import InvalidSpec
from occq.features import featurizer_for
from occq.oracle import value_iteration


@pytest.fixture
def setup(grid3):
    behavior = behavior_policy("epsilon_soft_tabular", mdp=grid3, epsilon=0.4)
    dataset = generate_dataset(grid3, behavior, n_episodes=40, seed=3)
    _, greedy = value_iteration(grid3)
    return {
        "env": grid3,
        "dataset": dataset,
        "behavior_table": epsilon_soft_table(greedy, 0.4),
        "weights": state_action_frequencies(dataset, grid3.n_states, grid3.n_actions),
        "featurizer": featurizer_for(grid3.space),
        "critic": init_critic(np.random.default_rng(0), 9, 4, (16,), 8, l2_normalize_outputs=False),
    }


def test_logit_table_shape(setup):
    table = learned_logit_table(setup["critic"], setup["featurizer"])
    assert table.shape == (9, 4, 9)
    assert np.all(np.isfinite(table))


def test_ratio_recovery_range(setup):
    rho, n = ratio_recovery_spearman(
        setup["critic"], setup["featurizer"], setup["env"], setup["behavior_table"], setup["weights"]
    )
    assert -1.0 <= rho <= 1.0
    assert 0 < n <= 9 * 4 * 9


def test_future_pool_draws_enough(setup, rng):
    states, rewards = future_sample_pool(setup["dataset"], 0.9, rng, n_min=500)
    assert len(states) >= 500
    assert len(states) == len(rewards)


def test_topology_report_with_random_critic(setup, rng):
    rep = q_topology_report(
        setup["critic"],
        setup["featurizer"],
        setup["dataset"],
        setup["env"],
        setup["behavior_table"],
        0.9,
        rng,
        n_future_samples=2000,
    )
    # an untrained critic should not beat the exact-ratio control
    assert rep["spearman_exact_ratio"] > rep["spearman_learned"]
    assert rep["spearman_exact_ratio"] >= 0.95
    assert rep["n_pairs"] == int((setup["weights"] > 0).sum())


def test_tabular_reports_reject_a_vector_dataset(setup, rng):
    car = generate_dataset(MountainCarEnv(horizon=20), behavior_policy("scripted_mountain_car"), n_episodes=2, seed=0)
    with pytest.raises(InvalidSpec, match="tabular dataset"):
        state_action_frequencies(car, 9, 4)
    with pytest.raises(InvalidSpec, match="tabular dataset"):
        q_topology_report(setup["critic"], setup["featurizer"], car, setup["env"], setup["behavior_table"], 0.9, rng)
