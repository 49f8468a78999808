import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occq.envs import (
    DOWN,
    LEFT,
    RIGHT,
    MountainCarEnv,
    SpaceInfo,
    TabularMDP,
    behavior_policy,
    epsilon_soft_table,
    gridworld_from_ascii,
    initial_state,
    load_env_spec,
    make_chain,
    make_env,
    make_gridworld,
    rollout,
    step,
)
from occq.errors import InvalidAction, InvalidSpec, NumericalFault

from conftest import reference_value_iteration


class TestStep:
    def test_chain_deterministic_transition(self, chain, rng):
        nxt, reward, done = step(chain, 0, 0, rng)
        assert (nxt, reward, done) == (1, 1.0, False)

    def test_mountain_car_goal_boundary(self, rng):
        env = MountainCarEnv()
        state = np.array([env.max_position - 1e-4, 0.05])
        nxt, reward, done = step(env, state, np.array([0.0]), rng)
        assert done
        assert nxt[0] >= env.goal_position
        assert reward == pytest.approx(env.goal_reward)

    def test_stochastic_transition_frequencies(self, rng):
        # Monte-Carlo frequency oracle: P[s0][a0] = [0.3, 0.7]
        P = np.array([[[0.3, 0.7]], [[0.0, 1.0]]])
        mdp = make_chain(2)
        mdp = type(mdp)(
            n_states=2,
            n_actions=1,
            transition=P,
            reward=np.array([0.0, 1.0]),
            start_dist=np.array([1.0, 0.0]),
            gamma=0.9,
            horizon=10,
        )
        hits = np.zeros(2)
        for _ in range(100_000):
            nxt, _, _ = step(mdp, 0, 0, rng)
            hits[nxt] += 1
        freq = hits / hits.sum()
        assert np.max(np.abs(freq - np.array([0.3, 0.7]))) <= 0.01

    def test_invalid_action_index(self, chain, rng):
        with pytest.raises(InvalidAction):
            step(chain, 0, 5, rng)

    def test_nan_state_faults(self, rng):
        env = MountainCarEnv()
        with pytest.raises(NumericalFault):
            step(env, np.array([np.nan, 0.0]), np.array([0.0]), rng)

    def test_out_of_range_force(self, rng):
        env = MountainCarEnv()
        with pytest.raises(InvalidAction):
            step(env, np.array([-0.5, 0.0]), np.array([2.0]), rng)

    def test_valley_rest_is_fixed_point(self, rng):
        env = MountainCarEnv()
        bottom = -np.pi / 6  # cos(3x) = 0
        state = np.array([bottom, 0.0])
        nxt, _, done = step(env, state, np.array([0.0]), rng)
        assert not done
        assert nxt == pytest.approx(state, abs=1e-12)


class TestRollout:
    def test_chain_deterministic_rollout(self, chain, rng):
        policy = lambda s, r: 0
        traj = rollout(chain, policy, rng, max_len=3)
        assert traj.states.tolist() == [0, 1, 1, 1]
        assert traj.rewards.tolist() == [1.0, 1.0, 1.0]
        assert not traj.terminal

    def test_seeded_rollouts_identical(self, grid5):
        policy = behavior_policy("uniform_random", env=grid5)
        a = rollout(grid5, policy, np.random.default_rng(11), max_len=40)
        b = rollout(grid5, policy, np.random.default_rng(11), max_len=40)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.rewards, b.rewards)

    def test_max_len_respected(self, grid5, rng):
        policy = behavior_policy("uniform_random", env=grid5)
        traj = rollout(grid5, policy, rng, max_len=7)
        assert traj.n_steps == 7

    def test_max_len_beyond_horizon_rejected(self, grid5, rng):
        policy = behavior_policy("uniform_random", env=grid5)
        with pytest.raises(InvalidSpec):
            rollout(grid5, policy, rng, max_len=grid5.horizon + 1)

    def test_energy_pumping_reaches_goal(self):
        # simulate the noise-free controller once from rest at -0.5
        env = MountainCarEnv()
        controller = behavior_policy("scripted_mountain_car", sigma=0.0)
        state = np.array([-0.5, 0.0])
        rng = np.random.default_rng(0)
        for t in range(1, 200):
            state, _, done = step(env, state, controller(state, rng), rng)
            if done:
                break
        assert done and t < 200

    def test_nan_policy_faults(self, rng):
        env = MountainCarEnv()
        policy = lambda s, r: np.array([np.nan])
        with pytest.raises(NumericalFault):
            rollout(env, policy, rng, max_len=5)


class TestGridworld:
    def test_degenerate_grid_is_chain(self, chain):
        grid = make_gridworld(2, 1, goal_cell=1, step_reward=0.0, goal_reward=1.0, slip_prob=0.0)
        assert grid.n_states == 2
        # moving right from cell 0 lands in the absorbing goal, as in the chain
        assert grid.transition[0, 1, 1] == 1.0
        assert np.all(grid.transition[1, :, 1] == 1.0)
        assert grid.reward.tolist() == chain.reward.tolist()

    def test_rows_stochastic_with_slip(self):
        grid = make_gridworld(5, 5, goal_cell=24, slip_prob=0.1)
        assert np.max(np.abs(grid.transition.sum(axis=2) - 1.0)) <= 1e-9

    def test_shortest_path_by_bfs(self):
        # BFS oracle over the deterministic moves: opposite corners of 3x3
        grid = make_gridworld(3, 3, goal_cell=8, slip_prob=0.0)
        frontier = {0}
        seen = {0}
        steps = 0
        while 8 not in frontier:
            nxt = set()
            for s in frontier:
                for a in range(4):
                    t = int(np.argmax(grid.transition[s, a]))
                    if t not in seen:
                        nxt.add(t)
                        seen.add(t)
            frontier = nxt
            steps += 1
        assert steps == 4

    def test_zero_area_rejected(self):
        with pytest.raises(InvalidSpec):
            make_gridworld(0, 5, goal_cell=0)

    def test_goal_outside_rejected(self):
        with pytest.raises(InvalidSpec):
            make_gridworld(2, 2, goal_cell=9)

    @given(
        w=st.integers(2, 5),
        h=st.integers(1, 5),
        slip=st.floats(0.0, 0.9),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_transition_rows_always_stochastic(self, w, h, slip, data):
        goal = data.draw(st.integers(0, w * h - 1))
        grid = make_gridworld(w, h, goal_cell=goal, slip_prob=slip)
        assert np.max(np.abs(grid.transition.sum(axis=2) - 1.0)) <= 1e-9
        assert np.all(grid.transition >= 0.0)

    def test_ascii_layout(self):
        grid = gridworld_from_ascii(
            """
            S..
            .#.
            ..G
            """.replace(" ", "")
        )
        assert grid.n_states == 8  # 9 cells minus the wall
        assert grid.start_dist[0] == 1.0
        # walking into the wall from the cell above leaves the agent in place
        assert grid.transition[1, 2, 1] == 1.0  # DOWN from top-middle hits '#'

    def test_ascii_without_walls_matches_make_gridworld(self):
        ascii_grid = gridworld_from_ascii("....\n....\n..G.\n", slip_prob=0.1, gamma=0.9, horizon=20)
        grid = make_gridworld(4, 3, goal_cell=10, slip_prob=0.1, gamma=0.9, horizon=20)
        for name in ("transition", "reward", "start_dist"):
            assert np.array_equal(getattr(ascii_grid, name), getattr(grid, name))

    def test_ascii_walls_and_starts_pinned(self):
        # Free cells are numbered row-major, skipping walls:
        #   S . # .      0 1 - 2
        #   # . . S  ->  - 3 4 5
        #   . # G .      6 - 7 8
        grid = gridworld_from_ascii("S.#.\n#..S\n.#G.\n")
        assert grid.n_states == 9
        assert grid.env_id == "gridworld-ascii-4x3-goal7-slip0"
        assert np.flatnonzero(grid.start_dist).tolist() == [0, 5]
        assert np.flatnonzero(grid.reward).tolist() == [7]
        assert np.all(grid.transition[7, :, 7] == 1.0)
        assert grid.transition[1, RIGHT, 1] == 1.0  # into the wall at (0, 2)
        assert grid.transition[2, DOWN, 5] == 1.0
        assert grid.transition[8, LEFT, 7] == 1.0

    @pytest.mark.parametrize("layout", ["G.G\n", "S.x\n..G\n"], ids=["two-goals", "unknown-character"])
    def test_ascii_bad_layout_rejected(self, layout):
        with pytest.raises(InvalidSpec):
            gridworld_from_ascii(layout)

    def test_ascii_requires_goal(self):
        with pytest.raises(InvalidSpec):
            gridworld_from_ascii("S.\n..")

    def test_ascii_slip_prob_checked(self):
        with pytest.raises(InvalidSpec):
            gridworld_from_ascii("S.G\n", slip_prob=1.0)


class TestBehaviorPolicies:
    def test_uniform_random_frequencies(self, grid5, rng):
        policy = behavior_policy("uniform_random", env=grid5)
        draws = np.array([policy(0, rng) for _ in range(100_000)])
        freqs = np.bincount(draws, minlength=4) / len(draws)
        assert np.max(np.abs(freqs - 0.25)) <= 0.01

    def test_zero_epsilon_matches_value_iteration(self, grid3, rng):
        policy = behavior_policy("epsilon_soft_tabular", mdp=grid3, epsilon=0.0)
        q_ref = reference_value_iteration(grid3.transition, grid3.reward, grid3.gamma)
        for s in range(grid3.n_states):
            assert policy(s, rng) == int(np.argmax(q_ref[s]))

    def test_epsilon_soft_table_mixes(self):
        greedy = np.eye(4)[[0, 2]]
        table = epsilon_soft_table(greedy, 0.2)
        assert table[0, 0] == pytest.approx(0.85)
        assert table[0, 1] == pytest.approx(0.05)
        assert np.allclose(table.sum(axis=1), 1.0)

    def test_scripted_controller_with_noise_reaches_goal(self):
        env = MountainCarEnv()
        controller = behavior_policy("scripted_mountain_car", sigma=0.3)
        rng = np.random.default_rng(5)
        successes = sum(rollout(env, controller, rng, max_len=env.horizon).terminal for _ in range(100))
        assert successes >= 50

    def test_invalid_parameters(self, grid3):
        with pytest.raises(InvalidSpec):
            behavior_policy("epsilon_soft_tabular", mdp=grid3, epsilon=1.5)
        with pytest.raises(InvalidSpec):
            behavior_policy("scripted_mountain_car", sigma=-0.1)
        with pytest.raises(InvalidSpec):
            behavior_policy("bogus")

    @pytest.mark.parametrize(
        "kind, params, named",
        [
            ("epsilon_soft_tabular", dict(mdp=MountainCarEnv(), epsilon=0.3), "MountainCarEnv"),
            ("epsilon_soft_tabular", dict(mdp=make_chain(3)), "'epsilon'"),
            ("uniform_random", dict(env=make_chain(3), epsilon=0.3), "'epsilon'"),
            ("scripted_mountain_car", dict(env=MountainCarEnv(), sigma=0.3), "'env'"),
        ],
        ids=["epsilon-soft-car", "epsilon-soft-missing", "uniform-unknown", "scripted-unknown"],
    )
    def test_bad_parameter_named(self, kind, params, named):
        with pytest.raises(InvalidSpec, match=named):
            behavior_policy(kind, **params)


class TestEnvConfig:
    def test_registry_names(self):
        assert make_env("chain2").n_states == 2
        assert make_env("gridworld5x5").n_states == 25
        assert isinstance(make_env("mountain_car"), MountainCarEnv)

    def test_kv_spec_file(self, tmp_path):
        spec = tmp_path / "env.cfg"
        spec.write_text("kind = gridworld\nwidth = 4\nheight = 3\ngoal_cell = 11\nslip_prob = 0.05\n")
        env = load_env_spec(spec)
        assert env.n_states == 12
        assert env.transition.shape == (12, 4, 12)

    def test_kv_spec_with_layout_file(self, tmp_path):
        layout = tmp_path / "grid.txt"
        layout.write_text("S..\n..G\n")
        spec = tmp_path / "env.cfg"
        spec.write_text(f"kind = gridworld\nlayout_file = {layout}\n")
        env = load_env_spec(spec)
        assert env.n_states == 6

    def test_relative_layout_file_found_from_the_spec_directory(self, tmp_path, monkeypatch):
        probe = tmp_path / "probe"
        probe.mkdir()
        (probe / "layout.txt").write_text("S..\n..G\n")
        (probe / "env.cfg").write_text("kind = gridworld\nlayout_file = layout.txt\n")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(tmp_path)
        assert make_env("probe/env.cfg").n_states == 6
        monkeypatch.chdir(elsewhere)
        assert make_env("../probe/env.cfg").n_states == 6

    def test_missing_kind_rejected(self, tmp_path):
        spec = tmp_path / "env.cfg"
        spec.write_text("width = 4\n")
        with pytest.raises(InvalidSpec):
            load_env_spec(spec)

    @pytest.mark.parametrize(
        "spec, key",
        [
            ("kind = gridworld\nwidth = 3\nheight = 3\ngoal_cell = 8\nslip_prb = 0.1\n", "slip_prb"),
            ("kind = gridworld\nwidth = three\nheight = 3\ngoal_cell = 8\n", "width"),
            ("kind = gridworld\nwidth = 3\nheight = 3\n", "goal_cell"),
            ("kind = gridworld\nlayout_file = {layout}\nwidth = 3\n", "width"),
            ("kind = gridworld\nlayout_file = {layout}\nslip_prob = high\n", "slip_prob"),
            ("kind = chain\nn_state = 3\n", "n_state"),
            ("kind = chain\nhorizon = 2.5\n", "horizon"),
            ("kind = mountain_car\nfriction = 0.1\n", "friction"),
            ("kind = mountain_car\ngamma = high\n", "gamma"),
        ],
        ids=[
            "gridworld-unknown",
            "gridworld-bad-value",
            "gridworld-missing",
            "ascii-unknown",
            "ascii-bad-value",
            "chain-unknown",
            "chain-bad-value",
            "mountain_car-unknown",
            "mountain_car-bad-value",
        ],
    )
    def test_bad_spec_names_key(self, tmp_path, spec, key):
        layout = tmp_path / "grid.txt"
        layout.write_text("S..\n..G\n")
        path = tmp_path / "env.cfg"
        path.write_text(spec.format(layout=layout))
        with pytest.raises(InvalidSpec, match=f"'{key}'"):
            load_env_spec(path)

    def test_start_states_tabular(self, grid5, rng):
        starts = {initial_state(grid5, rng) for _ in range(500)}
        assert 24 not in starts  # goal excluded from the start distribution
        assert len(starts) > 10


class _FixedDraw:
    """A generator stand-in whose ``random()`` always returns ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestCategoricalDrawAtTheTop:
    """``u`` just below 1 lies past a cdf whose float sum ends below 1; the
    draw must still be an outcome with positive probability."""

    U = 1.0 - 2.0**-53

    def test_initial_state(self):
        env = make_env("gridworld5x5")
        s = initial_state(env, _FixedDraw(self.U))
        assert env.start_dist[s] > 0

    def test_epsilon_soft_action(self):
        env = make_env("gridworld5x5")
        policy = behavior_policy("epsilon_soft_tabular", mdp=env, epsilon=0.3)
        assert all(policy(s, _FixedDraw(self.U)) < env.n_actions for s in range(env.n_states))

    def test_transition(self):
        row = np.array([1 / 24] * 24 + [0.0])  # cumsum ends at 0.9999999999999996
        transition = np.broadcast_to(row, (25, 1, 25)).copy()
        mdp = TabularMDP(25, 1, transition, np.zeros(25), row, gamma=0.9, horizon=5)
        nxt, _, _ = step(mdp, 0, 0, _FixedDraw(self.U))
        assert row[nxt] > 0


def _mdp_args(**changes):
    """``TabularMDP`` arguments of a valid two-state, one-action chain, with ``changes`` applied."""
    args = dict(
        n_states=2,
        n_actions=1,
        transition=np.array([[[0.0, 1.0]], [[0.0, 1.0]]]),
        reward=np.array([0.0, 1.0]),
        start_dist=np.array([1.0, 0.0]),
        gamma=0.9,
        horizon=5,
    )
    return {**args, **changes}


class TestTabularMDPRejections:
    def test_valid_arguments_construct(self):
        assert TabularMDP(**_mdp_args()).n_states == 2

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(n_states=0, transition=np.zeros((0, 1, 0)), reward=np.zeros(0), start_dist=np.zeros(0)),
             "at least one state"),
            (dict(transition=np.full((2, 2, 2), 0.5)), "transition shape"),
            (dict(transition=np.array([[[-0.5, 1.5]], [[0.0, 1.0]]])), "negative transition"),
            (dict(transition=np.array([[[0.5, 0.4]], [[0.0, 1.0]]])), "sum to 1"),
            (dict(start_dist=np.array([0.5, 0.4])), "start_dist"),
            (dict(reward=np.zeros(3)), "one value per state"),
            (dict(reward=np.array([0.0, 2.0])), "reward_range"),
            (dict(gamma=1.0), "gamma"),
            (dict(horizon=0), "horizon"),
        ],
        ids=["no-states", "transition-shape", "negative-probability", "row-sum", "start-dist",
             "reward-shape", "reward-range", "gamma", "horizon"],
    )
    def test_inconsistent_arguments_rejected(self, changes, message):
        with pytest.raises(InvalidSpec, match=message):
            TabularMDP(**_mdp_args(**changes))

    @pytest.mark.parametrize(
        "changes",
        [
            dict(transition=np.array([[[np.nan, 1.0]], [[0.0, 1.0]]])),
            dict(reward=np.array([np.nan, 1.0])),
            dict(start_dist=np.array([np.nan, 1.0])),
            dict(reward_range=(-np.inf, 1.0)),
        ],
        ids=["transition", "reward", "start_dist", "reward_range"],
    )
    def test_non_finite_arguments_rejected(self, changes):
        with pytest.raises(InvalidSpec, match="finite"):
            TabularMDP(**_mdp_args(**changes))

    def test_spec_with_a_nan_reward_rejected(self, tmp_path):
        spec = tmp_path / "env.cfg"
        spec.write_text("kind = gridworld\nwidth = 3\nheight = 3\ngoal_cell = 8\nstep_reward = nan\n")
        with pytest.raises(InvalidSpec, match="finite"):
            make_env(str(spec))


class TestSpaceInfo:
    def test_valid_vector_space_constructs(self):
        assert SpaceInfo("vector", state_dim=1, action_dim=1, state_low=(-1.0,), state_high=(1.0,),
                         action_low=(0.0,), action_high=(2.0,)).state_dim == 1

    @pytest.mark.parametrize(
        "changes",
        [dict(state_low=(2.0,)), dict(action_high=(-1.0,)), dict(state_high=(np.nan,)),
         dict(action_low=(-np.inf,)), dict(state_low=(-1.0, -1.0))],
        ids=["inverted-state", "inverted-action", "nan", "inf", "more-bounds-than-dimensions"],
    )
    def test_bad_vector_bounds_rejected(self, changes):
        bounds = dict(state_low=(-1.0,), state_high=(1.0,), action_low=(-1.0,), action_high=(1.0,))
        with pytest.raises(InvalidSpec, match="space bounds"):
            SpaceInfo("vector", state_dim=1, action_dim=1, **{**bounds, **changes})


class TestMountainCarRejections:
    @pytest.mark.parametrize(
        "changes, message",
        [(dict(gamma=1.0), "gamma"), (dict(horizon=0), "horizon"), (dict(force=np.nan), "force must be finite"),
         (dict(max_position=-1.2), "space bounds"), (dict(max_speed=0.0), "space bounds")],
        ids=["gamma", "horizon", "nan-force", "empty-position-range", "zero-speed-range"],
    )
    def test_bad_parameters_rejected(self, changes, message):
        with pytest.raises(InvalidSpec, match=message):
            MountainCarEnv(**changes)
