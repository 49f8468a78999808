from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from occq.data import (
    OfflineDataset,
    generate_dataset,
    load,
    sample_batch,
    save,
    state_action_frequencies,
    strip_rewards,
)
from occq.envs import MountainCarEnv, Trajectory, behavior_policy, make_chain
from occq.errors import FormatError, InvalidSpec, RewardRequired, VersionError
from occq.truncgeom import sample_supports

from conftest import replace_token


@pytest.fixture
def chain_dataset(chain):
    policy = behavior_policy("uniform_random", env=chain)
    return generate_dataset(chain, policy, n_episodes=6, seed=42)


@pytest.fixture
def car_dataset():
    env = MountainCarEnv(horizon=60)
    controller = behavior_policy("scripted_mountain_car", sigma=0.3)
    return generate_dataset(env, controller, n_episodes=4, seed=7)


@pytest.fixture
def grid_dataset(grid5):
    policy = behavior_policy("uniform_random", env=grid5)
    return generate_dataset(grid5, policy, n_episodes=4, seed=3)


class TestGenerate:
    def test_zero_episodes_rejected(self, chain):
        policy = behavior_policy("uniform_random", env=chain)
        with pytest.raises(InvalidSpec):
            generate_dataset(chain, policy, n_episodes=0, seed=0)

    def test_same_seed_byte_identical(self, chain, tmp_path):
        policy = behavior_policy("uniform_random", env=chain)
        a = generate_dataset(chain, policy, n_episodes=5, seed=3)
        b = generate_dataset(chain, policy, n_episodes=5, seed=3)
        save(a, tmp_path / "a.txt")
        save(b, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_deterministic_env_and_policy_identical_episodes(self, chain):
        policy = lambda s, r: 0
        policy.descriptor = "always-advance"
        ds = generate_dataset(chain, policy, n_episodes=3, seed=1)
        for ep in ds.episodes[1:]:
            assert np.array_equal(ep.states, ds.episodes[0].states)
            assert np.array_equal(ep.rewards, ds.episodes[0].rewards)


class TestRoundTrip:
    def test_tabular_round_trip_exact(self, chain_dataset, tmp_path):
        path = tmp_path / "data.txt"
        save(chain_dataset, path)
        assert load(path) == chain_dataset

    def test_vector_round_trip_exact(self, car_dataset, tmp_path):
        path = tmp_path / "car.txt"
        save(car_dataset, path)
        loaded = load(path)
        assert loaded == car_dataset
        # spot-check bit-exactness of an awkward float
        assert loaded.episodes[0].states[5, 1] == car_dataset.episodes[0].states[5, 1]

    def test_reward_free_round_trip(self, chain_dataset, tmp_path):
        stripped = strip_rewards(chain_dataset)
        path = tmp_path / "free.txt"
        save(stripped, path)
        loaded = load(path)
        assert loaded.rewards_available is False
        assert loaded == stripped

    def test_truncated_file_rejected(self, chain_dataset, tmp_path):
        path = tmp_path / "data.txt"
        save(chain_dataset, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2].rsplit("\n", 1)[0])
        with pytest.raises(FormatError):
            load(path)

    def test_garbled_episode_rejected(self, chain_dataset, tmp_path):
        path = tmp_path / "data.txt"
        save(chain_dataset, path)
        lines = path.read_text().splitlines()
        lines[8] = lines[8] + " surplus"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            load(path)

    def test_version_mismatch(self, chain_dataset, tmp_path):
        path = tmp_path / "data.txt"
        save(chain_dataset, path)
        lines = path.read_text().splitlines()
        lines[0] = "occq-dataset v99"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(VersionError):
            load(path)

    def test_not_a_dataset(self, tmp_path):
        path = tmp_path / "nope.txt"
        path.write_text("hello world\n")
        with pytest.raises(FormatError):
            load(path)

    @pytest.mark.parametrize(
        "index, line",
        [
            (1, "env_id"),
            (1, "env_id chain2 extra"),
            (2, "gamma zz"),
            (2, "gamma 0x1p2000"),
            (3, "horizon abc"),
            (3, "horizon 10 10"),
            (4, "rewards_available yes"),
            (6, "space index 2 2 2"),
            (7, "episodes -1"),
            (7, "episodes 5"),
        ],
    )
    def test_corrupt_header_rejected(self, chain_dataset, tmp_path, index, line):
        path = tmp_path / "data.txt"
        save(chain_dataset, path)
        lines = path.read_text().splitlines()
        lines[index] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            load(path)

    def test_non_finite_reward_rejected(self, chain_dataset, tmp_path):
        path = tmp_path / "data.txt"
        save(chain_dataset, path)
        lines = path.read_text().splitlines()
        tokens = lines[8].split()
        tokens[-2] = "inf"  # the episode's last reward
        lines[8] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            load(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_reward_names_its_line(self, chain_dataset, tmp_path, value):
        path = tmp_path / "data.txt"
        save(chain_dataset, path)
        replace_token(path, 9, -2, value)  # the second episode's last reward
        with pytest.raises(FormatError) as exc:
            load(path)
        assert exc.value.line == 10
        assert str(exc.value) == "line 10: non-finite reward"

    def test_undecodable_file_rejected(self, chain_dataset, tmp_path):
        path = tmp_path / "data.txt"
        save(chain_dataset, path)
        path.write_bytes(path.read_bytes().replace(b"chain2", b"chain\xff"))
        with pytest.raises(FormatError):
            load(path)

    def test_zero_step_episode_round_trip(self, chain_dataset, tmp_path):
        empty = Trajectory(states=np.array([0]), actions=np.zeros(0, dtype=np.int64), rewards=np.zeros(0))
        ds = replace(chain_dataset, episodes=chain_dataset.episodes + [empty])
        path = tmp_path / "data.txt"
        for dataset in (ds, strip_rewards(ds)):
            save(dataset, path)
            assert load(path) == dataset

    @given(seed=st.integers(0, 10_000), n_eps=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_random_datasets_round_trip(self, tmp_path_factory, seed, n_eps):
        chain = make_chain(3, gamma=0.8, horizon=6)
        policy = behavior_policy("uniform_random", env=chain)
        ds = generate_dataset(chain, policy, n_episodes=n_eps, seed=seed)
        path = tmp_path_factory.mktemp("rt") / "d.txt"
        save(ds, path)
        assert load(path) == ds


def _first_token(path, line_index, field, state_dim=1):
    """Token index of the first state or action on episode line ``line_index`` of dataset file
    ``path``.  The line holds the state count, the states, the action count, the actions, ..."""
    n_states = int(path.read_text().splitlines()[line_index].split()[0])
    return 1 if field == "state" else n_states * state_dim + 2


class TestSpaceFit:
    """Values that do not fit the dataset's space are a ``FormatError`` naming their line."""

    @pytest.mark.parametrize("field, value", [("state", "2"), ("state", "99"), ("action", "2"), ("action", "9")])
    def test_index_outside_space(self, chain_dataset, tmp_path, field, value):
        path = tmp_path / "d.txt"
        save(chain_dataset, path)
        replace_token(path, 10, _first_token(path, 10, field), value)
        with pytest.raises(FormatError, match="line 11"):
            load(path)

    @pytest.mark.parametrize(
        "field, value",
        [("state", "inf"), ("state", "-inf"), ("state", "nan"), ("state", "0x1p+4"), ("action", "0x1.8p+0")],
    )
    def test_vector_value_outside_space(self, car_dataset, tmp_path, field, value):
        path = tmp_path / "d.txt"
        save(car_dataset, path)
        replace_token(path, 9, _first_token(path, 9, field, state_dim=2), value)
        with pytest.raises(FormatError, match="line 10"):
            load(path)

    def test_values_on_the_bounds_load(self, car_dataset, tmp_path):
        space = car_dataset.space
        for ep in car_dataset.episodes:
            ep.states[0] = [space.state_low[0], space.state_high[1]]
            ep.actions[:1] = space.action_low
        path = tmp_path / "d.txt"
        save(car_dataset, path)
        assert load(path) == car_dataset

    @pytest.mark.parametrize(
        "token_index, value",
        # space vector 2 1, then the state lows (2), the state highs (2), the action low and high
        [(4, "nan"), (5, "-inf"), (6, "-0x1.3333333333333p+0"), (9, "-0x1p+0")],
        ids=["nan-low", "inf-low", "high-equals-low", "action-high-equals-low"],
    )
    def test_bad_space_bounds(self, car_dataset, tmp_path, token_index, value):
        path = tmp_path / "d.txt"
        save(car_dataset, path)
        replace_token(path, 6, token_index, value)
        with pytest.raises(FormatError, match="line 7"):
            load(path)

    @pytest.mark.parametrize("line_index, token_index", [(4, 1), (8, -1)], ids=["rewards_available", "terminal"])
    def test_flags_other_than_0_or_1(self, chain_dataset, tmp_path, line_index, token_index):
        path = tmp_path / "d.txt"
        save(chain_dataset, path)
        replace_token(path, line_index, token_index, "2")
        with pytest.raises(FormatError, match=f"line {line_index + 1}"):
            load(path)


def _put(array, offset, value):
    """An edit of an episode record: the token ``offset`` places after the count of ``array``
    (0 states, 1 actions, 2 rewards) becomes ``value``; offset 0 is the count itself."""

    def edit(tokens, state_width):
        actions = 1 + int(tokens[0]) * state_width
        counts = (0, actions, actions + 1 + int(tokens[actions]))  # actions take one token each
        tokens[counts[array] + offset] = value

    return edit


def _append(value):
    return lambda tokens, state_width: tokens.append(value)


class TestRejections:
    """Each rejection of a damaged episode record, pinned to its exact message and line."""

    @pytest.mark.parametrize(
        "dataset, edits, message",
        [
            ("car_dataset", [_put(0, 61, "0x1.zp+0")], "expected hex float, got '0x1.zp+0'"),
            ("grid_dataset", [_put(1, 3, "1.5")], "expected an integer in [0, 4), got '1.5'"),
            ("grid_dataset", [_put(1, 3, "4")], "expected an integer in [0, 4), got '4'"),
            ("car_dataset", [_put(2, 0, "99999")], "truncated record"),
            ("car_dataset", [_put(2, 0, "99999"), _put(2, 5, "zz")], "expected hex float, got 'zz'"),
            ("grid_dataset", [_append("0")], "trailing tokens"),
            ("car_dataset", [_put(0, 1, "-0.1"), _put(2, 1, "zz")], "expected hex float, got '-0.1'"),
        ],
        ids=["bad-hex-float", "non-integer-index", "index-out-of-range", "count-past-line-end",
             "bad-token-before-truncation", "trailing-tokens", "first-of-two-bad-tokens"],
    )
    def test_message_and_line(self, request, tmp_path, dataset, edits, message):
        ds = request.getfixturevalue(dataset)
        path = tmp_path / "d.txt"
        save(ds, path)
        lines = path.read_text().splitlines()
        tokens = lines[9].split()
        for edit in edits:
            edit(tokens, ds.space.state_dim or 1)
        lines[9] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as exc:
            load(path)
        assert exc.value.line == 10
        assert str(exc.value) == f"line 10: {message}"


class TestEpisodeRules:
    """A record that breaks a rule of ``OfflineDataset`` is a ``FormatError`` on its own line."""

    def test_record_longer_than_the_horizon(self, chain_dataset, tmp_path):
        first = chain_dataset.episodes[0]
        chain_dataset.episodes[0] = Trajectory(first.states[:6], first.actions[:5], first.rewards[:5])
        path = tmp_path / "d.txt"
        save(chain_dataset, path)
        replace_token(path, 3, 1, "5")  # horizon 5: only the first record fits
        with pytest.raises(FormatError, match="horizon") as exc:
            load(path)
        assert exc.value.line == 10

    def test_rewards_in_a_reward_free_file(self, chain_dataset, tmp_path):
        rewarded, free = tmp_path / "r.txt", tmp_path / "f.txt"
        save(chain_dataset, rewarded)
        save(strip_rewards(chain_dataset), free)
        lines = free.read_text().splitlines()
        lines[9] = rewarded.read_text().splitlines()[9]
        free.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="rewards_available") as exc:
            load(free)
        assert exc.value.line == 10

    def test_one_reward_short(self, chain_dataset, tmp_path):
        path = tmp_path / "d.txt"
        save(chain_dataset, path)
        lines = path.read_text().splitlines()
        tokens = lines[9].split()
        n_rewards = chain_dataset.episodes[1].n_steps
        tokens[-2 - n_rewards] = str(n_rewards - 1)  # the reward count
        del tokens[-2]  # the last reward
        lines[9] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="one reward per action") as exc:
            load(path)
        assert exc.value.line == 10

    def test_state_outside_the_space_in_memory(self, car_dataset):
        ep = car_dataset.episodes[1]
        states = ep.states.copy()
        states[2, 1] = 2 * car_dataset.space.state_high[1]  # a velocity beyond the space's bound
        episodes = list(car_dataset.episodes)
        episodes[1] = Trajectory(states, ep.actions, ep.rewards, ep.terminal)
        with pytest.raises(InvalidSpec, match="bounds") as exc:
            replace(car_dataset, episodes=episodes)
        assert exc.value.episode == 1

    def test_one_state_short(self, chain_dataset, tmp_path):
        path = tmp_path / "d.txt"
        save(chain_dataset, path)
        lines = path.read_text().splitlines()
        tokens = lines[9].split()
        tokens[0] = str(int(tokens[0]) - 1)  # the state count
        del tokens[1]  # the first state
        lines[9] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as exc:
            load(path)
        assert str(exc.value) == "line 10: need exactly one more state than actions"


# Forms of a written integer or float token that ``int`` or ``float.fromhex`` still read, but
# that the writers never write; each maps the written token to the altered one.
INTEGER_FORMS = {
    "plus-sign": lambda t: "+" + t,
    "underscore": lambda t: "0_" + t,
    "arabic-indic-digits": lambda t: t.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
}
FLOAT_FORMS = {
    "no-0x": lambda t: t.replace("0x", ""),
    "decimal": lambda t: "-0.1",
    "capital-X": lambda t: t.replace("0x", "0X"),
    "infinity": lambda t: "Infinity",
    "plus-sign": lambda t: "+" + t.removeprefix("-"),
}


class TestStrictTokens:
    """Counts, indices and flags are ASCII decimal digits and floats are ``float.hex`` literals;
    any other form is a ``FormatError`` naming its line, not a value."""

    @pytest.mark.parametrize("form", INTEGER_FORMS)
    @pytest.mark.parametrize(
        "line_index, token_index",
        [(3, 1), (8, 0), (8, 1), (8, -1)],
        ids=["header-horizon", "record-state-count", "record-first-state", "record-terminal"],
    )
    def test_integer_forms(self, chain_dataset, tmp_path, line_index, token_index, form):
        path = tmp_path / "d.txt"
        save(chain_dataset, path)
        written = path.read_text().splitlines()[line_index].split()[token_index]
        replace_token(path, line_index, token_index, INTEGER_FORMS[form](written))
        with pytest.raises(FormatError, match="expected an integer") as exc:
            load(path)
        assert exc.value.line == line_index + 1

    @pytest.mark.parametrize("form", FLOAT_FORMS)
    @pytest.mark.parametrize(
        "dataset, line_index, token_index",
        [("chain_dataset", 2, 1), ("car_dataset", 6, 4), ("car_dataset", 8, 1), ("chain_dataset", 8, -2)],
        ids=["header-gamma", "header-space-bound", "record-state", "record-reward"],
    )
    def test_float_forms(self, request, tmp_path, dataset, line_index, token_index, form):
        path = tmp_path / "d.txt"
        save(request.getfixturevalue(dataset), path)
        written = path.read_text().splitlines()[line_index].split()[token_index]
        replace_token(path, line_index, token_index, FLOAT_FORMS[form](written))
        with pytest.raises(FormatError, match="expected hex float") as exc:
            load(path)
        assert exc.value.line == line_index + 1


class TestStripRewards:
    def test_idempotent(self, chain_dataset):
        once = strip_rewards(chain_dataset)
        twice = strip_rewards(once)
        assert once == twice

    def test_states_actions_unchanged(self, chain_dataset):
        stripped = strip_rewards(chain_dataset)
        for a, b in zip(chain_dataset.episodes, stripped.episodes):
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.actions, b.actions)
            assert b.rewards is None

    def test_sampling_with_rewards_rejected(self, chain_dataset, rng):
        stripped = strip_rewards(chain_dataset)
        with pytest.raises(RewardRequired):
            sample_batch(stripped, 0.9, rng, include_rewards=True)

    def test_reward_free_sampling_reads_nothing(self, chain_dataset, rng):
        stripped = strip_rewards(chain_dataset)
        for _ in range(10):
            batch = sample_batch(stripped, 0.9, rng, include_rewards=False)
            assert batch.future_rewards is None
        assert stripped.reward_reads == 0


class TestSampleBatch:
    def test_gamma_zero_offsets_all_one(self, chain_dataset, rng):
        batch = sample_batch(chain_dataset, 0.0, rng)
        assert np.all(batch.offsets == 1)

    def test_two_state_episode_forced_offset(self, chain, rng):
        policy = lambda s, r: 0
        ds = generate_dataset(chain, policy, n_episodes=1, seed=0)
        ds.episodes[0] = Trajectory(
            states=ds.episodes[0].states[:2],
            actions=ds.episodes[0].actions[:1],
            rewards=ds.episodes[0].rewards[:1],
        )
        batch = sample_batch(ds, 0.5, rng)
        assert np.all(batch.offsets == 1)

    def test_offset_frequencies_match_enumeration(self, rng):
        # anchor with exactly 2 future states at gamma = 0.5: probabilities (2/3, 1/3)
        chain = make_chain(3, gamma=0.5, horizon=2)
        policy = lambda s, r: 0
        ds = generate_dataset(chain, policy, n_episodes=1, seed=0)
        assert ds.episodes[0].length == 3
        counts = np.zeros(3)
        for _ in range(100_000):
            batch = sample_batch(ds, 0.5, rng)
            counts[batch.offsets[0]] += 1  # anchor t=0 has two future states
        freq = counts / counts.sum()
        assert abs(freq[1] - 2.0 / 3.0) <= 0.01
        assert abs(freq[2] - 1.0 / 3.0) <= 0.01

    def test_offsets_within_episode(self, car_dataset, rng):
        for _ in range(50):
            batch = sample_batch(car_dataset, 0.99, rng)
            assert np.all(batch.offsets >= 1)

    def test_anchor_count_covers_both_episodes(self, chain_dataset, rng):
        batch = sample_batch(chain_dataset, 0.9, rng)
        lengths = {ep.n_steps for ep in chain_dataset.episodes}
        assert batch.batch_size in {2 * l for l in lengths}

    def test_rewards_label_reached_state(self, rng):
        # chain rewards are 1 exactly when the positive is the absorbing state
        chain = make_chain(2, gamma=0.9, horizon=6)
        policy = lambda s, r: 0
        ds = generate_dataset(chain, policy, n_episodes=2, seed=0)
        for _ in range(20):
            batch = sample_batch(ds, 0.9, rng)
            expect = (batch.positives == 1).astype(float)
            assert np.array_equal(batch.future_rewards, expect)

    def test_empty_dataset_rejected(self, chain, rng):
        ds = OfflineDataset(
            episodes=[],
            env_id=chain.env_id,
            gamma=chain.gamma,
            horizon=chain.horizon,
            rewards_available=True,
            behavior_descriptor="none",
            space=chain.space,
        )
        with pytest.raises(InvalidSpec):
            sample_batch(ds, 0.9, rng)

    def test_short_episodes_skipped_and_counted(self, chain, rng):
        policy = lambda s, r: 0
        ds = generate_dataset(chain, policy, n_episodes=3, seed=0)
        single = Trajectory(states=ds.episodes[0].states[:1], actions=ds.episodes[0].actions[:0],
                            rewards=ds.episodes[0].rewards[:0])
        ds.episodes[1] = single
        before = ds.skipped_episodes
        for _ in range(60):
            batch = sample_batch(ds, 0.9, rng)
            assert batch.batch_size > 0
        assert ds.skipped_episodes > before

    @pytest.mark.parametrize("n_short", [2, 4])  # 4 of 5 short: no second episode to draw
    def test_matches_per_call_episode_scan(self, chain, n_short):
        def dataset():
            ds = generate_dataset(chain, lambda s, r: 0, n_episodes=5, seed=3)
            for i in range(n_short):
                ep = ds.episodes[i]
                ds.episodes[i] = Trajectory(
                    states=ep.states[:1], actions=ep.actions[:0], rewards=ep.rewards[:0]
                )
            return ds

        def reference_batch(ds, gamma, rng):
            # Rebuilds the usable list on every call.
            usable = [i for i, ep in enumerate(ds.episodes) if ep.length >= 2]

            def draw(exclude):
                if usable == [exclude]:
                    return None
                while True:
                    i = int(rng.integers(len(ds.episodes)))
                    if ds.episodes[i].length < 2:
                        ds.skipped_episodes += 1
                    elif i != exclude:
                        return i

            first = draw(None)
            second = draw(first)
            parts = []
            for i in [first] if second is None else [first, second]:
                ep = ds.episodes[i]
                t = np.arange(ep.n_steps)
                offsets = sample_supports(1.0 - gamma, (ep.length - 1) - t, rng)
                future = t + offsets
                parts.append((ep.states[:-1], ep.actions, ep.states[future], offsets, ep.rewards[future - 1]))
            return [np.concatenate(field) for field in zip(*parts)]

        got_ds, want_ds = dataset(), dataset()
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(50):
            b = sample_batch(got_ds, 0.8, got_rng)
            got = [b.anchor_states, b.anchor_actions, b.positives, b.offsets, b.future_rewards]
            for g, w in zip(got, reference_batch(want_ds, 0.8, want_rng)):
                assert np.array_equal(g, w)
            assert got_ds.skipped_episodes == want_ds.skipped_episodes
        assert got_ds.skipped_episodes > 0

    def test_reward_reads_counted(self, chain_dataset, rng):
        before = chain_dataset.reward_reads
        batch = sample_batch(chain_dataset, 0.9, rng, include_rewards=True)
        assert chain_dataset.reward_reads == before + batch.batch_size

    def test_offset_distribution_chi_square(self, rng):
        # pooled offsets from full-length episodes follow the truncated
        # geometric at each anchor; check the t=0 anchor empirically
        chain = make_chain(6, gamma=0.7, horizon=5)
        policy = lambda s, r: 0
        ds = generate_dataset(chain, policy, n_episodes=1, seed=0)
        n = ds.episodes[0].length - 1
        weights = 0.7 ** np.arange(n)
        weights /= weights.sum()
        counts = np.zeros(n + 1)
        draws = 100_000
        for _ in range(draws // 100):
            for _ in range(100):
                batch = sample_batch(ds, 0.7, rng)
                counts[batch.offsets[0]] += 1
        result = scipy_stats.chisquare(counts[1:], weights * draws)
        assert result.pvalue >= 0.01


def test_state_action_frequencies(chain_dataset):
    freqs = state_action_frequencies(chain_dataset, 2, 2)
    assert freqs.sum() == pytest.approx(1.0)
    assert freqs.shape == (2, 2)
