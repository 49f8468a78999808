import itertools

import numpy as np
import pytest

from occq.config import TrainConfig, config_from_kv, config_to_kv
from occq.data import generate_dataset, strip_rewards
from occq.envs import behavior_policy, make_chain
from occq.errors import InvalidSpec
from occq.metrics import MetricsRecord, load_metrics
from occq.training import RunState, evaluate, load_policy_checkpoint, pretrain_then_finetune, train


def tiny_config(**kw):
    defaults = dict(
        gamma=0.9,
        epochs=2,
        steps_per_epoch=5,
        hidden_sizes=(16, 16),
        latent_dim=6,
        rff_dim=64,
        learning_rate=1e-3,
        seed=5,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.fixture
def grid_dataset(grid5):
    behavior = behavior_policy("epsilon_soft_tabular", mdp=grid5, epsilon=0.3)
    return generate_dataset(grid5, behavior, n_episodes=12, seed=2)


class TestTrainLoop:
    def test_zero_epochs_initial_checkpoint_only(self, grid_dataset, tmp_path):
        result = train(tiny_config(epochs=0), grid_dataset, out_dir=tmp_path)
        assert result.metrics == []
        assert (tmp_path / "checkpoint_0000.ckpt").exists()
        assert not (tmp_path / "checkpoint_0001.ckpt").exists()
        records, dropped = load_metrics(tmp_path / "metrics.log")
        assert records == [] and dropped == 0

    def test_result_is_the_final_run_state(self, grid_dataset):
        result = train(tiny_config(), grid_dataset)
        assert isinstance(result, RunState)
        assert result.adam_critic.step_count == result.adam_policy.step_count == len(result.metrics) == 10

    def test_same_seed_bit_identical_outputs(self, grid_dataset, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        train(tiny_config(), grid_dataset, out_dir=out_a)
        train(tiny_config(), grid_dataset, out_dir=out_b)
        assert (out_a / "metrics.log").read_bytes() == (out_b / "metrics.log").read_bytes()
        assert (
            (out_a / "checkpoint_0002.ckpt").read_bytes()
            == (out_b / "checkpoint_0002.ckpt").read_bytes()
        )

    def test_reward_free_dataset_rejected(self, grid_dataset):
        with pytest.raises(InvalidSpec):
            train(tiny_config(), strip_rewards(grid_dataset))

    def test_horizon_mismatch_rejected(self, grid_dataset):
        with pytest.raises(InvalidSpec):
            train(tiny_config(horizon=7), grid_dataset)

    def test_failed_first_checkpoint_leaves_no_log_open(self, grid_dataset, tmp_path, monkeypatch):
        import occq.training as train_mod

        opened = []

        class Writer(train_mod.MetricsWriter):
            def __init__(self, path):
                super().__init__(path)
                self.closed = False
                opened.append(self)

            def close(self):
                self.closed = True
                super().close()

        def failing_save(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(train_mod, "MetricsWriter", Writer)
        monkeypatch.setattr(train_mod, "save_checkpoint", failing_save)
        with pytest.raises(OSError, match="disk full"):
            train(tiny_config(), grid_dataset, out_dir=tmp_path)
        assert all(w.closed for w in opened)

    def test_metrics_stream_well_formed(self, grid_dataset, tmp_path):
        result = train(tiny_config(), grid_dataset, out_dir=tmp_path)
        records, dropped = load_metrics(tmp_path / "metrics.log")
        assert dropped == 0
        assert [r.step for r in records] == list(range(1, 11))
        assert all(np.isfinite(r.critic_loss) for r in records)
        assert records[-1].to_line() == result.metrics[-1].to_line()

    def test_rff_toggle_leaves_critic_training_identical(self, grid_dataset):
        with_rff = train(tiny_config(use_rff=True), grid_dataset)
        without = train(tiny_config(use_rff=False), grid_dataset)
        for a, b in zip(with_rff.metrics, without.metrics):
            assert a.critic_loss == b.critic_loss
            assert a.partition_reg == b.partition_reg
            assert a.critic_grad_norm == b.critic_grad_norm

    def test_future_encoder_untouched_by_rff_policy_phase(self, grid_dataset):
        result = train(tiny_config(use_rff=True), grid_dataset)
        assert result.future_rows_in_policy_phase == 0
        direct = train(tiny_config(use_rff=False), grid_dataset)
        assert direct.future_rows_in_policy_phase > 0

    def test_tabular_policy_phase_runs_on_distinct_states(self, grid_dataset, monkeypatch):
        import occq.training as train_mod

        seen = []
        real = train_mod.policy_update

        def spy(pol, feats, actions, *args, inverse=None):
            seen.append((feats, actions, inverse))
            return real(pol, feats, actions, *args, inverse=inverse)

        monkeypatch.setattr(train_mod, "policy_update", spy)
        train(tiny_config(), grid_dataset)
        assert len(seen) == 10
        for feats, actions, inverse in seen:
            assert len(np.unique(feats, axis=0)) == len(feats) < len(actions) == len(inverse)
            assert np.array_equal(np.unique(inverse), np.arange(len(feats)))

    def test_probe_called_on_schedule(self, grid_dataset):
        result = train(
            tiny_config(),
            grid_dataset,
            probe=lambda step, critic, pol, rff: {"step_seen": step},
            probe_every=4,
        )
        assert [s for s, _ in result.probe_log] == [4, 8]

    def test_persistent_faults_abort(self, grid_dataset, monkeypatch):
        # every critic update faulting must trip the >1% abort threshold
        from occq.errors import NumericalFault
        import occq.training as train_mod

        def always_faults(*args, **kwargs):
            raise NumericalFault("injected")

        monkeypatch.setattr(train_mod, "critic_update", always_faults)
        config = tiny_config(epochs=1, steps_per_epoch=200)
        with pytest.raises(NumericalFault, match="aborting"):
            train(config, grid_dataset)

    def test_isolated_faults_tolerated(self, grid_dataset, monkeypatch):
        # a single bad step is skipped, flagged in the metrics, and counted
        import occq.training as train_mod

        real = train_mod.critic_update
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                from occq.errors import NumericalFault

                raise NumericalFault("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(train_mod, "critic_update", flaky)
        result = train(tiny_config(), grid_dataset)
        assert result.fault_count == 1
        assert [r.fault for r in result.metrics].count(True) == 1
        assert result.metrics[2].fault

    def test_faulted_record_has_wall_time(self, grid_dataset, monkeypatch):
        # per-step times are differences of wall_time, faulted steps included
        import occq.training as train_mod
        from occq.errors import NumericalFault

        real = train_mod.critic_update
        calls = itertools.count(1)

        def flaky(*args, **kwargs):
            if next(calls) == 3:
                raise NumericalFault("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(train_mod, "critic_update", flaky)
        records = train(tiny_config(), grid_dataset).metrics
        assert records[2].fault
        walls = [r.wall_time for r in records]
        assert all(isinstance(w, float) for w in walls)
        assert walls == sorted(walls)

    @pytest.mark.parametrize("phase", ["update_reward_features", "policy_update"])
    def test_faulted_step_commits_nothing(self, grid_dataset, monkeypatch, phase):
        # Step 3 faults after its critic update succeeded: every piece of model and
        # optimizer state must come out of the step as it went in.
        from occq import nets
        from occq.errors import NumericalFault
        import occq.training as train_mod

        step = {"n": 0}
        adam_in, adam_out = {}, {}

        def spy(name, adam_arg):
            real = getattr(train_mod, name)

            def wrapped(*args, **kwargs):
                if name == "critic_update":
                    step["n"] += 1
                adam_in[name, step["n"]] = args[adam_arg]
                if name == phase and step["n"] == 3:
                    raise NumericalFault("injected")
                out = real(*args, **kwargs)
                if name != "update_reward_features":
                    adam_out[name, step["n"]] = out[1]
                return out

            monkeypatch.setattr(train_mod, name, wrapped)

        spy("critic_update", 4)
        spy("update_reward_features", 0)
        spy("policy_update", 5)

        def snapshot(step_no, critic, pol, rff):
            nets_ = (critic.sa_encoder, critic.future_encoder, critic.future_encoder_target, pol.net)
            arrays = [a for net in nets_ for a in nets.param_list(net)] + [rff.reward_features]
            return (critic, pol, rff), [a.tobytes() for a in arrays]

        result = train(tiny_config(use_rff=True), grid_dataset, probe=snapshot, probe_every=1)
        assert result.fault_count == 1 and result.metrics[2].fault
        (before, before_bytes), (after, after_bytes) = result.probe_log[1][1], result.probe_log[2][1]
        assert all(a is b for a, b in zip(before, after)) and before_bytes == after_bytes
        # the next step starts from step 2's optimizer states
        assert adam_in["critic_update", 4] is adam_out["critic_update", 2]
        assert adam_in["policy_update", 4] is adam_out["policy_update", 2]
        assert adam_in["update_reward_features", 4] is before[2]


class TestPretrainFinetune:
    def test_zero_reward_reads_in_phase_one(self, grid_dataset):
        unlabeled = strip_rewards(grid_dataset)
        pretrain_then_finetune(tiny_config(), unlabeled, grid_dataset, pretrain_steps=6)
        assert unlabeled.reward_reads == 0

    def test_zero_pretrain_steps_equals_plain_training(self, grid_dataset, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        train(tiny_config(), grid_dataset, out_dir=out_a)
        pretrain_then_finetune(
            tiny_config(), strip_rewards(grid_dataset), grid_dataset, pretrain_steps=0, out_dir=out_b
        )
        assert (out_a / "metrics.log").read_bytes() == (out_b / "metrics.log").read_bytes()

    def test_space_mismatch_rejected(self, grid_dataset, chain):
        other = generate_dataset(chain, behavior_policy("uniform_random", env=chain), 3, seed=0)
        with pytest.raises(InvalidSpec):
            pretrain_then_finetune(tiny_config(), other, grid_dataset, pretrain_steps=2)

    @pytest.mark.parametrize(
        "reward_free, config",
        [(True, tiny_config()), (False, tiny_config(horizon=7))],
        ids=["reward-free", "horizon-mismatch"],
    )
    def test_labeled_dataset_checked_before_any_step(self, grid_dataset, monkeypatch, reward_free, config):
        import occq.training as train_mod

        real, calls = train_mod._critic_step, []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(train_mod, "_critic_step", counting)
        dataset = strip_rewards(grid_dataset) if reward_free else grid_dataset
        with pytest.raises(InvalidSpec):
            pretrain_then_finetune(config, strip_rewards(grid_dataset), dataset, pretrain_steps=3)
        assert calls == []

    def test_pretraining_changes_the_starting_critic(self, grid_dataset):
        plain = train(tiny_config(), grid_dataset)
        pre = pretrain_then_finetune(
            tiny_config(), strip_rewards(grid_dataset), grid_dataset, pretrain_steps=10
        )
        assert plain.metrics[0].critic_loss != pre.metrics[0].critic_loss


class TestEvaluate:
    def test_deterministic_setup_zero_std(self, grid_dataset, grid5):
        result = train(tiny_config(epochs=1, steps_per_epoch=2), grid_dataset)
        stats = evaluate(result.policy, grid5, n_episodes=1, seed=3)
        assert stats.return_std == 0.0
        assert stats.n_episodes == 1

    def test_same_seed_identical_statistics(self, grid_dataset, grid5):
        result = train(tiny_config(epochs=1, steps_per_epoch=2), grid_dataset)
        a = evaluate(result.policy, grid5, n_episodes=10, seed=3)
        b = evaluate(result.policy, grid5, n_episodes=10, seed=3)
        assert a == b

    def test_random_policy_chain_matches_enumeration(self):
        # enumerate all action sequences of the 2-action chain, H = 3:
        # advance at step k (prob 2^-k) earns a reward per remaining step
        chain = make_chain(2, gamma=0.9, horizon=3)
        dataset = generate_dataset(chain, behavior_policy("uniform_random", env=chain), 2, seed=0)
        expected = 0.0
        for seq in itertools.product([0, 1], repeat=3):
            prob = 0.5**3
            s, ret = 0, 0.0
            for a in seq:
                s = 1 if (s == 1 or a == 0) else 0
                ret += float(chain.reward[s])
            expected += prob * ret
        assert expected == pytest.approx(2.125)

        result = train(tiny_config(epochs=0), dataset)
        uniform = result.policy
        # force uniform logits so the stochastic rollout is the random policy
        for w in uniform.net.weights:
            w[:] = 0.0
        for b in uniform.net.biases:
            b[:] = 0.0
        rng = np.random.default_rng(17)
        from occq.envs import rollout
        from occq.features import featurizer_for
        from occq.policy import sample_actions

        feats = featurizer_for(chain.space)

        def random_policy(state, r):
            actions, _ = sample_actions(uniform, feats.state_feats([state]), r, 1)
            return int(actions[0, 0])

        returns = [rollout(chain, random_policy, rng, max_len=3).rewards.sum() for _ in range(10_000)]
        assert np.mean(returns) == pytest.approx(expected, abs=0.02)

    def test_needs_positive_episodes(self, grid_dataset, grid5):
        result = train(tiny_config(epochs=0), grid_dataset)
        with pytest.raises(InvalidSpec):
            evaluate(result.policy, grid5, n_episodes=0, seed=1)


class TestCheckpointRoundTrip:
    def test_policy_reload_reproduces_actions(self, grid_dataset, grid5, tmp_path):
        result = train(tiny_config(), grid_dataset, out_dir=tmp_path)
        pol, config, meta = load_policy_checkpoint(tmp_path / "checkpoint_0002.ckpt")
        assert meta["env_id"] == grid5.env_id
        assert config.seed == 5
        stats_a = evaluate(result.policy, grid5, n_episodes=4, seed=11)
        stats_b = evaluate(pol, grid5, n_episodes=4, seed=11)
        assert stats_a == stats_b


class TestConfigSerialization:
    def test_round_trip(self):
        config = tiny_config(lambda_bc=0.25, hidden_sizes=(8, 4), use_rff=False)
        assert config_from_kv(config_to_kv(config)) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidSpec):
            config_from_kv({"not_a_key": "1"})

    def test_validation(self):
        with pytest.raises(InvalidSpec):
            TrainConfig(gamma=1.0)
        with pytest.raises(InvalidSpec):
            TrainConfig(tau_nce=0.0)
        with pytest.raises(InvalidSpec):
            TrainConfig(rff_dim=0)
        with pytest.raises(InvalidSpec, match="horizon must be non-negative"):
            TrainConfig(horizon=-1)
