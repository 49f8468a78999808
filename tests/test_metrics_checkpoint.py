import struct

import numpy as np
import pytest

from occq.checkpoint import load_checkpoint, save_checkpoint
from occq.errors import FormatError, VersionError
from occq.metrics import MetricsRecord, MetricsWriter, export_plot_data, load_metrics

# A line with every field the writer always writes; format with the step.
COMPLETE = "step={} epoch=0 critic_loss=0x0p+0 partition_reg=0x0p+0 positive_logit_mean=0x0p+0 fault=0"


def sample_record(step=1, **kw):
    defaults = dict(
        step=step,
        epoch=0,
        critic_loss=1.25,
        partition_reg=0.004,
        positive_logit_mean=0.3,
        policy_kl_loss=-0.7,
        bc_loss=0.1,
        mean_q=2.0,
        critic_grad_norm=0.5,
        policy_grad_norm=0.25,
    )
    defaults.update(kw)
    return MetricsRecord(**defaults)


class TestMetrics:
    def test_line_round_trip_exact(self):
        rec = sample_record(critic_loss=0.1 + 0.2)  # a float with messy bits
        parsed = MetricsRecord.from_line(rec.to_line())
        assert parsed == rec

    def test_wall_time_not_serialized(self):
        rec = sample_record()
        rec.wall_time = 123.4
        assert "wall_time" not in rec.to_line()

    def test_writer_and_loader(self, tmp_path):
        path = tmp_path / "metrics.log"
        with MetricsWriter(path) as writer:
            for i in range(5):
                writer.append(sample_record(step=i))
        records, dropped = load_metrics(path)
        assert len(records) == 5 and dropped == 0

    def test_partial_last_record_dropped(self, tmp_path):
        path = tmp_path / "metrics.log"
        with MetricsWriter(path) as writer:
            writer.append(sample_record(step=1))
            writer.append(sample_record(step=2))
        text = path.read_text()
        path.write_text(text[:-20])  # cut mid-record, no trailing newline
        records, dropped = load_metrics(path)
        assert [r.step for r in records] == [1]
        assert dropped == 1

    def test_malformed_middle_line_raises(self, tmp_path):
        path = tmp_path / "metrics.log"
        path.write_text(f"{COMPLETE.format(1)}\ngarbage here\n{COMPLETE.format(2)}\n")
        with pytest.raises(FormatError):
            load_metrics(path)

    def test_overflowing_float_rejected(self):
        with pytest.raises(FormatError):
            MetricsRecord.from_line("step=1 epoch=0 critic_loss=0x1p2000")

    @pytest.mark.parametrize(
        "line",
        [
            "step=1 epoch=0 step=2",
            "step=1 epoch=0 epoch=1",
            "step=1 epoch=0 critic_loss=0x1p+0 critic_loss=0x1p+1",
            "step=-3 epoch=0",
            "step=1 epoch=-1",
            "step=9223372036854775808 epoch=0",
            "step=1 epoch=0 fault=7",
            "step=1 epoch=0 fault=-1",
        ],
    )
    def test_line_the_writer_never_writes_rejected(self, line):
        with pytest.raises(FormatError, match="line 4"):
            MetricsRecord.from_line(line, lineno=4)

    @pytest.mark.parametrize("name", ["step", "epoch", "critic_loss", "partition_reg", "positive_logit_mean", "fault"])
    def test_line_without_an_always_written_field_rejected(self, name):
        line = " ".join(t for t in sample_record().to_line().split() if not t.startswith(f"{name}="))
        with pytest.raises(FormatError, match=f"line 4: record is missing {name}$"):
            MetricsRecord.from_line(line, lineno=4)

    @pytest.mark.parametrize("key", ["step", "epoch", "fault"])
    @pytest.mark.parametrize(
        "form",
        [lambda t: "+" + t, lambda t: "0_" + t, lambda t: t.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))],
        ids=["plus-sign", "underscore", "arabic-indic-digits"],
    )
    def test_integer_forms_the_writer_never_writes_rejected(self, key, form):
        line = " ".join(
            f"{key}={form(t.partition('=')[2])}" if t.startswith(f"{key}=") else t
            for t in sample_record(step=3).to_line().split()
        )
        with pytest.raises(FormatError, match="^line 4: expected an integer"):
            MetricsRecord.from_line(line, lineno=4)

    @pytest.mark.parametrize("value", ["1.5", "-0.1", "0X1.8P+0", "Infinity", "+0x1.8p+0"])
    def test_float_forms_the_writer_never_writes_rejected(self, value):
        # float.fromhex alone reads 1.5 as 0x1.5, that is 1.3125
        line = COMPLETE.format(1).replace("critic_loss=0x0p+0", f"critic_loss={value}")
        with pytest.raises(FormatError, match="^line 4: bad value for 'critic_loss'"):
            MetricsRecord.from_line(line, lineno=4)

    def test_non_finite_values_round_trip(self):
        rec = sample_record(critic_loss=float("nan"), mean_q=float("-inf"), bc_loss=float("inf"))
        parsed = MetricsRecord.from_line(rec.to_line())
        assert parsed.to_line() == rec.to_line()

    def test_fault_flag_round_trips_as_bool(self):
        for fault in (False, True):
            parsed = MetricsRecord.from_line(sample_record(fault=fault).to_line())
            assert parsed.fault is fault

    def test_blank_torn_tail_keeps_the_last_record(self, tmp_path):
        path = tmp_path / "metrics.log"
        path.write_text(f"{COMPLETE.format(1)}\n{COMPLETE.format(2)}\n  ")
        records, dropped = load_metrics(path)
        assert [r.step for r in records] == [1, 2] and dropped == 0

    def test_undecodable_log_rejected(self, tmp_path):
        path = tmp_path / "metrics.log"
        path.write_bytes(b"step=1 epoch=0\nstep=\xff epoch=0\n")
        with pytest.raises(FormatError):
            load_metrics(path)

    def test_export_plot_data(self):
        records = [sample_record(step=1), sample_record(step=2, mean_q=None)]
        text = export_plot_data(records, ["critic_loss", "mean_q"])
        lines = text.strip().split("\n")
        assert lines[0] == "step,critic_loss,mean_q"
        assert lines[1].startswith("1,1.25,")
        assert lines[2].endswith(",")  # missing mean_q is an empty cell

    def test_export_empty_is_header_only(self):
        assert export_plot_data([], ["critic_loss"]) == "step,critic_loss\n"

    def test_export_unknown_field_rejected(self):
        with pytest.raises(FormatError):
            export_plot_data([], ["nope"])


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        arrays = {
            "a/w": rng.standard_normal((3, 4)),
            "b/v": np.arange(5, dtype=np.int64),
            "c/s": np.array(3.25),
        }
        meta = {"config": "x=1;y=2", "env_id": "chain2"}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, arrays, meta)
        loaded_arrays, loaded_meta = load_checkpoint(path)
        assert loaded_meta == meta
        for k in arrays:
            assert np.array_equal(loaded_arrays[k], arrays[k])
            assert loaded_arrays[k].dtype == arrays[k].dtype

    def test_deterministic_bytes(self, tmp_path, rng):
        arrays = {"w": rng.standard_normal((4, 4))}
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, arrays, {"k": "v"})
        save_checkpoint(b, arrays, {"k": "v"})
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_rejected(self, tmp_path, rng):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": rng.standard_normal((8, 8))}, {})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 13])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOTACKPTxxxxxxx")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path, rng):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": rng.standard_normal(3)}, {})
        data = bytearray(path.read_bytes())
        data[8] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(VersionError):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ["key", "value"])
    def test_bad_utf8_string_rejected(self, tmp_path, rng, text):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": rng.standard_normal(3)}, {"key": "value"})
        data = bytearray(path.read_bytes())
        data[data.index(text.encode())] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_overflowing_shape_rejected(self, tmp_path):
        # 2**62 * 4 elements wrap around to 0 in int64 arithmetic
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.zeros((5, 4))}, {})
        data = path.read_bytes()
        path.write_bytes(data.replace(struct.pack("<Q", 5), struct.pack("<Q", 2**62), 1))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("size", [8, 9, 10, 11])
    def test_cut_inside_the_version_rejected(self, tmp_path, size):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {}, {})
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_empty_array_with_overflowing_shape_rejected(self, tmp_path):
        # no elements, but 2**62 x 4 x 8 bytes is more than numpy can address
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.zeros((0, 4))}, {})
        data = path.read_bytes()
        path.write_bytes(data.replace(struct.pack("<Q", 4), struct.pack("<Q", 2**62), 1))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_bytes_after_the_last_array_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.zeros((2, 2))}, {"k": "v"})
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(FormatError, match="7 bytes after the last array") as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    def test_repeated_metadata_key_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.zeros(2)}, {"ka": "first", "kb": "second"})
        path.write_bytes(path.read_bytes().replace(b"kb", b"ka"))
        with pytest.raises(FormatError, match="metadata key 'ka' repeated") as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    def test_repeated_array_name_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"wa": np.zeros(2), "wb": np.ones(3)}, {"k": "v"})
        path.write_bytes(path.read_bytes().replace(b"wb", b"wa"))
        with pytest.raises(FormatError, match="array 'wa' repeated") as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize(
        "array",
        [np.arange(12.0).reshape(3, 4).T, np.float64(2.5) * np.ones(()), np.arange(6).reshape(2, 3)[:, ::2]],
        ids=["transposed-float64", "0-d", "strided-int64"],
    )
    def test_non_contiguous_array_writes_its_contiguous_bytes(self, tmp_path, array):
        save_checkpoint(tmp_path / "view.ckpt", {"w": array}, {})
        save_checkpoint(tmp_path / "copy.ckpt", {"w": array.copy(order="C")}, {})
        assert (tmp_path / "view.ckpt").read_bytes() == (tmp_path / "copy.ckpt").read_bytes()
        arrays, _ = load_checkpoint(tmp_path / "view.ckpt")
        assert arrays["w"].shape == array.shape and np.array_equal(arrays["w"], array)
