"""Fuzzing the three file readers: damaged input raises only FormatError or VersionError.

Each reader gets a small valid file, damaged by truncation, byte flips, and
header/field swaps: two lines exchanged, one field replaced by another of the
file's fields or by an awkward token (negative, huge, non-finite, overflowing,
not UTF-8).  The reader may accept the result or raise ``FormatError`` or
``VersionError``; any other exception fails the test.  The ``@example`` inputs
are damaged files that once escaped as other exception types.  Undamaged
datasets drawn at random must come back from ``save`` then ``load`` bit for bit.
"""

import contextlib
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from occq.checkpoint import load_checkpoint, save_checkpoint
from occq.data import OfflineDataset, load, save
from occq.envs import SpaceInfo, Trajectory
from occq.errors import FormatError, VersionError
from occq.metrics import load_metrics

FUZZ = settings(max_examples=300, derandomize=True, deadline=None)

# A tabular dataset with rewards (its second episode has no steps) and a
# reward-free vector one.
TABULAR = b"""occq-dataset v1
env_id chain2
gamma 0x1.ccccccccccccdp-1
horizon 10
rewards_available 1
behavior uniform_random
space index 2 2
episodes 2
3 0 1 1 2 0 0 2 0x1.0000000000000p+0 0x1.0000000000000p+0 0
1 0 0 0 0
"""
VECTOR = b"""occq-dataset v1
env_id mountain_car
gamma 0x1.fae147ae147aep-1
horizon 999
rewards_available 0
behavior scripted_mc(sigma=0.3)
space vector 2 1 -0x1.3333333333333p+0 -0x1.1eb851eb851ecp-4 0x1.3333333333333p-1 0x1.1eb851eb851ecp-4 \
-0x1.0000000000000p+0 0x1.0000000000000p+0
episodes 1
3 -0x1.fd9434d6d24a8p-2 0x0.0p+0 -0x1.fc3dfbfd91df5p-2 0x1.5638d9406b309p-10 -0x1.f994194403ce9p-2 \
0x1.54f15cc7085f6p-9 2 0x1.0000000000000p+0 0x1.0000000000000p+0 0 0
"""
METRICS = b"""step=1 epoch=0 critic_loss=0x1.4000000000000p+0 partition_reg=0x1.0624dd2f1a9fcp-8 \
positive_logit_mean=0x1.3333333333333p-2 policy_kl_loss=-0x1.6666666666666p-1 mean_q=0x1.0000000000000p+1 \
critic_grad_norm=0x1.0000000000000p-1 fault=0
step=2 epoch=0 critic_loss=nan partition_reg=nan positive_logit_mean=nan fault=1
step=3 epoch=1 critic_loss=-0x1.0000000000000p-1 partition_reg=0x0.0p+0 positive_logit_mean=0x1.7e43c8800759cp+996 \
bc_loss=0x1.999999999999ap-4 policy_grad_norm=0x0.0000000000001p-1022 fault=0
"""
AWKWARD = [b"", b"-1", b"0", b"inf", b"-inf", b"nan", b"0x1p2000", b"1e999", b"x", b"\xff",
           b"9" * 4400, b"18446744073709551616", b"="]


def _checkpoint(meta, arrays):
    """Checkpoint v1 bytes, laid out independently of ``checkpoint.py``:
    ``arrays`` holds (name, dtype code, shape, payload) in file order."""
    out = [b"OCCQCKPT", struct.pack("<II", 1, len(meta))]
    for text in (s for kv in meta for s in kv):
        out += [struct.pack("<I", len(text)), text]
    out.append(struct.pack("<I", len(arrays)))
    for name, code, shape, payload in arrays:
        out += [struct.pack("<I", len(name)), name, struct.pack(f"<BB{len(shape)}Q", code, len(shape), *shape)]
        out.append(payload)
    return b"".join(out)


WEIGHTS = np.array([[0.5, -1.25, 3.0], [1e-300, np.pi, -0.0]])
CHECKPOINT = _checkpoint(
    [(b"config", b"gamma=0.9;seed=3"), (b"env_id", b"chain2")],
    [
        (b"a/w", 0, (2, 3), WEIGHTS.tobytes()),
        (b"b/i", 1, (4,), np.arange(4, dtype=np.int64).tobytes()),
        (b"c", 0, (), b"\0" * 8),
    ],
)


def _damaged(seed: bytes, fields: st.SearchStrategy) -> st.SearchStrategy:
    """Truncations and byte flips of ``seed``, plus the format's own ``fields`` damage."""

    def flip(edits):
        buf = bytearray(seed)
        for pos, value in edits:
            buf[pos] = value
        return bytes(buf)

    return st.one_of(
        st.integers(0, len(seed) - 1).map(lambda n: seed[:n]),
        st.lists(st.tuples(st.integers(0, len(seed) - 1), st.integers(0, 255)), min_size=1, max_size=3).map(flip),
        fields,
    )


def _text_fields(seed: bytes) -> st.SearchStrategy:
    """Two lines swapped, or one token (a key or a value) replaced."""
    lines = seed.split(b"\n")
    spans = [m.span() for m in re.finditer(rb"[^\s=]+", seed)]

    def swap(i, j):
        out = list(lines)
        out[i], out[j] = out[j], out[i]
        return b"\n".join(out)

    def replace(i, token):
        start, end = spans[i]
        return seed[:start] + token + seed[end:]

    line = st.integers(0, len(lines) - 1)
    span = st.integers(0, len(spans) - 1)
    token = st.sampled_from(AWKWARD) | span.map(lambda j: seed[slice(*spans[j])])
    return st.tuples(line, line).map(lambda ij: swap(*ij)) | st.tuples(span, token).map(lambda it: replace(*it))


def _binary_fields(seed: bytes) -> st.SearchStrategy:
    """One 1-, 4- or 8-byte little-endian field anywhere overwritten with an edge value."""
    words = [struct.pack("<B", 255), struct.pack("<I", 2**32 - 1), struct.pack("<I", 7)]
    words += [struct.pack("<Q", v) for v in (0, 2**62, 2**64 - 1)]

    def overwrite(pos, word):
        return seed[:pos] + word + seed[pos + len(word) :]

    return st.tuples(st.integers(0, len(seed) - 1), st.sampled_from(words)).map(lambda pw: overwrite(*pw))


def _only_format_errors(reader, path, blob: bytes):
    path.write_bytes(blob)
    with contextlib.suppress(FormatError, VersionError):
        reader(path)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "file"


@pytest.mark.parametrize("seed", [TABULAR, VECTOR], ids=["tabular", "vector"])
def test_dataset_seeds_load_and_save_back(scratch, seed):
    scratch.write_bytes(seed)
    save(load(scratch), scratch)
    assert scratch.read_bytes() == seed


TINY = 5e-324  # the smallest subnormal


@st.composite
def _datasets(draw):
    """Small datasets of either space kind.  Vector values include the space's bounds, both
    zeros and subnormals; index values include 0 and n - 1."""
    if draw(st.booleans()):
        sizes = draw(st.integers(1, 6)), draw(st.integers(1, 4))
        space = SpaceInfo("index", n_states=sizes[0], n_actions=sizes[1])
        values = [st.sampled_from([0, n - 1]) | st.integers(0, n - 1) for n in sizes]
        shape, dtype = (), np.int64
    else:
        dims = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        lows = [tuple(draw(st.floats(-1e300, -TINY)) for _ in range(d)) for d in dims]
        highs = [tuple(draw(st.floats(TINY, 1e300)) for _ in range(d)) for d in dims]
        space = SpaceInfo("vector", state_dim=dims[0], action_dim=dims[1], state_low=lows[0],
                          state_high=highs[0], action_low=lows[1], action_high=highs[1])
        values = [
            st.tuples(*(st.sampled_from([lo, hi, 0.0, -0.0, TINY, -TINY]) | st.floats(lo, hi) for lo, hi in zip(*b)))
            for b in zip(lows, highs)
        ]
        shape, dtype = dims, np.float64

    def array(k, rows):
        """``rows`` states (``k`` 0) or actions (``k`` 1)."""
        drawn = draw(st.lists(values[k], min_size=rows, max_size=rows))
        return np.array(drawn, dtype=dtype).reshape((rows, *shape[k:k + 1]))

    rewarded = draw(st.booleans())
    reward = st.sampled_from([0.0, -0.0, TINY, -TINY]) | st.floats(allow_nan=False, allow_infinity=False)
    episodes = []
    for steps in draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)):
        rewards = np.array(draw(st.lists(reward, min_size=steps, max_size=steps)), dtype=np.float64)
        terminal = draw(st.booleans())
        episodes.append(Trajectory(array(0, steps + 1), array(1, steps), rewards if rewarded else None, terminal))
    gamma = draw(st.floats(0.0, 1.0, exclude_max=True))
    return OfflineDataset(episodes, "drawn", gamma, 4, rewarded, "drawn", space)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(dataset=_datasets())
def test_dataset_save_load_is_bit_exact(scratch, dataset):
    save(dataset, scratch)
    loaded = load(scratch)
    assert loaded == dataset
    for a, b in zip(loaded.episodes, dataset.episodes):
        for x, y in zip((a.states, a.actions, a.rewards), (b.states, b.actions, b.rewards)):
            assert x is y is None or (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def test_checkpoint_seed_is_what_save_checkpoint_writes(scratch):
    arrays = {"a/w": WEIGHTS, "b/i": np.arange(4, dtype=np.int64), "c": np.array(0.0)}
    save_checkpoint(scratch, arrays, {"env_id": "chain2", "config": "gamma=0.9;seed=3"})
    assert scratch.read_bytes() == CHECKPOINT


@FUZZ
@given(blob=_damaged(TABULAR, _text_fields(TABULAR)) | _damaged(VECTOR, _text_fields(VECTOR)))
@example(blob=TABULAR.replace(b"gamma 0x1.ccccccccccccdp-1", b"gamma 0x1p2000"))
@example(blob=TABULAR.replace(b"2 0x1.0000000000000p+0 0x1", b"2 inf 0x1"))
@example(blob=TABULAR.replace(b"\n3 0 1 1", b"\n3 0 1 18446744073709551616"))
@example(blob=VECTOR.replace(b"mountain_car", b"mountain\xffcar"))
def test_dataset_reader_raises_only_format_errors(scratch, blob):
    _only_format_errors(load, scratch, blob)


@FUZZ
@given(blob=_damaged(METRICS, _text_fields(METRICS)))
@example(blob=METRICS.replace(b"critic_loss=nan", b"critic_loss=0x1p2000"))
@example(blob=METRICS.replace(b"step=2", b"step=\xff"))
def test_metrics_reader_raises_only_format_errors(scratch, blob):
    _only_format_errors(load_metrics, scratch, blob)


@FUZZ
@given(blob=_damaged(CHECKPOINT, _binary_fields(CHECKPOINT)))
@example(blob=CHECKPOINT[:8])
@example(blob=CHECKPOINT[:11])
@example(blob=_checkpoint([], [(b"w", 0, (0, 2**62), b"")]))
def test_checkpoint_reader_raises_only_format_errors(scratch, blob):
    _only_format_errors(load_checkpoint, scratch, blob)
