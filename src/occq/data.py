"""Offline dataset container, persistence, and contrastive batch sampling.

A dataset is a list of logged trajectories plus environment metadata.  The
on-disk format is line based: a header, then one episode per line with
length-prefixed arrays.  Floats are stored as C99 hex literals so that a
save/load round trip is bit exact.

Batches pair each anchor ``(s_t, a_t)`` of a uniformly drawn episode with a
future state ``s_{t+dt}``, the offset drawn from the truncated geometric
law over the remaining episode; the anchors of one additional episode join
the batch so the in-batch negatives are not all from a single trajectory.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter

import numpy as np

from .envs import Env, SpaceInfo, Trajectory, rollout
from .errors import FormatError, InvalidSpec, RewardRequired, VersionError
from .fileio import _read_count, _read_hex, read_text, replacing
from .truncgeom import sample_supports

_MAGIC = "occq-dataset"
_VERSION = 1
# What equality compares besides the episodes' arrays and terminal flags.
_METADATA = attrgetter(
    "env_id", "gamma", "horizon", "rewards_available", "behavior_descriptor", "space", "n_episodes"
)


@dataclass(eq=False)
class OfflineDataset:
    """Immutable-after-load collection of episodes from one environment."""

    episodes: list[Trajectory]
    env_id: str
    gamma: float
    horizon: int
    rewards_available: bool
    behavior_descriptor: str
    space: SpaceInfo
    # Mutable diagnostics; never serialized and never part of equality.
    reward_reads: int = field(default=0, compare=False)
    skipped_episodes: int = field(default=0, compare=False)

    def __post_init__(self):
        """Raise ``InvalidSpec`` with ``episode``, the index of the first episode that breaks a
        rule, if any does; the episodes are checked together first, one by one only to find it."""
        if self.episodes and self._broken_rule(self.episodes):
            index, rule = next((i, r) for i, ep in enumerate(self.episodes) if (r := self._broken_rule([ep])))
            exc = InvalidSpec(rule)
            exc.episode = index
            raise exc

    def _broken_rule(self, episodes: list[Trajectory]) -> str | None:
        """The first episode rule that ``episodes`` break, or None: one more state than actions, at most
        ``horizon`` steps, rewards exactly when ``rewards_available`` (then one finite reward per
        action), and on a vector space every state and action within the bounds."""
        for ep in episodes:
            if len(ep.states) != ep.n_steps + 1:
                return "need exactly one more state than actions"
            if ep.n_steps > self.horizon:
                return f"{ep.n_steps} steps, more than the horizon {self.horizon}"
            if (ep.rewards is not None) != self.rewards_available:
                missing = "no rewards, yet rewards_available is 1"
                return "rewards, yet rewards_available is 0" if ep.rewards is not None else missing
            if ep.rewards is not None and len(ep.rewards) != ep.n_steps:
                return "need one reward per action"
        if self.rewards_available and not np.isfinite(np.concatenate([ep.rewards for ep in episodes])).all():
            return "non-finite reward"
        if self.space.state_kind == "vector":
            s = self.space
            bounds = ((s.state_low, s.state_high), (s.action_low, s.action_high))
            columns = (np.concatenate([getattr(ep, k) for ep in episodes]) for k in ("states", "actions"))
            if not all(np.all((np.array(lo) <= x) & (x <= np.array(hi))) for x, (lo, hi) in zip(columns, bounds)):
                return "state or action outside the space's bounds"
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, OfflineDataset):
            return NotImplemented
        return _METADATA(self) == _METADATA(other) and all(
            a.terminal == b.terminal
            and all(map(np.array_equal, (a.states, a.actions, a.rewards), (b.states, b.actions, b.rewards)))
            for a, b in zip(self.episodes, other.episodes)
        )

    @property
    def n_episodes(self) -> int:
        return len(self.episodes)

    @cached_property
    def _usable_episodes(self) -> list[int]:
        """Indices of the episodes with at least two states, found at the
        first draw; the episode list must not change after that."""
        return [i for i, ep in enumerate(self.episodes) if ep.length >= 2]


@dataclass(eq=False)
class ContrastiveBatch:
    """Anchor/positive pairs for one critic step.

    ``future_rewards[i]`` is the reward labelling ``positives[i]``; None for
    reward-free batches.  ``batch_size`` equals the number of anchors.
    """

    anchor_states: np.ndarray
    anchor_actions: np.ndarray
    positives: np.ndarray
    offsets: np.ndarray
    future_rewards: np.ndarray | None
    batch_size: int


def generate_dataset(env: Env, behavior, n_episodes: int, seed: int) -> OfflineDataset:
    """Roll out ``behavior`` for ``n_episodes``; deterministic under seed."""
    if n_episodes < 1:
        raise InvalidSpec("need at least one episode")
    rng = np.random.default_rng(seed)
    episodes = [rollout(env, behavior, rng, max_len=env.horizon) for _ in range(n_episodes)]
    descriptor = getattr(behavior, "descriptor", "custom")
    return OfflineDataset(
        episodes=episodes,
        env_id=env.env_id,
        gamma=env.gamma,
        horizon=env.horizon,
        rewards_available=True,
        behavior_descriptor=descriptor,
        space=env.space,
    )


def strip_rewards(dataset: OfflineDataset) -> OfflineDataset:
    """Same transitions, no reward signal; idempotent."""
    episodes = [
        Trajectory(states=ep.states, actions=ep.actions, rewards=None, terminal=ep.terminal)
        for ep in dataset.episodes
    ]
    return replace(dataset, episodes=episodes, rewards_available=False, reward_reads=0, skipped_episodes=0)


def _episode_pairs(ep: Trajectory, gamma: float, rng: np.random.Generator, include_rewards: bool):
    anchor_t = np.arange(ep.n_steps)
    supports = (ep.length - 1) - anchor_t  # remaining future states per anchor
    offsets = sample_supports(1.0 - gamma, supports, rng)
    positives = ep.states[anchor_t + offsets]
    rewards = None
    if include_rewards:
        rewards = ep.rewards[anchor_t + offsets - 1]
    return ep.states[:-1], ep.actions, positives, offsets, rewards


def sample_batch(
    dataset: OfflineDataset,
    gamma: float,
    rng: np.random.Generator,
    include_rewards: bool = True,
) -> ContrastiveBatch:
    """Draw a contrastive batch (one episode's anchors plus a second
    episode's for cross-trajectory negatives).

    Episodes with fewer than two states are skipped and counted in the
    dataset's ``skipped_episodes`` diagnostic.
    """
    if include_rewards and not dataset.rewards_available:
        raise RewardRequired("dataset is reward-free")
    if not 0.0 <= gamma < 1.0:
        raise InvalidSpec("gamma must lie in [0, 1)")

    usable = dataset._usable_episodes
    if not usable:
        raise InvalidSpec("no episode has at least two states")

    chosen: list[int] = []
    while len(chosen) < min(2, len(usable)):
        i = int(rng.integers(len(dataset.episodes)))
        if dataset.episodes[i].length < 2:
            dataset.skipped_episodes += 1
        elif i not in chosen:
            chosen.append(i)

    columns = list(zip(*(_episode_pairs(dataset.episodes[i], gamma, rng, include_rewards) for i in chosen)))
    anchor_states, anchor_actions, positives, offsets = map(np.concatenate, columns[:4])
    rewards = None
    if include_rewards:
        rewards = np.concatenate(columns[4])
        dataset.reward_reads += len(rewards)
    return ContrastiveBatch(
        anchor_states=anchor_states,
        anchor_actions=anchor_actions,
        positives=positives,
        offsets=offsets,
        future_rewards=rewards,
        batch_size=len(offsets),
    )


def state_action_frequencies(dataset: OfflineDataset, n_states: int, n_actions: int) -> np.ndarray:
    """Empirical (s, a) visit frequencies of a tabular dataset."""
    if dataset.space.state_kind != "index":
        raise InvalidSpec("frequencies need a tabular dataset")
    counts = np.zeros((n_states, n_actions))
    for ep in dataset.episodes:
        np.add.at(counts, (ep.states[:-1], ep.actions), 1.0)
    total = counts.sum()
    if total == 0:
        raise InvalidSpec("dataset has no transitions")
    return counts / total


# -- persistence -------------------------------------------------------------


def _hex(x: float) -> str:
    return float(x).hex()


# Each array kind's element type and the text of one element.
_ELEMENT = {"index": (np.int64, str), "vector": (np.float64, float.hex)}


def _write_array(out: list[str], arr: np.ndarray, kind: str):
    dtype, text = _ELEMENT[kind]
    out.append(str(arr.shape[0]))
    out.extend(map(text, arr.astype(dtype, copy=False).reshape(-1).tolist()))


def _hex_float(token: str, line: int) -> float:
    """``token`` as ``float.hex`` writes it (``fileio._read_hex``); anything else raises
    ``FormatError`` at ``line``."""
    try:
        return _read_hex(token)
    except (ValueError, OverflowError):
        raise FormatError(f"expected hex float, got {token!r}", line=line) from None


class _TokenReader:
    def __init__(self, tokens: list[str], line: int):
        self.tokens = tokens
        self.line = line
        self.pos = 0

    def take(self) -> str:
        if self.pos >= len(self.tokens):
            raise FormatError("truncated record", line=self.line)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def take_int(self, bound: int = 2**63) -> int:
        return _read_count(self.take(), self.line, bound)

    def take_float(self) -> float:
        return _hex_float(self.take(), self.line)

    def done(self):
        if self.pos != len(self.tokens):
            raise FormatError("trailing tokens", line=self.line)


def _read_array(reader: _TokenReader, kind: str, width: int, bound: int = 2**63, per_token: bool = False) -> np.ndarray:
    """A count ``n``, then ``n`` indices in [0, ``bound``) or ``n`` rows of ``width`` hex floats.

    The tokens are converted in one pass: indices after one check that their joined text is
    ASCII digits, floats by ``float.fromhex``, whose stray forms ``_read_record`` catches for the
    whole record.  With ``per_token``, or when the pass fails, they are read one by one, to name
    the first bad token or to read ``nan`` and ``inf``.  A count beyond the line's end is a
    truncated record, unless a token before the end is bad."""
    n = reader.take_int()
    size = n if kind == "index" else n * width
    tokens = reader.tokens[reader.pos : reader.pos + size]
    reader.pos += len(tokens)
    try:
        if kind == "index":
            joined = "".join(tokens)
            if not (joined.isascii() and joined.isdigit()):
                raise ValueError
            values = list(map(int, tokens))
            if values and max(values) >= bound:
                raise ValueError
        elif per_token:
            raise ValueError
        else:
            values = list(map(float.fromhex, tokens))
    except (ValueError, OverflowError):
        if kind == "index":
            values = [_read_count(tok, reader.line, bound) for tok in tokens]
        else:  # a count past the line's end takes in the integer fields after it: left to the truncation check
            truncated = len(tokens) < size
            values = [_hex_float(tok, reader.line) for tok in tokens if not (truncated and tok.isdigit())]
    if len(tokens) < size:
        raise FormatError("truncated record", line=reader.line)
    arr = np.array(values, dtype=_ELEMENT[kind][0])
    return arr if kind == "index" else arr.reshape(n, width)


def _read_record(line: str, lineno: int, space: SpaceInfo, per_token: bool = False):
    """An episode record: states, actions, rewards and the terminal flag.

    ``float.fromhex`` also reads a float without its ``0x`` (``-0.1`` as -0x0.1), so the
    line's count of ``x`` must equal its count of float tokens: one ``x`` each, in ``0x``, and
    none in an integer.  It also reads ``+0x``, which ``float.hex`` never writes: an exponent's
    digits are followed by whitespace, so ``+0x`` in the line is a signed token.  Otherwise
    the record is read again token by token."""
    reader = _TokenReader(line.split(), line=lineno)
    states = _read_array(reader, space.state_kind, space.state_dim, space.n_states, per_token)
    actions = _read_array(reader, space.state_kind, space.action_dim, space.n_actions, per_token)
    rewards = _read_array(reader, "vector", 1, per_token=per_token).reshape(-1)
    terminal = bool(reader.take_int(2))
    reader.done()
    floats = rewards.size + (states.size + actions.size if space.state_kind == "vector" else 0)
    if not per_token and (line.count("x") != floats or "+0x" in line):
        return _read_record(line, lineno, space, per_token=True)
    return states, actions, rewards, terminal


_BOUNDS = ("state_low", "state_high", "action_low", "action_high")  # a vector space's bounds, in file order


def _space_tokens(s: SpaceInfo) -> list[str]:
    if s.state_kind == "index":
        return ["index", str(s.n_states), str(s.n_actions)]
    bounds = [_hex(v) for name in _BOUNDS for v in getattr(s, name)]
    return ["vector", str(s.state_dim), str(s.action_dim), *bounds]


def _read_space(reader: _TokenReader) -> SpaceInfo:
    kind = reader.take()
    if kind == "index":
        return SpaceInfo("index", n_states=reader.take_int(), n_actions=reader.take_int())
    if kind != "vector":
        raise FormatError(f"unknown space kind {kind!r}", line=reader.line)
    sd, ad = reader.take_int(), reader.take_int()
    bounds = {name: tuple(reader.take_float() for _ in range(n)) for name, n in zip(_BOUNDS, (sd, sd, ad, ad))}
    try:
        return SpaceInfo("vector", state_dim=sd, action_dim=ad, **bounds)
    except InvalidSpec as exc:
        raise FormatError(str(exc), line=reader.line) from None


# The header lines after the magic line, in file order: (key, the dataset's
# text after the key, the reader that parses that text back).
_HEADER = (
    ("env_id", lambda d: d.env_id.replace(" ", "_"), _TokenReader.take),
    ("gamma", lambda d: _hex(d.gamma), _TokenReader.take_float),
    ("horizon", lambda d: str(d.horizon), _TokenReader.take_int),
    ("rewards_available", lambda d: str(int(d.rewards_available)), lambda r: bool(r.take_int(2))),
    ("behavior", lambda d: d.behavior_descriptor.replace(" ", "_"), _TokenReader.take),
    ("space", lambda d: " ".join(_space_tokens(d.space)), _read_space),
    ("episodes", lambda d: str(d.n_episodes), _TokenReader.take_int),
)


def save(dataset: OfflineDataset, path):
    """Write the dataset in the line-based, bit-exact text format."""
    buf = io.StringIO()
    buf.write(f"{_MAGIC} v{_VERSION}\n")
    for key, text, _ in _HEADER:
        buf.write(f"{key} {text(dataset)}\n")
    for ep in dataset.episodes:
        out: list[str] = []
        _write_array(out, ep.states, dataset.space.state_kind)
        _write_array(out, ep.actions, dataset.space.state_kind)
        _write_array(out, np.empty(0) if ep.rewards is None else ep.rewards, "vector")
        out.append(str(int(ep.terminal)))
        buf.write(" ".join(out) + "\n")
    with replacing(path) as fh:
        fh.write(buf.getvalue().encode("utf-8"))


def _header(lines: list[str], idx: int, key: str, take):
    """Parse header line ``idx``: the word ``key``, ``take(reader)``, then nothing else."""
    reader = _TokenReader(lines[idx].split() if idx < len(lines) else [], line=idx + 1)
    if reader.tokens[:1] != [key]:
        raise FormatError(f"expected header {key!r}", line=idx + 1)
    reader.pos = 1
    value = take(reader)
    reader.done()
    return value


def load(path) -> OfflineDataset:
    """Read a dataset written by ``save``; exact field-by-field inverse.  A token that does not
    parse, an index outside the header's space, or a record that breaks an episode rule of
    ``OfflineDataset`` raises ``FormatError`` naming its line."""
    lines = read_text(path).splitlines()
    if not lines:
        raise FormatError("empty file", line=1)
    magic = lines[0].split()
    if not magic or magic[0] != _MAGIC:
        raise FormatError("not a dataset file", line=1)
    if len(magic) != 2 or magic[1] != f"v{_VERSION}":
        raise VersionError(f"unsupported dataset version {' '.join(magic[1:])!r}")
    env_id, gamma, horizon, rewards_available, behavior, space, n_episodes = (
        _header(lines, idx, key, take) for idx, (key, _, take) in enumerate(_HEADER, start=1)
    )
    body = len(_HEADER) + 1
    if len(lines) - body != n_episodes:
        raise FormatError(f"{n_episodes} episode records declared, {len(lines) - body} found")
    episodes = []
    for lineno, line in enumerate(lines[body:], start=body + 1):
        states, actions, rewards, terminal = _read_record(line, lineno, space)
        if not rewards_available and not rewards.size:
            rewards = None
        episodes.append(Trajectory(states=states, actions=actions, rewards=rewards, terminal=terminal))
    try:
        return OfflineDataset(
            episodes=episodes,
            env_id=env_id,
            gamma=gamma,
            horizon=horizon,
            rewards_available=rewards_available,
            behavior_descriptor=behavior,
            space=space,
        )
    except InvalidSpec as exc:
        raise FormatError(str(exc), line=body + 1 + exc.episode) from None
