"""Environments and behavior policies that produce the offline data.

Two environment families are provided:

* ``TabularMDP`` -- finite states/actions with a dense transition tensor,
  state-based rewards, and an explicit start distribution.  Tabular episodes
  never terminate early; an absorbing goal cell plays that role instead.
* ``MountainCarEnv`` -- the continuous car-on-a-hill problem with force
  actions in [-1, 1].  Episodes end when the car reaches the goal position
  or the horizon runs out.

Reward convention: the reward stored at index ``t`` of a trajectory labels
the state reached at ``t + 1``.  Downstream Q estimation only ever consumes
rewards at future states, so environments whose natural reward depends on
the action fold it into the post-transition reward.
"""

from __future__ import annotations

import inspect
import math
import os
import typing
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .config import _parse_value, read_kv
from .errors import InvalidAction, InvalidSpec, NumericalFault
from .fileio import read_text

UP, RIGHT, DOWN, LEFT = 0, 1, 2, 3
_GRID_MOVES = {UP: (-1, 0), RIGHT: (0, 1), DOWN: (1, 0), LEFT: (0, -1)}

_PROB_TOL = 1e-9


@dataclass(frozen=True)
class SpaceInfo:
    """Shape metadata for an environment's state and action spaces."""

    state_kind: str  # "index" | "vector"; actions are of the same kind
    n_states: int = 0
    n_actions: int = 0
    state_dim: int = 0
    action_dim: int = 0
    state_low: tuple[float, ...] = ()
    state_high: tuple[float, ...] = ()
    action_low: tuple[float, ...] = ()
    action_high: tuple[float, ...] = ()

    def __post_init__(self):
        """A vector space needs, per state and action dimension, a finite low below a finite high."""
        dims = ((self.state_low, self.state_high, self.state_dim), (self.action_low, self.action_high, self.action_dim))
        if self.state_kind == "vector" and not all(
            len(lows) == len(highs) == n and all(-math.inf < lo < hi < math.inf for lo, hi in zip(lows, highs))
            for lows, highs, n in dims
        ):
            raise InvalidSpec("space bounds need one finite low below a finite high per dimension")


def _check_env(env, **values):
    """The rules every environment keeps: each of ``values`` finite, gamma in [0, 1), a positive
    horizon, and a space that ``SpaceInfo`` accepts."""
    if not_finite := [name for name, value in values.items() if not np.isfinite(value).all()]:
        raise InvalidSpec(f"{', '.join(not_finite)} must be finite")
    if not (0.0 <= env.gamma < 1.0):
        raise InvalidSpec("gamma must lie in [0, 1)")
    if env.horizon < 1:
        raise InvalidSpec("horizon must be positive")
    env.space  # builds, and so checks, the space


@dataclass(frozen=True, eq=False)
class TabularMDP:
    """Finite MDP with dense dynamics and state-based rewards.

    transition[s, a, s'] is the probability of landing in s'; reward[s] is
    collected upon *entering* s.  ``reward_range`` records (r_min, r_max).
    """

    n_states: int
    n_actions: int
    transition: np.ndarray  # (S, A, S)
    reward: np.ndarray  # (S,)
    start_dist: np.ndarray  # (S,)
    gamma: float
    horizon: int
    env_id: str = "tabular"
    reward_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if self.n_states < 1 or self.n_actions < 1:
            raise InvalidSpec("need at least one state and one action")
        if self.transition.shape != (self.n_states, self.n_actions, self.n_states):
            raise InvalidSpec(f"transition shape {self.transition.shape} does not match spaces")
        _check_env(self, **{k: getattr(self, k) for k in ("transition", "reward", "start_dist", "reward_range")})
        if np.any(self.transition < 0):
            raise InvalidSpec("negative transition probability")
        rowsums = self.transition.sum(axis=2)
        if np.max(np.abs(rowsums - 1.0)) > _PROB_TOL:
            raise InvalidSpec("transition rows must sum to 1")
        if self.start_dist.shape != (self.n_states,) or abs(self.start_dist.sum() - 1.0) > _PROB_TOL:
            raise InvalidSpec("start_dist must be a distribution over states")
        if self.reward.shape != (self.n_states,):
            raise InvalidSpec("reward must be one value per state")
        lo, hi = self.reward_range
        if np.any(self.reward < lo) or np.any(self.reward > hi):
            raise InvalidSpec("reward outside declared reward_range")

    @property
    def space(self) -> SpaceInfo:
        return SpaceInfo(
            state_kind="index",
            n_states=self.n_states,
            n_actions=self.n_actions,
        )


@dataclass(frozen=True)
class MountainCarEnv:
    """Continuous mountain car with force actions in [-1, 1].

    Dynamics: velocity += force * action - gravity * cos(3 * position),
    both coordinates clamped to their ranges.  Reaching goal_position ends
    the episode.  Per-step reward is -action_cost * action**2, plus
    goal_reward on the transition that reaches the goal.
    """

    min_position: float = -1.2
    max_position: float = 0.6
    max_speed: float = 0.07
    goal_position: float = 0.45
    force: float = 0.0015
    gravity: float = 0.0025
    action_cost: float = 0.1
    goal_reward: float = 100.0
    gamma: float = 0.99
    horizon: int = 999
    env_id: str = "mountain_car"

    def __post_init__(self):
        _check_env(self, **{k: v for k, v in vars(self).items() if k not in ("horizon", "env_id")})

    @property
    def space(self) -> SpaceInfo:
        return SpaceInfo(
            state_kind="vector",
            state_dim=2,
            action_dim=1,
            state_low=(self.min_position, -self.max_speed),
            state_high=(self.max_position, self.max_speed),
            action_low=(-1.0,),
            action_high=(1.0,),
        )


Env = Union[TabularMDP, MountainCarEnv]


@dataclass(eq=False)
class Trajectory:
    """One logged episode.

    ``rewards[t]`` labels ``states[t + 1]``; ``rewards`` is None for
    reward-free data.  ``terminal`` marks early termination (goal reached)
    as opposed to running out the horizon.
    """

    states: np.ndarray  # (T + 1,) indices or (T + 1, d) vectors
    actions: np.ndarray  # (T,) indices or (T, d) vectors
    rewards: np.ndarray | None  # (T,)
    terminal: bool = False

    @property
    def n_steps(self) -> int:
        return len(self.actions)

    @property
    def length(self) -> int:
        return len(self.states)


def _draw(cdf: np.ndarray, u):
    """Inverse-CDF draw for ``u`` in [0, 1): the first index along the last axis of ``cdf``
    whose cdf reaches ``u``; a cdf (..., K) and ``u`` (...) give indices (...).  A cdf summed
    in floating point can end just below 1; a ``u`` above its end draws the last index with
    positive mass."""
    u = np.minimum(u, cdf[..., -1])
    return (cdf < u[..., None]).sum(axis=-1)


def initial_state(env: Env, rng: np.random.Generator):
    """Sample a start state: tabular from start_dist, car near the valley."""
    if isinstance(env, TabularMDP):
        return int(_draw(np.cumsum(env.start_dist), rng.random()))
    position = rng.uniform(-0.6, -0.4)
    return np.array([position, 0.0])


def step(env: Env, state, action, rng: np.random.Generator):
    """Advance one step; returns (next_state, reward, done).

    Tabular episodes never signal done (goals are absorbing); the car is
    done once it reaches the goal position.
    """
    if isinstance(env, TabularMDP):
        a = int(action)
        if not 0 <= a < env.n_actions:
            raise InvalidAction(f"action {a} outside [0, {env.n_actions})")
        s = int(state)
        if not 0 <= s < env.n_states:
            raise InvalidSpec(f"state {s} outside [0, {env.n_states})")
        nxt = int(_draw(np.cumsum(env.transition[s, a]), rng.random()))
        return nxt, float(env.reward[nxt]), False

    state = np.asarray(state, dtype=np.float64)
    if not np.all(np.isfinite(state)):
        raise NumericalFault("non-finite mountain car state")
    a = float(np.asarray(action).reshape(-1)[0])
    if math.isnan(a):
        raise NumericalFault("NaN action")
    if abs(a) > 1.0 + 1e-9:
        raise InvalidAction(f"force {a} outside [-1, 1]")
    position, velocity = float(state[0]), float(state[1])
    velocity += env.force * a - env.gravity * math.cos(3.0 * position)
    velocity = min(max(velocity, -env.max_speed), env.max_speed)
    position += velocity
    position = min(max(position, env.min_position), env.max_position)
    if position <= env.min_position and velocity < 0.0:
        velocity = 0.0  # inelastic left wall
    done = position >= env.goal_position
    reward = -env.action_cost * a * a + (env.goal_reward if done else 0.0)
    return np.array([position, velocity]), reward, done


def rollout(env: Env, policy: Callable, rng: np.random.Generator, max_len: int) -> Trajectory:
    """Run ``policy`` for at most ``max_len`` steps, stopping early on done."""
    if not 1 <= max_len <= env.horizon:
        raise InvalidSpec(f"max_len {max_len} outside [1, horizon {env.horizon}]")
    state = initial_state(env, rng)
    states, actions, rewards = [state], [], []
    terminal = False
    for _ in range(max_len):
        action = policy(state, rng)
        if isinstance(env, TabularMDP):
            action = int(action)
        else:
            action = np.asarray(action, dtype=np.float64).reshape(-1)
            if not np.all(np.isfinite(action)):
                raise NumericalFault("policy emitted a non-finite action")
        state, reward, done = step(env, state, action, rng)
        actions.append(action)
        rewards.append(reward)
        states.append(state)
        if done:
            terminal = True
            break
    rewards = np.array(rewards, dtype=np.float64)
    if not np.isfinite(rewards).all():
        raise NumericalFault("non-finite reward in trajectory")
    dtype = np.int64 if isinstance(env, TabularMDP) else np.float64
    return Trajectory(np.array(states, dtype=dtype), np.array(actions, dtype=dtype), rewards, terminal)


def _grid_mdp(
    cells: dict[tuple[int, int], int],
    goal: int,
    starts: list[int],
    step_reward: float,
    goal_reward: float,
    slip_prob: float,
    gamma: float,
    horizon: int,
    env_id: str,
) -> TabularMDP:
    """Four-action grid MDP over ``cells`` ({(row, col): state index}).

    The goal is absorbing.  With probability ``slip_prob`` the agent moves
    in a uniformly random direction instead of the intended one; a move to
    a position outside ``cells`` (off the grid or into a wall) leaves it in
    place.  Starts are uniform over ``starts``, or over every non-goal cell
    when there are none.
    """
    if not 0.0 <= slip_prob < 1.0:
        raise InvalidSpec("slip_prob must lie in [0, 1)")
    n = len(cells)
    if n < 2:
        raise InvalidSpec("grid needs at least two cells")
    P = np.zeros((n, 4, n))
    for (r, c), s in cells.items():
        if s == goal:
            P[s, :, s] = 1.0
            continue
        moves = [cells.get((r + dr, c + dc), s) for dr, dc in _GRID_MOVES.values()]
        for a in range(4):
            P[s, a, moves[a]] += 1.0 - slip_prob
            for d in range(4):
                P[s, a, moves[d]] += slip_prob / 4.0
    reward = np.full(n, step_reward, dtype=np.float64)
    reward[goal] = goal_reward
    start = np.zeros(n)
    start[starts or [s for s in range(n) if s != goal]] = 1.0
    start /= start.sum()
    return TabularMDP(
        n_states=n,
        n_actions=4,
        transition=P,
        reward=reward,
        start_dist=start,
        gamma=gamma,
        horizon=horizon,
        env_id=env_id,
        reward_range=(float(min(step_reward, goal_reward)), float(max(step_reward, goal_reward))),
    )


def make_gridworld(
    width: int,
    height: int,
    goal_cell: int,
    step_reward: float = 0.0,
    goal_reward: float = 1.0,
    slip_prob: float = 0.0,
    gamma: float = 0.99,
    horizon: int = 50,
) -> TabularMDP:
    """Four-action gridworld with an absorbing goal.

    Cells are indexed row-major.  With probability ``slip_prob`` the agent
    moves in a uniformly random direction instead of the intended one;
    moving off the grid leaves the agent in place.  Start states are
    uniform over non-goal cells.
    """
    if width < 1 or height < 1:
        raise InvalidSpec("grid must have positive area")
    if not 0 <= goal_cell < width * height:
        raise InvalidSpec(f"goal cell {goal_cell} outside the grid")
    cells = {divmod(i, width): i for i in range(width * height)}
    env_id = f"gridworld-{width}x{height}-goal{goal_cell}-slip{slip_prob:g}"
    return _grid_mdp(cells, goal_cell, [], step_reward, goal_reward, slip_prob, gamma, horizon, env_id)


def gridworld_from_ascii(
    layout: str,
    step_reward: float = 0.0,
    goal_reward: float = 1.0,
    slip_prob: float = 0.0,
    gamma: float = 0.99,
    horizon: int = 50,
) -> TabularMDP:
    """Build a gridworld from an ASCII sketch.

    Characters: '.' free cell, '#' wall, 'G' goal (exactly one), 'S'
    optional start cell(s).  Walls are not states; bumping into one leaves
    the agent in place.
    """
    rows = [line for line in (l.rstrip() for l in layout.splitlines()) if line]
    if not rows:
        raise InvalidSpec("empty layout")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InvalidSpec("layout rows must have equal length")
    height = len(rows)
    free = [(r, c) for r in range(height) for c in range(width) if rows[r][c] != "#"]
    kinds = [rows[r][c] for r, c in free]
    if not set(kinds) <= set(".GS") or kinds.count("G") != 1:
        raise InvalidSpec(f"layout needs one 'G' and only '.#GS' cells, got {''.join(sorted(set(kinds)))!r}")
    cells = {cell: idx for idx, cell in enumerate(free)}
    goal = kinds.index("G")
    starts = [idx for idx, ch in enumerate(kinds) if ch == "S"]
    env_id = f"gridworld-ascii-{width}x{height}-goal{goal}-slip{slip_prob:g}"
    return _grid_mdp(cells, goal, starts, step_reward, goal_reward, slip_prob, gamma, horizon, env_id)


def epsilon_soft_table(greedy_table: np.ndarray, epsilon: float) -> np.ndarray:
    """Mix a deterministic policy table with the uniform one."""
    n_actions = greedy_table.shape[1]
    return (1.0 - epsilon) * greedy_table + epsilon / n_actions


def _uniform_random(env: Env):
    """Uniform over the env's actions."""
    if isinstance(env, TabularMDP):
        n = env.n_actions
        return (lambda state, rng: int(rng.integers(n))), "uniform_random"
    return (lambda state, rng: rng.uniform(-1.0, 1.0, size=1)), "uniform_random"


def _epsilon_soft_tabular(mdp: TabularMDP, epsilon: float):
    """Epsilon-greedy around the value-iteration policy of a tabular ``mdp``."""
    from .oracle import value_iteration  # local import avoids a cycle

    if not isinstance(mdp, TabularMDP):
        raise InvalidSpec(f"needs a tabular mdp, got {type(mdp).__name__}")
    epsilon = float(epsilon)
    if not 0.0 <= epsilon <= 1.0:
        raise InvalidSpec("epsilon must lie in [0, 1]")
    _, greedy = value_iteration(mdp)
    cdf = np.cumsum(epsilon_soft_table(greedy, epsilon), axis=1)
    return (lambda state, rng: int(_draw(cdf[int(state)], rng.random()))), f"epsilon_soft(eps={epsilon:g})"


def _scripted_mountain_car(sigma: float = 0.0):
    """Energy pumping (full force along the current velocity) plus Gaussian noise."""
    sigma = float(sigma)
    if sigma < 0.0:
        raise InvalidSpec("sigma must be non-negative")

    def fn(state, rng):
        base = 1.0 if state[1] >= 0.0 else -1.0
        noise = sigma * rng.normal() if sigma > 0.0 else 0.0
        return np.array([min(max(base + noise, -1.0), 1.0)])

    return fn, f"scripted_mc(sigma={sigma:g})"


# Behaviour kind -> builder of (policy, descriptor) from the kind's parameters.
BEHAVIORS: dict[str, Callable] = {
    "uniform_random": _uniform_random,
    "epsilon_soft_tabular": _epsilon_soft_tabular,
    "scripted_mountain_car": _scripted_mountain_car,
}


def behavior_policy(kind: str, **params) -> Callable:
    """The data-collection policy ``fn(state, rng) -> action`` that
    ``BEHAVIORS[kind]`` builds from ``params``; ``fn.descriptor`` names it in
    dataset headers.  An unknown kind, or a missing or unknown parameter,
    raises ``InvalidSpec``."""
    if kind not in BEHAVIORS:
        raise InvalidSpec(f"unknown behavior policy kind {kind!r}")
    fn, descriptor = _build(BEHAVIORS[kind], kind, params, {})
    fn.descriptor = descriptor
    return fn


def _build(factory: Callable, where, args: dict, texts: dict):
    """``factory(**args)``, with each of ``texts`` parsed as the type its key
    has in ``factory``'s signature and added to ``args``.  A bad value, a
    missing or unknown argument, or a value ``factory`` rejects raises
    ``InvalidSpec`` naming it after ``where``."""
    types = typing.get_type_hints(factory)
    try:
        args = {**args, **{key: _parse_value(key, text, types) for key, text in texts.items()}}
        inspect.signature(factory).bind(**args)
    except (InvalidSpec, TypeError) as exc:
        raise InvalidSpec(f"{where}: {exc}") from None
    try:
        return factory(**args)
    except InvalidSpec as exc:
        raise InvalidSpec(f"{where}: {exc}") from None


# -- registry and config-file loading ---------------------------------------


def make_chain(n_states: int = 2, gamma: float = 0.9, horizon: int = 10) -> TabularMDP:
    """Linear chain: action 0 advances, action 1 stays; the last state is
    absorbing and carries reward 1."""
    if n_states < 2:
        raise InvalidSpec("chain needs at least two states")
    P = np.zeros((n_states, 2, n_states))
    for s in range(n_states - 1):
        P[s, 0, s + 1] = 1.0
        P[s, 1, s] = 1.0
    P[n_states - 1, :, n_states - 1] = 1.0
    reward = np.zeros(n_states)
    reward[n_states - 1] = 1.0
    start = np.zeros(n_states)
    start[0] = 1.0
    return TabularMDP(
        n_states=n_states,
        n_actions=2,
        transition=P,
        reward=reward,
        start_dist=start,
        gamma=gamma,
        horizon=horizon,
        env_id=f"chain{n_states}",
        reward_range=(0.0, 1.0),
    )


ENV_REGISTRY: dict[str, Callable[[], Env]] = {
    "chain2": lambda: make_chain(2),
    "gridworld5x5": lambda: make_gridworld(5, 5, goal_cell=24, slip_prob=0.1, gamma=0.9, horizon=40),
    "gridworld5x5b": lambda: make_gridworld(5, 5, goal_cell=20, slip_prob=0.1, gamma=0.9, horizon=40),
    "mountain_car": MountainCarEnv,
}


def make_env(name_or_path: str) -> Env:
    """Resolve a registry name, or load a key-value env spec file."""
    if name_or_path in ENV_REGISTRY:
        return ENV_REGISTRY[name_or_path]()
    return load_env_spec(name_or_path)


_ENV_KINDS: dict[str, Callable[..., Env]] = {
    "gridworld": make_gridworld,
    "chain": make_chain,
    "mountain_car": MountainCarEnv,
}


def load_env_spec(path) -> Env:
    """Load an environment from a flat key-value text file.

    Required key ``kind`` in {gridworld, chain, mountain_car}; every other
    key is an argument of that kind's factory, typed and defaulted by the
    factory's own signature.  A gridworld spec with ``layout_file`` is
    built from that ASCII layout; a relative ``layout_file`` is found from
    the spec file's directory.  An unknown key, a bad value or a missing
    required argument raises ``InvalidSpec``.
    """
    kv = read_kv(path)
    kind = kv.pop("kind", None)
    if kind not in _ENV_KINDS:
        raise InvalidSpec(f"{path}: env spec needs kind = one of {', '.join(_ENV_KINDS)}, got {kind!r}")
    factory = _ENV_KINDS[kind]
    args = {}
    if kind == "gridworld" and "layout_file" in kv:
        factory = gridworld_from_ascii
        args["layout"] = read_text(os.path.join(os.path.dirname(path), kv.pop("layout_file")))
    return _build(factory, path, args, kv)
