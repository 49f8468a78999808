"""Turn raw environment states/actions into encoder inputs.

Tabular spaces become one-hot rows; continuous spaces are shifted and
scaled so every coordinate lands in roughly [-1, 1], which keeps the
encoders well conditioned without touching the stored data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import SpaceInfo


@dataclass(frozen=True)
class TabularFeaturizer:
    n_states: int
    n_actions: int

    @property
    def state_dim(self) -> int:
        return self.n_states

    @property
    def action_dim(self) -> int:
        return self.n_actions

    def state_feats(self, states) -> np.ndarray:
        return _one_hot(states, self.n_states)

    def action_feats(self, actions) -> np.ndarray:
        return _one_hot(actions, self.n_actions)


def _one_hot(values, width: int) -> np.ndarray:
    idx = np.asarray(values, dtype=np.int64).reshape(-1)
    out = np.zeros((len(idx), width))
    out[np.arange(len(idx)), idx] = 1.0
    return out


@dataclass(frozen=True)
class ContinuousFeaturizer:
    state_center: tuple[float, ...]
    state_halfrange: tuple[float, ...]
    action_dim: int

    @property
    def state_dim(self) -> int:
        return len(self.state_center)

    def state_feats(self, states) -> np.ndarray:
        x = np.atleast_2d(np.asarray(states, dtype=np.float64))
        return (x - np.array(self.state_center)) / np.array(self.state_halfrange)

    def action_feats(self, actions) -> np.ndarray:
        return np.atleast_2d(np.asarray(actions, dtype=np.float64))


Featurizer = TabularFeaturizer | ContinuousFeaturizer


def featurizer_for(space: SpaceInfo) -> Featurizer:
    if space.state_kind == "index":
        return TabularFeaturizer(n_states=space.n_states, n_actions=space.n_actions)
    low = np.array(space.state_low)
    high = np.array(space.state_high)
    return ContinuousFeaturizer(
        state_center=tuple((low + high) / 2.0),
        state_halfrange=tuple((high - low) / 2.0),
        action_dim=space.action_dim,
    )
