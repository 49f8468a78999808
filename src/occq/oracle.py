"""Exact ground truth for tabular MDPs.

Everything here is deterministic linear algebra: infinite-horizon
discounted occupancy measures via a resolvent solve, Q-functions in both the occupancy-weighted
and Bellman forms, density ratios against a dataset-weighted marginal, and
a Spearman rank correlation used to compare learned quantities against
these tables.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .envs import TabularMDP
from .errors import InvalidSpec

_COND_WARN = 1e8
_VI_TOL = 1e-12
_VI_MAX_ITER = 100_000


@dataclass(frozen=True, eq=False)
class RatioTable:
    """occupancy / marginal with NaN at unsupported next states."""

    ratio: np.ndarray  # (S, A, S)
    marginal: np.ndarray  # (S,)
    supported: np.ndarray  # (S,) bool, marginal > 0


def _policy_transition(mdp: TabularMDP, policy_table: np.ndarray) -> np.ndarray:
    if policy_table.shape != (mdp.n_states, mdp.n_actions):
        raise InvalidSpec("policy table shape does not match the MDP")
    if np.any(policy_table < 0) or np.max(np.abs(policy_table.sum(axis=1) - 1.0)) > 1e-9:
        raise InvalidSpec("policy table rows must be distributions")
    return np.einsum("sa,sax->sx", policy_table, mdp.transition)


def _resolvent(mdp: TabularMDP, M: np.ndarray) -> np.ndarray:
    """(I - gamma * M)^-1 via an LU solve, warning on poor conditioning."""
    A = np.eye(mdp.n_states) - mdp.gamma * M
    cond = np.linalg.cond(A)
    if cond > _COND_WARN:
        warnings.warn(f"occupancy solve is ill-conditioned (cond={cond:.3g})")
    return np.linalg.solve(A, np.eye(mdp.n_states))


def exact_occupancy(mdp: TabularMDP, policy_table: np.ndarray) -> np.ndarray:
    """Discounted occupancy d(s'|s,a) = (1 - gamma) * sum_k gamma^(k-1) P[S_{t+k}=s'],
    an (S, A, S) array whose rows sum to one.

    Uses the closed form (1 - gamma) * P_a @ (I - gamma * M)^-1 with M the
    policy-averaged transition matrix.
    """
    series = _resolvent(mdp, _policy_transition(mdp, policy_table))
    return (1.0 - mdp.gamma) * np.einsum("sax,xy->say", mdp.transition, series)


def exact_q(mdp: TabularMDP, policy_table: np.ndarray) -> np.ndarray:
    """Q(s,a) as the discounted sum of rewards at future states.

    Computed by reward-weighting the occupancy table; agrees with the
    Bellman solve (see ``bellman_q``) to solver precision.
    """
    return 1.0 / (1.0 - mdp.gamma) * exact_occupancy(mdp, policy_table) @ mdp.reward


def bellman_q(mdp: TabularMDP, policy_table: np.ndarray) -> np.ndarray:
    """Independent Q computation through the Bellman equations."""
    M = _policy_transition(mdp, policy_table)
    V = _resolvent(mdp, M) @ (M @ mdp.reward)
    return mdp.transition @ (mdp.reward + mdp.gamma * V)


def exact_ratio(mdp: TabularMDP, policy_table: np.ndarray, anchor_weights: np.ndarray) -> RatioTable:
    """Occupancy over the anchor-weighted marginal.

    ``anchor_weights[s, a]`` are the dataset frequencies of state-action
    pairs; the marginal is the matching mixture of occupancy rows.  Entries
    whose marginal is zero are NaN and excluded from ``supported``.
    """
    w = np.asarray(anchor_weights, dtype=np.float64)
    if w.shape != (mdp.n_states, mdp.n_actions):
        raise InvalidSpec("anchor weights shape does not match the MDP")
    total = w.sum()
    if total <= 0:
        raise InvalidSpec("anchor weights must not be all zero")
    w = w / total
    occ = exact_occupancy(mdp, policy_table)
    marginal = np.einsum("sa,sax->x", w, occ)
    supported = marginal > 0
    ratio = np.full_like(occ, np.nan)
    ratio[:, :, supported] = occ[:, :, supported] / marginal[supported]
    return RatioTable(ratio=ratio, marginal=marginal, supported=supported)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks starting at 1, ties sharing their average rank; each NaN ranks
    alone, after every number, in input order."""
    _, counts = np.unique(x, return_counts=True, equal_nan=False)
    ends = np.cumsum(counts)
    ranks = np.empty(len(x), dtype=np.float64)
    ranks[np.argsort(x, kind="stable")] = np.repeat(ends - 0.5 * (counts - 1), counts)
    return ranks


def spearman(xs, ys) -> float:
    """Spearman rank correlation with average-rank tie handling."""
    x = np.asarray(xs, dtype=np.float64).ravel()
    y = np.asarray(ys, dtype=np.float64).ravel()
    if len(x) != len(y):
        raise InvalidSpec("sequences must have equal length")
    if len(x) < 2:
        raise InvalidSpec("need at least two points")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = np.sqrt((rx @ rx) * (ry @ ry))
    if denom == 0.0:
        return float("nan")
    return float((rx @ ry) / denom)


def value_iteration(mdp: TabularMDP):
    """Optimal Q and its greedy policy table (ties to the lowest index)."""
    Q = np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(_VI_MAX_ITER):
        V = Q.max(axis=1)
        Q_new = mdp.transition @ (mdp.reward + mdp.gamma * V)
        if np.max(np.abs(Q_new - Q)) < _VI_TOL:
            Q = Q_new
            break
        Q = Q_new
    greedy = np.zeros_like(Q)
    greedy[np.arange(mdp.n_states), Q.argmax(axis=1)] = 1.0
    return Q, greedy
