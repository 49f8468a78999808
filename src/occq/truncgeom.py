"""Geometric distribution truncated to a finite window of future offsets.

The distribution lives on offsets ``delta_t in {1, ..., M - m}`` with weight
``gamma ** (delta_t - 1)`` (``gamma = 1 - p``), normalized over the window.
``sample_supports`` pairs anchors with future states when building
contrastive batches, each anchor with its own window; those futures are
also the pool the Q estimators average over with equal weight, since
drawing them by this law already applies the discount.  ``pmf_vector`` and
``sample_many`` state the law and its sampler for one fixed window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec


@dataclass(frozen=True)
class TruncGeom:
    """Truncated geometric law over offsets relative to anchor ``m``.

    p: success probability in (0, 1]; equals one minus the discount.
    m: lower anchor (e.g. the current timestep).
    M: upper bound (e.g. the horizon); the support is {1, ..., M - m}.
    """

    p: float
    m: int
    M: int

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise InvalidSpec(f"p must lie in (0, 1], got {self.p}")
        if self.M <= self.m:
            raise InvalidSpec(f"M must exceed m, got m={self.m}, M={self.M}")

    @property
    def gamma(self) -> float:
        return 1.0 - self.p

    @property
    def support_size(self) -> int:
        return self.M - self.m


def pmf_vector(dist: TruncGeom) -> np.ndarray:
    """All support probabilities as a vector indexed by ``delta_t - 1``."""
    n = dist.support_size
    g = dist.gamma
    # 0**0 == 1.0 covers the degenerate p = 1 case.
    return dist.p * g ** np.arange(n, dtype=np.float64) / (1.0 - g**n)


def sample_many(dist: TruncGeom, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` offsets by closed-form inverse-CDF (no rejection loop)."""
    return sample_supports(dist.p, np.full(size, dist.support_size, dtype=np.int64), rng)


def sample_supports(p: float, supports: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One inverse-CDF draw per entry, each with its own support size.

    Used when pairing every anchor of an episode with a future offset: the
    window shrinks as the anchor approaches the episode's end.
    """
    if not (0.0 < p <= 1.0):
        raise InvalidSpec(f"p must lie in (0, 1], got {p}")
    supports = np.asarray(supports, dtype=np.int64)
    if supports.size and supports.min() < 1:
        raise InvalidSpec("every support must contain at least one offset")
    g = 1.0 - p
    if g == 0.0:
        return np.ones_like(supports)
    u = rng.random(len(supports))
    # CDF(k) = (1 - g**k) / (1 - g**n); smallest k with CDF(k) >= u.
    k = np.ceil(np.log1p(-u * (1.0 - g ** supports.astype(np.float64))) / np.log(g)).astype(np.int64)
    return np.clip(k, 1, supports)
