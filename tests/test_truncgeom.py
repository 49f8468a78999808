import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from occq.errors import InvalidSpec
from occq.truncgeom import TruncGeom, pmf_vector, sample_many, sample_supports


def test_degenerate_geometric():
    d = TruncGeom(p=1.0, m=0, M=5)
    assert pmf_vector(d).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_two_point_support():
    # enumerate weights 0.5**0, 0.5**1 and normalize: (2/3, 1/3)
    d = TruncGeom(p=0.5, m=0, M=2)
    w = pmf_vector(d)
    assert len(w) == 2  # offsets 1 and 2 only
    assert w[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert w[1] == pytest.approx(1.0 / 3.0, abs=1e-15)


@given(
    p=st.floats(0.01, 1.0),
    m=st.integers(-3, 50),
    size=st.integers(1, 200),
)
@settings(max_examples=200, deadline=None)
def test_pmf_normalizes(p, m, size):
    d = TruncGeom(p=p, m=m, M=m + size)
    assert pmf_vector(d).sum() == pytest.approx(1.0, abs=1e-12)


def test_invalid_parameters():
    with pytest.raises(InvalidSpec):
        TruncGeom(p=0.0, m=0, M=3)
    with pytest.raises(InvalidSpec):
        TruncGeom(p=1.5, m=0, M=3)
    with pytest.raises(InvalidSpec):
        TruncGeom(p=0.5, m=3, M=3)
    with pytest.raises(InvalidSpec):
        sample_supports(0.5, np.array([2, 0]), np.random.default_rng(0))


def test_single_element_support_always_one(rng):
    d = TruncGeom(p=0.25, m=4, M=5)
    assert np.all(sample_many(d, rng, 50) == 1)


def test_sampler_reproducible():
    d = TruncGeom(p=0.1, m=0, M=30)
    a = sample_many(d, np.random.default_rng(7), 1000)
    b = sample_many(d, np.random.default_rng(7), 1000)
    assert np.array_equal(a, b)


def _chisquare_pvalue(samples, d: TruncGeom):
    counts = np.bincount(samples, minlength=d.support_size + 1)[1:]
    expected = pmf_vector(d) * len(samples)
    # merge the tail so every bin keeps an expected count of at least 5
    keep = expected >= 5.0
    if not keep.all():
        cut = int(np.argmax(~keep))
        cut = max(cut, 1)
        counts = np.concatenate([counts[:cut], [counts[cut:].sum()]])
        expected = np.concatenate([expected[:cut], [expected[cut:].sum()]])
    result = stats.chisquare(counts, expected)
    return result.pvalue


@pytest.mark.parametrize("gamma", [0.9, 0.99])
@pytest.mark.parametrize("support", [5, 50, 500])
def test_sampler_matches_pmf(gamma, support):
    d = TruncGeom(p=1.0 - gamma, m=0, M=support)
    rng = np.random.default_rng(2024)
    samples = sample_many(d, rng, 100_000)
    assert samples.min() >= 1 and samples.max() <= support
    assert _chisquare_pvalue(samples, d) >= 0.01


def test_converges_to_untruncated_geometric():
    # wide window at gamma = 0.99: pointwise within 1e-6 of the plain law
    gamma = 0.99
    d = TruncGeom(p=1.0 - gamma, m=0, M=10_000)
    ks = np.arange(1, 2001)
    truncated = pmf_vector(d)[: len(ks)]
    untruncated = (1.0 - gamma) * gamma ** (ks - 1)
    assert np.max(np.abs(truncated - untruncated)) <= 1e-6


def test_varying_supports_respected(rng):
    supports = np.array([1, 2, 3, 10, 100])
    draws = np.stack([sample_supports(0.05, supports, rng) for _ in range(200)])
    assert np.all(draws >= 1)
    assert np.all(draws <= supports)
    assert np.all(draws[:, 0] == 1)
