"""``synth.round6`` gives the bits of Python's ``round(x, 6)``, and
``synth._weighted_sample`` draws the items of ``Generator.choice`` without
replacement from the same random stream."""

import numpy as np
import pytest

from recdiv.synth import _cumulative, _weighted_sample, round6


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _assert_rounds_like_python(values: np.ndarray) -> None:
    rounded = values.copy()
    round6(rounded)
    expected = [round(x, 6) for x in values.tolist()]
    mismatch = np.flatnonzero(_bits(rounded) != _bits(expected))
    assert not len(mismatch), [(values[i], rounded[i], expected[i]) for i in mismatch[:5]]


def _naive_differs(values: np.ndarray) -> bool:
    """Whether ``np.rint(x * 1e6) / 1e6`` with no fallback gets any value
    wrong: the cases below must need the fallback."""
    naive = np.rint(values * 1e6) / 1e6
    return bool((_bits(naive) != _bits([round(x, 6) for x in values.tolist()])).any())


def test_round6_exact_half_way_decimals():
    halves = np.array([0.0000005, 0.0000015, 0.0000025, 2.5e-7, 0.1234565, 0.5000005,
                       1.0000005, 12.3456785, 999.9999995])
    values = np.concatenate([halves, -halves])
    _assert_rounds_like_python(values)
    assert _naive_differs(values)


def test_round6_values_within_an_ulp_of_a_half():
    rng = np.random.default_rng(3)
    m = rng.integers(0, 10**9, size=2000).astype(np.float64)
    centres = (m + 0.5) / 1e6
    values = [centres]
    for direction in (np.inf, -np.inf):  # three doubles either side of each centre
        x = centres
        for _ in range(3):
            x = np.nextafter(x, direction)
            values.append(x)
    values = np.concatenate(values)
    values = np.concatenate([values, -values])
    scaled = values * 1e6
    # a large share of them land within one ulp of a half once scaled
    assert (np.abs(scaled - np.floor(scaled) - 0.5) <= np.spacing(np.abs(scaled))).mean() > 0.25
    _assert_rounds_like_python(values)
    assert _naive_differs(values)


def test_round6_signed_zero_subnormal_large_and_non_finite():
    big = 2.0**52 / 1e6
    values = np.array([
        0.0, -0.0, -1e-9, -3e-7, -0.25, -1234.5678905,
        5e-324, -5e-324, 2.2e-308, 1e-310, -1e-310, np.nextafter(2.2250738585072014e-308, 0),
        big, np.nextafter(big, np.inf), np.nextafter(big, 0), 2 * big, 4503599627.3704965,
        1e10 + 0.5e-6, 1e15, 1e300, 1.7e308, -1.7e308, np.inf, -np.inf, np.nan,
    ])
    _assert_rounds_like_python(values)
    rounded = values.copy()
    round6(rounded)
    assert np.signbit(rounded[1]) and np.signbit(rounded[2])


def test_round6_random_values_over_many_magnitudes():
    rng = np.random.default_rng(11)
    n = 1_000_000
    values = rng.random(n) * 10.0 ** rng.integers(-10, 12, size=n)
    values[::2] *= -1
    _assert_rounds_like_python(values)


def _assert_draws_like_choice(p: np.ndarray, size: int, seed: int) -> None:
    """Three draws in a row from one generator, then its next double, as
    ``rng.choice`` gives them from a generator of the same seed."""
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    cdf = _cumulative(p)
    for _ in range(3):
        expected = numpys.choice(len(p), size, replace=False, p=p)
        drawn = _weighted_sample(ours, p, cdf, size)
        np.testing.assert_array_equal(drawn, expected)
    assert ours.random() == numpys.random()


@pytest.mark.parametrize("m", [1, 2, 3, 10, 50, 300])
@pytest.mark.parametrize("s", [0, 0.5, 1, 2])
def test_weighted_sample_matches_choice(m, s):
    """Populations uniform to steeply skewed, sizes from none to all."""
    p = 1.0 / np.arange(1, m + 1) ** s
    p /= p.sum()
    untouched = p.copy()
    for size in sorted({0, 1, m // 2, m}):
        for seed in range(20):
            _assert_draws_like_choice(p, size, seed)
    np.testing.assert_array_equal(p, untouched)


def test_weighted_sample_matches_choice_at_movielens_scale():
    """The generator's own population and candidate count."""
    p = 1.0 / np.arange(1, 1501) ** 0.5
    p /= p.sum()
    for seed in (7, 11, 12):
        _assert_draws_like_choice(p, 250, seed)
