"""``metrics/stats.py`` against numpy as an oracle, bit for bit.

Every statistic must be ``float.hex``-equal to what numpy returns for the
same float64 sample: exported rows and stored artifacts pin these bits.
Sizes straddle the pairwise-summation block boundaries (8 and 128
terms) and the recursion on both sides of 8192; samples include ties and
signed zeros.  Skipped when numpy is not installed.
"""

from __future__ import annotations

import random

import pytest

from repro.metrics.stats import (
    cdf_points,
    fraction_above,
    jains_fairness_index,
    mean_ci95,
    summarize,
)

np = pytest.importorskip("numpy")

SIZES = (1, 7, 8, 9, 127, 128, 129, 8192, 8193, 20_000)


def _hex(value: float) -> str:
    return float(value).hex()


def _exported_quantiles(values) -> list:
    """``(q, value)`` for each percentile a summary exports (p50, p90, p99)."""
    summary = summarize(values)
    return [(50, summary.p50), (90, summary.p90), (99, summary.p99)]


def _samples():
    """``(label, values)`` pairs: spread, ties and signed zeros at every size."""
    rng = random.Random(20150817)
    for size in SIZES:
        yield f"lognormal-{size}", [rng.lognormvariate(3.0, 1.5) for _ in range(size)]
        yield f"signed-{size}", [rng.uniform(-1e3, 1e3) for _ in range(size)]
        yield f"ties-{size}", [float(rng.randint(0, 4)) for _ in range(size)]
        # numpy orders +0.0 and -0.0 as equal but not stably, so each
        # sample carries one sign of zero; the other sign is a separate one.
        yield f"negzero-{size}", [rng.choice((-0.0, -1.5, 2.0)) for _ in range(size)]
        yield f"poszero-{size}", [rng.choice((0.0, -1.5, 2.0)) for _ in range(size)]
        yield f"allnegzero-{size}", [-0.0] * size


SAMPLES = list(_samples())
IDS = [label for label, _ in SAMPLES]


@pytest.mark.parametrize("label, values", SAMPLES, ids=IDS)
def test_summarize_matches_numpy(label, values) -> None:
    data = np.asarray(values, dtype=float)
    summary = summarize(values)
    assert summary.count == data.size
    assert _hex(summary.mean) == _hex(np.mean(data))
    assert _hex(summary.std) == _hex(np.std(data))
    assert _hex(summary.minimum) == _hex(np.min(data))
    assert _hex(summary.maximum) == _hex(np.max(data))


@pytest.mark.parametrize("label, values", SAMPLES, ids=IDS)
def test_percentile_and_fraction_match_numpy(label, values) -> None:
    data = np.asarray(values, dtype=float)
    for q, value in _exported_quantiles(values):
        assert _hex(value) == _hex(np.percentile(data, q)), q
    for threshold in (0.0, float(np.median(data))):
        expected = np.count_nonzero(data > threshold) / data.size
        assert _hex(fraction_above(values, threshold)) == _hex(expected)


@pytest.mark.parametrize("label, values", SAMPLES, ids=IDS)
def test_mean_ci95_and_fairness_match_numpy(label, values) -> None:
    data = np.asarray(values, dtype=float)
    mean, half_width = mean_ci95(values)
    assert _hex(mean) == _hex(np.mean(data))
    if data.size > 1:
        expected = 1.96 * float(np.std(data, ddof=1)) / float(np.sqrt(data.size))
        assert _hex(half_width) == _hex(expected)
    else:
        assert half_width == 0.0
    denominator = data.size * float(np.sum(data**2))
    expected = 0.0 if denominator == 0 else float(np.sum(data)) ** 2 / denominator
    assert _hex(jains_fairness_index(values)) == _hex(expected)


@pytest.mark.parametrize("size", (1, 9, 129))
def test_cdf_points_match_numpy(size) -> None:
    rng = random.Random(size)
    values = [rng.lognormvariate(3.0, 1.5) for _ in range(size)]
    ordered = np.sort(np.asarray(values, dtype=float))
    expected = [(_hex(value), (index + 1) / size) for index, value in enumerate(ordered)]
    assert [(_hex(value), fraction) for value, fraction in cdf_points(values)] == expected


def test_signed_zero_sums_follow_numpy() -> None:
    # numpy adds the pairwise sum to the identity +0.0, so -0.0 sums to +0.0.
    assert _hex(np.sum([-0.0])) == _hex(0.0)
    for values in ([-0.0], [-0.0] * 8, [-0.0] * 200, [0.0, -0.0]):
        assert _hex(summarize(values).mean) == _hex(np.mean(values))
    # The exported percentiles of signed zeros keep numpy's sign.
    for values in ([-0.0], [-0.0, -0.0]):
        for q, value in _exported_quantiles(values):
            assert _hex(value) == _hex(np.percentile(values, q)) == _hex(-0.0), q


def test_integer_inputs_are_treated_as_float64() -> None:
    values = list(range(1, 101))
    data = np.asarray(values, dtype=float)
    assert _hex(summarize(values).p99) == _hex(np.percentile(data, 99))
    assert _hex(summarize(values).std) == _hex(np.std(data))
