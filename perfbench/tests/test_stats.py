import pytest

from perfbench.stats import InsufficientSamples, nearest_rank, percentile, summary


def test_two_samples_p95_is_refused_not_the_minimum():
    values = [10.0, 20.0]
    # The index formula int(0.95 * (n - 1)) picks index 0: the minimum.
    assert values[int(0.95 * (len(values) - 1))] == 10.0
    # Nearest rank is the larger sample, and with nothing beyond it the
    # percentile is refused.
    assert nearest_rank(values, 95, min_tail=0) == 20.0
    with pytest.raises(InsufficientSamples):
        nearest_rank(values, 95)


def test_p95_needs_ten_samples_beyond_its_rank():
    assert percentile(list(range(1, 201)), 95) == {"value": 190, "n": 200, "beyond": 10}
    with pytest.raises(InsufficientSamples):
        nearest_rank(list(range(1, 200)), 95)


def test_median_is_nearest_rank_and_order_free():
    assert nearest_rank([5, 1, 4, 2, 3] * 5, 50) == 3
    assert nearest_rank(list(range(20, 0, -1)), 50) == 10


def test_summary_stops_at_the_highest_supported_percentile():
    out = summary(list(range(150)))
    assert out["n"] == 150 and "p90" in out and "p95" not in out


def test_bad_percentile_rejected():
    with pytest.raises(ValueError):
        nearest_rank([1.0], 100)
