import pytest

import percentile


def test_nearest_rank_on_known_samples():
    samples = [float(v) for v in range(1, 101)]
    assert percentile.nearest_rank(samples, 50) == 50.0
    assert percentile.nearest_rank(samples, 99) == 99.0
    assert percentile.nearest_rank(samples, 100) == 100.0
    assert percentile.nearest_rank(samples, 0) == 1.0
    with pytest.raises(ValueError):
        percentile.nearest_rank([], 50)


@pytest.mark.parametrize(
    "n, p, beyond",
    [(1000, 99.0, 10), (999, 99.0, 9), (100, 90.0, 10), (100_000, 99.99, 10), (1, 50.0, 0)],
)
def test_samples_beyond_percentile(n, p, beyond):
    assert percentile.beyond(n, p) == beyond
    assert percentile.resolvable(n, p) == (beyond >= percentile.MIN_BEYOND)


@pytest.mark.parametrize(
    "n, tail",
    [(5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10_000, 99.9), (100_000, 99.99)],
)
def test_highest_resolvable_percentile(n, tail):
    assert percentile.highest_resolvable(n) == tail


def test_summarize_reports_count_and_withholds_unresolvable_p99():
    small = percentile.summarize([float(v) for v in range(999)])
    assert small["n"] == 999
    assert small["p99"] is None
    assert small["tail_percentile"] == 90.0

    big = percentile.summarize([float(v) for v in reversed(range(1, 2001))])
    assert big["n"] == 2000
    assert big["p50"] == 1000.0
    assert big["p99"] == 1980.0
    assert big["tail_percentile"] == 99.0
    assert big["tail"] == 1980.0
