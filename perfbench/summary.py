"""Summary arithmetic of the benchmark: the tail percentile, log-log
slopes, the host speed factor and the error rate.  Pure functions of their inputs, so the tests
in test_bench.py can pin them down exactly."""

from __future__ import annotations

import bisect
import math

MIN_BEYOND = 10


def tail(values) -> tuple[float, float, int] | None:
    """The highest percentile of `values` that has at least MIN_BEYOND
    samples beyond it, as (percentile, value, samples beyond).

    The value is a sample (nearest rank), and "beyond" counts samples
    strictly greater than it, so ties at the top push the rank down.
    None when there are too few samples for any percentile to qualify.
    """
    ordered = sorted(values)
    count = len(ordered)
    idx = count - MIN_BEYOND - 1
    while idx >= 0:
        value = ordered[idx]
        beyond = count - bisect.bisect_right(ordered, value)
        if beyond >= MIN_BEYOND:
            return 100.0 * (idx + 1) / count, value, beyond
        idx -= 1
    return None


def loglog_slope(points) -> float | None:
    """Least-squares slope of log(time) against log(n) over (n, time)
    points with positive coordinates; exact for two points.  None when
    fewer than two distinct sizes are given."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return None
    mean_x = sum(x for x, _ in pts) / len(pts)
    mean_y = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mean_x) ** 2 for x, _ in pts)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in pts)
    return sxy / sxx


def error_rate(failed: int, attempted: int) -> float:
    """Failed or wrong operations over operations attempted; an attempted
    operation that raised or was refused counts in both."""
    if attempted < 1:
        raise ValueError("error rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in 0..attempted")
    return failed / attempted


def speed_factor(loop_times, reference_s: float) -> float:
    """Scale that turns seconds measured on the current host into reference
    seconds: the calibration loop's reference time over its mean
    measured time."""
    loop_times = list(loop_times)
    if not loop_times:
        raise ValueError("speed factor needs calibration samples")
    return reference_s * len(loop_times) / sum(loop_times)


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0 when nothing was counted below."""
    return numerator / denominator if denominator else 0.0
