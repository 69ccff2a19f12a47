"""The benchmark's arithmetic: percentiles, due-time latency, spreads,
span self time and the classing of 1-s plant steps.

Everything that turns raw samples into a reported number lives here, so
selftest.py can check it without building or running the program.
"""

import math
import statistics

# A percentile counts only with at least this many samples beyond it.
MIN_BEYOND = 10

FAILED = math.inf
"""Latency of a request that failed or was never answered: it misses
every latency limit."""


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median, third quartile, as the steadiness rule
    takes them (statistics.quantiles, n=4, exclusive method)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def percentile(samples, want):
    """The nearest-rank percentile `want` of `samples`, lowered to the
    highest percentile with at least MIN_BEYOND samples beyond it.

    Returns (value, percentile used, sample count). Failed samples are
    math.inf and sort above every latency.
    """
    n = len(samples)
    if n <= MIN_BEYOND:
        raise ValueError(f"{n} samples support no percentile")
    ordered = sorted(samples)
    rank = min(math.ceil(want / 100.0 * n), n - MIN_BEYOND)
    rank = max(rank, 1)
    return ordered[rank - 1], 100.0 * rank / n, n


def due_latencies(due, done):
    """Latency of each request from the time it was due to be sent, so
    a stall also counts against every request queued behind it. A
    request without a completion time (None) failed."""
    return [FAILED if d is None else d - u for u, d in zip(due, done)]


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval that its children cover. `spans` are dicts with id,
    parent, start and end; returns {id: self seconds}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo = max(c["start"], reach)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def step_class(t, telemetry_period=5, control_period=60):
    """Which periodic tasks fire in the 1-s step ending at simulated
    second `t`: "control" (control, telemetry and physics), "telemetry"
    (telemetry and physics) or "physics" (physics only)."""
    if t % control_period == 0:
        return "control"
    if t % telemetry_period == 0:
        return "telemetry"
    return "physics"
