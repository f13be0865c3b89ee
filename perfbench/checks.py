"""Correctness checks run inside every benchmark run.

Each checker returns a list of violation strings (empty when the output
is correct); the runner counts every violation as one failed operation,
so a wrong answer shows in ``ok_share`` and ``failed`` exactly like a
refused request does.
"""

from __future__ import annotations

from common import OfferedKeys

#: Chi-square false-positive rate per test.  The reservoir contents of a
#: served run depend on how the two sessions interleave, so the test is
#: not bit-reproducible; at 1e-5 per run a spurious failure is expected
#: once in 100,000 runs.
CHI_SQUARE_ALPHA = 1e-5
#: Upper 1e-5 quantile of chi-square with 9 degrees of freedom
#: (``scipy.stats.chi2.isf(1e-5, 9)``).
CHI_SQUARE_CRITICAL_9DF = 39.3407
DECILES = 10


def check_sample(keys, k: int, offered: OfferedKeys) -> list[str]:
    """A ``sample(k)`` answer: ``k`` distinct keys, every one offered."""
    problems = []
    if len(keys) != k:
        problems.append(f"sample returned {len(keys)} records, wanted {k}")
    if len(set(keys)) != len(keys):
        problems.append(f"sample holds {len(keys) - len(set(keys))} "
                        "duplicated keys")
    stray = [key for key in keys if offered.rank(key) is None]
    if stray:
        problems.append(f"{len(stray)} sampled keys were never offered "
                        f"(first {stray[0]})")
    return problems


def check_seen(seen: int, acknowledged: int, where: str) -> list[str]:
    """Zero acknowledged-record loss (and no double counting)."""
    if seen != acknowledged:
        return [f"{where}: stats().seen is {seen} but {acknowledged} "
                "records were acknowledged"]
    return []


def decile_counts(keys, offered: OfferedKeys) -> list[int]:
    """Sampled keys per decile of the offered key population."""
    total = offered.total
    counts = [0] * DECILES
    for key in keys:
        rank = offered.rank(key)
        if rank is not None:
            counts[rank * DECILES // total] += 1
    return counts


def chi_square_uniform(keys, offered: OfferedKeys) -> tuple[float, list[str]]:
    """Chi-square of sampled keys over the offered-population deciles.

    A uniform sample of the offered records lands in each decile in
    proportion to the decile's population; deciles of the key order
    group records by stream and, within a stream, by arrival time, so a
    sample biased toward old or new records fails.
    """
    total = offered.total
    counts = decile_counts(keys, offered)
    n = sum(counts)
    if n == 0:
        return 0.0, ["chi-square: no sampled key was offered"]
    stat = 0.0
    for d, observed in enumerate(counts):
        lo = -(-d * total // DECILES)
        hi = -(-(d + 1) * total // DECILES)
        expected = n * (hi - lo) / total
        stat += (observed - expected) ** 2 / expected
    if stat > CHI_SQUARE_CRITICAL_9DF:
        return stat, [f"chi-square {stat:.2f} over key deciles exceeds "
                      f"{CHI_SQUARE_CRITICAL_9DF} (alpha "
                      f"{CHI_SQUARE_ALPHA:g}); counts {counts}"]
    return stat, []


def check_identical(digests: list, what: str) -> list[str]:
    """Runs of one seed must agree exactly (DiskStats, simulated clock)."""
    if len(set(digests)) > 1:
        return [f"{what} differ across passes of one seed: {digests}"]
    return []
