"""Reference answers the benchmark checks the CLI's outputs against.

Everything here is plain-float arithmetic (bisection on the binary entropy,
stars-and-bars by ``math.comb``) and imports nothing from ``qbroadcast``, so a
defect in the engine's entropy code cannot agree with itself here.
"""

from __future__ import annotations

import math

ABOVE_TOL = 1e-3  # a frontier point this far above the truth is impossible
GAP_FLOOR = 1e-12  # gaps below this are rounding noise; keeps max_gap nonzero


def mesh_tolerance(mesh: int) -> float:
    """Slack a mesh-limited frontier may sit below the truth: 1.5 / mesh."""
    return 1.5 / float(mesh)


BELOW_TOL = mesh_tolerance(12)


def h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def h2_inverse_low(r: float) -> float:
    """Inverse of the binary entropy on [0, 1/2]."""
    lo, hi = 0.0, 0.5
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if h2(mid) < r:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def convolve_flip(a: float, b: float) -> float:
    return a * (1.0 - b) + (1.0 - a) * b


def pinching_truth(common: float) -> float:
    """Largest personal rate of the pinching region at a given common rate."""
    if common >= 1.0:
        return 0.5
    return 1.0 - h2_inverse_low(max(common, 0.0))


def pinching_cq_truth(common: float) -> float:
    """Largest personal rate of the three-symbol cq pinching region.

    Receiver C sees a deterministic bit of x; with q = P(C = 0) the region is
    personal <= h(q) + q - common under h(q) >= common, maximized at q = 2/3
    until common passes h(1/3), then at the upper root of h(q) = common.
    """
    if common <= h2(1.0 / 3.0):
        return math.log2(3.0) - max(common, 0.0)
    return 1.0 - h2_inverse_low(min(common, 1.0))


def cascade_truth(common: float, flip1: float = 0.1, flip2: float = 0.2) -> float:
    """Largest I(X;Y|T) at a given I(T;Z) for the BSC(flip1) -> BSC(flip2) cascade."""
    total = convolve_flip(flip1, flip2)
    lo, hi = 0.0, 0.5
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if 1.0 - h2(convolve_flip(mid, total)) > common:
            lo = mid
        else:
            hi = mid
    beta = 0.5 * (lo + hi)
    return h2(convolve_flip(beta, flip1)) - h2(flip1)


TRUTHS = {
    "pinching": pinching_truth,
    "pinching-cq": pinching_cq_truth,
    "cascade-0.1-0.2": cascade_truth,
}


def composition_count(total: int, parts: int) -> int:
    """Number of nonnegative integer vectors of length ``parts`` summing to ``total``."""
    return math.comb(total + parts - 1, parts - 1)


# Channels whose two receivers are interchangeable, so C -> B is degraded too.
SYMMETRIC = frozenset({"noiseless-bit", "constant", "ghz-copy"})


def expected_certified(channel: str, reverse: bool) -> bool:
    """Degradedness verdict table: every builtin and the generated dephasing
    document is degraded toward C; only the symmetric builtins are degraded
    back toward B."""
    return not reverse or channel in SYMMETRIC


def read_frontier(csv_text: str) -> list[tuple[float, float]]:
    lines = csv_text.strip().split("\n")
    if lines[0] != "common_rate,personal_rate,witness_id":
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    return [(float(c), float(p)) for c, p, _ in (line.split(",") for line in lines[1:])]


def frontier_gaps(points, truth) -> tuple[float, int]:
    """(worst |truth - personal|, number of points outside the tolerances)."""
    worst = 0.0
    bad = 0
    for common, personal in points:
        ref = truth(common)
        worst = max(worst, abs(ref - personal))
        if personal > ref + ABOVE_TOL or personal < ref - BELOW_TOL:
            bad += 1
    return worst, bad
