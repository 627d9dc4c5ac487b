"""Workload definitions and seeded input generation.

Every workload draws its keys from a Zipf law over a 1M-identity
alphabet whose identities are shuffled (rank r is not key r), so no
code path can shortcut on key order.  Inputs are a pure function of
``(workload, seed)``; the program only ever sees the generated lists.
"""

from __future__ import annotations

import dataclasses

import numpy as np

ALPHABET = 1_000_000


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    alpha: float          #: Zipf exponent of the key distribution
    elements: int         #: stream length driven through every count lane
    interval: int         #: elements between interval top-k queries
    #: share of ``--seconds`` given to each phase (count lanes run at
    #: least one whole pass, the simulator at least three repetitions)
    budget: dict


WORKLOADS = {
    "count-skewed": Workload(
        "count-skewed", alpha=1.5, elements=2_000_000, interval=100_000,
        budget={"seq": 0.22, "mp": 0.25, "sketch": 0.08, "sim": 0.1,
                "serve": 0.25},
    ),
    "count-flat": Workload(
        "count-flat", alpha=0.8, elements=2_000_000, interval=100_000,
        budget={"seq": 0.22, "mp": 0.25, "sketch": 0.08, "sim": 0.1,
                "serve": 0.25},
    ),
    "serve-mixed": Workload(
        "serve-mixed", alpha=1.1, elements=500_000, interval=50_000,
        budget={"seq": 0.08, "mp": 0.08, "sketch": 0.04, "sim": 0.07,
                "serve": 0.63},
    ),
}


def zipf_keys(n: int, alpha: float, seed: int) -> np.ndarray:
    """``n`` int64 keys, Zipf(``alpha``) ranks mapped through a shuffle."""
    rng = np.random.default_rng(seed)
    weights = np.arange(1, ALPHABET + 1, dtype=np.float64) ** -alpha
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(n), side="right")
    np.minimum(ranks, ALPHABET - 1, out=ranks)
    return rng.permutation(ALPHABET).astype(np.int64)[ranks]
