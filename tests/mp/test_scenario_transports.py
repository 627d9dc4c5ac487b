"""The shm data plane under adversarial scenarios.

Extends ``tests/mp/test_shm.py``'s ample-capacity matrix beyond uniform
zipf: the two adversarial streams (hot-key flood, eviction poisoning)
are exactly the shapes that stress the shm plane's chunk
pre-aggregation — near-distinct singleton floods produce almost no
within-chunk dedup, attack bursts produce extreme dedup — so the merged
summary must still be:

* **exact** (every element at its true count, zero error) when capacity
  is ample, because then no eviction ever happens and within-chunk
  reordering cannot show;
* **within the documented Space Saving equivalence bounds** of the
  sequential oracle at the adversary's targeted tight capacity, where
  eviction runs hot, with zero guarantee violations in the accuracy
  audit.
"""

import collections

import pytest

from repro.core.space_saving import SpaceSaving
from repro.mp import MPConfig, run_mp, summaries_equivalent
from repro.scenarios import SCENARIOS, ScenarioParams, score_accuracy
from repro.testing import seed_matrix

ADVERSARIAL = sorted(
    name for name, s in SCENARIOS.items() if s.kind == "adversarial"
)

_PARAMS = ScenarioParams(length=2_500, alphabet=300, capacity=32, seed=7)


def _run(stream, capacity, how="hash"):
    config = MPConfig(
        workers=3,
        capacity=capacity,
        chunk_elements=512,
        partition_how=how,
    )
    return run_mp(stream, config)


def test_adversarial_matrix_is_nonempty():
    assert ADVERSARIAL == ["eviction-poison", "hot-key-flood"]


@pytest.mark.parametrize("how", ["hash", "round_robin", "block"])
@pytest.mark.parametrize("name", ADVERSARIAL)
def test_shm_matches_exact_truth_at_ample_capacity(name, how):
    """Capacity above the distinct-key count: the merged summary must be
    the exact count table, even though the poison stream is ~95%
    singletons (worst case for chunk dedup)."""
    stream = SCENARIOS[name].build(_PARAMS)
    ample = len(set(stream)) + 16
    result = _run(stream, ample, how)
    assert sorted(
        (str(e.element), e.count, e.error) for e in result.counter.entries()
    ) == sorted(
        (str(element), count, 0)
        for element, count in collections.Counter(stream).items()
    )
    assert result.elements == result.counter.processed == len(stream)


@pytest.mark.parametrize("name", ADVERSARIAL)
@pytest.mark.parametrize("seed", seed_matrix(7, 31))
def test_shm_equivalent_to_sequential_at_the_attacked_capacity(name, seed):
    """At the adversary's own target capacity eviction churns hard; the
    shm plane may order differently inside chunks but must stay within
    the documented equivalence bounds of the sequential oracle — with a
    clean accuracy audit."""
    params = ScenarioParams(
        length=_PARAMS.length,
        alphabet=_PARAMS.alphabet,
        capacity=_PARAMS.capacity,
        seed=seed,
    )
    stream = SCENARIOS[name].build(params)
    sequential = SpaceSaving(capacity=params.capacity)
    sequential.process_many(stream)
    truth = collections.Counter(stream)
    merged = _run(stream, params.capacity).counter
    report = score_accuracy(merged, truth, k=10, merged=True)
    assert report.guarantee_violations == 0, name
    assert report.max_underestimate == 0, name
    assert summaries_equivalent(sequential, merged, k=10)
    assert merged.processed == sequential.processed == len(stream)
