"""Tests of the benchmark itself: the referee must fail perturbed answers.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import count_lanes  # noqa: E402
import serve_lane  # noqa: E402
import streams  # noqa: E402
from calib import Calibrator  # noqa: E402
from referee import SKETCH, Truth, check_answer, snapshot_triples  # noqa: E402

from repro.backend import Snapshot, create_backend  # noqa: E402
from repro.core.counters import CounterEntry  # noqa: E402


@pytest.fixture(scope="module")
def keys():
    return streams.zipf_keys(20_000, 1.2, seed=3)


@pytest.fixture(scope="module")
def sequential_snapshot(keys):
    backend = create_backend("sequential", capacity=64)
    try:
        backend.ingest(keys.tolist())
        return backend.snapshot()
    finally:
        backend.close()


def _check(snapshot, keys, mode="space-saving"):
    return check_answer(snapshot_triples(snapshot), snapshot.error_bound,
                        snapshot.processed, Truth(keys), len(keys), mode)


def _perturb(snapshot, **changes):
    entries = list(snapshot.entries)
    top = entries[0]
    if "count" in changes:
        entries[0] = CounterEntry(top.element, top.count + changes["count"],
                                  top.error)
    if "error" in changes:
        entries[0] = CounterEntry(top.element, top.count,
                                  top.error + changes["error"])
    if changes.get("drop_top"):
        entries = entries[1:]
    return Snapshot(snapshot.scheme,
                    snapshot.processed + changes.get("processed", 0),
                    entries, snapshot.error_bound)


def test_true_answer_passes(sequential_snapshot, keys):
    assert _check(sequential_snapshot, keys) == []


@pytest.mark.parametrize("changes, expected", [
    ({"count": -1}, "underestimate"),
    ({"error": -1, "count": 1}, "lower bound"),
    ({"processed": 1}, "processed"),
    ({"drop_top": True}, "heavy element"),
])
def test_perturbed_answer_fails(sequential_snapshot, keys, changes,
                                expected):
    problems = _check(_perturb(sequential_snapshot, **changes), keys)
    assert any(expected in p for p in problems), problems


def test_sketch_mode_requires_heaviest(sequential_snapshot, keys):
    assert _check(sequential_snapshot, keys, SKETCH) == []
    problems = _check(_perturb(sequential_snapshot, drop_top=True), keys,
                      SKETCH)
    assert any("heaviest" in p for p in problems), problems


class _Perturbed:
    """A real backend whose top answer drops just below its own lower
    bound (count - error - 1 < count - error <= truth): an undercount."""

    def __init__(self, lane):
        self._backend = count_lanes.make_backend(lane)

    def ingest(self, batch):
        return self._backend.ingest(batch)

    def snapshot(self):
        snapshot = self._backend.snapshot()
        return _perturb(snapshot, count=-(snapshot.entries[0].error + 1))

    def close(self):
        self._backend.close()


@pytest.mark.parametrize("lane", sorted(count_lanes.LANES))
def test_perturbed_lane_fails_the_run(keys, lane):
    stream = keys.tolist()
    batches = [stream[i:i + 5_000] for i in range(0, len(stream), 5_000)]

    def one_pass(**kwargs):
        tally = count_lanes.Tally()
        result = count_lanes.LaneResult([], [], [], [], [], 0)
        count_lanes.run_pass(lane, batches, Truth(keys), Calibrator(),
                             tally, result, **kwargs)
        return tally

    honest = one_pass()
    assert honest.failed == 0 and honest.attempted > 0, honest.messages
    assert one_pass(factory=lambda name, metrics: _Perturbed(name)).failed


def test_perturbed_serve_answer_fails_the_run(keys, monkeypatch, tmp_path):
    honest = count_lanes.Tally()
    serve_lane.run_serve(keys, 3.0, honest, Calibrator(),
                         False, 1, tmp_path)
    assert honest.failed == 0 and honest.attempted > 0, honest.messages

    real_request = serve_lane._request

    async def lying_request(reader, writer, payload):
        reply = await real_request(reader, writer, payload)
        if payload.get("kind") == "topk":
            reply["results"][0]["count"] -= 1
        return reply

    monkeypatch.setattr(serve_lane, "_request", lying_request)
    tally = count_lanes.Tally()
    serve_lane.run_serve(keys, 3.0, tally, Calibrator(),
                         False, 1, tmp_path)
    assert tally.failed > 0, tally.messages


def test_inputs_are_a_function_of_the_seed():
    a = streams.zipf_keys(1_000, 1.5, seed=9)
    assert np.array_equal(a, streams.zipf_keys(1_000, 1.5, seed=9))
    assert not np.array_equal(a, streams.zipf_keys(1_000, 1.5, seed=10))
