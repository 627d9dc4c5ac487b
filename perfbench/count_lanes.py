"""Count lanes: the same interval job on ``sequential``, ``mp-shm`` and
``sketch-cm-vec``, the simulated CoTS run, and the traced stage replays.

A lane's job is one whole stream fed through ``Backend.ingest`` in
interval batches, with a top-k query (``snapshot`` + ``top_k``) after
each batch.  A *segment* is one batch plus its query; its rate is
``batch elements / segment seconds``.  The lanes take turns running
whole passes (a fresh backend each) until each lane's time share is
spent, and each reports its median segment rate.  Every segment is calibrated against the kernel
timed around it.  For mp the kernel runs in the parent while the
workers are idle (the previous query drained them); the workers slow
down with the host like the parent does, and the uncalibrated rate
spread 20-50% across runs where the calibrated one spread 7%.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from calib import Calibrator
from referee import SKETCH, SPACE_SAVING, Truth, check_answer, snapshot_triples
from spans import Spans

from repro.backend import create_backend
from repro.core.coding import StreamCodec
from repro.core.merge import hierarchical_merge
from repro.core.sketches.count_min import CountMinSketch
from repro.core.space_saving import SpaceSaving
from repro.cots import CoTSRunConfig, run_cots
from repro.mp.config import MPConfig
from repro.mp.pool import ShardedProcessPool
from repro.mp.shm import route_coded
from repro.obs.registry import MetricsRegistry

CAPACITY = 256
TOP_K = 10
SIM_THREADS = 4
#: stream prefix replayed on the simulated CMP
SIM_PREFIX = 3_000
#: referee every this many interval answers (plus the final one)
CHECK_EVERY = 5
#: stream elements replayed stage by stage in the traced run
REPLAY_ELEMENTS = 300_000

#: lane -> (backend registry name, referee mode)
LANES = {
    "seq": ("sequential", SPACE_SAVING),
    "mp": ("mp-shm", SPACE_SAVING),
    "sketch": ("sketch-cm-vec", SKETCH),
}


def host_cores() -> int:
    return len(os.sched_getaffinity(0))


def make_backend(lane: str, metrics=None):
    return create_backend(
        LANES[lane][0], capacity=CAPACITY, workers=host_cores(),
        metrics=metrics,
    )


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def fail(self, where: str, problems: List[str]) -> None:
        self.failed += len(problems)
        self.messages += [f"{where}: {p}" for p in problems[:3]]


@dataclasses.dataclass
class LaneResult:
    rates: List[float]          #: calibrated segment rates (elements/s)
    raw_rates: List[float]      #: uncalibrated segment rates
    query_ms: List[float]       #: calibrated query times
    raw_query_ms: List[float]
    ingest_s: List[float]       #: per pass: seconds inside ingest
    passes: int

    def eps(self) -> float:
        return statistics.median(self.rates)

    def raw_eps(self) -> float:
        return statistics.median(self.raw_rates)


def measure_setup() -> float:
    """Seconds to create every count lane (each closed right after)."""
    total = 0.0
    for lane in LANES:
        started = time.perf_counter()
        backend = make_backend(lane)
        total += time.perf_counter() - started
        backend.close()
    return total


def run_lanes(
    batches: List[list],
    truth: Truth,
    budgets: Dict[str, float],
    calib: Calibrator,
    tally: Tally,
    spans: Optional[Spans] = None,
    metrics: Callable = lambda: None,
) -> Dict[str, LaneResult]:
    """Rounds of one pass per lane until every lane's budget is spent.

    Interleaving the lanes spreads each lane's segments over the whole
    count phase, so a slow stretch of the host lands on all lanes
    instead of on whichever lane happened to run then.  Every lane runs
    at least one pass.  ``metrics`` makes each backend's registry.
    """
    results = {lane: LaneResult([], [], [], [], [], 0) for lane in LANES}
    spent = dict.fromkeys(LANES, 0.0)
    while True:
        due = [lane for lane in LANES
               if not results[lane].passes or spent[lane] < budgets[lane]]
        if not due:
            return results
        for lane in due:
            started = time.perf_counter()
            if not run_pass(lane, batches, truth, calib, tally,
                            results[lane], spans, metrics()):
                spent[lane] = float("inf")      # a failed lane stops
            spent[lane] += time.perf_counter() - started


def run_pass(
    lane: str,
    batches: List[list],
    truth: Truth,
    calib: Calibrator,
    tally: Tally,
    result: LaneResult,
    spans: Optional[Spans] = None,
    metrics=None,
    factory: Callable = make_backend,
) -> bool:
    """One whole pass of the interval job on a fresh backend, appended
    to ``result``; False when the lane raised."""
    spans = spans or Spans(False)
    mode = LANES[lane][1]
    backend = factory(lane, metrics)
    segments = []           # (elements, busy s, query ms, kernel before)
    try:
        ingested = 0
        for index, batch in enumerate(batches):
            # workers (if any) are idle here: the last query drained them
            cal = calib.measure()
            tally.attempted += 2
            started = time.perf_counter()
            with spans.span(f"backend.{lane}.ingest"):
                backend.ingest(batch)
            queried = time.perf_counter()
            with spans.span(f"backend.{lane}.snapshot"):
                snapshot = backend.snapshot()
                snapshot.top_k(TOP_K)
            done = time.perf_counter()
            ingested += len(batch)
            segments.append((len(batch), done - started,
                             (done - queried) * 1000.0, cal))
            if (index + 1) % CHECK_EVERY == 0 or index + 1 == len(batches):
                problems = check_answer(
                    snapshot_triples(snapshot), snapshot.error_bound,
                    snapshot.processed, truth, ingested, mode,
                )
                if problems:
                    tally.fail(lane, problems)
    except Exception as exc:  # noqa: BLE001 - a failed lane is reported
        tally.fail(lane, [f"{type(exc).__name__}: {exc}"])
        return False
    finally:
        backend.close()
    kernels = calib.bracket([seg[3] for seg in segments], calib.measure())
    for (elements, busy, query_ms, _), cal in zip(segments, kernels):
        result.rates.append(elements / calib.scale(busy, cal))
        result.raw_rates.append(elements / busy)
        result.query_ms.append(calib.scale(query_ms, cal))
        result.raw_query_ms.append(query_ms)
    result.ingest_s.append(sum(seg[1] - seg[2] / 1000.0 for seg in segments))
    result.passes += 1
    return True


@dataclasses.dataclass
class SimResult:
    meps: float                 #: simulated M elements/s (deterministic)
    host_s: List[float]         #: calibrated host seconds per repetition
    raw_host_s: List[float]
    stats: Dict[str, float]


def run_sim(
    prefix: list,
    truth: Truth,
    budget_s: float,
    calib: Calibrator,
    tally: Tally,
    metrics=None,
) -> SimResult:
    """``run_cots`` on a fixed prefix, repeated (at least 3x) until the
    budget is spent; the simulated result must repeat exactly."""
    result = SimResult(0.0, [], [], {})
    deadline = time.perf_counter() + budget_s
    kernels, busy_s = [], []
    while len(busy_s) < 3 or time.perf_counter() < deadline:
        kernels.append(calib.measure())
        tally.attempted += 1
        config = CoTSRunConfig(
            threads=SIM_THREADS, capacity=CAPACITY, metrics=metrics,
        )
        started = time.perf_counter()
        try:
            run = run_cots(prefix, config)
        except Exception as exc:  # noqa: BLE001 - a failed lane is reported
            tally.fail("sim", [f"{type(exc).__name__}: {exc}"])
            return result
        busy = time.perf_counter() - started
        busy_s.append(busy)
        meps = len(prefix) / run.seconds / 1e6
        if not result.stats:
            result.meps = meps
            counter = run.counter
            problems = check_answer(
                [(e.element, e.count, e.error) for e in counter.entries()],
                counter.max_error(), counter.processed, truth, len(prefix),
            )
            if problems:
                tally.fail("sim", problems)
            stats = run.extras["stats"]
            util = run.execution.core_utilization()
            result.stats = {
                "simcore.events": run.execution.events,
                "simcore.host_us_per_event":
                    busy / run.execution.events * 1e6,
                "cots.delegated_share":
                    stats.get("delegated_elements", 0) / len(prefix),
                "cots.bulk_crossings": stats.get("bulk_crossings", 0),
                "simcore.core_util": statistics.mean(util) if util else 0.0,
            }
        elif meps != result.meps:
            tally.fail("sim", [f"simulated rate {meps} != {result.meps}"])
    result.raw_host_s = busy_s
    result.host_s = [
        calib.scale(busy, cal)
        for busy, cal in zip(busy_s, calib.bracket(kernels, calib.measure()))
    ]
    return result


# ----------------------------------------------------------------------
# Traced run only: stage replays and the direct pool pass
# ----------------------------------------------------------------------
def _per_m(seconds: float, elements: int) -> float:
    return seconds / elements * 1e6 if elements else 0.0


def replay_stages(stream: list, calib: Calibrator) -> Dict[str, float]:
    """Time each public stage function on the mp pool's own chunks."""
    chunk_size = MPConfig().chunk_elements
    elements = stream[:REPLAY_ELEMENTS]
    chunks = [elements[i:i + chunk_size]
              for i in range(0, len(elements), chunk_size)]
    n = len(elements)
    workers = host_cores()
    out: Dict[str, float] = {}

    codec = StreamCodec()
    coded_seq = SpaceSaving(capacity=CAPACITY)
    encode_s = coded_s = route_s = 0.0
    distinct = 0
    encoded = []
    for chunk in chunks:
        cal = calib.measure()
        started = time.perf_counter()
        codes, weights = codec.encode_chunk(chunk)
        mid = time.perf_counter()
        coded_seq.process_weighted(zip(codes.tolist(), weights.tolist()))
        done = time.perf_counter()
        encode_s += mid - started
        coded_s += calib.scale(done - started, cal)
        distinct += len(codes)
        encoded.append((codes, weights))
    out["core.encode_s_per_m"] = _per_m(encode_s, n)
    out["core.distinct_ratio"] = distinct / n
    out["core.seq_coded_eps"] = n / coded_s

    shard = SpaceSaving(capacity=CAPACITY)
    shard_s = 0.0
    shard_weight = 0
    for codes, weights in encoded:
        started = time.perf_counter()
        routed = route_coded(codes, weights, workers, "hash")
        route_s += time.perf_counter() - started
        shard_codes, shard_weights = routed[0]
        started = time.perf_counter()
        shard.process_weighted(
            zip(shard_codes.tolist(), shard_weights.tolist())
        )
        shard_s += time.perf_counter() - started
        shard_weight += int(shard_weights.sum())
    out["mp.route_s_per_m"] = _per_m(route_s, n)
    out["mp.worker_count_s_per_m"] = _per_m(shard_s, shard_weight)

    registry = MetricsRegistry()
    counter = SpaceSaving(capacity=CAPACITY, metrics=registry)
    started = time.perf_counter()
    for chunk in chunks:
        counter.process_many(chunk)
    out["core.process_many_s_per_m"] = _per_m(time.perf_counter() - started, n)
    counters = registry.snapshot()["counters"]
    ops = sum(counters.get(f"core.spacesaving.{kind}", 0)
              for kind in ("increments", "inserts", "overwrites"))
    out["core.overwrites_share"] = (
        counters.get("core.spacesaving.overwrites", 0) / ops if ops else 0.0
    )

    sketch = CountMinSketch(epsilon=0.001, delta=0.01, seed=0)
    hot = SpaceSaving(capacity=CAPACITY)
    update_s = candidates_s = 0.0
    for chunk in chunks:
        codes, weights = sketch.codec.encode_chunk(chunk)
        started = time.perf_counter()
        sketch.process_weighted(codes, weights)
        mid = time.perf_counter()
        # the vectorized sketch backends' candidate identifier
        if len(codes) > CAPACITY:
            top = np.argpartition(weights, len(codes) - CAPACITY)
            top = top[len(codes) - CAPACITY:]
            hot.process_weighted(zip(codes[top].tolist(),
                                     weights[top].tolist()))
        else:
            hot.process_weighted(zip(codes.tolist(), weights.tolist()))
        candidates_s += time.perf_counter() - mid
        update_s += mid - started
    out["core.sketch.update_s_per_m"] = _per_m(update_s, n)
    out["core.sketch.candidates_s_per_m"] = _per_m(candidates_s, n)
    return out


def traced_pool_pass(
    batches: List[list], truth: Truth, tally: Tally, spans: Spans,
    stage_s_per_m: Dict[str, float],
) -> Dict[str, float]:
    """One pass straight on ``ShardedProcessPool`` with its registry on."""
    registry = MetricsRegistry()
    pool = ShardedProcessPool(
        MPConfig(workers=host_cores(), capacity=CAPACITY), metrics=registry
    )
    ingested = 0
    started = time.perf_counter()
    try:
        for batch in batches:
            tally.attempted += 2
            with spans.span("mp.dispatch"):
                pool.count(batch)
            ingested += len(batch)
            with spans.span("mp.snapshot"):
                shards = pool.snapshot()
            with spans.span("core.merge"):
                merged = hierarchical_merge(shards, capacity=CAPACITY)
            merged.top_k(TOP_K)
        problems = check_answer(
            [(e.element, e.count, e.error) for e in merged.entries()],
            merged.max_error(), merged.processed, truth, ingested,
        )
        if problems:
            tally.fail("mp-pool", problems)
    finally:
        pool.close()
    wall = time.perf_counter() - started
    snap = registry.snapshot()
    counters, histograms = snap["counters"], snap["histograms"]
    stall = histograms.get("mp.shm.stall_seconds", {}).get("sum", 0.0)
    items = counters.get("mp.dispatched.items", 0)
    per_elem = ingested / 1e6
    parent_stages = (
        (stage_s_per_m["core.encode_s_per_m"]
         + stage_s_per_m["mp.route_s_per_m"]) * per_elem
        + stall + spans.total("mp.snapshot") + spans.total("core.merge")
    )
    return {
        "mp.dispatch_s": spans.total("mp.dispatch"),
        "mp.snapshot_ms": spans.median_ms("mp.snapshot"),
        "core.merge_ms": spans.median_ms("core.merge"),
        "mp.ring_stalls": counters.get("mp.shm.ring_stalls", 0),
        "mp.stall_s": stall,
        "mp.shm_bytes_per_elem":
            counters.get("mp.shm.bytes", 0) / items if items else 0.0,
        "mp.stage_coverage": parent_stages / wall,
    }
