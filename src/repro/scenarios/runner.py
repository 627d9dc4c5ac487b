"""Run any registered scenario against any counting backend.

One entry point, :func:`run_scenario`, ties the pieces together: build
the seeded stream, count it with the chosen registry backend (built by
:func:`repro.backend.create_backend`, like every other engine), score
the result against exact ground truth, and record the ``scenario.*``
metrics into an optional registry.

:func:`audit.selfcheck` runs before every scenario, so a corrupted
scoring helper fails the suite loudly rather than mis-scoring quietly.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Optional, Tuple

from repro.backend import BACKEND_NAMES, SKETCH_BACKENDS, create_backend
from repro.core.space_saving import SpaceSaving
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.scenarios.audit import (
    AccuracyReport,
    score_accuracy,
    score_sketch_accuracy,
    selfcheck,
)
from repro.scenarios.registry import (
    ScenarioParams,
    Stream,
    get_scenario,
)
from repro.schedcheck.auditor import exact_counts

#: every backend the scenario matrix exercises: the registry minus
#: ``sketch-cs-vec``, whose unbiased (not one-sided) estimates may dip
#: below truth, so the underestimate gate cannot apply to it
BACKENDS = tuple(name for name in BACKEND_NAMES if name != "sketch-cs-vec")

#: elements per ``ingest`` call, rounded down to whole dispatch chunks
INGEST_BATCH = 8_192


@dataclasses.dataclass(frozen=True)
class ScenarioRun:
    """Everything one scenario x backend cell produced."""

    scenario: str
    scenario_kind: str
    backend: str
    elements: int               #: stream length counted
    distinct: int               #: distinct elements in the stream
    wall_seconds: float
    accuracy: AccuracyReport
    counter: SpaceSaving        #: the queryable merged/final summary
    metrics: Dict[str, Dict]    #: registry snapshot ({} when disabled)

    @property
    def throughput_eps(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.elements / self.wall_seconds


def run_backend(
    stream: Stream,
    backend: str,
    capacity: int,
    threads: int = 4,
    workers: int = 2,
    chunk_elements: int = 0,
    timeout: float = 120.0,
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[SpaceSaving, float]:
    """Count ``stream`` with one backend; return (summary, wall seconds).

    The engine comes from :func:`create_backend`, is fed in batches of
    whole dispatch chunks and queried once; the wall time covers ingest
    plus that snapshot (engine start-up is excluded).  ``chunk_elements``
    0 sizes the multiprocess dispatch chunk from the stream length.
    """
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r} (known: {', '.join(BACKENDS)})"
        )
    chunk = chunk_elements or min(
        32_768, max(256, len(stream) // (workers * 4) or 256)
    )
    batch = max(chunk, INGEST_BATCH - INGEST_BATCH % chunk)
    engine = create_backend(
        backend,
        capacity=capacity,
        threads=threads,
        workers=workers,
        chunk_elements=chunk,
        timeout=timeout,
        metrics=metrics,
    )
    try:
        started = time.perf_counter()
        for index in range(0, len(stream), batch):
            engine.ingest(stream[index:index + batch])
        snap = engine.snapshot()
        wall = time.perf_counter() - started
    finally:
        engine.close()
    counter = SpaceSaving.from_entries(capacity, snap.entries, snap.processed)
    return counter, wall


def run_scenario(
    name: str,
    backend: str = "sequential",
    params: Optional[ScenarioParams] = None,
    k: int = 10,
    threads: int = 4,
    workers: int = 2,
    chunk_elements: int = 0,
    timeout: float = 120.0,
    metrics: Optional[MetricsRegistry] = None,
) -> ScenarioRun:
    """Build, count and score one scenario on one backend."""
    selfcheck()
    scenario = get_scenario(name)
    params = params or ScenarioParams()
    stream = scenario.build(params)
    truth = exact_counts(stream)
    counter, wall = run_backend(
        stream,
        backend,
        capacity=params.capacity,
        threads=threads,
        workers=workers,
        chunk_elements=chunk_elements,
        timeout=timeout,
        metrics=metrics,
    )
    if backend in SKETCH_BACKENDS:
        # Count-Min table reads: the one-sided overestimate contract
        report = score_sketch_accuracy(counter, truth, k=k)
    else:
        # only the hierarchical shard merge may drop a borderline heavy
        # hitter (within its error bounds); cots-sim stays strict
        report = score_accuracy(
            counter, truth, k=k, merged=backend == "mp-shm"
        )
    snapshot: Dict[str, Dict] = {}
    if metrics is not None:
        metrics.counter("scenario.stream.elements").inc(len(stream))
        metrics.gauge("scenario.stream.distinct").set(len(truth))
        metrics.gauge("scenario.accuracy.recall_at_k").set(
            report.recall_at_k
        )
        metrics.gauge("scenario.accuracy.precision_at_k").set(
            report.precision_at_k
        )
        metrics.gauge("scenario.accuracy.max_overestimate").set(
            report.max_overestimate
        )
        metrics.gauge("scenario.accuracy.max_underestimate").set(
            report.max_underestimate
        )
        metrics.gauge("scenario.accuracy.error_bound").set(
            report.error_bound
        )
        metrics.gauge("scenario.accuracy.bound_excess").set(
            report.bound_excess
        )
        if report.guarantee_violations:
            metrics.counter("scenario.accuracy.guarantee_violations").inc(
                report.guarantee_violations
            )
        snapshot = metrics.snapshot()
    return ScenarioRun(
        scenario=name,
        scenario_kind=scenario.kind,
        backend=backend,
        elements=len(stream),
        distinct=len(truth),
        wall_seconds=wall,
        accuracy=report,
        counter=counter,
        metrics=snapshot,
    )
