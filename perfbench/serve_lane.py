"""Serve lane: a ``sequential``-backed ``StreamServer`` in its own process,
driven over the NDJSON protocol by a generator in this process.

The generator holds two connections (within ``nproc``):

* connection 1 sends open-loop ingest frames of 100 events at a fixed
  rate, then a closed-loop phase that keeps 32 frames in flight;
* connection 2 sends open-loop point and top-k queries beside the
  open-loop ingest (plus ``ping`` and ``stats`` polls when traced).

Every frame is encoded during set-up and sent at its due time whatever
the replies do; latencies count from the due time.  Each answer's
``processed`` tells which ingested events it counts, which gives the
visibility latency of every open-loop frame.  The lane ends with
``flush`` and an audit of the final answers against exact truth.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import select
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from calib import Calibrator
from count_lanes import Tally
from referee import Truth, check_answer, check_entries

from repro.obs.live import histogram_quantile

HERE = Path(__file__).resolve().parent

#: serve-bench's default tuning (staleness bound 0.02 + 0.1 = 0.12 s)
SERVE_CONFIG = {
    "backend": "sequential", "capacity": 512, "batch_events": 8192,
    "batch_interval": 0.02, "max_pending_batches": 64,
    "snapshot_interval": 0.1,
}
#: events per closed-loop frame, and per open-loop frame (open-loop
#: frames are smaller so 1000 frames/s offers 40k events/s, a light
#: load on every workload's backend)
FRAME_EVENTS = 100
OPEN_FRAME_EVENTS = 10
#: open-loop ingest frames/s and queries/s
INGEST_RATE = 1000
QUERY_RATE = 1000
WINDOW = 32
#: closed-loop frames encoded per second of phase (headroom over the
#: ~400k events/s a separate-process generator reaches)
CLOSED_FRAMES_PER_S = 12_000
POINT_KEYS = 32
#: latency samples per percentile window (one second at 1000/s)
WINDOW_SAMPLES = 1000
#: closed-loop segment: frames in flight for this long, then ``flush``
SEGMENT_S = 0.25
TOP_K = 10
#: seconds queries keep running after the last open-loop ingest frame,
#: so the last frames' visibility is observed (well over the bound)
VISIBILITY_TAIL_S = 0.6
READY_TIMEOUT_S = 60.0


class ServerProcess:
    """Spawn the server, wait until it accepts connections, stop it."""

    def __init__(self, traced: bool, stderr_path: Path) -> None:
        started = time.perf_counter()
        stderr_path.parent.mkdir(parents=True, exist_ok=True)
        self._stderr = open(stderr_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve_proc.py"),
             json.dumps(SERVE_CONFIG), "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        try:
            ready, _, _ = select.select(
                [self.proc.stdout], [], [], READY_TIMEOUT_S
            )
            line = self.proc.stdout.readline() if ready else b""
            if not line.startswith(b"READY "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.split()[1])
            socket.create_connection(("127.0.0.1", self.port), 10).close()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def stop(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=15)
        except (subprocess.TimeoutExpired, OSError):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._stderr.close()


def _frame(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


@dataclasses.dataclass
class Plan:
    """Every frame of one serve run, encoded before the clock starts."""

    source: np.ndarray          #: event keys, cycled
    open_frames: List[bytes]
    open_slices: List[tuple]    #: (start, stop) of each frame in ``source``
    closed_frames: List[bytes]
    closed_slices: List[tuple]
    query_frames: List[bytes]
    query_kinds: List[str]
    query_elements: List[Optional[int]]   #: key of each point query
    closed_s: float
    point_keys: List[int]


def make_plan(keys: np.ndarray, budget_s: float, traced: bool,
              seed: int) -> Plan:
    closed_s = max(1.0, 0.4 * budget_s)
    open_s = max(2.5, budget_s - closed_s - VISIBILITY_TAIL_S)
    n_open = int(open_s * INGEST_RATE)
    n_closed = int(closed_s * CLOSED_FRAMES_PER_S)
    open_events = n_open * OPEN_FRAME_EVENTS
    source = np.resize(keys, open_events + n_closed * FRAME_EVENTS)
    slices = [(i * OPEN_FRAME_EVENTS, (i + 1) * OPEN_FRAME_EVENTS)
              for i in range(n_open)]
    slices += [(open_events + i * FRAME_EVENTS,
                open_events + (i + 1) * FRAME_EVENTS)
               for i in range(n_closed)]
    frames = [_frame({"op": "ingest", "events": source[a:b].tolist()})
              for a, b in slices]
    distinct, counts = np.unique(source[:open_events], return_counts=True)
    heavy = distinct[np.argsort(counts)[::-1][: POINT_KEYS // 2]].tolist()
    rng = np.random.default_rng(seed)
    light = rng.choice(distinct, POINT_KEYS - len(heavy)).tolist()
    point_keys = heavy + light
    n_queries = int((open_s + VISIBILITY_TAIL_S) * QUERY_RATE)
    query_frames, kinds, elements = [], [], []
    for slot in range(n_queries):
        if traced and slot % 10 == 0:
            kind, payload = "ping", {"op": "ping"}
        elif traced and slot % 10 == 5:
            kind, payload = "stats", {"op": "stats"}
        elif slot % 2:
            kind = "topk"
            payload = {"op": "query", "kind": "topk", "k": TOP_K}
        else:
            kind = "point"
            payload = {"op": "query", "kind": "point",
                       "element": point_keys[slot // 2 % len(point_keys)]}
        query_frames.append(_frame(payload))
        kinds.append(kind)
        elements.append(payload.get("element"))
    return Plan(source, frames[:n_open], slices[:n_open], frames[n_open:],
                slices[n_open:], query_frames, kinds, elements, closed_s,
                point_keys)


async def _open_loop(writer, frames, dues, sent):
    for frame, due in zip(frames, dues):
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sent.append(time.perf_counter())
        writer.write(frame)
        await writer.drain()


async def _receive(reader, count, received):
    """Read ``count`` reply lines, each stamped with its arrival time."""
    pending = b""
    while len(received) < count:
        data = await reader.read(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        now = time.perf_counter()
        *lines, pending = (pending + data).split(b"\n")
        received.extend((now, line) for line in lines)


async def _closed_loop(reader, writer, frames, duration, calib):
    """Closed-loop segments until ``duration`` is spent.

    Each segment keeps ``WINDOW`` frames in flight for ``SEGMENT_S``
    seconds and ends with a ``flush`` barrier, so the server's backlog
    is drained inside the segment and cannot grow across segments.  The
    kernel is timed before each segment, while the server is idle.
    """
    acks, flushes, segments = [], [], []
    sent = 0
    stop_at = time.perf_counter() + duration
    while time.perf_counter() < stop_at and sent < len(frames):
        cal = calib.measure()
        started = time.perf_counter()
        segment_end = started + SEGMENT_S
        first = len(acks)
        in_flight = 0
        while in_flight < WINDOW and sent < len(frames):
            writer.write(frames[sent])
            sent += 1
            in_flight += 1
        await writer.drain()
        while in_flight:
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            acks.append((time.perf_counter(), line))
            in_flight -= 1
            if time.perf_counter() < segment_end and sent < len(frames):
                writer.write(frames[sent])
                sent += 1
                in_flight += 1
                await writer.drain()
        flushes.append(await _request(reader, writer, {"op": "flush"}))
        segments.append((first, len(acks), time.perf_counter() - started,
                         cal))
    after = calib.measure()
    kernels = calib.bracket([seg[3] for seg in segments], after)
    segments = [seg[:3] + (cal,) for seg, cal in zip(segments, kernels)]
    return acks, flushes, segments


async def _request(reader, writer, payload):
    writer.write(_frame(payload))
    await writer.drain()
    line = await reader.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    return json.loads(line)


def _ms(values) -> Dict[str, float]:
    """p50/p99 in ms over ``values`` (seconds, in due-time order).

    The samples are cut into consecutive windows of
    :data:`WINDOW_SAMPLES` (one second at the offered rate) and the
    median over windows of each window's percentile is reported, so a
    host stall that spoils one window does not move the figure.  Every
    window's p99 has ten samples beyond it.  Fewer samples than one
    window fall back to the percentiles of all of them.
    """
    arr = np.asarray(values, dtype=np.float64) * 1000.0
    full = len(arr) // WINDOW_SAMPLES * WINDOW_SAMPLES
    windows = (arr[:full].reshape(-1, WINDOW_SAMPLES) if full
               else arr.reshape(1, -1))
    return {
        "p50": float(np.median(np.percentile(windows, 50, axis=1))),
        "p99": float(np.median(np.percentile(windows, 99, axis=1))),
        "n": windows.size, "windows": len(windows),
    }


async def _drive(port: int, plan: Plan, traced: bool, calib) -> dict:
    limit = 1 << 24
    r1, w1 = await asyncio.open_connection("127.0.0.1", port, limit=limit)
    r2, w2 = await asyncio.open_connection("127.0.0.1", port, limit=limit)
    try:
        start = time.perf_counter() + 0.05
        ingest_dues = [start + j / INGEST_RATE
                       for j in range(len(plan.open_frames))]
        # queries fall half a period after ingest frames, so the two
        # schedules never send at the same instant
        query_dues = [start + (j + 0.5) / QUERY_RATE
                      for j in range(len(plan.query_frames))]
        ingest_sent, ingest_recv, query_sent, query_recv = [], [], [], []
        await asyncio.gather(
            _open_loop(w1, plan.open_frames, ingest_dues, ingest_sent),
            _receive(r1, len(plan.open_frames), ingest_recv),
            _open_loop(w2, plan.query_frames, query_dues, query_sent),
            _receive(r2, len(plan.query_frames), query_recv),
        )
        closed_acks, closed_flushes, segments = await _closed_loop(
            r1, w1, plan.closed_frames, plan.closed_s, calib
        )
        flushed = await _request(r1, w1, {"op": "flush"})
        final_topk = await _request(
            r2, w2,
            {"op": "query", "kind": "topk", "k": SERVE_CONFIG["capacity"]},
        )
        final_points = await _request(
            r2, w2, {"op": "query", "kind": "set",
                     "elements": plan.point_keys},
        )
        metrics = None
        if traced:
            metrics = await _request(r2, w2, {"op": "metrics", "raw": True})
    finally:
        for writer in (w1, w2):
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    return {
        "ingest_dues": ingest_dues, "ingest_sent": ingest_sent,
        "ingest_recv": ingest_recv, "query_dues": query_dues,
        "query_sent": query_sent, "query_recv": query_recv,
        "closed_acks": closed_acks, "closed_flushes": closed_flushes,
        "segments": segments,
        "flushed": flushed, "final_topk": final_topk,
        "final_points": final_points, "metrics": metrics,
    }


def _answer_triples(answer: dict) -> List[tuple]:
    if answer["kind"] == "point":
        return []
    return [(r["element"], r["count"], r["error"]) for r in answer["results"]]


def run_serve(
    keys: np.ndarray, budget_s: float, tally: Tally, calib: Calibrator,
    traced: bool, seed: int, out_dir: Path,
) -> dict:
    """Spawn the server, drive it, stop it, and audit every answer."""
    plan = make_plan(keys, budget_s, traced, seed)
    server = ServerProcess(traced, out_dir / "serve-stderr.log")
    try:
        raw = asyncio.run(_drive(server.port, plan, traced, calib))
    finally:
        server.stop()
    return _evaluate(plan, raw, tally, calib, server.setup_s, traced)


def _evaluate(plan: Plan, raw: dict, tally: Tally, calib: Calibrator,
              setup_s: float, traced: bool) -> dict:
    ingest = [json.loads(line) for _, line in raw["ingest_recv"]]
    closed = [json.loads(line) for _, line in raw["closed_acks"]]
    queries = [json.loads(line) for _, line in raw["query_recv"]]
    flushes = raw["closed_flushes"]
    tally.attempted += (len(ingest) + len(closed) + len(queries)
                        + len(flushes) + 3)
    failed_flushes = [f for f in flushes if not f.get("ok")]
    if failed_flushes:
        tally.fail("serve flush", [str(f) for f in failed_flushes])

    # the acked event sequence, in server order (one ingest connection)
    acked_slices = [s for s, reply in zip(plan.open_slices, ingest)
                    if reply.get("ok")]
    acked_slices += [s for s, reply in zip(plan.closed_slices, closed)
                     if reply.get("ok")]
    rejected = sum(1 for reply in ingest + closed if not reply.get("ok"))
    if rejected:
        tally.fail("serve", [f"{rejected} ingest frames refused"] * rejected)
    acked = (np.concatenate([plan.source[a:b] for a, b in acked_slices])
             if acked_slices else np.empty(0, dtype=np.int64))
    truth = Truth(acked)

    # every query answer is refereed at the prefix it reports
    problems = []
    answers = []            # (receive time, processed) of counted answers
    query_lat, ping_lat = [], []
    queue_depth_max = 0
    for (received, _), due, kind, element, reply in zip(
        raw["query_recv"], raw["query_dues"], plan.query_kinds,
        plan.query_elements, queries,
    ):
        if not reply.get("ok"):
            problems.append(f"{kind} query failed: {reply.get('error')}")
            continue
        if kind == "ping":
            ping_lat.append(received - due)
            continue
        if kind == "stats":
            queue_depth_max = max(queue_depth_max,
                                  reply["stats"]["queue_depth"])
            continue
        query_lat.append(received - due)
        prefix = reply["processed"]
        answers.append((received, prefix))
        if kind == "point":
            problems += check_entries(
                [(element, reply["count"], reply["error"])], truth, prefix
            )
        else:
            problems += check_entries(_answer_triples(reply), truth, prefix)
    if problems:
        tally.fail("serve answers", problems)

    # visibility: first answer whose ``processed`` covers the frame
    seen_t = np.array([t for t, _ in answers])
    seen_p = np.maximum.accumulate(np.array([p for _, p in answers]))
    visible, missed = [], 0
    position = 0
    for (a, b), reply, due in zip(plan.open_slices, ingest,
                                  raw["ingest_dues"]):
        if not reply.get("ok"):
            continue
        position += b - a
        k = int(np.searchsorted(seen_p, position, side="left"))
        if k < len(seen_p):
            visible.append(seen_t[k] - due)
        else:
            missed += 1
    if missed:
        tally.fail("serve visibility", [f"{missed} frames never seen"])

    # final audit after the flush barrier
    flushed = raw["flushed"]
    final = raw["final_topk"]
    problems = []
    if flushed.get("processed") != len(acked):
        problems.append(
            f"flush processed {flushed.get('processed')} != acked "
            f"{len(acked)}"
        )
    problems += check_answer(
        _answer_triples(final), final["error_bound"], final["processed"],
        truth, len(acked),
    )
    problems += check_entries(
        [(r["element"], r["count"], r["error"])
         for r in raw["final_points"]["results"]],
        truth, len(acked),
    )
    if problems:
        tally.fail("serve final", problems)

    ingest_lat = [t - due for (t, _), due in
                  zip(raw["ingest_recv"], raw["ingest_dues"])]
    late = [s - d for s, d in zip(raw["ingest_sent"], raw["ingest_dues"])]
    late += [s - d for s, d in zip(raw["query_sent"], raw["query_dues"])]
    segment_eps = [
        sum(FRAME_EVENTS for r in closed[first:stop] if r.get("ok"))
        / calib.scale(seconds, cal)
        for first, stop, seconds, cal in raw["segments"]
    ]
    result = {
        "setup_s": setup_s,
        "serve_eps": statistics.median(segment_eps),
        "ingest": _ms(ingest_lat),
        "query": _ms(query_lat),
        "visible": _ms(visible) if visible else {"p50": 0, "p99": 0, "n": 0},
        "gen_late": _ms(late),
    }
    if traced:
        result["layers"] = _serve_layers(
            raw["metrics"], ping_lat, queue_depth_max, rejected,
            len(ingest) + len(closed),
        )
    return result


def _hist_q(histograms: dict, name: str, q: float, scale: float = 1.0):
    hist = histograms.get(name)
    if not hist or not hist["count"]:
        return 0.0
    return histogram_quantile(q, hist["buckets"], hist["counts"]) * scale


def _serve_layers(metrics: dict, ping_lat, queue_depth_max: int,
                  rejected: int, frames: int) -> Dict[str, float]:
    snap = metrics["snapshot"]
    hists = snap.get("histograms", {})
    gauges = metrics["summary"].get("gauges", {})
    return {
        "serve.flush_ms_p50": _hist_q(hists, "serve.batch.flush_seconds",
                                      0.5, 1000.0),
        "serve.flush_ms_p99": _hist_q(hists, "serve.batch.flush_seconds",
                                      0.99, 1000.0),
        "serve.batch_fill_p50": _hist_q(hists, "serve.batch.fill", 0.5),
        "serve.queue_depth_max": float(max(
            queue_depth_max,
            gauges.get("serve.queue.depth", {}).get("max", 0.0),
        )),
        "serve.refresh_ms_p99": _hist_q(hists, "serve.snapshot.seconds",
                                        0.99, 1000.0),
        "serve.query_ms_p99": _hist_q(hists, "serve.query.seconds",
                                      0.99, 1000.0),
        "serve.ping_p99_ms": _ms(ping_lat)["p99"] if ping_lat else 0.0,
        "serve.rejected_share": rejected / frames if frames else 0.0,
    }
