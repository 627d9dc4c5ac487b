"""The repo benchmark: one workload, every lane, every answer refereed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload count-skewed --seed 1 \
        --seconds 20 --trace 0

Runs set-up, the three count lanes (``sequential``, ``mp-shm``,
``sketch-cm-vec``), the simulated CoTS run and the serve lane on the
workload's seeded input, checks every answer against the exact
referee, and prints as its last stdout line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
all instrumentation off.  With ``--trace 1`` the run measures the same
thing untraced, then again with registries and spans on, and prints
the per-layer metrics plus the tracing overhead (traced minus untraced
end-to-end values); spans are written to ``perfbench/out/``.  The line
before the result is a ``{"context": ...}`` object (host cores,
calibration medians, sample counts, failure messages).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path; refuse any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {ROOT}/src: "
                 f"{exc}")
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from this checkout")


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workload, seed: int, seconds: float, traced: bool,
            calib, tally, spans, prepared) -> dict:
    """One measurement of every lane; returns end-to-end values and,
    when ``traced``, the per-layer values."""
    import count_lanes
    import serve_lane
    from repro.obs.registry import MetricsRegistry

    keys, stream, batches, truth, sim_prefix, sim_truth = prepared
    budget = {lane: share * seconds for lane, share in workload.budget.items()}
    registry = (lambda: MetricsRegistry()) if traced else (lambda: None)
    count_setup, serve_setup = [], []

    def probe_setup() -> None:
        # set-up is sampled at several points of the run, so one slow
        # stretch of the host cannot own the median
        count_setup.append(count_lanes.measure_setup())
        server = serve_lane.ServerProcess(traced, OUT / "serve-stderr.log")
        server.stop()
        serve_setup.append(server.setup_s)

    probe_setup()
    lanes = count_lanes.run_lanes(batches, truth, budget, calib, tally,
                                  spans, registry)
    probe_setup()
    sim = count_lanes.run_sim(sim_prefix, sim_truth, budget["sim"], calib,
                              tally, registry())
    probe_setup()
    serve = serve_lane.run_serve(
        keys, budget["serve"], tally, calib, traced, seed, OUT,
    )
    serve_setup.append(serve["setup_s"])
    probe_setup()

    e2e = {
        "setup_s": (statistics.median(count_setup)
                    + statistics.median(serve_setup)),
        "peak_rss_mb": _peak_rss_mb(),
        "seq_eps": lanes["seq"].eps(),
        "mp_eps": lanes["mp"].eps(),
        "sketch_eps": lanes["sketch"].eps(),
        "mp_query_ms": statistics.median(lanes["mp"].query_ms),
        "sim_meps": sim.meps,
        "sim_host_s": statistics.median(sim.host_s),
        "serve_eps": serve["serve_eps"],
    }
    for name in ("ingest", "query", "visible"):
        e2e[f"{name}_p50_ms"] = serve[name]["p50"]
    e2e["visible_p99_ms"] = serve["visible"]["p99"]

    context = {
        "raw.seq_eps": lanes["seq"].raw_eps(),
        "raw.sketch_eps": lanes["sketch"].raw_eps(),
        "raw.mp_eps": lanes["mp"].raw_eps(),
        "raw.mp_query_ms": statistics.median(lanes["mp"].raw_query_ms),
        "raw.sim_host_s": statistics.median(sim.raw_host_s),
        "passes": {lane: r.passes for lane, r in lanes.items()},
        "sim_reps": len(sim.host_s),
        "samples": {name: serve[name]["n"]
                    for name in ("ingest", "query", "visible")},
        "gen.late_p99_ms": serve["gen_late"]["p99"],
    }
    layers = {}
    if traced:
        for lane, result in lanes.items():
            layers[f"backend.{lane}.ingest_s"] = statistics.median(
                result.ingest_s or [0.0])
            layers[f"backend.{lane}.snapshot_ms"] = spans.median_ms(
                f"backend.{lane}.snapshot")
        layers.update(sim.stats)
        layers.update(serve["layers"])
        layers["gen.late_p99_ms"] = serve["gen_late"]["p99"]
        layers["gen.ingest_p99_ms"] = serve["ingest"]["p99"]
        layers["gen.query_p99_ms"] = serve["query"]["p99"]
        stages = count_lanes.replay_stages(stream, calib)
        layers.update(stages)
        layers.update(count_lanes.traced_pool_pass(
            batches, truth, tally, spans, stages))
        for name in ("seq_eps", "sketch_eps", "sim_host_s"):
            layers[f"raw.{name}"] = context[f"raw.{name}"]
    return {"e2e": e2e, "layers": layers, "context": context}


def prepare(workload, seed: int):
    """Seeded inputs and their exact truth (not timed)."""
    import streams
    from count_lanes import SIM_PREFIX
    from referee import Truth

    keys = streams.zipf_keys(workload.elements, workload.alpha, seed)
    stream = keys.tolist()
    batches = [stream[i:i + workload.interval]
               for i in range(0, len(stream), workload.interval)]
    sim_keys = keys[:SIM_PREFIX]
    return (keys, stream, batches, Truth(keys), sim_keys.tolist(),
            Truth(sim_keys))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    try:
        return _run(parser, args)
    finally:
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker, if one runs.

    The mp lane's ``SharedMemory`` rings start it.  Left alone it would
    outlive this process: it exits only when it reads end-of-file on
    its pipe, after this process is gone.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    import streams
    from calib import Calibrator
    from count_lanes import Tally, host_cores
    from spans import Spans

    if args.workload not in streams.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"pick one of {sorted(streams.WORKLOADS)}")
    workload = streams.WORKLOADS[args.workload]
    prepared = prepare(workload, args.seed)
    calib = Calibrator()
    tally = Tally()
    started = time.perf_counter()
    plain = measure(workload, args.seed, args.seconds, False, calib, tally,
                    Spans(False), prepared)
    context = dict(plain["context"], host_cores=host_cores())
    if args.trace:
        spans = Spans(True)
        traced = measure(workload, args.seed, args.seconds, True, calib,
                         tally, spans, prepared)
        spans.write(OUT / f"spans-{args.workload}-{args.seed}.json")
        metrics = dict(traced["layers"])
        metrics["host.cal_ms"] = calib.median()
        for name, value in plain["e2e"].items():
            metrics[f"overhead.{name}"] = traced["e2e"][name] - value
        units = _units("per_layer")
    else:
        metrics = plain["e2e"]
        units = _units("end_to_end")
    context.update(
        cal_ms_median=calib.median(),
        cal_ms_quartiles=(statistics.quantiles(calib.samples, n=4)
                          if len(calib.samples) > 1 else []),
        wall_s=time.perf_counter() - started,
        failures=tally.messages[:20],
    )
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _units(kind: str) -> dict:
    """Metric units, read from BENCHMARK.json so the two never drift."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


if __name__ == "__main__":
    sys.exit(main())
