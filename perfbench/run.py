#!/usr/bin/env python3
"""Benchmark runner: one workload, fixed work, checked outputs.

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  Each run builds the workload's world ``reps`` times (see
``plan.json``); every repetition is timed set-up, a closed-loop
saturation phase and an open-loop phase at a fixed offered rate.  Phase
sizes depend only on ``--seconds``, so runs do identical work; the seed
picks payload padding and publish targets.  All times are reference
time (see ``refclock.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The line before it holds the seed, probe readings, raw wall-clock
values and phase sizes.  Scratch files (logs, sockets) live under
``.perfbench/`` in the working directory and are removed on exit.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

from refclock import NOMINAL_PROBE_MS, RefClock

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SCRATCH = ".perfbench"
E2E_UNITS = {"setup_s": "s", "delivered_per_s": "1/s",
             "latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "ack_p50_ms": "ms", "ack_p90_ms": "ms", "peak_rss_mb": "MB"}


def percentile(samples, q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def settle(clock) -> None:
    """Collect garbage and probe the host before a timed phase."""
    gc.collect()
    clock.calibrate()


def phase_sizes(name: str, spec: dict, seconds: int, reps: int) -> dict:
    def per_rep(key: str) -> int:
        return max(1, round(spec[key]["per_second"] * seconds / reps))

    sizes = {"open_loop": per_rep("open_loop"),
             "offered_per_s": spec["open_loop"]["offered_per_s"]}
    if name == "ingest":
        sizes["events_per_publish"] = spec["events_per_publish"]
    if name == "replay":
        sizes["saturation"] = spec["saturation"]["count"]
        sizes["backlog"] = spec["backlog"]["count"]
    else:
        sizes["saturation"] = per_rep("saturation")
    return sizes


def make_world(name: str, clock, events, rep: int, sizes: dict):
    from workloads import FanoutWorld, IngestWorld, ReplayWorld

    if name == "fanout":
        return FanoutWorld(clock, events, SCRATCH, rep)
    if name == "ingest":
        return IngestWorld(clock, events, SCRATCH, rep,
                           sizes["events_per_publish"])
    return ReplayWorld(clock, events, SCRATCH, rep, sizes["backlog"])


def counters(world) -> dict:
    """Cumulative counts from the program's public stats surfaces."""
    out = {key: 0 for key in (
        "messages", "bytes", "requests", "handler_errors", "code_fetches",
        "delivery_acks", "decodes", "header_renders", "header_splices",
        "forwards", "route_hits", "route_lookups", "appends", "log_bytes",
        "fsyncs", "replicated", "replicate_batches", "frames_sent",
        "blocked_sends", "bytes_copied", "queue_high_water")}
    for snap in world.network_stats():
        kinds = snap["by_kind_messages"]
        out["messages"] += snap["messages"]
        out["bytes"] += snap["bytes"]
        out["requests"] += snap["round_trips"]
        out["handler_errors"] += snap["handler_errors"]
        out["code_fetches"] += (kinds.get("get_assembly", 0)
                                + kinds.get("get_description", 0))
        out["delivery_acks"] += kinds.get("delivery_ack", 0)
    for shard in world.mesh.stats()["shards"].values():
        codec = shard["codec"]
        out["decodes"] += codec["decodes"]
        out["header_renders"] += codec["header_renders"]
        out["header_splices"] += codec["header_splices"]
        out["forwards"] += shard["forwards_sent"]
        out["route_hits"] += shard["routing"]["hits"]
        out["route_lookups"] += (shard["routing"]["hits"]
                                 + shard["routing"]["misses"])
        log = shard.get("log")
        if log:
            out["appends"] += log["appended"]
            out["log_bytes"] += log["bytes"]
            out["fsyncs"] += log["fsyncs"]
        for replica in shard.get("replicas", {}).values():
            out["appends"] += replica["records"]
            out["log_bytes"] += replica["bytes"]
        replication = shard.get("replication")
        if replication:
            out["replicated"] += (replication["records_replicated"]
                                  * len(replication["followers"]))
            out["replicate_batches"] += replication["batches_sent"]
    for subscriber in world.subscribers:
        out["decodes"] += subscriber.peer.codec.stats.decodes
    for snap in world.socket_snapshots():
        out["frames_sent"] += snap["frames_sent"]
        out["blocked_sends"] += snap["blocked_sends"]
        out["bytes_copied"] += snap["bytes_copied"]
        out["queue_high_water"] = max(out["queue_high_water"],
                                      snap["queue_high_water"])
    return out


LAYERS = ("transport", "remoting", "core", "serialization", "pipeline",
          "routing", "persistence", "replication", "net", "net.socket")


def layer_metrics(tracer, delta: dict, traced: dict, lags_ms, clock,
                  inbox_len: int) -> dict:
    """The per-layer metrics of a traced run (names as in BENCHMARK.json).
    Span times are scaled to reference time like every other timing."""
    norm = NOMINAL_PROBE_MS / clock.median_probe_ms()
    deliveries = max(1, traced["delivered"])
    records = max(1, traced["records"])

    def us(span: str) -> float:
        return tracer.mean_us(span) * norm

    def ratio(numerator, denominator) -> float:
        return numerator / denominator if denominator else 0.0

    wall = traced["wall_s"]
    layer_self = tracer.layer_self_s()
    metrics = {
        "transport.admit_us": us("transport.admit"),
        "transport.code_fetches": delta["code_fetches"],
        "transport.inbox_len": inbox_len,
        "remoting.wrap_us": us("remoting.wrap"),
        "remoting.invoke_us": us("remoting.invoke"),
        "core.conforms_us": us("core.conforms"),
        "core.conforms_per_delivery":
            tracer.calls["core.conforms"] / deliveries,
        "serialization.parse_us": us("serialization.parse"),
        "serialization.decode_us": us("serialization.decode"),
        "serialization.encode_us": us("serialization.encode"),
        "serialization.decodes_per_delivery": delta["decodes"] / deliveries,
        "serialization.header_renders_per_record":
            delta["header_renders"] / records,
        "serialization.header_splices_per_record":
            delta["header_splices"] / records,
        "pipeline.process_us": us("pipeline.process"),
        "pipeline.flush_us": us("pipeline.flush"),
        "pipeline.replay_us": us("pipeline.replay"),
        "pipeline.acks_per_record": delta["delivery_acks"] / records,
        "mesh.forwards_per_record": delta["forwards"] / records,
        "routing.route_us": us("routing.route"),
        "routing.hit_ratio": ratio(delta["route_hits"],
                                   delta["route_lookups"]),
        "persistence.append_us": us("persistence.append"),
        "persistence.read_us": us("persistence.read"),
        "persistence.appends_per_record": delta["appends"] / records,
        "persistence.bytes_per_record": delta["log_bytes"] / records,
        "persistence.fsyncs": delta["fsyncs"],
        "replication.flush_us": us("replication.flush"),
        "replication.records_per_batch":
            ratio(delta["replicated"], delta["replicate_batches"]),
        "net.messages_per_delivery": delta["messages"] / deliveries,
        "net.bytes_per_delivery": delta["bytes"] / deliveries,
        "net.requests": delta["requests"],
        "net.queue_wait_us":
            ratio(tracer.queue_wait_s, tracer.queue_waits) * 1e6 * norm,
        "net.handler_errors": delta["handler_errors"],
        "net.socket.poll_us": us("net.socket.poll"),
        "net.socket.frames_per_publish": delta["frames_sent"] / records,
        "net.socket.queue_high_water": delta["queue_high_water"],
        "net.socket.blocked_sends": delta["blocked_sends"],
        "net.socket.bytes_copied": delta["bytes_copied"],
    }
    for layer in LAYERS:
        metrics[layer + ".self_share"] = ratio(layer_self.get(layer, 0.0),
                                               wall)
    metrics["trace.coverage"] = ratio(sum(layer_self.values()), wall)
    metrics["trace.overhead"] = traced["overhead"]
    metrics["driver.lag_ms"] = percentile(lags_ms, 0.99)
    metrics["driver.ref_ms"] = clock.median_probe_ms()
    return metrics


def run(args) -> dict:
    from tracer import Tracer
    from workloads import Events

    with open(os.path.join(HERE, "plan.json"), encoding="utf-8") as handle:
        plan = json.load(handle)
    reps = plan["reps"]
    sizes = phase_sizes(args.workload, plan["workloads"][args.workload],
                        args.seconds, reps)
    clock = RefClock()
    events = Events(args.seed)
    tracer = Tracer() if args.trace else None

    # Set-up time is the median over the repetitions and the saturation
    # rate pools their work.  Latency percentiles are taken per
    # repetition and the best repetition is reported, as timeit reports
    # the best of its repeats: on a shared host, interference (stolen
    # CPU, disk stalls) only ever adds time, and it lands on a few
    # repetitions at random.
    per_rep = {name: [] for name in E2E_UNITS if name != "peak_rss_mb"}
    setups_wall = []
    sat = {"delivered": 0, "ref_s": 0.0, "wall_s": 0.0}
    traced = {"delivered": 0, "records": 0, "wall_s": 0.0}
    ref_per_record = {True: [], False: []}
    sample_counts = {"latency": 0, "ack": 0}
    lags = []
    attempted = failed = 0
    delta = None
    inbox_len = 0
    for rep in range(reps):
        # A traced run alternates bare and traced repetitions; the bare
        # ones are the base of trace.overhead.
        tracing = tracer is not None and rep % 2 == 1
        if tracing:
            tracer.install()
        world = make_world(args.workload, clock, events, rep, sizes)
        try:
            settle(clock)
            start_ref, start_wall = clock.now(), time.perf_counter()
            world.setup()
            per_rep["setup_s"].append(clock.now() - start_ref)
            setups_wall.append(time.perf_counter() - start_wall)

            before = counters(world) if tracing else None
            settle(clock)
            if tracing:
                tracer.active = True
            phase = world.saturate(sizes["saturation"])
            if tracing:
                tracer.active = False
                delta = _accumulate(delta, before, counters(world))
                traced["delivered"] += phase.delivered
                traced["records"] += phase.records
                traced["wall_s"] += phase.wall_s
            ref_per_record[tracing].append(phase.ref_s / phase.records)
            per_rep["delivered_per_s"].append(phase.delivered / phase.ref_s)
            sat["delivered"] += phase.delivered
            sat["ref_s"] += phase.ref_s
            sat["wall_s"] += phase.wall_s
            attempted += phase.attempted
            failed += phase.failed

            settle(clock)
            phase = world.open_loop(sizes["open_loop"],
                                    sizes["offered_per_s"])
            for name, samples, q in (
                    ("latency_p50_ms", phase.latencies_ms, 0.50),
                    ("latency_p90_ms", phase.latencies_ms, 0.90),
                    ("ack_p50_ms", phase.acks_ms, 0.50),
                    ("ack_p90_ms", phase.acks_ms, 0.90)):
                per_rep[name].append(percentile(samples, q))
            sample_counts["latency"] += len(phase.latencies_ms)
            sample_counts["ack"] += len(phase.acks_ms)
            lags.extend(phase.lags_ms)
            attempted += phase.attempted
            failed += phase.failed
            inbox_len = max(inbox_len, world.inbox_len())
        finally:
            world.close()
            if tracing:
                tracer.uninstall()
                tracer.forget_queues()

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "phase_sizes": dict(sizes, reps=reps),
        "probe_ms": {"median": clock.median_probe_ms(),
                     "min": min(clock.readings),
                     "max": max(clock.readings),
                     "readings": len(clock.readings)},
        "raw": {"delivered_per_s": sat["delivered"] / sat["wall_s"],
                "setup_s": statistics.median(setups_wall)},
        "per_rep": per_rep,
        "samples": sample_counts,
        "lag_p99_ms": percentile(lags, 0.99),
        "failed_share": failed / attempted,
    }
    if tracer is None:
        values = {
            "setup_s": statistics.median(per_rep["setup_s"]),
            "delivered_per_s": sat["delivered"] / sat["ref_s"],
            "latency_p50_ms": min(per_rep["latency_p50_ms"]),
            "latency_p90_ms": min(per_rep["latency_p90_ms"]),
            "ack_p50_ms": min(per_rep["ack_p50_ms"]),
            "ack_p90_ms": min(per_rep["ack_p90_ms"]),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (value, E2E_UNITS[name])
                   for name, value in values.items()}
    else:
        traced["overhead"] = (statistics.median(ref_per_record[True])
                              / statistics.median(ref_per_record[False]))
        values = layer_metrics(tracer, delta, traced, lags, clock, inbox_len)
        metrics = {name: (value, _unit(name))
                   for name, value in values.items()}
    return {
        "detail": detail,
        "result": {
            "correct": True,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def _accumulate(delta, before: dict, after: dict) -> dict:
    """Add one traced phase's counter increments to ``delta``; the queue
    high-water mark is a peak, not a count."""
    step = {key: after[key] - before[key] for key in after}
    step["queue_high_water"] = after["queue_high_water"]
    if delta is None:
        return step
    for key, value in step.items():
        delta[key] = (max(delta[key], value) if key == "queue_high_water"
                      else delta[key] + value)
    return delta


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_share") or name in ("trace.coverage",
                                            "trace.overhead",
                                            "routing.hit_ratio"):
        return "ratio"
    if name.endswith("_per_delivery") or name.endswith("_per_record") \
            or name.endswith("_per_publish") or name.endswith("_per_batch"):
        return "count/op"
    if name.endswith("bytes_copied") or name.endswith("queue_high_water"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fanout", "ingest", "replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import OracleError

    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    try:
        outcome = run(args)
    except OracleError as exc:
        print("perfbench: output check failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(json.dumps(outcome["detail"], sort_keys=True))
    print(json.dumps(outcome["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
