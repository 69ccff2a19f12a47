#!/usr/bin/env python3
"""Summarise a traced run: per-layer metrics, self time and counts.

    python3 perfbench/trace_summary.py .bench_build/traces/<workload>-seed<N>.json

A traced run (run.py --trace 1) writes its raw document, spans
included, to .bench_build/traces/. This prints each per-layer metric
beside the workload and end-to-end metric it should move, the self time
of every span name and layer (duration minus the time its child spans
cover), the counts, and the tracing overhead against the untraced
passes the same run makes.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

# Per-layer metric -> (workload, end-to-end metrics it should move).
LAYERS = {
    "core.rig_build_ms": ("plant_10k", "setup_s"),
    "core.physics_step_ms": ("plant_10k", "sim_s_per_s"),
    "telemetry.sample_ms": ("plant_10k", "sim_s_per_s"),
    "core.control_ms": ("plant_10k", "sim_s_per_s"),
    "battery.discharge_ms": ("plant_10k", "sim_s_per_s"),
    "battery.end_tick_ms": ("plant_10k", "sim_s_per_s"),
    "core.pool_overhead_ms": ("plant_10k", "sim_s_per_s"),
    "sim.events_per_s": ("plant_10k", "sim_s_per_s"),
    "telemetry.link_requests": ("plant_10k", "sim_s_per_s"),
    "telemetry.link_failures": ("plant_10k", "sim_s_per_s"),
    "core.run_ms": ("fault_campaign", "runs_per_s, batch_runs_per_s"),
    "validate.check_ms": ("fault_campaign", "runs_per_s, batch_runs_per_s"),
    "dispatch.lease_wait_s": ("fault_campaign", "runs_per_s"),
    "dispatch.tail_s": ("fault_campaign", "runs_per_s"),
    "snapshot.result_codec_us": ("fault_campaign", "runs_per_s"),
    "service.decode_us_per_kb": ("fault_campaign", "runs_per_s"),
    "dispatch.leases": ("fault_campaign", "runs_per_s"),
    "dispatch.frames": ("fault_campaign", "runs_per_s"),
    "dispatch.bytes": ("fault_campaign", "runs_per_s"),
    "fault.injected": ("fault_campaign", "runs_per_s"),
    "validate.violations": ("fault_campaign", "runs_per_s"),
    "interactive.requests": ("fault_campaign", "runs_per_s"),
    "dispatch.requeued_runs": ("fault_campaign", "failed_frac"),
    "dispatch.workers_lost": ("fault_campaign", "failed_frac"),
    "service.advance_ms": ("twin_live", "sim_s_per_s, read_p99_ms"),
    "service.read_handle_us": ("twin_live", "read_p50_ms"),
    "service.read_rtt_us": ("twin_live", "read_p50_ms"),
    "snapshot.serialize_ms": ("twin_live", "whatif_p50_ms, read_p99_ms"),
    "snapshot.restore_ms": ("twin_live", "runs_per_s, whatif_p50_ms"),
    "snapshot.bytes": ("twin_live", "runs_per_s, whatif_p50_ms"),
    "service.whatif_miss_ms": ("twin_live",
                               "runs_per_s, whatif_p50_ms, whatif_p90_ms"),
    "service.cache_hit_ratio": ("twin_live", "whatif_p50_ms"),
    "service.gen_late_ms": ("twin_live", "(validity of every latency)"),
    "service.snapshots_taken": ("twin_live", "whatif_p50_ms"),
    "service.error_frames": ("twin_live", "failed_frac"),
    "service.crc_errors": ("twin_live", "failed_frac"),
    "service.resyncs": ("twin_live", "failed_frac"),
    "trace.overhead_pct": ("all", "(tracing cost)"),
}


def durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def med(spans, name, scale):
    d = durations(spans, name)
    return scale * stats.median(d) if d else 0.0


def step_medians(doc, spans):
    """Median 1-s step of the traced windows, ms, by the periodic tasks
    that fire in it. Step spans close in simulated-time order, one
    window after another, so the i-th ends at simulated second
    window_start + 1 + i mod window_seconds."""
    sim = int(doc["window_seconds"])
    first = int(doc["window_start"]) + 1
    steps = durations(spans, "core.step")
    by_class = {}
    for i, d in enumerate(steps):
        by_class.setdefault(stats.step_class(first + i % sim), []).append(d)
    return {k: 1e3 * stats.median(v) for k, v in by_class.items()}, len(steps)


def plant_10k(doc, spans):
    sim = doc["window_seconds"]
    step, n_steps = step_medians(doc, spans)
    physics = step["physics"]
    walls = lambda key: [w["wall_s"] for w in doc[key]]  # noqa: E731
    traced = doc["traced"]
    base = stats.median(walls("untraced"))
    return {
        "core.rig_build_ms": med(spans, "core.rig_build", 1e3),
        "core.physics_step_ms": physics,
        "telemetry.sample_ms": step["telemetry"] - physics,
        "core.control_ms": step["control"] - physics,
        "battery.discharge_ms": med(spans, "battery.discharge", 1e3),
        "battery.end_tick_ms": med(spans, "battery.end_tick", 1e3),
        "core.pool_overhead_ms": 1e3 * (base - stats.median(walls("serial")))
        / sim,
        "sim.events_per_s": stats.median(
            [w["events"] / w["wall_s"] for w in traced]),
        "telemetry.link_requests": traced[0]["link_requests"],
        "telemetry.link_failures": traced[0]["link_failures"],
        "trace.overhead_pct": 100.0 * (stats.median(walls("traced")) / base - 1),
    }, [("0 and 2 battery threads end in the same state",
         {w["digest"] for w in doc["serial"] + doc["traced"]
          + doc["untraced"]} == {traced[0]["digest"]}),
        ("every traced window step has a span",
         n_steps == len(traced) * sim)]


def fault_campaign(doc, spans):
    fleet = doc["traced_fleet"]
    run = med(spans, "core.run", 1e3)
    decode_us = med(spans, "service.frame_decode", 1e6)
    untraced = doc["campaigns"][0]["fleet_wall_s"]
    m = {
        "core.run_ms": run,
        "validate.check_ms": run - med(spans, "validate.run_off", 1e3),
        "dispatch.lease_wait_s": fleet["lease_wait_s"],
        "dispatch.tail_s": fleet["tail_s"],
        "snapshot.result_codec_us": med(spans, "snapshot.result_codec", 1e6),
        "service.decode_us_per_kb": decode_us / (fleet["czar_bytes"] / 1024),
        "trace.overhead_pct": 100.0 * (fleet["wall_s"] / untraced - 1),
    }
    m.update(doc["counts"])
    return m, [("traced fleet JSON equals the in-process engine's",
                fleet["json_equal"])]


def twin_live(doc, spans):
    s = doc["stats"]
    p50 = {}
    late = []
    for key in ("traffic", "traced"):
        phase = doc[key]
        reads = phase["reads"]
        lat = stats.due_latencies(reads["due"], reads["done"])
        p50[key] = stats.percentile(lat, 50)[0]
        for q in (phase["reads"], phase["whatifs"]):
            late += [1e3 * (a - b) for a, b in zip(q["sent"], q["due"])]
    return {
        "service.advance_ms": med(spans, "service.advance", 1e3),
        "service.read_handle_us": med(spans, "service.read_handle", 1e6),
        "service.read_rtt_us": med(spans, "service.read_rtt", 1e6),
        "snapshot.serialize_ms": med(spans, "snapshot.serialize", 1e3),
        "snapshot.restore_ms": med(spans, "snapshot.restore", 1e3),
        "snapshot.bytes": s["snapshot_bytes"],
        "service.whatif_miss_ms": med(spans, "service.whatif_miss", 1e3),
        "service.cache_hit_ratio": s["cache_hits"] / max(s["whatif_queries"], 1),
        "service.gen_late_ms": stats.percentile(late, 99)[0],
        "service.snapshots_taken": s["snapshots_taken"],
        "service.error_frames": s["error_frames"],
        "service.crc_errors": s["crc_errors"],
        "service.resyncs": s["resyncs"],
        "trace.overhead_pct": 100.0 * (p50["traced"] / p50["traffic"] - 1),
    }, [("traffic leaves the live plant as a plant without it",
         doc["end_digest"] == doc["reference_digest"]),
        ("served and reference twin fork byte-identical what-ifs",
         doc["fork_mismatches"] == 0),
        ("no Error frames", s["error_frames"] == 0)]


WORKLOADS = {"plant_10k": plant_10k, "fault_campaign": fault_campaign,
             "twin_live": twin_live}


def self_time_table(spans):
    """Rows of (span name, count, total self s, median duration s) and
    the self time per layer (the name's first component)."""
    own = stats.self_times(spans)
    by_name = {}
    for s in spans:
        e = by_name.setdefault(s["name"], [0, 0.0, []])
        e[0] += 1
        e[1] += own[s["id"]]
        e[2].append(s["end"] - s["start"])
    rows = sorted(((n, c, t, stats.median(d)) for n, (c, t, d)
                   in by_name.items()), key=lambda r: -r[2])
    layers = {}
    for n, _, t, _ in rows:
        layers[n.split(".")[0]] = layers.get(n.split(".")[0], 0.0) + t
    return rows, layers


def summarize(doc):
    """Per-layer metrics, output checks and printable lines of a traced
    run's document."""
    spans = doc["spans"]
    metrics, checks = WORKLOADS[doc["workload"]](doc, spans)
    rows, layers = self_time_table(spans)
    total = sum(layers.values()) or 1.0
    lines = [f"  spans: {len(spans)}; self time by layer:"]
    for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {layer:<12} {t:10.4f} s  {100 * t / total:5.1f}%")
    lines.append("  self time by span:")
    for n, c, t, d in rows:
        lines.append(f"    {n:<28} n={c:<7} self {t:10.4f} s  "
                     f"median {1e3 * d:9.4f} ms")
    return metrics, checks, lines


def report(doc, r, path):
    """Print the traced run into the run.py Report `r`; keep the spans."""
    with open(path, "w") as f:
        json.dump(doc, f)
    metrics, checks, lines = summarize(doc)
    for line in lines:
        print(line)
    print(f"  per-layer metrics ({doc['workload']}); spans in {path}:")
    for name, (workload, moves) in LAYERS.items():
        if name in metrics:
            r.put(name, metrics[name], 1, f"-> {moves} on {workload}")
        else:
            r.metrics[name] = 0.0
    for name, ok in checks:
        r.check(name, ok)
    r.attempted = len(doc["spans"])


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        doc = json.load(f)
    metrics, checks, lines = summarize(doc)
    print(f"{doc['workload']} seed={doc['seed']} traced")
    for line in lines:
        print(line)
    for name, (workload, moves) in LAYERS.items():
        if name in metrics:
            print(f"  {name:<26} {metrics[name]:>14.6g}  -> {moves} "
                  f"on {workload}")
    for name, ok in checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
