#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fault_campaign|plant_10k|twin_live
                             --seed N --seconds S --trace 0|1

Builds the measuring program from source into .bench_build/ (the first run of a
checkout takes a minute or two), runs the workload, checks its outputs
and prints one line per metric (value, unit, direction, samples). The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The exit code is non-zero when an output check
fails; a failed build or a crashed run prints no result at all.

    python3 perfbench/run.py --pin SEED...

prints the pinned digests of those seeds in pins.json form.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
import trace_summary  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "perfbench")
WORKLOADS = ("fault_campaign", "plant_10k", "twin_live")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool decide what is stale."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            log(p.stdout[-4000:])
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(2)


def drive(workload, seed, seconds, trace=False, digest=False):
    cmd = [PROGRAM, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    if digest:
        cmd.append("--digest")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        log(f"run timed out: {' '.join(cmd)}")
        sys.exit(3)
    if p.returncode != 0:
        log(f"run failed ({p.returncode}): {' '.join(cmd)}")
        sys.exit(3)
    return json.loads(p.stdout)


# Printed by the timed runs of the workloads that define them, but kept
# out of BENCHMARK.json, whose metrics every workload must print: a
# failed share is 0 on a healthy run (it rides in the result's failed
# and attempted), and on the shared reference host the others' spread
# over ten runs of unchanged code reached 0.17-0.31 (the twin's read p99
# ranged from 4 to 23 ms), too near or beyond the widest bound
# BENCHMARK.json may set (see BENCHMARK.md).
REPORTED = {
    "failed_frac": ("ratio", "lower"),
    "batch_runs_per_s": ("runs/s", "higher"),
    "read_p50_ms": ("ms", "lower"),
    "read_p99_ms": ("ms", "lower"),
    "whatif_p50_ms": ("ms", "lower"),
    "whatif_p90_ms": ("ms", "lower"),
}


class Report:
    """Metrics, checks and the human-readable lines of one run."""

    def __init__(self, spec):
        self.units = dict(REPORTED)
        self.units.update({m["name"]: (m["unit"], m["better"])
                           for m in spec["end_to_end"] + spec["per_layer"]})
        self.metrics = {}
        self.checks = []
        self.attempted = 0
        self.failed = 0

    def put(self, name, value, samples, note=""):
        unit, better = self.units[name]
        self.metrics[name] = value
        if name in REPORTED:
            note += " (not gated)"
        print(f"  {name:<26} {value:>14.6g} {unit:<8} {better:<6} "
              f"n={samples} {note}")

    def tail(self, name, samples, want, cap):
        """A percentile metric; failed requests (inf) are capped at
        `cap`, the longest any request could have waited."""
        value, used, n = stats.percentile(samples, want)
        self.put(name, min(value, cap), n, f"(p{used:.1f})")

    def check(self, name, ok, detail=""):
        self.checks.append((name, ok, detail))

    def correct(self):
        return all(ok for _, ok, _ in self.checks)


def load_pins():
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f)


def pinned(workload, seed, seconds):
    """The pinned end digest of this run, or None when none is pinned:
    plant_10k pins one per shipped seed, twin_live one per run length
    (its plant's seed is fixed and traffic must not change it)."""
    pins = load_pins()[workload]
    if workload == "twin_live":
        return pins["digest"] if pins["seconds"] == seconds else None
    return pins.get(str(seed))


def plant_10k(doc, r, seed, seconds):
    wins = doc["windows"]
    sim = doc["window_seconds"]
    n = len(wins)
    r.put("setup_s", stats.median([w["setup_s"] for w in wins]), n)
    r.put("sim_s_per_s", stats.median([sim / w["wall_s"] for w in wins]), n)
    r.put("runs_per_s", stats.median([1 / w["wall_s"] for w in wins]), n,
          "(windows)")
    r.attempted, r.failed = n, 0
    digests = {w["digest"] for w in wins}
    r.check("every cabinet discharges through the window",
            all(w["discharging"] == doc["cabinets"] for w in wins))
    r.check("every window ends in the same state", len(digests) == 1,
            str(sorted(digests)))
    pin = pinned("plant_10k", seed, seconds)
    if pin is not None:
        r.check("end-of-window digest equals the pin", digests == {pin},
                f"pin {pin}")


def fault_campaign(doc, r, seed, seconds):
    camps = doc["campaigns"]
    runs = doc["runs_per_campaign"]
    workers = doc["workers"]
    n = len(camps)
    # Set-up lasts until each worker's first RESULT: the fleet's first
    # `workers` results, as every worker starts its first lease at once.
    # Their mean weighs three different runs' costs alike; the first
    # alone is whichever of them is cheapest for the seed. Every fleet
    # start of the run is a sample: the campaigns and the set-up probes.
    starts = [c["result_s"] for c in camps]
    starts += [p["result_s"] for c in camps for p in c["probes"]]
    r.put("setup_s", stats.median(
        [sum(t[:workers]) / workers for t in starts]), len(starts),
        f"(mean of the first {workers} RESULTs of each fleet start)")
    r.put("runs_per_s", stats.median([runs / c["fleet_wall_s"] for c in camps]),
          n)
    r.put("batch_runs_per_s",
          stats.median([runs / c["batch_wall_s"] for c in camps]), n)
    r.put("sim_s_per_s", stats.median(
        [runs * doc["sim_s_per_run"] / c["fleet_wall_s"] for c in camps]), n)
    r.attempted = runs * n
    r.failed = sum(c["failed_runs"] for c in camps)
    r.put("failed_frac", r.failed / r.attempted, r.attempted)
    r.check("fleet campaign JSON equals the in-process engine's",
            all(c["json_equal"] for c in camps))
    r.check("every run reported", all(len(c["result_s"]) == runs
                                      for c in camps)
            and all(len(p["result_s"]) == workers
                    for c in camps for p in c["probes"]))


def twin_live(doc, r, seed, seconds):
    phase = doc["traffic"]
    reads, whatifs = (
        [1e3 * x for x in stats.due_latencies(phase[k]["due"], phase[k]["done"])]
        for k in ("reads", "whatifs"))
    adv = [e - s for s, e in zip(phase["advance_start"], phase["advance_end"])]
    n_setup = len(doc["setup_s"])
    r.put("setup_s", stats.median(doc["setup_s"]), n_setup)
    r.put("sim_s_per_s", phase["advance_sim_s"] * len(adv) / sum(adv), len(adv),
          "(live advance)")
    # What-ifs served per second by the live twin when uncached: the
    # planners' first query of each live state and the second's fresh
    # ones, from send to reply. They are spread over the whole traffic,
    # so a slow or fast spell of the host weighs on few of them.
    q = phase["whatifs"]
    miss_s = [d - s for s, d, rep in zip(q["sent"], q["done"],
                                         phase["whatif_repeat"])
              if not rep and d is not None]
    r.put("runs_per_s", 1 / stats.median(miss_s), len(miss_s),
          "(uncached what-ifs, send to reply)")
    cap = 1e3 * phase["seconds"]
    r.tail("read_p50_ms", reads, 50, cap)
    r.tail("read_p99_ms", reads, 99, cap)
    r.tail("whatif_p50_ms", whatifs, 50, cap)
    r.tail("whatif_p90_ms", whatifs, 90, cap)
    s = doc["stats"]
    bad = sum(phase[k]["unanswered"] + phase[k]["errors"]
              for k in ("reads", "whatifs"))
    r.attempted = len(reads) + len(whatifs)
    r.failed = bad
    r.put("failed_frac", r.failed / r.attempted, r.attempted)
    r.check("no Error frames", s["error_frames"] == 0 and bad == 0,
            f"{s['error_frames']} error frames, {bad} failed requests")
    r.check("what-ifs forked from one live state by the served and the "
            "reference twin are byte-identical", doc["fork_mismatches"] == 0,
            f"{doc['fork_mismatches']} of {len(doc['fork_ms']) // 2} differ")
    r.check("live clock stays in the charging regime",
            doc["live_end_s"] <= doc["live_limit_s"])
    r.check("traffic leaves the live plant as a plant without it",
            doc["end_digest"] == doc["reference_digest"])
    pin = pinned("twin_live", seed, seconds)
    if pin is not None:
        r.check("live end digest equals the pin", doc["end_digest"] == pin,
                f"pin {pin}")


TIMED = {"plant_10k": plant_10k, "fault_campaign": fault_campaign,
         "twin_live": twin_live}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", type=int, nargs="+", metavar="SEED")
    args = ap.parse_args()
    if not args.workload and not args.pin:
        ap.error("--workload is required")
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    build()

    if args.pin:
        seconds = spec["run_seconds"]
        pins = {"plant_10k": {}, "twin_live": {
            "seconds": seconds,
            "digest": drive("twin_live", 0, seconds, digest=True)["digest"]}}
        for seed in args.pin:
            pins["plant_10k"][str(seed)] = drive(
                "plant_10k", seed, seconds, digest=True)["digest"]
        print(json.dumps(pins, indent=1))
        return 0

    r = Report(spec)
    print(f"{args.workload} seed={args.seed} seconds={seconds:g} "
          f"trace={args.trace}")
    doc = drive(args.workload, args.seed, seconds, trace=bool(args.trace))
    if args.trace:
        trace_summary.report(doc, r, spans_path(args.workload, args.seed))
        names = [m["name"] for m in spec["per_layer"]]
    else:
        TIMED[args.workload](doc, r, args.seed, seconds)
        r.put("peak_rss_mb", doc["peak_rss_mb"], 1)
        names = [m["name"] for m in spec["end_to_end"]]
    for name, ok, detail in r.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name} {detail}")
    result = {
        "correct": r.correct(),
        "attempted": max(r.attempted, 1),
        "failed": r.failed,
        "metrics": {n: {"value": r.metrics.get(n, 0.0),
                        "unit": r.units[n][0]} for n in names},
    }
    print(json.dumps(result))
    return 0 if r.correct() else 1


def spans_path(workload, seed):
    d = os.path.join(BUILD, "traces")
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, f"{workload}-seed{seed}.json")


if __name__ == "__main__":
    sys.exit(main())
