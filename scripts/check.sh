#!/usr/bin/env bash
# One-command verification gate: tier-1 tests, golden-trace check, a fuzz
# smoke sweep, and the validation suites under ASan/UBSan.
#
# Usage: scripts/check.sh [--no-asan] [--fuzz-runs N] [--faults] [--scale]
#        scripts/check.sh [--service] [--resume] [--dist] [--slo] [--chaos]
#        scripts/check.sh --perf [--tolerance X]
#
# --perf builds Release and runs the simulation-speed gate against the
# committed BENCH_simspeed.json baseline, failing on a >20% regression
# (override the band with --tolerance, e.g. --tolerance 0.10).
#
# --faults adds a fault-injection smoke campaign: a short seeded sweep at
# a high fault rate under the Throw invariant policy (a violating run is
# recorded as failed, the sweep must survive), plus a rate-0 campaign
# that must stay on the clean code path.
#
# --scale re-runs the structure-of-arrays scale suite on its own
# (pooled-vs-per-object bit identity at 6/1k/10k units, worker-thread
# determinism) — it is part of tier 1 too, but the dedicated stage gives
# a fast signal when touching the battery/server hot path.
#
# --service re-runs the digital-twin service battery on its own (frame
# codec + fuzz, transport, query engine, concurrency oracle replay,
# golden-over-transport) plus the concurrent service bench smoke, whose
# exit code enforces byte-identity with the single-threaded oracle.
#
# --resume adds a crash-recovery drill: a checkpointing campaign is
# kill -9'd mid-sweep, re-invoked with --resume, and its JSON output must
# be byte-identical to an uninterrupted sweep of the same master seed.
#
# --slo runs the interactive request-workload battery: the request
# model, information-battery manager and e2e determinism suites
# (ctest -L interactive) plus a full-day TPM-vs-InfoBattery bench_slo
# run, whose exit code enforces request conservation end to end.
#
# --chaos runs the chaos battery: the chaos-labelled suites (ChaosStream
# determinism, FrameDecoder chaos replay, chaos-hardened campaigns),
# then the end-to-end drill across many storm seeds — supervised fleets
# and the twin service must stay byte-identical to their chaos-free
# oracles — and finally the SIGKILL/respawn drill on a process fleet
# (skipped automatically where sockets are unavailable).
#
# --dist runs the distributed-campaign battery: the dispatch suites
# (ctest -L dist), a 4-worker thread fleet byte-compared against the
# single-process oracle, a process-mode fleet with one worker SIGKILLed
# mid-sweep, and a czar crash drill (kill -9 the czar, resume from its
# journal, byte-compare against an uninterrupted sweep).
#
# Run from anywhere; builds land in <repo>/build, <repo>/build-asan and
# <repo>/build-release.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

run_asan=1
run_perf=0
run_faults=0
run_scale=0
run_service=0
run_resume=0
run_dist=0
run_slo=0
run_chaos=0
fuzz_runs=200
tolerance=0.20
while [ $# -gt 0 ]; do
    case "$1" in
    --no-asan) run_asan=0 ;;
    --perf) run_perf=1 ;;
    --faults) run_faults=1 ;;
    --scale) run_scale=1 ;;
    --service) run_service=1 ;;
    --resume) run_resume=1 ;;
    --dist) run_dist=1 ;;
    --slo) run_slo=1 ;;
    --chaos) run_chaos=1 ;;
    --tolerance)
        shift
        tolerance="$1"
        ;;
    --fuzz-runs)
        shift
        fuzz_runs="$1"
        ;;
    *)
        echo "usage: $0 [--no-asan] [--fuzz-runs N] [--faults] [--scale] [--service] [--resume] [--dist] [--slo] [--chaos] | --perf [--tolerance X]" >&2
        exit 2
        ;;
    esac
    shift
done

step() { printf '\n==> %s\n' "$*"; }

if [ "$run_perf" = 1 ]; then
    step "configure + build (Release, for stable timings)"
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-release -j --target bench_simspeed

    step "simspeed gate vs BENCH_simspeed.json (tolerance ${tolerance})"
    # 3 repetitions; the gate compares the fastest one per benchmark,
    # which is far more stable than a single run on a shared machine.
    ./build-release/bench/bench_simspeed \
        --benchmark_repetitions=3 \
        --baseline "$repo/BENCH_simspeed.json" --tolerance "$tolerance"

    step "perf gate passed"
    exit 0
fi

step "configure + build (tier 1)"
cmake -B build -S . >/dev/null
cmake --build build -j

step "tier-1 test suite"
ctest --test-dir build --output-on-failure -j

step "golden traces (Fig. 14 / Fig. 16 full-day scenarios)"
./build/tests/golden_trace --check

step "invariant fuzz sweep ($fuzz_runs randomized configs)"
./build/bench/bench_fuzz_invariants --runs "$fuzz_runs"

if [ "$run_faults" = 1 ]; then
    step "fault smoke campaign (8 runs, rate 6/h, Throw policy)"
    ./build/bench/bench_fault_campaign --runs 8 --rate 6 --policy throw

    step "fault rate-0 campaign (clean code path)"
    ./build/bench/bench_fault_campaign --runs 4 --rate 0
fi

if [ "$run_scale" = 1 ]; then
    step "structure-of-arrays scale suite (ctest -L scale)"
    ctest --test-dir build -L scale --output-on-failure
fi

if [ "$run_service" = 1 ]; then
    step "digital-twin service suite (ctest -L service)"
    ctest --test-dir build -L service --output-on-failure

    step "twin service bench smoke (concurrent replay vs serial oracle)"
    ./build/bench/bench_twin_service --cabinets 24 --clients 4 --ops 128
fi

if [ "$run_resume" = 1 ]; then
    step "crash-recovery drill (kill -9 mid-sweep, resume, byte-compare)"
    drill="$(mktemp -d)"
    trap 'rm -rf "$drill"' EXIT
    campaign=(./build/bench/bench_fault_campaign
        --runs 6 --rate 6 --seed 2718 --jobs 2)

    # Reference: an uninterrupted sweep with no state dir, checkpoints
    # or watchdog.
    "${campaign[@]}" --json "$drill/reference.json" >/dev/null

    # Victim: the same sweep with checkpoints + state dir, kill -9'd
    # mid-flight. If the box is fast enough that it finishes first, the
    # resume below just serves every run from cache — still a valid
    # byte-identity check, so the drill is timing-tolerant.
    "${campaign[@]}" --state-dir "$drill/state" \
        --checkpoint-interval 3600 --json "$drill/victim.json" \
        >/dev/null 2>&1 &
    victim=$!
    sleep 0.3
    kill -9 "$victim" 2>/dev/null || true
    wait "$victim" 2>/dev/null || true

    # Recovery: resume must complete the sweep and reproduce the
    # reference JSON byte for byte.
    "${campaign[@]}" --resume "$drill/state" \
        --checkpoint-interval 3600 --json "$drill/resumed.json" >/dev/null
    cmp "$drill/reference.json" "$drill/resumed.json"
    echo "resumed campaign JSON byte-identical to uninterrupted sweep"
fi

if [ "$run_dist" = 1 ]; then
    step "distributed dispatch suites (ctest -L dist)"
    ctest --test-dir build -L dist --output-on-failure

    dist_drill="$(mktemp -d)"
    # Unquoted on purpose: an unset var must expand to no argument.
    # shellcheck disable=SC2064
    trap 'rm -rf ${drill:-} ${dist_drill:-}' EXIT
    sweep=(./build/bench/bench_dist_campaign
        --runs 12 --days 0.1 --rate 4 --seed 3141)

    step "dist: 4-worker thread fleet vs single-process oracle"
    "${sweep[@]}" --workers 4 --mode thread --chunk 3 --oracle

    step "dist: process fleet, kill -9 one worker mid-sweep"
    "${sweep[@]}" --workers 3 --mode process --chunk 3 \
        --kill-one-after 0.3 --oracle

    step "dist czar crash drill (kill -9 the czar, resume, byte-compare)"
    # Reference: an uninterrupted distributed sweep.
    "${sweep[@]}" --workers 2 --json "$dist_drill/reference.json" \
        >/dev/null

    # Victim: same sweep journaling into a state dir, kill -9'd
    # mid-flight. If the box finishes first the resume serves everything
    # from cache — still a valid byte-identity check.
    "${sweep[@]}" --workers 2 --state-dir "$dist_drill/state" \
        --json "$dist_drill/victim.json" >/dev/null 2>&1 &
    czar=$!
    sleep 0.4
    kill -9 "$czar" 2>/dev/null || true
    wait "$czar" 2>/dev/null || true

    # Recovery: a resumed czar must complete the sweep and reproduce
    # the reference JSON byte for byte.
    "${sweep[@]}" --workers 2 --resume "$dist_drill/state" \
        --json "$dist_drill/resumed.json" >/dev/null
    cmp "$dist_drill/reference.json" "$dist_drill/resumed.json"
    echo "resumed distributed campaign JSON byte-identical"
fi

if [ "$run_chaos" = 1 ]; then
    step "chaos suites (ctest -L chaos)"
    ctest --test-dir build -L chaos --output-on-failure

    step "chaos drill: 10 storm seeds, campaign + twin byte-identity"
    ./build/bench/bench_chaos_drill --seeds 10 --twin-seeds 3

    step "chaos kill drill: SIGKILL a worker, supervisor must respawn"
    ./build/bench/bench_chaos_drill --kill-drill
fi

if [ "$run_slo" = 1 ]; then
    step "interactive request-workload suites (ctest -L interactive)"
    ctest --test-dir build -L interactive --output-on-failure

    step "interactive SLO bench (full day, TPM vs InfoBattery)"
    ./build/bench/bench_slo
fi

if [ "$run_asan" = 1 ]; then
    step "validation suites under ASan/UBSan"
    cmake --preset asan >/dev/null
    cmake --build --preset asan -j
    ctest --preset asan --output-on-failure
fi

step "all checks passed"
