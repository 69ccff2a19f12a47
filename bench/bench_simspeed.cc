/**
 * @file
 * Simulation-speed perf gate: google-benchmark timings of the simulator
 * itself (kernel event throughput, trace sampling, battery-model steps,
 * full day-long system runs), plus a sweep-throughput section that times
 * the same batch of experiments through the harness. Not a paper
 * artefact — this guards the simulation's performance so the
 * reproduction benches stay fast.
 *
 * Output:
 *   - the usual google-benchmark console table, then the sweep table;
 *   - one machine-readable JSON line with every per-section number
 *     (also written to the file named by INSURE_SIMSPEED_JSON, if set).
 *
 * Gate mode: `bench_simspeed --baseline BENCH_simspeed.json
 * [--tolerance 0.20]` re-runs the benchmarks, prints a before/after
 * table against the recorded baseline, and exits non-zero if any
 * benchmark regressed by more than the tolerance band. Record a new
 * baseline with INSURE_SIMSPEED_JSON=BENCH_simspeed.json.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "battery/battery_array.hh"
#include "battery/battery_unit.hh"
#include "bench_util.hh"
#include "core/experiment.hh"
#include "harness/resilient_runner.hh"
#include "sim/event_queue.hh"
#include "sim/trace.hh"
#include "telemetry/modbus.hh"

using namespace insure;

namespace {

/**
 * Event-queue throughput. 10k one-shot events at non-decreasing times
 * strictly inside the runUntil() horizon, so every scheduled event
 * executes and the items-processed figure counts real dispatches.
 */
void
BM_EventQueue(benchmark::State &state)
{
    std::uint64_t executed = 0;
    for (auto _ : state) {
        sim::EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 10000; ++i) {
            eq.schedule(i * 0.02, sim::EventPriority::Physics,
                        [&sink] { ++sink; });
        }
        executed += eq.runUntil(200.0);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(executed));
}
BENCHMARK(BM_EventQueue);

/**
 * Steady periodic ticking — the control-loop pattern (PLC scan, MPPT
 * perturbation, workload arrival) that dominates the kernel in real
 * runs: one task re-arming itself every simulated second.
 */
void
BM_PeriodicTask(benchmark::State &state)
{
    std::uint64_t ticks = 0;
    for (auto _ : state) {
        sim::EventQueue eq;
        std::uint64_t n = 0;
        sim::PeriodicTask task(eq, 1.0, sim::EventPriority::Control,
                               [&n](Seconds) { ++n; });
        task.start();
        eq.runUntil(10000.0);
        task.stop();
        ticks += n;
        benchmark::DoNotOptimize(n);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ticks));
}
BENCHMARK(BM_PeriodicTask);

/**
 * Forward-sweeping trace interpolation — the access pattern of the
 * per-tick solar/workload sampling (monotonically increasing axis over
 * a day-resolution trace).
 */
void
BM_TraceInterpolate(benchmark::State &state)
{
    sim::Trace trace({"t", "w"});
    for (int i = 0; i < 1440; ++i)
        trace.append({i * 60.0, 500.0 + (i % 7) * 100.0});
    const double span = 1440.0 * 60.0;
    std::uint64_t samples = 0;
    for (auto _ : state) {
        double acc = 0.0;
        for (int i = 0; i < 86400; i += 9)
            acc += trace.interpolate(static_cast<double>(i % static_cast<int>(span)), "w");
        benchmark::DoNotOptimize(acc);
        samples += 86400 / 9 + 1;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(samples));
}
BENCHMARK(BM_TraceInterpolate);

void
BM_BatteryStep(benchmark::State &state)
{
    battery::BatteryUnit unit("b", battery::BatteryParams{}, 0.8);
    double current = 5.0;
    for (auto _ : state) {
        const auto r = unit.discharge(current, 1.0);
        benchmark::DoNotOptimize(r.energyWh);
        current = current > 10.0 ? 5.0 : current + 0.01;
        if (unit.depleted())
            unit.setSoc(0.8);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BatteryStep);

/**
 * Simulated seconds per benchmark iteration of the battery-array scale
 * benches. Overridable so the ctest perf smoke stays fast; the recorded
 * baseline uses the default — one full simulated day, per the scale
 * acceptance target.
 */
unsigned
batteryArrayTicks()
{
    if (const char *env = std::getenv("INSURE_BATTERY_ARRAY_TICKS"))
        if (const long v = std::strtol(env, nullptr, 10); v > 0)
            return static_cast<unsigned>(v);
    return 86400;
}

/**
 * One simulated day of the array tick protocol at scale: a few cabinets
 * active on the buses, everything else idling through the rest kernels,
 * with the telemetry-style stored-energy reduction read every tick —
 * the exact per-tick work profile of a large in-situ plant. @p batched
 * selects the structure-of-arrays kernels (the default) or the legacy
 * per-object oracle, so the committed baseline carries both numbers and
 * the speedup is auditable from BENCH_simspeed.json alone.
 */
void
runBatteryArrayDay(benchmark::State &state, unsigned unitsTotal,
                   bool batched)
{
    const unsigned series = 2;
    const unsigned cabinets = unitsTotal / series;
    const unsigned ticks = batteryArrayTicks();
    for (auto _ : state) {
        battery::BatteryArray a(battery::BatteryParams{}, cabinets, series,
                                0.85);
        a.setBatchedStepping(batched);
        a.setAllModes(battery::UnitMode::Offline);
        for (unsigned i = 0; i < cabinets && i < 4; ++i) {
            if (i < 2)
                a.cabinet(i).setMode(battery::UnitMode::Discharging);
            else if (i == 2)
                a.cabinet(i).setMode(battery::UnitMode::Charging);
            else
                a.cabinet(i).setMode(battery::UnitMode::Standby);
        }
        double acc = 0.0;
        battery::ArrayDischargeResult dr;
        for (unsigned t = 0; t < ticks; ++t) {
            a.beginTick();
            a.discharge(40.0, 1.0, dr);
            a.chargeCabinet(2 % cabinets, 400.0, 1.0);
            a.endTick(1.0);
            acc += a.storedEnergyWh();
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            ticks * unitsTotal);
}

void
BM_BatteryArray(benchmark::State &state, unsigned units)
{
    runBatteryArrayDay(state, units, true);
}

void
BM_BatteryArrayLegacy(benchmark::State &state, unsigned units)
{
    runBatteryArrayDay(state, units, false);
}

BENCHMARK_CAPTURE(BM_BatteryArray, 1k, 1000u)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BatteryArray, 10k, 10000u)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BatteryArrayLegacy, 1k, 1000u)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BatteryArrayLegacy, 10k, 10000u)
    ->Unit(benchmark::kMillisecond);

void
BM_ModbusRoundTrip(benchmark::State &state)
{
    telemetry::RegisterMap map(256);
    telemetry::ModbusSlave slave(1, map);
    const auto req = telemetry::modbus::encodeReadRequest(1, 0, 64);
    for (auto _ : state) {
        const auto resp = slave.service(req);
        benchmark::DoNotOptimize(resp.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModbusRoundTrip);

void
BM_FullDaySimulation(benchmark::State &state)
{
    for (auto _ : state) {
        const core::ExperimentConfig cfg =
            bench::seismicHours(static_cast<double>(state.range(0)));
        const auto res = core::runExperiment(cfg);
        benchmark::DoNotOptimize(res.metrics.processedGb);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) * 3600);
}
BENCHMARK(BM_FullDaySimulation)->Arg(6)->Arg(24)->Unit(
    benchmark::kMillisecond);

/** Per-benchmark numbers captured for the JSON line and the gate. */
struct BenchResult {
    double nsPerOp = 0.0;
    double itemsPerSecond = 0.0;
};

/**
 * Console reporter that additionally captures every iteration run's
 * real time per op and items/s, keyed by benchmark name, so the JSON
 * summary and the --baseline gate see exactly what was printed. With
 * --benchmark_repetitions=N the fastest repetition wins: the minimum is
 * the least noise-contaminated estimate on a shared machine, so both
 * the recorded baseline and the gate compare mins.
 */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    std::map<std::string, BenchResult> results;

    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        for (const Run &r : reports) {
            if (r.error_occurred || r.run_type != Run::RT_Iteration)
                continue;
            BenchResult br;
            const double iters =
                r.iterations > 0 ? static_cast<double>(r.iterations) : 1.0;
            br.nsPerOp = r.real_accumulated_time / iters * 1e9;
            const auto it = r.counters.find("items_per_second");
            if (it != r.counters.end())
                br.itemsPerSecond = it->second.value;
            const auto [pos, inserted] =
                results.emplace(r.benchmark_name(), br);
            if (!inserted && br.nsPerOp < pos->second.nsPerOp)
                pos->second = br;
        }
        ConsoleReporter::ReportRuns(reports);
    }
};

/** One timed pass of the in-process runner over an identical sweep. */
struct SweepTiming {
    unsigned jobs = 0;
    double wallSeconds = 0.0;
    double runsPerSecond = 0.0;
    double simSecondsPerWallSecond = 0.0;
};

SweepTiming
timeSweep(unsigned jobs, std::size_t nRuns, double hoursPerRun)
{
    std::vector<core::RunSpec> specs;
    specs.reserve(nRuns);
    for (std::size_t i = 0; i < nRuns; ++i) {
        char label[32];
        std::snprintf(label, sizeof(label), "sweep-%02zu", i + 1);
        specs.push_back({label, bench::seismicHours(hoursPerRun)});
    }
    harness::ResilientRunner runner(jobs);
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = runner.runSeeded(std::move(specs), kDefaultSeed);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    const core::SweepSummary merged = core::mergeResults(results);
    SweepTiming t;
    t.jobs = runner.jobs();
    t.wallSeconds = wall;
    if (wall > 0.0) {
        t.runsPerSecond = static_cast<double>(nRuns) / wall;
        t.simSecondsPerWallSecond = merged.simulatedSeconds / wall;
    }
    return t;
}

/** Run and print the sweep section; returns its JSON sub-object. */
std::string
reportSweepThroughput()
{
    constexpr std::size_t kRuns = 8;
    constexpr double kHoursPerRun = 6.0;

    std::printf("\n--- sweep throughput (batch runner, %zu x %.0f h "
                "seismic runs) ---\n",
                kRuns, kHoursPerRun);
    const SweepTiming single = timeSweep(1, kRuns, kHoursPerRun);
    const SweepTiming multi = timeSweep(0, kRuns, kHoursPerRun);
    for (const SweepTiming &t : {single, multi}) {
        std::printf("jobs=%-2u  wall=%7.2fs  runs/sec=%6.2f  "
                    "sim-sec/wall-sec=%10.0f\n",
                    t.jobs, t.wallSeconds, t.runsPerSecond,
                    t.simSecondsPerWallSecond);
    }
    const double speedup = single.wallSeconds > 0.0 && multi.wallSeconds > 0.0
                               ? single.wallSeconds / multi.wallSeconds
                               : 0.0;
    std::printf("speedup at jobs=%u: %.2fx\n", multi.jobs, speedup);

    char json[512];
    std::snprintf(
        json, sizeof(json),
        "{\"runs\":%zu,\"hours_per_run\":%.1f,"
        "\"single\":{\"jobs\":%u,\"wall_s\":%.4f,\"runs_per_s\":%.4f,"
        "\"sim_s_per_wall_s\":%.1f},"
        "\"multi\":{\"jobs\":%u,\"wall_s\":%.4f,\"runs_per_s\":%.4f,"
        "\"sim_s_per_wall_s\":%.1f},\"speedup\":%.4f}",
        kRuns, kHoursPerRun, single.jobs, single.wallSeconds,
        single.runsPerSecond, single.simSecondsPerWallSecond, multi.jobs,
        multi.wallSeconds, multi.runsPerSecond,
        multi.simSecondsPerWallSecond, speedup);
    return json;
}

/** Serialise all per-section numbers as one JSON line. */
std::string
buildJson(const std::map<std::string, BenchResult> &results,
          const std::string &sweepJson)
{
    std::ostringstream os;
    os << "{\"schema\":\"insure-simspeed-v1\",\"benchmarks\":{";
    bool first = true;
    for (const auto &[name, r] : results) {
        if (!first)
            os << ',';
        first = false;
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"%s\":{\"ns_per_op\":%.1f,\"items_per_s\":%.1f}",
                      name.c_str(), r.nsPerOp, r.itemsPerSecond);
        os << buf;
    }
    os << "},\"sweep\":" << sweepJson << '}';
    return os.str();
}

/**
 * Extract {benchmark name -> ns_per_op} from a recorded JSON line.
 * Hand-rolled scanner for exactly the format buildJson() writes (and
 * the PR-1 sweep-only format, which simply yields no benchmarks).
 */
std::map<std::string, double>
parseBaseline(const std::string &text)
{
    std::map<std::string, double> out;
    const std::size_t benches = text.find("\"benchmarks\"");
    if (benches == std::string::npos)
        return out;
    std::size_t p = text.find('{', benches + 12);
    if (p == std::string::npos)
        return out;
    for (;;) {
        const std::size_t q1 = text.find('"', p + 1);
        if (q1 == std::string::npos)
            break;
        const std::size_t q2 = text.find('"', q1 + 1);
        if (q2 == std::string::npos)
            break;
        const std::size_t key = text.find("\"ns_per_op\":", q2);
        if (key == std::string::npos)
            break;
        out[text.substr(q1 + 1, q2 - q1 - 1)] =
            std::strtod(text.c_str() + key + 12, nullptr);
        const std::size_t close = text.find('}', key);
        if (close == std::string::npos ||
            close + 1 >= text.size() || text[close + 1] != ',')
            break;
        p = close + 1;
    }
    return out;
}

/**
 * Compare the just-measured numbers against a recorded baseline file.
 * @return 0 when every common benchmark is within the tolerance band,
 *         1 when any regressed (current slower than baseline by more
 *         than @p tolerance).
 */
int
compareAgainstBaseline(const std::map<std::string, BenchResult> &current,
                       const std::string &path, double tolerance)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
        return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::map<std::string, double> baseline = parseBaseline(ss.str());
    if (baseline.empty()) {
        std::fprintf(stderr,
                     "baseline %s has no per-benchmark numbers; re-record "
                     "with INSURE_SIMSPEED_JSON\n",
                     path.c_str());
        return 1;
    }

    std::printf("\n--- perf gate vs %s (tolerance %.0f%%) ---\n",
                path.c_str(), tolerance * 100.0);
    std::printf("%-26s %14s %14s %9s  %s\n", "benchmark",
                "baseline ns/op", "current ns/op", "speedup", "status");
    int regressions = 0;
    for (const auto &[name, base] : baseline) {
        const auto it = current.find(name);
        if (it == current.end()) {
            std::printf("%-26s %14.0f %14s %9s  %s\n", name.c_str(), base,
                        "-", "-", "not run");
            continue;
        }
        const double cur = it->second.nsPerOp;
        const double speedup = cur > 0.0 ? base / cur : 0.0;
        const bool regressed = cur > base * (1.0 + tolerance);
        if (regressed)
            ++regressions;
        std::printf("%-26s %14.0f %14.0f %8.2fx  %s\n", name.c_str(), base,
                    cur, speedup, regressed ? "REGRESSED" : "ok");
    }
    for (const auto &[name, r] : current) {
        if (!baseline.count(name))
            std::printf("%-26s %14s %14.0f %9s  %s\n", name.c_str(), "-",
                        r.nsPerOp, "-", "new (no baseline)");
    }
    if (regressions) {
        std::printf("%d benchmark(s) regressed beyond %.0f%%\n", regressions,
                    tolerance * 100.0);
        return 1;
    }
    std::printf("all benchmarks within the tolerance band\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baselinePath;
    double tolerance = 0.20;

    // Strip the gate options before google-benchmark sees the command
    // line; everything else passes through (--benchmark_filter etc.).
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--baseline=", 0) == 0) {
            baselinePath = a.substr(11);
        } else if (a == "--baseline" && i + 1 < argc) {
            baselinePath = argv[++i];
        } else if (a.rfind("--tolerance=", 0) == 0) {
            tolerance = std::strtod(a.c_str() + 12, nullptr);
        } else if (a == "--tolerance" && i + 1 < argc) {
            tolerance = std::strtod(argv[++i], nullptr);
        } else {
            args.push_back(argv[i]);
        }
    }
    int filteredArgc = static_cast<int>(args.size());
    benchmark::Initialize(&filteredArgc, args.data());
    if (benchmark::ReportUnrecognizedArguments(filteredArgc, args.data()))
        return 1;

    CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    const std::string sweepJson = reportSweepThroughput();
    const std::string json = buildJson(reporter.results, sweepJson);
    std::printf("%s\n", json.c_str());
    if (const char *path = std::getenv("INSURE_SIMSPEED_JSON")) {
        if (std::FILE *f = std::fopen(path, "w")) {
            std::fprintf(f, "%s\n", json.c_str());
            std::fclose(f);
        } else {
            std::fprintf(stderr, "cannot write %s\n", path);
        }
    }

    if (!baselinePath.empty())
        return compareAgainstBaseline(reporter.results, baselinePath,
                                      tolerance);
    return 0;
}
