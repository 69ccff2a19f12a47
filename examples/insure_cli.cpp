/**
 * @file
 * insure_cli — run a configurable in-situ experiment from the command
 * line and optionally dump the system trace as CSV. The scriptable entry
 * point for users who want sweeps without writing C++.
 *
 * Usage:
 *   insure_cli [options]
 *     --workload seismic|video|interactive|<micro-benchmark>
 *                                                  (default seismic)
 *     --manager insure|baseline|noopt|infobattery  (default insure)
 *     --day sunny|cloudy|rainy                     (default sunny)
 *     --kwh <daily solar energy>                   (optional scaling)
 *     --avg-watts <7:00-20:00 average>             (optional scaling)
 *     --days <run length>                          (default 1)
 *     --seed <n>                                   (default 2015)
 *     --nodes <n>                                  (default 4)
 *     --lowpower                                   (low-power nodes)
 *     --secondary <watts>                          (backup feed)
 *     --trace <file.csv>                           (dump system trace)
 *     --json                                       (machine-readable out)
 *     --runs <n>                                   (repeat with child seeds)
 *     --jobs <n>                                   (worker threads; 0=auto)
 *
 * With --runs N > 1 the configured experiment is repeated N times with
 * per-run seeds derived from --seed via Rng::split(), executed by
 * harness::ResilientRunner across --jobs threads (default: INSURE_JOBS
 * env, then hardware concurrency). Per-run progress goes to stderr; the
 * merged sweep summary goes to stdout. Results are identical for any
 * --jobs.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "harness/resilient_runner.hh"
#include "sim/config.hh"
#include "sim/table.hh"

using namespace insure;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--config file.ini] "
        "[--workload seismic|video|interactive|<bench>] "
        "[--manager insure|baseline|noopt|infobattery] "
        "[--day sunny|cloudy|rainy]\n"
        "          [--kwh N] [--avg-watts N] [--days N] [--seed N] "
        "[--nodes N] [--lowpower] [--secondary W] [--trace F] [--json]\n"
        "          [--runs N] [--jobs N]\n",
        argv0);
    std::exit(2);
}

void
printHuman(const core::ExperimentResult &res)
{
    const core::Metrics &m = res.metrics;
    sim::TextTable t({"metric", "value"});
    using TT = sim::TextTable;
    t.addRow({"manager", res.managerName});
    t.addRow({"system uptime", TT::percent(m.uptime)});
    t.addRow({"throughput (GB/h)", TT::num(m.throughputGbPerHour)});
    t.addRow({"processed (GB)", TT::num(m.processedGb, 1)});
    t.addRow({"mean latency (h)", TT::num(m.meanLatency / 3600.0)});
    t.addRow({"e-Buffer availability", TT::percent(m.eBufferAvailability)});
    t.addRow({"service life (years)", TT::num(m.serviceLifeYears)});
    t.addRow({"perf per Ah (GB/Ah)", TT::num(m.perfPerAh)});
    t.addRow({"solar offered (kWh)", TT::num(m.solarOfferedKwh)});
    t.addRow({"solar used (kWh)", TT::num(m.greenUsedKwh)});
    t.addRow({"secondary used (kWh)", TT::num(m.secondaryKwh)});
    t.addRow({"load energy (kWh)", TT::num(m.loadKwh)});
    t.addRow({"buffer trips", std::to_string(m.bufferTrips)});
    t.addRow({"emergency shutdowns",
              std::to_string(m.emergencyShutdowns)});
    t.addRow({"on/off cycles", std::to_string(m.onOffCycles)});
    if (res.slo) {
        const interactive::SloReport &s = *res.slo;
        t.addRow({"requests arrived", std::to_string(s.arrived)});
        t.addRow({"requests served", std::to_string(s.served)});
        t.addRow({"cache-served hits", std::to_string(s.cachedHits)});
        t.addRow({"shed / dropped",
                  std::to_string(s.shed) + " / " +
                      std::to_string(s.droppedTimeout + s.droppedFault)});
        t.addRow({"p99 latency (ms)", TT::num(s.p99 * 1e3, 1)});
        t.addRow({"deadline miss rate", TT::percent(s.deadlineMissRate)});
    }
    std::printf("%s", t.render("insure_cli result").c_str());
}

void
printJson(const core::ExperimentResult &res)
{
    const core::Metrics &m = res.metrics;
    // The SLO block keys match the campaign JSON; absent (and the object
    // unchanged) on non-interactive workloads.
    std::string slo;
    if (res.slo) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      ",\"requests_arrived\":%llu,\"requests_served\":%llu,"
                      "\"cache_hits\":%llu,\"slo_p99_s\":%.6f,"
                      "\"slo_miss_rate\":%.6f,\"cache_hit_rate\":%.6f",
                      static_cast<unsigned long long>(res.slo->arrived),
                      static_cast<unsigned long long>(res.slo->served),
                      static_cast<unsigned long long>(res.slo->cachedHits),
                      res.slo->p99, res.slo->deadlineMissRate,
                      res.slo->cacheHitRate);
        slo = buf;
    }
    std::printf(
        "{\"manager\":\"%s\",\"uptime\":%.6f,"
        "\"throughput_gb_per_h\":%.6f,\"processed_gb\":%.3f,"
        "\"mean_latency_s\":%.1f,\"ebuffer_availability\":%.6f,"
        "\"service_life_years\":%.4f,\"perf_per_ah\":%.6f,"
        "\"solar_offered_kwh\":%.4f,\"green_used_kwh\":%.4f,"
        "\"secondary_kwh\":%.4f,\"load_kwh\":%.4f,"
        "\"buffer_trips\":%llu,\"emergency_shutdowns\":%llu,"
        "\"on_off_cycles\":%llu%s}\n",
        res.managerName.c_str(), m.uptime, m.throughputGbPerHour,
        m.processedGb, m.meanLatency, m.eBufferAvailability,
        m.serviceLifeYears, m.perfPerAh, m.solarOfferedKwh,
        m.greenUsedKwh, m.secondaryKwh, m.loadKwh,
        static_cast<unsigned long long>(m.bufferTrips),
        static_cast<unsigned long long>(m.emergencyShutdowns),
        static_cast<unsigned long long>(m.onOffCycles), slo.c_str());
}

void
printSummaryHuman(const core::SweepSummary &s)
{
    sim::TextTable t({"sweep metric", "value"});
    using TT = sim::TextTable;
    t.addRow({"runs", std::to_string(s.runs)});
    t.addRow({"simulated (h)", TT::num(s.simulatedSeconds / 3600.0, 1)});
    t.addRow({"run wall time (s)", TT::num(s.runWallSeconds, 2)});
    t.addRow({"processed (GB)", TT::num(s.processedGb, 1)});
    t.addRow({"solar offered (kWh)", TT::num(s.solarOfferedKwh)});
    t.addRow({"solar used (kWh)", TT::num(s.greenUsedKwh)});
    t.addRow({"secondary used (kWh)", TT::num(s.secondaryKwh)});
    t.addRow({"load energy (kWh)", TT::num(s.loadKwh)});
    t.addRow({"buffer throughput (Ah)", TT::num(s.bufferThroughputAh, 1)});
    t.addRow({"buffer trips", std::to_string(s.bufferTrips)});
    t.addRow({"emergency shutdowns",
              std::to_string(s.emergencyShutdowns)});
    t.addRow({"on/off cycles", std::to_string(s.onOffCycles)});
    t.addRow({"uptime mean", TT::percent(s.meanUptime)});
    t.addRow({"uptime min", TT::percent(s.minUptime)});
    t.addRow({"uptime max", TT::percent(s.maxUptime)});
    t.addRow({"e-Buffer avail mean",
              TT::percent(s.meanEBufferAvailability)});
    t.addRow({"perf per Ah mean", TT::num(s.meanPerfPerAh)});
    t.addRow({"throughput mean (GB/h)",
              TT::num(s.meanThroughputGbPerHour)});
    std::printf("%s", t.render("insure_cli sweep summary").c_str());
}

void
printSummaryJson(const core::SweepSummary &s)
{
    std::printf(
        "{\"runs\":%zu,\"simulated_s\":%.1f,\"run_wall_s\":%.4f,"
        "\"processed_gb\":%.3f,\"solar_offered_kwh\":%.4f,"
        "\"green_used_kwh\":%.4f,\"load_kwh\":%.4f,"
        "\"secondary_kwh\":%.4f,\"buffer_throughput_ah\":%.4f,"
        "\"buffer_trips\":%llu,\"emergency_shutdowns\":%llu,"
        "\"on_off_cycles\":%llu,\"uptime_mean\":%.6f,"
        "\"uptime_min\":%.6f,\"uptime_max\":%.6f,"
        "\"ebuffer_availability_mean\":%.6f,\"perf_per_ah_mean\":%.6f,"
        "\"throughput_gb_per_h_mean\":%.6f}\n",
        s.runs, s.simulatedSeconds, s.runWallSeconds, s.processedGb,
        s.solarOfferedKwh, s.greenUsedKwh, s.loadKwh, s.secondaryKwh,
        s.bufferThroughputAh,
        static_cast<unsigned long long>(s.bufferTrips),
        static_cast<unsigned long long>(s.emergencyShutdowns),
        static_cast<unsigned long long>(s.onOffCycles), s.meanUptime,
        s.minUptime, s.maxUptime, s.meanEBufferAvailability,
        s.meanPerfPerAh, s.meanThroughputGbPerHour);
}

/**
 * Repeat cfg `runs` times with child seeds split from cfg.seed, run
 * them across `jobs` worker threads, and print the merged summary.
 * Per-run progress lines go to stderr so --json stdout stays parseable.
 */
int
runSweep(core::ExperimentConfig cfg, unsigned runs, unsigned jobs,
         bool json)
{
    if (cfg.recordTrace) {
        std::fprintf(stderr,
                     "--trace ignored with --runs > 1 (per-run traces "
                     "are not merged)\n");
        cfg.recordTrace = false;
    }
    std::vector<core::RunSpec> specs;
    specs.reserve(runs);
    for (unsigned i = 0; i < runs; ++i) {
        char label[32];
        std::snprintf(label, sizeof(label), "run-%03u", i + 1);
        specs.push_back({label, cfg});
    }
    harness::ResilientRunner runner(jobs);
    const std::vector<core::RunResult> results = runner.runSeeded(
        std::move(specs), cfg.seed,
        [](const core::RunResult &r, std::size_t done, std::size_t total) {
            std::fprintf(stderr,
                         "[%zu/%zu] %s seed=%llu uptime=%.1f%% "
                         "(%.2fs wall)\n",
                         done, total, r.label.c_str(),
                         static_cast<unsigned long long>(r.seed),
                         100.0 * r.result.metrics.uptime, r.wallSeconds);
        });
    const core::SweepSummary summary = core::mergeResults(results);
    if (json)
        printSummaryJson(summary);
    else
        printSummaryHuman(summary);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string config_path;
    std::string workload = "seismic";
    std::string manager = "insure";
    std::string day = "sunny";
    std::string trace_path;
    double kwh = -1.0;
    double avg_watts = -1.0;
    double days = 1.0;
    double secondary_w = 0.0;
    std::uint64_t seed = kDefaultSeed;
    unsigned nodes = 4;
    unsigned runs = 1;
    unsigned jobs = 0;
    bool lowpower = false;
    bool json = false;

    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                usage(argv[0]);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--config"))
            config_path = need("--config");
        else if (!std::strcmp(argv[i], "--workload"))
            workload = need("--workload");
        else if (!std::strcmp(argv[i], "--manager"))
            manager = need("--manager");
        else if (!std::strcmp(argv[i], "--day"))
            day = need("--day");
        else if (!std::strcmp(argv[i], "--kwh"))
            kwh = std::atof(need("--kwh"));
        else if (!std::strcmp(argv[i], "--avg-watts"))
            avg_watts = std::atof(need("--avg-watts"));
        else if (!std::strcmp(argv[i], "--days"))
            days = std::atof(need("--days"));
        else if (!std::strcmp(argv[i], "--seed"))
            seed = std::strtoull(need("--seed"), nullptr, 10);
        else if (!std::strcmp(argv[i], "--nodes"))
            nodes = static_cast<unsigned>(std::atoi(need("--nodes")));
        else if (!std::strcmp(argv[i], "--runs"))
            runs = static_cast<unsigned>(std::atoi(need("--runs")));
        else if (!std::strcmp(argv[i], "--jobs"))
            jobs = static_cast<unsigned>(std::atoi(need("--jobs")));
        else if (!std::strcmp(argv[i], "--secondary"))
            secondary_w = std::atof(need("--secondary"));
        else if (!std::strcmp(argv[i], "--trace"))
            trace_path = need("--trace");
        else if (!std::strcmp(argv[i], "--lowpower"))
            lowpower = true;
        else if (!std::strcmp(argv[i], "--json"))
            json = true;
        else
            usage(argv[0]);
    }

    if (!config_path.empty()) {
        // Config file drives everything; only --trace/--json apply on top.
        const sim::Config file = sim::Config::load(config_path);
        core::ExperimentConfig cfg = core::experimentFromConfig(file);
        if (!trace_path.empty()) {
            cfg.recordTrace = true;
            cfg.tracePeriod = 60.0;
        }
        if (runs > 1)
            return runSweep(cfg, runs, jobs, json);
        const core::ExperimentResult res = core::runExperiment(cfg);
        if (json)
            printJson(res);
        else
            printHuman(res);
        if (!trace_path.empty() && res.trace)
            res.trace->saveCsv(trace_path);
        return 0;
    }

    core::ExperimentConfig cfg;
    if (workload == "seismic")
        cfg = core::seismicExperiment();
    else if (workload == "video")
        cfg = core::videoExperiment();
    else if (workload == "interactive")
        cfg = core::interactiveExperiment();
    else
        cfg = core::microExperiment(workload); // fatal if unknown

    if (day == "sunny")
        cfg.day = solar::DayClass::Sunny;
    else if (day == "cloudy")
        cfg.day = solar::DayClass::Cloudy;
    else if (day == "rainy")
        cfg.day = solar::DayClass::Rainy;
    else
        usage(argv[0]);

    if (manager == "insure") {
        cfg.manager = core::ManagerKind::Insure;
    } else if (manager == "baseline") {
        cfg.manager = core::ManagerKind::Baseline;
    } else if (manager == "noopt") {
        cfg.manager = core::ManagerKind::Insure;
        cfg.insure = core::InsureParams::noOpt();
    } else if (manager == "infobattery") {
        cfg.manager = core::ManagerKind::InfoBattery;
    } else {
        usage(argv[0]);
    }

    if (kwh > 0.0)
        cfg.targetDailyKwh = kwh;
    if (avg_watts > 0.0)
        cfg.scaleToAvgWatts = avg_watts;
    cfg.seed = seed;
    cfg.duration = units::days(days);
    cfg.system.nodeCount = nodes;
    if (lowpower)
        cfg.system.node = server::lowPowerNode();
    if (secondary_w > 0.0) {
        core::SecondaryPowerParams sp;
        sp.capacity = secondary_w;
        cfg.system.secondary = sp;
    }
    if (!trace_path.empty()) {
        cfg.recordTrace = true;
        cfg.tracePeriod = 60.0;
    }

    if (runs > 1)
        return runSweep(cfg, runs, jobs, json);

    const core::ExperimentResult res = core::runExperiment(cfg);
    if (json)
        printJson(res);
    else
        printHuman(res);
    if (!trace_path.empty() && res.trace) {
        res.trace->saveCsv(trace_path);
        if (!json)
            std::printf("\ntrace written to %s (%zu rows)\n",
                        trace_path.c_str(), res.trace->rows());
    }
    return 0;
}
