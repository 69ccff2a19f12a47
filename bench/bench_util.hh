/**
 * @file
 * Shared helpers for the reproduction benches. Every bench binary prints
 * the rows/series of one paper table or figure; these helpers keep the
 * output format consistent (aligned tables plus ASCII bar series).
 */

#ifndef INSURE_BENCH_BENCH_UTIL_HH
#define INSURE_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "harness/resilient_runner.hh"
#include "sim/table.hh"

namespace insure::bench {

/** Print a section header for one reproduced artefact. */
inline void
header(const std::string &artefact, const std::string &caption)
{
    std::printf("=== %s ===\n%s\n\n", artefact.c_str(), caption.c_str());
}

/** Render one horizontal ASCII bar scaled to @p maxv. */
inline std::string
bar(double v, double maxv, int width = 40)
{
    if (maxv <= 0.0)
        maxv = 1.0;
    int n = static_cast<int>(v / maxv * width + 0.5);
    if (n < 0)
        n = 0;
    if (n > width)
        n = width;
    return std::string(n, '#');
}

/** Print a labelled bar series (one figure panel). */
inline void
barSeries(const std::string &title,
          const std::vector<std::pair<std::string, double>> &data,
          const std::string &unit, int precision = 1)
{
    std::printf("%s\n", title.c_str());
    double maxv = 0.0;
    std::size_t label_w = 0;
    for (const auto &[label, v] : data) {
        maxv = std::max(maxv, v);
        label_w = std::max(label_w, label.size());
    }
    for (const auto &[label, v] : data) {
        std::printf("  %-*s %10.*f %-4s |%s\n",
                    static_cast<int>(label_w), label.c_str(), precision, v,
                    unit.c_str(), bar(v, maxv).c_str());
    }
    std::printf("\n");
}

/** The six §6.4 metrics as (name, insure, baseline, improvement) rows. */
inline void
printMetricComparison(const std::string &title, const core::Metrics &ins,
                      const core::Metrics &base)
{
    using sim::TextTable;
    TextTable t({"metric", "InSURE", "baseline", "improvement"});
    auto row = [&](const char *name, double a, double b, bool smaller) {
        const double imp = smaller ? core::reductionImprovement(a, b)
                                   : core::improvement(a, b);
        t.addRow({name, TextTable::num(a, 3), TextTable::num(b, 3),
                  TextTable::percent(imp)});
    };
    row("system uptime", ins.uptime, base.uptime, false);
    row("load perf (GB/h)", ins.throughputGbPerHour,
        base.throughputGbPerHour, false);
    row("avg latency (h)", ins.meanLatency / 3600.0,
        base.meanLatency / 3600.0, true);
    row("e-Buffer avail", ins.eBufferAvailability,
        base.eBufferAvailability, false);
    row("service life (y)", ins.workNormalizedLifeYears,
        base.workNormalizedLifeYears, false);
    row("perf per Ah (GB/Ah)", ins.perfPerAh, base.perfPerAh, false);
    std::printf("%s", t.render(title).c_str());
    std::printf("\n");
}

/**
 * Run a batch of labelled experiment specs through the in-process
 * harness::ResilientRunner. Worker count follows INSURE_JOBS (or the
 * hardware); per-run results are bit-identical at any job count, so
 * routing every sweep through here changes nothing but the wall-clock
 * time.
 */
inline std::vector<core::RunResult>
runBatch(std::vector<core::RunSpec> specs)
{
    return harness::ResilientRunner().run(specs);
}

/**
 * Run InSURE and the baseline for each config on the same solar trace
 * (the paper's trace-replay methodology, §5), all runs dispatched
 * concurrently. Results come back in config order.
 */
inline std::vector<core::ComparisonResult>
runComparisonBatch(std::vector<core::ExperimentConfig> cfgs)
{
    std::vector<core::RunSpec> specs;
    specs.reserve(cfgs.size() * 2);
    for (core::ExperimentConfig &cfg : cfgs) {
        cfg.manager = core::ManagerKind::Insure;
        specs.push_back({"insure", cfg});
        cfg.manager = core::ManagerKind::Baseline;
        specs.push_back({"baseline", cfg});
    }
    std::vector<core::RunResult> results = runBatch(std::move(specs));
    std::vector<core::ComparisonResult> out(cfgs.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].insure = std::move(results[2 * i].result);
        out[i].baseline = std::move(results[2 * i + 1].result);
    }
    return out;
}

/**
 * Build the seismic-station config for one simulated day of @p cls
 * weather yielding @p kwh — the setup shared by the Fig. 5/14/16,
 * Table 6 and ablation benches.
 */
inline core::ExperimentConfig
seismicDay(solar::DayClass cls, double kwh)
{
    core::ExperimentConfig cfg = core::seismicExperiment();
    cfg.day = cls;
    cfg.targetDailyKwh = kwh;
    return cfg;
}

/**
 * Build the seismic-station config with the solar trace scaled to an
 * average of @p watts over 7:00-20:00 (the Fig. 15 normalisation); the
 * day class follows the paper's high/low split at 700 W.
 */
inline core::ExperimentConfig
seismicScaled(double watts)
{
    core::ExperimentConfig cfg = core::seismicExperiment();
    cfg.day = watts > 700.0 ? solar::DayClass::Sunny
                            : solar::DayClass::Cloudy;
    cfg.scaleToAvgWatts = watts;
    return cfg;
}

/**
 * Build the seismic-station config truncated to @p hours of simulated
 * time — the unit of work used by the simspeed bench and sweep
 * throughput measurements.
 */
inline core::ExperimentConfig
seismicHours(double hours, std::uint64_t seed = kDefaultSeed)
{
    core::ExperimentConfig cfg = core::seismicExperiment();
    cfg.duration = units::hours(hours);
    cfg.seed = seed;
    return cfg;
}

/**
 * Build the config for one micro-benchmark day (paper §6.3 methodology:
 * replayed traces scaled to the Fig. 15 averages: high 1114 W, low
 * 427 W over 7:00-20:00).
 */
inline core::ExperimentConfig
microComparisonConfig(const std::string &benchmark, double avg_watts,
                      std::uint64_t seed = kDefaultSeed)
{
    core::ExperimentConfig cfg = core::microExperiment(benchmark);
    cfg.day = avg_watts > 700.0 ? solar::DayClass::Sunny
                                : solar::DayClass::Cloudy;
    cfg.scaleToAvgWatts = avg_watts;
    cfg.seed = seed;
    return cfg;
}

/** Run one micro-benchmark day under both managers on the same trace. */
inline core::ComparisonResult
runMicroComparison(const std::string &benchmark, double avg_watts,
                   std::uint64_t seed = kDefaultSeed)
{
    return core::runComparison(
        microComparisonConfig(benchmark, avg_watts, seed));
}

/** The micro-benchmark names used in the paper's Figs. 17-19. */
inline std::vector<std::string>
microBenchNames()
{
    return {"x264", "vips", "sort", "graph", "dedup", "terasort"};
}

/** One benchmark's paired high/low-solar comparisons (Figs. 17-19). */
struct MicroSweepRow {
    std::string name;
    core::ComparisonResult high;
    core::ComparisonResult low;
};

/**
 * The full Figs. 17-19 sweep — every (benchmark x solar level x
 * manager) combination — dispatched through runBatch.
 */
inline std::vector<MicroSweepRow>
runMicroSweep(const std::vector<std::string> &names,
              double high_watts = 1114.0, double low_watts = 427.0,
              std::uint64_t seed = kDefaultSeed)
{
    std::vector<core::ExperimentConfig> cfgs;
    cfgs.reserve(names.size() * 2);
    for (const std::string &name : names) {
        cfgs.push_back(microComparisonConfig(name, high_watts, seed));
        cfgs.push_back(microComparisonConfig(name, low_watts, seed));
    }
    std::vector<core::ComparisonResult> cmps =
        runComparisonBatch(std::move(cfgs));
    std::vector<MicroSweepRow> rows;
    rows.reserve(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        rows.push_back({names[i], std::move(cmps[2 * i]),
                        std::move(cmps[2 * i + 1])});
    }
    return rows;
}

/**
 * Print a Figs. 17-19 style panel: per-benchmark improvement of one
 * metric under high and low solar generation, plus the average.
 */
inline void
printImprovementPanel(
    const std::string &title,
    const std::vector<std::pair<std::string, std::pair<double, double>>>
        &rows)
{
    sim::TextTable t({"benchmark", "high solar", "low solar"});
    double high_sum = 0.0;
    double low_sum = 0.0;
    for (const auto &[name, imp] : rows) {
        t.addRow({name, sim::TextTable::percent(imp.first),
                  sim::TextTable::percent(imp.second)});
        high_sum += imp.first;
        low_sum += imp.second;
    }
    t.addRow({"avg", sim::TextTable::percent(high_sum / rows.size()),
              sim::TextTable::percent(low_sum / rows.size())});
    std::printf("%s", t.render(title).c_str());
    std::printf("\n");
}

} // namespace insure::bench

#endif // INSURE_BENCH_BENCH_UTIL_HH
