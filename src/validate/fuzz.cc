#include "validate/fuzz.hh"

#include <cstdio>

#include "sim/rng.hh"

namespace insure::validate {

namespace {

const char *const kMicroBenchmarks[] = {"dedup", "x264", "wordcount",
                                        "sort"};

const char *
dayName(solar::DayClass day)
{
    switch (day) {
      case solar::DayClass::Sunny: return "sunny";
      case solar::DayClass::Cloudy: return "cloudy";
      case solar::DayClass::Rainy: return "rainy";
    }
    return "?";
}

} // namespace

FuzzCase
fuzzCaseFromSeed(std::uint64_t seed, Seconds duration)
{
    Rng rng(seed);
    FuzzCase fc;

    // Workload: the two case studies plus micro-benchmarks, equal odds.
    std::string workload;
    switch (rng.uniformInt(0, 3)) {
      case 0:
        fc.config = core::seismicExperiment();
        workload = "seismic";
        break;
      case 1:
        fc.config = core::videoExperiment();
        workload = "video";
        break;
      default: {
        workload = kMicroBenchmarks[rng.uniformInt(0, 3)];
        fc.config = core::microExperiment(workload);
        break;
      }
    }

    // Manager: full InSURE, No-Opt, one single ablation, or the baseline.
    std::string manager;
    switch (rng.uniformInt(0, 3)) {
      case 0:
        fc.config.manager = core::ManagerKind::Insure;
        manager = "insure";
        break;
      case 1:
        fc.config.manager = core::ManagerKind::Insure;
        fc.config.insure = core::InsureParams::noOpt();
        manager = "noopt";
        break;
      case 2: {
        fc.config.manager = core::ManagerKind::Insure;
        switch (rng.uniformInt(0, 2)) {
          case 0:
            fc.config.insure.disableTemporal = true;
            manager = "insure-notemporal";
            break;
          case 1:
            fc.config.insure.disableConcentration = true;
            manager = "insure-noconc";
            break;
          default:
            fc.config.insure.disableBalancing = true;
            manager = "insure-nobalance";
            break;
        }
        break;
      }
      default:
        fc.config.manager = core::ManagerKind::Baseline;
        manager = "baseline";
        break;
    }

    switch (rng.uniformInt(0, 2)) {
      case 0: fc.config.day = solar::DayClass::Sunny; break;
      case 1: fc.config.day = solar::DayClass::Cloudy; break;
      default: fc.config.day = solar::DayClass::Rainy; break;
    }

    fc.config.system.cabinetCount =
        static_cast<unsigned>(rng.uniformInt(2, 4));
    fc.config.system.nodeCount =
        static_cast<unsigned>(rng.uniformInt(2, 6));
    fc.config.system.initialSoc = rng.uniform(0.25, 0.90);
    if (rng.bernoulli(0.25)) {
        core::SecondaryPowerParams sp;
        sp.capacity = rng.uniform(300.0, 900.0);
        fc.config.system.secondary = sp;
    }
    if (rng.bernoulli(0.3))
        fc.config.targetDailyKwh = rng.uniform(2.0, 15.0);

    // The duration draw is last, so a shrinker override leaves every
    // other derived choice untouched.
    const Seconds derived = rng.uniform(2.0, 6.0) * 3600.0;
    fc.config.duration = duration > 0.0 ? duration : derived;
    fc.config.seed = seed;

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "seed=%llu dur=%.0fs manager=%s workload=%s day=%s "
                  "cabinets=%u nodes=%u soc=%.2f sec=%.0f kwh=%.1f",
                  static_cast<unsigned long long>(seed),
                  fc.config.duration, manager.c_str(), workload.c_str(),
                  dayName(fc.config.day), fc.config.system.cabinetCount,
                  fc.config.system.nodeCount, fc.config.system.initialSoc,
                  fc.config.system.secondary
                      ? fc.config.system.secondary->capacity
                      : 0.0,
                  fc.config.targetDailyKwh ? *fc.config.targetDailyKwh
                                           : 0.0);
    fc.label = buf;
    return fc;
}

namespace {

/**
 * Halve the run length while the case still fails; returns the shortest
 * failing duration (and its violation evidence) found.
 */
FuzzFailure
shrinkFailure(std::uint64_t seed, Seconds failing_duration,
              std::uint64_t violations,
              std::vector<std::string> notes)
{
    FuzzFailure f;
    f.seed = seed;
    f.duration = failing_duration;
    f.violations = violations;
    f.notes = std::move(notes);
    Seconds dur = failing_duration;
    while (dur > 1200.0) {
        const Seconds half = dur / 2.0;
        FuzzCase fc = fuzzCaseFromSeed(seed, half);
        attachInvariantChecker(fc.config, Policy::Log);
        const core::ExperimentResult res = core::runExperiment(fc.config);
        if (res.invariantViolations == 0)
            break;
        dur = half;
        f.duration = half;
        f.violations = res.invariantViolations;
        f.notes = res.invariantNotes;
    }
    FuzzCase fc = fuzzCaseFromSeed(seed, f.duration);
    f.label = fc.label;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "fuzz repro: fuzzCaseFromSeed(%llu, %.0f)",
                  static_cast<unsigned long long>(seed), f.duration);
    f.repro = buf;
    return f;
}

} // namespace

FuzzReport
fuzzInvariants(const FuzzOptions &opts)
{
    Rng master(opts.masterSeed);
    std::vector<std::uint64_t> seeds;
    std::vector<core::RunSpec> specs;
    seeds.reserve(opts.runs);
    specs.reserve(opts.runs);
    for (std::size_t i = 0; i < opts.runs; ++i) {
        const std::uint64_t seed = master.splitSeed();
        FuzzCase fc = fuzzCaseFromSeed(seed, opts.duration);
        attachInvariantChecker(fc.config, Policy::Log);
        seeds.push_back(seed);
        specs.push_back({std::move(fc.label), std::move(fc.config)});
    }

    harness::ResilientRunner runner(opts.jobs);
    const std::vector<core::RunResult> results =
        runner.run(specs, opts.progress);

    FuzzReport report;
    report.runs = results.size();
    for (std::size_t i = 0; i < results.size(); ++i) {
        const core::RunResult &run = results[i];
        report.simulatedSeconds += run.simulatedSeconds;
        const std::uint64_t v = run.result.invariantViolations;
        if (v == 0)
            continue;
        ++report.failedRuns;
        report.totalViolations += v;
        if (report.failures.size() >= opts.maxFailures)
            continue;
        if (opts.shrink) {
            report.failures.push_back(
                shrinkFailure(seeds[i], specs[i].config.duration, v,
                              run.result.invariantNotes));
        } else {
            FuzzFailure f;
            f.seed = seeds[i];
            f.label = run.label;
            f.duration = specs[i].config.duration;
            f.violations = v;
            f.notes = run.result.invariantNotes;
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          "fuzz repro: fuzzCaseFromSeed(%llu, %.0f)",
                          static_cast<unsigned long long>(seeds[i]),
                          f.duration);
            f.repro = buf;
            report.failures.push_back(std::move(f));
        }
    }
    return report;
}

std::string
formatFuzzReport(const FuzzReport &report)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "fuzz: %zu runs, %.1f sim-days, %zu failing, "
                  "%llu violations",
                  report.runs, report.simulatedSeconds / units::secPerDay,
                  report.failedRuns,
                  static_cast<unsigned long long>(report.totalViolations));
    std::string out = buf;
    for (const FuzzFailure &f : report.failures) {
        out += "\n  FAIL " + f.label;
        out += "\n    " + f.repro;
        for (const std::string &note : f.notes)
            out += "\n    " + note;
    }
    return out;
}

} // namespace insure::validate
