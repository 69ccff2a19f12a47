/**
 * @file
 * Tests for the in-process engine's batch fan-out (ResilientRunner with
 * default options): determinism across job counts, child-seed
 * derivation, INSURE_JOBS handling and result merging.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness/resilient_runner.hh"
#include "sim/rng.hh"

namespace insure::harness {
namespace {

std::vector<core::RunSpec>
mixedSpecs()
{
    std::vector<core::RunSpec> specs;
    const solar::DayClass days[] = {solar::DayClass::Sunny,
                                    solar::DayClass::Cloudy,
                                    solar::DayClass::Rainy};
    for (int i = 0; i < 6; ++i) {
        core::ExperimentConfig cfg = core::seismicExperiment();
        cfg.day = days[i % 3];
        cfg.duration = units::hours(2.0 + i);
        cfg.manager = i % 2 == 0 ? core::ManagerKind::Insure
                                 : core::ManagerKind::Baseline;
        specs.push_back({"spec-" + std::to_string(i), cfg});
    }
    return specs;
}

// The tentpole determinism contract: the same seeded batch yields
// byte-identical per-run metrics whether executed on 1 thread or 8.
TEST(ResilientRunner, ResultsIdenticalAcrossJobCounts)
{
    const std::uint64_t master = 0xDECAFBADULL;
    const auto serial = ResilientRunner(1).runSeeded(mixedSpecs(), master);
    const auto parallel = ResilientRunner(8).runSeeded(mixedSpecs(), master);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(serial[i].label);
        EXPECT_EQ(serial[i].label, parallel[i].label);
        EXPECT_EQ(serial[i].seed, parallel[i].seed);
        const core::Metrics &a = serial[i].result.metrics;
        const core::Metrics &b = parallel[i].result.metrics;
        // Exact equality on purpose: determinism means bit-identical.
        EXPECT_EQ(a.processedGb, b.processedGb);
        EXPECT_EQ(a.loadKwh, b.loadKwh);
        EXPECT_EQ(a.greenUsedKwh, b.greenUsedKwh);
        EXPECT_EQ(a.bufferThroughputAh, b.bufferThroughputAh);
        EXPECT_EQ(a.uptime, b.uptime);
        EXPECT_EQ(a.eBufferAvailability, b.eBufferAvailability);
        EXPECT_EQ(a.onOffCycles, b.onOffCycles);
        EXPECT_EQ(a.bufferTrips, b.bufferTrips);
        EXPECT_EQ(a.emergencyShutdowns, b.emergencyShutdowns);
    }
}

TEST(ResilientRunner, ChildSeedsMatchSequentialSplit)
{
    const std::uint64_t master = 42;
    Rng reference(master);
    std::vector<std::uint64_t> expected;
    for (int i = 0; i < 4; ++i)
        expected.push_back(reference.splitSeed());

    std::vector<core::RunSpec> specs;
    for (int i = 0; i < 4; ++i) {
        core::ExperimentConfig cfg = core::seismicExperiment();
        cfg.duration = units::hours(1.0);
        specs.push_back({"r" + std::to_string(i), cfg});
    }
    const auto results = ResilientRunner(2).runSeeded(specs, master);
    ASSERT_EQ(results.size(), expected.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].seed, expected[i]);
        EXPECT_NE(results[i].seed, master);
    }
    EXPECT_NE(results[0].seed, results[1].seed);
}

TEST(ResilientRunner, RunKeepsSpecSeedAndOrder)
{
    std::vector<core::RunSpec> specs;
    for (int i = 0; i < 3; ++i) {
        core::ExperimentConfig cfg = core::seismicExperiment();
        cfg.duration = units::hours(1.0);
        cfg.seed = 100 + static_cast<std::uint64_t>(i);
        specs.push_back({"fixed-" + std::to_string(i), cfg});
    }
    const auto results = ResilientRunner(4).run(specs);
    ASSERT_EQ(results.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(results[i].label, "fixed-" + std::to_string(i));
        EXPECT_EQ(results[i].seed, 100 + i);
        EXPECT_GT(results[i].wallSeconds, 0.0);
        EXPECT_DOUBLE_EQ(results[i].simulatedSeconds, units::hours(1.0));
    }
}

TEST(ResilientRunner, ProgressReportsEveryRunExactlyOnce)
{
    std::vector<core::RunSpec> specs;
    for (int i = 0; i < 5; ++i) {
        core::ExperimentConfig cfg = core::seismicExperiment();
        cfg.duration = units::hours(1.0);
        specs.push_back({"p" + std::to_string(i), cfg});
    }
    std::vector<std::size_t> doneSeen;
    std::size_t totalSeen = 0;
    ResilientRunner(3).run(specs,
                           [&](const core::RunResult &, std::size_t done,
                               std::size_t total) {
                               doneSeen.push_back(done);
                               totalSeen = total;
                           });
    ASSERT_EQ(doneSeen.size(), 5u);
    EXPECT_EQ(totalSeen, 5u);
    // The callback is serialised, so `done` counts 1..N in order.
    for (std::size_t i = 0; i < doneSeen.size(); ++i)
        EXPECT_EQ(doneSeen[i], i + 1);
}

TEST(DefaultJobs, HonoursEnvironmentVariable)
{
    // Requests above the hardware width are clamped, so phrase the
    // expectations relative to hardwareConcurrency() — the suite must
    // pass on a 1-core CI box and a 64-core workstation alike.
    ::setenv("INSURE_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), std::min(3u, hardwareConcurrency()));
    ::setenv("INSURE_JOBS", "abc", 1);
    EXPECT_GE(defaultJobs(), 1u); // invalid value ignored, falls back
    ::setenv("INSURE_JOBS", "-2", 1);
    EXPECT_GE(defaultJobs(), 1u);
    ::unsetenv("INSURE_JOBS");
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(DefaultJobs, SelectsRunnerWidth)
{
    ::setenv("INSURE_JOBS", "7", 1);
    EXPECT_EQ(ResilientRunner(0).jobs(), std::min(7u, hardwareConcurrency()));
    // explicit beats env
    EXPECT_EQ(ResilientRunner(2).jobs(), std::min(2u, hardwareConcurrency()));
    ::unsetenv("INSURE_JOBS");
}

TEST(DefaultJobs, CachesHardwareConcurrency)
{
    const unsigned hw = hardwareConcurrency();
    EXPECT_GE(hw, 1u);
    EXPECT_EQ(hardwareConcurrency(), hw); // stable across calls
}

TEST(DefaultJobs, ClampsRequestsAboveHardwareWidth)
{
    const unsigned hw = hardwareConcurrency();
    EXPECT_EQ(clampJobs(hw + 5, "test"), hw);
    EXPECT_EQ(clampJobs(hw, "test"), hw);
    EXPECT_EQ(clampJobs(1, "test"), 1u);
    EXPECT_EQ(ResilientRunner(hw + 5).jobs(), hw);

    char env[16];
    std::snprintf(env, sizeof(env), "%u", hw + 9);
    ::setenv("INSURE_JOBS", env, 1);
    EXPECT_EQ(defaultJobs(), hw);
    ::unsetenv("INSURE_JOBS");
}

TEST(MergeResults, EmptyGivesZeroSummary)
{
    const core::SweepSummary s = core::mergeResults({});
    EXPECT_EQ(s.runs, 0u);
    EXPECT_DOUBLE_EQ(s.simulatedSeconds, 0.0);
    EXPECT_DOUBLE_EQ(s.meanUptime, 0.0);
    EXPECT_DOUBLE_EQ(s.minUptime, 0.0);
    EXPECT_DOUBLE_EQ(s.maxUptime, 0.0);
}

TEST(MergeResults, SumsTotalsAndAveragesRatios)
{
    std::vector<core::RunResult> runs(2);
    runs[0].simulatedSeconds = 3600.0;
    runs[0].wallSeconds = 0.5;
    runs[0].result.metrics.processedGb = 10.0;
    runs[0].result.metrics.loadKwh = 2.0;
    runs[0].result.metrics.uptime = 0.8;
    runs[0].result.metrics.eBufferAvailability = 0.6;
    runs[0].result.metrics.onOffCycles = 3;
    runs[1].simulatedSeconds = 7200.0;
    runs[1].wallSeconds = 1.5;
    runs[1].result.metrics.processedGb = 30.0;
    runs[1].result.metrics.loadKwh = 4.0;
    runs[1].result.metrics.uptime = 0.4;
    runs[1].result.metrics.eBufferAvailability = 0.8;
    runs[1].result.metrics.onOffCycles = 5;

    const core::SweepSummary s = core::mergeResults(runs);
    EXPECT_EQ(s.runs, 2u);
    EXPECT_DOUBLE_EQ(s.simulatedSeconds, 10800.0);
    EXPECT_DOUBLE_EQ(s.runWallSeconds, 2.0);
    EXPECT_DOUBLE_EQ(s.processedGb, 40.0);
    EXPECT_DOUBLE_EQ(s.loadKwh, 6.0);
    EXPECT_EQ(s.onOffCycles, 8u);
    EXPECT_DOUBLE_EQ(s.meanUptime, 0.6);
    EXPECT_DOUBLE_EQ(s.minUptime, 0.4);
    EXPECT_DOUBLE_EQ(s.maxUptime, 0.8);
    EXPECT_DOUBLE_EQ(s.meanEBufferAvailability, 0.7);
}

// Sanity link between the merge step and real runs: summing what the
// runner produced must match summing the runs by hand.
TEST(MergeResults, MatchesManualSumOfRealRuns)
{
    const auto results =
        ResilientRunner(2).runSeeded(mixedSpecs(), kDefaultSeed);
    const core::SweepSummary s = core::mergeResults(results);
    double processed = 0.0;
    double sim = 0.0;
    for (const auto &r : results) {
        processed += r.result.metrics.processedGb;
        sim += r.simulatedSeconds;
    }
    EXPECT_EQ(s.runs, results.size());
    EXPECT_DOUBLE_EQ(s.processedGb, processed);
    EXPECT_DOUBLE_EQ(s.simulatedSeconds, sim);
}

} // namespace
} // namespace insure::harness
