/**
 * @file
 * Self-healing campaign tests: the ResilientRunner must reproduce a
 * serial core::runExperiment loop bit for bit, serve completed runs from
 * cache on resume, restart interrupted runs from their checkpoint,
 * retry watchdog timeouts with backoff and fresh seeds, and keep the
 * campaign JSON byte-identical whether or not a sweep was interrupted.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/campaign.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "harness/batch_runner.hh"
#include "harness/resilient_runner.hh"
#include "snapshot/snapshotter.hh"
#include "validate/golden_trace.hh"

namespace insure {
namespace {

namespace fs = std::filesystem;

/** Fresh per-test state directory under the gtest temp root. */
fs::path
stateDirFor(const std::string &name)
{
    const fs::path dir = fs::path(testing::TempDir()) / name;
    fs::remove_all(dir);
    return dir;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

/** A short fault-injected sweep: @p runs specs sharing one base config. */
std::vector<core::RunSpec>
sweepSpecs(std::size_t runs)
{
    core::ExperimentConfig base =
        validate::goldenScenario("fig14_seismic_sunny");
    base.duration = units::hours(1.0);
    fault::installFaultPlan(base, fault::makeRatePlan(6.0, {}));
    std::vector<core::RunSpec> specs;
    for (std::size_t i = 0; i < runs; ++i)
        specs.push_back({"run-" + std::to_string(i), base});
    return specs;
}

/** Require bit-identical outcomes, ignoring only wall-clock time. */
void
expectSameOutcome(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.simulatedSeconds, b.simulatedSeconds);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.error, b.error);
    if (a.failed || b.failed)
        return;
    EXPECT_EQ(a.result.managerName, b.result.managerName);
    EXPECT_EQ(a.result.metrics.uptime, b.result.metrics.uptime);
    EXPECT_EQ(a.result.metrics.processedGb, b.result.metrics.processedGb);
    EXPECT_EQ(a.result.metrics.meanLatency, b.result.metrics.meanLatency);
    EXPECT_EQ(a.result.metrics.greenUsedKwh, b.result.metrics.greenUsedKwh);
    EXPECT_EQ(a.result.metrics.bufferThroughputAh,
              b.result.metrics.bufferThroughputAh);
    EXPECT_EQ(a.result.metrics.serviceLifeYears,
              b.result.metrics.serviceLifeYears);
    EXPECT_EQ(a.result.metrics.onOffCycles, b.result.metrics.onOffCycles);
    EXPECT_EQ(a.result.log.endOfDayVoltage, b.result.log.endOfDayVoltage);
    EXPECT_EQ(a.result.invariantViolations, b.result.invariantViolations);
    ASSERT_EQ(a.result.resilience.has_value(),
              b.result.resilience.has_value());
    if (a.result.resilience) {
        EXPECT_EQ(a.result.resilience->faultsInjected,
                  b.result.resilience->faultsInjected);
        EXPECT_EQ(a.result.resilience->detectedFaults,
                  b.result.resilience->detectedFaults);
        EXPECT_EQ(a.result.resilience->outageSeconds,
                  b.result.resilience->outageSeconds);
        EXPECT_EQ(a.result.resilience->energyLostKwh,
                  b.result.resilience->energyLostKwh);
    }
}

TEST(ResilientRunner, SeededSweepMatchesSerialRunExperimentBitForBit)
{
    const auto specs = sweepSpecs(3);
    const std::uint64_t master = 0xFEEDFACEu;

    // Reference: a serial loop of core::runExperiment over the shared
    // child-seed derivation, with no runner in the path.
    const std::vector<std::uint64_t> seeds =
        harness::deriveChildSeeds(master, specs.size());
    std::vector<core::RunResult> want(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        core::ExperimentConfig cfg = specs[i].config;
        cfg.seed = seeds[i];
        want[i].label = specs[i].label;
        want[i].seed = cfg.seed;
        want[i].simulatedSeconds = cfg.duration;
        want[i].result = core::runExperiment(cfg);
    }

    harness::ResilientRunner resilient(2);
    const auto got = resilient.runSeeded(specs, master);

    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        expectSameOutcome(want[i], got[i]);
}

TEST(ResilientRunner, ResumeServesCompletedRunsFromCache)
{
    const auto specs = sweepSpecs(3);
    const std::uint64_t master = 0xABCDu;
    const fs::path dir = stateDirFor("resilient_cache");

    harness::ResilientOptions opts;
    opts.stateDir = dir.string();
    harness::ResilientRunner first(2, opts);
    const auto want = first.runSeeded(specs, master);

    opts.resume = true;
    harness::ResilientRunner second(2, opts);
    const auto got = second.runSeeded(specs, master);

    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        expectSameOutcome(want[i], got[i]);

    const std::string journal = slurp(dir / "journal.jsonl");
    EXPECT_NE(journal.find("\"cached\""), std::string::npos);
    fs::remove_all(dir);
}

TEST(ResilientRunner, ResumeRestartsInterruptedRunFromCheckpoint)
{
    const auto specs = sweepSpecs(1);
    const std::uint64_t master = 0x5151u;

    // The reference outcome, with no persistence at all.
    harness::ResilientRunner plain;
    const auto want = plain.runSeeded(specs, master);
    ASSERT_FALSE(want[0].failed) << want[0].error;

    // Fake a kill -9 half way through run 0: leave only its checkpoint
    // behind, exactly as an interrupted campaign process would.
    const fs::path dir = stateDirFor("resilient_ckpt");
    fs::create_directories(dir);
    core::ExperimentConfig half = specs[0].config;
    half.seed = Rng(master).splitSeed(); // the runner's child-seed derivation
    EXPECT_EQ(half.seed, want[0].seed);
    {
        core::ExperimentRig rig(half);
        rig.runUntil(half.duration / 2.0);
        snapshot::saveRigSnapshot(rig, (dir / "run-0000.ckpt").string());
    }

    harness::ResilientOptions opts;
    opts.stateDir = dir.string();
    opts.resume = true;
    opts.checkpointInterval = units::hours(0.25);
    harness::ResilientRunner resumed(0, opts);
    const auto got = resumed.runSeeded(specs, master);

    expectSameOutcome(want[0], got[0]);
    const std::string journal = slurp(dir / "journal.jsonl");
    EXPECT_NE(journal.find("\"resumed\""), std::string::npos);
    // The finished run replaces its checkpoint with a result file.
    EXPECT_FALSE(fs::exists(dir / "run-0000.ckpt"));
    EXPECT_TRUE(fs::exists(dir / "run-0000.result"));
    fs::remove_all(dir);
}

TEST(ResilientRunner, WatchdogTimeoutRetriesWithFreshSeedThenFails)
{
    const auto specs = sweepSpecs(1);
    const std::uint64_t master = 0x7777u;
    const fs::path dir = stateDirFor("resilient_watchdog");

    harness::ResilientOptions opts;
    opts.stateDir = dir.string();
    opts.watchdogSeconds = 1e-9; // every attempt blows the budget
    opts.maxRetries = 1;
    opts.backoffSeconds = 0.001;
    harness::ResilientRunner runner(0, opts);
    const auto got = runner.runSeeded(specs, master);

    ASSERT_EQ(got.size(), 1u);
    EXPECT_TRUE(got[0].failed);
    EXPECT_NE(got[0].error.find("watchdog"), std::string::npos)
        << got[0].error;
    // The recorded seed is the retry attempt's freshly derived one.
    EXPECT_NE(got[0].seed, Rng(master).splitSeed());

    const std::string journal = slurp(dir / "journal.jsonl");
    EXPECT_NE(journal.find("\"timeout\""), std::string::npos);
    EXPECT_NE(journal.find("\"retry\""), std::string::npos);
    EXPECT_NE(journal.find("\"failed\""), std::string::npos);
    fs::remove_all(dir);
}

TEST(ResilientRunner, ResumeRejectsCachedResultsFromDifferentCampaign)
{
    const auto specs = sweepSpecs(2);
    const fs::path dir = stateDirFor("resilient_mismatch");

    harness::ResilientOptions opts;
    opts.stateDir = dir.string();
    harness::ResilientRunner first(0, opts);
    first.runSeeded(specs, /*masterSeed=*/0x1111u);

    // Same state dir, different master seed: the child seeds differ, so
    // the cached result files belong to the wrong runs and must be
    // re-run, not served verbatim.
    harness::ResilientRunner clean;
    const auto want = clean.runSeeded(specs, /*masterSeed=*/0x2222u);

    opts.resume = true;
    harness::ResilientRunner resumed(0, opts);
    const auto got = resumed.runSeeded(specs, /*masterSeed=*/0x2222u);

    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        expectSameOutcome(want[i], got[i]);

    const std::string journal = slurp(dir / "journal.jsonl");
    EXPECT_NE(journal.find("\"cache-mismatch\""), std::string::npos);
    EXPECT_EQ(journal.find("\"cached\""), std::string::npos);
    fs::remove_all(dir);
}

TEST(ResilientRunner, FreshCampaignClearsReusedStateDir)
{
    const fs::path dir = stateDirFor("resilient_fresh");

    harness::ResilientOptions opts;
    opts.stateDir = dir.string();
    harness::ResilientRunner bigger(0, opts);
    bigger.runSeeded(sweepSpecs(3), /*masterSeed=*/0x3333u);
    EXPECT_TRUE(fs::exists(dir / "run-0002.result"));

    // A fresh (resume=false) 1-run campaign in the same directory must
    // not inherit the earlier sweep's journal records or its stale
    // higher-index result files, which a later --resume could serve.
    harness::ResilientRunner smaller(0, opts);
    smaller.runSeeded(sweepSpecs(1), /*masterSeed=*/0x4444u);

    EXPECT_TRUE(fs::exists(dir / "run-0000.result"));
    EXPECT_FALSE(fs::exists(dir / "run-0001.result"));
    EXPECT_FALSE(fs::exists(dir / "run-0002.result"));
    const std::string journal = slurp(dir / "journal.jsonl");
    EXPECT_EQ(journal.find("\"run\": 1"), std::string::npos);
    EXPECT_EQ(journal.find("\"run\": 2"), std::string::npos);
    fs::remove_all(dir);
}

TEST(ResilientRunner, CampaignJsonByteIdenticalAcrossInterruptAndResume)
{
    fault::CampaignConfig cfg;
    cfg.base = validate::goldenScenario("fig16_video_cloudy");
    cfg.base.duration = units::hours(1.0);
    cfg.plan = fault::makeRatePlan(6.0, {});
    cfg.runs = 3;
    cfg.jobs = 2;
    cfg.masterSeed = 0xC0FFEEu;

    const auto jsonOf = [](const fault::CampaignSummary &s) {
        std::ostringstream os;
        fault::writeCampaignJson(s, os);
        return os.str();
    };

    // Reference: no persistence, no chunking (all resilient defaults).
    const std::string want = jsonOf(fault::runFaultCampaign(cfg));

    // Same campaign through the resilient engine, persisting state.
    const fs::path dir = stateDirFor("resilient_campaign");
    cfg.resilient.stateDir = dir.string();
    cfg.resilient.checkpointInterval = units::hours(0.25);
    EXPECT_EQ(jsonOf(fault::runFaultCampaign(cfg)), want);

    // "Crash": one result file disappears. The resumed campaign re-runs
    // only that spec and must still aggregate byte-identical JSON.
    fs::remove(dir / "run-0001.result");
    cfg.resilient.resume = true;
    EXPECT_EQ(jsonOf(fault::runFaultCampaign(cfg)), want);

    const std::string journal = slurp(dir / "journal.jsonl");
    EXPECT_NE(journal.find("\"cached\""), std::string::npos);
    fs::remove_all(dir);
}

} // namespace
} // namespace insure
