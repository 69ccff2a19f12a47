/**
 * @file
 * Conservation and invariant property tests over full-system runs: no
 * configuration may create energy or data from nothing. Parameterized
 * across managers, weather and workloads.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/experiment.hh"

namespace insure::core {
namespace {

// std::string, not const char *: gtest prints a pointer parameter as
// its address, which would put a per-process value in the test name.
using Config = std::tuple<ManagerKind, solar::DayClass, std::string>;

class ConservationProperty : public testing::TestWithParam<Config>
{
  protected:
    ExperimentResult
    run()
    {
        const auto [mgr, day, workload] = GetParam();
        ExperimentConfig cfg = workload == "seismic"
                                   ? seismicExperiment()
                                   : videoExperiment();
        cfg.manager = mgr;
        cfg.day = day;
        cfg.duration = units::days(1.0);
        return runExperiment(cfg);
    }
};

TEST_P(ConservationProperty, EnergyBalanceHolds)
{
    const ExperimentResult res = run();
    const Metrics &m = res.metrics;

    // Green energy used never exceeds what the sky offered.
    EXPECT_LE(m.greenUsedKwh, m.solarOfferedKwh * 1.001);
    // Productive energy is a subset of load energy.
    EXPECT_LE(m.effectiveKwh, m.loadKwh * 1.001);
    // Load energy is bounded by green + initial storage + secondary.
    const double initial_kwh = 0.60 * 3 * 0.840; // initialSoc x capacity
    EXPECT_LE(m.loadKwh,
              m.greenUsedKwh + m.secondaryKwh + initial_kwh + 0.1);
    // Nothing is negative.
    EXPECT_GE(m.greenUsedKwh, 0.0);
    EXPECT_GE(m.loadKwh, 0.0);
    EXPECT_GE(m.bufferThroughputAh, 0.0);
}

TEST_P(ConservationProperty, DataBalanceHolds)
{
    const ExperimentResult res = run();
    const Metrics &m = res.metrics;
    // Processed data is bounded by the cluster's theoretical maximum.
    const double max_gb_per_hour = 8.0 * 4.2; // slots x best per-VM rate
    EXPECT_LE(m.processedGb, max_gb_per_hour * 24.0 * 1.01);
    EXPECT_GE(m.processedGb, 0.0);
    // Uptime and availabilities are fractions.
    EXPECT_GE(m.uptime, 0.0);
    EXPECT_LE(m.uptime, 1.0);
    EXPECT_GE(m.eBufferAvailability, 0.0);
    EXPECT_LE(m.eBufferAvailability, 1.0);
}

TEST_P(ConservationProperty, AccountingIsInternallyConsistent)
{
    const ExperimentResult res = run();
    const Metrics &m = res.metrics;
    // The daily log and the metrics must agree on shared quantities.
    EXPECT_NEAR(res.log.loadKwh, m.loadKwh, 0.01);
    EXPECT_NEAR(res.log.effectiveKwh, m.effectiveKwh, 0.01);
    EXPECT_EQ(res.log.onOffCycles, m.onOffCycles);
    EXPECT_EQ(res.log.vmCtrlTimes, m.vmCtrlOps);
}

std::string
configName(const testing::TestParamInfo<Config> &info)
{
    const auto [mgr, day, workload] = info.param;
    return std::string(managerKindName(mgr)) + "_" +
           solar::dayClassName(day) + "_" + workload;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConservationProperty,
    testing::Combine(testing::Values(ManagerKind::Insure,
                                     ManagerKind::Baseline),
                     testing::Values(solar::DayClass::Sunny,
                                     solar::DayClass::Cloudy,
                                     solar::DayClass::Rainy),
                     testing::Values("seismic", "video")),
    configName);

} // namespace
} // namespace insure::core
