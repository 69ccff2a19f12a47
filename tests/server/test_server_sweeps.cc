/**
 * @file
 * Parameterized sweeps over the server cluster: power-model identities
 * across node types, VM counts, duty cycles and frequencies.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "server/cluster.hh"

namespace insure::server {
namespace {

NodeParams
nodeFor(const std::string &type)
{
    return type == "lowpower" ? lowPowerNode() : xeonNode();
}

// std::string, not const char *: gtest prints a pointer parameter as
// its address, which would put a per-process value in the test name.
using PowerCase = std::tuple<std::string, unsigned, double>;

class ClusterPowerSweep : public testing::TestWithParam<PowerCase>
{
};

TEST_P(ClusterPowerSweep, PlannedEqualsRealizedPower)
{
    const auto [type, vms, duty] = GetParam();
    const NodeParams node = nodeFor(type);
    Cluster c(4, node);
    c.setWorkloadUtil(0.6);
    c.setTargetVms(vms);
    c.step(node.bootTime + node.vmMgmtTime);
    c.setDutyCycle(duty);
    EXPECT_NEAR(c.plannedPower(vms, duty), c.power(), 1e-6)
        << type << " " << vms << " VMs @" << duty;
}

TEST_P(ClusterPowerSweep, EnergyMatchesPowerTimesTime)
{
    const auto [type, vms, duty] = GetParam();
    const NodeParams node = nodeFor(type);
    Cluster c(4, node);
    c.setTargetVms(vms);
    c.step(node.bootTime + node.vmMgmtTime);
    c.setDutyCycle(duty);
    const Watts p = c.power();
    const auto r = c.step(1800.0);
    EXPECT_NEAR(r.energyWh, p * 0.5, 1e-6);
}

TEST_P(ClusterPowerSweep, UsefulComputeScalesWithDuty)
{
    const auto [type, vms, duty] = GetParam();
    const NodeParams node = nodeFor(type);
    Cluster c(4, node);
    c.setTargetVms(vms);
    c.step(node.bootTime + node.vmMgmtTime);
    c.setDutyCycle(duty);
    const auto r = c.step(3600.0);
    EXPECT_NEAR(r.usefulVmHours, vms * duty, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ClusterPowerSweep,
    testing::Combine(testing::Values("xeon", "lowpower"),
                     testing::Values(1u, 3u, 8u),
                     testing::Values(0.4, 0.7, 1.0)));

class FrequencySweep : public testing::TestWithParam<double>
{
};

TEST_P(FrequencySweep, DynamicPowerFollowsAlphaCurve)
{
    const double f = GetParam();
    const NodeParams node = xeonNode();
    Cluster c(2, node);
    c.setTargetVms(4);
    c.step(node.bootTime + node.vmMgmtTime);
    const Watts full = c.power();
    c.setFrequency(f);
    const double expect =
        2.0 * node.idlePower +
        (full - 2.0 * node.idlePower) * std::pow(f, node.dvfsAlpha);
    EXPECT_NEAR(c.power(), expect, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Freqs, FrequencySweep,
                         testing::Values(0.5, 0.6, 0.8, 0.9, 1.0));

} // namespace
} // namespace insure::server
