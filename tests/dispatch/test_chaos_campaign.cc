/**
 * @file
 * Chaos-hardened distributed campaigns: supervised fleets under
 * deterministic transport chaos must still produce campaign JSON
 * byte-identical to the single-process oracle; the supervisor must
 * respawn dead workers; the czar must evict lease-stalled and silent
 * peers; workers must reconnect mid-lease; the twin chaos replay must
 * reproduce the serial oracle byte for byte.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "drills/chaos_drill.hh"
#include "dispatch/fleet.hh"
#include "dispatch/protocol.hh"
#include "fault/campaign.hh"
#include "drills/twin_driver.hh"
#include "service/transport.hh"
#include "sim/units.hh"

namespace insure {
namespace {

dispatch::SweepSpec
smallSweep()
{
    dispatch::SweepSpec spec;
    spec.runs = 8;
    spec.days = 0.05;
    spec.faultRatePerHour = 4.0;
    spec.masterSeed = 31337;
    return spec;
}

std::string
campaignJson(const fault::CampaignSummary &summary)
{
    std::ostringstream os;
    fault::writeCampaignJson(summary, os);
    return os.str();
}

std::string
oracleJson(const dispatch::SweepSpec &spec)
{
    return campaignJson(
        fault::runFaultCampaign(dispatch::toCampaignConfig(spec)));
}

TEST(ChaosCampaign, StormFleetsStayByteIdenticalAcrossSeeds)
{
    // The drill proper, at test scale: every storm seed must complete
    // and byte-match the chaos-free oracle (the full multi-seed gate
    // is scripts/check.sh --chaos).
    dispatch::CampaignDrillOptions opts;
    opts.spec = smallSweep();
    opts.seeds = 2;
    opts.chaos = service::ChaosPlan::storm(32);
    const dispatch::CampaignDrillReport report =
        dispatch::runCampaignChaosDrill(opts);
    ASSERT_EQ(report.outcomes.size(), 2u);
    for (const auto &o : report.outcomes) {
        EXPECT_TRUE(o.completed) << "seed " << o.chaosSeed << ": "
                                 << o.error;
        EXPECT_TRUE(o.identical) << "seed " << o.chaosSeed;
    }
    EXPECT_TRUE(report.passed());
    EXPECT_EQ(report.oracleJson, oracleJson(opts.spec));
}

TEST(ChaosCampaign, WorkersReconnectMidLeaseAndStillMatch)
{
    // Deterministic mid-lease cuts: every connection is hard-closed
    // after 900 transferred bytes (sent + received through the czar
    // end) — enough for HELLO plus some lease traffic, never the
    // whole campaign. Workers must redial, re-HELLO and finish; the
    // czar re-dispatches what the cut connections lost. No respawns:
    // reconnect alone must carry it.
    const dispatch::SweepSpec spec = smallSweep();
    dispatch::FleetOptions fleet;
    fleet.mode = dispatch::FleetMode::Thread;
    fleet.workers = 2;
    fleet.czar.chunkRuns = 2;
    fleet.czar.allDeadGraceSeconds = 10.0;
    fleet.workerReconnects = 20;
    fleet.chaos.disconnectAtByte = 900;
    fleet.chaosSeed = 7;

    const dispatch::DistributedRunReport run =
        dispatch::runDistributedSweepReport(spec, fleet);
    EXPECT_EQ(campaignJson(run.summary), oracleJson(spec));
    // Reconnects happened: more czar-side connections than workers.
    EXPECT_GT(run.supervisor.connections, 2u);
    EXPECT_GT(run.czar.workersLost, 0u);
    EXPECT_EQ(run.supervisor.respawned, 0u);
}

TEST(ChaosCampaign, SupervisorRespawnsChurnedWorkers)
{
    // Both initial workers retire after one run (disposable churn);
    // without respawn the 8-run campaign would need the czar to limp
    // on re-dispatch alone. The supervisor must replace them and the
    // replacements (no inherited budget) must finish the campaign.
    const dispatch::SweepSpec spec = smallSweep();
    dispatch::FleetOptions fleet;
    fleet.mode = dispatch::FleetMode::Thread;
    fleet.workers = 2;
    fleet.czar.chunkRuns = 2;
    fleet.czar.allDeadGraceSeconds = 10.0;
    fleet.threadWorkerMaxRuns = {1, 1};
    fleet.maxRespawns = 4;

    const dispatch::DistributedRunReport run =
        dispatch::runDistributedSweepReport(spec, fleet);
    EXPECT_EQ(campaignJson(run.summary), oracleJson(spec));
    EXPECT_GE(run.supervisor.respawned, 1u);
    EXPECT_EQ(run.supervisor.drained, 0u);
}

TEST(ChaosCampaign, DrainModeAfterRespawnBudgetExhausts)
{
    // Churn budget 1 run each, respawn budget 1: after the single
    // respawn is spent, further exits drain. The campaign must still
    // complete on whoever survives (the respawned worker is
    // unlimited).
    const dispatch::SweepSpec spec = smallSweep();
    dispatch::FleetOptions fleet;
    fleet.mode = dispatch::FleetMode::Thread;
    fleet.workers = 2;
    fleet.czar.chunkRuns = 2;
    fleet.czar.allDeadGraceSeconds = 10.0;
    fleet.threadWorkerMaxRuns = {1, 1};
    fleet.maxRespawns = 1;

    const dispatch::DistributedRunReport run =
        dispatch::runDistributedSweepReport(spec, fleet);
    EXPECT_EQ(campaignJson(run.summary), oracleJson(spec));
    EXPECT_EQ(run.supervisor.respawned, 1u);
    EXPECT_GE(run.supervisor.drained, 1u);
}

TEST(ChaosCampaign, CzarEvictsLeaseStalledWorker)
{
    // A saboteur HELLOs and heartbeats forever but never executes a
    // lease. Its heartbeats keep lastSeen fresh, so only the
    // lease-progress clock can evict it; without that clock the
    // campaign would stall forever on the leases it sat on.
    const dispatch::SweepSpec spec = smallSweep();
    dispatch::CzarOptions opts;
    opts.chunkRuns = 2;
    opts.leaseProgressTimeoutSeconds = 0.4;
    dispatch::Czar czar(spec, opts);

    // The saboteur (added first so it gets leases first).
    auto [sabCzarEnd, sabEnd] = service::makeLoopbackPair();
    czar.addWorker(std::move(sabCzarEnd));
    std::thread saboteur([s = std::move(sabEnd)]() mutable {
        dispatch::HelloMsg hello;
        hello.workerId = "saboteur";
        const auto helloWire = dispatch::encodeHello(hello);
        if (!s->send(helloWire.data(), helloWire.size()))
            return;
        s->setReceiveDeadline(0.05);
        for (;;) {
            std::uint8_t buf[512];
            (void)s->receive(buf, sizeof buf); // drain leases, do nothing
            const auto hb =
                dispatch::encodeHeartbeat(dispatch::HeartbeatMsg{});
            if (!s->send(hb.data(), hb.size()))
                return; // czar cut us loose: eviction observed
        }
    });

    // One honest worker.
    auto [honCzarEnd, honEnd] = service::makeLoopbackPair();
    czar.addWorker(std::move(honCzarEnd));
    std::thread honest([s = std::move(honEnd)]() mutable {
        dispatch::WorkerOptions w;
        w.workerId = "honest";
        dispatch::runWorker(*s, w);
    });

    const fault::CampaignSummary summary = czar.run();
    saboteur.join();
    honest.join();

    EXPECT_EQ(campaignJson(summary), oracleJson(spec));
    EXPECT_GE(czar.stats().leaseTimeouts, 1u);
    EXPECT_GE(czar.stats().requeuedRuns, 1u);
}

TEST(ChaosCampaign, CzarEvictsSilentWorkerByDeadline)
{
    // A peer that HELLOs then goes completely silent. The czar's
    // receive deadline unblocks its reader; the worker-timeout clock
    // evicts it and its leases are re-dispatched to the honest worker.
    const dispatch::SweepSpec spec = smallSweep();
    dispatch::CzarOptions opts;
    opts.chunkRuns = 2;
    opts.workerTimeoutSeconds = 0.4;
    opts.receiveDeadlineSeconds = 0.1;
    dispatch::Czar czar(spec, opts);

    auto [mutePeerCzarEnd, muteEnd] = service::makeLoopbackPair();
    czar.addWorker(std::move(mutePeerCzarEnd));
    std::thread mute([s = std::move(muteEnd)]() mutable {
        dispatch::HelloMsg hello;
        hello.workerId = "mute";
        const auto wire = dispatch::encodeHello(hello);
        s->send(wire.data(), wire.size());
        // Stay connected, say nothing, run nothing — a slow loris.
        s->setReceiveDeadline(10.0);
        std::uint8_t buf[512];
        while (s->receive(buf, sizeof buf) != 0) {
        }
    });

    // The honest worker heartbeats faster than the reader deadline so
    // its reader never mistakes a long run for a dead peer.
    auto [honCzarEnd, honEnd] = service::makeLoopbackPair();
    czar.addWorker(std::move(honCzarEnd));
    std::thread honest([s = std::move(honEnd)]() mutable {
        dispatch::WorkerOptions w;
        w.workerId = "honest";
        w.heartbeatSeconds = 0.02;
        dispatch::runWorker(*s, w);
    });

    const fault::CampaignSummary summary = czar.run();
    mute.join();
    honest.join();

    EXPECT_EQ(campaignJson(summary), oracleJson(spec));
    // The mute peer is gone — cut by the reader deadline or the
    // worker-timeout clock, whichever struck first.
    EXPECT_GE(czar.stats().workersLost, 1u);
}

TEST(ChaosCampaign, OrderlyShutdownLeavesNoLostWorkers)
{
    // A clean fleet run ends with a SHUTDOWN broadcast, not EOF
    // surprise: no worker is counted lost and nobody reconnects.
    const dispatch::SweepSpec spec = smallSweep();
    dispatch::FleetOptions fleet;
    fleet.mode = dispatch::FleetMode::Thread;
    fleet.workers = 3;
    fleet.czar.chunkRuns = 3;
    fleet.workerReconnects = 5; // available, must go unused

    const dispatch::DistributedRunReport run =
        dispatch::runDistributedSweepReport(spec, fleet);
    EXPECT_EQ(campaignJson(run.summary), oracleJson(spec));
    EXPECT_EQ(run.czar.workersLost, 0u);
    EXPECT_EQ(run.supervisor.connections, 3u);
    EXPECT_EQ(run.supervisor.respawned, 0u);
}

TEST(ChaosTwin, ChaoticReplayMatchesSerialOracle)
{
    core::ExperimentConfig cfg = core::seismicExperiment();
    cfg.system.cabinetCount = 3;
    cfg.duration = units::hours(2.0);
    service::TwinServer oracle(cfg);
    service::TwinServer server(cfg);
    oracle.advance(units::hours(1.0));
    server.advance(units::hours(1.0));

    harness::TwinTrafficOptions topts;
    topts.count = 32;
    topts.cabinetCount = 3;
    const auto ops = harness::makeTwinTraffic(kDefaultSeed, topts);
    const auto serial = harness::replayTwinSerial(oracle, ops);

    dispatch::TwinChaosOptions copts;
    copts.chaosSeed = 11;
    const dispatch::TwinChaosReport rep =
        dispatch::replayTwinChaos(server, ops, copts);
    ASSERT_TRUE(rep.completed);
    ASSERT_EQ(rep.replies.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(rep.replies[i], serial[i]) << "op " << i;
    // The weather actually blew: chaos was injected somewhere.
    EXPECT_GT(rep.chaos.events(), 0u);
}

} // namespace
} // namespace insure
