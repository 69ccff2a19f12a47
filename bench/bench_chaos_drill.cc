/**
 * @file
 * End-to-end chaos drill driver (robustness gate, not a paper
 * artefact). Three drills behind one CLI:
 *
 *  - campaign drill (default): for each chaos seed, a supervised
 *    thread fleet runs a sharded fault sweep under deterministic
 *    transport chaos; the campaign summary JSON must stay
 *    byte-identical to the chaos-free single-process oracle.
 *  - twin drill (default): a scripted register-read / what-if traffic
 *    log replayed against a live TwinServer through chaos-wrapped
 *    connections (reply deadlines, reconnect + resend on poisoned
 *    sessions) must reproduce the serial oracle's reply bytes.
 *  - kill drill (--kill-drill): a process fleet has one worker
 *    SIGKILLed mid-campaign; the supervisor must respawn it and the
 *    campaign must still complete and match the oracle. Skipped (exit
 *    0, with a notice) where sockets are unavailable.
 *
 * Exits non-zero when any requested drill fails. --json writes the
 * machine-readable block that lives under "chaos_drill" in
 * BENCH_simspeed.json (a sibling of the google-benchmark "benchmarks"
 * section, ignored by the perf gate's baseline parser).
 *
 *   bench_chaos_drill [--seeds N] [--first-seed S] [--budget EVENTS]
 *                     [--runs N] [--days D] [--rate PER_HOUR]
 *                     [--workers N] [--chunk N]
 *                     [--respawns N] [--reconnects N]
 *                     [--twin-ops N] [--twin-cabinets N]
 *                     [--twin-seeds N] [--no-twin] [--no-campaign]
 *                     [--kill-drill [--kill-after SECONDS]]
 *                     [--json FILE]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "drills/chaos_drill.hh"
#include "dispatch/fleet.hh"
#include "drills/twin_driver.hh"
#include "sim/units.hh"

using namespace insure;

namespace {

struct Args {
    dispatch::CampaignDrillOptions drill;
    std::size_t twinOps = 48;
    unsigned twinCabinets = 3;
    std::size_t twinSeeds = 3;
    bool campaign = true;
    bool twin = true;
    bool killDrill = false;
    double killAfter = 0.15;
    std::string jsonPath;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const auto need = [&](const char *flag) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--seeds"))
            a.drill.seeds =
                static_cast<std::size_t>(std::atoll(need("--seeds")));
        else if (!std::strcmp(argv[i], "--first-seed"))
            a.drill.firstChaosSeed = static_cast<std::uint64_t>(
                std::strtoull(need("--first-seed"), nullptr, 10));
        else if (!std::strcmp(argv[i], "--budget"))
            a.drill.chaos = service::ChaosPlan::storm(
                static_cast<std::uint64_t>(std::atoll(need("--budget"))));
        else if (!std::strcmp(argv[i], "--runs"))
            a.drill.spec.runs =
                static_cast<std::size_t>(std::atoll(need("--runs")));
        else if (!std::strcmp(argv[i], "--days"))
            a.drill.spec.days = std::atof(need("--days"));
        else if (!std::strcmp(argv[i], "--rate"))
            a.drill.spec.faultRatePerHour = std::atof(need("--rate"));
        else if (!std::strcmp(argv[i], "--workers"))
            a.drill.workers =
                static_cast<unsigned>(std::atoi(need("--workers")));
        else if (!std::strcmp(argv[i], "--chunk"))
            a.drill.chunkRuns =
                static_cast<std::size_t>(std::atoll(need("--chunk")));
        else if (!std::strcmp(argv[i], "--respawns"))
            a.drill.maxRespawns =
                static_cast<std::size_t>(std::atoll(need("--respawns")));
        else if (!std::strcmp(argv[i], "--reconnects"))
            a.drill.workerReconnects = static_cast<std::size_t>(
                std::atoll(need("--reconnects")));
        else if (!std::strcmp(argv[i], "--twin-ops"))
            a.twinOps =
                static_cast<std::size_t>(std::atoll(need("--twin-ops")));
        else if (!std::strcmp(argv[i], "--twin-cabinets"))
            a.twinCabinets =
                static_cast<unsigned>(std::atoi(need("--twin-cabinets")));
        else if (!std::strcmp(argv[i], "--twin-seeds"))
            a.twinSeeds =
                static_cast<std::size_t>(std::atoll(need("--twin-seeds")));
        else if (!std::strcmp(argv[i], "--no-twin"))
            a.twin = false;
        else if (!std::strcmp(argv[i], "--no-campaign"))
            a.campaign = false;
        else if (!std::strcmp(argv[i], "--kill-drill"))
            a.killDrill = true;
        else if (!std::strcmp(argv[i], "--kill-after"))
            a.killAfter = std::atof(need("--kill-after"));
        else if (!std::strcmp(argv[i], "--json"))
            a.jsonPath = need("--json");
        else {
            std::fprintf(stderr, "unknown flag %s\n", argv[i]);
            std::exit(2);
        }
    }
    return a;
}

double
wallSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** A small live plant for the twin drill (cheap what-if forks). */
core::ExperimentConfig
twinConfig(unsigned cabinets)
{
    core::ExperimentConfig cfg = core::seismicExperiment();
    cfg.system.cabinetCount = cabinets;
    cfg.duration = units::hours(2.0);
    return cfg;
}

/** One twin chaos replay; returns pass/fail and fills accounting. */
bool
runTwinDrill(const Args &args, std::uint64_t chaosSeed,
             std::uint64_t &resends, std::uint64_t &reconnects)
{
    harness::TwinTrafficOptions topts;
    topts.count = args.twinOps;
    topts.cabinetCount = args.twinCabinets;
    const auto ops = harness::makeTwinTraffic(kDefaultSeed, topts);

    service::TwinServer oracle(twinConfig(args.twinCabinets));
    service::TwinServer server(twinConfig(args.twinCabinets));
    oracle.advance(units::hours(1.0));
    server.advance(units::hours(1.0));

    const auto serial = harness::replayTwinSerial(oracle, ops);

    dispatch::TwinChaosOptions copts;
    copts.chaosSeed = chaosSeed;
    const dispatch::TwinChaosReport rep =
        dispatch::replayTwinChaos(server, ops, copts);
    resends += rep.resends;
    reconnects += rep.reconnects;

    if (!rep.completed) {
        std::fprintf(stderr,
                     "twin drill seed %llu: replay did not complete\n",
                     static_cast<unsigned long long>(chaosSeed));
        return false;
    }
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (rep.replies[i] != serial[i]) {
            std::fprintf(stderr,
                         "twin drill seed %llu: reply %zu diverged "
                         "from the serial oracle\n",
                         static_cast<unsigned long long>(chaosSeed), i);
            return false;
        }
    }
    return true;
}

/** SIGKILL/respawn drill on a process fleet. 0=pass 1=fail 2=skip. */
int
runKillDrill(const Args &args)
{
    dispatch::FleetOptions fleet;
    fleet.mode = dispatch::FleetMode::Process;
    fleet.workers = 2;
    fleet.czar.chunkRuns = args.drill.chunkRuns;
    fleet.czar.workerTimeoutSeconds = 10.0;
    fleet.czar.allDeadGraceSeconds = 10.0;
    fleet.worker.heartbeatSeconds = 0.05;
    fleet.maxRespawns = 2;
    fleet.killOneAfterSeconds = args.killAfter;

    // The drill-default 8-run campaign finishes in ~0.1 s on a process
    // fleet — faster than any plausible kill timer. Stretch the sweep
    // so the SIGKILL reliably lands mid-campaign; byte-identity is
    // checked against the oracle of the same stretched spec.
    dispatch::SweepSpec spec = args.drill.spec;
    spec.runs = std::max<std::size_t>(spec.runs, 96);
    spec.days = std::max(spec.days, 0.1);
    try {
        const dispatch::DistributedRunReport run =
            dispatch::runDistributedSweepReport(spec, fleet);
        std::ostringstream got, want;
        fault::writeCampaignJson(run.summary, got);
        fault::writeCampaignJson(
            fault::runFaultCampaign(dispatch::toCampaignConfig(spec)),
            want);
        if (got.str() != want.str()) {
            std::fprintf(stderr,
                         "kill drill: summary diverged from oracle\n");
            return 1;
        }
        if (run.supervisor.respawned == 0) {
            std::fprintf(stderr,
                         "kill drill: no respawn observed after "
                         "SIGKILL\n");
            return 1;
        }
        std::printf("kill drill: worker SIGKILLed, %llu respawned, "
                    "campaign byte-identical to oracle\n",
                    static_cast<unsigned long long>(
                        run.supervisor.respawned));
        return 0;
    } catch (const std::exception &e) {
        // Sandboxes without loopback sockets cannot host a process
        // fleet at all; that is an environment limit, not a failure.
        std::fprintf(stderr, "kill drill skipped: %s\n", e.what());
        return 2;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    if (args.killDrill) {
        const int rc = runKillDrill(args);
        return rc == 1 ? 1 : 0;
    }

    bool ok = true;
    dispatch::CampaignDrillReport campaign;
    double campaignWall = 0.0;
    if (args.campaign) {
        std::printf("campaign drill: %zu seeds, %u workers, "
                    "%zu runs/seed, chaos budget %llu/connection\n",
                    args.drill.seeds, args.drill.workers,
                    args.drill.spec.runs,
                    static_cast<unsigned long long>(
                        args.drill.chaos.maxEvents));
        const auto t0 = std::chrono::steady_clock::now();
        campaign = dispatch::runCampaignChaosDrill(args.drill);
        campaignWall = wallSince(t0);
        for (const auto &o : campaign.outcomes)
            std::printf(
                "  seed %llu: %s%s  lost=%llu requeued=%llu "
                "respawns=%llu crc=%llu resyncs=%llu chaos=%llu%s%s\n",
                static_cast<unsigned long long>(o.chaosSeed),
                o.completed ? "completed" : "ABORTED",
                o.identical ? " identical" : (o.completed
                                                  ? " DIVERGED"
                                                  : ""),
                static_cast<unsigned long long>(o.czar.workersLost),
                static_cast<unsigned long long>(o.czar.requeuedRuns),
                static_cast<unsigned long long>(o.supervisor.respawned),
                static_cast<unsigned long long>(o.czar.crcErrors),
                static_cast<unsigned long long>(o.czar.resyncs),
                static_cast<unsigned long long>(
                    o.supervisor.chaos.events()),
                o.error.empty() ? "" : "  error: ",
                o.error.c_str());
        std::printf("campaign drill: %zu/%zu completed, %zu identical "
                    "(%.1f s wall) -> %s\n",
                    campaign.completedSeeds(), campaign.outcomes.size(),
                    campaign.identicalSeeds(), campaignWall,
                    campaign.passed() ? "PASS" : "FAIL");
        ok = ok && campaign.passed();
    }

    std::uint64_t twinResends = 0, twinReconnects = 0;
    std::size_t twinPassed = 0;
    double twinWall = 0.0;
    if (args.twin) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t s = 0; s < args.twinSeeds; ++s) {
            if (runTwinDrill(args, args.drill.firstChaosSeed + s,
                             twinResends, twinReconnects))
                ++twinPassed;
        }
        twinWall = wallSince(t0);
        std::printf("twin drill: %zu/%zu seeds byte-identical "
                    "(%llu resends, %llu reconnects, %.1f s wall) -> "
                    "%s\n",
                    twinPassed, args.twinSeeds,
                    static_cast<unsigned long long>(twinResends),
                    static_cast<unsigned long long>(twinReconnects),
                    twinWall, twinPassed == args.twinSeeds ? "PASS"
                                                          : "FAIL");
        ok = ok && twinPassed == args.twinSeeds;
    }

    if (!args.jsonPath.empty()) {
        std::ofstream out(args.jsonPath);
        out << "{\n";
        out << " \"campaign\": ";
        if (args.campaign) {
            std::ostringstream os;
            dispatch::writeCampaignDrillJson(campaign, os);
            // Re-indent the nested object one space to sit inside.
            out << os.str();
        } else {
            out << "null\n";
        }
        char buf[512];
        std::snprintf(buf, sizeof buf,
                      " ,\"twin\": {\n"
                      "  \"seeds\": %zu,\n"
                      "  \"passed\": %zu,\n"
                      "  \"ops_per_seed\": %zu,\n"
                      "  \"resends\": %llu,\n"
                      "  \"reconnects\": %llu\n"
                      " },\n"
                      " \"campaign_wall_s\": %.2f,\n"
                      " \"twin_wall_s\": %.2f\n"
                      "}\n",
                      args.twinSeeds, twinPassed, args.twinOps,
                      static_cast<unsigned long long>(twinResends),
                      static_cast<unsigned long long>(twinReconnects),
                      campaignWall, twinWall);
        out << buf;
        std::printf("json written to %s\n", args.jsonPath.c_str());
    }
    return ok ? 0 : 1;
}
