/**
 * @file
 * Digital-twin service throughput bench: N concurrent clients issue a
 * mixed register-read / what-if traffic log against a live 1k-unit
 * plant (500 cabinets x 2 units) over the framed loopback transport.
 * Reports queries/sec (serial oracle vs concurrent clients) and the
 * what-if cache hit rate; `--json` writes the machine-readable block
 * that lives under "twin_service" in BENCH_simspeed.json (a sibling of
 * the google-benchmark "benchmarks" section, ignored by the perf
 * gate's baseline parser).
 *
 *   bench_twin_service [--clients 4] [--ops 400] [--cabinets 500]
 *                      [--whatif-fraction 0.25] [--horizon-hours 0.25]
 *                      [--json out.json]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>

#include "bench_util.hh"
#include "drills/twin_driver.hh"
#include "service/twin_server.hh"
#include "sim/table.hh"

using namespace insure;

namespace {

double
wallSeconds(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

struct Args {
    unsigned clients = 4;
    std::size_t ops = 400;
    unsigned cabinets = 500;
    double whatIfFraction = 0.25;
    double horizonHours = 0.25;
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
        if (!std::strcmp(argv[i], "--clients"))
            a.clients = static_cast<unsigned>(std::atoi(need("--clients")));
        else if (!std::strcmp(argv[i], "--ops"))
            a.ops = static_cast<std::size_t>(std::atoll(need("--ops")));
        else if (!std::strcmp(argv[i], "--cabinets"))
            a.cabinets =
                static_cast<unsigned>(std::atoi(need("--cabinets")));
        else if (!std::strcmp(argv[i], "--whatif-fraction"))
            a.whatIfFraction = std::atof(need("--whatif-fraction"));
        else if (!std::strcmp(argv[i], "--horizon-hours"))
            a.horizonHours = std::atof(need("--horizon-hours"));
        else if (!std::strcmp(argv[i], "--json"))
            a.jsonPath = need("--json");
        else {
            std::fprintf(stderr, "unknown flag %s\n", argv[i]);
            std::exit(2);
        }
    }
    return a;
}

/** The 1k-unit serving config: the seismic station scaled out. */
core::ExperimentConfig
plantConfig(unsigned cabinets)
{
    core::ExperimentConfig cfg = core::seismicExperiment();
    const double scale =
        static_cast<double>(cabinets) /
        static_cast<double>(cfg.system.cabinetCount);
    cfg.system.cabinetCount = cabinets;
    cfg.system.seriesCount = 2;
    if (cfg.targetDailyKwh)
        cfg.targetDailyKwh = *cfg.targetDailyKwh * scale;
    cfg.duration = units::hours(12.0);
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    bench::header("twin-service",
                  "Digital-twin service throughput: concurrent framed "
                  "clients vs a single-threaded oracle on a live plant");

    const unsigned units = args.cabinets * 2;
    std::printf("plant: %u cabinets (%u units), %u clients, %zu ops, "
                "%.0f%% what-if, %.2f h horizon\n\n",
                args.cabinets, units, args.clients, args.ops,
                100.0 * args.whatIfFraction, args.horizonHours);

    harness::TwinTrafficOptions topts;
    topts.count = args.ops;
    topts.cabinetCount = args.cabinets;
    topts.whatIfFraction = args.whatIfFraction;
    topts.horizonHours = args.horizonHours;
    const auto ops = harness::makeTwinTraffic(kDefaultSeed, topts);

    // Live plants advanced into mid-morning so registers carry real
    // telemetry and what-if forks land in the active part of the day.
    service::TwinServer oracle(plantConfig(args.cabinets));
    service::TwinServer server(plantConfig(args.cabinets));
    const double advanceWall = wallSeconds([&] {
        oracle.advance(units::hours(8.0));
        server.advance(units::hours(8.0));
    });

    std::vector<std::vector<std::uint8_t>> serial, concurrent;
    const double serialWall =
        wallSeconds([&] { serial = harness::replayTwinSerial(oracle, ops); });
    const double concWall = wallSeconds([&] {
        concurrent = harness::replayTwinConcurrent(server, ops, args.clients);
    });

    bool identical = serial.size() == concurrent.size();
    for (std::size_t i = 0; identical && i < serial.size(); ++i)
        identical = serial[i] == concurrent[i];
    if (!identical) {
        std::fprintf(stderr,
                     "FATAL: concurrent replies diverged from the serial "
                     "oracle\n");
        return 1;
    }

    const service::TwinServerStats s = server.stats();
    const double hitRate =
        s.whatIfQueries > 0
            ? static_cast<double>(s.cacheHits) /
                  static_cast<double>(s.whatIfQueries)
            : 0.0;
    const double serialQps = static_cast<double>(args.ops) / serialWall;
    const double concQps = static_cast<double>(args.ops) / concWall;

    sim::TextTable t({"replay", "wall s", "queries/s"});
    t.addRow({"serial oracle", sim::TextTable::num(serialWall, 3),
              sim::TextTable::num(serialQps, 1)});
    t.addRow({std::to_string(args.clients) + " clients",
              sim::TextTable::num(concWall, 3),
              sim::TextTable::num(concQps, 1)});
    std::fputs(t.render("replay throughput").c_str(), stdout);
    std::printf("\nlive advance to 8 h: %.2f s wall (both plants)\n",
                advanceWall);
    std::printf("what-if: %llu queries, %llu hits, %llu misses "
                "(hit rate %.1f%%), %llu snapshots\n",
                static_cast<unsigned long long>(s.whatIfQueries),
                static_cast<unsigned long long>(s.cacheHits),
                static_cast<unsigned long long>(s.cacheMisses),
                100.0 * hitRate,
                static_cast<unsigned long long>(s.snapshotsTaken));
    std::printf("replies byte-identical to the serial oracle: yes\n");

    if (!args.jsonPath.empty()) {
        std::ofstream out(args.jsonPath);
        char buf[512];
        std::snprintf(buf, sizeof buf,
                      "{\n"
                      " \"units\": %u,\n"
                      " \"clients\": %u,\n"
                      " \"ops\": %zu,\n"
                      " \"whatif_fraction\": %.3f,\n"
                      " \"serial_qps\": %.1f,\n"
                      " \"concurrent_qps\": %.1f,\n"
                      " \"cache_hit_rate\": %.4f,\n"
                      " \"whatif_queries\": %llu,\n"
                      " \"cache_hits\": %llu\n"
                      "}\n",
                      units, args.clients, args.ops, args.whatIfFraction,
                      serialQps, concQps, hitRate,
                      static_cast<unsigned long long>(s.whatIfQueries),
                      static_cast<unsigned long long>(s.cacheHits));
        out << buf;
        std::printf("json written to %s\n", args.jsonPath.c_str());
    }
    return 0;
}
