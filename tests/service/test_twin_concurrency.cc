/**
 * @file
 * Concurrency battery for the digital-twin service (runs under TSan
 * via the "service-sanitize-tsan" label).
 *
 * The load-bearing property: with the live clock standing still, every
 * reply is a pure function of (rig state, request bytes) — so a
 * concurrent replay of a scripted traffic log from N client threads
 * must produce responses BYTE-IDENTICAL to a single-threaded oracle
 * replay of the same log, and the cache must never serve a result
 * computed against a different fingerprint.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/experiment.hh"
#include "drills/twin_driver.hh"
#include "service/twin_client.hh"
#include "service/twin_server.hh"
#include "sim/units.hh"

namespace insure::service {
namespace {

core::ExperimentConfig
smallConfig()
{
    core::ExperimentConfig cfg = core::seismicExperiment();
    cfg.duration = units::hours(6.0);
    return cfg;
}

harness::TwinTrafficOptions
trafficOptions()
{
    harness::TwinTrafficOptions opts;
    opts.count = 160;
    opts.cabinetCount = 3;
    opts.whatIfFraction = 0.2;
    opts.queryPoolSize = 4;
    opts.horizonHours = 0.25;
    return opts;
}

TEST(TwinConcurrency, FourClientsByteIdenticalToSerialOracle)
{
    const auto ops = harness::makeTwinTraffic(kDefaultSeed, trafficOptions());

    // Oracle: its own server instance, single-threaded, same state.
    TwinServer oracle(smallConfig());
    oracle.advance(units::hours(2.0));
    const auto expected = harness::replayTwinSerial(oracle, ops);

    TwinServer server(smallConfig());
    server.advance(units::hours(2.0));
    ASSERT_EQ(server.snapshotFingerprint(), oracle.snapshotFingerprint());
    const auto actual = harness::replayTwinConcurrent(server, ops, 4);

    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(actual[i], expected[i])
            << "reply " << i << " diverged from the serial oracle";

    // The shared query pool guarantees repeats: the cache must have
    // worked under contention, and every query got exactly one reply.
    const TwinServerStats s = server.stats();
    EXPECT_GT(s.cacheHits, 0u);
    EXPECT_EQ(s.cacheHits + s.cacheMisses, s.whatIfQueries);
    EXPECT_EQ(s.modbusFrames + s.whatIfQueries, ops.size());
    EXPECT_EQ(s.errorFrames, 0u);
}

TEST(TwinConcurrency, EightClientsStressOnLargerLog)
{
    auto opts = trafficOptions();
    opts.count = 400;
    const auto ops = harness::makeTwinTraffic(kDefaultSeed + 3, opts);

    TwinServer oracle(smallConfig());
    oracle.advance(units::hours(1.5));
    const auto expected = harness::replayTwinSerial(oracle, ops);

    TwinServer server(smallConfig());
    server.advance(units::hours(1.5));
    const auto actual = harness::replayTwinConcurrent(server, ops, 8);

    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(actual[i], expected[i]) << "reply " << i;
}

TEST(TwinConcurrency, CacheNeverServesStaleFingerprint)
{
    // Interleave live advances with concurrent what-if bursts. Every
    // reply must carry fromSeconds equal to the live time its burst ran
    // at — a cached result from an earlier epoch would carry the OLD
    // fromSeconds and fail the check.
    TwinServer server(smallConfig());
    WhatIfQuery q;
    q.horizonHours = 0.25;

    for (const double hour : {1.0, 2.0, 3.0}) {
        server.advance(units::hours(hour));
        constexpr unsigned kThreads = 4;
        std::vector<std::thread> threads;
        std::atomic<unsigned> bad{0};
        for (unsigned t = 0; t < kThreads; ++t) {
            threads.emplace_back([&server, &q, &bad, hour] {
                auto [clientEnd, serverEnd] = makeLoopbackPair();
                std::thread serving([&server, &serverEnd] {
                    server.serveStream(*serverEnd);
                });
                TwinClient client(*clientEnd);
                for (int i = 0; i < 4; ++i) {
                    const WhatIfReply r = client.whatIf(q);
                    if (r.fromSeconds != units::hours(hour))
                        ++bad;
                }
                clientEnd->close();
                serving.join();
            });
        }
        for (auto &t : threads)
            t.join();
        EXPECT_EQ(bad.load(), 0u) << "stale reply at hour " << hour;
    }

    // 3 epochs x 1 distinct query: at least one miss per epoch (two
    // threads racing the same cold key may both miss — the double fill
    // writes identical bytes, so it is benign), everything else hits.
    const TwinServerStats s = server.stats();
    EXPECT_EQ(s.whatIfQueries, 3u * 4u * 4u);
    EXPECT_GE(s.cacheMisses, 3u);
    EXPECT_GT(s.cacheHits, 0u);
    EXPECT_EQ(s.cacheHits + s.cacheMisses, s.whatIfQueries);
}

TEST(TwinConcurrency, MixedTrafficDuringLiveAdvances)
{
    // Clients hammer reads and what-ifs WHILE the tick loop advances:
    // no race (TSan), no torn reply, every reply well-formed and from
    // a tick-boundary state.
    TwinServer server(smallConfig());
    server.advance(units::hours(0.5));

    std::atomic<bool> stop{false};
    constexpr unsigned kClients = 4;
    std::vector<std::thread> clients;
    std::atomic<std::uint64_t> replies{0};
    for (unsigned t = 0; t < kClients; ++t) {
        clients.emplace_back([&server, &stop, &replies, t] {
            auto [clientEnd, serverEnd] = makeLoopbackPair();
            std::thread serving([&server, &serverEnd] {
                server.serveStream(*serverEnd);
            });
            TwinClient client(*clientEnd);
            WhatIfQuery q;
            q.horizonHours = 0.1;
            q.socFloor = 0.30 + 0.01 * static_cast<double>(t);
            while (!stop.load(std::memory_order_relaxed)) {
                const auto regs = client.readRegisters(0, 4);
                ASSERT_EQ(regs.size(), 4u);
                const WhatIfReply r = client.whatIf(q);
                ASSERT_GE(r.fromSeconds, units::hours(0.5));
                ++replies;
            }
            clientEnd->close();
            serving.join();
        });
    }

    // The live tick loop: quarter-hour chunks up to hour 3. The
    // advances can outrun the clients, so insist on a minimum amount
    // of traffic before ending the test.
    for (double h = 0.75; h <= 3.0; h += 0.25)
        server.advance(units::hours(h));
    while (replies.load() < 2 * kClients)
        std::this_thread::yield();
    stop.store(true);
    for (auto &t : clients)
        t.join();

    EXPECT_GE(replies.load(), 2u * kClients);
    EXPECT_EQ(server.stats().errorFrames, 0u);
}

} // namespace
} // namespace insure::service
