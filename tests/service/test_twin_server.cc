/**
 * @file
 * Tests for the TwinServer query engine: live register reads through
 * the framed transport, the Modbus error paths (exception frames with
 * correct CRC all the way through the framing layer), what-if caching
 * semantics and stale-fingerprint behaviour.
 */

#include <gtest/gtest.h>

#include <thread>

#include "core/experiment.hh"
#include "drills/twin_driver.hh"
#include "service/twin_client.hh"
#include "service/twin_server.hh"
#include "sim/units.hh"
#include "snapshot/archive.hh"
#include "telemetry/register_map.hh"
#include "validate/golden_trace.hh"

namespace insure::service {
namespace {

namespace mb = telemetry::modbus;

core::ExperimentConfig
smallConfig()
{
    core::ExperimentConfig cfg = core::seismicExperiment();
    cfg.duration = units::hours(6.0);
    return cfg;
}

/** A server advanced into mid-morning so registers hold live values. */
class TwinServerTest : public ::testing::Test
{
  protected:
    TwinServerTest() : server_(smallConfig())
    {
        server_.advance(units::hours(2.0));
    }

    TwinServer server_;
};

TEST_F(TwinServerTest, ReadsMatchDirectRegisterAccess)
{
    const telemetry::RegisterLayout layout;
    const telemetry::RegisterMap &map = server_.rig().plant().registers();
    const unsigned cabinets =
        server_.config().system.cabinetCount;

    // Array block plus every cabinet block, via the framed service.
    auto [clientEnd, serverEnd] = makeLoopbackPair();
    std::thread serving(
        [this, &serverEnd] { server_.serveStream(*serverEnd); });
    TwinClient client(*clientEnd);

    const auto arrayRegs = client.readRegisters(0, 4);
    ASSERT_EQ(arrayRegs.size(), 4u);
    for (std::uint16_t i = 0; i < 4; ++i)
        EXPECT_EQ(arrayRegs[i], map.read(i)) << "array reg " << i;
    EXPECT_EQ(arrayRegs[layout.cabinetCount], cabinets);

    for (unsigned c = 0; c < cabinets; ++c) {
        const std::uint16_t base = static_cast<std::uint16_t>(
            layout.cabinetBase + c * layout.perCabinet);
        const auto regs = client.readRegisters(base, layout.perCabinet);
        ASSERT_EQ(regs.size(), layout.perCabinet);
        for (std::uint16_t i = 0; i < layout.perCabinet; ++i)
            EXPECT_EQ(regs[i], map.read(base + i))
                << "cabinet " << c << " off " << i;
    }

    clientEnd->close();
    serving.join();
    EXPECT_GE(server_.stats().modbusFrames, 1u + cabinets);
}

TEST_F(TwinServerTest, IllegalAddressExceptionThroughFraming)
{
    // Read past the register file: the exception response must come
    // back through the framing layer with a correct inner Modbus CRC.
    FrameDecoder dec;
    dec.feed(server_.handleFrame(
        {FrameType::ModbusAdu, mb::encodeReadRequest(1, 0xFFF0, 100)}));
    const auto frame = dec.next();
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, FrameType::ModbusAdu);
    // The inner ADU carries its own RTU CRC — verify it explicitly.
    EXPECT_TRUE(mb::checkCrc(frame->payload));
    const auto resp = mb::decodeResponse(frame->payload);
    ASSERT_TRUE(resp.has_value());
    ASSERT_TRUE(resp->isException());
    EXPECT_EQ(*resp->exception, telemetry::ModbusException::IllegalDataAddress);
    EXPECT_EQ(resp->function & 0x7F, 0x03);
}

TEST_F(TwinServerTest, IllegalFunctionExceptionThroughFraming)
{
    // Function 0x05 (write single coil) is not in the slave's grammar.
    std::vector<std::uint8_t> adu = {0x01, 0x05, 0x00, 0x00, 0xFF, 0x00};
    mb::appendCrc(adu);
    FrameDecoder dec;
    dec.feed(server_.handleFrame({FrameType::ModbusAdu, adu}));
    const auto frame = dec.next();
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, FrameType::ModbusAdu);
    EXPECT_TRUE(mb::checkCrc(frame->payload));
    const auto resp = mb::decodeResponse(frame->payload);
    ASSERT_TRUE(resp.has_value());
    ASSERT_TRUE(resp->isException());
    EXPECT_EQ(*resp->exception, telemetry::ModbusException::IllegalFunction);
    EXPECT_EQ(resp->function, 0x85);
}

TEST_F(TwinServerTest, BadInnerCrcYieldsExplicitError)
{
    auto adu = mb::encodeReadRequest(1, 0, 4);
    adu.back() ^= 0xFF;
    FrameDecoder dec;
    dec.feed(server_.handleFrame({FrameType::ModbusAdu, adu}));
    const auto frame = dec.next();
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, FrameType::Error);
    const ServiceError err = ServiceError::decode(frame->payload);
    EXPECT_EQ(err.code, ServiceErrorCode::NoModbusResponse);
    EXPECT_GE(server_.stats().errorFrames, 1u);
}

TEST_F(TwinServerTest, ForeignUnitIdYieldsExplicitError)
{
    FrameDecoder dec;
    dec.feed(server_.handleFrame(
        {FrameType::ModbusAdu, mb::encodeReadRequest(7, 0, 4)}));
    const auto frame = dec.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, FrameType::Error);
    EXPECT_EQ(ServiceError::decode(frame->payload).code,
              ServiceErrorCode::NoModbusResponse);
}

TEST_F(TwinServerTest, UnknownFrameTypeYieldsError)
{
    FrameDecoder dec;
    dec.feed(server_.handleFrame({FrameType::WhatIfReply, {}}));
    const auto frame = dec.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, FrameType::Error);
    EXPECT_EQ(ServiceError::decode(frame->payload).code,
              ServiceErrorCode::UnknownFrameType);
}

TEST_F(TwinServerTest, MalformedQueryYieldsError)
{
    FrameDecoder dec;
    dec.feed(server_.handleFrame(
        {FrameType::WhatIfQuery, {0x01, 0x02, 0x03}}));
    const auto frame = dec.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, FrameType::Error);
    EXPECT_EQ(ServiceError::decode(frame->payload).code,
              ServiceErrorCode::MalformedQuery);
}

TEST_F(TwinServerTest, NonPositiveHorizonRejected)
{
    WhatIfQuery q;
    q.horizonHours = -1.0;
    // encode() itself is happy; the server-side decode must reject.
    auto bytes = q.encode();
    FrameDecoder dec;
    dec.feed(server_.handleFrame({FrameType::WhatIfQuery, bytes}));
    const auto frame = dec.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, FrameType::Error);
    EXPECT_EQ(ServiceError::decode(frame->payload).code,
              ServiceErrorCode::MalformedQuery);
}

TEST_F(TwinServerTest, WhatIfRepliesAreCachedUntilStateChanges)
{
    WhatIfQuery q;
    q.horizonHours = 0.5;
    const Frame req{FrameType::WhatIfQuery, q.encode()};

    const auto first = server_.handleFrame(req);
    const auto second = server_.handleFrame(req);
    EXPECT_EQ(first, second);
    TwinServerStats s = server_.stats();
    EXPECT_EQ(s.whatIfQueries, 2u);
    EXPECT_EQ(s.cacheMisses, 1u);
    EXPECT_EQ(s.cacheHits, 1u);
    EXPECT_EQ(s.snapshotsTaken, 1u);

    // Advancing the live sim changes the fingerprint: the cached reply
    // is unreachable and a fresh fork runs.
    const std::uint64_t fpBefore = server_.snapshotFingerprint();
    server_.advance(units::hours(2.5));
    EXPECT_NE(server_.snapshotFingerprint(), fpBefore);
    const auto third = server_.handleFrame(req);
    s = server_.stats();
    EXPECT_EQ(s.cacheMisses, 2u);
    EXPECT_NE(third, first) << "stale cached reply served after advance";
}

TEST_F(TwinServerTest, RegisterWriteInvalidatesSnapshot)
{
    const std::uint64_t fpBefore = server_.snapshotFingerprint();

    // A write through the service mutates the live register file...
    const telemetry::RegisterLayout layout;
    const std::uint16_t spare = static_cast<std::uint16_t>(
        layout.cabinetBase + layout.perCabinet - 1); // unused offset 7
    const std::uint16_t old =
        server_.rig().plant().registers().read(spare);
    FrameDecoder dec;
    dec.feed(server_.handleFrame(
        {FrameType::ModbusAdu,
         mb::encodeWriteSingleRequest(
             1, spare, static_cast<std::uint16_t>(old ^ 0x1234))}));
    const auto frame = dec.next();
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, FrameType::ModbusAdu);
    const auto resp = mb::decodeResponse(frame->payload);
    ASSERT_TRUE(resp.has_value());
    ASSERT_FALSE(resp->isException());

    // ...so the fingerprint must change (stale what-ifs unreachable).
    EXPECT_NE(server_.snapshotFingerprint(), fpBefore);

    // A pure read must NOT change it.
    const std::uint64_t fpAfter = server_.snapshotFingerprint();
    (void)server_.handleFrame(
        {FrameType::ModbusAdu, mb::encodeReadRequest(1, 0, 4)});
    EXPECT_EQ(server_.snapshotFingerprint(), fpAfter);
}

TEST(TwinServerOverrides, OverridesChangeTheOutcome)
{
    // Fork from mid-morning: the pre-dawn hours are idle (no load, no
    // discharge), so only a daylight window lets policy knobs bite.
    core::ExperimentConfig cfg = core::seismicExperiment();
    cfg.duration = units::hours(12.0);
    TwinServer server(cfg);
    server.advance(units::hours(8.0));

    WhatIfQuery base;
    base.horizonHours = 3.5;
    WhatIfQuery strict = base;
    strict.socFloor = 0.95; // absurd floor: starves discharge allowance

    auto [clientEnd, serverEnd] = makeLoopbackPair();
    std::thread serving(
        [&server, &serverEnd] { server.serveStream(*serverEnd); });
    TwinClient client(*clientEnd);
    const WhatIfReply a = client.whatIf(base);
    const WhatIfReply b = client.whatIf(strict);
    clientEnd->close();
    serving.join();

    EXPECT_EQ(a.fromSeconds, units::hours(8.0));
    EXPECT_NEAR(a.simulatedHours, 3.5, 1e-9);
    EXPECT_FALSE(a == b) << "policy override had no effect on the fork";
    // The strict SoC floor forbids discharge the base policy allows.
    EXPECT_LT(b.bufferThroughputAh, a.bufferThroughputAh);
    EXPECT_LT(b.processedGb, a.processedGb);
}

TEST_F(TwinServerTest, HorizonClampedToConfiguredDuration)
{
    WhatIfQuery q;
    q.horizonHours = 1e6;
    const auto reply = WhatIfReply::decode([this, &q] {
        FrameDecoder dec;
        dec.feed(server_.handleFrame({FrameType::WhatIfQuery, q.encode()}));
        auto f = dec.next();
        EXPECT_TRUE(f.has_value() && f->type == FrameType::WhatIfReply);
        return f->payload;
    }());
    EXPECT_NEAR(reply.simulatedHours, 4.0, 1e-9); // 6h duration - 2h now
}

TEST_F(TwinServerTest, WhatIfDoesNotPerturbTheLiveRun)
{
    // Live outcome with a what-if served mid-run must equal a plain
    // run of the identical config (the fork is perfectly isolated).
    WhatIfQuery q;
    q.horizonHours = 1.0;
    q.socFloor = 0.50;
    (void)server_.handleFrame({FrameType::WhatIfQuery, q.encode()});
    server_.advance(units::hours(6.0));
    const core::ExperimentResult served = server_.finishLive();

    const core::ExperimentResult plain = core::runExperiment(smallConfig());
    EXPECT_DOUBLE_EQ(served.metrics.processedGb, plain.metrics.processedGb);
    EXPECT_DOUBLE_EQ(served.metrics.loadKwh, plain.metrics.loadKwh);
    EXPECT_EQ(served.metrics.onOffCycles, plain.metrics.onOffCycles);
}

TEST(TwinServer, RawObserverPointerRejected)
{
    core::ExperimentConfig cfg = smallConfig();
    validate::GoldenRecorder rec(300.0);
    cfg.observer = &rec;
    EXPECT_THROW(TwinServer{cfg}, snapshot::SnapshotError);
}

TEST(TwinTraffic, DeterministicForSeed)
{
    harness::TwinTrafficOptions opts;
    opts.count = 64;
    const auto a = harness::makeTwinTraffic(7, opts);
    const auto b = harness::makeTwinTraffic(7, opts);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].toFrame(1).payload, b[i].toFrame(1).payload);
    }
    const auto c = harness::makeTwinTraffic(8, opts);
    bool anyDiff = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        anyDiff |= !(a[i].toFrame(1).payload == c[i].toFrame(1).payload);
    EXPECT_TRUE(anyDiff);
}

} // namespace
} // namespace insure::service
