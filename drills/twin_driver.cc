#include "drills/twin_driver.hh"

#include <thread>

#include "service/twin_client.hh"
#include "sim/rng.hh"
#include "telemetry/register_map.hh"

namespace insure::harness {

namespace {

/**
 * A small pool of distinct what-if variants. Scripted traffic draws
 * queries from the pool, so the same query recurs many times against
 * an unchanged twin — the recurrence the result cache exists for.
 */
std::vector<service::WhatIfQuery>
makeQueryPool(const TwinTrafficOptions &opts)
{
    std::vector<service::WhatIfQuery> pool;
    pool.reserve(opts.queryPoolSize);
    for (std::size_t i = 0; i < opts.queryPoolSize; ++i) {
        service::WhatIfQuery q;
        q.horizonHours = opts.horizonHours;
        switch (i % 4) {
        case 0:
            // Baseline policy, no overrides.
            break;
        case 1:
            q.socFloor = 0.22 + 0.02 * static_cast<double>(i);
            break;
        case 2:
            q.dischargeBudgetAh = 8400.0 * (0.70 + 0.05 * static_cast<double>(i));
            break;
        case 3:
            q.chargedSoc = 0.85 + 0.01 * static_cast<double>(i % 10);
            q.minEligible = 1 + static_cast<unsigned>(i % 3);
            break;
        }
        pool.push_back(q);
    }
    return pool;
}

/** Issue @p ops through a client connection, filling @p out[indices]. */
void
runClient(service::ByteStream &stream, const std::vector<TwinOp> &ops,
          std::size_t first, std::size_t stride,
          std::vector<std::vector<std::uint8_t>> &out)
{
    service::TwinClient client(stream);
    for (std::size_t i = first; i < ops.size(); i += stride) {
        const service::Frame req = ops[i].toFrame(1);
        // exchange() throws on Error frames; scripted traffic is all
        // well-formed, so any error here is a real test failure and
        // should propagate (the suite fails loudly).
        const service::Frame reply = client.exchange(req.type, req.payload);
        // Re-encoding is canonical, so these bytes are exactly the
        // frame the server put on the wire.
        out[i] = service::encodeFrame(reply.type, reply.payload);
    }
}

} // namespace

service::Frame
TwinOp::toFrame(std::uint8_t unitId) const
{
    service::Frame f;
    if (kind == Kind::Read) {
        f.type = service::FrameType::ModbusAdu;
        f.payload =
            telemetry::modbus::encodeReadRequest(unitId, address, count);
    } else {
        f.type = service::FrameType::WhatIfQuery;
        f.payload = query.encode();
    }
    return f;
}

std::vector<TwinOp>
makeTwinTraffic(std::uint64_t seed, const TwinTrafficOptions &opts)
{
    const std::vector<service::WhatIfQuery> pool = makeQueryPool(opts);
    const telemetry::RegisterLayout layout;
    Rng rng(seed);

    std::vector<TwinOp> ops;
    ops.reserve(opts.count);
    for (std::size_t i = 0; i < opts.count; ++i) {
        TwinOp op;
        if (!pool.empty() && rng.bernoulli(opts.whatIfFraction)) {
            op.kind = TwinOp::Kind::WhatIf;
            op.query = pool[static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<int>(pool.size()) - 1))];
        } else {
            op.kind = TwinOp::Kind::Read;
            if (rng.bernoulli(0.2)) {
                // Array-level summary registers.
                op.address = 0;
                op.count = 4;
            } else {
                const unsigned cab = static_cast<unsigned>(rng.uniformInt(
                    0, static_cast<int>(opts.cabinetCount) - 1));
                const unsigned off =
                    static_cast<unsigned>(rng.uniformInt(0, 6));
                op.address = static_cast<std::uint16_t>(
                    layout.cabinetBase + layout.perCabinet * cab + off);
                op.count = static_cast<std::uint16_t>(rng.uniformInt(
                    1, static_cast<int>(layout.perCabinet - off)));
            }
        }
        ops.push_back(op);
    }
    return ops;
}

std::vector<std::vector<std::uint8_t>>
replayTwinSerial(service::TwinServer &server, const std::vector<TwinOp> &ops)
{
    std::vector<std::vector<std::uint8_t>> replies;
    replies.reserve(ops.size());
    for (const TwinOp &op : ops)
        replies.push_back(server.handleFrame(op.toFrame(1)));
    return replies;
}

std::vector<std::vector<std::uint8_t>>
replayTwinConcurrent(service::TwinServer &server,
                     const std::vector<TwinOp> &ops, unsigned clientThreads)
{
    if (clientThreads == 0)
        clientThreads = 1;
    std::vector<std::vector<std::uint8_t>> replies(ops.size());

    struct Connection {
        std::unique_ptr<service::ByteStream> clientEnd;
        std::unique_ptr<service::ByteStream> serverEnd;
    };
    std::vector<Connection> conns(clientThreads);
    std::vector<std::thread> serverThreads;
    std::vector<std::thread> clients;
    serverThreads.reserve(clientThreads);
    clients.reserve(clientThreads);

    for (unsigned k = 0; k < clientThreads; ++k) {
        auto pair = service::makeLoopbackPair();
        conns[k].clientEnd = std::move(pair.first);
        conns[k].serverEnd = std::move(pair.second);
        serverThreads.emplace_back(
            [&server, &conns, k] { server.serveStream(*conns[k].serverEnd); });
        clients.emplace_back([&conns, &ops, &replies, k, clientThreads] {
            runClient(*conns[k].clientEnd, ops, k, clientThreads, replies);
            conns[k].clientEnd->close();
        });
    }
    for (auto &t : clients)
        t.join();
    for (auto &t : serverThreads)
        t.join();
    return replies;
}

} // namespace insure::harness
