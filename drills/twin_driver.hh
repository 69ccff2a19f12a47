/**
 * @file
 * Deterministic traffic generation and replay for the digital-twin
 * service — the machinery behind the concurrency suite and the service
 * bench.
 *
 * A traffic log is a fixed, seeded vector of operations (register reads
 * and what-if queries). The same log can be replayed two ways:
 *
 *  - serially: every op through TwinServer::handleFrame on the calling
 *    thread (the oracle — trivially race-free);
 *  - concurrently: N client threads, each on its own loopback
 *    connection, issuing its round-robin share of the log while the
 *    server handles every connection on a thread of its own.
 *
 * With the live clock standing still, replies are a pure function of
 * (rig state, request bytes), so both replays must produce byte-
 * identical response vectors — the property the TSan suite asserts.
 */

#ifndef INSURE_DRILLS_TWIN_DRIVER_HH
#define INSURE_DRILLS_TWIN_DRIVER_HH

#include <cstdint>
#include <vector>

#include "service/twin_server.hh"

namespace insure::harness {

/** One scripted client operation. */
struct TwinOp {
    enum class Kind : std::uint8_t { Read, WhatIf };
    Kind kind = Kind::Read;
    /** Read: starting register address. */
    std::uint16_t address = 0;
    /** Read: register count. */
    std::uint16_t count = 1;
    /** WhatIf: the query. */
    service::WhatIfQuery query;

    /** The request frame this op puts on the wire. */
    service::Frame toFrame(std::uint8_t unitId) const;
};

/** Traffic-mix shape for makeTwinTraffic. */
struct TwinTrafficOptions {
    /** Operations to script. */
    std::size_t count = 256;
    /** Cabinets in the plant (bounds the read address space). */
    unsigned cabinetCount = 3;
    /** Fraction of ops that are what-if queries (rest are reads). */
    double whatIfFraction = 0.25;
    /**
     * Distinct what-if variants drawn from (small pool => repeats =>
     * cache hits; the bench and tests both want a non-trivial hit rate).
     */
    std::size_t queryPoolSize = 4;
    /** Horizon of the scripted queries, hours. */
    double horizonHours = 0.5;
};

/** Deterministically script @p opts.count operations from @p seed. */
std::vector<TwinOp> makeTwinTraffic(std::uint64_t seed,
                                    const TwinTrafficOptions &opts);

/**
 * Replay @p ops through @p server on the calling thread and return the
 * raw reply frame bytes, one entry per op, in op order.
 */
std::vector<std::vector<std::uint8_t>>
replayTwinSerial(service::TwinServer &server, const std::vector<TwinOp> &ops);

/**
 * Replay @p ops against @p server from @p clientThreads concurrent
 * clients, each on its own loopback connection served by its own
 * server thread. Client k issues ops k, k+N, k+2N, ... in order;
 * results are reassembled into op order. The reply bytes are
 * byte-identical to replayTwinSerial on the same log — asserted by the
 * concurrency suite under TSan.
 */
std::vector<std::vector<std::uint8_t>>
replayTwinConcurrent(service::TwinServer &server,
                     const std::vector<TwinOp> &ops, unsigned clientThreads);

} // namespace insure::harness

#endif // INSURE_DRILLS_TWIN_DRIVER_HH
