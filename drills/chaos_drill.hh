/**
 * @file
 * End-to-end chaos drills: prove the distributed campaign layer and
 * the digital-twin service produce byte-identical results under
 * deterministic transport chaos.
 *
 * Two drills, one discipline:
 *
 *  - runCampaignChaosDrill: for each chaos seed, run a distributed
 *    sweep on a supervised thread fleet whose every czar-side endpoint
 *    is chaos-wrapped (corruption, truncation, drops, duplicated and
 *    split writes, delays, stalls, Poisson disconnects), then compare
 *    the campaign summary JSON byte-for-byte against the chaos-free
 *    single-process oracle. Recovery is layered: FrameDecoder resync
 *    eats corrupted bytes, the czar evicts lease-stalled workers and
 *    re-dispatches, workers reconnect after dropped connections, and
 *    the FleetSupervisor respawns the dead. The drill reports honest
 *    accounting — retries, re-dispatches, respawns, resyncs and the
 *    injected-chaos ground truth — alongside the identity verdict.
 *
 *  - replayTwinChaos: replay a scripted traffic log against a live
 *    TwinServer through chaos-wrapped connections. The client arms a
 *    reply deadline; any attempt that fails (request or reply
 *    destroyed, deadline expired, connection chaos-cut) abandons the
 *    whole session and retries the op on a fresh connection — a stale
 *    reply from a poisoned session can then never pair with the wrong
 *    request. The reply byte vector must equal replayTwinSerial's.
 *    Frame DUPLICATION is deliberately excluded from the twin plan:
 *    the Modbus request/reply stream carries no sequence numbers, so a
 *    duplicated request legitimately produces a second reply and
 *    shifts the serial alignment. Duplication is exercised where the
 *    protocol dedupes (the campaign drill: the czar drops duplicate
 *    RESULTs by run identity) and in the decoder chaos suite.
 *
 * Drill logic, not campaign machinery: it lives in the insure_drills
 * support library, linked only by the drill benches and suites.
 */

#ifndef INSURE_DRILLS_CHAOS_DRILL_HH
#define INSURE_DRILLS_CHAOS_DRILL_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dispatch/fleet.hh"
#include "drills/twin_driver.hh"
#include "service/chaos_stream.hh"

namespace insure::dispatch {

/** Knobs of the distributed-campaign chaos drill. */
struct CampaignDrillOptions {
    /** The campaign under test (default mirrors the dispatch tests). */
    SweepSpec spec;
    /** Chaos seeds to sweep: firstChaosSeed .. firstChaosSeed+seeds-1. */
    std::size_t seeds = 10;
    std::uint64_t firstChaosSeed = 1;
    /** Fleet shape per seed. */
    unsigned workers = 3;
    std::size_t chunkRuns = 3;
    /** The weather (per-connection budget bounds every storm). */
    service::ChaosPlan chaos = service::ChaosPlan::storm(48);
    /** Supervisor respawn budget per seed. */
    std::size_t maxRespawns = 6;
    /** Per-worker reconnect budget per seed. */
    std::size_t workerReconnects = 6;
    /** Czar liveness clocks (generous: sanitizers stretch wall time). */
    double workerTimeoutSeconds = 30.0;
    double leaseProgressTimeoutSeconds = 3.0;
    double allDeadGraceSeconds = 10.0;
    double heartbeatSeconds = 0.05;

    CampaignDrillOptions()
    {
        spec.runs = 8;
        spec.days = 0.05;
        spec.faultRatePerHour = 4.0;
        spec.masterSeed = 31337;
    }
};

/** One chaos seed's verdict and accounting. */
struct CampaignDrillSeedOutcome {
    std::uint64_t chaosSeed = 0;
    /** The campaign ran to completion under this seed's weather. */
    bool completed = false;
    /** Summary JSON byte-identical to the chaos-free oracle. */
    bool identical = false;
    /** Failure detail when !completed. */
    std::string error;
    CzarStats czar;
    SupervisorStats supervisor;
};

/** The drill's aggregate verdict. */
struct CampaignDrillReport {
    /** The chaos-free single-process summary JSON (the ground truth). */
    std::string oracleJson;
    std::vector<CampaignDrillSeedOutcome> outcomes;

    std::size_t completedSeeds() const;
    std::size_t identicalSeeds() const;
    /** Every seed completed AND produced byte-identical JSON. */
    bool passed() const;
};

/** Run the campaign drill (thread fleets; no sockets needed). */
CampaignDrillReport runCampaignChaosDrill(const CampaignDrillOptions &opts);

/** Drill report as JSON (one object; machine-checkable gate input). */
void writeCampaignDrillJson(const CampaignDrillReport &report,
                            std::ostream &os);

/** Knobs of the twin-service chaos replay. */
struct TwinChaosOptions {
    /**
     * The weather. duplicateRate is forcibly zeroed (see file comment:
     * the serial reply stream has no sequence numbers to dedupe on).
     */
    service::ChaosPlan chaos = service::ChaosPlan::storm(32);
    std::uint64_t chaosSeed = 1;
    /**
     * Reply deadline per attempt, seconds. An expiry poisons the
     * session: reconnect and resend rather than risk pairing a late
     * reply with the next request.
     */
    double replyDeadlineSeconds = 1.5;
    /** Attempts per op before the drill gives up (chaos budget should
     *  make this unreachable). */
    std::size_t maxAttemptsPerOp = 10;
};

/** Twin replay outcome and accounting. */
struct TwinChaosReport {
    /** Reply frame bytes per op, in op order (empty = op failed). */
    std::vector<std::vector<std::uint8_t>> replies;
    /** Every op got a reply within its attempt budget. */
    bool completed = false;
    /** Attempts beyond each op's first (timeouts + poisoned sessions). */
    std::uint64_t resends = 0;
    /** Connections opened beyond the first. */
    std::uint64_t reconnects = 0;
    /** Injected-chaos ground truth across every connection. */
    service::ChaosStats chaos;
};

/**
 * Replay @p ops against @p server through chaos-wrapped loopback
 * connections (one serveStream thread per connection, as production
 * serves TCP clients). Returns replies in op order for byte-comparison
 * against replayTwinSerial on the same log.
 */
TwinChaosReport replayTwinChaos(service::TwinServer &server,
                                const std::vector<harness::TwinOp> &ops,
                                const TwinChaosOptions &opts);

} // namespace insure::dispatch

#endif // INSURE_DRILLS_CHAOS_DRILL_HH
