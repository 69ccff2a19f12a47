/**
 * @file
 * Fleet driver: assembles a czar plus a supervised worker fleet and
 * runs a distributed campaign end to end.
 *
 * Two fleet modes behind one call:
 *
 *  - Thread: workers are std::threads talking to the czar over
 *    in-memory loopback pairs. No sockets, no processes — fully
 *    deterministic plumbing for tests and benches, including
 *    disposable-worker churn via per-worker run budgets.
 *
 *  - Process: workers are fork/exec'd insure_worker processes
 *    connecting back over TCP. This is the real deployment shape; the
 *    kill-one drill (SIGKILL a worker mid-campaign) exercises czar
 *    re-dispatch against an actual dead process.
 *
 * Both modes run through the FleetSupervisor, which keeps the fleet
 * alive under failure: it watches every worker it spawned and replaces
 * the ones that die, up to a fleet-wide respawn budget. When the
 * budget is spent the fleet degrades to "drain" mode — survivors
 * finish the campaign, nothing new is spawned — so a crash loop can
 * never fork-bomb the host. With the default options — no respawns, no
 * chaos, no reconnects — the campaign runs on whatever survives.
 *
 * The supervisor is also where transport chaos is injected: every
 * czar-side endpoint it adopts (loopback pair end or accepted TCP
 * stream) is wrapped in a ChaosStream seeded per-connection from the
 * plan seed. Wrapping the czar side covers both directions — the
 * wrapper's send path mangles czar-to-worker traffic and its receive
 * path mangles worker-to-czar traffic — and works identically for
 * thread and process fleets, with no worker-side changes.
 *
 * Recovery layering (who handles what):
 *  - transport chaos / dropped frames  -> FrameDecoder resync + czar
 *    lease-progress eviction + re-dispatch
 *  - lost connection, live worker      -> worker-side reconnect
 *    (runResilientWorker re-dials and re-HELLOs with the
 *    ResilientWorkerOptions connect defaults)
 *  - dead worker                       -> supervisor respawn
 *  - czar death                        -> journal + result files
 *    (PR-5 resume), outside this file's scope
 */

#ifndef INSURE_DISPATCH_FLEET_HH
#define INSURE_DISPATCH_FLEET_HH

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dispatch/czar.hh"
#include "dispatch/worker.hh"
#include "service/chaos_stream.hh"

namespace insure::dispatch {

/** How fleet workers are hosted. */
enum class FleetMode {
    Thread,
    Process,
};

/** Fleet assembly and supervision knobs. */
struct FleetOptions {
    FleetMode mode = FleetMode::Thread;
    /** Initial fleet size. */
    unsigned workers = 4;
    /** Czar policy (state dir, resume, chunking, liveness). */
    CzarOptions czar;
    /** Base policy handed to every worker (id gets a -N suffix). */
    WorkerOptions worker;
    /**
     * Thread mode: per-worker run budgets for the INITIAL fleet
     * (worker i exits after budget[i] runs; missing or 0 entries =
     * unlimited). Simulates disposable-worker churn deterministically.
     * Respawned replacements are always unlimited — a budget-churned
     * worker replaced with an identical budget would churn forever.
     */
    std::vector<std::size_t> threadWorkerMaxRuns;
    /**
     * Process mode: SIGKILL the first worker this many seconds after
     * launch (< 0 = no kill). The worker-death drill.
     */
    double killOneAfterSeconds = -1.0;
    /**
     * Process mode: the insure_worker executable. Empty selects the
     * build-time default (INSURE_WORKER_EXE).
     */
    std::string workerExe;
    /**
     * Fleet-wide respawn budget: total replacement workers that may be
     * spawned over the campaign (0 = never respawn).
     */
    std::size_t maxRespawns = 0;
    /** Per-worker reconnect budget after an unexpected stream loss. */
    std::size_t workerReconnects = 0;
    /** Chaos injected on every czar-side endpoint (default: none). */
    service::ChaosPlan chaos;
    /** Root seed for per-connection chaos streams. */
    std::uint64_t chaosSeed = kDefaultSeed;
};

/** Supervisor-lifetime accounting. */
struct SupervisorStats {
    /** Workers spawned in total (initial fleet + respawns). */
    std::uint64_t spawned = 0;
    /** Replacement workers spawned after a death. */
    std::uint64_t respawned = 0;
    /** Worker exits observed (thread returns / processes reaped). */
    std::uint64_t exited = 0;
    /**
     * Abnormal exits NOT replaced because the respawn budget was
     * spent. Clean exits (SHUTDOWN handshake / orderly retirement)
     * count in `exited` only: respawning for a finished czar to shut
     * down again would just burn the budget at every campaign end.
     */
    std::uint64_t drained = 0;
    /** Czar-side endpoints adopted (= chaos connection seeds used). */
    std::uint64_t connections = 0;
    /**
     * Chaos ground truth accumulated across every wrapped connection
     * (flushed as streams close/die; complete once stop() returns).
     */
    service::ChaosStats chaos;
};

/**
 * Owns the fleet for one campaign: spawn with start(), run the czar,
 * then stop(). stop() is also called by the destructor; it disables
 * respawn, unblocks the acceptor, joins every worker thread and reaps
 * every worker process. Thread-safe. Reads every FleetOptions field
 * except czar and killOneAfterSeconds.
 */
class FleetSupervisor
{
  public:
    /** @p czar must outlive the supervisor. */
    FleetSupervisor(Czar &czar, FleetOptions opts);
    ~FleetSupervisor();

    FleetSupervisor(const FleetSupervisor &) = delete;
    FleetSupervisor &operator=(const FleetSupervisor &) = delete;

    /** Spawn the initial fleet (process mode: listener + acceptor). */
    void start();

    /** Disable respawn and join/reap everything. Idempotent. */
    void stop();

    /** Accounting snapshot. */
    SupervisorStats stats() const;

    /** Live worker process ids (process mode; empty in thread mode). */
    std::vector<pid_t> pids() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Everything a drill wants to know about one distributed run. */
struct DistributedRunReport {
    fault::CampaignSummary summary;
    CzarStats czar;
    SupervisorStats supervisor;
};

/**
 * Run @p spec on a fresh fleet. Throws std::runtime_error when the
 * fleet cannot be assembled (e.g. sockets unavailable in a sandbox —
 * process mode only) or the campaign loses every worker for longer
 * than the czar's grace window.
 */
fault::CampaignSummary runDistributedSweep(const SweepSpec &spec,
                                           const FleetOptions &opts);

/** As runDistributedSweep, but with the full robustness ledger. */
DistributedRunReport runDistributedSweepReport(const SweepSpec &spec,
                                               const FleetOptions &opts);

} // namespace insure::dispatch

#endif // INSURE_DISPATCH_FLEET_HH
