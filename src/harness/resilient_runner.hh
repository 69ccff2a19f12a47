/**
 * @file
 * The in-process execution engine: seeded batch sweeps fanned out over
 * a small thread pool, with crash and hang survival on request.
 *
 * Each run executes in interval-sized chunks through the snapshotter,
 * committing an atomic checkpoint file between chunks. A journaled
 * manifest (JSONL, flushed + fsynced per record) and per-run result
 * files in the campaign state directory make the whole sweep
 * re-entrant: a re-invocation with resume=true skips completed runs
 * (their cached results are returned verbatim, so the campaign output
 * is byte-identical to an uninterrupted sweep) and restarts
 * interrupted runs from their last checkpoint — kill -9 at any instant
 * costs at most one checkpoint interval of one run.
 *
 * A cooperative wall-clock watchdog bounds each run: chunk boundaries
 * check a deadline, and a run that exceeds it is abandoned and retried
 * with exponential backoff under a freshly derived seed (bounded
 * attempts). Only watchdog timeouts retry — a run that *throws* fails
 * deterministically (validate::Policy::Throw surfaces invariant
 * breaches this way on purpose) and is recorded as a failed result.
 *
 * With every ResilientOptions field at its default there is no state
 * directory, no chunking and no watchdog: each run is one
 * ExperimentRig driven to its duration, exactly core::runExperiment.
 */

#ifndef INSURE_HARNESS_RESILIENT_RUNNER_HH
#define INSURE_HARNESS_RESILIENT_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/batch_runner.hh"

namespace insure::harness {

class CampaignJournal;

/** Execution policy of a self-healing campaign. */
struct ResilientOptions {
    /**
     * Campaign state directory: journal, per-run checkpoints and result
     * files live here (created if missing). Empty disables all
     * persistence — watchdog and retry still apply.
     */
    std::string stateDir;
    /**
     * Reuse state found in stateDir: completed runs are served from
     * their result files (only when their recorded spec label and seed
     * match this campaign's), interrupted runs restart from their last
     * checkpoint. Without this flag existing campaign state in the
     * directory is cleared before the sweep starts.
     */
    bool resume = false;
    /**
     * Simulated seconds between mid-run checkpoints (0 disables
     * checkpoint files; runs still chunk for the watchdog).
     */
    Seconds checkpointInterval = 0.0;
    /** Wall-clock budget per run attempt, seconds (0 = no watchdog). */
    double watchdogSeconds = 0.0;
    /** Retry attempts after a watchdog timeout. */
    unsigned maxRetries = 2;
    /** Base of the exponential retry backoff, wall seconds. */
    double backoffSeconds = 1.0;
};

/** Executes seeded sweeps that survive crashes, kills and hangs. */
class ResilientRunner
{
  public:
    /**
     * Invoked once per completed run, serialised under a lock (safe to
     * print from). @p done counts completed runs including this one.
     */
    using Progress = std::function<void(const core::RunResult &,
                                        std::size_t done,
                                        std::size_t total)>;

    /**
     * @param jobs worker threads; 0 selects defaultJobs(). A request
     * above the hardware concurrency warns and is clamped — the runs
     * are CPU-bound, so oversubscription only adds context switches.
     */
    explicit ResilientRunner(unsigned jobs = 0, ResilientOptions opts = {});
    ~ResilientRunner();

    /** The worker-thread count this runner executes with. */
    unsigned jobs() const { return jobs_; }

    /**
     * Execute every spec with the seed already present in its config,
     * spec i as campaign run i. Results are returned in spec order
     * regardless of completion order.
     */
    std::vector<core::RunResult> run(const std::vector<core::RunSpec> &specs,
                                     const Progress &progress = {});

    /**
     * Derive a child seed for every spec from @p masterSeed — in spec
     * order, before any run starts (assignChildSeeds) — then run().
     * Re-running with the same master seed and spec order reproduces
     * every run exactly, at any job count.
     */
    std::vector<core::RunResult> runSeeded(std::vector<core::RunSpec> specs,
                                           std::uint64_t masterSeed,
                                           const Progress &progress = {});

    /**
     * Execute ONE spec under the resilience policy, as run @p index of
     * the campaign: checkpoint/cache files are named run-<index>.*, and
     * the spec's seed must already be set (no derivation happens here).
     *
     * This is the execution engine run() fans out over, exposed so a
     * dispatch worker (src/dispatch) leased run @p index of a sharded
     * campaign executes it through the exact same code path — cache
     * serve on resume, checkpoint/self-heal, watchdog + reseeded
     * retries — that the single-process campaign uses. Thread-safe.
     */
    core::RunResult runOne(const core::RunSpec &spec, std::size_t index);

  private:
    /** Create/clear the state dir and open the journal, exactly once. */
    void ensureCampaignState();

    ResilientOptions opts_;
    unsigned jobs_;
    std::once_flag stateOnce_;
    std::unique_ptr<CampaignJournal> journal_;
};

} // namespace insure::harness

#endif // INSURE_HARNESS_RESILIENT_RUNNER_HH
