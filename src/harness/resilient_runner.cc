#include "harness/resilient_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>

#include "harness/campaign_journal.hh"
#include "harness/run_result_io.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "snapshot/snapshotter.hh"

namespace insure::harness {

namespace {

/** Raised by the chunk-boundary deadline check; only this retries. */
class WatchdogTimeout : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

} // namespace

ResilientRunner::ResilientRunner(unsigned jobs, ResilientOptions opts)
    : opts_(std::move(opts)),
      jobs_(jobs > 0 ? clampJobs(jobs, "--jobs") : defaultJobs())
{
}

ResilientRunner::~ResilientRunner() = default;

void
ResilientRunner::ensureCampaignState()
{
    std::call_once(stateOnce_, [this] {
        if (!opts_.stateDir.empty()) {
            std::filesystem::create_directories(opts_.stateDir);
            if (!opts_.resume)
                clearCampaignState(opts_.stateDir);
        }
        journal_ = std::make_unique<CampaignJournal>(opts_.stateDir);
    });
}

core::RunResult
ResilientRunner::runOne(const core::RunSpec &spec, std::size_t i)
{
    ensureCampaignState();
    CampaignJournal &journal = *journal_;

    core::RunResult out;
    out.label = spec.label;
    out.seed = spec.config.seed;
    out.simulatedSeconds = spec.config.duration;

    const std::string resultPath =
        opts_.stateDir.empty() ? std::string()
                               : runResultPath(opts_.stateDir, i);
    const std::string ckptPath =
        opts_.stateDir.empty() ? std::string()
                               : runCheckpointPath(opts_.stateDir, i);

    // Completed runs are served from their result file verbatim: the
    // resumed campaign aggregates the identical bytes an uninterrupted
    // sweep would have.
    if (opts_.resume && !resultPath.empty() &&
        std::filesystem::exists(resultPath)) {
        try {
            snapshot::Archive ar = snapshot::readSnapshotFile(resultPath);
            loadRunResult(ar, out, spec.label, spec.config.seed);
            journal.record(i, spec.label, "cached", 0);
            return out;
        } catch (const RunIdentityMismatch &e) {
            // Result file from a different campaign: re-run the spec.
            journal.record(i, spec.label, "cache-mismatch", 0, e.what());
            out = core::RunResult{};
            out.label = spec.label;
            out.seed = spec.config.seed;
            out.simulatedSeconds = spec.config.duration;
        } catch (const snapshot::SnapshotError &e) {
            // Unreadable cache: fall through and re-run the spec.
            journal.record(i, spec.label, "cache-corrupt", 0, e.what());
            out = core::RunResult{};
            out.label = spec.label;
            out.seed = spec.config.seed;
            out.simulatedSeconds = spec.config.duration;
        }
    }

    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned attempt = 0;; ++attempt) {
        core::RunSpec attemptSpec = spec;
        if (attempt > 0) {
            // A fresh derived seed sidesteps input-dependent hangs;
            // the journal records the substitution.
            attemptSpec.config.seed =
                Rng(spec.config.seed)
                    .deriveSeed(streamTag("harness.retry") + attempt);
            out.seed = attemptSpec.config.seed;
        }

        snapshot::CheckpointOptions ck;
        if (!ckptPath.empty() && opts_.checkpointInterval > 0.0)
            ck.path = ckptPath;
        // The chunk length serves both duties: checkpoint cadence
        // and watchdog granularity (a watchdog without checkpoints
        // still needs chunked execution to observe the deadline).
        ck.interval = opts_.checkpointInterval > 0.0
                          ? opts_.checkpointInterval
                          : (opts_.watchdogSeconds > 0.0
                                 ? attemptSpec.config.duration / 16.0
                                 : 0.0);
        const auto attemptStart = std::chrono::steady_clock::now();
        if (opts_.watchdogSeconds > 0.0) {
            const double budget = opts_.watchdogSeconds;
            ck.onProgress = [attemptStart, budget](Seconds simNow) {
                const double elapsed =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - attemptStart)
                        .count();
                if (elapsed > budget)
                    throw WatchdogTimeout(
                        "watchdog: run exceeded " + std::to_string(budget) +
                        " s wall clock at t=" + std::to_string(simNow) +
                        " s sim");
            };
        }

        journal.record(i, spec.label, attempt == 0 ? "start" : "retry",
                       attempt);
        try {
            const bool fromCkpt = opts_.resume && attempt == 0 &&
                                  !ck.path.empty() &&
                                  std::filesystem::exists(ck.path);
            if (fromCkpt) {
                try {
                    out.result =
                        snapshot::resumeCheckpointed(attemptSpec.config, ck);
                    journal.record(i, spec.label, "resumed", attempt);
                } catch (const snapshot::SnapshotError &e) {
                    // Corrupt/mismatched checkpoint: self-heal by
                    // discarding it and running from the start.
                    journal.record(i, spec.label, "checkpoint-corrupt",
                                   attempt, e.what());
                    std::filesystem::remove(ck.path);
                    out.result =
                        snapshot::runCheckpointed(attemptSpec.config, ck);
                }
            } else {
                out.result =
                    snapshot::runCheckpointed(attemptSpec.config, ck);
            }
            out.failed = false;
            out.error.clear();
            break;
        } catch (const WatchdogTimeout &e) {
            // The abandoned attempt's checkpoint is unusable by the
            // reseeded retry (different stream states).
            if (!ckptPath.empty())
                std::filesystem::remove(ckptPath);
            journal.record(i, spec.label, "timeout", attempt, e.what());
            if (attempt >= opts_.maxRetries) {
                out.failed = true;
                out.error = e.what();
                break;
            }
            // ldexp, not a shift: --retries >= 32 must saturate the
            // backoff, not shift past the width of the operand (UB).
            const double backoff =
                opts_.backoffSeconds *
                std::ldexp(1.0, static_cast<int>(std::min(attempt, 62u)));
            std::this_thread::sleep_for(
                std::chrono::duration<double>(backoff));
        } catch (const std::exception &e) {
            // Deterministic failure (e.g. validate::Policy::Throw):
            // recorded, never retried; the sweep and its sibling runs
            // carry on.
            out.failed = true;
            out.error = e.what();
            break;
        } catch (...) {
            out.failed = true;
            out.error = "unknown exception";
            break;
        }
    }
    out.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

    if (!resultPath.empty()) {
        snapshot::Archive ar = snapshot::Archive::forSave();
        saveRunResult(ar, out, spec.config.seed);
        snapshot::writeSnapshotFile(resultPath, ar);
        if (!ckptPath.empty())
            std::filesystem::remove(ckptPath);
    }
    journal.record(i, spec.label, out.failed ? "failed" : "done", 0,
                   out.error);
    return out;
}

std::vector<core::RunResult>
ResilientRunner::runSeeded(std::vector<core::RunSpec> specs,
                           std::uint64_t masterSeed,
                           const Progress &progress)
{
    assignChildSeeds(specs, masterSeed);
    return run(specs, progress);
}

std::vector<core::RunResult>
ResilientRunner::run(const std::vector<core::RunSpec> &specs,
                     const Progress &progress)
{
    ensureCampaignState();

    std::vector<core::RunResult> results(specs.size());
    std::atomic<std::size_t> nextIndex{0};
    std::size_t done = 0;
    std::mutex progressMutex;

    auto execute = [&](std::size_t i) {
        results[i] = runOne(specs[i], i);
        if (progress) {
            const std::lock_guard<std::mutex> lock(progressMutex);
            progress(results[i], ++done, specs.size());
        }
    };

    const std::size_t workers = std::min<std::size_t>(jobs_, specs.size());
    if (workers <= 1) {
        for (std::size_t i = 0; i < specs.size(); ++i)
            execute(i);
        return results;
    }
    auto worker = [&] {
        for (std::size_t i = nextIndex.fetch_add(1); i < specs.size();
             i = nextIndex.fetch_add(1)) {
            execute(i);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
    return results;
}

} // namespace insure::harness
